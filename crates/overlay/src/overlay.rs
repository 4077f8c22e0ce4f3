//! The overlay simulation driver.
//!
//! [`Overlay`] owns the supernode, every peer's MPD/RS state, the network
//! and noise models, and a discrete-event simulation
//! ([`p2pmpi_simgrid::engine::TypedEngine`]) that carries the virtual clock.
//! It exposes exactly the interactions the paper's job-submission procedure
//! needs:
//!
//! * membership (register, alive signals, expiry),
//! * cache refresh from the supernode and latency probing,
//! * RS↔RS reservation brokering (with timeouts when a peer is dead),
//! * MPD start requests with key verification,
//! * fault injection (peer, supernode and link faults, scheduled churn).
//!
//! # The event timeline
//!
//! All time-driven behaviour is *scheduled* on the engine rather than
//! applied inline: scheduled faults ([`Overlay::schedule_churn`], one
//! event kind for every fault), periodic heartbeat rounds
//! ([`Overlay::start_heartbeats`]), periodic cache refreshes
//! ([`Overlay::start_cache_refresh`]), periodic reservation-expiry sweeps
//! ([`Overlay::start_reservation_expiry`]) and job completions
//! ([`Overlay::schedule_completion`]) interleave on one timeline, delivered
//! in `(time, schedule-order)` order by [`Overlay::run_until`].  The
//! `stop_*` counterparts cancel the pending event by its [`EventKey`], so
//! re-arms and revocations never leave ghost events behind.
//!
//! # The round walk
//!
//! A brokering round sends one request per host, all at the same instant
//! `sent`: RS reservation requests ([`Overlay::rs_round_into`], steps 3–5)
//! or MPD start requests ([`Overlay::start_round_into`], steps 7–8).  Each
//! request resolves through *messages*, each delivered at its own instant:
//!
//! * The remote RS decides a reservation at send (its grant or refusal
//!   mutates remote state at once).  An alive remote whose round trip is
//!   shorter than `rs_timeout` sends a *reply* that lands at `sent + rtt`.
//!   A dead remote, or a reply that cannot beat the timeout, leaves a
//!   *timeout* at `sent + rs_timeout`: the submitter gives up at its
//!   deadline, even when the reply would land at that very instant.
//! * A start request *arrives* at the remote MPD one one-way transfer after
//!   send, and the start decision belongs to that instant: the remote's
//!   state then.  A reply that lands strictly before the deadline `sent +
//!   rs_timeout` is an *in-time reply* at its own instant; a dead remote,
//!   or a reply that cannot beat the deadline, leaves a *deadline* instead.
//!
//! **The stamping rule.**  Each message carries the FIFO stamp it would get
//! as a queue event of its own, scheduled when the submitter or the remote
//! learns it is coming: RS timeouts and start arrivals at send, in send
//! order; the RS replies right after the send loop; a start deadline at
//! the arrival that finds its reply dead or late; and the in-time start
//! replies at the round's last arrival, the first instant the submitter
//! can hold all of them.  Stamps come from the queue's own sequence
//! ([`TypedEngine::stamp`]), so a message and an event compare by `(time,
//! stamp)` exactly as two events do.  A round's replies touch nothing but
//! the submitter's own outcomes, so they ride one message at the latest of
//! them; and no event can sit between two consecutive stamps, so messages
//! of one kind at one instant with consecutive stamps go as one run.
//!
//! **The walk.**  The round delivers its messages in `(time, stamp)` order,
//! and before each it dispatches every timeline event that precedes it
//! ([`TypedEngine::pop_before`]).  That is the order a heap would pop the
//! same messages in, had each been pushed when it was stamped.  So every
//! event fires at its own instant and sees what it would see then, and
//! every message acts at its own instant: a start sees a crash or recovery
//! due before its arrival, a completion due inside an RS round frees its
//! host after that host already answered.  The round is over when its last
//! message is in, the clock ends there, and each message counts as one
//! delivery in [`Overlay::events_processed`].  A round whose window is
//! clear is the same walk finding nothing ahead of any message.
//!
//! Only messages that outlive the round are real events.  One is the eager
//! release of a grant the submitter gave up on: a reservation granted by a
//! remote whose reply lost to its timeout, or ranks started past their
//! deadline.  It is counted in [`Overlay::leaked_grants`] and reclaims the
//! slot one one-way transfer later, instead of at the periodic expiry sweep
//! ([`Overlay::start_reservation_expiry`]), which stays the backstop for
//! submitters that crash mid-procedure and never touches `Running`
//! reservations.  [`Overlay::leaked_grant_hwm`] tracks how many released
//! grants were simultaneously outstanding; on a standard no-fault day both
//! counters stay 0.  The other is a start request on links so slow that it
//! cannot arrive before its deadline: its deadline is stamped at send and
//! its late arrival only settles the remote side.
//!
//! This module's tests check the walk against a reference that pushes each
//! message onto the real queue when it is stamped, so the heap orders them:
//! outcomes, clock, delivered count, RS counters and trace must agree over
//! random rounds and disturbances
//! (`decided_rounds_match_the_per_request_reference`).
//! `crates/bench/tests/day_sweep.rs` and `tests/modeled_costing.rs` pin the
//! sweeps' outcomes.  The round's message buffer and every RS's reservation
//! table are reused, so a steady-state brokering loop allocates nothing once
//! the high-water marks are reached.
//!
//! # Fault injection
//!
//! Every scheduled fault reaches the timeline one way:
//! [`Overlay::schedule_churn`] takes a [`crate::churn::ChurnSchedule`]'s
//! events and queues each as one event kind, which [`ChurnKind`] names:
//!
//! * a peer crash or recovery ([`Overlay::kill_peer`],
//!   `Overlay::revive_peer`): flapping peers, and a site or rack outage
//!   as one crash and one recovery per peer;
//! * a supernode crash or restart (`Overlay::crash_supernode`,
//!   `Overlay::recover_supernode`): the volatile registry is lost, cache
//!   refreshes go unanswered and peers keep brokering from their stale
//!   [`crate::cache::CachedList`] (degraded mode, not a halt); after the
//!   restart the heartbeat round re-registers every alive peer the
//!   supernode no longer knows (the resync path);
//! * a site latency factor ([`Overlay::set_site_latency_factor`]) in the
//!   one network model that costs messages and probes alike; a slow-link
//!   window is the factor and then 1.0 (in-flight events keep the cost
//!   computed when they were scheduled).
//!
//! [`Overlay::set_fail_jobs_on_crash`] makes a peer crash kill the running
//! jobs it participates in: their completions are mass-revoked via
//! [`p2pmpi_simgrid::engine::TypedEngine::cancel_batch`] and every
//! participant's gatekeeper slot is freed, with [`Overlay::jobs_killed`]
//! counting the casualties.
//!
//! The co-allocation procedure itself lives in the `p2pmpi-core` crate and
//! drives this type.

use crate::cache::CacheEntry;
use crate::churn::{ChurnEvent, ChurnKind};
use crate::messages::{ReservationKey, ReservationReply, StartReply};
use crate::mpd::MpdNode;
use crate::peer::{PeerId, PeerState};
use crate::supernode::Supernode;
use p2pmpi_simgrid::engine::TypedEngine;
use p2pmpi_simgrid::event::EventKey;
use p2pmpi_simgrid::network::NetworkModel;
use p2pmpi_simgrid::noise::NoiseModel;
use p2pmpi_simgrid::time::{SimDuration, SimTime};
use p2pmpi_simgrid::topology::{HostId, SiteId, Topology};
use p2pmpi_simgrid::trace::{TraceCategory, Tracer};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;
use std::sync::Arc;

// The brokering rounds: a child module, so the walk can dispatch timeline
// events and reach every peer's state.
#[path = "round.rs"]
mod round;

/// Tunable parameters of the overlay protocol simulation.
#[derive(Debug, Clone, Copy)]
pub struct OverlayParams {
    /// How long the submitter waits for an RS answer before marking the peer
    /// dead (step 5 of the procedure).
    pub rs_timeout: SimDuration,
    /// Number of probe rounds performed when bootstrapping a fresh cache.
    pub bootstrap_probe_rounds: usize,
    /// Period of the MPD alive signal to the supernode.
    pub heartbeat_period: SimDuration,
    /// Size in bytes of an RS reservation-request message.
    pub rs_message_bytes: u64,
    /// Size in bytes of an MPD start-request message (program name + ranks).
    pub start_message_bytes: u64,
}

impl Default for OverlayParams {
    fn default() -> Self {
        OverlayParams {
            rs_timeout: SimDuration::from_secs(2),
            bootstrap_probe_rounds: 3,
            heartbeat_period: SimDuration::from_secs(120),
            rs_message_bytes: 256,
            start_message_bytes: 2048,
        }
    }
}

/// Outcome of an RS→RS reservation request as seen by the submitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RsOutcome {
    /// The remote RS answered within the timeout.
    Reply {
        /// The OK/NOK answer.
        reply: ReservationReply,
        /// Round-trip time of the exchange.
        elapsed: SimDuration,
    },
    /// The remote peer never answered; it is to be marked dead.
    Timeout {
        /// Time spent waiting (the RS timeout).
        elapsed: SimDuration,
    },
}

impl RsOutcome {
    /// Time spent on this interaction.
    pub fn elapsed(&self) -> SimDuration {
        match self {
            RsOutcome::Reply { elapsed, .. } | RsOutcome::Timeout { elapsed } => *elapsed,
        }
    }
}

/// An event on the overlay's simulation timeline.
///
/// These are the payloads of the overlay's [`TypedEngine`]; they stay
/// private because scheduling happens through the typed methods
/// (`schedule_churn`, `start_heartbeats`, `schedule_completion`, ...),
/// which also maintain the re-arm bookkeeping.
#[derive(Debug)]
enum OverlayEvent {
    /// A scheduled fault ([`Overlay::schedule_churn`]): a peer crash or
    /// recovery, a supernode crash or restart, a site latency factor.
    Churn(ChurnKind),
    /// One round of alive signals plus the supernode expiry sweep;
    /// re-arms itself every `heartbeat_period` while enabled.
    HeartbeatRound,
    /// A peer pulls the supernode host list into its cache; re-arms itself
    /// at the peer's configured refresh period.
    CacheRefresh(PeerId),
    /// Every RS drops pending reservations older than the configured TTL;
    /// re-arms itself at the configured sweep period.
    ReservationSweep,
    /// A running job finishes: free the gatekeeper slot on every host it
    /// occupied.
    JobComplete {
        key: ReservationKey,
        peers: Vec<PeerId>,
    },
    /// An eager grant-release message reaches a granter whose reply lost
    /// the race: the leaked reservation is cancelled on arrival.
    GrantRelease { to: PeerId, key: ReservationKey },
    /// A start request the submitter gave up on before it could even
    /// arrive (extreme links: its deadline was stamped at send) reaches the
    /// remote MPD, after its round is over, and only settles the remote
    /// side.
    StartArriveAbandoned {
        from: PeerId,
        to: PeerId,
        key: ReservationKey,
        ranks: u32,
    },
    /// A round message pushed onto the queue by the walk's reference (tests
    /// only; see `round.rs`).
    #[cfg(test)]
    Round(round::Message),
}

/// The simulated P2P-MPI overlay.
pub struct Overlay {
    topology: Arc<Topology>,
    network: NetworkModel,
    /// The load noise that perturbs every latency probe.
    noise: NoiseModel,
    supernode: Supernode,
    supernode_host: HostId,
    nodes: Vec<MpdNode>,
    /// The peer on each host, indexed by the topology's dense host ids.
    host_to_peer: Vec<Option<PeerId>>,
    sim: TypedEngine<OverlayEvent>,
    rng: StdRng,
    tracer: Tracer,
    params: OverlayParams,
    /// Whether periodic heartbeat rounds run; once started they re-arm
    /// forever.
    heartbeats_on: bool,
    /// Per-peer periodic cache refresh: period and the pending event.
    cache_refresh: HashMap<PeerId, (SimDuration, EventKey)>,
    /// Periodic reservation-expiry sweep: (ttl, period) and the pending
    /// event.
    resv_expiry: Option<(SimDuration, SimDuration, EventKey)>,
    /// The control-message and probe times between two *distinct* hosts,
    /// by `(submitter site, remote site)`: the transfer model sees hosts
    /// only through their sites there.  Filled on first use, forgotten
    /// whenever a site latency factor changes.
    site_control_times: Vec<Option<round::ControlTimes>>,
    /// The message buffer every round walks, reused round after round.
    round: round::Round,
    /// Whether the supernode is up (fault injection; degraded-mode
    /// brokering while down).
    supernode_up: bool,
    /// Grants whose reply lost the race to its timeout — counted when the
    /// timeout fires, released eagerly right after.  Cumulative.
    leaked_grants: u64,
    /// Leaked grants whose eager release has not arrived yet.
    leaked_outstanding: u64,
    /// High-water mark of `leaked_outstanding` (the verdict metric).
    leaked_hwm: u64,
    /// Running jobs killed because a participant crashed (only counted
    /// while `fail_jobs_on_crash` is on).  Cumulative.
    jobs_killed: u64,
    /// When on, a peer crash kills the running jobs it participates in
    /// (completions mass-revoked, slots freed on every participant).  Off
    /// by default: flapping-churn baselines model fail-over, not job loss.
    fail_jobs_on_crash: bool,
    /// Scheduled completions by reservation key, tracked only while
    /// `fail_jobs_on_crash` is on so crashes can find their victims.
    running_jobs: HashMap<ReservationKey, (EventKey, Vec<PeerId>)>,
}

impl Overlay {
    /// Assembles an overlay; normally called through
    /// [`crate::boot::OverlayBuilder`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        topology: Arc<Topology>,
        network: NetworkModel,
        noise: NoiseModel,
        supernode_host: HostId,
        nodes: Vec<MpdNode>,
        rng: StdRng,
        tracer: Tracer,
        params: OverlayParams,
    ) -> Self {
        let mut host_to_peer = vec![None; topology.host_count()];
        for n in &nodes {
            host_to_peer[n.descriptor.host.0] = Some(n.descriptor.id);
        }
        let sites = topology.site_count();
        let round = round::Round::for_peers(nodes.len());
        Overlay {
            topology,
            network,
            noise,
            supernode: Supernode::default(),
            supernode_host,
            nodes,
            host_to_peer,
            sim: TypedEngine::new(),
            rng,
            tracer,
            params,
            heartbeats_on: false,
            cache_refresh: HashMap::new(),
            resv_expiry: None,
            site_control_times: vec![None; sites * sites],
            round,
            supernode_up: true,
            leaked_grants: 0,
            leaked_outstanding: 0,
            leaked_hwm: 0,
            jobs_killed: 0,
            fail_jobs_on_crash: false,
            running_jobs: HashMap::new(),
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The topology the overlay runs on.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topology
    }

    /// The network cost model.
    pub fn network(&self) -> &NetworkModel {
        &self.network
    }

    /// The trace recorder.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Protocol parameters.
    pub fn params(&self) -> OverlayParams {
        self.params
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Number of timeline messages delivered so far: every popped event
    /// plus every round message (see the module docs), which are delivered
    /// without a queue event of their own.
    pub fn events_processed(&self) -> u64 {
        self.sim.processed()
    }

    /// Number of timeline events still pending.
    pub fn events_pending(&self) -> usize {
        self.sim.pending()
    }

    /// Number of timeline tickets still queued, *including* tombstones of
    /// cancelled events awaiting collection — the dead weight a
    /// cancellation-heavy workload (per-reservation timeouts) carries.
    pub fn events_queued(&self) -> usize {
        self.sim.queued()
    }

    /// Payload-slot capacity of the timeline (its high-water mark of
    /// simultaneously pending events; diagnostics for allocation-free
    /// steady-state checks).
    pub fn events_capacity(&self) -> usize {
        self.sim.events_capacity()
    }

    /// Number of peers (alive or dead).
    pub fn peer_count(&self) -> usize {
        self.nodes.len()
    }

    /// All peer ids.
    pub fn peer_ids(&self) -> Vec<PeerId> {
        self.nodes.iter().map(|n| n.descriptor.id).collect()
    }

    /// Immutable access to a peer's MPD state.
    pub fn node(&self, peer: PeerId) -> &MpdNode {
        &self.nodes[peer.0]
    }

    /// Mutable access to a peer's MPD state.
    pub fn node_mut(&mut self, peer: PeerId) -> &mut MpdNode {
        &mut self.nodes[peer.0]
    }

    /// The peer whose MPD runs on `host`, if any.
    pub fn peer_on_host(&self, host: HostId) -> Option<PeerId> {
        self.host_to_peer.get(host.0).copied().flatten()
    }

    /// The host a peer runs on.
    pub fn host_of(&self, peer: PeerId) -> HostId {
        self.nodes[peer.0].descriptor.host
    }

    /// The supernode registry (read-only).
    pub fn supernode(&self) -> &Supernode {
        &self.supernode
    }

    /// Generates a fresh unique reservation key (step 3 of the procedure).
    pub fn generate_key(&mut self) -> ReservationKey {
        ReservationKey(self.rng.gen())
    }

    // ------------------------------------------------------------------
    // The event timeline
    // ------------------------------------------------------------------

    /// Runs the simulation until `deadline`: every scheduled event due at or
    /// before it — churn, heartbeat rounds, cache refreshes, reservation
    /// sweeps, job completions — fires in `(time, schedule-order)` order,
    /// and the clock ends at `deadline` (or later only if an event fired
    /// exactly there).  Returns the number of messages delivered on the
    /// way (the growth of [`Overlay::events_processed`]).
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let before = self.sim.processed();
        while let Some(ev) = self.sim.pop_due(deadline) {
            self.dispatch(ev.payload);
        }
        self.sim.advance_clock_to(deadline);
        self.sim.processed() - before
    }

    /// [`Overlay::run_until`] plus the shard-barrier report: returns the
    /// number of events delivered and the timeline's *safe horizon* — the
    /// firing time of the next pending event, a lower bound on when this
    /// overlay's state can next change without outside input (`None` if the
    /// timeline drained dry).  A conservatively synchronised parallel
    /// driver collects this from every shard at a barrier; see the
    /// `p2pmpi_simgrid::event` module docs' *Parallel shards* section for
    /// the contract.
    pub fn run_until_horizon(&mut self, deadline: SimTime) -> (u64, Option<SimTime>) {
        let delivered = self.run_until(deadline);
        (delivered, self.sim.safe_horizon())
    }

    /// Eagerly compacts cancelled events' tombstoned tickets out of the
    /// timeline, recycling their payload slots (the dead weight
    /// [`Overlay::events_queued`]` - `[`Overlay::events_pending`] reports).
    /// Outcome-invariant; returns how many dead tickets were collected.
    pub fn reap_events(&mut self) -> usize {
        self.sim.reap_events()
    }

    /// Delivers one due timeline event.
    fn dispatch(&mut self, event: OverlayEvent) {
        match event {
            OverlayEvent::Churn(kind) => match kind {
                ChurnKind::Crash(peer) => self.kill_peer(peer),
                ChurnKind::Recover(peer) => self.revive_peer(peer),
                ChurnKind::SupernodeDown => self.crash_supernode(),
                ChurnKind::SupernodeUp => self.recover_supernode(),
                ChurnKind::SiteLatency { site, factor } => {
                    self.set_site_latency_factor(site, factor);
                }
            },
            OverlayEvent::HeartbeatRound => {
                self.heartbeat_round();
                self.sim
                    .schedule_in(self.params.heartbeat_period, OverlayEvent::HeartbeatRound);
            }
            OverlayEvent::CacheRefresh(peer) => {
                if let Some(&(period, _)) = self.cache_refresh.get(&peer) {
                    // A dead MPD refreshes nothing, but the schedule stays
                    // armed so it resumes once the peer recovers.
                    if self.nodes[peer.0].is_alive() {
                        self.refresh_cache(peer);
                    }
                    let key = self
                        .sim
                        .schedule_in(period, OverlayEvent::CacheRefresh(peer));
                    self.cache_refresh.insert(peer, (period, key));
                }
            }
            OverlayEvent::ReservationSweep => {
                if let Some((ttl, period, _)) = self.resv_expiry {
                    let now = self.sim.now();
                    let mut dropped = 0;
                    for node in &mut self.nodes {
                        dropped += node.rs.expire_pending(now, ttl);
                    }
                    if dropped > 0 {
                        self.tracer.record(now, TraceCategory::Reservation, || {
                            format!("expired {dropped} stale pending reservation(s)")
                        });
                    }
                    let key = self.sim.schedule_in(period, OverlayEvent::ReservationSweep);
                    self.resv_expiry = Some((ttl, period, key));
                }
            }
            OverlayEvent::JobComplete { key, peers } => {
                if self.fail_jobs_on_crash {
                    self.running_jobs.remove(&key);
                }
                let mut freed = 0;
                for peer in peers {
                    if self.nodes[peer.0].rs.complete(key) {
                        freed += 1;
                    }
                }
                self.tracer
                    .record(self.sim.now(), TraceCategory::Runtime, || {
                        format!("job completed, freed {freed} host(s)")
                    });
            }
            OverlayEvent::GrantRelease { to, key } => {
                self.leaked_outstanding = self.leaked_outstanding.saturating_sub(1);
                if self.nodes[to.0].rs.cancel(key) {
                    self.tracer
                        .record(self.sim.now(), TraceCategory::Reservation, || {
                            format!("{to}: leaked grant {key} released eagerly")
                        });
                }
            }
            OverlayEvent::StartArriveAbandoned {
                from,
                to,
                key,
                ranks,
            } => {
                // The submitter timed out long ago: ranks started now are
                // abandoned on arrival and reclaimed as a leaked grant.
                let now = self.sim.now();
                if self.remote_start(to, key, ranks, now) == Some(StartReply::Started) {
                    self.release_leaked_grant(from, to, key);
                }
            }
            #[cfg(test)]
            OverlayEvent::Round(_) => unreachable!("a round message outside its walk"),
        }
    }

    /// Counts a grant whose reply lost the race and schedules its eager
    /// release: one one-way control message from the submitter back to the
    /// granter.  (The remote decision is known at this end of the
    /// simulation, so the release is only put on the timeline when there
    /// actually is a grant to reclaim — a real submitter would fire the
    /// cancel blindly, with the same outcome.)
    fn release_leaked_grant(&mut self, from: PeerId, to: PeerId, key: ReservationKey) {
        self.leaked_grants += 1;
        self.leaked_outstanding += 1;
        self.leaked_hwm = self.leaked_hwm.max(self.leaked_outstanding);
        let src = self.nodes[from.0].descriptor.host;
        let dst = self.nodes[to.0].descriptor.host;
        let delay = self.network.transfer_time(src, dst, 64);
        self.sim
            .schedule_in(delay, OverlayEvent::GrantRelease { to, key });
    }

    /// Puts scheduled faults on the timeline, in the given order (events
    /// must not be in the past): the one way a crash, a recovery, a
    /// supernode outage or a site latency factor gets there.  Repeated
    /// calls accumulate: each call adds its events to the timeline
    /// alongside whatever was already scheduled.
    pub fn schedule_churn(&mut self, events: Vec<ChurnEvent>) {
        for ev in events {
            assert!(
                ev.time >= self.sim.now(),
                "churn events must be in the future"
            );
            self.sim.schedule_at(ev.time, OverlayEvent::Churn(ev.kind));
        }
    }

    /// Starts periodic heartbeat rounds (`Overlay::heartbeat_round`) every
    /// [`OverlayParams::heartbeat_period`], first round one period from now.
    /// No-op if already running.
    pub fn start_heartbeats(&mut self) {
        if !self.heartbeats_on {
            self.heartbeats_on = true;
            self.sim
                .schedule_in(self.params.heartbeat_period, OverlayEvent::HeartbeatRound);
        }
    }

    /// Starts a periodic supernode cache refresh for `peer`, first refresh
    /// one period from now.  Re-arming an already-scheduled peer replaces
    /// its period (the pending event is cancelled and rescheduled).
    pub fn start_cache_refresh(&mut self, peer: PeerId, period: SimDuration) {
        assert!(!period.is_zero(), "cache refresh needs a non-zero period");
        let key = self
            .sim
            .schedule_in(period, OverlayEvent::CacheRefresh(peer));
        if let Some((_, old)) = self.cache_refresh.insert(peer, (period, key)) {
            self.sim.cancel(old);
        }
    }

    /// Starts a periodic reservation-expiry sweep: every `period`, each RS
    /// drops pending (never running) reservations older than `ttl`.  This is
    /// what reclaims gatekeeper slots promised to submitters that crashed
    /// mid-procedure.  Re-arming replaces the previous configuration.
    pub fn start_reservation_expiry(&mut self, ttl: SimDuration, period: SimDuration) {
        assert!(!period.is_zero(), "expiry sweep needs a non-zero period");
        let key = self.sim.schedule_in(period, OverlayEvent::ReservationSweep);
        if let Some((_, _, old)) = self.resv_expiry.replace((ttl, period, key)) {
            self.sim.cancel(old);
        }
    }

    /// Schedules the completion of a running job at absolute time `at`: the
    /// gatekeeper slot held under `key` on each of `peers` is freed when the
    /// event fires.  Returns the event's key.
    pub fn schedule_completion(
        &mut self,
        at: SimTime,
        key: ReservationKey,
        peers: Vec<PeerId>,
    ) -> EventKey {
        // The running-job registry only exists for crash kills; when the
        // mode is off (the default) no peer list is ever cloned.
        let tracked = if self.fail_jobs_on_crash {
            Some(peers.clone())
        } else {
            None
        };
        let ev = self
            .sim
            .schedule_at(at, OverlayEvent::JobComplete { key, peers });
        if let Some(tracked) = tracked {
            self.running_jobs.insert(key, (ev, tracked));
        }
        ev
    }

    /// Marks a peer dead immediately.  With
    /// [`Overlay::set_fail_jobs_on_crash`] on, every running job the peer
    /// participates in is killed: its completion event is mass-revoked and
    /// the gatekeeper slot is freed on every participant.
    pub fn kill_peer(&mut self, peer: PeerId) {
        self.nodes[peer.0].state = PeerState::Dead;
        self.tracer
            .record(self.sim.now(), TraceCategory::Fault, || {
                format!("{peer} crashed")
            });
        if self.fail_jobs_on_crash && !self.running_jobs.is_empty() {
            let doomed: Vec<EventKey> = self
                .running_jobs
                .values()
                .filter(|(_, peers)| peers.contains(&peer))
                .map(|&(ev, _)| ev)
                .collect();
            if doomed.is_empty() {
                return;
            }
            for event in self.sim.cancel_batch(doomed) {
                let OverlayEvent::JobComplete { key, peers } = event else {
                    unreachable!("running-job registry tracked a non-completion event");
                };
                self.running_jobs.remove(&key);
                for p in peers {
                    self.nodes[p.0].rs.complete(key);
                }
                self.jobs_killed += 1;
                self.tracer
                    .record(self.sim.now(), TraceCategory::Fault, || {
                        format!("{key} killed by crash of {peer}")
                    });
            }
        }
    }

    /// Brings a peer back and re-registers it with the supernode (unless
    /// the supernode is down, in which case the heartbeat resync re-adds
    /// the peer once it recovers).
    fn revive_peer(&mut self, peer: PeerId) {
        self.nodes[peer.0].state = PeerState::Alive;
        if self.supernode_up {
            let d = self.nodes[peer.0].descriptor.clone();
            self.supernode.register(d, self.sim.now());
        }
        self.tracer
            .record(self.sim.now(), TraceCategory::Fault, || {
                format!("{peer} recovered")
            });
    }

    /// Number of peers currently alive.
    pub fn alive_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_alive()).count()
    }

    // ------------------------------------------------------------------
    // Membership
    // ------------------------------------------------------------------

    /// Registers every alive peer with the supernode ("mpiboot" on all
    /// machines).
    pub fn boot_all(&mut self) {
        for node in &self.nodes {
            if node.is_alive() {
                self.supernode
                    .register(node.descriptor.clone(), self.sim.now());
            }
        }
        let registered = self.supernode.len();
        self.tracer
            .record(self.sim.now(), TraceCategory::Membership, || {
                format!("{registered} peers registered with supernode")
            });
    }

    /// One round of alive signals from every alive peer, followed by an
    /// expiry sweep at the supernode.  Returns the number of expired peers.
    ///
    /// This is also the recovery-resync path: a peer whose alive signal the
    /// supernode no longer recognises (expired, or the registry was lost in
    /// a supernode crash) re-registers on the spot, so the host list
    /// repopulates within one heartbeat period of a recovery.  While the
    /// supernode is down the round is a no-op — the signals go unanswered.
    fn heartbeat_round(&mut self) -> usize {
        if !self.supernode_up {
            return 0;
        }
        let now = self.sim.now();
        for node in &self.nodes {
            if node.is_alive() && !self.supernode.alive(node.descriptor.id, now) {
                self.supernode.register(node.descriptor.clone(), now);
            }
        }
        let dropped = self.supernode.expire_stale(self.sim.now());
        if dropped > 0 {
            self.tracer
                .record(self.sim.now(), TraceCategory::Membership, || {
                    format!("supernode expired {dropped} stale peers")
                });
        }
        dropped
    }

    // ------------------------------------------------------------------
    // Cache management and probing
    // ------------------------------------------------------------------

    /// The MPD of `peer` pulls the supernode host list into its cache
    /// (a "cached list update request", step 2).  Returns the number of new
    /// peers learned and the elapsed round-trip time.
    ///
    /// While the supernode is down (fault injection) the request goes
    /// unanswered: the MPD waits out its timeout, learns nothing, and keeps
    /// brokering from its stale [`crate::cache::CachedList`] — degraded-mode
    /// operation, not a halt.
    pub fn refresh_cache(&mut self, peer: PeerId) -> (usize, SimDuration) {
        if !self.supernode_up {
            self.tracer
                .record(self.sim.now(), TraceCategory::Membership, || {
                    format!("{peer} cache refresh unanswered (supernode down)")
                });
            return (0, self.params.rs_timeout);
        }
        let src = self.nodes[peer.0].descriptor.host;
        let elapsed = self.network.transfer_time(src, self.supernode_host, 128)
            + self.network.transfer_time(
                self.supernode_host,
                src,
                64 * self.supernode.len() as u64 + 64,
            );
        // Merge straight off the supernode's table: no intermediate Vec, and
        // descriptors are cloned only for peers new to this cache.
        let added = self.nodes[peer.0].cache.merge(
            self.supernode
                .host_list_iter()
                .map(|e| &e.descriptor)
                .filter(|d| d.id != peer),
        );
        self.tracer
            .record(self.sim.now(), TraceCategory::Membership, || {
                format!("{peer} refreshed cache (+{added} peers)")
            });
        (added, elapsed)
    }

    /// One probe round: `peer` pings every cached peer once and updates its
    /// latency estimates.  "Each neighbor in the cache is periodically
    /// ping'ed to assess network latency to it.  Notice that this 'ping'
    /// test is a standard P2P-MPI communication and does not rely on an
    /// ICMP echo measurement" (Section 4.1): a probe costs two empty
    /// messages under the messaging model (the per-site-pair table of
    /// `control_times`, software overhead and latency factors included),
    /// perturbed by the load noise.  Dead peers record a probe failure.
    /// Returns the virtual time the round took (probes are sent
    /// concurrently, so this is the slowest individual probe).
    ///
    /// The probes go out in the cache's booking order: noise comes from the
    /// shared rng, so the draw-to-peer pairing must be deterministic for a
    /// seeded run to be reproducible.  The cache takes the whole round in
    /// one [`crate::cache::CachedList::record_probes`] pass.
    pub fn probe_round(&mut self, peer: PeerId) -> SimDuration {
        let now = self.sim.now();
        let mut slowest = SimDuration::ZERO;
        // The cache is taken out for the round (moving it allocates
        // nothing), so the walk can read the node table and draw noise.
        let mut cache = std::mem::take(&mut self.nodes[peer.0].cache);
        cache.record_probes(now, |id| {
            if self.nodes[id.0].is_alive() {
                let rtt = self.control_times(peer, id).probe_rtt;
                let rtt = self.noise.perturb(rtt, &mut self.rng);
                slowest = slowest.max(rtt);
                Some(rtt)
            } else {
                slowest = slowest.max(self.params.rs_timeout);
                None
            }
        });
        let cache_len = cache.len();
        self.nodes[peer.0].cache = cache;
        self.tracer.record(now, TraceCategory::Probe, || {
            format!("{peer} probed its cache ({cache_len} entries)")
        });
        slowest
    }

    /// Boots `peer`'s view of the overlay: refresh the cache from the
    /// supernode and run the configured number of probe rounds.  Returns the
    /// elapsed virtual time.
    pub fn bootstrap_peer(&mut self, peer: PeerId) -> SimDuration {
        let (_, mut elapsed) = self.refresh_cache(peer);
        for _ in 0..self.params.bootstrap_probe_rounds {
            elapsed += self.probe_round(peer);
        }
        elapsed
    }

    /// The submitter's cached list sorted by ascending measured latency —
    /// the order the booking step walks.
    pub fn latency_ranking(&self, peer: PeerId) -> Vec<PeerId> {
        self.nodes[peer.0].cache.ranking()
    }

    /// Borrowing form of [`Overlay::latency_ranking`]: walks the cache's
    /// sorted latency index without sorting or allocating.  This is
    /// what the co-allocation booking step uses.
    pub fn ranking_iter(&self, peer: PeerId) -> impl Iterator<Item = PeerId> + '_ {
        self.nodes[peer.0].cache.ranking_iter()
    }

    /// Snapshot of the cached entries of `peer` sorted by latency.
    pub fn sorted_cache(&self, peer: PeerId) -> Vec<CacheEntry> {
        self.nodes[peer.0]
            .cache
            .sorted_by_latency()
            .into_iter()
            .cloned()
            .collect()
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Crashes the supernode immediately: the volatile registry is lost and
    /// cache refreshes go unanswered until [`Overlay::recover_supernode`].
    /// Brokering continues from each submitter's stale cache.
    fn crash_supernode(&mut self) {
        self.supernode_up = false;
        self.supernode.clear();
        self.tracer
            .record(self.sim.now(), TraceCategory::Fault, || {
                "supernode crashed; host list lost".to_string()
            });
    }

    /// Brings the supernode back with an empty registry.  Alive peers
    /// re-register through the next heartbeat round's resync path.
    fn recover_supernode(&mut self) {
        self.supernode_up = true;
        self.tracer
            .record(self.sim.now(), TraceCategory::Fault, || {
                "supernode recovered; awaiting re-registrations".to_string()
            });
    }

    /// Sets the latency multiplier of every transfer and probe touching
    /// `site`.  Events already on the timeline keep the cost computed when
    /// they were scheduled.
    pub fn set_site_latency_factor(&mut self, site: SiteId, factor: f64) {
        self.network.set_site_latency_factor(site, factor);
        self.site_control_times.fill(None);
        self.tracer
            .record(self.sim.now(), TraceCategory::Fault, || {
                format!("site {} latency factor set to {factor}", site.0)
            });
    }

    /// When on, a peer crash kills the running jobs it participates in
    /// (see [`Overlay::kill_peer`]).  Set before scheduling jobs: only
    /// completions scheduled while the mode is on are tracked.
    pub fn set_fail_jobs_on_crash(&mut self, enabled: bool) {
        self.fail_jobs_on_crash = enabled;
    }

    /// Whether peer crashes kill running jobs.
    pub fn fail_jobs_on_crash(&self) -> bool {
        self.fail_jobs_on_crash
    }

    /// Cumulative count of grants whose reply lost the race to its timeout
    /// (each was released eagerly; see the module docs).  Stays 0 on a
    /// standard no-fault day.
    pub fn leaked_grants(&self) -> u64 {
        self.leaked_grants
    }

    /// High-water mark of simultaneously outstanding leaked grants (counted
    /// from the timeout firing to the release's arrival).
    pub fn leaked_grant_hwm(&self) -> u64 {
        self.leaked_hwm
    }

    /// Cumulative count of running jobs killed by participant crashes
    /// (only accrues while [`Overlay::fail_jobs_on_crash`] is on).
    pub fn jobs_killed(&self) -> u64 {
        self.jobs_killed
    }

    /// Marks the application under `key` as finished on `peer`, freeing the
    /// gatekeeper slot.
    pub fn complete_job(&mut self, peer: PeerId, key: ReservationKey) -> bool {
        self.nodes[peer.0].rs.complete(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boot::OverlayBuilder;
    use crate::churn::ChurnSchedule;
    use crate::config::OwnerConfig;
    use p2pmpi_simgrid::topology::{NodeSpec, TopologyBuilder};
    use proptest::prelude::*;

    /// One RS request, resolved as a round of one.
    fn rs_request(
        o: &mut Overlay,
        from: PeerId,
        to: PeerId,
        key: ReservationKey,
        total_processes: u32,
    ) -> RsOutcome {
        let mut out = Vec::new();
        o.rs_round_into(from, key, &[to], total_processes, &mut out);
        out[0].1
    }

    /// One MPD start request, resolved as a round of one.
    fn mpd_start(
        o: &mut Overlay,
        from: PeerId,
        to: PeerId,
        key: ReservationKey,
        ranks: u32,
    ) -> (StartReply, SimDuration) {
        let mut out = Vec::new();
        o.start_round_into(from, key, &[(to, ranks)], &mut out);
        (out[0].1, out[0].2)
    }

    fn small_topology() -> Arc<Topology> {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_site("local");
        let s1 = b.add_site("remote");
        b.add_cluster(
            s0,
            "l",
            "cpu",
            3,
            NodeSpec {
                cores: 2,
                ..NodeSpec::default()
            },
        );
        b.add_cluster(
            s1,
            "r",
            "cpu",
            3,
            NodeSpec {
                cores: 4,
                ..NodeSpec::default()
            },
        );
        b.set_rtt(s0, s1, SimDuration::from_millis(10));
        Arc::new(b.build())
    }

    fn overlay() -> Overlay {
        let topo = small_topology();
        OverlayBuilder::new(topo)
            .seed(1)
            .noise(NoiseModel::disabled())
            .peer_per_host_with_core_capacity()
            .build()
    }

    #[test]
    fn boot_and_bootstrap_builds_latency_ranking() {
        let mut o = overlay();
        o.boot_all();
        assert_eq!(o.supernode().len(), 6);
        let submitter = o
            .peer_on_host(o.topology().host_by_name("l-0").unwrap().id)
            .unwrap();
        o.bootstrap_peer(submitter);
        let ranking = o.latency_ranking(submitter);
        assert_eq!(ranking.len(), 5); // everyone but the submitter
                                      // The two other local hosts come before the three remote ones.
        let local_hosts: Vec<HostId> = o
            .topology()
            .hosts_at_site(o.topology().site_by_name("local").unwrap().id)
            .map(|h| h.id)
            .collect();
        for &p in &ranking[..2] {
            assert!(local_hosts.contains(&o.host_of(p)));
        }
        for &p in &ranking[2..] {
            assert!(!local_hosts.contains(&o.host_of(p)));
        }
    }

    #[test]
    fn rs_request_grants_then_respects_j() {
        let mut o = overlay();
        o.boot_all();
        let ids = o.peer_ids();
        let (from, to) = (ids[0], ids[1]);
        let k1 = o.generate_key();
        let k2 = o.generate_key();
        assert_ne!(k1, k2);
        match rs_request(&mut o, from, to, k1, 4) {
            RsOutcome::Reply { reply, elapsed } => {
                assert!(reply.is_ok());
                assert!(elapsed > SimDuration::ZERO);
            }
            RsOutcome::Timeout { .. } => panic!("unexpected timeout"),
        }
        // Default J=1: a second application is refused.
        match rs_request(&mut o, from, to, k2, 4) {
            RsOutcome::Reply { reply, .. } => assert!(!reply.is_ok()),
            RsOutcome::Timeout { .. } => panic!("unexpected timeout"),
        }
        // Cancelling frees the slot.
        assert!(o.rs_cancel(from, to, k1));
        assert!(matches!(
            rs_request(&mut o, from, to, k2, 4),
            RsOutcome::Reply { reply, .. } if reply.is_ok()
        ));
    }

    #[test]
    fn dead_peers_time_out_and_probe_failures_accumulate() {
        let mut o = overlay();
        o.boot_all();
        let ids = o.peer_ids();
        let (from, to) = (ids[0], ids[3]);
        o.bootstrap_peer(from);
        o.kill_peer(to);
        assert_eq!(o.alive_count(), 5);
        let k = o.generate_key();
        match rs_request(&mut o, from, to, k, 1) {
            RsOutcome::Timeout { elapsed } => assert_eq!(elapsed, o.params().rs_timeout),
            RsOutcome::Reply { .. } => panic!("dead peer answered"),
        }
        o.probe_round(from);
        assert_eq!(o.node(from).cache.get(to).unwrap().failed_probes, 1);
        o.revive_peer(to);
        assert_eq!(o.alive_count(), 6);
        assert!(matches!(
            rs_request(&mut o, from, to, k, 1),
            RsOutcome::Reply { .. }
        ));
    }

    #[test]
    fn batch_brokering_resolves_on_the_timeline_in_send_order() {
        let mut o = overlay();
        o.boot_all();
        let ids = o.peer_ids();
        let submitter = ids[0];
        o.kill_peer(ids[3]);
        let key = o.generate_key();
        let t0 = o.now();
        // One round: two live peers and a dead one in the middle.
        let mut outcomes = Vec::new();
        o.rs_round_into(submitter, key, &[ids[1], ids[3], ids[2]], 1, &mut outcomes);
        // Outcomes come back in send order, not firing order (the replies
        // fire ms before the dead peer's 2 s timeout).
        let peers: Vec<PeerId> = outcomes.iter().map(|&(p, _)| p).collect();
        assert_eq!(peers, vec![ids[1], ids[3], ids[2]]);
        assert!(matches!(outcomes[0].1, RsOutcome::Reply { .. }));
        assert!(matches!(outcomes[2].1, RsOutcome::Reply { .. }));
        match outcomes[1].1 {
            RsOutcome::Timeout { elapsed } => assert_eq!(elapsed, o.params().rs_timeout),
            RsOutcome::Reply { .. } => panic!("dead peer answered"),
        }
        // The clock actually waited the full rs_timeout for the dead peer,
        // and nothing of the round is left on the timeline.
        assert_eq!(o.now(), t0 + o.params().rs_timeout);
        assert_eq!(o.events_queued(), 0);
    }

    #[test]
    fn reply_slower_than_the_timeout_loses_the_race() {
        // An *alive* peer whose round trip exceeds rs_timeout: the
        // submitter times out before the reply lands.  The remote
        // granted at send time; the grant is counted as leaked and released
        // *eagerly* — one one-way control message later, no expiry sweep
        // involved.
        let topo = small_topology();
        let mut o = OverlayBuilder::new(topo.clone())
            .seed(5)
            .noise(NoiseModel::disabled())
            .overlay_params(OverlayParams {
                // Inter-site RTT is 10 ms; a 1 ms timeout always loses.
                rs_timeout: SimDuration::from_millis(1),
                ..OverlayParams::default()
            })
            .peer_per_host_with_core_capacity()
            .build();
        o.boot_all();
        let submitter = o
            .peer_on_host(topo.host_by_name("l-0").unwrap().id)
            .unwrap();
        let remote = o
            .peer_on_host(topo.host_by_name("r-0").unwrap().id)
            .unwrap();
        let key = o.generate_key();
        assert_eq!(o.leaked_grants(), 0);
        match rs_request(&mut o, submitter, remote, key, 1) {
            RsOutcome::Timeout { elapsed } => assert_eq!(elapsed, SimDuration::from_millis(1)),
            RsOutcome::Reply { .. } => panic!("slow reply should have lost the race"),
        }
        // The grant happened at send time, leaked, and its eager release is
        // already in flight (one one-way 64-byte message, ~5 ms here).
        assert_eq!(o.leaked_grants(), 1);
        assert_eq!(o.leaked_grant_hwm(), 1);
        assert_eq!(o.node(remote).rs.active_applications(), 1);
        o.run_until(o.now() + SimDuration::from_millis(10));
        assert_eq!(
            o.node(remote).rs.active_applications(),
            0,
            "eager release reclaimed the slot without any sweep"
        );
    }

    #[test]
    fn supernode_outage_degrades_and_resyncs() {
        let mut o = overlay();
        o.boot_all();
        let p = o.peer_ids()[0];
        o.bootstrap_peer(p);
        let cached = o.node(p).cache.len();
        assert_eq!(cached, 5);
        o.start_heartbeats();
        let mut outage = ChurnSchedule::new();
        outage
            .supernode_down(SimTime::from_secs(10))
            .supernode_up(SimTime::from_secs(60));
        o.schedule_churn(outage.finish());
        o.run_until(o.now() + SimDuration::from_secs(20));
        // Down: registry lost, refreshes unanswered, stale cache survives.
        assert!(!o.supernode_up);
        assert_eq!(o.supernode().len(), 0);
        let (added, elapsed) = o.refresh_cache(p);
        assert_eq!(added, 0);
        assert_eq!(elapsed, o.params().rs_timeout);
        assert_eq!(o.node(p).cache.len(), cached, "stale view keeps brokering");
        // Brokering still works peer-to-peer while the supernode is down.
        let key = o.generate_key();
        let to = o.latency_ranking(p)[0];
        assert!(matches!(
            rs_request(&mut o, p, to, key, 1),
            RsOutcome::Reply { reply, .. } if reply.is_ok()
        ));
        // Recovery + one heartbeat period: every alive peer re-registered.
        o.run_until(o.now() + SimDuration::from_secs(200));
        assert!(o.supernode_up);
        assert_eq!(o.supernode().len(), o.alive_count());
    }

    #[test]
    fn link_degradation_window_slows_then_restores() {
        let topo = small_topology();
        let mut o = overlay();
        o.boot_all();
        let l0 = topo.host_by_name("l-0").unwrap().id;
        let r0 = topo.host_by_name("r-0").unwrap().id;
        let nominal = o.network().transfer_time(l0, r0, 1024);
        let remote_site = topo.site_by_name("remote").unwrap().id;
        let mut slow = ChurnSchedule::new();
        slow.site_latency(remote_site, 8.0, SimTime::from_secs(5))
            .site_latency(remote_site, 1.0, SimTime::from_secs(15));
        o.schedule_churn(slow.finish());
        o.run_until(o.now() + SimDuration::from_secs(6));
        let degraded = o.network().transfer_time(l0, r0, 1024);
        assert!(degraded > nominal * 7);
        o.run_until(o.now() + SimDuration::from_secs(10));
        assert_eq!(o.network().transfer_time(l0, r0, 1024), nominal);
    }

    /// The EWMA blend of an estimate and a new sample.
    fn blend(old: SimDuration, sample: SimDuration) -> SimDuration {
        let alpha = crate::cache::EWMA_ALPHA;
        SimDuration::from_secs_f64(old.as_secs_f64() * (1.0 - alpha) + sample.as_secs_f64() * alpha)
    }

    #[test]
    fn a_probe_round_measures_through_the_current_latency_factor() {
        let topo = small_topology();
        let mut o = overlay();
        o.boot_all();
        let l0 = topo.host_by_name("l-0").unwrap().id;
        let r0 = topo.host_by_name("r-0").unwrap().id;
        let (submitter, remote) = (o.peer_on_host(l0).unwrap(), o.peer_on_host(r0).unwrap());
        let remote_site = topo.site_by_name("remote").unwrap().id;
        let nominal = o.network().probe_rtt(l0, r0);
        o.refresh_cache(submitter);
        // The first round fills the per-site table at the nominal factor;
        // the remote peers are the slowest probes of every round.
        assert_eq!(o.probe_round(submitter), nominal);
        let latency = |o: &Overlay| o.node(submitter).cache.get(remote).unwrap().latency;
        assert_eq!(latency(&o), Some(nominal));
        o.set_site_latency_factor(remote_site, 8.0);
        let degraded = o.network().probe_rtt(l0, r0);
        assert!(degraded > nominal * 7);
        assert_eq!(o.probe_round(submitter), degraded);
        assert_eq!(latency(&o), Some(blend(nominal, degraded)));
        o.set_site_latency_factor(remote_site, 1.0);
        assert_eq!(o.probe_round(submitter), nominal);
        assert_eq!(latency(&o), Some(blend(blend(nominal, degraded), nominal)));
    }

    /// An overlay of one peer at the origin and one each at a near and a
    /// far site (10 and 17 ms away), with the origin's cache refreshed.
    fn origin_near_far(noise: NoiseModel) -> (Overlay, PeerId, PeerId, PeerId) {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_site("origin");
        let s1 = b.add_site("near");
        let s2 = b.add_site("far");
        b.add_cluster(s0, "o", "cpu", 1, NodeSpec::default());
        b.add_cluster(s1, "n", "cpu", 1, NodeSpec::default());
        b.add_cluster(s2, "f", "cpu", 1, NodeSpec::default());
        b.set_rtt(s0, s1, SimDuration::from_millis(10));
        b.set_rtt(s0, s2, SimDuration::from_millis(17));
        b.set_rtt(s1, s2, SimDuration::from_millis(15));
        let topo = Arc::new(b.build());
        let mut o = OverlayBuilder::new(topo.clone())
            .seed(7)
            .noise(noise)
            .peer_per_host_with_core_capacity()
            .build();
        o.boot_all();
        let peer = |name: &str| o.peer_on_host(topo.host_by_name(name).unwrap().id).unwrap();
        let (origin, near, far) = (peer("o-0"), peer("n-0"), peer("f-0"));
        o.refresh_cache(origin);
        (o, origin, near, far)
    }

    #[test]
    fn noiseless_probe_is_deterministic_and_ordered() {
        let (mut o, origin, near, far) = origin_near_far(NoiseModel::disabled());
        let (src, dst) = (o.host_of(origin), o.host_of(near));
        let first = o.probe_round(origin);
        // A first measurement is stored as is: the two-message round trip,
        // which exceeds the ICMP RTT (software overhead).
        let measured = o.node(origin).cache.get(near).unwrap().latency;
        assert_eq!(measured, Some(o.network().probe_rtt(src, dst)));
        assert!(measured.unwrap() > o.network().icmp_rtt(src, dst));
        assert_eq!(o.probe_round(origin), first);
        assert_eq!(o.latency_ranking(origin), vec![near, far]);
    }

    #[test]
    fn noisy_probe_varies_but_preserves_coarse_ranking() {
        let (mut o, origin, near, far) = origin_near_far(NoiseModel::with_sigma(0.06));
        // Each round reports its slowest probe, the far peer's sample.
        assert_ne!(o.probe_round(origin), o.probe_round(origin));
        // With a 7 ms RTT gap, 6 % noise never flips near/far.
        for _ in 0..2_000 {
            o.probe_round(origin);
            assert_eq!(o.latency_ranking(origin), vec![near, far]);
        }
    }

    #[test]
    fn crash_kills_running_jobs_when_enabled() {
        let mut o = overlay();
        o.boot_all();
        o.set_fail_jobs_on_crash(true);
        let ids = o.peer_ids();
        let (from, a, b) = (ids[0], ids[1], ids[2]);
        let key = o.generate_key();
        for &to in &[a, b] {
            assert!(matches!(
                rs_request(&mut o, from, to, key, 2),
                RsOutcome::Reply { reply, .. } if reply.is_ok()
            ));
        }
        for &to in &[a, b] {
            let (reply, _) = mpd_start(&mut o, from, to, key, 1);
            assert_eq!(reply, StartReply::Started);
        }
        o.schedule_completion(o.now() + SimDuration::from_secs(100), key, vec![a, b]);
        o.run_until(o.now() + SimDuration::from_secs(10));
        // One participant crashes: the whole job dies, both slots free.
        o.kill_peer(a);
        assert_eq!(o.jobs_killed(), 1);
        assert_eq!(o.node(a).rs.running_processes(), 0);
        assert_eq!(o.node(b).rs.running_processes(), 0);
        // The revoked completion never fires.
        let processed = o.events_processed();
        o.run_until(o.now() + SimDuration::from_secs(200));
        assert_eq!(o.events_processed(), processed);
    }

    #[test]
    fn mid_flight_crash_times_out_an_event_driven_start() {
        let mut o = overlay();
        o.boot_all();
        let ids = o.peer_ids();
        let (from, to) = (ids[0], ids[3]);
        let key = o.generate_key();
        assert!(matches!(
            rs_request(&mut o, from, to, key, 1),
            RsOutcome::Reply { reply, .. } if reply.is_ok()
        ));
        // Crash the remote *after* the start request is sent but before it
        // arrives (cross-site one-way is ~5 ms): the arrival finds a dead
        // MPD and the submitter times out — the ranks never start.
        let t0 = o.now();
        let mut schedule = ChurnSchedule::new();
        schedule.crash(to, t0 + SimDuration::from_millis(1));
        o.schedule_churn(schedule.finish());
        let mut outcomes = Vec::new();
        o.start_round_into(from, key, &[(to, 1)], &mut outcomes);
        assert_eq!(outcomes.len(), 1);
        let (peer, reply, elapsed) = outcomes[0];
        assert_eq!(peer, to);
        assert_eq!(reply, StartReply::Timeout);
        assert_eq!(elapsed, o.params().rs_timeout);
        assert_eq!(o.now(), t0 + o.params().rs_timeout);
        assert_eq!(o.node(to).rs.running_processes(), 0, "never started");
        // The inverse interleaving: a peer dead at send time that recovers
        // before the request arrives *does* start the ranks.
        let key2 = o.generate_key();
        let late = ids[4];
        assert!(matches!(
            rs_request(&mut o, from, late, key2, 1),
            RsOutcome::Reply { reply, .. } if reply.is_ok()
        ));
        o.kill_peer(late);
        let t1 = o.now();
        let mut schedule = ChurnSchedule::new();
        schedule.recover(late, t1 + SimDuration::from_millis(1));
        o.schedule_churn(schedule.finish());
        o.start_round_into(from, key2, &[(late, 1)], &mut outcomes);
        assert_eq!(outcomes[0].1, StartReply::Started);
    }

    #[test]
    fn brokering_scratch_reaches_a_high_water_mark_and_stays_there() {
        let mut o = overlay();
        o.boot_all();
        let ids = o.peer_ids();
        let submitter = ids[0];
        // A dead peer in every round: a timeout among the replies.
        o.kill_peer(ids[3]);
        let mut outcomes = Vec::new();
        let round = |o: &mut Overlay, outcomes: &mut Vec<(PeerId, RsOutcome)>| {
            let key = o.generate_key();
            o.rs_round_into(submitter, key, &ids[1..], 1, outcomes);
            for &(to, _) in outcomes.iter() {
                o.rs_cancel(submitter, to, key);
            }
            // Idle time between rounds, as a real sweep's inter-arrival
            // gaps give.
            o.run_until(o.now() + o.params().rs_timeout);
        };
        // Warm-up rounds grow every buffer to its high-water mark ...
        for _ in 0..3 {
            round(&mut o, &mut outcomes);
        }
        let scratch_cap = o.rs_scratch_capacity();
        let events_cap = o.events_capacity();
        let outcomes_cap = outcomes.capacity();
        // ... after which a steady-state brokering loop reallocates nothing.
        for _ in 0..20 {
            round(&mut o, &mut outcomes);
        }
        assert_eq!(o.rs_scratch_capacity(), scratch_cap);
        assert_eq!(o.events_capacity(), events_cap);
        assert_eq!(outcomes.capacity(), outcomes_cap);
    }

    #[test]
    fn start_requires_matching_key() {
        let mut o = overlay();
        o.boot_all();
        let ids = o.peer_ids();
        let (from, to) = (ids[0], ids[2]);
        let key = o.generate_key();
        let wrong = o.generate_key();
        assert!(matches!(
            rs_request(&mut o, from, to, key, 2),
            RsOutcome::Reply { reply, .. } if reply.is_ok()
        ));
        let (reply, _) = mpd_start(&mut o, from, to, wrong, 1);
        assert_eq!(reply, StartReply::KeyMismatch);
        let (reply, _) = mpd_start(&mut o, from, to, key, 1);
        assert_eq!(reply, StartReply::Started);
        assert!(o.complete_job(to, key));
        assert!(!o.complete_job(to, key));
    }

    #[test]
    fn churn_schedule_is_applied_on_advance() {
        let mut o = overlay();
        o.boot_all();
        let victim = o.peer_ids()[1];
        let mut schedule = ChurnSchedule::new();
        schedule.crash(victim, SimTime::from_secs(10));
        schedule.recover(victim, SimTime::from_secs(30));
        o.schedule_churn(schedule.finish());
        o.run_until(o.now() + SimDuration::from_secs(5));
        assert!(o.node(victim).is_alive());
        o.run_until(o.now() + SimDuration::from_secs(10));
        assert!(!o.node(victim).is_alive());
        o.run_until(o.now() + SimDuration::from_secs(20));
        assert!(o.node(victim).is_alive());
        assert_eq!(o.now(), SimTime::from_secs(35));
        assert!(o.tracer().count(TraceCategory::Fault) >= 2);
    }

    #[test]
    fn heartbeats_run_as_scheduled_events() {
        let mut o = overlay();
        o.boot_all();
        let victim = o.peer_ids()[0];
        o.start_heartbeats();
        o.kill_peer(victim);
        // Three 120 s heartbeat periods pass the 360 s expiry: the periodic
        // rounds fire on the timeline without any manual heartbeat_round
        // call, and the silent peer is expired by the supernode.
        o.run_until(o.now() + SimDuration::from_secs(500));
        assert!(!o.supernode().knows(victim));
        assert_eq!(o.supernode().len(), 5);
        assert!(o.events_processed() >= 4);
        // The next round is always armed while heartbeats run.
        assert!(o.events_pending() >= 1);
    }

    #[test]
    fn periodic_cache_refresh_is_a_scheduled_event() {
        let mut o = overlay();
        o.boot_all();
        let p = o.peer_ids()[0];
        assert_eq!(o.node(p).cache.len(), 0);
        o.start_cache_refresh(p, SimDuration::from_secs(60));
        o.run_until(o.now() + SimDuration::from_secs(59));
        assert_eq!(o.node(p).cache.len(), 0, "not due yet");
        o.run_until(o.now() + SimDuration::from_secs(2));
        assert_eq!(o.node(p).cache.len(), 5, "first refresh fired");
    }

    #[test]
    fn reservation_expiry_sweep_reclaims_pending_slots() {
        let mut o = overlay();
        o.boot_all();
        let ids = o.peer_ids();
        let (from, to) = (ids[0], ids[1]);
        let k = o.generate_key();
        assert!(matches!(
            rs_request(&mut o, from, to, k, 2),
            RsOutcome::Reply { reply, .. } if reply.is_ok()
        ));
        assert_eq!(o.node(to).rs.active_applications(), 1);
        o.start_reservation_expiry(SimDuration::from_secs(60), SimDuration::from_secs(30));
        // The submitter never starts nor cancels: the sweep reclaims the
        // promised gatekeeper slot once the TTL passes.
        o.run_until(o.now() + SimDuration::from_secs(100));
        assert_eq!(o.node(to).rs.active_applications(), 0);
    }

    #[test]
    fn scheduled_completions_free_hosts_on_the_timeline() {
        let mut o = overlay();
        o.boot_all();
        let ids = o.peer_ids();
        let (from, to) = (ids[0], ids[2]);
        let key = o.generate_key();
        assert!(matches!(
            rs_request(&mut o, from, to, key, 1),
            RsOutcome::Reply { reply, .. } if reply.is_ok()
        ));
        let (reply, _) = mpd_start(&mut o, from, to, key, 1);
        assert_eq!(reply, StartReply::Started);
        let done_at = o.now() + SimDuration::from_secs(30);
        o.schedule_completion(done_at, key, vec![to]);
        o.run_until(o.now() + SimDuration::from_secs(29));
        assert_eq!(o.node(to).rs.running_processes(), 1, "still running");
        o.run_until(o.now() + SimDuration::from_secs(2));
        assert_eq!(o.node(to).rs.running_processes(), 0, "completion fired");
    }

    #[test]
    fn heartbeats_keep_peers_registered_and_silence_expires_them() {
        let mut o = overlay();
        o.boot_all();
        let victim = o.peer_ids()[0];
        o.kill_peer(victim);
        // Advance past the supernode expiry and heartbeat.
        o.run_until(o.now() + SimDuration::from_secs(400));
        let dropped = o.heartbeat_round();
        assert_eq!(dropped, 1);
        assert!(!o.supernode().knows(victim));
        assert_eq!(o.supernode().len(), 5);
    }

    #[test]
    fn owner_deny_list_is_enforced_end_to_end() {
        let topo = small_topology();
        let mut o = OverlayBuilder::new(topo)
            .seed(3)
            .noise(NoiseModel::disabled())
            .peer_per_host_with_core_capacity()
            .build();
        o.boot_all();
        let ids = o.peer_ids();
        let (from, to) = (ids[0], ids[1]);
        let from_addr = o.node(from).descriptor.address.clone();
        o.node_mut(to).config.deny(from_addr);
        let k = o.generate_key();
        match rs_request(&mut o, from, to, k, 1) {
            RsOutcome::Reply { reply, .. } => assert_eq!(
                reply,
                ReservationReply::Nok(crate::messages::RefusalReason::RequesterDenied)
            ),
            RsOutcome::Timeout { .. } => panic!("unexpected timeout"),
        }
    }

    #[test]
    fn capacity_reflects_owner_config() {
        let topo = small_topology();
        let mut o = OverlayBuilder::new(topo.clone())
            .seed(9)
            .peer_per_host(|h| OwnerConfig::with_procs(h.cores as u32))
            .build();
        o.boot_all();
        let remote = o
            .peer_on_host(topo.host_by_name("r-0").unwrap().id)
            .unwrap();
        assert_eq!(o.node(remote).capacity_per_app(), 4);
        let local = o
            .peer_on_host(topo.host_by_name("l-0").unwrap().id)
            .unwrap();
        assert_eq!(o.node(local).capacity_per_app(), 2);
    }

    // -- rounds and their messages -------------------------------------------

    /// Round trip of an RS request and its reply under the current cost
    /// model, computed the long way.
    fn rs_rtt(o: &Overlay, from: PeerId, to: PeerId) -> SimDuration {
        let (src, dst) = (o.host_of(from), o.host_of(to));
        let bytes = o.params().rs_message_bytes;
        o.network().transfer_time(src, dst, bytes) + o.network().transfer_time(dst, src, bytes)
    }

    /// A start request's trip to the remote MPD.
    fn start_outbound(o: &Overlay, from: PeerId, to: PeerId) -> SimDuration {
        let bytes = o.params().start_message_bytes;
        o.network()
            .transfer_time(o.host_of(from), o.host_of(to), bytes)
    }

    /// A start request's trip to the remote MPD plus its reply's way back.
    fn start_trip(o: &Overlay, from: PeerId, to: PeerId) -> SimDuration {
        start_outbound(o, from, to)
            + o.network()
                .transfer_time(o.host_of(to), o.host_of(from), 64)
    }

    /// The records of one category in `(time, message)` order: a round
    /// resolved off the timeline traces in send order, not firing order.
    fn sorted_trace(o: &Overlay, category: TraceCategory) -> Vec<(SimTime, String)> {
        let mut records: Vec<_> = o
            .tracer()
            .events_in(category)
            .into_iter()
            .map(|e| (e.time, e.message))
            .collect();
        records.sort();
        records
    }

    #[test]
    fn events_inside_a_round_fire_at_their_own_instants() {
        let topo = small_topology();
        let mut o = overlay();
        o.boot_all();
        let ids = o.peer_ids();
        let submitter = ids[0];
        // A job already running on ids[1] ...
        let old = o.generate_key();
        assert!(matches!(
            rs_request(&mut o, submitter, ids[1], old, 1),
            RsOutcome::Reply { reply, .. } if reply.is_ok()
        ));
        assert_eq!(
            mpd_start(&mut o, submitter, ids[1], old, 1).0,
            StartReply::Started
        );
        // ... completes 2 ms into the next round; ids[4] crashes at 3 ms
        // and the remote site's links slow tenfold at 4 ms — all three
        // between the send instant and the round's latest reply (~10 ms).
        let t0 = o.now();
        let ms = SimDuration::from_millis;
        o.schedule_completion(t0 + ms(2), old, vec![ids[1]]);
        let remote_site = topo.site_by_name("remote").unwrap().id;
        let mut churn = ChurnSchedule::new();
        churn
            .crash(ids[4], t0 + ms(3))
            .site_latency(remote_site, 10.0, t0 + ms(4))
            .site_latency(remote_site, 1.0, t0 + ms(4) + SimDuration::from_secs(1));
        o.schedule_churn(churn.finish());

        let targets = [ids[2], ids[3], ids[4], ids[5]];
        let expected: Vec<SimDuration> = targets
            .iter()
            .map(|&to| rs_rtt(&o, submitter, to))
            .collect();
        assert!(expected[0] < ms(1) && expected[1] > ms(10), "{expected:?}");
        let key = o.generate_key();
        let mut outcomes = Vec::new();
        o.rs_round_into(submitter, key, &targets, 1, &mut outcomes);

        // The outcomes are the ones computed at send: the crashed peer's
        // reply was already in flight, and replies sent before the
        // degradation keep their nominal round trip.
        for ((&to, &rtt), &(peer, outcome)) in targets.iter().zip(&expected).zip(&outcomes) {
            assert_eq!(peer, to);
            assert_eq!(
                outcome,
                RsOutcome::Reply {
                    reply: ReservationReply::Ok {
                        capacity_p: o.node(to).capacity_per_app()
                    },
                    elapsed: rtt
                }
            );
        }
        assert_eq!(
            o.now(),
            t0 + expected[1],
            "the round ends with its last reply"
        );
        // Each interleaved event fired at its own instant, in order.
        let runtime = o.tracer().events_in(TraceCategory::Runtime);
        let completion = runtime.last().unwrap();
        assert!(completion.message.contains("job completed"), "{completion}");
        assert_eq!(completion.time, t0 + ms(2));
        let faults = o.tracer().events_in(TraceCategory::Fault);
        assert_eq!(faults.len(), 2);
        assert!(faults[0].message.contains("crashed"), "{}", faults[0]);
        assert_eq!(faults[0].time, t0 + ms(3));
        assert!(
            faults[1].message.contains("latency factor"),
            "{}",
            faults[1]
        );
        assert_eq!(faults[1].time, t0 + ms(4));
        assert_eq!(o.node(ids[1]).rs.running_processes(), 0);
        assert!(!o.node(ids[4]).is_alive());
        // ... and the degradation governs the exchanges sent after it.
        assert!(rs_rtt(&o, submitter, ids[3]) > expected[1] * 9);
        let next = o.generate_key();
        match rs_request(&mut o, submitter, ids[5], next, 1) {
            RsOutcome::Reply { elapsed, .. } => assert_eq!(elapsed, rs_rtt(&o, submitter, ids[5])),
            RsOutcome::Timeout { .. } => panic!("100 ms is well inside the 2 s window"),
        }
    }

    #[test]
    fn every_decided_reply_is_traced_once_at_its_own_arrival() {
        let mut o = overlay();
        o.boot_all();
        let ids = o.peer_ids();
        // ids[3] answers NOK: it is busy with another application.
        let other = o.generate_key();
        assert!(matches!(
            rs_request(&mut o, ids[1], ids[3], other, 1),
            RsOutcome::Reply { reply, .. } if reply.is_ok()
        ));
        o.tracer().clear();
        let t0 = o.now();
        let key = o.generate_key();
        // The submitter's own host, two local peers, three remote ones.
        let mut outcomes = Vec::new();
        o.rs_round_into(ids[0], key, &ids, 1, &mut outcomes);
        let mut expected: Vec<(SimTime, String)> = outcomes
            .iter()
            .map(|&(to, outcome)| match outcome {
                RsOutcome::Reply { reply, elapsed } => {
                    assert_eq!(elapsed, rs_rtt(&o, ids[0], to));
                    (t0 + elapsed, format!("{} -> {to}: {reply:?}", ids[0]))
                }
                RsOutcome::Timeout { .. } => panic!("every peer is alive"),
            })
            .collect();
        expected.sort();
        assert_eq!(sorted_trace(&o, TraceCategory::Reservation), expected);
        // Three distinct arrival instants: loopback, LAN, WAN.
        let mut instants: Vec<SimTime> = expected.iter().map(|&(t, _)| t).collect();
        instants.dedup();
        assert_eq!(instants.len(), 3);
        assert_eq!(
            expected.iter().filter(|(_, m)| m.contains("Nok")).count(),
            1
        );
    }

    #[test]
    fn per_site_round_trips_follow_the_latency_factors() {
        let topo = small_topology();
        let mut o = overlay();
        o.boot_all();
        let ids = o.peer_ids();
        let remote_site = topo.site_by_name("remote").unwrap().id;
        let exchange = |o: &mut Overlay, to: PeerId| {
            let key = o.generate_key();
            let expected = rs_rtt(o, ids[0], to);
            match rs_request(o, ids[0], to, key, 1) {
                RsOutcome::Reply { elapsed, .. } => assert_eq!(elapsed, expected),
                RsOutcome::Timeout { .. } => panic!("unexpected timeout"),
            }
            o.rs_cancel(ids[0], to, key);
            expected
        };
        // Hosts of one site share the round trip; the submitter's own host
        // is loopback, not its site's LAN.
        let nominal = exchange(&mut o, ids[3]);
        assert_eq!(exchange(&mut o, ids[4]), nominal);
        assert!(exchange(&mut o, ids[0]) < exchange(&mut o, ids[1]));
        // A factor change is never served from the table, in either
        // direction.
        o.set_site_latency_factor(remote_site, 7.0);
        let slowed = exchange(&mut o, ids[5]);
        assert!(slowed > nominal * 6, "{slowed} vs {nominal}");
        o.set_site_latency_factor(remote_site, 1.0);
        assert_eq!(exchange(&mut o, ids[4]), nominal);
    }

    // -- the start round ----------------------------------------------------

    /// Grants `key` on every peer of `targets` at nominal latency.
    fn grant_all(o: &mut Overlay, from: PeerId, targets: &[PeerId], key: ReservationKey) {
        let mut outcomes = Vec::new();
        o.rs_round_into(from, key, targets, 1, &mut outcomes);
        assert!(outcomes
            .iter()
            .all(|(_, o)| matches!(o, RsOutcome::Reply { reply, .. } if reply.is_ok())));
    }

    #[test]
    fn a_start_round_delivers_each_reply_with_its_own_elapsed() {
        let mut o = overlay();
        o.boot_all();
        let ids = o.peer_ids();
        let from = ids[0];
        let key = o.generate_key();
        let targets = [ids[3], ids[1], ids[4], ids[5]];
        grant_all(&mut o, from, &targets, key);
        // ids[4] crashes 1 ms after the requests leave, before the ~5 ms
        // cross-site arrival: its arrival finds a dead MPD.
        let t0 = o.now();
        let mut churn = ChurnSchedule::new();
        churn.crash(ids[4], t0 + SimDuration::from_millis(1));
        o.schedule_churn(churn.finish());
        let events_before = o.events_processed();
        let requests: Vec<(PeerId, u32)> = targets.iter().map(|&to| (to, 2)).collect();
        let mut outcomes = Vec::new();
        o.start_round_into(from, key, &requests, &mut outcomes);
        let elapsed_of = |to: PeerId| start_trip(&o, from, to);
        assert_eq!(
            outcomes,
            vec![
                (ids[3], StartReply::Started, elapsed_of(ids[3])),
                (ids[1], StartReply::Started, elapsed_of(ids[1])),
                (ids[4], StartReply::Timeout, o.params().rs_timeout),
                (ids[5], StartReply::Started, elapsed_of(ids[5])),
            ]
        );
        assert!(elapsed_of(ids[1]) < elapsed_of(ids[3]));
        assert_eq!(o.now(), t0 + o.params().rs_timeout);
        assert_eq!(o.node(ids[4]).rs.running_processes(), 0, "never started");
        assert_eq!(o.node(ids[5]).rs.running_processes(), 2);
        // Messages delivered: the crash, four arrivals, three replies and
        // one deadline.
        assert_eq!(o.events_processed() - events_before, 1 + 4 + 3 + 1);
        assert_eq!(o.events_pending(), 0);
    }

    #[test]
    fn mpd_start_elapsed_is_the_request_plus_the_reply_transfer() {
        let mut o = overlay();
        o.boot_all();
        let ids = o.peer_ids();
        let (from, to) = (ids[0], ids[4]);
        let key = o.generate_key();
        grant_all(&mut o, from, &[to], key);
        let t0 = o.now();
        let expected = start_trip(&o, from, to);
        assert_eq!(
            mpd_start(&mut o, from, to, key, 1),
            (StartReply::Started, expected)
        );
        assert_eq!(o.now(), t0 + expected);
    }

    #[test]
    fn a_start_reply_slower_than_its_deadline_leaks_and_is_released() {
        let topo = small_topology();
        let mut o = overlay();
        o.boot_all();
        let ids = o.peer_ids();
        let (from, slow, near) = (ids[0], ids[3], ids[1]);
        let key = o.generate_key();
        grant_all(&mut o, from, &[near, slow], key);
        // 300x on the remote site: the request arrives after ~1.5 s, inside
        // the 2 s deadline, but the reply would land at ~3 s.
        let remote_site = topo.site_by_name("remote").unwrap().id;
        o.set_site_latency_factor(remote_site, 300.0);
        let t0 = o.now();
        let mut outcomes = Vec::new();
        o.start_round_into(from, key, &[(near, 1), (slow, 1)], &mut outcomes);
        assert_eq!(outcomes[0].1, StartReply::Started);
        assert!(outcomes[0].2 < SimDuration::from_millis(1));
        assert_eq!(
            (outcomes[1].1, outcomes[1].2),
            (StartReply::Timeout, o.params().rs_timeout)
        );
        assert_eq!(o.now(), t0 + o.params().rs_timeout);
        // The remote did start the ranks; the submitter gave up on them.
        assert_eq!(o.node(slow).rs.running_processes(), 1);
        assert_eq!((o.leaked_grants(), o.leaked_grant_hwm()), (1, 1));
        o.run_until(o.now() + SimDuration::from_secs(2));
        assert_eq!(o.node(slow).rs.active_applications(), 0, "released eagerly");
        assert_eq!(o.node(near).rs.running_processes(), 1);
    }

    #[test]
    fn a_start_request_that_cannot_arrive_in_time_is_given_up_at_the_deadline() {
        let topo = small_topology();
        let mut o = overlay();
        o.boot_all();
        let ids = o.peer_ids();
        let (from, far, near) = (ids[0], ids[3], ids[1]);
        let key = o.generate_key();
        grant_all(&mut o, from, &[far, near], key);
        // 1000x: the one-way trip alone takes ~5 s, past the 2 s deadline,
        // which is therefore stamped at send.
        let remote_site = topo.site_by_name("remote").unwrap().id;
        o.set_site_latency_factor(remote_site, 1000.0);
        let t0 = o.now();
        let mut outcomes = Vec::new();
        o.start_round_into(from, key, &[(far, 1), (near, 1)], &mut outcomes);
        assert_eq!(
            (outcomes[0].1, outcomes[0].2),
            (StartReply::Timeout, o.params().rs_timeout)
        );
        assert_eq!(outcomes[1].1, StartReply::Started);
        // The round ends at the deadline, not at the late arrival.
        assert_eq!(o.now(), t0 + o.params().rs_timeout);
        assert_eq!(o.node(far).rs.running_processes(), 0);
        assert_eq!(o.events_pending(), 1, "the request is still on its way");
        // Another round reuses the round buffer meanwhile.
        let key2 = o.generate_key();
        grant_all(&mut o, from, &[ids[2]], key2);
        o.start_round_into(from, key2, &[(ids[2], 1)], &mut outcomes);
        assert_eq!(outcomes[0].1, StartReply::Started);
        // The late arrival settles the remote side only: the ranks start,
        // nobody waits for them, the grant is released one trip later.
        o.run_until(o.now() + SimDuration::from_secs(4));
        assert_eq!(o.node(far).rs.running_processes(), 1);
        assert_eq!(o.leaked_grants(), 1);
        o.run_until(o.now() + SimDuration::from_secs(6));
        assert_eq!(o.node(far).rs.active_applications(), 0);
        assert_eq!(o.node(ids[2]).rs.running_processes(), 1, "untouched");
    }

    // -- rounds whose window is clear ----------------------------------------

    /// Steps 7–8 through the reference: each message goes onto the real
    /// queue when it is stamped and comes back in heap order.
    fn start_round_reference(
        o: &mut Overlay,
        from: PeerId,
        key: ReservationKey,
        requests: &[(PeerId, u32)],
    ) -> Vec<(PeerId, StartReply, SimDuration)> {
        let walk = std::mem::replace(&mut o.round.reference, true);
        let mut outcomes = Vec::new();
        o.start_round_into(from, key, requests, &mut outcomes);
        o.round.reference = walk;
        outcomes
    }

    /// Everything a start round leaves behind that an observer can see.
    fn observed(o: &Overlay) -> impl PartialEq + std::fmt::Debug {
        let per_peer: Vec<_> = o
            .peer_ids()
            .into_iter()
            .map(|p| {
                let rs = &o.node(p).rs;
                (
                    o.node(p).is_alive(),
                    rs.active_applications(),
                    rs.running_processes(),
                )
            })
            .collect();
        (
            (o.now(), o.events_processed(), o.events_pending()),
            (o.leaked_grants(), o.leaked_grant_hwm()),
            per_peer,
            sorted_trace(o, TraceCategory::Runtime),
            sorted_trace(o, TraceCategory::Fault),
        )
    }

    #[test]
    fn a_clear_window_round_never_touches_the_event_queue() {
        let mut o = overlay();
        o.boot_all();
        let ids = o.peer_ids();
        let from = ids[0];
        // One far-away event keeps the queue from being trivially empty.
        let old = o.generate_key();
        o.schedule_completion(SimTime::from_secs(100), old, vec![]);
        let (queued, capacity) = (o.events_queued(), o.events_capacity());
        assert_eq!(queued, 1);
        // The RS half: five replies; the round ends with the latest.
        let key = o.generate_key();
        let targets = [ids[3], ids[1], ids[4], ids[5], ids[2]];
        let t0 = o.now();
        let events = o.events_processed();
        grant_all(&mut o, from, &targets, key);
        assert_eq!(o.now(), t0 + rs_rtt(&o, from, ids[3]));
        assert_eq!(o.events_processed() - events, 5);
        assert_eq!((o.events_queued(), o.events_capacity()), (queued, capacity));
        // The start half: a request and a reply per host.
        let requests: Vec<(PeerId, u32)> = targets.iter().map(|&to| (to, 2)).collect();
        let t1 = o.now();
        let events = o.events_processed();
        let mut outcomes = Vec::new();
        o.start_round_into(from, key, &requests, &mut outcomes);
        let expected: Vec<_> = targets
            .iter()
            .map(|&to| (to, StartReply::Started, start_trip(&o, from, to)))
            .collect();
        assert_eq!(outcomes, expected);
        assert!(start_trip(&o, from, ids[1]) < start_trip(&o, from, ids[3]));
        assert_eq!(o.now(), t1 + start_trip(&o, from, ids[3]));
        assert_eq!(o.events_processed() - events, 2 * 5);
        assert_eq!((o.events_queued(), o.events_capacity()), (queued, capacity));
        // Each start is traced at its own arrival instant.
        let started = sorted_trace(&o, TraceCategory::Runtime);
        let arrival = |to: PeerId| t1 + start_outbound(&o, from, to);
        assert_eq!(started.len(), 5);
        assert_eq!(
            started[0],
            (arrival(ids[1]), format!("{} started 2 process(es)", ids[1]))
        );
        assert_eq!(started[4].0, arrival(ids[5]));
        // And the round agrees with the reference on a twin.
        let mut twin = overlay();
        twin.boot_all();
        let twin_old = twin.generate_key();
        twin.schedule_completion(SimTime::from_secs(100), twin_old, vec![]);
        let twin_key = twin.generate_key();
        assert_eq!(twin_key, key);
        twin.round.reference = true;
        grant_all(&mut twin, from, &targets, key);
        assert_eq!(
            start_round_reference(&mut twin, from, key, &requests),
            outcomes
        );
        assert!(twin.events_capacity() > capacity);
        assert_eq!(observed(&twin), observed(&o));
    }

    #[test]
    fn an_event_due_inside_the_window_sends_the_round_to_the_timeline() {
        let ms = SimDuration::from_millis;
        let us = SimDuration::from_micros;
        // Plays one start round on twins, through the walk and through the
        // reference, with `disturb` scheduling something relative to the
        // send instant and the last reply's trip (the key is that of a job
        // running on `ids[2]`).  Also reports whether the round put
        // anything on the queue.
        type Disturb<'a> = &'a dyn Fn(&mut Overlay, ReservationKey, SimTime, SimDuration);
        let play = |disturb: Disturb| {
            let run = |round_call: bool| {
                let mut o = overlay();
                o.boot_all();
                let ids = o.peer_ids();
                let from = ids[0];
                // A job already running on ids[2], for completions.
                let old = o.generate_key();
                grant_all(&mut o, from, &[ids[2]], old);
                assert_eq!(
                    mpd_start(&mut o, from, ids[2], old, 1).0,
                    StartReply::Started
                );
                let key = o.generate_key();
                let targets = [ids[1], ids[4], from, ids[3], ids[5]];
                grant_all(&mut o, from, &targets, key);
                let (t0, trip) = (o.now(), start_trip(&o, from, ids[3]));
                disturb(&mut o, old, t0, trip);
                let requests: Vec<(PeerId, u32)> = targets.iter().map(|&to| (to, 1)).collect();
                let capacity = o.events_capacity();
                let mut outcomes = Vec::new();
                if round_call {
                    o.start_round_into(from, key, &requests, &mut outcomes);
                } else {
                    outcomes = start_round_reference(&mut o, from, key, &requests);
                }
                // The reference's five arrivals outgrow the payload store.
                let pushed = o.events_capacity() > capacity;
                (outcomes, format!("{:?}", observed(&o)), pushed)
            };
            let (round, reference) = (run(true), run(false));
            assert!(reference.2);
            assert_eq!((&round.0, &round.1), (&reference.0, &reference.1));
            round
        };
        let all_started = |outcomes: &[(PeerId, StartReply, SimDuration)]| -> bool {
            outcomes.iter().all(|o| o.1 == StartReply::Started)
        };
        let complete = |o: &mut Overlay, old: ReservationKey, at: SimTime| {
            let on = o.peer_ids()[2];
            o.schedule_completion(at, old, vec![on]);
        };

        // Undisturbed, the walk pushes nothing ...
        let (outcomes, _, pushed) = play(&|_, _, _, _| {});
        assert!(all_started(&outcomes) && !pushed);
        // ... and an event due right after the round stays pending.
        let (outcomes, seen, pushed) =
            play(&|o, old, t0, trip| complete(o, old, t0 + trip + SimDuration::from_nanos(1)));
        assert!(all_started(&outcomes) && !pushed);
        assert!(!seen.contains("job completed"), "{seen}");

        // A completion inside the window fires inside the round.
        let (outcomes, seen, _) = play(&|o, old, t0, _| complete(o, old, t0 + ms(2)));
        assert!(all_started(&outcomes));
        assert!(seen.contains("job completed, freed 1 host"), "{seen}");
        // So does a completion due *exactly* when the last reply lands: it
        // was scheduled first.
        let (outcomes, seen, _) = play(&|o, old, t0, trip| complete(o, old, t0 + trip));
        assert!(all_started(&outcomes));
        assert!(seen.contains("job completed, freed 1 host"), "{seen}");
        // A remote that crashes before its request arrives times out.
        let (outcomes, ..) = play(&|o, _, t0, _| {
            let mut churn = ChurnSchedule::new();
            churn.crash(o.peer_ids()[4], t0 + ms(1));
            o.schedule_churn(churn.finish());
        });
        assert_eq!(
            outcomes.iter().map(|o| o.1).collect::<Vec<_>>(),
            [
                StartReply::Started,
                StartReply::Timeout,
                StartReply::Started,
                StartReply::Started,
                StartReply::Started
            ]
        );
        // Links that slow down while the requests are on their way: the
        // remote site's replies leave at 500x and miss the 2 s deadline.
        let (outcomes, seen, _) = play(&|o, _, t0, _| {
            let remote = o.topology().site_by_name("remote").unwrap().id;
            let mut slow = ChurnSchedule::new();
            slow.site_latency(remote, 500.0, t0 + us(500)).site_latency(
                remote,
                1.0,
                t0 + us(500) + SimDuration::from_secs(5),
            );
            o.schedule_churn(slow.finish());
        });
        assert_eq!(
            outcomes.iter().map(|o| o.1).collect::<Vec<_>>(),
            [
                StartReply::Started,
                StartReply::Timeout,
                StartReply::Started,
                StartReply::Timeout,
                StartReply::Timeout
            ]
        );
        assert!(seen.contains("latency factor"), "{seen}");
        // Links already too slow when the round leaves, with nothing on
        // the queue at all: at 300x the replies miss the deadline, at
        // 1000x the requests themselves do.  What outlives the round (the
        // releases of the started ranks, the late arrivals) is queued.
        for factor in [300.0, 1000.0] {
            let (outcomes, _, pushed) = play(&|o, _, _, _| {
                let remote = o.topology().site_by_name("remote").unwrap().id;
                o.set_site_latency_factor(remote, factor);
            });
            assert!(pushed);
            assert_eq!(
                outcomes.iter().map(|o| o.1).collect::<Vec<_>>(),
                [
                    StartReply::Started,
                    StartReply::Timeout,
                    StartReply::Started,
                    StartReply::Timeout,
                    StartReply::Timeout
                ]
            );
        }
    }

    #[test]
    fn self_requests_and_key_mismatches_resolve_off_the_timeline() {
        let mut o = overlay();
        o.boot_all();
        let ids = o.peer_ids();
        let from = ids[0];
        let key = o.generate_key();
        // The submitter's own host and a remote hold the key; ids[1] does
        // not, and ids[5] holds it twice over in one round.
        grant_all(&mut o, from, &[from, ids[4], ids[5]], key);
        let capacity = o.events_capacity();
        let t0 = o.now();
        let requests = [
            (ids[1], 1),
            (from, 2),
            (ids[5], 1),
            (ids[4], 1),
            (ids[5], 1),
        ];
        let mut outcomes = Vec::new();
        o.start_round_into(from, key, &requests, &mut outcomes);
        let trip = |to: PeerId| start_trip(&o, from, to);
        assert_eq!(
            outcomes,
            vec![
                (ids[1], StartReply::KeyMismatch, trip(ids[1])),
                (from, StartReply::Started, trip(from)),
                (ids[5], StartReply::Started, trip(ids[5])),
                (ids[4], StartReply::Started, trip(ids[4])),
                (ids[5], StartReply::KeyMismatch, trip(ids[5])),
            ]
        );
        assert!(trip(from) < trip(ids[1]) && trip(ids[1]) < trip(ids[4]));
        assert_eq!(o.now(), t0 + trip(ids[4]));
        assert_eq!(o.events_capacity(), capacity, "no event was scheduled");
        assert_eq!(o.node(from).rs.running_processes(), 2);
        assert_eq!(o.node(ids[1]).rs.running_processes(), 0);
        // A refusal is an answer, not a timeout: nothing leaked.
        assert_eq!(o.leaked_grants(), 0);
        // The reference gives the same answers.
        let mut twin = overlay();
        twin.boot_all();
        assert_eq!(twin.generate_key(), key);
        grant_all(&mut twin, from, &[from, ids[4], ids[5]], key);
        assert_eq!(
            start_round_reference(&mut twin, from, key, &requests),
            outcomes
        );
        assert_eq!(observed(&twin), observed(&o));
    }

    #[test]
    fn a_start_reply_due_exactly_at_its_deadline_is_a_timeout() {
        // `rs_timeout` is the remote site's start trip to the nanosecond:
        // the submitter gives up at the instant the reply lands.
        let trip = {
            let o = overlay();
            let ids = o.peer_ids();
            start_trip(&o, ids[0], ids[3])
        };
        let run = |round_call: bool| {
            let mut o = OverlayBuilder::new(small_topology())
                .seed(1)
                .noise(NoiseModel::disabled())
                .overlay_params(OverlayParams {
                    rs_timeout: trip,
                    ..OverlayParams::default()
                })
                .peer_per_host_with_core_capacity()
                .build();
            o.boot_all();
            let ids = o.peer_ids();
            let key = o.generate_key();
            grant_all(&mut o, ids[0], &[ids[1], ids[3]], key);
            let requests = [(ids[1], 1), (ids[3], 1)];
            let mut outcomes = Vec::new();
            if round_call {
                o.start_round_into(ids[0], key, &requests, &mut outcomes);
            } else {
                outcomes = start_round_reference(&mut o, ids[0], key, &requests);
            }
            assert_eq!(outcomes[0].1, StartReply::Started);
            assert_eq!((outcomes[1].1, outcomes[1].2), (StartReply::Timeout, trip));
            (outcomes, format!("{:?}", observed(&o)))
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn an_rs_round_that_is_not_clear_goes_per_request() {
        let ms = SimDuration::from_millis;
        // Plays one RS round on twins, through the walk and through the
        // reference, after `disturb` has acted at the send instant (the key
        // is that of a job running on `ids[2]`).
        type Disturb<'a> = &'a dyn Fn(&mut Overlay, ReservationKey, SimTime);
        let play = |disturb: Disturb| {
            let run = |round_call: bool| {
                let mut o = overlay();
                o.boot_all();
                let ids = o.peer_ids();
                let from = ids[0];
                let old = o.generate_key();
                grant_all(&mut o, from, &[ids[2]], old);
                assert_eq!(
                    mpd_start(&mut o, from, ids[2], old, 1).0,
                    StartReply::Started
                );
                o.round.reference = !round_call;
                let t0 = o.now();
                disturb(&mut o, old, t0);
                let key = o.generate_key();
                let targets = [ids[1], ids[4], from, ids[3], ids[2]];
                let mut outcomes = Vec::new();
                o.rs_round_into(from, key, &targets, 1, &mut outcomes);
                let counters: Vec<_> = ids.iter().map(|&p| o.node(p).rs.counters()).collect();
                (
                    outcomes,
                    (o.now(), o.events_processed(), o.leaked_grants()),
                    counters,
                    sorted_trace(&o, TraceCategory::Reservation),
                )
            };
            let (round, reference) = (run(true), run(false));
            assert_eq!(round, reference);
            round
        };
        let replies = |outcomes: &[(PeerId, RsOutcome)]| -> Vec<Option<bool>> {
            outcomes
                .iter()
                .map(|(_, o)| match o {
                    RsOutcome::Reply { reply, .. } => Some(reply.is_ok()),
                    RsOutcome::Timeout { .. } => None,
                })
                .collect()
        };
        let rs_timeout = OverlayParams::default().rs_timeout;

        // A dead peer: its timeout fires, the round ends at the deadline.
        let (outcomes, (now, ..), _, _) = play(&|o, _, _| o.kill_peer(o.peer_ids()[4]));
        assert_eq!(
            replies(&outcomes),
            [Some(true), None, Some(true), Some(true), Some(false)]
        );
        assert_eq!(outcomes[1].1.elapsed(), rs_timeout);
        assert!(now > SimTime::ZERO + rs_timeout);
        // A degraded link: the remote site's replies lose to the timeout
        // and their grants leak, to be released eagerly.
        let (outcomes, (_, _, leaked), _, _) = play(&|o, _, _| {
            let remote = o.topology().site_by_name("remote").unwrap().id;
            o.set_site_latency_factor(remote, 300.0);
            let ids = o.peer_ids();
            assert!(rs_rtt(o, ids[0], ids[3]) >= o.params().rs_timeout);
        });
        assert_eq!(
            replies(&outcomes),
            [Some(true), None, Some(true), None, Some(false)]
        );
        assert_eq!(leaked, 2);
        // A completion inside the window frees ids[2] before its request
        // is answered, yet the answer was decided at send: NOK.
        let (outcomes, _, _, trace) = play(&|o, old, t0| {
            let on = o.peer_ids()[2];
            o.schedule_completion(t0 + ms(2), old, vec![on]);
        });
        assert_eq!(
            replies(&outcomes),
            [Some(true), Some(true), Some(true), Some(true), Some(false)]
        );
        assert_eq!(trace.len(), 1 + 5);
    }

    // -- the walk vs the reference, over random rounds ----------------------

    /// Three sites around a 50 ms `rs_timeout`: `near` answers in ~10 ms,
    /// `far` in ~60 ms (a timeout: its reply loses).  `reference` pushes
    /// every round message onto the queue.
    fn three_site_overlay(j: u32, reference: bool) -> Overlay {
        let mut b = TopologyBuilder::new();
        let sites = [b.add_site("local"), b.add_site("near"), b.add_site("far")];
        for (&site, prefix) in sites.iter().zip(["l", "n", "f"]) {
            b.add_cluster(
                site,
                prefix,
                "cpu",
                3,
                NodeSpec {
                    cores: 2,
                    ..NodeSpec::default()
                },
            );
        }
        b.set_rtt(sites[0], sites[1], SimDuration::from_millis(10));
        b.set_rtt(sites[0], sites[2], SimDuration::from_millis(60));
        b.set_rtt(sites[1], sites[2], SimDuration::from_millis(60));
        let mut o = OverlayBuilder::new(Arc::new(b.build()))
            .seed(11)
            .noise(NoiseModel::disabled())
            .overlay_params(OverlayParams {
                rs_timeout: SimDuration::from_millis(50),
                ..OverlayParams::default()
            })
            .peer_per_host(|h| OwnerConfig::new(j, h.cores as u32))
            .build();
        o.boot_all();
        o.round.reference = reference;
        o
    }

    /// Up to three disturbances around a round sent at `t0`: each a crash,
    /// a recovery, a link degradation or the completion of a job from
    /// `running`, due inside the round's window (its last in-time message
    /// lands `window` after `t0`), exactly at its end, 1 ns after it,
    /// exactly at one request's own message instant (`own`: an RS reply or
    /// a start arrival), exactly at the timeout, or any time in the next
    /// 70 ms — or a latency factor set on the spot, before the round leaves.
    fn disturb(
        o: &mut Overlay,
        rng: &mut StdRng,
        (t0, window, own): (SimTime, SimDuration, &[SimDuration]),
        running: &mut Vec<(ReservationKey, Vec<PeerId>)>,
    ) {
        let ns = SimDuration::from_nanos;
        let ids = o.peer_ids();
        let near = o.topology().site_by_name("near").unwrap().id;
        for _ in 0..rng.gen_range(0..4) {
            let at = t0
                + match rng.gen_range(0..7) {
                    0 if window > ns(1) => ns(rng.gen_range(1..window.as_nanos())),
                    1 => window,
                    2 => window + ns(1),
                    3 if !own.is_empty() => own[rng.gen_range(0..own.len())],
                    4 => o.params().rs_timeout,
                    _ => ns(rng.gen_range(1..70_000_000)),
                };
            let peer = ids[rng.gen_range(1..ids.len())];
            let mut churn = ChurnSchedule::new();
            let factor = [1.5, 3.0, 8.0][rng.gen_range(0..3usize)];
            match rng.gen_range(0..5) {
                0 => {
                    churn.crash(peer, at);
                }
                1 => {
                    churn.recover(peer, at);
                }
                2 => {
                    churn.site_latency(near, factor, at).site_latency(
                        near,
                        1.0,
                        at + ns(30_000_000),
                    );
                }
                3 => o.set_site_latency_factor(near, factor),
                _ if !running.is_empty() => {
                    let (key, peers) = running.swap_remove(rng.gen_range(0..running.len()));
                    o.schedule_completion(at, key, peers);
                }
                _ => {}
            }
            o.schedule_churn(churn.finish());
        }
    }

    /// Plays the scenario drawn from `scenario` and logs everything a
    /// submitter or an observer can see.
    fn play_rounds(o: &mut Overlay, scenario: u64) -> Vec<String> {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(scenario);
        let ids = o.peer_ids();
        let submitter = ids[0];
        let rs_timeout = o.params().rs_timeout;
        // Standing adversity: dead peers and owners that deny the submitter.
        let address = o.node(submitter).descriptor.address.clone();
        for &p in &ids[1..] {
            match rng.gen_range(0..6) {
                0 => o.kill_peer(p),
                1 => {
                    o.node_mut(p).config.deny(address.clone());
                }
                _ => {}
            }
        }
        let mut log = Vec::new();
        let mut outcomes = Vec::new();
        let mut starts = Vec::new();
        let mut running = Vec::new();
        for round in 0..4 {
            // The round: any peers, the submitter and duplicates included.
            let key = o.generate_key();
            let targets: Vec<PeerId> = (0..rng.gen_range(1..ids.len() + 3))
                .map(|_| ids[rng.gen_range(0..ids.len())])
                .collect();
            let replies: Vec<SimDuration> = targets
                .iter()
                .map(|&to| rs_rtt(o, submitter, to))
                .filter(|&rtt| rtt < rs_timeout)
                .collect();
            let window = replies.iter().max().copied().unwrap_or_default();
            disturb(o, &mut rng, (o.now(), window, &replies), &mut running);
            o.rs_round_into(submitter, key, &targets, 4, &mut outcomes);
            log.push(format!(
                "round {round} rs {outcomes:?} now={} events={}",
                o.now(),
                o.events_processed()
            ));
            // Grants are started, cancelled, or left pending (busy peers
            // for the rounds to come); now and then a peer that granted
            // nothing is asked to start, too.
            let mut requests = Vec::new();
            for &(peer, outcome) in &outcomes {
                let granted = matches!(outcome, RsOutcome::Reply { reply, .. } if reply.is_ok());
                match rng.gen_range(0..3) {
                    0 if granted || rng.gen_range(0..8) == 0 => {
                        requests.push((peer, rng.gen_range(1..4)));
                    }
                    1 if granted => {
                        o.rs_cancel(submitter, peer, key);
                    }
                    _ => {}
                }
            }
            let window = requests
                .iter()
                .map(|&(to, _)| start_trip(o, submitter, to))
                .filter(|&trip| trip < rs_timeout)
                .max()
                .unwrap_or_default();
            let arrivals: Vec<SimDuration> = requests
                .iter()
                .map(|&(to, _)| start_outbound(o, submitter, to))
                .filter(|&trip| trip < rs_timeout)
                .collect();
            disturb(o, &mut rng, (o.now(), window, &arrivals), &mut running);
            o.start_round_into(submitter, key, &requests, &mut starts);
            log.push(format!(
                "round {round} start {starts:?} now={} events={}",
                o.now(),
                o.events_processed()
            ));
            // What started completes inside or around a later round.
            let started: Vec<PeerId> = starts
                .iter()
                .filter(|s| s.1 == StartReply::Started)
                .map(|s| s.0)
                .collect();
            if !started.is_empty() {
                running.push((key, started));
            }
        }
        o.run_until(o.now() + SimDuration::from_secs(1));
        log.push(format!(
            "end now={} events={} pending={} leaked={} hwm={}",
            o.now(),
            o.events_processed(),
            o.events_pending(),
            o.leaked_grants(),
            o.leaked_grant_hwm()
        ));
        for &p in &ids {
            let rs = &o.node(p).rs;
            log.push(format!(
                "{p} {:?} active={} running={}",
                rs.counters(),
                rs.active_applications(),
                rs.running_processes()
            ));
        }
        for category in [TraceCategory::Reservation, TraceCategory::Runtime] {
            log.extend(
                sorted_trace(o, category)
                    .into_iter()
                    .map(|(t, m)| format!("{t} {m}")),
            );
        }
        log
    }

    proptest! {
        /// Merging each round's messages with the timeline by `(time,
        /// stamp)` changes no outcome, no elapsed time, no clock, no
        /// delivered-message count, no RS counter, no leaked grant and no
        /// trace record against the reference, which pushes every message
        /// onto the queue when it is stamped and lets the heap order them.
        #[test]
        fn decided_rounds_match_the_per_request_reference(
            j in 1u32..4,
            scenario in any::<u64>(),
        ) {
            let walked = play_rounds(&mut three_site_overlay(j, false), scenario);
            let reference = play_rounds(&mut three_site_overlay(j, true), scenario);
            prop_assert_eq!(walked, reference, "J={} scenario={}", j, scenario);
        }
    }
}
