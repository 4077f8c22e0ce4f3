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
//! * fault injection (crash/recover, scheduled churn).
//!
//! # The event timeline
//!
//! All time-driven behaviour is *scheduled* on the engine rather than
//! applied inline: churn events, periodic heartbeat rounds
//! ([`Overlay::start_heartbeats`]), periodic cache refreshes
//! ([`Overlay::start_cache_refresh`]), periodic reservation-expiry sweeps
//! ([`Overlay::start_reservation_expiry`]), job completions
//! ([`Overlay::schedule_completion`]) and — since the brokering step became
//! event-driven — every RS reservation request's reply and timeout all
//! interleave on one timeline, delivered in `(time, schedule-order)` order
//! by [`Overlay::run_until`].  The `stop_*` counterparts cancel the pending
//! event by its [`EventKey`], so re-arms and revocations never leave ghost
//! events behind.  [`Overlay::advance`] survives as a thin shim over
//! `run_until` for callers that only want to move the clock.
//!
//! Sweep-scale simulations (thousands of pending completions, timeout
//! churn) should build the overlay with
//! [`crate::boot::OverlayBuilder::queue_kind`] set to [`QueueKind::Ladder`]
//! (see the `p2pmpi_simgrid::event` docs for the selection guide).
//!
//! # The timeout-event contract
//!
//! Unless the exchange is decided at send (see the decided-exchange
//! contract below), [`Overlay::rs_send`] puts one outbound reservation
//! request on the timeline as up to *two* scheduled events: an armed
//! timeout at `now + rs_timeout`, and — when the remote peer is alive — the
//! reply's delivery at `now + rtt`.  Whichever fires first resolves the
//! request and cancels its counterpart; [`RsOutcome::Timeout`] is therefore an observed
//! timeline event, not an analytically charged constant.  The race needs no
//! guard: event keys are generation-stamped, so the loser's cancel of an
//! already-fired (or already-cancelled) counterpart is a harmless stale-key
//! no-op, and the FIFO tie-break resolves the degenerate `rtt == rs_timeout`
//! instant in favour of the timeout armed first — the submitter gives up at
//! its deadline.  The remote RS's *decision* is computed at send time (the
//! grant/refusal mutates remote state immediately); only its delivery and
//! the timeout race are simulated.  A reservation granted by a peer whose
//! reply loses the race is *released eagerly*: the timeout handler counts it
//! in [`Overlay::leaked_grants`] and schedules an immediate grant-release
//! message back to the granter, so the slot is reclaimed one one-way
//! transfer later instead of lingering until the periodic expiry sweep
//! ([`Overlay::start_reservation_expiry`]).  The sweep stays as the backstop
//! for submitters that crash mid-procedure — the failure mode it exists for
//! in the paper.  [`Overlay::leaked_grant_hwm`] tracks how many released
//! grants were simultaneously outstanding; on a standard no-fault day both
//! counters stay 0.
//!
//! # The start-request timeline (steps 6–8)
//!
//! A start round ([`Overlay::start_round_into`]) sends one request per
//! selected host, all at the same instant.  A request *arrives* at the
//! remote MPD one one-way transfer after send, and the start decision
//! belongs to that instant — the remote's state *at arrival* — so a peer
//! that crashes (or recovers) while the request is in flight interleaves
//! honestly with it.  An alive remote's reply races the submitter's
//! deadline at `sent + rs_timeout`.
//!
//! When the round's window is clear (see the decided-exchange contract
//! below) nothing can fire between send and the last reply, so every start
//! is decided on the spot and the clock moves to the last reply instant;
//! the event queue is not touched.  Otherwise each request goes on the
//! timeline by itself ([`Overlay::start_send`]): its arrival event makes
//! the decision, and a remote that is dead at arrival leaves only the
//! deadline timeout to fire.  A reply that beats its deadline is recorded
//! on the request with the instant it reaches the submitter, and the
//! round's last arrival schedules *one* event at the latest such instant,
//! which hands every recorded reply to the submitter with its own elapsed
//! time.  When the remote actually started the ranks but the reply would
//! arrive past the deadline (degraded links), the submitter has already
//! given up: the started reservation is counted as a leaked grant and an
//! eager release reclaims it, since the expiry sweep never touches
//! `Running` reservations.  On links so extreme that the request itself
//! cannot arrive before the deadline, the timeout is armed at send and the
//! late arrival only settles the remote side (it carries its own copy of
//! the request; the submitter's bookkeeping is long recycled by then).
//! [`Overlay::mpd_start`] survives as the inline one-request wrapper (send,
//! run the timeline until resolution, return the outcome);
//! [`Overlay::start_collect_into`] drains a round sent request by request,
//! in send order.
//!
//! # Fault injection
//!
//! Beyond per-peer churn, the overlay can replay correlated adversity on
//! the same timeline: [`Overlay::schedule_supernode_outage`] crashes the
//! supernode (its volatile registry is lost; cache refreshes go unanswered
//! and peers keep brokering from their stale [`crate::cache::CachedList`] —
//! degraded mode, not a halt) and recovers it later (the heartbeat round
//! re-registers every alive peer the supernode no longer knows — the resync
//! path); [`Overlay::schedule_link_degradation`] multiplies a site's
//! latency in both the messaging and probing network models for a window
//! (in-flight events keep the cost computed when they were scheduled);
//! [`Overlay::set_fail_jobs_on_crash`] makes a peer crash kill the running
//! jobs it participates in — their completions are mass-revoked via
//! [`p2pmpi_simgrid::engine::TypedEngine::cancel_batch`] and every
//! participant's gatekeeper slot is freed, with [`Overlay::jobs_killed`]
//! counting the casualties.
//!
//! # The decided-exchange contract
//!
//! **What is decided at send.**  When the remote peer is alive and its
//! reply would reach the submitter *strictly before* the timeout window
//! (`rtt < rs_timeout` — the warm common case), nothing about the exchange
//! is left open once [`Overlay::rs_send`] returns: the remote RS has
//! answered (its grant or refusal mutated remote state immediately, as on
//! the armed path), the arrival instant `now + rtt` is known, and the
//! timeout can never win the race — armed, it would only be cancelled by
//! the reply, its tombstone carried by the queue until firing time.  Such a
//! request is *decided*: it arms no timeout and gets no delivery event of
//! its own.  When the round is collected ([`Overlay::rs_collect_into`]),
//! every decided request is handed its precomputed
//! `RsOutcome::Reply { reply, elapsed: rtt }` at the round's latest decided
//! arrival instant, each reply traced stamped with its *own* arrival.
//!
//! **What a clear window is.**  A round's window runs from its send
//! instant to the instant its last reply is in.  It is *clear* when the
//! timeline's next event is due strictly later than that instant (or the
//! queue is empty) — and, for a start round, when every remote is alive at
//! send and every request and reply lands strictly before the deadline, so
//! that the round itself would put nothing else on the timeline.  State
//! only changes when an event fires or a caller acts, and the caller is
//! inside the round's call until it returns: with no event due, a remote's
//! state at send *is* its state at arrival, and nobody could have observed
//! the difference.  A clear round is resolved on the spot — every start
//! decided against the remote's current state and traced at its own
//! arrival instant, every reply given its own elapsed time — the clock
//! moves to the last reply instant and the messages are added to the
//! delivered count, [`Overlay::events_processed`], which counts *messages
//! delivered*, not heap pops.  Zero queue operations.  An event due
//! *exactly* at the last reply instant was scheduled first and would fire
//! inside the round, so it keeps the round on the timeline.
//!
//! **What one event per round delivers otherwise.**  The decided replies
//! of an RS round ride a single event at their latest arrival instant (or
//! are resolved on the spot when the caller already ran the clock past
//! it); a start round's arrivals decide one by one and the replies that
//! beat their deadline share one delivery event at the latest of theirs.
//! Delivering a reply touches nothing but the submitter's own
//! pending-request slot, which nobody reads before the round is collected;
//! so every *other* event — completions, churn, heartbeats, link
//! degradations, the armed requests of the same round — fires at its own
//! instant in the same `(time, schedule-order)` order as if each reply had
//! its own event, and sees the same state.  The round is over when its
//! last message is in, and the round event sits exactly there, so the
//! clock ends where it ended.
//!
//! **What still gets its own events.**  Dead peers (only the timeout is on
//! the timeline, and it fires), slow replies (`rtt >= rs_timeout`: timeout
//! armed first, then the reply; the timeout machinery is *kept* where it
//! is load-bearing), every start request of a round whose window is not
//! clear, and — with [`Overlay::set_rs_timeout_fast_path`]`(false)` —
//! every RS request.  Those per-request paths are the reference: the
//! proptest below plays random rounds both ways and compares outcomes,
//! clock, delivered count and trace, `crates/bench/tests/day_sweep.rs`
//! pins bit-identical sweep outcomes — `events_processed` included — with
//! decided exchanges on vs off, and `tests/modeled_costing.rs` pins the
//! absolute numbers.
//!
//! The pending-request bookkeeping lives in a reusable scratch vector on the
//! overlay and every RS keeps its (at most `J`) reservations in a small
//! vector of plain data: a steady-state brokering loop (send × booked, then
//! [`Overlay::rs_collect_into`]) allocates nothing once the high-water marks
//! are reached.
//!
//! The co-allocation procedure itself lives in the `p2pmpi-core` crate and
//! drives this type.

use crate::cache::CacheEntry;
use crate::churn::{ChurnEvent, ChurnKind, ChurnSchedule};
use crate::messages::{
    RankAssignment, ReservationKey, ReservationReply, ReservationRequest, StartReply,
};
use crate::mpd::MpdNode;
use crate::peer::{PeerId, PeerState};
use crate::ping::LatencyProber;
use crate::supernode::Supernode;
use p2pmpi_simgrid::engine::TypedEngine;
use p2pmpi_simgrid::event::{EventKey, QueueKind};
use p2pmpi_simgrid::network::NetworkModel;
use p2pmpi_simgrid::time::{SimDuration, SimTime};
use p2pmpi_simgrid::topology::{HostId, SiteId, Topology};
use p2pmpi_simgrid::trace::{TraceCategory, Tracer};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;
use std::sync::Arc;

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
    /// A scheduled crash or recovery.
    Churn(ChurnEvent),
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
    /// An in-flight RS reply reaches the submitter; cancels the armed
    /// timeout of the same request (index into the pending-request scratch).
    /// Only requests that were *not* decided at send get one.
    RsReply(u32),
    /// The latest decided reply of the current brokering round reaches the
    /// submitter: every decided request of the round is resolved with its
    /// precomputed outcome (see the decided-exchange contract).
    RsRoundReplies,
    /// An armed reservation timeout fires: the peer never answered within
    /// `rs_timeout`; cancels the pending reply delivery, if any.
    RsTimeout(u32),
    /// An eager grant-release message reaches a granter whose reply lost
    /// the race: the leaked reservation is cancelled on arrival.
    GrantRelease { to: PeerId, key: ReservationKey },
    /// An MPD start request reaches the remote MPD (index into the
    /// pending-start scratch); the start decision is made here, at arrival
    /// time, so mid-flight crashes interleave honestly.
    StartArrive(u32),
    /// A start request the submitter gave up on before it could even
    /// arrive (extreme links: the deadline was armed at send) reaches the
    /// remote MPD.  It carries the request itself — the pending-start slot
    /// is recycled by then — and only settles the remote side.
    StartArriveAbandoned {
        from: PeerId,
        to: PeerId,
        key: ReservationKey,
        ranks: u32,
    },
    /// The latest in-time start reply of the current start round reaches
    /// the submitter: every recorded reply of the round is delivered.
    StartRoundReplies,
    /// The submitter gives up on a start request at its deadline.
    StartTimeout(u32),
    /// The supernode crashes: its volatile registry is lost and refreshes
    /// go unanswered until recovery.
    SupernodeDown,
    /// The supernode recovers (empty registry; peers re-register via the
    /// heartbeat resync path).
    SupernodeUp,
    /// A site's latency multiplier changes (1.0 restores nominal links).
    LinkDegrade { site: SiteId, factor: f64 },
}

/// One in-flight RS→RS reservation request: either decided at send (no
/// event of its own; the round's one delivery event resolves it) or the two
/// scheduled events racing to resolve it, and the outcome once resolved.
/// Slots live in a reusable scratch vector on [`Overlay`] and are recycled
/// wholesale by [`Overlay::rs_collect_into`].
#[derive(Debug)]
struct RsPending {
    from: PeerId,
    to: PeerId,
    /// Reservation key of the round, kept so a timed-out grant can be
    /// released eagerly on the granter.
    key: ReservationKey,
    /// The remote RS's decision, computed at send time (`None` when the
    /// peer was dead and no reply will ever be delivered).
    reply: Option<ReservationReply>,
    /// Round-trip time of the exchange (meaningful when `reply` is some).
    rtt: SimDuration,
    /// The instant the reply reaches the submitter, for a request decided
    /// at send (`None` for every request that races on the timeline).
    decided_arrival: Option<SimTime>,
    /// The armed timeout event (`None` for a decided request: its reply
    /// arrives strictly before the timeout window).
    timeout_key: Option<EventKey>,
    /// The scheduled reply delivery of an alive peer's undecided request.
    reply_key: Option<EventKey>,
    /// Filled by the round's delivery event or by whichever of the two
    /// racing events fires first.
    outcome: Option<RsOutcome>,
}

/// One in-flight MPD start request (steps 6–8).  Unlike [`RsPending`], the
/// remote decision is *not* precomputed: it happens when the request's
/// arrival event fires, against the remote's state at that instant.  Slots
/// live in a reusable scratch vector drained in send order by
/// [`Overlay::start_collect_into`].
#[derive(Debug)]
struct StartPending {
    from: PeerId,
    to: PeerId,
    key: ReservationKey,
    /// Number of ranks the request asks the remote to start.
    ranks: u32,
    sent_at: SimTime,
    /// The submitter gives up at `sent_at + rs_timeout`.
    deadline: SimTime,
    /// The remote MPD's reply and the instant it reaches the submitter,
    /// recorded when the arrival event fired — only for a reply that beats
    /// the deadline (`None` until then, and forever otherwise).
    reply: Option<(StartReply, SimTime)>,
    /// Filled by the round's delivery event or by the deadline.  Unlike
    /// the RS race there is nothing to cancel: each request is resolved by
    /// exactly one of the two.
    outcome: Option<(StartReply, SimDuration)>,
}

/// What the control messages of a brokering round cost between a submitter
/// and a remote peer under the current cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ControlTimes {
    /// RS reservation request out plus its reply back (steps 3–5).
    rs_round_trip: SimDuration,
    /// The start request's one-way trip to the remote MPD (step 7).
    start_outbound: SimDuration,
    /// The 64-byte start reply's one-way trip back (step 8).
    start_reply: SimDuration,
}

/// The simulated P2P-MPI overlay.
pub struct Overlay {
    topology: Arc<Topology>,
    network: NetworkModel,
    prober: LatencyProber,
    supernode: Supernode,
    supernode_host: HostId,
    nodes: Vec<MpdNode>,
    /// The peer on each host, indexed by the topology's dense host ids.
    host_to_peer: Vec<Option<PeerId>>,
    sim: TypedEngine<OverlayEvent>,
    rng: StdRng,
    tracer: Tracer,
    params: OverlayParams,
    /// Pending heartbeat event while periodic heartbeats are enabled.
    heartbeat: Option<EventKey>,
    /// Per-peer periodic cache refresh: period and the pending event.
    cache_refresh: HashMap<PeerId, (SimDuration, EventKey)>,
    /// Periodic reservation-expiry sweep: (ttl, period) and the pending
    /// event.
    resv_expiry: Option<(SimDuration, SimDuration, EventKey)>,
    /// Reusable probe-round buffers, so steady-state probing allocates
    /// nothing (cleared, never shrunk, between rounds).
    scratch_measurements: Vec<(PeerId, SimDuration)>,
    scratch_failures: Vec<PeerId>,
    /// In-flight (and resolved-but-undrained) RS reservation requests:
    /// cleared, never shrunk, by [`Overlay::rs_collect_into`], so a
    /// steady-state brokering loop performs no per-request allocation.
    rs_pending: Vec<RsPending>,
    /// How many `rs_pending` slots still await their resolution.
    rs_inflight: usize,
    /// Treat exchanges whose reply is bound to beat the timeout as decided
    /// at send (see the module docs; the equivalence tests and benchmarks
    /// of the armed machinery turn this off).
    rs_timeout_fast_path: bool,
    /// The control-message times of a round between two *distinct* hosts,
    /// by `(submitter site, remote site)`: the transfer model sees hosts
    /// only through their sites there.  Filled on first use, forgotten
    /// whenever a site latency factor changes.
    site_control_times: Vec<Option<ControlTimes>>,
    /// In-flight (and resolved-but-undrained) MPD start requests; same
    /// scratch discipline as `rs_pending`.
    start_pending: Vec<StartPending>,
    /// How many `start_pending` slots still await their resolution.
    start_inflight: usize,
    /// How many start requests of the round are still on their way to the
    /// remote MPD (abandoned ones excluded): the arrival that brings this
    /// to zero schedules the round's delivery event.
    start_arrivals_pending: usize,
    /// The pending delivery event of the start round, if one is scheduled.
    start_round_event: Option<EventKey>,
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

/// Returns `(&from, &mut to)` for two *distinct* peers of the node table.
fn nodes_from_to(nodes: &mut [MpdNode], from: usize, to: usize) -> (&MpdNode, &mut MpdNode) {
    debug_assert_ne!(from, to, "caller must special-case self requests");
    if from < to {
        let (left, right) = nodes.split_at_mut(to);
        (&left[from], &mut right[0])
    } else {
        let (left, right) = nodes.split_at_mut(from);
        (&right[0], &mut left[to])
    }
}

impl Overlay {
    /// Assembles an overlay; normally called through
    /// [`crate::boot::OverlayBuilder`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        topology: Arc<Topology>,
        network: NetworkModel,
        prober: LatencyProber,
        supernode_host: HostId,
        nodes: Vec<MpdNode>,
        rng: StdRng,
        tracer: Tracer,
        params: OverlayParams,
        queue_kind: QueueKind,
    ) -> Self {
        let mut host_to_peer = vec![None; topology.host_count()];
        for n in &nodes {
            host_to_peer[n.descriptor.host.0] = Some(n.descriptor.id);
        }
        let sites = topology.site_count();
        Overlay {
            topology,
            network,
            prober,
            supernode: Supernode::default(),
            supernode_host,
            nodes,
            host_to_peer,
            sim: TypedEngine::with_queue_kind(queue_kind),
            rng,
            tracer,
            params,
            heartbeat: None,
            cache_refresh: HashMap::new(),
            resv_expiry: None,
            scratch_measurements: Vec::new(),
            scratch_failures: Vec::new(),
            rs_pending: Vec::new(),
            rs_inflight: 0,
            rs_timeout_fast_path: true,
            site_control_times: vec![None; sites * sites],
            start_pending: Vec::new(),
            start_inflight: 0,
            start_arrivals_pending: 0,
            start_round_event: None,
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

    /// The latency prober (network + noise).
    pub fn prober(&self) -> &LatencyProber {
        &self.prober
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

    /// The priority structure backing the event timeline.
    pub fn queue_kind(&self) -> QueueKind {
        self.sim.queue_kind()
    }

    /// Number of timeline messages delivered so far.  This counts
    /// *messages delivered, not heap pops*: the one event that resolves a
    /// round's decided exchanges counts once per reply it delivers, so the
    /// figure is the same whether or not exchanges are decided at send.
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

    /// Advances the virtual clock by `d`, delivering any scheduled events
    /// that become due.  Compatibility shim over [`Overlay::run_until`].
    pub fn advance(&mut self, d: SimDuration) {
        let target = self.sim.now() + d;
        self.run_until(target);
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
            OverlayEvent::Churn(ev) => match ev.kind {
                ChurnKind::Crash => self.kill_peer(ev.peer),
                ChurnKind::Recover => self.revive_peer(ev.peer),
            },
            OverlayEvent::HeartbeatRound => {
                self.heartbeat_round();
                if self.heartbeat.is_some() {
                    // Still enabled: re-arm the next round.
                    let key = self
                        .sim
                        .schedule_in(self.params.heartbeat_period, OverlayEvent::HeartbeatRound);
                    self.heartbeat = Some(key);
                }
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
            OverlayEvent::RsReply(idx) => {
                let slot = &mut self.rs_pending[idx as usize];
                debug_assert!(slot.outcome.is_none(), "RS request resolved twice");
                let reply = slot.reply.expect("reply delivery for a dead-peer request");
                slot.outcome = Some(RsOutcome::Reply {
                    reply,
                    elapsed: slot.rtt,
                });
                let (from, to, timeout_key) = (slot.from, slot.to, slot.timeout_key.take());
                // The reply won the race: disarm the timeout, if one was
                // armed at all (its ticket is tombstoned and compacted by
                // the queue, never delivered).
                if let Some(timeout_key) = timeout_key {
                    self.sim.cancel(timeout_key);
                }
                self.rs_inflight -= 1;
                self.tracer
                    .record(self.sim.now(), TraceCategory::Reservation, || {
                        format!("{from} -> {to}: {reply:?}")
                    });
            }
            OverlayEvent::RsRoundReplies => {
                // The pop counted one delivery; the other replies rode it.
                let delivered = self.deliver_decided_rs_replies();
                self.sim.count_delivered(delivered - 1);
            }
            OverlayEvent::RsTimeout(idx) => {
                let slot = &mut self.rs_pending[idx as usize];
                debug_assert!(slot.outcome.is_none(), "RS request resolved twice");
                slot.outcome = Some(RsOutcome::Timeout {
                    elapsed: self.params.rs_timeout,
                });
                let (from, to, key) = (slot.from, slot.to, slot.key);
                // A grant whose reply is about to be cancelled leaked on the
                // granter; the submitter releases it eagerly below.
                let leaked = matches!(slot.reply, Some(ReservationReply::Ok { .. }));
                // Cancel the in-flight reply, if one was ever scheduled (a
                // stale key here is harmless; see the module docs).
                if let Some(reply_key) = slot.reply_key.take() {
                    self.sim.cancel(reply_key);
                }
                self.rs_inflight -= 1;
                self.tracer
                    .record(self.sim.now(), TraceCategory::Reservation, || {
                        format!("{from} -> {to}: reservation timed out (peer dead)")
                    });
                if leaked {
                    self.release_leaked_grant(from, to, key);
                }
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
            OverlayEvent::StartArrive(idx) => self.start_arrive(idx),
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
            OverlayEvent::StartRoundReplies => {
                self.start_round_event = None;
                // The pop counted one delivery; the other replies rode it.
                let delivered = self.deliver_start_replies();
                self.sim.count_delivered(delivered - 1);
            }
            OverlayEvent::StartTimeout(idx) => {
                let slot = &mut self.start_pending[idx as usize];
                debug_assert!(slot.outcome.is_none(), "start request resolved twice");
                slot.outcome = Some((StartReply::Timeout, self.params.rs_timeout));
                let (from, to) = (slot.from, slot.to);
                self.start_inflight -= 1;
                self.tracer
                    .record(self.sim.now(), TraceCategory::Runtime, || {
                        format!("{from} -> {to}: start request timed out")
                    });
            }
            OverlayEvent::SupernodeDown => self.crash_supernode(),
            OverlayEvent::SupernodeUp => self.recover_supernode(),
            OverlayEvent::LinkDegrade { site, factor } => {
                self.set_site_latency_factor(site, factor);
            }
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

    /// Resolves every decided request of the current brokering round with
    /// the outcome computed at send, tracing each reply at its own arrival
    /// instant.  Returns how many replies were delivered.
    fn deliver_decided_rs_replies(&mut self) -> u64 {
        let mut delivered = 0;
        for slot in &mut self.rs_pending {
            let Some(arrival) = slot.decided_arrival else {
                continue;
            };
            debug_assert!(slot.outcome.is_none(), "RS request resolved twice");
            let reply = slot.reply.expect("a decided request has its reply");
            slot.outcome = Some(RsOutcome::Reply {
                reply,
                elapsed: slot.rtt,
            });
            delivered += 1;
            let (from, to) = (slot.from, slot.to);
            self.tracer.record(arrival, TraceCategory::Reservation, || {
                format!("{from} -> {to}: {reply:?}")
            });
        }
        self.rs_inflight -= delivered;
        delivered as u64
    }

    /// The remote MPD's side of a start request arriving at `at`, against
    /// its state *now*: verify the key (step 7) and start the ranks
    /// (step 8).  `None` when the MPD is dead — nobody answers.
    fn remote_start(
        &mut self,
        to: PeerId,
        key: ReservationKey,
        ranks: u32,
        at: SimTime,
    ) -> Option<StartReply> {
        let node = &mut self.nodes[to.0];
        if !node.is_alive() {
            return None;
        }
        // An unknown key fails the start like any other refusal.
        let decision = match node.rs.start(key, ranks, &node.config) {
            Ok(()) => StartReply::Started,
            Err(_) => StartReply::KeyMismatch,
        };
        if decision == StartReply::Started {
            self.tracer.record(at, TraceCategory::Runtime, || {
                format!("{to} started {ranks} process(es)")
            });
        }
        Some(decision)
    }

    /// Delivers a start request at the remote MPD: the decision happens
    /// here, against the remote's state *now*.  A reply that beats the
    /// deadline is recorded for the round's delivery event; otherwise the
    /// deadline timeout is armed.  The round's last arrival puts the
    /// delivery event on the timeline.
    fn start_arrive(&mut self, idx: u32) {
        let now = self.sim.now();
        let slot = &self.start_pending[idx as usize];
        let (from, to, key, ranks, deadline) =
            (slot.from, slot.to, slot.key, slot.ranks, slot.deadline);
        let reply = self.remote_start(to, key, ranks, now).map(|decision| {
            let src = self.nodes[from.0].descriptor.host;
            let dst = self.nodes[to.0].descriptor.host;
            (decision, now + self.network.transfer_time(dst, src, 64))
        });
        match reply {
            Some((_, reply_at)) if reply_at < deadline => {
                self.start_pending[idx as usize].reply = reply;
            }
            // Nobody answers, or the reply cannot beat the deadline: the
            // submitter will observe a timeout.  A start that actually
            // happened is abandoned — the expiry sweep never touches
            // `Running`, so it is reclaimed as a leaked grant.
            late => {
                self.sim
                    .schedule_at(deadline, OverlayEvent::StartTimeout(idx));
                if matches!(late, Some((StartReply::Started, _))) {
                    self.release_leaked_grant(from, to, key);
                }
            }
        }
        self.start_arrivals_pending -= 1;
        if self.start_arrivals_pending == 0 {
            self.schedule_start_round_replies();
        }
    }

    /// Every start request of the round has reached its remote MPD, so
    /// every in-time reply is recorded: one event at the latest of their
    /// arrival instants delivers them all (on the spot when that instant is
    /// not ahead of the clock — the round's last arrival got no in-time
    /// reply of its own).
    fn schedule_start_round_replies(&mut self) {
        let latest = self
            .start_pending
            .iter()
            .filter(|slot| slot.outcome.is_none())
            .filter_map(|slot| slot.reply.map(|(_, at)| at))
            .max();
        let Some(latest) = latest else {
            return;
        };
        // A round extended after its arrivals had drained once: the new
        // latest instant covers the replies the stale event waited for.
        if let Some(stale) = self.start_round_event.take() {
            self.sim.cancel(stale);
        }
        if latest > self.sim.now() {
            let event = self
                .sim
                .schedule_at(latest, OverlayEvent::StartRoundReplies);
            self.start_round_event = Some(event);
        } else {
            let delivered = self.deliver_start_replies();
            self.sim.count_delivered(delivered);
        }
    }

    /// Hands every recorded, undelivered start reply of the round to the
    /// submitter, each with the elapsed time of its own arrival instant.
    /// Returns how many replies were delivered.
    fn deliver_start_replies(&mut self) -> u64 {
        let mut delivered = 0;
        for slot in &mut self.start_pending {
            if let (Some((reply, at)), None) = (slot.reply, slot.outcome) {
                slot.outcome = Some((reply, at.saturating_since(slot.sent_at)));
                delivered += 1;
            }
        }
        self.start_inflight -= delivered;
        delivered as u64
    }

    /// Schedules a churn schedule onto the timeline (events must not be in
    /// the past).  Repeated calls accumulate: each call adds its events to
    /// the timeline alongside whatever was already scheduled.
    pub fn schedule_churn(&mut self, events: Vec<ChurnEvent>) {
        for ev in events {
            assert!(
                ev.time >= self.sim.now(),
                "churn events must be in the future"
            );
            self.sim.schedule_at(ev.time, OverlayEvent::Churn(ev));
        }
    }

    /// Starts periodic heartbeat rounds ([`Overlay::heartbeat_round`]) every
    /// [`OverlayParams::heartbeat_period`], first round one period from now.
    /// No-op if already running.
    pub fn start_heartbeats(&mut self) {
        if self.heartbeat.is_none() {
            let key = self
                .sim
                .schedule_in(self.params.heartbeat_period, OverlayEvent::HeartbeatRound);
            self.heartbeat = Some(key);
        }
    }

    /// Stops periodic heartbeats, cancelling the pending round.  Returns
    /// `true` if heartbeats were running.
    pub fn stop_heartbeats(&mut self) -> bool {
        match self.heartbeat.take() {
            Some(key) => {
                self.sim.cancel(key);
                true
            }
            None => false,
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

    /// Stops the periodic cache refresh for `peer`, cancelling the pending
    /// event.  Returns `true` if one was scheduled.
    pub fn stop_cache_refresh(&mut self, peer: PeerId) -> bool {
        match self.cache_refresh.remove(&peer) {
            Some((_, key)) => {
                self.sim.cancel(key);
                true
            }
            None => false,
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

    /// Stops the periodic reservation-expiry sweep.  Returns `true` if one
    /// was running.
    pub fn stop_reservation_expiry(&mut self) -> bool {
        match self.resv_expiry.take() {
            Some((_, _, key)) => {
                self.sim.cancel(key);
                true
            }
            None => false,
        }
    }

    /// Schedules the completion of a running job at absolute time `at`: the
    /// gatekeeper slot held under `key` on each of `peers` is freed when the
    /// event fires.  Returns the event's key so a caller that tears the job
    /// down early (e.g. on failure) can [`Overlay::cancel_completion`].
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

    /// Schedules a batch of job completions in iteration order through the
    /// event queue's bulk splice, appending each completion's event key to
    /// `keys`.  Semantically identical to calling
    /// [`Overlay::schedule_completion`] per job — the batch occupies
    /// consecutive sequence numbers, so same-instant completions fire in
    /// batch order — but the payload store reserves once.  This is the
    /// scatter-back path of the sharded sweep driver: a barrier that
    /// brokered a cross-shard job splices the completion events of all its
    /// sub-allocations into each owning shard's timeline in one call.
    pub fn schedule_completion_batch(
        &mut self,
        jobs: impl IntoIterator<Item = (SimTime, ReservationKey, Vec<PeerId>)>,
        keys: &mut Vec<EventKey>,
    ) {
        let track = self.fail_jobs_on_crash;
        let mut tracked: Vec<(ReservationKey, Vec<PeerId>)> = Vec::new();
        let start = keys.len();
        self.sim.schedule_batch(
            jobs.into_iter().map(|(at, key, peers)| {
                if track {
                    tracked.push((key, peers.clone()));
                }
                (at, OverlayEvent::JobComplete { key, peers })
            }),
            keys,
        );
        for ((key, peers), ev) in tracked.into_iter().zip(&keys[start..]) {
            self.running_jobs.insert(key, (*ev, peers));
        }
    }

    /// Cancels a scheduled job completion (the hosts stay booked; the caller
    /// is expected to free them itself).  Returns the job's peers if the
    /// completion was still pending.
    ///
    /// # Panics
    ///
    /// Panics if `event` refers to a pending event that is *not* a job
    /// completion: the caller mixed up keys, and silently revoking a
    /// periodic behaviour (heartbeat, refresh, sweep) would corrupt the
    /// simulation — surfacing the bug beats limping on.
    pub fn cancel_completion(&mut self, event: EventKey) -> Option<Vec<PeerId>> {
        match self.sim.cancel(event) {
            Some(OverlayEvent::JobComplete { key, peers }) => {
                if self.fail_jobs_on_crash {
                    self.running_jobs.remove(&key);
                }
                Some(peers)
            }
            Some(other) => {
                panic!("cancel_completion called with a non-completion event: {other:?}")
            }
            None => None,
        }
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
    pub fn revive_peer(&mut self, peer: PeerId) {
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
    pub fn heartbeat_round(&mut self) -> usize {
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
        let added = self.nodes[peer.0].cache.merge_refs(
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
    /// latency estimates.  Dead peers record a probe failure.  Returns the
    /// virtual time the round took (probes are sent concurrently, so this is
    /// the slowest individual probe).
    pub fn probe_round(&mut self, peer: PeerId) -> SimDuration {
        let src = self.nodes[peer.0].descriptor.host;
        let mut slowest = SimDuration::ZERO;
        // One pass over the cache, pushing into the reusable scratch buffers:
        // `nodes` is only read here, so probing borrows it alongside the
        // mutable rng/scratch fields without an intermediate target list.
        // The walk follows the latency index (ids only — the target host
        // comes from the node table, no per-entry map lookup), not the hash
        // map: probe noise comes from the shared rng, so the draw-to-peer
        // pairing must be deterministic for a seeded run to be reproducible.
        self.scratch_measurements.clear();
        self.scratch_failures.clear();
        for id in self.nodes[peer.0].cache.ranking_iter() {
            if self.nodes[id.0].is_alive() {
                let dst = self.nodes[id.0].descriptor.host;
                let rtt = self.prober.probe(src, dst, &mut self.rng);
                slowest = slowest.max(rtt);
                self.scratch_measurements.push((id, rtt));
            } else {
                slowest = slowest.max(self.params.rs_timeout);
                self.scratch_failures.push(id);
            }
        }
        let now = self.sim.now();
        let node = &mut self.nodes[peer.0];
        for &(id, rtt) in &self.scratch_measurements {
            node.cache.record_probe(id, rtt, now);
        }
        for &id in &self.scratch_failures {
            node.cache.record_probe_failure(id);
        }
        let cache_len = node.cache.len();
        self.tracer
            .record(self.sim.now(), TraceCategory::Probe, || {
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
    /// incremental latency index without sorting or allocating.  This is
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
    // RS brokering and start requests
    // ------------------------------------------------------------------

    /// Sends an RS→RS reservation request from `from` to `to` (steps 3–4).
    /// The remote RS decides now.  If it is alive and its reply is bound to
    /// beat the timeout, the exchange is *decided*: nothing is scheduled,
    /// and the round's one delivery event resolves it at collection.
    /// Otherwise an armed timeout event at `now + rs_timeout` races the
    /// reply's delivery at `now + rtt` (never scheduled when the peer is
    /// dead).  See the module docs for both contracts.
    ///
    /// This is the single hottest call of a job-submission sweep (once per
    /// booked host per job).  It allocates nothing in steady state: the
    /// request borrows the requester's address, the remote RS reads its
    /// owner's config in place and pushes plain data into a reservation
    /// table that keeps its capacity, the round trip comes from a per-site
    /// table, and the pending-request slot reuses the scratch vector
    /// recycled by [`Overlay::rs_collect_into`].  A decided request touches
    /// the event queue not at all; an undecided one recycles event-store
    /// slots.
    pub fn rs_send(&mut self, from: PeerId, to: PeerId, key: ReservationKey, total_processes: u32) {
        let idx = u32::try_from(self.rs_pending.len()).expect("too many in-flight RS requests");
        let mut slot = RsPending {
            from,
            to,
            key,
            reply: None,
            rtt: self.params.rs_timeout,
            decided_arrival: None,
            timeout_key: None,
            reply_key: None,
            outcome: None,
        };
        // A dead peer never answers: only its timeout goes on the timeline,
        // and it will fire.
        let rtt = self.nodes[to.0]
            .is_alive()
            .then(|| self.control_times(from, to).rs_round_trip);
        // A reply strictly inside the timeout window has already won the
        // race (see the module docs).  When the timeout *is* armed (dead
        // peer, slow link, or decided exchanges disabled), it is armed
        // before the reply so the FIFO tie-break delivers the timeout first
        // at the degenerate `rtt == rs_timeout` instant — the submitter
        // gives up at its deadline.
        let decided =
            self.rs_timeout_fast_path && rtt.is_some_and(|rtt| rtt < self.params.rs_timeout);
        if !decided {
            slot.timeout_key = Some(
                self.sim
                    .schedule_in(self.params.rs_timeout, OverlayEvent::RsTimeout(idx)),
            );
        }
        if let Some(rtt) = rtt {
            let now = self.sim.now();
            let reply = if from.0 == to.0 {
                // A submitter reserving its own host: every piece (address,
                // config, RS) is a disjoint field of the same node.
                let node = &mut self.nodes[to.0];
                let req = ReservationRequest {
                    key,
                    requester: from,
                    requester_address: &node.descriptor.address,
                    total_processes,
                };
                node.rs.handle_request(&req, &node.config, now)
            } else {
                let (from_node, to_node) = nodes_from_to(&mut self.nodes, from.0, to.0);
                let req = ReservationRequest {
                    key,
                    requester: from,
                    requester_address: &from_node.descriptor.address,
                    total_processes,
                };
                to_node.rs.handle_request(&req, &to_node.config, now)
            };
            slot.reply = Some(reply);
            slot.rtt = rtt;
            if decided {
                slot.decided_arrival = Some(now + rtt);
            } else {
                slot.reply_key = Some(self.sim.schedule_in(rtt, OverlayEvent::RsReply(idx)));
            }
        }
        self.rs_pending.push(slot);
        self.rs_inflight += 1;
    }

    /// The control-message times between a submitter and a remote peer.
    /// Between distinct hosts the cost model depends on the hosts only
    /// through their sites, so the three are computed once per directed
    /// site pair and reused until a latency factor changes
    /// ([`Overlay::set_site_latency_factor`] forgets the table).
    fn control_times(&mut self, from: PeerId, to: PeerId) -> ControlTimes {
        let src = self.nodes[from.0].descriptor.host;
        let dst = self.nodes[to.0].descriptor.host;
        let (rs_bytes, start_bytes) = (
            self.params.rs_message_bytes,
            self.params.start_message_bytes,
        );
        let compute = |network: &NetworkModel| ControlTimes {
            rs_round_trip: network.transfer_time(src, dst, rs_bytes)
                + network.transfer_time(dst, src, rs_bytes),
            start_outbound: network.transfer_time(src, dst, start_bytes),
            start_reply: network.transfer_time(dst, src, 64),
        };
        if src == dst {
            return compute(&self.network);
        }
        let cell = self.topology.host(src).site.0 * self.topology.site_count()
            + self.topology.host(dst).site.0;
        match self.site_control_times[cell] {
            Some(times) => {
                debug_assert_eq!(times, compute(&self.network), "stale per-site times");
                times
            }
            None => *self.site_control_times[cell].insert(compute(&self.network)),
        }
    }

    /// Number of sent RS requests not resolved yet.  Decided requests stay
    /// in flight until their round is collected.
    pub fn rs_inflight(&self) -> usize {
        self.rs_inflight
    }

    /// Runs the timeline until every in-flight RS request has resolved.
    /// Other events that come due on the way (completions, heartbeats,
    /// churn, ...) are delivered normally — a brokering round does not get
    /// a private clock.
    fn run_until_rs_resolved(&mut self) {
        self.schedule_rs_round_replies();
        while self.rs_inflight > 0 {
            let ev = self
                .sim
                .pop_due(SimTime::MAX)
                .expect("in-flight RS requests imply pending events");
            self.dispatch(ev.payload);
        }
    }

    /// Resolves the round's decided exchanges at the latest of their
    /// arrival instants: on the spot when the caller already ran the clock
    /// that far or the window up to that instant is clear (the clock moves
    /// there; see the module docs), through one delivery event otherwise.
    fn schedule_rs_round_replies(&mut self) {
        let latest = self
            .rs_pending
            .iter()
            .filter_map(|slot| slot.decided_arrival)
            .max();
        let Some(latest) = latest else {
            return;
        };
        if latest > self.sim.now() {
            if self.sim.next_time().is_some_and(|next| next <= latest) {
                self.sim.schedule_at(latest, OverlayEvent::RsRoundReplies);
                return;
            }
            self.sim.advance_clock_to(latest);
        }
        let delivered = self.deliver_decided_rs_replies();
        self.sim.count_delivered(delivered);
    }

    /// Resolves the current brokering round: runs the timeline until every
    /// request sent since the last drain has its reply or timeout, then
    /// drains the outcomes into `out` (cleared first) **in send order** —
    /// the deterministic order the co-allocation procedure walks, whatever
    /// interleaving the race produced.  The scratch slots are recycled.
    pub fn rs_collect_into(&mut self, out: &mut Vec<(PeerId, RsOutcome)>) {
        out.clear();
        self.run_until_rs_resolved();
        for slot in self.rs_pending.drain(..) {
            let outcome = slot.outcome.expect("drained an unresolved RS request");
            out.push((slot.to, outcome));
        }
    }

    /// Capacity of the pending-request scratch (diagnostics: must reach a
    /// high-water mark and stay there in a steady-state sweep).
    pub fn rs_scratch_capacity(&self) -> usize {
        self.rs_pending.capacity()
    }

    /// Enables or disables deciding exchanges at send (default on;
    /// outcome-invariant either way — see the module docs).  Off, every
    /// reservation request parks its own timeout and reply events on the
    /// timeline: the reference the equivalence tests compare against, and
    /// what benchmarks of the armed timeout machinery measure.
    pub fn set_rs_timeout_fast_path(&mut self, enabled: bool) {
        self.rs_timeout_fast_path = enabled;
    }

    /// Whether exchanges are decided at send.
    pub fn rs_timeout_fast_path(&self) -> bool {
        self.rs_timeout_fast_path
    }

    /// RS→RS reservation request from `from` to `to`, resolved inline: one
    /// [`Overlay::rs_send`] followed by running the timeline until the
    /// reply/timeout race settles.  The clock therefore *advances* by the
    /// exchange's round trip (or the full `rs_timeout` for a dead peer) —
    /// the timeout is an observed event here too, not a charged constant.
    ///
    /// # Panics
    ///
    /// Panics if called while a multi-request brokering round is in flight;
    /// batch rounds must resolve through [`Overlay::rs_collect_into`].
    pub fn rs_request(
        &mut self,
        from: PeerId,
        to: PeerId,
        key: ReservationKey,
        total_processes: u32,
    ) -> RsOutcome {
        assert!(
            self.rs_pending.is_empty(),
            "rs_request cannot interleave with an in-flight brokering round"
        );
        self.rs_send(from, to, key, total_processes);
        self.run_until_rs_resolved();
        let slot = self.rs_pending.pop().expect("one pending request");
        slot.outcome.expect("resolved request has an outcome")
    }

    /// Cancels a reservation previously granted by `to` (unused reservations
    /// from the overbooked `rlist`, step 6).  Returns `true` if the remote RS
    /// actually held it.
    pub fn rs_cancel(&mut self, from: PeerId, to: PeerId, key: ReservationKey) -> bool {
        if !self.nodes[to.0].is_alive() {
            return false;
        }
        let cancelled = self.nodes[to.0].rs.cancel(key);
        if cancelled {
            self.tracer
                .record(self.sim.now(), TraceCategory::Reservation, || {
                    format!("{from} cancelled reservation on {to}")
                });
        }
        cancelled
    }

    /// Sends an MPD start request from `from` to `to` onto the timeline
    /// (steps 6–8): the request arrives at the remote MPD one one-way
    /// transfer from now, the start decision is made *at arrival*, and the
    /// reply races the submitter's deadline at `now + rs_timeout`.  See the
    /// start-request section of the module docs.
    pub fn start_send(&mut self, from: PeerId, to: PeerId, key: ReservationKey, ranks: u32) {
        let idx = u32::try_from(self.start_pending.len()).expect("too many in-flight starts");
        let now = self.sim.now();
        let deadline = now + self.params.rs_timeout;
        let src = self.nodes[from.0].descriptor.host;
        let dst = self.nodes[to.0].descriptor.host;
        let outbound = self
            .network
            .transfer_time(src, dst, self.params.start_message_bytes);
        // On extreme links the request cannot even arrive before the
        // deadline: the timeout is pre-armed (first, so the FIFO tie-break
        // favours giving up) and the arrival only settles the remote side.
        if now + outbound >= deadline {
            self.sim
                .schedule_at(deadline, OverlayEvent::StartTimeout(idx));
            self.sim.schedule_in(
                outbound,
                OverlayEvent::StartArriveAbandoned {
                    from,
                    to,
                    key,
                    ranks,
                },
            );
        } else {
            self.sim
                .schedule_in(outbound, OverlayEvent::StartArrive(idx));
            self.start_arrivals_pending += 1;
        }
        self.start_pending.push(StartPending {
            from,
            to,
            key,
            ranks,
            sent_at: now,
            deadline,
            reply: None,
            outcome: None,
        });
        self.start_inflight += 1;
    }

    /// Number of sent start requests not resolved yet.
    pub fn start_inflight(&self) -> usize {
        self.start_inflight
    }

    /// Runs the timeline until every in-flight start request has resolved;
    /// other due events are delivered normally on the way.
    fn run_until_starts_resolved(&mut self) {
        while self.start_inflight > 0 {
            let ev = self
                .sim
                .pop_due(SimTime::MAX)
                .expect("in-flight start requests imply pending events");
            self.dispatch(ev.payload);
        }
    }

    /// Resolves the current start round: runs the timeline until every
    /// request sent since the last drain has its outcome, then drains them
    /// into `out` (cleared first) **in send order**.  The scratch slots are
    /// recycled.
    pub fn start_collect_into(&mut self, out: &mut Vec<(PeerId, StartReply, SimDuration)>) {
        out.clear();
        self.run_until_starts_resolved();
        for slot in self.start_pending.drain(..) {
            let (reply, elapsed) = slot.outcome.expect("drained an unresolved start request");
            out.push((slot.to, reply, elapsed));
        }
    }

    /// One whole start round (steps 7–8): a start request for `ranks`
    /// processes from `from` to each `(peer, ranks)` of `requests`, all sent
    /// now, resolved, and drained into `out` (cleared first) in send order.
    /// When the round's window is clear (see the module docs) every start
    /// is decided on the spot and the clock moves to the last reply
    /// instant without touching the event queue; otherwise this *is*
    /// [`Overlay::start_send`] per request and
    /// [`Overlay::start_collect_into`], and yields the same either way.
    pub fn start_round_into(
        &mut self,
        from: PeerId,
        key: ReservationKey,
        requests: &[(PeerId, u32)],
        out: &mut Vec<(PeerId, StartReply, SimDuration)>,
    ) {
        out.clear();
        let sent = self.sim.now();
        let deadline = sent + self.params.rs_timeout;
        // First pass, nothing mutated: is every remote alive, and does
        // every reply land strictly inside its deadline?
        let mut last = sent;
        let mut in_time = self.start_pending.is_empty();
        for &(to, _) in requests {
            let times = self.control_times(from, to);
            let elapsed = times.start_outbound + times.start_reply;
            in_time &= self.nodes[to.0].is_alive() && sent + elapsed < deadline;
            last = last.max(sent + elapsed);
            out.push((to, StartReply::Timeout, elapsed));
        }
        if !in_time || self.sim.next_time().is_some_and(|next| next <= last) {
            for &(to, ranks) in requests {
                self.start_send(from, to, key, ranks);
            }
            return self.start_collect_into(out);
        }
        // Nothing is due before the last reply is in, so each remote's
        // state now is its state when its request arrives.
        for (&(to, ranks), slot) in requests.iter().zip(out.iter_mut()) {
            let arrival = sent + self.control_times(from, to).start_outbound;
            slot.1 = self
                .remote_start(to, key, ranks, arrival)
                .expect("checked alive above");
        }
        self.sim.count_delivered(2 * requests.len() as u64);
        self.sim.advance_clock_to(last);
    }

    /// MPD start request (steps 6–8) resolved inline: one
    /// [`Overlay::start_send`] followed by running the timeline until the
    /// request resolves.  The clock therefore *advances* by the exchange's
    /// round trip (or the full `rs_timeout` when the remote never answers in
    /// time) — like [`Overlay::rs_request`], the timeout is an observed
    /// event, not a charged constant.
    ///
    /// # Panics
    ///
    /// Panics if called while a batch start round is in flight; batch
    /// rounds must resolve through [`Overlay::start_collect_into`].
    pub fn mpd_start(
        &mut self,
        from: PeerId,
        to: PeerId,
        key: ReservationKey,
        ranks: &[RankAssignment],
        program: &str,
    ) -> (StartReply, SimDuration) {
        assert!(
            self.start_pending.is_empty(),
            "mpd_start cannot interleave with an in-flight start round"
        );
        self.start_send(from, to, key, ranks.len() as u32);
        self.run_until_starts_resolved();
        let slot = self.start_pending.pop().expect("one pending start");
        let (reply, elapsed) = slot.outcome.expect("resolved start has an outcome");
        if reply == StartReply::Started {
            let n = ranks.len();
            self.tracer
                .record(self.sim.now(), TraceCategory::Runtime, || {
                    format!("{to} acknowledged {n} process(es) of {program}")
                });
        }
        (reply, elapsed)
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Whether the supernode is currently up.
    pub fn supernode_is_up(&self) -> bool {
        self.supernode_up
    }

    /// Crashes the supernode immediately: the volatile registry is lost and
    /// cache refreshes go unanswered until [`Overlay::recover_supernode`].
    /// Brokering continues from each submitter's stale cache.
    pub fn crash_supernode(&mut self) {
        self.supernode_up = false;
        self.supernode.clear();
        self.tracer
            .record(self.sim.now(), TraceCategory::Fault, || {
                "supernode crashed; host list lost".to_string()
            });
    }

    /// Brings the supernode back with an empty registry.  Alive peers
    /// re-register through the next heartbeat round's resync path.
    pub fn recover_supernode(&mut self) {
        self.supernode_up = true;
        self.tracer
            .record(self.sim.now(), TraceCategory::Fault, || {
                "supernode recovered; awaiting re-registrations".to_string()
            });
    }

    /// Schedules a correlated outage of the peers running on `hosts`: each
    /// crashes at `at` and recovers `duration` later, riding the churn
    /// machinery (so `fail_jobs_on_crash` revocation, heartbeat expiry and
    /// supernode re-registration all apply).  This is the rack-level
    /// fault path — callers pass a host subset (a rack) rather than a
    /// whole site.  Hosts without a registered peer are skipped; returns
    /// how many peers were scheduled.
    pub fn schedule_host_outage(
        &mut self,
        hosts: &[HostId],
        at: SimTime,
        duration: SimDuration,
    ) -> usize {
        assert!(at >= self.sim.now(), "outage must be in the future");
        assert!(!duration.is_zero(), "outage needs a non-zero duration");
        let mut schedule = ChurnSchedule::with_capacity(hosts.len() * 2);
        let mut peers = 0usize;
        for &host in hosts {
            if let Some(peer) = self.peer_on_host(host) {
                schedule.crash(peer, at);
                schedule.recover(peer, at + duration);
                peers += 1;
            }
        }
        self.schedule_churn(schedule.finish());
        peers
    }

    /// Schedules a supernode outage window `[at, at + duration)` on the
    /// timeline.
    pub fn schedule_supernode_outage(&mut self, at: SimTime, duration: SimDuration) {
        assert!(at >= self.sim.now(), "outage must be in the future");
        assert!(!duration.is_zero(), "outage needs a non-zero duration");
        self.sim.schedule_at(at, OverlayEvent::SupernodeDown);
        self.sim
            .schedule_at(at + duration, OverlayEvent::SupernodeUp);
    }

    /// Sets the latency multiplier of every transfer touching `site`, in
    /// both the messaging model and the prober's own copy.  Events already
    /// on the timeline keep the cost computed when they were scheduled.
    pub fn set_site_latency_factor(&mut self, site: SiteId, factor: f64) {
        self.network.set_site_latency_factor(site, factor);
        self.site_control_times.fill(None);
        self.prober
            .network_mut()
            .set_site_latency_factor(site, factor);
        self.tracer
            .record(self.sim.now(), TraceCategory::Fault, || {
                format!("site {} latency factor set to {factor}", site.0)
            });
    }

    /// Schedules a slow-link window: transfers touching `site` have their
    /// latency multiplied by `factor` during `[at, at + duration)`.
    pub fn schedule_link_degradation(
        &mut self,
        site: SiteId,
        at: SimTime,
        duration: SimDuration,
        factor: f64,
    ) {
        assert!(at >= self.sim.now(), "degradation must be in the future");
        assert!(!duration.is_zero(), "degradation needs a non-zero duration");
        assert!(factor >= 1.0, "a factor below 1 would speed links up");
        self.sim
            .schedule_at(at, OverlayEvent::LinkDegrade { site, factor });
        self.sim.schedule_at(
            at + duration,
            OverlayEvent::LinkDegrade { site, factor: 1.0 },
        );
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
    use crate::config::OwnerConfig;
    use p2pmpi_simgrid::noise::NoiseModel;
    use p2pmpi_simgrid::topology::{NodeSpec, TopologyBuilder};
    use proptest::prelude::*;

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
        match o.rs_request(from, to, k1, 4) {
            RsOutcome::Reply { reply, elapsed } => {
                assert!(reply.is_ok());
                assert!(elapsed > SimDuration::ZERO);
            }
            RsOutcome::Timeout { .. } => panic!("unexpected timeout"),
        }
        // Default J=1: a second application is refused.
        match o.rs_request(from, to, k2, 4) {
            RsOutcome::Reply { reply, .. } => assert!(!reply.is_ok()),
            RsOutcome::Timeout { .. } => panic!("unexpected timeout"),
        }
        // Cancelling frees the slot.
        assert!(o.rs_cancel(from, to, k1));
        assert!(matches!(
            o.rs_request(from, to, k2, 4),
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
        match o.rs_request(from, to, k, 1) {
            RsOutcome::Timeout { elapsed } => assert_eq!(elapsed, o.params().rs_timeout),
            RsOutcome::Reply { .. } => panic!("dead peer answered"),
        }
        o.probe_round(from);
        assert_eq!(o.node(from).cache.get(to).unwrap().failed_probes, 1);
        o.revive_peer(to);
        assert_eq!(o.alive_count(), 6);
        assert!(matches!(
            o.rs_request(from, to, k, 1),
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
        for &to in &[ids[1], ids[3], ids[2]] {
            o.rs_send(submitter, to, key, 1);
        }
        assert_eq!(o.rs_inflight(), 3);
        let mut outcomes = Vec::new();
        o.rs_collect_into(&mut outcomes);
        assert_eq!(o.rs_inflight(), 0);
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
        // The timeout was an observed event: the clock actually waited the
        // full rs_timeout for the dead peer.
        assert_eq!(o.now(), t0 + o.params().rs_timeout);
        // The live requests took the fast path (no armed timeout), so no
        // tombstones linger beyond pending events.
        assert!(o.events_queued() >= o.events_pending());
    }

    #[test]
    fn reply_slower_than_the_timeout_loses_the_race() {
        // An *alive* peer whose round trip exceeds rs_timeout: the armed
        // timeout fires first and cancels the in-flight reply.  The remote
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
        match o.rs_request(submitter, remote, key, 1) {
            RsOutcome::Timeout { elapsed } => assert_eq!(elapsed, SimDuration::from_millis(1)),
            RsOutcome::Reply { .. } => panic!("slow reply should have lost the race"),
        }
        // The grant happened at send time, leaked, and its eager release is
        // already in flight (one one-way 64-byte message, ~5 ms here).
        assert_eq!(o.leaked_grants(), 1);
        assert_eq!(o.leaked_grant_hwm(), 1);
        assert_eq!(o.node(remote).rs.active_applications(), 1);
        o.advance(SimDuration::from_millis(10));
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
        o.schedule_supernode_outage(SimTime::from_secs(10), SimDuration::from_secs(50));
        o.advance(SimDuration::from_secs(20));
        // Down: registry lost, refreshes unanswered, stale cache survives.
        assert!(!o.supernode_is_up());
        assert_eq!(o.supernode().len(), 0);
        let (added, elapsed) = o.refresh_cache(p);
        assert_eq!(added, 0);
        assert_eq!(elapsed, o.params().rs_timeout);
        assert_eq!(o.node(p).cache.len(), cached, "stale view keeps brokering");
        // Brokering still works peer-to-peer while the supernode is down.
        let key = o.generate_key();
        let to = o.latency_ranking(p)[0];
        assert!(matches!(
            o.rs_request(p, to, key, 1),
            RsOutcome::Reply { reply, .. } if reply.is_ok()
        ));
        // Recovery + one heartbeat period: every alive peer re-registered.
        o.advance(SimDuration::from_secs(200));
        assert!(o.supernode_is_up());
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
        o.schedule_link_degradation(
            remote_site,
            SimTime::from_secs(5),
            SimDuration::from_secs(10),
            8.0,
        );
        o.advance(SimDuration::from_secs(6));
        let degraded = o.network().transfer_time(l0, r0, 1024);
        assert!(degraded > nominal * 7);
        // The prober's own model copy is degraded too.
        assert_eq!(o.prober().network().site_latency_factor(remote_site), 8.0);
        o.advance(SimDuration::from_secs(10));
        assert_eq!(o.network().transfer_time(l0, r0, 1024), nominal);
        assert_eq!(o.prober().network().site_latency_factor(remote_site), 1.0);
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
                o.rs_request(from, to, key, 2),
                RsOutcome::Reply { reply, .. } if reply.is_ok()
            ));
        }
        let ranks = vec![RankAssignment {
            rank: 0,
            replica: 0,
        }];
        for &to in &[a, b] {
            let (reply, _) = o.mpd_start(from, to, key, &ranks, "prog");
            assert_eq!(reply, StartReply::Started);
        }
        o.schedule_completion(o.now() + SimDuration::from_secs(100), key, vec![a, b]);
        o.advance(SimDuration::from_secs(10));
        // One participant crashes: the whole job dies, both slots free.
        o.kill_peer(a);
        assert_eq!(o.jobs_killed(), 1);
        assert_eq!(o.node(a).rs.running_processes(), 0);
        assert_eq!(o.node(b).rs.running_processes(), 0);
        // The revoked completion never fires.
        let processed = o.events_processed();
        o.advance(SimDuration::from_secs(200));
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
            o.rs_request(from, to, key, 1),
            RsOutcome::Reply { reply, .. } if reply.is_ok()
        ));
        // Crash the remote *after* the start request is sent but before it
        // arrives (cross-site one-way is ~5 ms): the arrival finds a dead
        // MPD and the submitter times out — the ranks never start.
        let t0 = o.now();
        o.start_send(from, to, key, 1);
        let mut schedule = crate::churn::ChurnSchedule::new();
        schedule.crash(to, t0 + SimDuration::from_millis(1));
        o.schedule_churn(schedule.finish());
        let mut outcomes = Vec::new();
        o.start_collect_into(&mut outcomes);
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
            o.rs_request(from, late, key2, 1),
            RsOutcome::Reply { reply, .. } if reply.is_ok()
        ));
        o.kill_peer(late);
        let t1 = o.now();
        o.start_send(from, late, key2, 1);
        let mut schedule = crate::churn::ChurnSchedule::new();
        schedule.recover(late, t1 + SimDuration::from_millis(1));
        o.schedule_churn(schedule.finish());
        o.start_collect_into(&mut outcomes);
        assert_eq!(outcomes[0].1, StartReply::Started);
    }

    #[test]
    fn brokering_scratch_reaches_a_high_water_mark_and_stays_there() {
        let mut o = overlay();
        o.boot_all();
        let ids = o.peer_ids();
        let submitter = ids[0];
        let mut outcomes = Vec::new();
        let round = |o: &mut Overlay, outcomes: &mut Vec<(PeerId, RsOutcome)>| {
            let key = o.generate_key();
            for &to in &ids[1..] {
                o.rs_send(submitter, to, key, 1);
            }
            o.rs_collect_into(outcomes);
            for &(to, _) in outcomes.iter() {
                o.rs_cancel(submitter, to, key);
            }
            // Let the round's cancelled-timeout tombstones reach their
            // nominal firing time and be collected, as a real sweep's
            // inter-arrival gaps do; the event store can then recycle the
            // slots instead of growing past its high-water mark.
            o.advance(o.params().rs_timeout);
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
            o.rs_request(from, to, key, 2),
            RsOutcome::Reply { reply, .. } if reply.is_ok()
        ));
        let ranks = vec![RankAssignment {
            rank: 0,
            replica: 0,
        }];
        let (reply, _) = o.mpd_start(from, to, wrong, &ranks, "prog");
        assert_eq!(reply, StartReply::KeyMismatch);
        let (reply, _) = o.mpd_start(from, to, key, &ranks, "prog");
        assert_eq!(reply, StartReply::Started);
        assert!(o.complete_job(to, key));
        assert!(!o.complete_job(to, key));
    }

    #[test]
    fn churn_schedule_is_applied_on_advance() {
        let mut o = overlay();
        o.boot_all();
        let victim = o.peer_ids()[1];
        let mut schedule = crate::churn::ChurnSchedule::new();
        schedule.crash(victim, SimTime::from_secs(10));
        schedule.recover(victim, SimTime::from_secs(30));
        o.schedule_churn(schedule.finish());
        o.advance(SimDuration::from_secs(5));
        assert!(o.node(victim).is_alive());
        o.advance(SimDuration::from_secs(10));
        assert!(!o.node(victim).is_alive());
        o.advance(SimDuration::from_secs(20));
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
        o.advance(SimDuration::from_secs(500));
        assert!(!o.supernode().knows(victim));
        assert_eq!(o.supernode().len(), 5);
        assert!(o.events_processed() >= 4);
        // The next round is always armed while heartbeats run.
        assert!(o.events_pending() >= 1);
        assert!(o.stop_heartbeats());
        assert!(!o.stop_heartbeats());
        assert_eq!(o.events_pending(), 0);
    }

    #[test]
    fn periodic_cache_refresh_is_a_scheduled_event() {
        let mut o = overlay();
        o.boot_all();
        let p = o.peer_ids()[0];
        assert_eq!(o.node(p).cache.len(), 0);
        o.start_cache_refresh(p, SimDuration::from_secs(60));
        o.advance(SimDuration::from_secs(59));
        assert_eq!(o.node(p).cache.len(), 0, "not due yet");
        o.advance(SimDuration::from_secs(2));
        assert_eq!(o.node(p).cache.len(), 5, "first refresh fired");
        assert!(o.stop_cache_refresh(p));
        assert!(!o.stop_cache_refresh(p));
        let processed = o.events_processed();
        o.advance(SimDuration::from_secs(600));
        assert_eq!(o.events_processed(), processed, "refresh was cancelled");
    }

    #[test]
    fn reservation_expiry_sweep_reclaims_pending_slots() {
        let mut o = overlay();
        o.boot_all();
        let ids = o.peer_ids();
        let (from, to) = (ids[0], ids[1]);
        let k = o.generate_key();
        assert!(matches!(
            o.rs_request(from, to, k, 2),
            RsOutcome::Reply { reply, .. } if reply.is_ok()
        ));
        assert_eq!(o.node(to).rs.active_applications(), 1);
        o.start_reservation_expiry(SimDuration::from_secs(60), SimDuration::from_secs(30));
        // The submitter never starts nor cancels: the sweep reclaims the
        // promised gatekeeper slot once the TTL passes.
        o.advance(SimDuration::from_secs(100));
        assert_eq!(o.node(to).rs.active_applications(), 0);
        assert!(o.stop_reservation_expiry());
    }

    #[test]
    fn scheduled_completions_free_hosts_on_the_timeline() {
        let mut o = overlay();
        o.boot_all();
        let ids = o.peer_ids();
        let (from, to) = (ids[0], ids[2]);
        let key = o.generate_key();
        assert!(matches!(
            o.rs_request(from, to, key, 1),
            RsOutcome::Reply { reply, .. } if reply.is_ok()
        ));
        let ranks = vec![RankAssignment {
            rank: 0,
            replica: 0,
        }];
        let (reply, _) = o.mpd_start(from, to, key, &ranks, "prog");
        assert_eq!(reply, StartReply::Started);
        let done_at = o.now() + SimDuration::from_secs(30);
        let ev = o.schedule_completion(done_at, key, vec![to]);
        o.advance(SimDuration::from_secs(29));
        assert_eq!(o.node(to).rs.running_processes(), 1, "still running");
        o.advance(SimDuration::from_secs(2));
        assert_eq!(o.node(to).rs.running_processes(), 0, "completion fired");
        // Cancelling after the fact is a stale-key no-op.
        assert!(o.cancel_completion(ev).is_none());
    }

    #[test]
    fn cancelled_completion_returns_the_held_peers() {
        let mut o = overlay();
        o.boot_all();
        let ids = o.peer_ids();
        let key = o.generate_key();
        let ev = o.schedule_completion(
            o.now() + SimDuration::from_secs(10),
            key,
            vec![ids[1], ids[2]],
        );
        let peers = o.cancel_completion(ev).expect("still pending");
        assert_eq!(peers, vec![ids[1], ids[2]]);
        let processed = o.events_processed();
        o.advance(SimDuration::from_secs(60));
        assert_eq!(o.events_processed(), processed);
    }

    #[test]
    fn heartbeats_keep_peers_registered_and_silence_expires_them() {
        let mut o = overlay();
        o.boot_all();
        let victim = o.peer_ids()[0];
        o.kill_peer(victim);
        // Advance past the supernode expiry and heartbeat.
        o.advance(SimDuration::from_secs(400));
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
        match o.rs_request(from, to, k, 1) {
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

    // -- decided exchanges: one event per round ----------------------------

    /// Round trip of an RS request and its reply under the current cost
    /// model, computed the long way.
    fn rs_rtt(o: &Overlay, from: PeerId, to: PeerId) -> SimDuration {
        let (src, dst) = (o.host_of(from), o.host_of(to));
        let bytes = o.params().rs_message_bytes;
        o.network().transfer_time(src, dst, bytes) + o.network().transfer_time(dst, src, bytes)
    }

    /// A start request's trip to the remote MPD plus its reply's way back.
    fn start_trip(o: &Overlay, from: PeerId, to: PeerId) -> SimDuration {
        let (src, dst) = (o.host_of(from), o.host_of(to));
        o.network()
            .transfer_time(src, dst, o.params().start_message_bytes)
            + o.network().transfer_time(dst, src, 64)
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
        let ranks = vec![RankAssignment {
            rank: 0,
            replica: 0,
        }];
        // A job already running on ids[1] ...
        let old = o.generate_key();
        assert!(matches!(
            o.rs_request(submitter, ids[1], old, 1),
            RsOutcome::Reply { reply, .. } if reply.is_ok()
        ));
        assert_eq!(
            o.mpd_start(submitter, ids[1], old, &ranks, "old").0,
            StartReply::Started
        );
        // ... completes 2 ms into the next round; ids[4] crashes at 3 ms
        // and the remote site's links slow tenfold at 4 ms — all three
        // between the send instant and the round's latest reply (~10 ms).
        let t0 = o.now();
        let ms = SimDuration::from_millis;
        o.schedule_completion(t0 + ms(2), old, vec![ids[1]]);
        let mut churn = ChurnSchedule::new();
        churn.crash(ids[4], t0 + ms(3));
        o.schedule_churn(churn.finish());
        let remote_site = topo.site_by_name("remote").unwrap().id;
        o.schedule_link_degradation(remote_site, t0 + ms(4), SimDuration::from_secs(1), 10.0);

        let targets = [ids[2], ids[3], ids[4], ids[5]];
        let expected: Vec<SimDuration> = targets
            .iter()
            .map(|&to| rs_rtt(&o, submitter, to))
            .collect();
        assert!(expected[0] < ms(1) && expected[1] > ms(10), "{expected:?}");
        let key = o.generate_key();
        for &to in &targets {
            o.rs_send(submitter, to, key, 1);
        }
        // Decided at send: nothing of the round is on the timeline yet.
        assert_eq!(o.rs_inflight(), 4);
        let mut outcomes = Vec::new();
        o.rs_collect_into(&mut outcomes);

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
        match o.rs_request(submitter, ids[5], next, 1) {
            RsOutcome::Reply { elapsed, .. } => assert_eq!(elapsed, rs_rtt(&o, submitter, ids[5])),
            RsOutcome::Timeout { .. } => panic!("100 ms is well inside the 2 s window"),
        }
    }

    #[test]
    fn a_round_collected_after_its_replies_arrived_resolves_on_the_spot() {
        let run = |fast_path: bool| {
            let mut o = overlay();
            o.boot_all();
            o.set_rs_timeout_fast_path(fast_path);
            let ids = o.peer_ids();
            let key = o.generate_key();
            for &to in &ids[1..] {
                o.rs_send(ids[0], to, key, 1);
            }
            // The caller runs the clock past every reply before collecting.
            let delivered = o.run_until(SimTime::from_secs(1));
            assert_eq!(o.rs_inflight(), if fast_path { 5 } else { 0 });
            assert_eq!(delivered, if fast_path { 0 } else { 5 });
            let mut outcomes = Vec::new();
            o.rs_collect_into(&mut outcomes);
            assert_eq!(o.rs_inflight(), 0);
            (
                outcomes,
                o.now(),
                o.events_processed(),
                sorted_trace(&o, TraceCategory::Reservation),
            )
        };
        let (decided, reference) = (run(true), run(false));
        assert_eq!(decided, reference);
        assert_eq!(decided.0.len(), 5);
        assert_eq!(
            decided.1,
            SimTime::from_secs(1),
            "collecting moved no clock"
        );
    }

    #[test]
    fn every_decided_reply_is_traced_once_at_its_own_arrival() {
        let mut o = overlay();
        o.boot_all();
        let ids = o.peer_ids();
        // ids[3] answers NOK: it is busy with another application.
        let other = o.generate_key();
        assert!(matches!(
            o.rs_request(ids[1], ids[3], other, 1),
            RsOutcome::Reply { reply, .. } if reply.is_ok()
        ));
        o.tracer().clear();
        let t0 = o.now();
        let key = o.generate_key();
        // The submitter's own host, two local peers, three remote ones.
        for &to in &ids {
            o.rs_send(ids[0], to, key, 1);
        }
        let mut outcomes = Vec::new();
        o.rs_collect_into(&mut outcomes);
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
        // Three distinct arrival instants (loopback, LAN, WAN), one event.
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
            match o.rs_request(ids[0], to, key, 1) {
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
        for &to in targets {
            o.rs_send(from, to, key, 1);
        }
        let mut outcomes = Vec::new();
        o.rs_collect_into(&mut outcomes);
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
        for &to in &targets {
            o.start_send(from, to, key, 2);
        }
        assert_eq!(o.start_inflight(), 4);
        let mut outcomes = Vec::new();
        o.start_collect_into(&mut outcomes);
        assert_eq!(o.start_inflight(), 0);
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
        // one deadline — the replies rode one event.
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
        let ranks = vec![RankAssignment {
            rank: 0,
            replica: 0,
        }];
        let t0 = o.now();
        let expected = start_trip(&o, from, to);
        assert_eq!(
            o.mpd_start(from, to, key, &ranks, "prog"),
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
        o.start_send(from, near, key, 1);
        o.start_send(from, slow, key, 1);
        let mut outcomes = Vec::new();
        o.start_collect_into(&mut outcomes);
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
        o.advance(SimDuration::from_secs(2));
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
        // which is therefore armed at send.
        let remote_site = topo.site_by_name("remote").unwrap().id;
        o.set_site_latency_factor(remote_site, 1000.0);
        let t0 = o.now();
        o.start_send(from, far, key, 1);
        o.start_send(from, near, key, 1);
        let mut outcomes = Vec::new();
        o.start_collect_into(&mut outcomes);
        assert_eq!(
            (outcomes[0].1, outcomes[0].2),
            (StartReply::Timeout, o.params().rs_timeout)
        );
        assert_eq!(outcomes[1].1, StartReply::Started);
        // The round ends at the deadline, not at the late arrival.
        assert_eq!(o.now(), t0 + o.params().rs_timeout);
        assert_eq!(o.node(far).rs.running_processes(), 0);
        assert_eq!(o.events_pending(), 1, "the request is still on its way");
        // Another round recycles the submitter's bookkeeping meanwhile.
        let key2 = o.generate_key();
        grant_all(&mut o, from, &[ids[2]], key2);
        o.start_send(from, ids[2], key2, 1);
        o.start_collect_into(&mut outcomes);
        assert_eq!(outcomes[0].1, StartReply::Started);
        // The late arrival settles the remote side only: the ranks start,
        // nobody waits for them, the grant is released one trip later.
        o.advance(SimDuration::from_secs(4));
        assert_eq!(o.node(far).rs.running_processes(), 1);
        assert_eq!(o.leaked_grants(), 1);
        o.advance(SimDuration::from_secs(6));
        assert_eq!(o.node(far).rs.active_applications(), 0);
        assert_eq!(o.node(ids[2]).rs.running_processes(), 1, "untouched");
    }

    #[test]
    fn a_start_round_extended_after_its_arrivals_drained_still_resolves() {
        let mut o = overlay();
        o.boot_all();
        let ids = o.peer_ids();
        let from = ids[0];
        let key = o.generate_key();
        grant_all(&mut o, from, &[ids[3], ids[4]], key);
        let t0 = o.now();
        o.start_send(from, ids[3], key, 1);
        // Past the arrival (~5 ms), short of the reply (~10 ms): the
        // delivery event of the round so far is pending.
        o.advance(SimDuration::from_millis(7));
        o.start_send(from, ids[4], key, 1);
        let mut outcomes = Vec::new();
        o.start_collect_into(&mut outcomes);
        let trip = outcomes[0].2;
        assert_eq!(
            outcomes,
            vec![
                (ids[3], StartReply::Started, trip),
                (ids[4], StartReply::Started, trip)
            ]
        );
        assert_eq!(o.now(), t0 + SimDuration::from_millis(7) + trip);
        assert_eq!(o.events_pending(), 0);
    }

    // -- rounds whose window is clear ----------------------------------------

    /// Steps 7–8 the per-request way: the reference `start_round_into`
    /// must agree with.
    fn start_round_reference(
        o: &mut Overlay,
        from: PeerId,
        key: ReservationKey,
        requests: &[(PeerId, u32)],
    ) -> Vec<(PeerId, StartReply, SimDuration)> {
        for &(to, ranks) in requests {
            o.start_send(from, to, key, ranks);
        }
        let mut outcomes = Vec::new();
        o.start_collect_into(&mut outcomes);
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
        // The RS half: five decided exchanges, delivered at the latest.
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
        assert_eq!((o.start_inflight(), o.rs_inflight()), (0, 0));
        // Each start is traced at its own arrival instant.
        let started = sorted_trace(&o, TraceCategory::Runtime);
        let arrival = |to: PeerId| {
            let bytes = o.params().start_message_bytes;
            t1 + o
                .network()
                .transfer_time(o.host_of(from), o.host_of(to), bytes)
        };
        assert_eq!(started.len(), 5);
        assert_eq!(
            started[0],
            (arrival(ids[1]), format!("{} started 2 process(es)", ids[1]))
        );
        assert_eq!(started[4].0, arrival(ids[5]));
        // And the round agrees with the per-request reference on a twin.
        let mut twin = overlay();
        twin.boot_all();
        let twin_old = twin.generate_key();
        twin.schedule_completion(SimTime::from_secs(100), twin_old, vec![]);
        let twin_key = twin.generate_key();
        assert_eq!(twin_key, key);
        twin.set_rs_timeout_fast_path(false);
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
        // Plays one start round on twins, through the round call and
        // through the per-request reference, with `disturb` scheduling
        // something relative to the send instant and the last reply's trip
        // (the key is that of a job running on `ids[2]`).
        type Disturb<'a> = &'a dyn Fn(&mut Overlay, ReservationKey, SimTime, SimDuration);
        let play = |disturb: Disturb| {
            let run = |round_call: bool| {
                let mut o = overlay();
                o.boot_all();
                let ids = o.peer_ids();
                let from = ids[0];
                let ranks = vec![RankAssignment {
                    rank: 0,
                    replica: 0,
                }];
                // A job already running on ids[2], for completions.
                let old = o.generate_key();
                grant_all(&mut o, from, &[ids[2]], old);
                assert_eq!(
                    o.mpd_start(from, ids[2], old, &ranks, "old").0,
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
                // Five arrivals pending at once outgrow the payload store.
                let on_timeline = o.events_capacity() > capacity;
                (outcomes, format!("{:?}", observed(&o)), on_timeline)
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

        // Undisturbed, the round resolves off the timeline ...
        let (outcomes, _, on_timeline) = play(&|_, _, _, _| {});
        assert!(all_started(&outcomes) && !on_timeline);
        // ... and so it does when the next event is due right after it.
        let (outcomes, _, on_timeline) =
            play(&|o, old, t0, trip| complete(o, old, t0 + trip + SimDuration::from_nanos(1)));
        assert!(all_started(&outcomes) && !on_timeline);

        // A completion inside the window: same outcomes, on the timeline.
        let (outcomes, seen, on_timeline) = play(&|o, old, t0, _| complete(o, old, t0 + ms(2)));
        assert!(all_started(&outcomes) && on_timeline);
        assert!(seen.contains("job completed, freed 1 host"), "{seen}");
        // A completion due *exactly* when the last reply lands fires inside
        // the round (it was scheduled first), so that round too.
        let (outcomes, seen, on_timeline) = play(&|o, old, t0, trip| complete(o, old, t0 + trip));
        assert!(all_started(&outcomes) && on_timeline);
        assert!(seen.contains("job completed, freed 1 host"), "{seen}");
        // A remote that crashes before its request arrives times out.
        let (outcomes, _, on_timeline) = play(&|o, _, t0, _| {
            let mut churn = ChurnSchedule::new();
            churn.crash(o.peer_ids()[4], t0 + ms(1));
            o.schedule_churn(churn.finish());
        });
        assert!(on_timeline);
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
        let (outcomes, seen, on_timeline) = play(&|o, _, t0, _| {
            let remote = o.topology().site_by_name("remote").unwrap().id;
            o.schedule_link_degradation(remote, t0 + us(500), SimDuration::from_secs(5), 500.0);
        });
        assert!(on_timeline);
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
        // 1000x the requests themselves do.
        for factor in [300.0, 1000.0] {
            let (outcomes, _, on_timeline) = play(&|o, _, _, _| {
                let remote = o.topology().site_by_name("remote").unwrap().id;
                o.set_site_latency_factor(remote, factor);
            });
            assert!(on_timeline);
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
        // The per-request reference gives the same answers.
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
    fn a_round_sent_behind_a_pending_start_request_collects_both() {
        let mut o = overlay();
        o.boot_all();
        let ids = o.peer_ids();
        let from = ids[0];
        let key = o.generate_key();
        grant_all(&mut o, from, &[ids[3], ids[1]], key);
        // The pending request's arrival (~5 ms) is past the local round's
        // last reply: nothing is due inside the window, yet the round must
        // not resolve without the request it was sent behind.
        o.start_send(from, ids[3], key, 1);
        let mut outcomes = Vec::new();
        o.start_round_into(from, key, &[(ids[1], 1)], &mut outcomes);
        assert_eq!(
            outcomes,
            vec![
                (ids[3], StartReply::Started, start_trip(&o, from, ids[3])),
                (ids[1], StartReply::Started, start_trip(&o, from, ids[1])),
            ]
        );
        assert_eq!(o.start_inflight(), 0);
    }

    // -- decided on vs off, over random rounds -------------------------------

    /// Three sites around a 50 ms `rs_timeout`: `near` answers in ~10 ms
    /// (decided), `far` in ~60 ms (armed, and the reply loses).
    fn three_site_overlay(j: u32, fast_path: bool) -> Overlay {
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
        o.set_rs_timeout_fast_path(fast_path);
        o
    }

    /// Up to three disturbances around a round sent at `t0` whose last
    /// in-time reply lands `window` later: each a crash, a recovery, a link
    /// degradation or the completion of a job from `running`, due inside
    /// the window, exactly at its end, right after it, or any time in the
    /// next 70 ms (inside or after, as the draw falls) — or a latency
    /// factor set on the spot, before the round leaves.
    fn disturb(
        o: &mut Overlay,
        rng: &mut StdRng,
        (t0, window): (SimTime, SimDuration),
        running: &mut Vec<(ReservationKey, Vec<PeerId>)>,
    ) {
        let ns = SimDuration::from_nanos;
        let ids = o.peer_ids();
        let near = o.topology().site_by_name("near").unwrap().id;
        for _ in 0..rng.gen_range(0..4) {
            let at = t0
                + match rng.gen_range(0..5) {
                    0 if window > ns(1) => ns(rng.gen_range(1..window.as_nanos())),
                    1 => window,
                    2 => window + ns(1),
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
                2 => o.schedule_link_degradation(near, at, ns(30_000_000), factor),
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
    /// submitter or an observer can see.  `round_calls` plays steps 7–8
    /// through `start_round_into`, otherwise request by request.
    fn play_rounds(o: &mut Overlay, scenario: u64, round_calls: bool) -> Vec<String> {
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
            let window = targets
                .iter()
                .map(|&to| rs_rtt(o, submitter, to))
                .filter(|&rtt| rtt < rs_timeout)
                .max()
                .unwrap_or(SimDuration::ZERO);
            disturb(o, &mut rng, (o.now(), window), &mut running);
            for &to in &targets {
                o.rs_send(submitter, to, key, 4);
            }
            o.rs_collect_into(&mut outcomes);
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
                .unwrap_or(SimDuration::ZERO);
            disturb(o, &mut rng, (o.now(), window), &mut running);
            if round_calls {
                o.start_round_into(submitter, key, &requests, &mut starts);
            } else {
                starts = start_round_reference(o, submitter, key, &requests);
            }
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
        o.advance(SimDuration::from_secs(1));
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
        /// Deciding exchanges at send, and resolving the rounds whose
        /// window is clear off the timeline, changes no outcome, no
        /// elapsed time, no clock, no delivered-message count, no RS
        /// counter, no leaked grant and no trace record: the reference
        /// parks every request's own events on the timeline.
        #[test]
        fn decided_rounds_match_the_per_request_reference(
            j in 1u32..4,
            scenario in any::<u64>(),
        ) {
            let decided = play_rounds(&mut three_site_overlay(j, true), scenario, true);
            let reference = play_rounds(&mut three_site_overlay(j, false), scenario, false);
            prop_assert_eq!(decided, reference, "J={} scenario={}", j, scenario);
        }
    }
}
