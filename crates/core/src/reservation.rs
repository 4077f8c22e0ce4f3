//! The co-allocation procedure (Section 4.2, Figure 1).
//!
//! [`CoAllocator::allocate`] drives the eight steps of the paper's job
//! submission procedure against a simulated [`Overlay`]:
//!
//! 1. **Submission** — the user's `JobRequest` reaches the local MPD.
//! 2. **Booking** — the MPD checks it knows at least `n × r` peers
//!    (refreshing its cache from the supernode otherwise), sorts its cache by
//!    ascending latency and books hosts from the front, overbooking to
//!    anticipate unavailable hosts.
//! 3. **RS–RS brokering** — the local RS sends reservation requests carrying
//!    a unique hash key (`Overlay::rs_send`).  An exchange with an alive
//!    peer whose reply is bound to beat `rs_timeout` is decided at send;
//!    any other request arms a timeout event on the overlay timeline that
//!    the simulated reply, if there is one, races.
//! 4. Remote RSs accept (OK + their `P`) or refuse (NOK).
//! 5. **RS–MPD response** — `Overlay::rs_collect_into` runs the timeline
//!    until the round's last message is in (the decided replies are
//!    delivered at the latest of their arrival instants: by moving the
//!    clock there when nothing else is due first, through one event
//!    otherwise) and the answers are gathered into `rlist`; peers whose
//!    armed timeout fired (they never answered) are marked dead and
//!    dropped from the cache.  The virtual clock genuinely waits those
//!    timeouts out — dead-peer stalls are observable on the timeline.
//! 6. **Allocation** — `slist` is the first `min(|rlist|, n × r)` hosts;
//!    surplus reservations are cancelled; feasibility is checked; the chosen
//!    strategy distributes processes; ranks are assigned.
//! 7. Remote MPDs verify the key — when the start request *arrives*, against
//!    the remote's state at that instant.  The whole round is one call,
//!    `Overlay::start_round_into`: when no timeline event is due before the
//!    round's last reply and every remote is alive and in time, state at
//!    send is state at arrival and the overlay decides every start on the
//!    spot; otherwise each request gets its own arrival event.
//! 8. Remote MPDs launch the processes; each reply that beats the deadline
//!    reaches the submitter with its own elapsed time, the others are
//!    observed as timeouts, and the clock ends at the round's last message
//!    either way.

use crate::allocation::{AllocatedHost, Allocation};
use crate::capacity::host_capacity;
use crate::feasibility::{check_feasibility, Infeasibility};
use crate::overbooking::OverbookingPolicy;
use crate::rank::{assign_ranks, HostRanks};
use crate::request::{JobRequest, PlannedHost, RequestError};
use p2pmpi_overlay::messages::{RankAssignment, ReservationKey, ReservationReply, StartReply};
use p2pmpi_overlay::overlay::{Overlay, RsOutcome};
use p2pmpi_overlay::peer::PeerId;
use p2pmpi_simgrid::time::SimDuration;
use p2pmpi_simgrid::trace::TraceCategory;
use std::cell::RefCell;
use std::fmt;

/// Why a co-allocation attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocationError {
    /// The request itself was invalid.
    InvalidRequest(RequestError),
    /// The selected hosts cannot satisfy the request (step 6 conditions).
    Infeasible(Infeasibility),
    /// A remote MPD refused or failed the start request (steps 7–8).
    StartFailed {
        /// The peer whose start failed.
        peer: PeerId,
        /// What it answered.
        reply: StartReply,
    },
}

impl fmt::Display for AllocationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocationError::InvalidRequest(e) => write!(f, "invalid request: {e}"),
            AllocationError::Infeasible(e) => write!(f, "allocation infeasible: {e}"),
            AllocationError::StartFailed { peer, reply } => {
                write!(f, "start request to {peer} failed: {reply:?}")
            }
        }
    }
}

impl std::error::Error for AllocationError {}

/// Statistics describing one co-allocation attempt.
#[derive(Debug, Clone)]
pub struct CoAllocationReport {
    /// The reservation key used for this round.
    pub key: ReservationKey,
    /// The resulting allocation, or why it failed.
    pub outcome: Result<Allocation, AllocationError>,
    /// Number of reservation requests sent (booking size after overbooking).
    pub booked: usize,
    /// Number of OK answers.
    pub granted: usize,
    /// Number of NOK answers.
    pub refused: usize,
    /// Number of peers marked dead (timeouts).
    pub dead: usize,
    /// Reservations granted but cancelled because they were not needed.
    pub cancelled_unused: usize,
    /// Virtual time spent on the whole procedure (booking, brokering,
    /// starting), assuming each phase contacts peers concurrently.
    pub elapsed: SimDuration,
}

impl CoAllocationReport {
    /// True if an allocation was produced.
    pub fn is_success(&self) -> bool {
        self.outcome.is_ok()
    }

    /// The allocation, panicking on failure (convenience for tests and
    /// experiment harnesses).
    pub fn allocation(&self) -> &Allocation {
        self.outcome
            .as_ref()
            .expect("co-allocation failed; check outcome before unwrapping")
    }
}

/// Parameters of the co-allocation driver.
#[derive(Debug, Clone, Copy)]
pub struct CoAllocatorParams {
    /// Overbooking policy applied at the booking step.
    pub overbooking: OverbookingPolicy,
    /// Whether to pull a fresh host list from the supernode (and probe the
    /// newcomers) when the cache holds fewer peers than `n × r`.
    pub refresh_cache_if_short: bool,
    /// Whether the submitter's own host is a candidate resource (it is in
    /// the paper's experiments: the Nancy submitter is part of the Nancy
    /// pool).
    pub include_submitter: bool,
}

impl Default for CoAllocatorParams {
    fn default() -> Self {
        CoAllocatorParams {
            overbooking: OverbookingPolicy::default(),
            refresh_cache_if_short: true,
            include_submitter: true,
        }
    }
}

/// Counters accumulated while the procedure runs; assembled into the
/// [`CoAllocationReport`] once the outcome is known, so the report never
/// carries a placeholder error.
#[derive(Debug, Clone, Copy)]
struct BrokeringStats {
    booked: usize,
    granted: usize,
    refused: usize,
    dead: usize,
    cancelled_unused: usize,
    elapsed: SimDuration,
}

impl BrokeringStats {
    fn new() -> Self {
        BrokeringStats {
            booked: 0,
            granted: 0,
            refused: 0,
            dead: 0,
            cancelled_unused: 0,
            elapsed: SimDuration::ZERO,
        }
    }
}

/// Reusable buffers for the per-job hot path.  Booking lists, brokering
/// outcomes, `rlist`, capacities and per-host counts live here and are
/// cleared — never freed — between jobs.  What a warm allocator still
/// allocates per job is the result itself: the rank lists `assign_ranks`
/// builds, which move into the returned [`Allocation`], and its host
/// vector.
#[derive(Debug, Default)]
struct AllocScratch {
    booked: Vec<PeerId>,
    outcomes: Vec<(PeerId, RsOutcome)>,
    start_requests: Vec<(PeerId, u32)>, // (peer, ranks to start)
    start_outcomes: Vec<(PeerId, StartReply, SimDuration)>,
    rlist: Vec<(PeerId, u32)>, // (peer, owner P)
    capacities: Vec<u32>,
    counts: Vec<u32>,
}

/// Drives the reservation procedure over an overlay.
///
/// The driver owns reusable scratch buffers, so keep one allocator alive
/// across a job sweep instead of constructing one per submission.
#[derive(Debug, Default)]
pub struct CoAllocator {
    params: CoAllocatorParams,
    scratch: RefCell<AllocScratch>,
}

impl Clone for CoAllocator {
    fn clone(&self) -> Self {
        // Scratch space is per-instance; clones start cold.
        CoAllocator {
            params: self.params,
            scratch: RefCell::new(AllocScratch::default()),
        }
    }
}

impl CoAllocator {
    /// A driver with default parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// A driver with explicit parameters.
    pub fn with_params(params: CoAllocatorParams) -> Self {
        CoAllocator {
            params,
            scratch: RefCell::new(AllocScratch::default()),
        }
    }

    /// The driver parameters.
    pub fn params(&self) -> CoAllocatorParams {
        self.params
    }

    /// Runs the full procedure for `request`, submitted from `submitter`.
    pub fn allocate(
        &self,
        overlay: &mut Overlay,
        submitter: PeerId,
        request: &JobRequest,
    ) -> CoAllocationReport {
        let key = overlay.generate_key();
        let mut stats = BrokeringStats::new();
        let outcome = self.run_procedure(overlay, submitter, request, key, &mut stats);
        CoAllocationReport {
            key,
            outcome,
            booked: stats.booked,
            granted: stats.granted,
            refused: stats.refused,
            dead: stats.dead,
            cancelled_unused: stats.cancelled_unused,
            elapsed: stats.elapsed,
        }
    }

    /// The eight steps proper.  Early exits use `?`/`return Err(..)`;
    /// `stats` carries whatever counters were accumulated up to that point.
    fn run_procedure(
        &self,
        overlay: &mut Overlay,
        submitter: PeerId,
        request: &JobRequest,
        key: ReservationKey,
        stats: &mut BrokeringStats,
    ) -> Result<Allocation, AllocationError> {
        request
            .validate()
            .map_err(AllocationError::InvalidRequest)?;
        let n = request.processes;
        let r = request.replication;
        let total = request.total_instances();

        // Step 2 — booking: make sure enough peers are known, then walk the
        // cache in ascending-latency order.
        if self.params.refresh_cache_if_short
            && overlay.node(submitter).cache.len() < total as usize
        {
            let (added, d) = overlay.refresh_cache(submitter);
            stats.elapsed += d;
            if added > 0 {
                stats.elapsed += overlay.probe_round(submitter);
            }
        }
        let mut scratch = self.scratch.borrow_mut();
        let AllocScratch {
            booked,
            outcomes,
            start_requests,
            start_outcomes,
            rlist,
            capacities,
            counts,
        } = &mut *scratch;

        let candidate_count =
            usize::from(self.params.include_submitter) + overlay.node(submitter).cache.len();
        let booking_target = self
            .params
            .overbooking
            .booking_target(total as usize, candidate_count);
        booked.clear();
        if let Some(plan) = request.plan.as_deref() {
            // A search plan books its peers first, in plan order, so a full
            // round of grants puts them at the head of the slist.
            for ph in plan.iter() {
                if !booked.contains(&ph.peer) {
                    booked.push(ph.peer);
                }
            }
        }
        let plan_prefix = booked.len();
        if self.params.include_submitter && booking_target > 0 && !booked.contains(&submitter) {
            booked.push(submitter);
        }
        for peer in overlay.ranking_iter(submitter) {
            if booked.len() >= booking_target.max(plan_prefix) {
                break;
            }
            if booked[..plan_prefix].contains(&peer) {
                continue;
            }
            booked.push(peer);
        }
        stats.booked = booked.len();

        // Steps 3–5 — RS brokering on the overlay timeline.  Requests go
        // out concurrently (`Overlay::rs_send`): an exchange whose reply is
        // bound to beat the timeout is decided at send, any other arms a
        // timeout event that the simulated reply races.  `rs_collect_into`
        // runs the timeline until the whole round has resolved — the
        // decided replies at the latest of their arrival instants — and
        // hands the outcomes back in send order, so the virtual clock
        // genuinely waits out dead peers' timeouts while the phase's
        // reported duration stays the slowest exchange.
        rlist.clear();
        for &peer in booked.iter() {
            overlay.rs_send(submitter, peer, key, total);
        }
        overlay.rs_collect_into(outcomes);
        let mut phase_elapsed = SimDuration::ZERO;
        for &(peer, outcome) in outcomes.iter() {
            match outcome {
                RsOutcome::Reply { reply, elapsed } => {
                    phase_elapsed = phase_elapsed.max(elapsed);
                    match reply {
                        ReservationReply::Ok { capacity_p } => {
                            stats.granted += 1;
                            rlist.push((peer, capacity_p));
                        }
                        ReservationReply::Nok(_) => stats.refused += 1,
                    }
                }
                RsOutcome::Timeout { elapsed } => {
                    phase_elapsed = phase_elapsed.max(elapsed);
                    stats.dead += 1;
                    // Step 5: dead peers are removed from the cached list.
                    overlay.node_mut(submitter).cache.remove(peer);
                }
            }
        }
        stats.elapsed += phase_elapsed;

        // Step 6 — slist extraction and cancellation of surplus reservations.
        let slist_len = rlist.len().min(total as usize);
        let (slist, surplus) = rlist.split_at(slist_len);
        for &(peer, _) in surplus {
            overlay.rs_cancel(submitter, peer, key);
            stats.cancelled_unused += 1;
        }

        // Feasibility.
        capacities.clear();
        capacities.extend(slist.iter().map(|&(_, p)| host_capacity(p, n)));
        if let Err(inf) = check_feasibility(capacities, n, r) {
            for &(peer, _) in slist {
                overlay.rs_cancel(submitter, peer, key);
            }
            overlay
                .tracer()
                .record(overlay.now(), TraceCategory::Allocation, || {
                    format!("allocation of '{}' infeasible: {inf}", request.program)
                });
            return Err(AllocationError::Infeasible(inf));
        }

        // Strategy distribution and rank assignment.  A search plan that
        // survived brokering intact overrides both, pinning the exact
        // annealed rank→host map (the contiguous blocks of `assign_ranks`
        // would re-permute ranks and change the modeled collective costs);
        // any shortfall falls back to the strategy's distribution function.
        let assignment = match request
            .plan
            .as_deref()
            .filter(|_| r == 1)
            .and_then(|plan| plan_assignment(plan, slist, capacities, counts, total))
        {
            Some(a) => a,
            None => {
                request.strategy.distribute_into(capacities, total, counts);
                assign_ranks(counts, n)
            }
        };

        // Hosts that ended up with zero processes lose their reservation.
        for (i, &(peer, _)) in slist.iter().enumerate() {
            if counts[i] == 0 {
                overlay.rs_cancel(submitter, peer, key);
                stats.cancelled_unused += 1;
            }
        }

        // Steps 7–8 — the start round: the whole batch goes out at once
        // and each request's start decision belongs to its arrival instant
        // (so crashes and recoveries mid-start interleave honestly with
        // the timeline).  `start_round_into` resolves the round without
        // the event queue when nothing is due inside its window, on the
        // timeline otherwise, and returns outcomes in send order.
        let mut start_elapsed = SimDuration::ZERO;
        start_requests.clear();
        start_requests.extend(
            assignment
                .iter()
                .map(|hr| (slist[hr.slist_index].0, hr.ranks.len() as u32)),
        );
        overlay.start_round_into(submitter, key, start_requests, start_outcomes);
        let mut hosts = Vec::with_capacity(assignment.len());
        let mut failed: Option<(PeerId, StartReply)> = None;
        for (host_ranks, &(peer, reply, elapsed)) in
            assignment.into_iter().zip(start_outcomes.iter())
        {
            let (_, owner_p) = slist[host_ranks.slist_index];
            start_elapsed = start_elapsed.max(elapsed);
            if reply != StartReply::Started {
                if failed.is_none() {
                    failed = Some((peer, reply));
                }
                continue;
            }
            hosts.push(AllocatedHost {
                peer,
                host: overlay.host_of(peer),
                capacity: host_capacity(owner_p, n),
                ranks: host_ranks.ranks,
            });
        }
        stats.elapsed += start_elapsed;
        if let Some((peer, reply)) = failed {
            // Roll back every host that did start and give up (first
            // failure in send order is the one reported).
            for started in &hosts {
                let h: &AllocatedHost = started;
                overlay.complete_job(h.peer, key);
            }
            return Err(AllocationError::StartFailed { peer, reply });
        }

        let allocation = Allocation {
            key,
            processes: n,
            replication: r,
            strategy: request.strategy,
            hosts,
        };
        debug_assert!(allocation.validate().is_ok());
        overlay
            .tracer()
            .record(overlay.now(), TraceCategory::Allocation, || {
                format!(
                    "'{}' allocated: {} instance(s) on {} host(s) with {}",
                    request.program,
                    allocation.total_instances(),
                    allocation.hosts_used(),
                    request.strategy
                )
            });
        Ok(allocation)
    }
}

/// Attempts to honor a search plan over the granted `slist`: writes the
/// per-host counts and returns the explicit rank pinning iff every planned
/// peer was granted with enough capacity and the plan covers the job
/// exactly.  `None` sends the caller to the strategy's distribution
/// function (a planned peer refused, timed out, or lost capacity since the
/// search ran).
fn plan_assignment(
    plan: &[PlannedHost],
    slist: &[(PeerId, u32)],
    capacities: &[u32],
    counts: &mut Vec<u32>,
    total: u32,
) -> Option<Vec<HostRanks>> {
    counts.clear();
    counts.resize(slist.len(), 0);
    let mut assignment = Vec::with_capacity(plan.len());
    let mut placed = 0u32;
    for ph in plan {
        let i = slist.iter().position(|&(p, _)| p == ph.peer)?;
        let u = ph.ranks.len() as u32;
        if u == 0 || u > capacities[i] || counts[i] != 0 {
            return None;
        }
        counts[i] = u;
        placed += u;
        assignment.push(HostRanks {
            slist_index: i,
            ranks: ph
                .ranks
                .iter()
                .map(|&rank| RankAssignment { rank, replica: 0 })
                .collect(),
        });
    }
    if placed != total {
        return None;
    }
    Some(assignment)
}

/// Convenience wrapper: allocate with default parameters.
pub fn allocate(
    overlay: &mut Overlay,
    submitter: PeerId,
    request: &JobRequest,
) -> CoAllocationReport {
    CoAllocator::new().allocate(overlay, submitter, request)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::StrategyKind;
    use p2pmpi_overlay::boot::OverlayBuilder;
    use p2pmpi_overlay::config::OwnerConfig;
    use p2pmpi_simgrid::noise::NoiseModel;
    use p2pmpi_simgrid::topology::{NodeSpec, Topology, TopologyBuilder};
    use std::sync::Arc;

    // Two sites: "local" with 3 quad-core hosts, "remote" with 4 dual-core
    // hosts, 10 ms apart.
    fn topology() -> Arc<Topology> {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_site("local");
        let s1 = b.add_site("remote");
        b.add_cluster(
            s0,
            "l",
            "cpu",
            3,
            NodeSpec {
                cores: 4,
                ..NodeSpec::default()
            },
        );
        b.add_cluster(
            s1,
            "r",
            "cpu",
            4,
            NodeSpec {
                cores: 2,
                ..NodeSpec::default()
            },
        );
        b.set_rtt(s0, s1, p2pmpi_simgrid::time::SimDuration::from_millis(10));
        Arc::new(b.build())
    }

    fn booted_overlay() -> (Overlay, PeerId) {
        let topo = topology();
        let mut o = OverlayBuilder::new(topo.clone())
            .seed(7)
            .noise(NoiseModel::disabled())
            .peer_per_host_with_core_capacity()
            .build();
        o.boot_all();
        let submitter = o
            .peer_on_host(topo.host_by_name("l-0").unwrap().id)
            .unwrap();
        o.bootstrap_peer(submitter);
        (o, submitter)
    }

    #[test]
    fn concentrate_fills_local_site_first() {
        let (mut o, submitter) = booted_overlay();
        let req = JobRequest::new(8, StrategyKind::Concentrate, "hostname");
        let report = allocate(&mut o, submitter, &req);
        assert!(report.is_success(), "{:?}", report.outcome);
        let alloc = report.allocation();
        assert!(alloc.validate().is_ok());
        assert_eq!(alloc.total_instances(), 8);
        // 8 processes fit on two local quad-core hosts: no remote host used.
        assert_eq!(alloc.hosts_used(), 2);
        let topo = o.topology().clone();
        for h in &alloc.hosts {
            assert_eq!(
                topo.host(h.host).site,
                topo.site_by_name("local").unwrap().id
            );
        }
    }

    #[test]
    fn spread_uses_one_process_per_host_when_possible() {
        let (mut o, submitter) = booted_overlay();
        let req = JobRequest::new(6, StrategyKind::Spread, "hostname");
        let report = allocate(&mut o, submitter, &req);
        let alloc = report.allocation();
        assert_eq!(alloc.hosts_used(), 6);
        assert!(alloc.hosts.iter().all(|h| h.instances() == 1));
    }

    #[test]
    fn replication_places_copies_on_distinct_hosts() {
        let (mut o, submitter) = booted_overlay();
        let req = JobRequest::replicated(4, 2, StrategyKind::Spread, "prog");
        let report = allocate(&mut o, submitter, &req);
        let alloc = report.allocation();
        assert!(alloc.validate().is_ok());
        for rank in 0..4 {
            let h0 = alloc.host_of(rank, 0).unwrap();
            let h1 = alloc.host_of(rank, 1).unwrap();
            assert_ne!(h0, h1, "replicas of rank {rank} share a host");
        }
    }

    #[test]
    fn infeasible_when_capacity_is_too_small() {
        let (mut o, submitter) = booted_overlay();
        // 3*4 + 4*2 = 20 total slots; ask for more.
        let req = JobRequest::new(21, StrategyKind::Concentrate, "prog");
        let report = allocate(&mut o, submitter, &req);
        assert!(matches!(
            report.outcome,
            Err(AllocationError::Infeasible(
                Infeasibility::InsufficientCapacity { .. }
            ))
        ));
        // All granted reservations must have been cancelled.
        for id in o.peer_ids() {
            assert_eq!(o.node(id).rs.active_applications(), 0);
        }
    }

    #[test]
    fn replication_higher_than_host_count_is_infeasible() {
        let (mut o, submitter) = booted_overlay();
        let req = JobRequest::replicated(1, 8, StrategyKind::Spread, "prog");
        let report = allocate(&mut o, submitter, &req);
        assert!(matches!(
            report.outcome,
            Err(AllocationError::Infeasible(
                Infeasibility::NotEnoughHostsForReplication { .. }
            ))
        ));
    }

    #[test]
    fn dead_peers_are_marked_and_skipped() {
        let (mut o, submitter) = booted_overlay();
        // Kill two remote peers; the job still fits on the remaining hosts.
        let victims: Vec<PeerId> = o
            .peer_ids()
            .into_iter()
            .filter(|&p| p != submitter)
            .take(2)
            .collect();
        for &v in &victims {
            o.kill_peer(v);
        }
        let req = JobRequest::new(12, StrategyKind::Concentrate, "prog");
        let report = allocate(&mut o, submitter, &req);
        assert!(report.is_success(), "{:?}", report.outcome);
        assert_eq!(report.dead, 2);
        // Dead peers were dropped from the submitter's cache (step 5).
        for &v in &victims {
            assert!(o.node(submitter).cache.get(v).is_none());
        }
        let alloc = report.allocation();
        assert!(victims
            .iter()
            .all(|v| alloc.hosts.iter().all(|h| h.peer != *v)));
    }

    #[test]
    fn unused_overbooked_reservations_are_cancelled() {
        let (mut o, submitter) = booted_overlay();
        let req = JobRequest::new(2, StrategyKind::Concentrate, "prog");
        let params = CoAllocatorParams {
            overbooking: OverbookingPolicy::Additive(4),
            ..CoAllocatorParams::default()
        };
        let report = CoAllocator::with_params(params).allocate(&mut o, submitter, &req);
        assert!(report.is_success());
        assert_eq!(report.booked, 6);
        assert!(report.cancelled_unused >= 4);
        // Only the host actually running processes keeps a reservation.
        let running: usize = o
            .peer_ids()
            .iter()
            .filter(|&&p| o.node(p).rs.running_processes() > 0)
            .count();
        assert_eq!(running, 1);
    }

    #[test]
    fn invalid_request_short_circuits() {
        let (mut o, submitter) = booted_overlay();
        let req = JobRequest::new(0, StrategyKind::Spread, "prog");
        let report = allocate(&mut o, submitter, &req);
        assert_eq!(report.booked, 0);
        assert!(matches!(
            report.outcome,
            Err(AllocationError::InvalidRequest(RequestError::ZeroProcesses))
        ));
    }

    #[test]
    fn busy_peers_refuse_and_are_counted() {
        let (mut o, submitter) = booted_overlay();
        // First job occupies every host (J defaults to 1 app per node).
        let req1 = JobRequest::new(20, StrategyKind::Concentrate, "first");
        let r1 = allocate(&mut o, submitter, &req1);
        assert!(r1.is_success());
        // Second job cannot reserve anything: every RS refuses.
        let req2 = JobRequest::new(2, StrategyKind::Concentrate, "second");
        let r2 = allocate(&mut o, submitter, &req2);
        assert!(!r2.is_success());
        assert!(r2.refused > 0);
        assert_eq!(r2.granted, 0);
        // Completing the first job frees the gatekeepers.
        let alloc = r1.allocation();
        for h in &alloc.hosts {
            assert!(o.complete_job(h.peer, r1.key));
        }
        let r3 = allocate(&mut o, submitter, &req2);
        assert!(r3.is_success());
    }

    #[test]
    fn elapsed_time_reflects_remote_latency() {
        let (mut o, submitter) = booted_overlay();
        // A local-only job should broker faster than one forced to remote
        // hosts (higher booking because of more processes).
        let small = allocate(
            &mut o,
            submitter,
            &JobRequest::new(2, StrategyKind::Concentrate, "a"),
        );
        for id in o.peer_ids() {
            o.node_mut(id).rs.cancel(small.key);
        }
        let large = allocate(
            &mut o,
            submitter,
            &JobRequest::new(18, StrategyKind::Concentrate, "b"),
        );
        assert!(small.is_success() && large.is_success());
        assert!(large.elapsed > small.elapsed);
    }

    #[test]
    fn excluding_submitter_keeps_its_host_free() {
        let topo = topology();
        let mut o = OverlayBuilder::new(topo.clone())
            .seed(3)
            .noise(NoiseModel::disabled())
            .peer_per_host(|h| OwnerConfig::with_procs(h.cores as u32))
            .build();
        o.boot_all();
        let submitter = o
            .peer_on_host(topo.host_by_name("l-0").unwrap().id)
            .unwrap();
        o.bootstrap_peer(submitter);
        let params = CoAllocatorParams {
            include_submitter: false,
            ..CoAllocatorParams::default()
        };
        let req = JobRequest::new(4, StrategyKind::Concentrate, "prog");
        let report = CoAllocator::with_params(params).allocate(&mut o, submitter, &req);
        let alloc = report.allocation();
        assert!(alloc.hosts.iter().all(|h| h.peer != submitter));
    }
}
