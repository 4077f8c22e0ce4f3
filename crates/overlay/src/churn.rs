//! Fault injection: every scheduled change of the overlay's state.
//!
//! The paper motivates P2P middleware by the dynamicity of grids ("failures
//! are far more frequent than on supercomputers").  This module provides a
//! schedule of timed faults: a peer's crash or recovery, the supernode's
//! crash or restart, and a site's link-latency factor (a slow-link window
//! is two such events, the factor and then 1.0).
//! [`crate::overlay::Overlay::schedule_churn`] is the one way any of them
//! reaches the overlay's timeline, as one event kind, so flapping peers,
//! site and rack outages, slow links and supernode crashes interleave with
//! everything else in `(time, schedule-order)` order.  A schedule is drawn
//! whole, but one event of it is queued at a time, under the FIFO stamp it
//! reserved at set-up; each queues the next.

use crate::peer::PeerId;
use p2pmpi_simgrid::time::{SimDuration, SimTime};
use p2pmpi_simgrid::topology::SiteId;
use rand::Rng;

/// What changes at a scheduled instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ChurnKind {
    /// The peer's MPD stops answering (crash / network partition).
    Crash(PeerId),
    /// The peer comes back and re-registers with the supernode.
    Recover(PeerId),
    /// The supernode crashes: its volatile registry is lost and cache
    /// refreshes go unanswered until it restarts.
    SupernodeDown,
    /// The supernode restarts with an empty registry; alive peers
    /// re-register through the heartbeat resync path.
    SupernodeUp,
    /// Every transfer touching `site` has its latency multiplied by
    /// `factor` from now on (1.0 restores nominal links).
    SiteLatency {
        /// The affected site.
        site: SiteId,
        /// The latency multiplier.
        factor: f64,
    },
}

/// One scheduled fault event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ChurnEvent {
    /// When the event takes effect.
    pub(crate) time: SimTime,
    /// What changes.
    pub(crate) kind: ChurnKind,
}

/// A churn schedule in build order (`schedule_churn` sorts it by time).
#[derive(Debug, Default, Clone)]
pub struct ChurnSchedule {
    pub(crate) events: Vec<ChurnEvent>,
}

impl ChurnSchedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Convenience: schedule a crash.
    pub fn crash(&mut self, peer: PeerId, at: SimTime) -> &mut Self {
        self.at(at, ChurnKind::Crash(peer))
    }

    /// Convenience: schedule a recovery.
    pub fn recover(&mut self, peer: PeerId, at: SimTime) -> &mut Self {
        self.at(at, ChurnKind::Recover(peer))
    }

    /// Convenience: schedule a supernode crash.
    pub fn supernode_down(&mut self, at: SimTime) -> &mut Self {
        self.at(at, ChurnKind::SupernodeDown)
    }

    /// Convenience: schedule a supernode restart.
    pub fn supernode_up(&mut self, at: SimTime) -> &mut Self {
        self.at(at, ChurnKind::SupernodeUp)
    }

    /// Convenience: set `site`'s latency factor at `at`.
    pub fn site_latency(&mut self, site: SiteId, factor: f64, at: SimTime) -> &mut Self {
        self.at(at, ChurnKind::SiteLatency { site, factor })
    }

    fn at(&mut self, time: SimTime, kind: ChurnKind) -> &mut Self {
        self.events.push(ChurnEvent { time, kind });
        self
    }

    /// Returns the schedule unchanged (the benchmark still calls it).
    pub fn finish(self) -> Self {
        self
    }
}

/// Generates a random crash/recovery schedule: each selected peer crashes at
/// a uniformly random instant of `[0, horizon)` and recovers `downtime`
/// later.  `fraction` of the given peers (rounded down) are affected.
pub fn random_churn<R: Rng + ?Sized>(
    peers: &[PeerId],
    fraction: f64,
    horizon: SimDuration,
    downtime: SimDuration,
    rng: &mut R,
) -> ChurnSchedule {
    assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
    let count = ((peers.len() as f64) * fraction).floor() as usize;
    let mut schedule = ChurnSchedule::new();
    schedule.events.reserve(count * 2);
    // Partial Fisher–Yates: only the `count` selected positions are
    // shuffled, so picking a small fraction of a large overlay costs
    // O(count) swaps instead of a full-slice shuffle.
    let mut pool = peers.to_vec();
    for i in 0..count {
        let j = rng.gen_range(i..pool.len());
        pool.swap(i, j);
        let peer = pool[i];
        let at = SimTime::from_nanos(rng.gen_range(0..horizon.as_nanos().max(1)));
        schedule.crash(peer, at);
        schedule.recover(peer, at + downtime);
    }
    schedule
}

/// Generates a *flapping* schedule: each selected peer cycles crash →
/// (`downtime` later) recover → (`uptime` later) crash → … across the whole
/// horizon, starting its cycle at a uniformly random phase so the crashes
/// de-synchronise.  `fraction` of the given peers (rounded down) flap.
///
/// This is the fault process of the timeout-heavy day traces: at any instant
/// roughly `fraction · downtime / (downtime + uptime)` of the overlay is
/// dead, and because flapped peers keep re-registering (and re-entering
/// submitter caches on refresh), reservation requests keep running into
/// them — every such request parks a full `rs_timeout` on the timeline.
pub fn flapping_churn<R: Rng + ?Sized>(
    peers: &[PeerId],
    fraction: f64,
    horizon: SimDuration,
    downtime: SimDuration,
    uptime: SimDuration,
    rng: &mut R,
) -> ChurnSchedule {
    assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
    assert!(
        !downtime.is_zero() && !uptime.is_zero(),
        "flapping needs non-zero downtime and uptime"
    );
    let count = ((peers.len() as f64) * fraction).floor() as usize;
    let period = downtime + uptime;
    let cycles = (horizon.as_nanos() / period.as_nanos() + 1) as usize;
    let mut schedule = ChurnSchedule::new();
    schedule.events.reserve(count * cycles * 2);
    let mut pool = peers.to_vec();
    let end = SimTime::ZERO + horizon;
    for i in 0..count {
        let j = rng.gen_range(i..pool.len());
        pool.swap(i, j);
        let peer = pool[i];
        let mut at = SimTime::from_nanos(rng.gen_range(0..period.as_nanos().max(1)));
        while at < end {
            schedule.crash(peer, at);
            let back = at + downtime;
            if back >= end {
                break;
            }
            schedule.recover(peer, back);
            at = back + uptime;
        }
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmpi_simgrid::rngutil::seeded;

    #[test]
    fn random_churn_respects_fraction_and_pairs_events() {
        let peers: Vec<PeerId> = (0..20).map(PeerId).collect();
        let mut rng = seeded(5);
        let s = random_churn(
            &peers,
            0.25,
            SimDuration::from_secs(100),
            SimDuration::from_secs(30),
            &mut rng,
        );
        let events = s.events;
        assert_eq!(events.len(), 10); // 5 peers x (crash + recover)
        let crashes: Vec<_> = events
            .iter()
            .filter_map(|e| match e.kind {
                ChurnKind::Crash(peer) => Some((peer, e.time)),
                _ => None,
            })
            .collect();
        assert_eq!(crashes.len(), 5);
        // Every crash has a matching later recovery for the same peer.
        for (peer, at) in crashes {
            assert!(events
                .iter()
                .any(|r| r.kind == ChurnKind::Recover(peer) && r.time > at));
        }
    }

    #[test]
    fn flapping_churn_alternates_crash_and_recover_per_peer() {
        let peers: Vec<PeerId> = (0..40).map(PeerId).collect();
        let mut rng = seeded(9);
        let horizon = SimDuration::from_secs(3600);
        let s = flapping_churn(
            &peers,
            0.5,
            horizon,
            SimDuration::from_secs(120),
            SimDuration::from_secs(240),
            &mut rng,
        );
        let events = s.events;
        assert!(!events.is_empty());
        let end = SimTime::ZERO + horizon;
        assert!(events.iter().all(|e| e.time < end));
        // Per peer: strictly alternating, starting with a crash, in order.
        use std::collections::HashMap;
        // (time, crashed) per peer.
        let mut per_peer: HashMap<PeerId, Vec<(SimTime, bool)>> = HashMap::new();
        for e in &events {
            let (peer, crashed) = match e.kind {
                ChurnKind::Crash(peer) => (peer, true),
                ChurnKind::Recover(peer) => (peer, false),
                other => panic!("flapping scheduled {other:?}"),
            };
            per_peer.entry(peer).or_default().push((e.time, crashed));
        }
        assert_eq!(per_peer.len(), 20, "half of 40 peers flap");
        for (peer, evs) in per_peer {
            assert!(evs[0].1, "{peer} starts down");
            // ~10 cycles/hour at a 360 s period: every flapper cycles a lot.
            assert!(evs.len() >= 10, "{peer} only flapped {} times", evs.len());
            for pair in evs.windows(2) {
                assert!(pair[0].0 < pair[1].0, "{peer} events unsorted");
                assert_ne!(pair[0].1, pair[1].1, "{peer} did not alternate");
            }
        }
    }

    #[test]
    fn zero_fraction_is_empty() {
        let peers: Vec<PeerId> = (0..10).map(PeerId).collect();
        let mut rng = seeded(5);
        let s = random_churn(
            &peers,
            0.0,
            SimDuration::from_secs(10),
            SimDuration::from_secs(1),
            &mut rng,
        );
        assert!(s.events.is_empty());
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn invalid_fraction_panics() {
        let mut rng = seeded(1);
        random_churn(
            &[PeerId(0)],
            1.5,
            SimDuration::from_secs(1),
            SimDuration::from_secs(1),
            &mut rng,
        );
    }
}
