//! Brokering rounds: the RS round (steps 3–5) and the start round (steps
//! 7–8), each one walk over its own messages merged with the overlay's
//! timeline ("The round walk" in the `overlay` module docs).  A round is
//! plain data with a single owner, in a buffer the overlay sizes once for
//! its largest possible round and lends to each round in turn.

use super::{Overlay, OverlayEvent, RsOutcome, RS_MESSAGE_BYTES, START_MESSAGE_BYTES};
use crate::messages::{ReservationKey, ReservationReply, ReservationRequest, StartReply};
use crate::mpd::MpdNode;
use crate::peer::PeerId;
use p2pmpi_simgrid::engine::TypedEngine;
use p2pmpi_simgrid::network::NetworkModel;
use p2pmpi_simgrid::time::{SimDuration, SimTime};
use p2pmpi_simgrid::topology::HostId;
use p2pmpi_simgrid::trace::TraceCategory;

/// What a message does when it is delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Kind {
    /// The round's RS replies, decided at send, reach the submitter: they
    /// ride the latest of them (each only fills its own outcome).
    RsReplies,
    /// The submitter gives up on an RS request.
    RsTimeout,
    /// A start request reaches the remote MPD, which decides now.
    StartArrive,
    /// The round's in-time start replies reach the submitter, riding the
    /// latest of them.
    StartReplies,
    /// The submitter gives up on a start request.
    StartDeadline,
}

/// A run of messages of one kind, delivered at one instant: those of
/// `count` consecutive requests (indices into the caller's outcome buffer,
/// from `first`), stamped consecutively from `stamp`.  No queue event can
/// sit between consecutive stamps, so the run is delivered as one.
#[derive(Debug, Clone, Copy)]
pub(super) struct Message {
    at: SimTime,
    stamp: u64,
    first: u32,
    count: u32,
    kind: Kind,
}

impl Message {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.stamp)
    }

    fn requests(&self) -> std::ops::Range<usize> {
        self.first as usize..(self.first + self.count) as usize
    }
}

/// The messages of the round being walked; those before `next` are
/// delivered, the rest are in `(at, stamp)` order once `sorted`.
#[derive(Debug, Default)]
pub(super) struct Round {
    messages: Vec<Message>,
    next: usize,
    sorted: bool,
    /// Tests only: push each message onto the real queue when it is
    /// stamped and take it back in heap order, the reference the walk's
    /// merge is checked against.
    #[cfg(test)]
    pub(super) reference: bool,
    /// Reference messages still on the queue.
    #[cfg(test)]
    queued: usize,
}

impl Round {
    /// A buffer for the largest round among `peers` distinct hosts, so no
    /// round re-allocates it: an arrival and a deadline per request at
    /// most, plus the replies.
    pub(super) fn for_peers(peers: usize) -> Self {
        Round {
            messages: Vec::with_capacity(2 * peers + 1),
            ..Round::default()
        }
    }

    /// Lists request `request`'s message delivered at `at` (never before
    /// now), stamped now.
    fn list(
        &mut self,
        sim: &mut TypedEngine<OverlayEvent>,
        at: SimTime,
        request: usize,
        kind: Kind,
    ) {
        let message = Message {
            at,
            stamp: 0,
            first: u32::try_from(request).expect("fewer than 2^32 requests in a round"),
            count: 1,
            kind,
        };
        #[cfg(test)]
        if self.reference {
            sim.schedule_at(at, OverlayEvent::Round(message));
            self.queued += 1;
            return;
        }
        let message = Message {
            stamp: sim.stamp(),
            ..message
        };
        if let Some(run) = self.messages[self.next..].last_mut() {
            let next = (
                u64::from(run.first + run.count),
                run.stamp + u64::from(run.count),
            );
            if (run.kind, run.at, next) == (kind, at, (request as u64, message.stamp)) {
                run.count += 1;
                return;
            }
            // Mostly listed in delivery order already; sorted lazily when
            // not (every delivered message comes earlier, the stamp being
            // the newest and `at` never in the past).
            self.sorted &= run.key() < message.key();
        }
        self.messages.push(message);
    }

    /// The next message in `(at, stamp)` order, if any is left.
    fn next(&mut self) -> Option<Message> {
        let rest = &mut self.messages[self.next..];
        if !self.sorted {
            rest.sort_unstable_by_key(Message::key);
            self.sorted = true;
        }
        let message = *rest.first()?;
        self.next += 1;
        Some(message)
    }
}

/// What the control messages of a brokering round, and a latency probe,
/// cost between a submitter and a remote peer under the current cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(super) struct ControlTimes {
    /// RS reservation request out plus its reply back (steps 3–5).
    rs_round_trip: SimDuration,
    /// The start request's one-way trip to the remote MPD (step 7).
    start_outbound: SimDuration,
    /// The 64-byte start reply's one-way trip back (step 8).
    start_reply: SimDuration,
    /// A latency probe's noise-free round trip (Section 4.1).
    pub(super) probe_rtt: SimDuration,
}

/// The control times from host `src` to host `dst` under `network`.
fn control_times_between(network: &NetworkModel, src: HostId, dst: HostId) -> ControlTimes {
    ControlTimes {
        rs_round_trip: network.transfer_time(src, dst, RS_MESSAGE_BYTES)
            + network.transfer_time(dst, src, RS_MESSAGE_BYTES),
        start_outbound: network.transfer_time(src, dst, START_MESSAGE_BYTES),
        start_reply: network.transfer_time(dst, src, 64),
        probe_rtt: network.probe_rtt(src, dst),
    }
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
    /// One whole RS brokering round (steps 3–5): a reservation request from
    /// `from` to each of `peers`, all sent now, each remote RS deciding at
    /// once in send order.  The round walks its replies and timeouts (module
    /// docs) and leaves the outcomes in `out` (cleared first) in send order;
    /// the clock ends at its last message.
    ///
    /// The hottest call of a sweep (a request per booked host per job), it
    /// allocates nothing: the request borrows the requester's address, the
    /// remote RS pushes plain data into a table that keeps its capacity,
    /// and the round trip comes from per-site tables filled at assembly.
    pub fn rs_round_into(
        &mut self,
        from: PeerId,
        key: ReservationKey,
        peers: &[PeerId],
        out: &mut Vec<(PeerId, RsOutcome)>,
    ) {
        out.clear();
        let mut round = self.take_round();
        let sent = self.sim.now();
        let timeout = self.rs_timeout;
        let (mut latest, mut replies) = (sent, 0);
        for &to in peers {
            let outcome = if self.nodes[to.0].is_alive() {
                let rtt = self.control_times(from, to).rs_round_trip;
                let reply = self.remote_reserve(from, to, key, sent);
                RsOutcome::Reply {
                    reply,
                    elapsed: rtt,
                }
            } else {
                RsOutcome::Timeout { elapsed: timeout }
            };
            if outcome.elapsed() < timeout {
                latest = latest.max(sent + outcome.elapsed());
                replies += 1;
            } else {
                round.list(&mut self.sim, sent + timeout, out.len(), Kind::RsTimeout);
            }
            out.push((to, outcome));
        }
        if replies > 0 {
            round.list(&mut self.sim, latest, 0, Kind::RsReplies);
        }
        while let Some(message) = self.deliver_next(&mut round) {
            if message.kind == Kind::RsReplies {
                self.sim.count_delivered(replies - 1);
                if self.tracer.is_enabled() {
                    for &(to, outcome) in out.iter() {
                        if let RsOutcome::Reply { reply, elapsed } = outcome {
                            if elapsed < timeout {
                                self.tracer.record(
                                    sent + elapsed,
                                    TraceCategory::Reservation,
                                    || format!("{from} -> {to}: {reply:?}"),
                                );
                            }
                        }
                    }
                }
                continue;
            }
            for i in message.requests() {
                let (to, outcome) = out[i];
                out[i].1 = RsOutcome::Timeout { elapsed: timeout };
                self.tracer
                    .record(message.at, TraceCategory::Reservation, || {
                        format!("{from} -> {to}: reservation timed out (peer dead)")
                    });
                // A grant whose reply lost the race leaked on the granter;
                // the submitter releases it eagerly.
                if let RsOutcome::Reply {
                    reply: ReservationReply::Ok { .. },
                    ..
                } = outcome
                {
                    self.release_leaked_grant(from, to, key);
                }
            }
        }
        self.round = round;
    }

    /// One whole start round (steps 7–8): a start request from `from` to
    /// each `(peer, ranks)` of `requests`, all sent now.  Each remote MPD
    /// decides when its request arrives; the round walks the arrivals,
    /// in-time replies and deadlines (module docs) and leaves `(peer, reply,
    /// elapsed)` in `out` (cleared first) in send order, a request that got
    /// no in-time reply reading `(Timeout, rs_timeout)`.
    pub fn start_round_into(
        &mut self,
        from: PeerId,
        key: ReservationKey,
        requests: &[(PeerId, u32)],
        out: &mut Vec<(PeerId, StartReply, SimDuration)>,
    ) {
        out.clear();
        let mut round = self.take_round();
        let sent = self.sim.now();
        let timeout = self.rs_timeout;
        let deadline = sent + timeout;
        let (mut arrivals, mut latest, mut replies) = (0, sent, 0);
        for (i, &(to, ranks)) in requests.iter().enumerate() {
            out.push((to, StartReply::Timeout, timeout));
            let arrival = sent + self.control_times(from, to).start_outbound;
            if arrival < deadline {
                round.list(&mut self.sim, arrival, i, Kind::StartArrive);
                arrivals += 1;
            } else {
                // Too slow to arrive in time: the submitter will give up
                // first, and the arrival outlives the round.
                round.list(&mut self.sim, deadline, i, Kind::StartDeadline);
                let late = OverlayEvent::StartArriveAbandoned {
                    from,
                    to,
                    key,
                    ranks,
                };
                self.sim.schedule_at(arrival, late);
            }
        }
        while let Some(message) = self.deliver_next(&mut round) {
            match message.kind {
                Kind::StartArrive => {
                    for i in message.requests() {
                        let (to, ranks) = requests[i];
                        let reply_at = message.at + self.control_times(from, to).start_reply;
                        match self.remote_start(to, key, ranks, message.at) {
                            Some(reply) if reply_at < deadline => {
                                out[i] = (to, reply, reply_at.saturating_since(sent));
                                latest = latest.max(reply_at);
                                replies += 1;
                            }
                            // Nobody answers, or not in time.  Ranks that
                            // did start are abandoned and released as a
                            // leaked grant: the expiry sweep never touches
                            // `Running`.
                            late => {
                                round.list(&mut self.sim, deadline, i, Kind::StartDeadline);
                                if late == Some(StartReply::Started) {
                                    self.release_leaked_grant(from, to, key);
                                }
                            }
                        }
                    }
                    arrivals -= message.count;
                    if arrivals == 0 && replies > 0 {
                        let at = latest.max(message.at);
                        round.list(&mut self.sim, at, 0, Kind::StartReplies);
                    }
                }
                // Each reply was recorded when its remote decided.
                Kind::StartReplies => self.sim.count_delivered(replies - 1),
                Kind::StartDeadline => {
                    for i in message.requests() {
                        let to = requests[i].0;
                        self.tracer.record(message.at, TraceCategory::Runtime, || {
                            format!("{from} -> {to}: start request timed out")
                        });
                    }
                }
                Kind::RsReplies | Kind::RsTimeout => unreachable!("an RS message in a start round"),
            }
        }
        self.round = round;
    }

    /// The round buffer, emptied and lent to one round until it puts it
    /// back (its walk dispatches events, which need the whole overlay).
    fn take_round(&mut self) -> Round {
        let mut round = std::mem::take(&mut self.round);
        round.messages.clear();
        round.next = 0;
        round.sorted = true;
        round
    }

    /// Delivers the round's next message: first every timeline event that
    /// precedes it, then the message itself, at its own instant.  `None`
    /// once the round is over.
    fn deliver_next(&mut self, round: &mut Round) -> Option<Message> {
        #[cfg(test)]
        if round.reference {
            while round.queued > 0 {
                let ev = self.sim.pop_due(SimTime::MAX).expect("a queued message");
                match ev.payload {
                    OverlayEvent::Round(message) => {
                        round.queued -= 1;
                        return Some(message);
                    }
                    other => self.dispatch(other),
                }
            }
            return None;
        }
        let message = round.next()?;
        while let Some(ev) = self.sim.pop_before(message.at, message.stamp) {
            self.dispatch(ev.payload);
        }
        self.sim.advance_clock_to(message.at);
        self.sim.count_delivered(message.count.into());
        Some(message)
    }

    /// The remote RS's side of a reservation request (step 4): an alive
    /// `to` grants or refuses against its state at `now`.
    fn remote_reserve(
        &mut self,
        from: PeerId,
        to: PeerId,
        key: ReservationKey,
        now: SimTime,
    ) -> ReservationReply {
        if from.0 == to.0 {
            // A submitter reserving its own host: every piece (address,
            // config, RS) is a disjoint field of the same node.
            let node = &mut self.nodes[to.0];
            let req = ReservationRequest {
                key,
                requester_address: &node.descriptor.address,
            };
            node.rs.handle_request(&req, &node.config, now)
        } else {
            let (from_node, to_node) = nodes_from_to(&mut self.nodes, from.0, to.0);
            let req = ReservationRequest {
                key,
                requester_address: &from_node.descriptor.address,
            };
            to_node.rs.handle_request(&req, &to_node.config, now)
        }
    }

    /// The remote MPD's side of a start request arriving at `at`, against
    /// its state *now*: verify the key (step 7) and start the ranks
    /// (step 8).  `None` when the MPD is dead — nobody answers.
    pub(super) fn remote_start(
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

    /// The control-message and probe times between a submitter and a remote
    /// peer: each peer's site, then one cell of a per-site table, the
    /// same-host table when a peer messages itself (one peer per host, so
    /// `from == to` is the same-host case).
    pub(super) fn control_times(&self, from: PeerId, to: PeerId) -> ControlTimes {
        let (a, b) = (self.peer_site[from.0], self.peer_site[to.0]);
        let times = if from == to {
            self.same_host_control_times[a]
        } else {
            self.site_control_times[a * self.same_host_control_times.len() + b]
        };
        debug_assert_eq!(
            times,
            control_times_between(&self.network, self.host_of(from), self.host_of(to)),
            "stale control-time table"
        );
        times
    }

    /// Fills both control-time tables from the current cost model, which
    /// sees hosts only through their sites: each cell is costed on one host
    /// pair, one site's first host and the other's last.  A cell no two
    /// peers can reach holds zeros (a host-less site) or its site's
    /// same-host times (a one-host site's diagonal).
    pub(super) fn rebuild_control_times(&mut self) {
        let mut hosts = vec![Vec::new(); self.topology.site_count()];
        for h in self.topology.hosts() {
            hosts[h.site.0].push(h.id);
        }
        let cost = |src: Option<&HostId>, dst: Option<&HostId>| match src.zip(dst) {
            Some((&src, &dst)) => control_times_between(&self.network, src, dst),
            None => ControlTimes::default(),
        };
        self.same_host_control_times = hosts.iter().map(|h| cost(h.first(), h.first())).collect();
        self.site_control_times = (hosts.iter())
            .flat_map(|from| hosts.iter().map(move |to| cost(from.first(), to.last())))
            .collect();
    }

    /// Capacity of the round buffer every round walks (diagnostics: sized
    /// for the largest round among the overlay's peers, it must not grow in
    /// a steady-state sweep).
    pub fn rs_scratch_capacity(&self) -> usize {
        self.round.messages.capacity()
    }

    /// No-op.  An exchange whose reply is bound to beat the timeout is
    /// always decided at send; this survives only because the benchmark's
    /// traced driver (`benchmark/src/traced.rs`) still forwards a config
    /// field that selects nothing any more.
    pub fn set_rs_timeout_fast_path(&mut self, _enabled: bool) {}

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boot::OverlayBuilder;
    use p2pmpi_simgrid::noise::NoiseModel;
    use p2pmpi_simgrid::topology::{NodeSpec, SiteId, TopologyBuilder};
    use std::sync::Arc;

    /// Every ordered peer pair, a peer with itself included, read from the
    /// tables equals a fresh cost model that took the same factor calls.
    fn assert_tables_match_a_fresh_model(o: &Overlay, factor_calls: &[(SiteId, f64)]) {
        let mut network = NetworkModel::new(o.topology().clone());
        for &(site, factor) in factor_calls {
            network.set_site_latency_factor(site, factor);
        }
        for from in o.peer_ids() {
            for to in o.peer_ids() {
                let fresh = control_times_between(&network, o.host_of(from), o.host_of(to));
                assert_eq!(
                    o.control_times(from, to),
                    fresh,
                    "{from} -> {to} after {factor_calls:?}"
                );
            }
        }
    }

    #[test]
    fn control_time_tables_equal_the_network_model_through_latency_changes() {
        // Three sites with peers (three hosts, two, one) and one without a
        // host, so every kind of table cell is built.
        let mut b = TopologyBuilder::new();
        let spec = NodeSpec::default();
        let local = b.add_site("local");
        let remote = b.add_site("remote");
        let lone = b.add_site("lone");
        b.add_site("empty");
        b.add_cluster(local, "l", "cpu", 3, spec);
        b.add_cluster(remote, "r", "cpu", 2, spec);
        b.add_cluster(lone, "s", "cpu", 1, spec);
        b.set_rtt(local, remote, SimDuration::from_millis(10));
        b.set_rtt(remote, lone, SimDuration::from_millis(25));
        b.set_bandwidth(local, lone, 2e8);
        let mut o = OverlayBuilder::new(Arc::new(b.build()))
            .seed(1)
            .noise(NoiseModel::disabled())
            .peer_per_host_with_core_capacity()
            .build();
        assert_eq!(o.peer_ids().len(), 6);
        let mut calls = Vec::new();
        assert_tables_match_a_fresh_model(&o, &calls);
        // The calls a slow-link fault makes: slow two sites, then restore
        // one.
        for (site, factor) in [(remote, 7.0), (lone, 3.0), (remote, 1.0)] {
            o.set_site_latency_factor(site, factor);
            calls.push((site, factor));
            assert_tables_match_a_fresh_model(&o, &calls);
        }
    }
}
