//! The Reservation Service (RS).
//!
//! Each peer runs an RS next to its MPD: it "has the role of handling the
//! first negotiation regarding requests from and to remote peers"
//! (Section 3.2).  On the receiving side the RS checks the owner's limits
//! (the number of running applications against `J`, the requester against the
//! deny list) and answers OK with the capacity `P` or NOK.  It then holds the
//! reservation, keyed by the submitter's unique hash key, until the MPD
//! either starts the application (after verifying the key, step 7) or the
//! reservation is cancelled / expires.

use crate::config::OwnerConfig;
use crate::messages::{RefusalReason, ReservationKey, ReservationReply, ReservationRequest};
use crate::peer::PeerId;
use p2pmpi_simgrid::time::{SimDuration, SimTime};

/// Lifecycle of a reservation held by an RS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReservationStatus {
    /// Granted, waiting for the submitter to either start or cancel.
    Pending,
    /// The application has been started under this reservation.
    Running,
}

/// One reservation held by an RS.  Plain data: granting, cancelling and
/// completing one moves a few words and touches no allocator.
#[derive(Debug, Clone, Copy)]
pub struct Reservation {
    /// The submitter's unique key for this co-allocation round.
    pub key: ReservationKey,
    /// The requesting peer (for diagnostics; its address is one lookup
    /// away in the overlay's node table).
    pub requester: PeerId,
    /// When the reservation was granted.
    pub granted_at: SimTime,
    /// Current status.
    pub status: ReservationStatus,
    /// Number of processes actually started under this reservation
    /// (0 while pending).
    pub processes: u32,
}

/// Errors returned when trying to start an application under a reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartError {
    /// No reservation with this key is held (wrong key or already cancelled).
    UnknownKey,
    /// The reservation was already started.
    AlreadyRunning,
    /// More processes requested than the owner's `P` allows.
    CapacityExceeded,
}

/// Per-peer reservation service.
///
/// The owner's `J` bounds how many reservations an RS ever holds (one, in
/// the paper's experiments), so they live in a vector scanned linearly: a
/// lookup compares a handful of keys, and the vector keeps its capacity
/// across grant/cancel cycles.  Their order carries no meaning.
#[derive(Debug, Default)]
pub struct ReservationService {
    reservations: Vec<Reservation>,
    granted_total: u64,
    refused_total: u64,
    cancelled_total: u64,
}

impl ReservationService {
    /// Creates an empty service.
    pub fn new() -> Self {
        Self::default()
    }

    fn position(&self, key: ReservationKey) -> Option<usize> {
        self.reservations.iter().position(|r| r.key == key)
    }

    /// Handles an incoming reservation request (step 4 of the procedure).
    /// The requester's address is only read, against the owner's deny
    /// list; the held [`Reservation`] records the requesting peer's id.
    pub fn handle_request(
        &mut self,
        req: &ReservationRequest<'_>,
        config: &OwnerConfig,
        now: SimTime,
    ) -> ReservationReply {
        if config.is_denied(req.requester_address) {
            self.refused_total += 1;
            return ReservationReply::Nok(RefusalReason::RequesterDenied);
        }
        if self.position(req.key).is_some() {
            self.refused_total += 1;
            return ReservationReply::Nok(RefusalReason::DuplicateKey);
        }
        if self.active_applications() >= config.max_apps {
            self.refused_total += 1;
            return ReservationReply::Nok(RefusalReason::TooManyApplications);
        }
        self.reservations.push(Reservation {
            key: req.key,
            requester: req.requester,
            granted_at: now,
            status: ReservationStatus::Pending,
            processes: 0,
        });
        self.granted_total += 1;
        ReservationReply::Ok {
            capacity_p: config.max_procs_per_app,
        }
    }

    /// Marks a pending reservation as running `processes` processes.
    pub fn start(
        &mut self,
        key: ReservationKey,
        processes: u32,
        config: &OwnerConfig,
    ) -> Result<(), StartError> {
        let r = self
            .reservations
            .iter_mut()
            .find(|r| r.key == key)
            .ok_or(StartError::UnknownKey)?;
        if r.status == ReservationStatus::Running {
            return Err(StartError::AlreadyRunning);
        }
        if processes > config.max_procs_per_app {
            return Err(StartError::CapacityExceeded);
        }
        r.status = ReservationStatus::Running;
        r.processes = processes;
        Ok(())
    }

    /// Cancels a reservation (step 6: reservations for hosts in `rlist` but
    /// not in `slist`, or hosts assigned zero processes, are cancelled).
    pub fn cancel(&mut self, key: ReservationKey) -> bool {
        match self.position(key) {
            Some(i) => {
                self.reservations.swap_remove(i);
                self.cancelled_total += 1;
                true
            }
            None => false,
        }
    }

    /// Marks a running application as finished, freeing the slot.
    pub fn complete(&mut self, key: ReservationKey) -> bool {
        match self.position(key) {
            Some(i) if self.reservations[i].status == ReservationStatus::Running => {
                self.reservations.swap_remove(i);
                true
            }
            _ => false,
        }
    }

    /// Drops pending reservations older than `ttl`; returns how many were
    /// dropped.  Running applications are never expired.
    pub fn expire_pending(&mut self, now: SimTime, ttl: SimDuration) -> usize {
        let before = self.reservations.len();
        self.reservations.retain(|r| {
            r.status == ReservationStatus::Running || now.saturating_since(r.granted_at) <= ttl
        });
        let dropped = before - self.reservations.len();
        self.cancelled_total += dropped as u64;
        dropped
    }

    /// Number of applications currently counted against the owner's `J`
    /// (pending reservations count: a granted slot is promised).
    pub fn active_applications(&self) -> u32 {
        self.reservations.len() as u32
    }

    /// Number of processes currently running on this node across all
    /// applications.
    pub fn running_processes(&self) -> u32 {
        self.reservations
            .iter()
            .filter(|r| r.status == ReservationStatus::Running)
            .map(|r| r.processes)
            .sum()
    }

    /// Looks up a held reservation.
    pub fn reservation(&self, key: ReservationKey) -> Option<&Reservation> {
        self.reservations.iter().find(|r| r.key == key)
    }

    /// Lifetime counters: (granted, refused, cancelled).
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.granted_total, self.refused_total, self.cancelled_total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(key: u64, addr: &str) -> ReservationRequest<'_> {
        ReservationRequest {
            key: ReservationKey(key),
            requester: PeerId(0),
            requester_address: addr,
            total_processes: 8,
        }
    }

    #[test]
    fn grants_up_to_j_applications() {
        let mut rs = ReservationService::new();
        let config = OwnerConfig::new(2, 4);
        let r1 = rs.handle_request(&request(1, "a"), &config, SimTime::ZERO);
        let r2 = rs.handle_request(&request(2, "b"), &config, SimTime::ZERO);
        let r3 = rs.handle_request(&request(3, "c"), &config, SimTime::ZERO);
        assert_eq!(r1, ReservationReply::Ok { capacity_p: 4 });
        assert_eq!(r2, ReservationReply::Ok { capacity_p: 4 });
        assert_eq!(
            r3,
            ReservationReply::Nok(RefusalReason::TooManyApplications)
        );
        assert_eq!(rs.active_applications(), 2);
        assert_eq!(rs.counters(), (2, 1, 0));
    }

    #[test]
    fn denied_requesters_are_refused() {
        let mut rs = ReservationService::new();
        let mut config = OwnerConfig::new(4, 2);
        config.deny("bad:1");
        assert_eq!(
            rs.handle_request(&request(1, "bad:1"), &config, SimTime::ZERO),
            ReservationReply::Nok(RefusalReason::RequesterDenied)
        );
        assert_eq!(
            rs.handle_request(&request(1, "good:1"), &config, SimTime::ZERO),
            ReservationReply::Ok { capacity_p: 2 }
        );
    }

    #[test]
    fn duplicate_keys_are_refused() {
        let mut rs = ReservationService::new();
        let config = OwnerConfig::new(4, 2);
        assert!(rs
            .handle_request(&request(7, "a"), &config, SimTime::ZERO)
            .is_ok());
        assert_eq!(
            rs.handle_request(&request(7, "a"), &config, SimTime::ZERO),
            ReservationReply::Nok(RefusalReason::DuplicateKey)
        );
    }

    #[test]
    fn start_requires_key_and_capacity() {
        let mut rs = ReservationService::new();
        let config = OwnerConfig::new(1, 4);
        rs.handle_request(&request(9, "a"), &config, SimTime::ZERO);
        assert!(rs.reservation(ReservationKey(9)).is_some());
        assert!(rs.reservation(ReservationKey(10)).is_none());
        assert_eq!(
            rs.start(ReservationKey(10), 1, &config),
            Err(StartError::UnknownKey)
        );
        assert_eq!(
            rs.start(ReservationKey(9), 5, &config),
            Err(StartError::CapacityExceeded)
        );
        assert_eq!(rs.start(ReservationKey(9), 4, &config), Ok(()));
        assert_eq!(
            rs.start(ReservationKey(9), 2, &config),
            Err(StartError::AlreadyRunning)
        );
        assert_eq!(rs.running_processes(), 4);
    }

    #[test]
    fn cancel_frees_the_slot() {
        let mut rs = ReservationService::new();
        let config = OwnerConfig::new(1, 2);
        rs.handle_request(&request(1, "a"), &config, SimTime::ZERO);
        assert_eq!(
            rs.handle_request(&request(2, "b"), &config, SimTime::ZERO),
            ReservationReply::Nok(RefusalReason::TooManyApplications)
        );
        assert!(rs.cancel(ReservationKey(1)));
        assert!(!rs.cancel(ReservationKey(1)));
        assert!(rs
            .handle_request(&request(2, "b"), &config, SimTime::ZERO)
            .is_ok());
    }

    #[test]
    fn complete_only_applies_to_running() {
        let mut rs = ReservationService::new();
        let config = OwnerConfig::new(1, 2);
        rs.handle_request(&request(1, "a"), &config, SimTime::ZERO);
        assert!(!rs.complete(ReservationKey(1)));
        rs.start(ReservationKey(1), 2, &config).unwrap();
        assert!(rs.complete(ReservationKey(1)));
        assert_eq!(rs.active_applications(), 0);
        assert_eq!(rs.running_processes(), 0);
    }

    #[test]
    fn pending_reservations_expire_but_running_do_not() {
        let mut rs = ReservationService::new();
        let config = OwnerConfig::new(2, 2);
        rs.handle_request(&request(1, "a"), &config, SimTime::ZERO);
        rs.handle_request(&request(2, "b"), &config, SimTime::ZERO);
        rs.start(ReservationKey(2), 1, &config).unwrap();
        let dropped = rs.expire_pending(SimTime::from_secs(120), SimDuration::from_secs(60));
        assert_eq!(dropped, 1);
        assert!(rs.reservation(ReservationKey(1)).is_none());
        assert!(rs.reservation(ReservationKey(2)).is_some());
    }

    #[test]
    fn a_table_of_three_keeps_its_books_through_cancel_expiry_and_completion() {
        let mut rs = ReservationService::new();
        let config = OwnerConfig::new(3, 4);
        let (a, b, c) = (ReservationKey(1), ReservationKey(2), ReservationKey(3));
        for (key, at) in [(a, 0), (b, 10), (c, 20)] {
            assert!(rs
                .handle_request(&request(key.0, "x"), &config, SimTime::from_secs(at))
                .is_ok());
        }
        assert_eq!(
            rs.handle_request(&request(4, "x"), &config, SimTime::from_secs(30)),
            ReservationReply::Nok(RefusalReason::TooManyApplications)
        );
        assert_eq!(rs.reservation(b).unwrap().requester, PeerId(0));
        // Cancelling the middle key leaves its neighbours findable.
        assert!(rs.cancel(b));
        assert!(rs.reservation(b).is_none());
        assert!(rs.reservation(a).is_some() && rs.reservation(c).is_some());
        assert_eq!(rs.active_applications(), 2);
        // The freed slot is granted again; running processes sum over the
        // table.
        assert!(rs
            .handle_request(&request(b.0, "x"), &config, SimTime::from_secs(40))
            .is_ok());
        rs.start(a, 3, &config).unwrap();
        rs.start(b, 1, &config).unwrap();
        assert_eq!(rs.running_processes(), 4);
        // `complete` only frees a running application ...
        assert!(!rs.complete(c), "still pending");
        assert!(rs.complete(a));
        assert!(!rs.complete(a), "already gone");
        assert_eq!(rs.running_processes(), 1);
        // ... and the expiry sweep only drops stale *pending* ones: `b`
        // is older than the TTL by then too, but it is running.
        let dropped = rs.expire_pending(SimTime::from_secs(200), SimDuration::from_secs(60));
        assert_eq!(dropped, 1);
        assert!(rs.reservation(c).is_none());
        assert_eq!(
            rs.reservation(b).unwrap().status,
            ReservationStatus::Running
        );
        assert_eq!(rs.active_applications(), 1);
        assert_eq!(rs.counters(), (4, 1, 2));
    }
}
