//! Protocol messages exchanged between overlay services.
//!
//! These mirror the messages of the paper's job submission procedure
//! (Figure 1): RS↔RS reservation brokering keyed by a unique hash key, and
//! the replies to the keyed application start request sent to remote MPDs.
//! Supernode traffic and the start request itself are method calls on
//! [`crate::overlay::Overlay`].

use std::fmt;

/// Unique key identifying one reservation/launch round, generated by the
/// submitter's RS (step 3 of the procedure).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReservationKey(pub u64);

impl fmt::Display for ReservationKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "key:{:016x}", self.0)
    }
}

/// Reservation request sent from the submitter's RS to a remote RS
/// (step 3, "RS-RS Brokering").
///
/// The requester address is borrowed from the sender's descriptor: the
/// brokering loop issues one of these per booked host per job, so the
/// message itself must not clone the address.  The receiving RS only reads
/// it, against its owner's deny list.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReservationRequest<'a> {
    /// Unique key of this co-allocation round.
    pub(crate) key: ReservationKey,
    /// Address of the requester, checked against the owner's deny list.
    pub(crate) requester_address: &'a str,
}

/// Why a reservation request was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefusalReason {
    /// The node already runs `J` applications.
    TooManyApplications,
    /// The requester is on the owner's deny list.
    RequesterDenied,
    /// The same key was already reserved (duplicate request).
    DuplicateKey,
}

impl fmt::Display for RefusalReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RefusalReason::TooManyApplications => "too many applications (J exceeded)",
            RefusalReason::RequesterDenied => "requester denied by owner",
            RefusalReason::DuplicateKey => "duplicate reservation key",
        };
        f.write_str(s)
    }
}

/// Reply of a remote RS to a `ReservationRequest` (step 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReservationReply {
    /// The node accepts and advertises its per-application capacity `P`.
    Ok {
        /// The owner's `P` setting: processes of this application the node
        /// accepts to host.
        capacity_p: u32,
    },
    /// The node refuses.
    Nok(RefusalReason),
}

impl ReservationReply {
    /// True for an `Ok` reply.
    #[cfg(test)]
    pub(crate) fn is_ok(&self) -> bool {
        matches!(self, ReservationReply::Ok { .. })
    }
}

/// One MPI rank instance mapped to a host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RankAssignment {
    /// Logical MPI rank in `0..n`.
    pub rank: u32,
    /// Replica index in `0..r` (0 is the primary copy).
    pub replica: u32,
}

impl fmt::Display for RankAssignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.replica == 0 {
            write!(f, "P{}", self.rank)
        } else {
            write!(f, "P{}'{}", self.rank, self.replica)
        }
    }
}

/// Outcome of a start request as observed by the submitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartReply {
    /// The remote MPD verified the key and launched the processes.
    Started,
    /// The key did not match the remote RS state.
    KeyMismatch,
    /// The remote peer did not answer (dead).
    Timeout,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_display_is_hex() {
        assert_eq!(ReservationKey(0xdead).to_string(), "key:000000000000dead");
    }

    #[test]
    fn reply_is_ok_helper() {
        assert!(ReservationReply::Ok { capacity_p: 4 }.is_ok());
        assert!(!ReservationReply::Nok(RefusalReason::RequesterDenied).is_ok());
    }

    #[test]
    fn refusal_reasons_have_messages() {
        assert!(RefusalReason::TooManyApplications.to_string().contains("J"));
        assert!(RefusalReason::RequesterDenied
            .to_string()
            .contains("denied"));
        assert!(RefusalReason::DuplicateKey.to_string().contains("uplicate"));
    }

    #[test]
    fn rank_assignment_display_marks_replicas() {
        assert_eq!(
            RankAssignment {
                rank: 3,
                replica: 0
            }
            .to_string(),
            "P3"
        );
        assert_eq!(
            RankAssignment {
                rank: 3,
                replica: 1
            }
            .to_string(),
            "P3'1"
        );
    }
}
