//! The overbooking policy.
//!
//! Step 2 of the reservation procedure: "when possible, the request is an
//! overbooking to anticipate unavailable hosts."  The booking step asks more
//! hosts than strictly necessary, so that refusals (J exceeded, deny list)
//! and dead peers do not force a second brokering round.  Reservations that
//! end up unused are cancelled in step 6.
//!
//! The policy is one factor: a job that needs `n` hosts books `⌈n × factor⌉`
//! of them.  A factor of 1.0 books exactly what is needed.

/// The booking factor (≥ 1) of step 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverbookingPolicy(pub f64);

impl Default for OverbookingPolicy {
    fn default() -> Self {
        // A modest 25 % of slack absorbs typical refusal rates without
        // flooding the overlay with reservations to cancel.
        OverbookingPolicy(1.25)
    }
}

impl OverbookingPolicy {
    /// Number of hosts to book, `⌈needed × factor⌉` capped by the number of
    /// known candidates.
    pub(crate) fn booking_target(&self, needed: usize, known_candidates: usize) -> usize {
        let f = self.0;
        assert!(f >= 1.0 && f.is_finite(), "overbooking factor must be >= 1");
        ((needed as f64 * f).ceil() as usize).min(known_candidates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn none_books_exactly_what_is_needed() {
        assert_eq!(OverbookingPolicy(1.0).booking_target(10, 100), 10);
    }

    #[test]
    fn factor_rounds_up() {
        assert_eq!(OverbookingPolicy(1.25).booking_target(10, 100), 13);
        assert_eq!(OverbookingPolicy(1.0).booking_target(7, 100), 7);
        assert_eq!(OverbookingPolicy(2.0).booking_target(3, 100), 6);
    }

    #[test]
    fn target_is_capped_by_known_candidates() {
        assert_eq!(OverbookingPolicy(2.0).booking_target(300, 350), 350);
        assert_eq!(OverbookingPolicy(1.0).booking_target(400, 350), 350);
    }

    #[test]
    fn default_is_a_quarter_extra() {
        assert_eq!(OverbookingPolicy::default().booking_target(100, 1000), 125);
    }

    #[test]
    #[should_panic(expected = "factor must be >= 1")]
    fn shrinking_factor_panics() {
        OverbookingPolicy(0.5).booking_target(10, 100);
    }

    proptest! {
        /// The booking target always covers the need (when enough candidates
        /// exist) and never exceeds the candidate pool.
        #[test]
        fn target_bounds(
            needed in 0usize..500,
            known in 0usize..700,
            factor in 1.0f64..3.0,
        ) {
            for policy in [OverbookingPolicy(1.0), OverbookingPolicy(factor)] {
                let t = policy.booking_target(needed, known);
                prop_assert!(t <= known);
                prop_assert!(t >= needed.min(known));
            }
        }
    }
}
