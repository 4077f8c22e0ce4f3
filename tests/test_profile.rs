//! The test profile keeps every assertion on.  The dev profile is optimised
//! (`opt-level = 1` in the root `Cargo.toml`), and the tier-1 pins lean on
//! `debug_assertions`: every hit of the sweeps' per-shape cost memo, of the
//! evaluator's compute-term cache and of its tree-time cache is re-costed
//! and compared only when they are on.  This test fails if a profile edit
//! ever compiles them, or the overflow checks, out of `cargo test`.

use std::hint::black_box;
use std::panic::catch_unwind;

#[test]
fn tests_run_with_debug_assertions_and_overflow_checks_on() {
    let debug_assert_fired = catch_unwind(|| debug_assert!(black_box(false))).is_err();
    assert!(
        debug_assert_fired,
        "cfg!(debug_assertions) is off in the test profile"
    );
    let overflow_caught = catch_unwind(|| black_box(u32::MAX) + 1).is_err();
    assert!(
        overflow_caught,
        "overflow checks are off in the test profile"
    );
}
