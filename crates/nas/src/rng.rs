//! The NAS Parallel Benchmarks pseudo-random number generator.
//!
//! NPB kernels (EP, IS) use the linear congruential generator
//! `x_{k+1} = a · x_k  (mod 2^46)` with `a = 5^13`, implemented in double
//! precision exactly as the reference `randlc` routine, so that every process
//! can jump its seed to an arbitrary position of the sequence (binary
//! exponentiation of `a`) and the global result is independent of the number
//! of processes.

/// The multiplier `a = 5^13` of the NPB generator.
pub(crate) const A: f64 = 1_220_703_125.0;

/// The default seed used by EP and IS.
pub(crate) const DEFAULT_SEED: f64 = 271_828_183.0;

const R23: f64 = 1.0 / 8_388_608.0; // 2^-23
const R46: f64 = R23 * R23;
const T23: f64 = 8_388_608.0; // 2^23
const T46: f64 = T23 * T23;

/// Advances `x` by one LCG step (`x ← a·x mod 2^46`) and returns the
/// uniform deviate `x · 2^-46 ∈ (0, 1)`.
pub(crate) fn randlc(x: &mut f64, a: f64) -> f64 {
    // Split a and x into 23-bit halves to compute a*x mod 2^46 exactly in
    // f64 arithmetic (the reference NPB algorithm).
    let t1 = R23 * a;
    let a1 = t1.trunc();
    let a2 = a - T23 * a1;

    let t1 = R23 * *x;
    let x1 = t1.trunc();
    let x2 = *x - T23 * x1;

    let t1 = a1 * x2 + a2 * x1;
    let t2 = (R23 * t1).trunc();
    let z = t1 - T23 * t2;
    let t3 = T23 * z + a2 * x2;
    let t4 = (R46 * t3).trunc();
    *x = t3 - T46 * t4;
    R46 * *x
}

/// Returns the seed obtained from `seed` after `steps` applications of the
/// generator, in `O(log steps)` multiplications (the NPB seed-jumping trick
/// that makes per-process subsequences independent of the process count).
pub(crate) fn jump(seed: f64, a: f64, steps: u64) -> f64 {
    let mut b = seed;
    let mut t = a;
    let mut k = steps;
    while k > 0 {
        if k & 1 == 1 {
            randlc(&mut b, t);
        }
        let tc = t;
        randlc(&mut t, tc);
        k >>= 1;
    }
    b
}

/// A convenience stateful wrapper around [`randlc`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct NasRng {
    seed: f64,
    a: f64,
}

impl NasRng {
    /// Creates a generator positioned `offset` steps into the sequence that
    /// starts at `seed`.
    pub(crate) fn with_offset(seed: f64, offset: u64) -> Self {
        NasRng {
            seed: jump(seed, A, offset),
            a: A,
        }
    }

    /// Next uniform deviate in `(0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        randlc(&mut self.seed, self.a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deviates_are_in_unit_interval_and_deterministic() {
        let mut a = NasRng::with_offset(DEFAULT_SEED, 0);
        let mut b = NasRng::with_offset(DEFAULT_SEED, 0);
        for _ in 0..10_000 {
            let x = a.next_f64();
            assert!(x > 0.0 && x < 1.0);
            assert_eq!(x, b.next_f64());
        }
    }

    #[test]
    fn sequence_is_uniform_ish() {
        let mut rng = NasRng::with_offset(DEFAULT_SEED, 0);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn jump_matches_stepping() {
        let mut stepped = DEFAULT_SEED;
        for _ in 0..1000 {
            randlc(&mut stepped, A);
        }
        let jumped = jump(DEFAULT_SEED, A, 1000);
        assert_eq!(stepped, jumped);
        // Zero steps is the identity.
        assert_eq!(jump(DEFAULT_SEED, A, 0), DEFAULT_SEED);
    }

    #[test]
    fn disjoint_offsets_give_contiguous_subsequences() {
        // Generating 100 numbers from offset 0 then 100 from offset 100 must
        // equal 200 numbers generated straight through.
        let mut straight = NasRng::with_offset(DEFAULT_SEED, 0);
        let full: Vec<f64> = (0..200).map(|_| straight.next_f64()).collect();
        let mut first = NasRng::with_offset(DEFAULT_SEED, 0);
        let mut second = NasRng::with_offset(DEFAULT_SEED, 100);
        let halves: Vec<f64> = (0..100)
            .map(|_| first.next_f64())
            .chain((0..100).map(|_| second.next_f64()))
            .collect();
        assert_eq!(full, halves);
    }

    #[test]
    fn known_reference_value() {
        // The first deviate of the NPB sequence with the standard seed and
        // multiplier: x1 = (5^13 * 271828183) mod 2^46, scaled by 2^-46.
        let mut x = DEFAULT_SEED;
        let v = randlc(&mut x, A);
        let expected_x = (1_220_703_125u128 * 271_828_183u128 % (1u128 << 46)) as f64;
        assert_eq!(x, expected_x);
        assert!((v - expected_x / (1u64 << 46) as f64).abs() < 1e-15);
    }
}
