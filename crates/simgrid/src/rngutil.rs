//! Deterministic random-number utilities.
//!
//! Every stochastic component of the reproduction (probe noise, overbooking
//! jitter, churn, NAS kernels) draws from a seeded [`rand::rngs::StdRng`], so
//! whole experiments are reproducible from a single master seed.  Substreams
//! are derived with SplitMix64 so that adding a consumer does not perturb the
//! draws seen by existing consumers.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Mixes a 64-bit value (SplitMix64 finalizer); good enough to decorrelate
/// derived seeds.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Derives an independent seed for a named substream of a master seed.
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    splitmix64(master ^ splitmix64(stream.wrapping_mul(0xA24BAED4963EE407)))
}

/// Creates a deterministic RNG for a named substream of a master seed.
pub fn substream(master: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(derive_seed(master, stream))
}

/// Creates a deterministic RNG directly from a seed.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn splitmix_is_deterministic_and_mixing() {
        assert_eq!(splitmix64(1), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
        // Consecutive inputs should differ in many bits.
        let d = (splitmix64(100) ^ splitmix64(101)).count_ones();
        assert!(d > 16, "poor mixing: {d} bits differ");
    }

    #[test]
    fn substreams_are_independent_and_reproducible() {
        let mut a1 = substream(42, 0);
        let mut a2 = substream(42, 0);
        let mut b = substream(42, 1);
        let xs1: Vec<u64> = (0..8).map(|_| a1.gen()).collect();
        let xs2: Vec<u64> = (0..8).map(|_| a2.gen()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_eq!(xs1, xs2);
        assert_ne!(xs1, ys);
    }

    #[test]
    fn different_masters_differ() {
        let mut a = substream(1, 7);
        let mut b = substream(2, 7);
        let xs: Vec<u64> = (0..4).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.gen()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn seeded_matches_stdrng() {
        let mut a = seeded(99);
        let mut b = StdRng::seed_from_u64(99);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }
}
