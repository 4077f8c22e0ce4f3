//! Measurement noise model for latency probes.
//!
//! Section 5.1 of the paper observes that the latency measured by the MPD
//! "is subject to CPU and TCP load variations", and attributes the
//! interleaving of Lyon/Rennes/Bordeaux hosts in the concentrate experiment
//! to this: their RTTs to Nancy differ by less than 1.1 ms, well within the
//! measurement noise.  This module models that noise as a multiplicative
//! perturbation on the base RTT.

use crate::time::SimDuration;
use rand::Rng;

/// Multiplicative Gaussian noise applied to probe measurements.
#[derive(Debug, Clone, Copy)]
pub struct NoiseModel {
    /// Relative standard deviation of the perturbation (e.g. `0.06` = 6 %).
    pub sigma: f64,
    /// Perturbations are clamped to `±clamp_sigmas × sigma` to keep extreme
    /// draws from re-ordering sites whose RTTs differ by tens of
    /// milliseconds.
    pub clamp_sigmas: f64,
    /// Constant additive jitter floor (queueing on a loaded peer), applied on
    /// top of the multiplicative term.
    pub additive_jitter: SimDuration,
}

impl Default for NoiseModel {
    fn default() -> Self {
        NoiseModel {
            sigma: 0.06,
            clamp_sigmas: 3.0,
            additive_jitter: SimDuration::from_micros(200),
        }
    }
}

impl NoiseModel {
    /// A model that returns measurements unchanged.
    pub fn disabled() -> Self {
        NoiseModel {
            sigma: 0.0,
            clamp_sigmas: 0.0,
            additive_jitter: SimDuration::ZERO,
        }
    }

    /// A model with the given relative standard deviation and no additive
    /// jitter.
    pub fn with_sigma(sigma: f64) -> Self {
        assert!(sigma >= 0.0 && sigma.is_finite(), "sigma must be >= 0");
        NoiseModel {
            sigma,
            ..NoiseModel::default()
        }
    }

    /// True if this model never perturbs measurements.
    fn is_disabled(&self) -> bool {
        self.sigma == 0.0 && self.additive_jitter.is_zero()
    }

    /// Applies one random perturbation to a base measurement.
    pub fn perturb<R: Rng + ?Sized>(&self, base: SimDuration, rng: &mut R) -> SimDuration {
        if self.is_disabled() {
            return base;
        }
        let mut factor = 1.0 + self.sigma * standard_normal(rng);
        if self.clamp_sigmas > 0.0 {
            let lo = 1.0 - self.clamp_sigmas * self.sigma;
            let hi = 1.0 + self.clamp_sigmas * self.sigma;
            factor = factor.clamp(lo, hi);
        }
        // Never let noise make a measurement non-positive.
        factor = factor.max(0.05);
        let jitter = if self.additive_jitter.is_zero() {
            SimDuration::ZERO
        } else {
            self.additive_jitter.mul_f64(rng.gen::<f64>())
        };
        base.mul_f64(factor) + jitter
    }
}

/// Draws from the standard normal distribution using the Box–Muller
/// transform (keeps us within the plain `rand` dependency).
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling in (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn disabled_model_is_identity() {
        let m = NoiseModel::disabled();
        let mut rng = StdRng::seed_from_u64(1);
        let base = SimDuration::from_millis(10);
        assert!(m.is_disabled());
        assert_eq!(m.perturb(base, &mut rng), base);
    }

    #[test]
    fn perturbation_stays_within_clamp() {
        let m = NoiseModel::with_sigma(0.06);
        let mut rng = StdRng::seed_from_u64(42);
        let base = SimDuration::from_millis(10);
        for _ in 0..10_000 {
            let p = m.perturb(base, &mut rng);
            // 3 sigma = 18 % plus at most 200 us of additive jitter.
            assert!(p >= base.mul_f64(0.82), "{p} below clamp");
            assert!(
                p <= base.mul_f64(1.18) + SimDuration::from_micros(200),
                "{p} above clamp"
            );
        }
    }

    #[test]
    fn noise_is_roughly_centred() {
        let m = NoiseModel {
            additive_jitter: SimDuration::ZERO,
            ..NoiseModel::with_sigma(0.05)
        };
        let mut rng = StdRng::seed_from_u64(7);
        let base = SimDuration::from_millis(12);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| m.perturb(base, &mut rng).as_millis_f64())
            .sum::<f64>()
            / n as f64;
        assert!((mean - 12.0).abs() < 0.05, "mean {mean} drifted");
    }

    #[test]
    fn noise_can_interleave_close_sites_but_not_distant_ones() {
        // Lyon (10.5 ms) and Rennes (11.6 ms) should sometimes swap; Nancy
        // (0.087 ms) must never look farther than Lyon.
        let m = NoiseModel::default();
        let mut rng = StdRng::seed_from_u64(2024);
        let nancy = SimDuration::from_micros(87);
        let lyon = SimDuration::from_micros(10_500);
        let rennes = SimDuration::from_micros(11_600);
        let mut swaps = 0;
        for _ in 0..5_000 {
            let l = m.perturb(lyon, &mut rng);
            let r = m.perturb(rennes, &mut rng);
            let n = m.perturb(nancy, &mut rng);
            if r < l {
                swaps += 1;
            }
            assert!(n < l && n < r, "noise re-ordered a local vs remote site");
        }
        assert!(
            swaps > 100,
            "expected close sites to interleave, got {swaps}"
        );
        assert!(swaps < 2_500, "noise should not invert the mean ordering");
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    #[should_panic(expected = "sigma")]
    fn negative_sigma_panics() {
        NoiseModel::with_sigma(-0.1);
    }
}
