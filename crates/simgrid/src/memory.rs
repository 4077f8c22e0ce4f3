//! Memory contention model.
//!
//! The paper's Section 5.2 explains the EP result ("spread is slightly faster
//! … probably due to the intensive memory accesses that may represent a
//! bottleneck with concentrate") and the IS result ("no overhead due to
//! concurrent memory accesses" when spread keeps one process per host) with
//! the same mechanism: processes co-located on a host share its memory
//! bandwidth.  We model this as a multiplicative slowdown of compute sections
//! that grows with the number of co-resident processes and with the kernel's
//! memory intensity.

/// How memory-bound a computation is, in `[0, 1]`.
///
/// `0.0` means pure register/ALU work (no slowdown from sharing a host);
/// `1.0` means fully memory-bandwidth-bound (slowdown proportional to the
/// number of co-resident processes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryIntensity(f64);

impl MemoryIntensity {
    /// Builds a memory intensity, panicking outside `[0, 1]`.
    #[cfg(test)]
    pub(crate) fn new(v: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&v),
            "memory intensity must be in [0,1]"
        );
        MemoryIntensity(v)
    }

    /// Raw value.
    pub(crate) fn value(self) -> f64 {
        self.0
    }

    /// A CPU-bound kernel (e.g. the core of NAS EP).
    pub const CPU_BOUND: MemoryIntensity = MemoryIntensity(0.12);
    /// A memory-bound kernel (e.g. the bucket counting of NAS IS).
    pub const MEMORY_BOUND: MemoryIntensity = MemoryIntensity(0.65);
    /// No memory pressure at all.
    pub const NONE: MemoryIntensity = MemoryIntensity(0.0);
}

/// Contention model parameters.
#[derive(Debug, Clone, Copy)]
pub struct MemoryContentionModel {
    /// Slowdown added per extra co-resident process for a fully memory-bound
    /// kernel.  The default of 0.28 makes 4 fully memory-bound processes on a
    /// dual-core-era node run ~1.8x slower each, consistent with the modest
    /// EP gap the paper reports.
    pub(crate) alpha: f64,
    /// Cap on the total slowdown factor (saturation of the memory bus).
    pub(crate) max_slowdown: f64,
}

impl Default for MemoryContentionModel {
    fn default() -> Self {
        MemoryContentionModel {
            alpha: 0.28,
            max_slowdown: 4.0,
        }
    }
}

impl MemoryContentionModel {
    /// A model with a specific per-process contention coefficient.
    pub fn with_alpha(alpha: f64) -> Self {
        assert!(alpha >= 0.0 && alpha.is_finite(), "alpha must be >= 0");
        MemoryContentionModel {
            alpha,
            ..MemoryContentionModel::default()
        }
    }

    /// A model in which co-location never slows anything down.
    #[cfg(test)]
    pub(crate) fn disabled() -> Self {
        MemoryContentionModel {
            alpha: 0.0,
            max_slowdown: 1.0,
        }
    }

    /// Slowdown factor (≥ 1) for one process when `residents` processes run
    /// on the same host and the kernel has the given memory intensity.
    pub(crate) fn slowdown(&self, residents: usize, intensity: MemoryIntensity) -> f64 {
        if residents <= 1 {
            return 1.0;
        }
        let extra = (residents - 1) as f64;
        let s = 1.0 + self.alpha * extra * intensity.value();
        s.min(self.max_slowdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_resident_has_no_slowdown() {
        let m = MemoryContentionModel::default();
        assert_eq!(m.slowdown(1, MemoryIntensity::MEMORY_BOUND), 1.0);
        assert_eq!(m.slowdown(0, MemoryIntensity::MEMORY_BOUND), 1.0);
    }

    #[test]
    fn slowdown_grows_with_residents_and_intensity() {
        let m = MemoryContentionModel::default();
        let cpu2 = m.slowdown(2, MemoryIntensity::CPU_BOUND);
        let cpu4 = m.slowdown(4, MemoryIntensity::CPU_BOUND);
        let mem2 = m.slowdown(2, MemoryIntensity::MEMORY_BOUND);
        let mem4 = m.slowdown(4, MemoryIntensity::MEMORY_BOUND);
        assert!(cpu2 > 1.0 && cpu4 > cpu2);
        assert!(mem2 > cpu2 && mem4 > mem2);
    }

    #[test]
    fn slowdown_saturates() {
        let m = MemoryContentionModel::default();
        let s = m.slowdown(1000, MemoryIntensity::MEMORY_BOUND);
        assert_eq!(s, m.max_slowdown);
    }

    #[test]
    fn disabled_model_is_identity() {
        let m = MemoryContentionModel::disabled();
        assert_eq!(m.slowdown(16, MemoryIntensity::MEMORY_BOUND), 1.0);
    }

    #[test]
    fn zero_intensity_never_slows_down() {
        let m = MemoryContentionModel::default();
        assert_eq!(m.slowdown(8, MemoryIntensity::NONE), 1.0);
    }

    #[test]
    #[should_panic(expected = "in [0,1]")]
    fn invalid_intensity_panics() {
        MemoryIntensity::new(1.5);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_panics() {
        MemoryContentionModel::with_alpha(-1.0);
    }
}
