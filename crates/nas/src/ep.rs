//! NAS EP — the Embarrassingly Parallel kernel.
//!
//! Each process generates a disjoint slice of `2^M` pseudo-random pairs,
//! turns the accepted ones into Gaussian deviates with the Marsaglia polar
//! method, accumulates the sums `Σ X`, `Σ Y` and the annulus counts
//! `q[0..10]`, and the job ends with a single `MPI_Allreduce` of those
//! values — "EP does independent computations with a final collective
//! communication" (Section 5).
//!
//! The result is independent of the process count because every process
//! jumps the NPB generator to its own offset.

use crate::classes::Class;
use crate::rng::{NasRng, DEFAULT_SEED};
use p2pmpi_mpi::datatype::ReduceOp;
use p2pmpi_mpi::error::MpiResult;
use p2pmpi_mpi::model::{CollectiveProgram, CompiledSchedule, ModelComm, ScheduleBuilder};
use p2pmpi_mpi::Comm;
use p2pmpi_simgrid::memory::MemoryIntensity;
use p2pmpi_simgrid::time::SimDuration;

/// Abstract operations charged per generated pair.
///
/// The count covers the two `randlc` calls, the polar test and the
/// `ln`/`sqrt` of accepted pairs, *as executed by the paper's Java (MPJ)
/// runtime*: it is calibrated so that EP class B at 32 processes lands in the
/// 7–9 virtual-second range the paper's Figure 4 reports on the 2006-era
/// Grid'5000 CPUs modelled in `p2pmpi-grid5000`.
pub const OPS_PER_PAIR: f64 = 400.0;

/// EP's memory intensity: mostly register arithmetic, but the Java runtime
/// the paper used keeps the deviates in arrays, so co-located processes do
/// contend a little — which is how the paper explains spread's small edge.
pub const EP_MEMORY_INTENSITY: MemoryIntensity = MemoryIntensity::CPU_BOUND;

/// EP configuration.
#[derive(Debug, Clone, Copy)]
pub struct EpConfig {
    /// Problem class (the paper uses class B).
    pub class: Class,
    /// Only one pair in `sample_divisor` is actually generated; the *charged*
    /// compute time always corresponds to the full class, so virtual
    /// makespans stay class-accurate while wall-clock time stays laptop
    /// friendly.  Use 1 (no sampling) when the numerical result matters.
    pub sample_divisor: u64,
}

impl EpConfig {
    /// Full-fidelity configuration (every pair generated).
    pub fn new(class: Class) -> Self {
        EpConfig {
            class,
            sample_divisor: 1,
        }
    }

    /// Sampled configuration for the benchmark harness.
    pub fn sampled(class: Class, sample_divisor: u64) -> Self {
        assert!(sample_divisor >= 1, "the sample divisor must be >= 1");
        EpConfig {
            class,
            sample_divisor,
        }
    }
}

/// The global EP tallies (identical on every rank after the allreduce).
#[derive(Debug, Clone, PartialEq)]
pub struct EpResult {
    /// Sum of the Gaussian X deviates.
    pub sx: f64,
    /// Sum of the Gaussian Y deviates.
    pub sy: f64,
    /// Counts per annulus `l = ⌊max(|X|,|Y|)⌋`.
    pub counts: [i64; 10],
    /// Number of accepted pairs (equals `counts.iter().sum()`).
    pub accepted: i64,
    /// Number of pairs actually generated across all ranks.
    pub generated: u64,
}

impl EpResult {
    /// Internal consistency checks: the annulus counts add up to the number
    /// of accepted pairs, roughly half the pairs are accepted (π/4 of the
    /// unit square), and the Gaussian sums are within a loose statistical
    /// envelope of zero.
    pub fn verify(&self) -> bool {
        if self.counts.iter().sum::<i64>() != self.accepted {
            return false;
        }
        if self.generated == 0 {
            return self.accepted == 0;
        }
        let acceptance = self.accepted as f64 / self.generated as f64;
        if !(0.70..=0.87).contains(&acceptance) {
            return false;
        }
        // |Σ X| grows like sqrt(accepted); allow a generous 6 sigma.
        let bound = 6.0 * (self.accepted.max(1) as f64).sqrt();
        self.sx.abs() <= bound && self.sy.abs() <= bound
    }
}

/// Per-rank share of the pair stream: `(offset, count)` for `rank` out of
/// `size` ranks over `total` pairs.
pub fn rank_share(total: u64, rank: u32, size: u32) -> (u64, u64) {
    let size = size as u64;
    let rank = rank as u64;
    let base = total / size;
    let extra = total % size;
    let count = base + u64::from(rank < extra);
    let offset = rank * base + rank.min(extra);
    (offset, count)
}

/// Runs the EP kernel on one MPI process.
pub fn ep_kernel(comm: &mut Comm, config: &EpConfig) -> MpiResult<EpResult> {
    let total_pairs = config.class.ep_pairs();
    let (offset, my_pairs) = rank_share(total_pairs, comm.rank(), comm.size());
    let executed = (my_pairs / config.sample_divisor).max(u64::from(my_pairs > 0));

    // Each pair consumes two deviates; jump the generator to this rank's
    // slice so the global result does not depend on the process count.
    let mut rng = NasRng::with_offset(DEFAULT_SEED, 2 * offset);

    let mut sx = 0.0f64;
    let mut sy = 0.0f64;
    let mut counts = [0i64; 10];
    for _ in 0..executed {
        let x = 2.0 * rng.next_f64() - 1.0;
        let y = 2.0 * rng.next_f64() - 1.0;
        let t = x * x + y * y;
        if t <= 1.0 && t > 0.0 {
            let factor = (-2.0 * t.ln() / t).sqrt();
            let gx = x * factor;
            let gy = y * factor;
            let l = gx.abs().max(gy.abs()) as usize;
            if l < counts.len() {
                counts[l] += 1;
            }
            sx += gx;
            sy += gy;
        }
    }

    // Charge the compute model for the *full* class regardless of sampling.
    comm.compute(my_pairs as f64 * OPS_PER_PAIR, EP_MEMORY_INTENSITY)?;

    // The final collective: sums and counts.
    let sums = comm.allreduce(ReduceOp::Sum, &[sx, sy])?;
    let mut count_buf = [0i64; 12];
    count_buf[..10].copy_from_slice(&counts);
    count_buf[10] = counts.iter().sum();
    count_buf[11] = executed as i64;
    let totals = comm.allreduce(ReduceOp::Sum, &count_buf)?;

    let mut global_counts = [0i64; 10];
    global_counts.copy_from_slice(&totals[..10]);
    Ok(EpResult {
        sx: sums[0],
        sy: sums[1],
        counts: global_counts,
        accepted: totals[10],
        generated: totals[11] as u64,
    })
}

/// [`ep_kernel`]'s cost structure as a placement-independent collective
/// program: one compute phase, then two fixed-size `MPI_Allreduce`s.  This
/// is the single source of EP's modeled schedule — [`ep_model`] runs it on a
/// [`ModelComm`], [`ep_schedule`] records it for the placement search's
/// evaluator.
pub fn ep_program<P: CollectiveProgram>(p: &mut P, config: &EpConfig) {
    let size = p.size();
    let total_pairs = config.class.ep_pairs();
    p.compute(EP_MEMORY_INTENSITY, |rank| {
        rank_share(total_pairs, rank, size).1 as f64 * OPS_PER_PAIR
    });
    // allreduce(Sum, [sx, sy]): two f64.
    p.allreduce(2 * 8);
    // allreduce(Sum, count_buf): twelve i64.
    p.allreduce(12 * 8);
}

/// Predicts the EP makespan analytically on a [`ModelComm`].
///
/// EP's communication is data-independent (one compute phase, then two
/// `MPI_Allreduce`s of fixed-size buffers), so the modeled schedule is an
/// *exact* replay of [`ep_kernel`]'s clock arithmetic: the predicted
/// makespan equals the executed one bit-for-bit, at any rank count.
pub fn ep_model(model: &mut ModelComm, config: &EpConfig) -> SimDuration {
    ep_program(model, config);
    model.makespan()
}

/// Compiles [`ep_program`] for `size` ranks — the schedule hook the
/// placement search (`p2pmpi_mpi::model::PlacementCost`) evaluates.
pub fn ep_schedule(config: &EpConfig, size: u32) -> CompiledSchedule {
    let mut b = ScheduleBuilder::new(size);
    ep_program(&mut b, config);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_has_nothing_to_fast_forward() {
        // One compute phase and one merged tree run.
        let s = ep_schedule(&EpConfig::new(Class::S), 16);
        assert_eq!(s.segment_count(), 2);
        assert_eq!(s.repeated_block(), None);
    }

    #[test]
    fn rank_share_partitions_exactly() {
        for &(total, size) in &[(100u64, 7u32), (1 << 16, 32), (5, 8), (0, 3)] {
            let mut covered = 0u64;
            let mut next_offset = 0u64;
            for rank in 0..size {
                let (offset, count) = rank_share(total, rank, size);
                assert_eq!(offset, next_offset, "ranks must tile the stream");
                next_offset += count;
                covered += count;
            }
            assert_eq!(covered, total);
        }
    }

    #[test]
    fn sampled_config_validown() {
        let c = EpConfig::sampled(Class::B, 64);
        assert_eq!(c.sample_divisor, 64);
        assert_eq!(EpConfig::new(Class::S).sample_divisor, 1);
    }

    #[test]
    #[should_panic(expected = ">= 1")]
    fn zero_divisor_panics() {
        EpConfig::sampled(Class::S, 0);
    }

    #[test]
    fn verify_rejects_inconsistent_results() {
        let good = EpResult {
            sx: 10.0,
            sy: -20.0,
            counts: [400_000, 300_000, 80_000, 9_000, 600, 30, 2, 0, 0, 0],
            accepted: 789_632,
            generated: 1 << 20,
        };
        assert!(good.verify());
        let mut bad_counts = good.clone();
        bad_counts.counts[0] -= 1;
        assert!(!bad_counts.verify());
        let mut bad_acceptance = good.clone();
        bad_acceptance.generated = 1 << 24;
        assert!(!bad_acceptance.verify());
        let mut bad_sum = good;
        bad_sum.sx = 1.0e9;
        assert!(!bad_sum.verify());
    }
}
