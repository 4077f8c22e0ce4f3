//! NAS IS — the Integer Sort kernel.
//!
//! IS ranks (sorts) `N` integer keys drawn from an approximately Gaussian
//! distribution over `[0, B_max)`.  The parallel algorithm redistributes the
//! keys by bucket every iteration, which is why the paper describes it as
//! "a sequence of one `MPI_Allreduce`, `MPI_Alltoall` and `MPI_Alltoallv`
//! at each iteration" — communication dominates, making IS the
//! latency-sensitive counterpart to EP in Figure 4.

use crate::classes::Class;
use crate::rng::{NasRng, DEFAULT_SEED};
use p2pmpi_mpi::datatype::ReduceOp;
use p2pmpi_mpi::error::{MpiError, MpiResult};
use p2pmpi_mpi::model::{CollectiveProgram, CompiledSchedule, ModelComm, ScheduleBuilder};
use p2pmpi_mpi::Comm;
use p2pmpi_simgrid::memory::MemoryIntensity;
use p2pmpi_simgrid::time::SimDuration;

/// Number of histogram buckets used for the key redistribution.
pub(crate) const NUM_BUCKETS: usize = 1 << 10;

/// Abstract operations charged per key per iteration (bucket counting, the
/// redistribution copy and the local ranking pass).
///
/// Calibrated for the paper's Java (MPJ) runtime — boxing and copying make
/// each key far more expensive than a native counting-sort pass — so that IS
/// class B at 32 processes lands in the few-virtual-seconds range of
/// Figure 4 (right).
pub const OPS_PER_KEY_PER_ITER: f64 = 50.0;

/// IS is memory-bandwidth bound: every iteration streams the whole key array
/// several times.
pub const IS_MEMORY_INTENSITY: MemoryIntensity = MemoryIntensity::MEMORY_BOUND;

/// IS configuration.
#[derive(Debug, Clone, Copy)]
pub struct IsConfig {
    /// Problem class (the paper uses class B).
    pub class: Class,
    /// Divide the number of keys actually sorted by this factor; the charged
    /// compute time still corresponds to the full class.  Keep at 1 for
    /// result verification (class B at full size is laptop friendly).
    pub(crate) sample_divisor: u64,
    /// Number of ranking iterations; defaults to the class's 10.
    pub iterations: u32,
}

impl IsConfig {
    /// Full-fidelity configuration.
    pub fn new(class: Class) -> Self {
        IsConfig {
            class,
            sample_divisor: 1,
            iterations: class.is_iterations(),
        }
    }

    /// Sampled configuration (fewer keys actually moved).
    pub fn sampled(class: Class, sample_divisor: u64) -> Self {
        assert!(sample_divisor >= 1, "the sample divisor must be >= 1");
        IsConfig {
            class,
            sample_divisor,
            iterations: class.is_iterations(),
        }
    }

    /// Overrides the iteration count (quick tests).
    pub fn with_iterations(mut self, iterations: u32) -> Self {
        assert!(iterations >= 1, "need at least one iteration");
        self.iterations = iterations;
        self
    }

    /// Number of keys this configuration actually sorts.
    fn effective_keys(&self) -> u64 {
        (self.class.is_keys() / self.sample_divisor).max(1)
    }
}

/// Per-rank outcome of the sort (plus the globally reduced checks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IsResult {
    /// Keys this rank ended up owning after the final redistribution.
    pub my_keys: u64,
    /// Smallest key owned by this rank (0 if none).
    pub(crate) my_min: u64,
    /// Largest key owned by this rank (0 if none).
    pub(crate) my_max: u64,
    /// Total keys across all ranks after the sort (must equal the input).
    pub total_keys: u64,
    /// True if the global verification passed: counts preserved, keys sorted
    /// locally and rank boundaries ordered.
    pub verified: bool,
    /// Iterations performed.
    pub iterations: u32,
}

/// Generates this rank's share of keys with the NPB generator (sum of four
/// uniforms, giving the benchmark's hump-shaped key distribution).
fn generate_keys(rank: u32, size: u32, total: u64, max_key: u64) -> Vec<u32> {
    let (offset, count) = crate::ep::rank_share(total, rank, size);
    let mut rng = NasRng::with_offset(DEFAULT_SEED, 4 * offset);
    (0..count)
        .map(|_| {
            let s = rng.next_f64() + rng.next_f64() + rng.next_f64() + rng.next_f64();
            ((s / 4.0) * max_key as f64) as u32 % max_key as u32
        })
        .collect()
}

/// Runs the IS kernel on one MPI process.
pub fn is_kernel(comm: &mut Comm, config: &IsConfig) -> MpiResult<IsResult> {
    let size = comm.size();
    let rank = comm.rank();
    let total_keys = config.effective_keys();
    let full_keys = config.class.is_keys();
    let max_key = config.class.is_max_key();
    let buckets = NUM_BUCKETS.min(max_key as usize);

    let keys = generate_keys(rank, size, total_keys, max_key);
    let (_, full_share) = crate::ep::rank_share(full_keys, rank, size);
    let bucket_of = |key: u32| -> usize { (key as u64 * buckets as u64 / max_key) as usize };

    let mut owned: Vec<u32> = Vec::new();
    for _ in 0..config.iterations {
        // Local histogram.
        let mut local_counts = vec![0i64; buckets];
        for &k in &keys {
            local_counts[bucket_of(k)] += 1;
        }
        // Global histogram (MPI_Allreduce).
        let global_counts = comm.allreduce(ReduceOp::Sum, &local_counts)?;

        // Assign contiguous bucket ranges to processors so that each gets
        // roughly total/size keys.
        let bucket_owner = assign_buckets(&global_counts, size, total_keys);

        // How many keys this rank sends to each processor (MPI_Alltoall).
        let mut send_counts = vec![0i64; size as usize];
        for &k in &keys {
            send_counts[bucket_owner[bucket_of(k)] as usize] += 1;
        }
        let recv_counts = comm.alltoall(&send_counts)?;

        // The keys themselves (MPI_Alltoallv).
        let mut blocks: Vec<Vec<u32>> = vec![Vec::new(); size as usize];
        for (dest, block) in blocks.iter_mut().enumerate() {
            block.reserve(send_counts[dest] as usize);
        }
        for &k in &keys {
            blocks[bucket_owner[bucket_of(k)] as usize].push(k);
        }
        let (received, recv_block_counts) = comm.alltoallv(&blocks)?;
        owned = received;

        // Cross-check the Alltoall announcement against what arrived, per
        // source (the flat alltoallv result carries the counts directly).
        for (src, (&announced, &got)) in recv_counts.iter().zip(&recv_block_counts).enumerate() {
            if announced != got as i64 {
                return Err(MpiError::CollectiveMismatch(format!(
                    "rank {src} announced {announced} keys but delivered {got}"
                )));
            }
        }

        // Charge the full-class compute cost of the counting/ranking passes.
        comm.compute(
            full_share as f64 * OPS_PER_KEY_PER_ITER,
            IS_MEMORY_INTENSITY,
        )?;
    }

    // Final local ranking (counting sort) and global verification.
    owned.sort_unstable();
    let my_min = owned.first().copied().unwrap_or(0) as u64;
    let my_max = owned.last().copied().unwrap_or(0) as u64;
    let my_count = owned.len() as u64;

    // Every rank learns every rank's (count, min, max) to verify boundaries.
    let summary = comm.allgather(&[my_count, my_min, my_max])?;
    let mut verified = true;
    let mut grand_total = 0u64;
    let mut prev_max: Option<u64> = None;
    for chunk in summary.chunks_exact(3) {
        let (count, min, max) = (chunk[0], chunk[1], chunk[2]);
        grand_total += count;
        if count > 0 {
            if let Some(p) = prev_max {
                if min < p {
                    verified = false;
                }
            }
            if min > max {
                verified = false;
            }
            prev_max = Some(max);
        }
    }
    if grand_total != total_keys {
        verified = false;
    }
    // Local order is guaranteed by the sort, but double-check ownership is
    // consistent with what we reported.
    if owned.windows(2).any(|w| w[0] > w[1]) {
        verified = false;
    }

    Ok(IsResult {
        my_keys: my_count,
        my_min,
        my_max,
        total_keys: grand_total,
        verified,
        iterations: config.iterations,
    })
}

/// [`is_kernel`]'s cost structure as a placement-independent collective
/// program (see [`is_model`] for the balanced-alltoallv approximation).
/// The single source of IS's modeled schedule: [`is_model`] runs it on a
/// [`ModelComm`], [`is_schedule`] records it for the placement search's
/// evaluator.
pub fn is_program<P: CollectiveProgram>(p: &mut P, config: &IsConfig) {
    let size = p.size();
    let total_keys = config.effective_keys();
    let full_keys = config.class.is_keys();
    let max_key = config.class.is_max_key();
    let buckets = NUM_BUCKETS.min(max_key as usize) as u64;
    for _ in 0..config.iterations {
        // Global histogram: allreduce(Sum) of `buckets` i64 counters.
        p.allreduce(buckets * 8);
        // Send-count exchange: alltoall of one i64 per rank pair.
        p.alltoall(8);
        // Key redistribution: balanced alltoallv of u32 keys.
        p.alltoallv(|src, _dst| {
            let (_, count) = crate::ep::rank_share(total_keys, src, size);
            (count / size as u64) * 4
        });
        // Bucket counting + ranking passes, charged at full-class size.
        p.compute(IS_MEMORY_INTENSITY, |rank| {
            crate::ep::rank_share(full_keys, rank, size).1 as f64 * OPS_PER_KEY_PER_ITER
        });
    }
    // Final verification: allgather of (count, min, max) u64 per rank.
    p.allgather(|_| 3 * 8);
}

/// Predicts the IS makespan analytically on a [`ModelComm`].
///
/// The allreduce/alltoall sizes replay [`is_kernel`] exactly.  The
/// `MPI_Alltoallv` key redistribution is the one data-dependent part: the
/// model substitutes the *balanced* exchange the bucket assignment aims for
/// (each rank sends `count/size` keys to every owner, since every rank draws
/// from the same global key distribution and each owner is assigned ~1/size
/// of its mass).  `tests/figure4_shape.rs`'s
/// `modeled_kernels_match_the_executed_kernels` measures the resulting
/// modeled-vs-executed divergence and fails if it leaves its documented
/// tolerance.
pub fn is_model(model: &mut ModelComm, config: &IsConfig) -> SimDuration {
    is_program(model, config);
    model.makespan()
}

/// Compiles [`is_program`] for `size` ranks — the schedule hook of the
/// placement search.  The iterations compile to equal blocks the
/// evaluator's pass fast-forwards once the ranks advance in lockstep —
/// right after the second iteration's allreduce, so a pass steps one
/// iteration, one allreduce and the closing allgather — and its ring state
/// is pooled transfer tables of O(size · sites) bytes shared across all of
/// them (see `p2pmpi_mpi::model`), so IS stays searchable at 1024+ ranks.
/// It compiles in ~0.5 ms at 1024 ranks and ~2-3 ms at 4096.
pub fn is_schedule(config: &IsConfig, size: u32) -> CompiledSchedule {
    let mut b = ScheduleBuilder::new(size);
    is_program(&mut b, config);
    b.finish()
}

/// Splits the bucket histogram into `size` contiguous ranges of roughly equal
/// key counts; returns the owning rank of each bucket.
fn assign_buckets(global_counts: &[i64], size: u32, total_keys: u64) -> Vec<u32> {
    let size = size as u64;
    let target = |p: u64| -> u64 { ((p + 1) * total_keys) / size };
    let mut owner = vec![0u32; global_counts.len()];
    let mut cumulative = 0u64;
    let mut proc = 0u64;
    for (bucket, &count) in global_counts.iter().enumerate() {
        while proc + 1 < size && cumulative >= target(proc) {
            proc += 1;
        }
        owner[bucket] = proc as u32;
        cumulative += count as u64;
    }
    owner
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_repeats_one_block_per_iteration() {
        // allreduce, alltoall, alltoallv, compute — ten times; the closing
        // allgather is outside the run.
        for ranks in [8, 32, 64] {
            let s = is_schedule(&IsConfig::new(Class::S), ranks);
            assert_eq!(s.segment_count(), 41);
            assert_eq!(s.repeated_block(), Some((0, 4, 10)));
        }
    }

    #[test]
    fn config_constructors() {
        let c = IsConfig::new(Class::S);
        assert_eq!(c.iterations, 10);
        assert_eq!(c.effective_keys(), 1 << 16);
        let s = IsConfig::sampled(Class::B, 32).with_iterations(3);
        assert_eq!(s.iterations, 3);
        assert_eq!(s.effective_keys(), (1 << 25) / 32);
    }

    #[test]
    #[should_panic(expected = ">= 1")]
    fn zero_divisor_panics() {
        IsConfig::sampled(Class::S, 0);
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_panics() {
        IsConfig::new(Class::S).with_iterations(0);
    }

    #[test]
    fn key_generation_is_bounded_and_deterministic() {
        let a = generate_keys(1, 4, 10_000, 1 << 11);
        let b = generate_keys(1, 4, 10_000, 1 << 11);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2_500);
        assert!(a.iter().all(|&k| (k as u64) < (1 << 11)));
        // The four-uniform sum gives a hump around the middle of the range.
        let mid = a.iter().filter(|&&k| (512..1536).contains(&k)).count();
        assert!(mid > a.len() / 2, "distribution should be centre-heavy");
    }

    #[test]
    fn bucket_assignment_is_monotonic_and_balanced() {
        // A flat histogram over 8 buckets split across 4 procs.
        let counts = vec![10i64; 8];
        let owner = assign_buckets(&counts, 4, 80);
        assert_eq!(owner, vec![0, 0, 1, 1, 2, 2, 3, 3]);
        // Monotonic even for skewed histograms.
        let skewed = vec![70i64, 1, 1, 1, 1, 1, 1, 4];
        let owner = assign_buckets(&skewed, 4, 80);
        let mut sorted = owner.clone();
        sorted.sort_unstable();
        assert_eq!(owner, sorted);
        assert_eq!(owner[0], 0);
        // Every processor index stays within range.
        assert!(owner.iter().all(|&p| p < 4));
    }

    #[test]
    fn bucket_assignment_handles_more_procs_than_buckets() {
        let counts = vec![5i64; 4];
        let owner = assign_buckets(&counts, 16, 20);
        assert!(owner.iter().all(|&p| p < 16));
    }
}
