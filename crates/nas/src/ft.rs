//! NAS FT — the 3-D FFT kernel's *cost structure*, as a transpose-based
//! collective program.
//!
//! NPB FT solves a 3-D PDE with forward/inverse FFTs: each iteration
//! evolves the frequency data, runs FFTs along the two locally-held
//! dimensions, and performs a **global transpose** — an `MPI_Alltoall` in
//! which every rank exchanges a block of its slab with every other rank —
//! before the FFT along the distributed dimension, ending with a checksum
//! `MPI_Allreduce`.  That transpose is the canonical alltoall-heavy pattern
//! beyond the paper's two kernels, and the reason FT exists here: now that
//! the placement evaluator's ring caches are compact (see
//! `p2pmpi_mpi::model`), transpose programs are just as searchable at
//! 1024+ ranks as IS.
//!
//! Unlike [`crate::ep`]/[`crate::is`], FT is *model-only*: there is no
//! executed `ft_kernel` (the paper never ran FT), only the
//! [`CollectiveProgram`] the analytical backend and the placement search
//! consume.  The per-pair transpose block is `0` bytes on the diagonal (the
//! local slab block never leaves the host), which the schedule compiler's
//! off-diagonal compression stores as a `Uniform` ring all the same.

use crate::classes::Class;
use p2pmpi_mpi::model::{CollectiveProgram, CompiledSchedule, ModelComm, ScheduleBuilder};
use p2pmpi_simgrid::memory::MemoryIntensity;
use p2pmpi_simgrid::time::SimDuration;

/// Bytes of one grid point: a complex double.
pub const BYTES_PER_POINT: u64 = 16;

/// Abstract operations charged per grid point per 1-D FFT butterfly level
/// (`5·log2(n)` real flops per point is the classic radix-2 count; the
/// constant folds in the evolve multiply and the index arithmetic of the
/// Java runtime the paper's other kernels are calibrated against).
pub const OPS_PER_POINT_PER_LEVEL: f64 = 8.0;

/// FT streams whole slabs through the FFT passes every iteration — memory
/// pressure comparable to IS's bucket counting.
pub const FT_MEMORY_INTENSITY: MemoryIntensity = MemoryIntensity::MEMORY_BOUND;

/// FT configuration.
#[derive(Debug, Clone, Copy)]
pub struct FtConfig {
    /// Problem class (grid dimensions and iteration count).
    pub class: Class,
    /// Number of evolve/FFT/checksum iterations.
    pub iterations: u32,
}

impl FtConfig {
    /// The class's standard configuration.
    pub fn new(class: Class) -> Self {
        FtConfig {
            class,
            iterations: class.ft_iterations(),
        }
    }

    /// Overrides the iteration count (scaled-down sweeps).
    pub fn with_iterations(mut self, iterations: u32) -> Self {
        assert!(iterations >= 1, "FT needs at least one iteration");
        self.iterations = iterations;
        self
    }

    /// Total grid points of the class.
    pub fn total_points(&self) -> u64 {
        let (nx, ny, nz) = self.class.ft_grid();
        nx * ny * nz
    }
}

/// FT's cost structure as a placement-independent collective program: per
/// iteration an evolve+FFT compute phase, the global transpose (each rank
/// sends its `share/size` block to every *other* rank) and the checksum
/// allreduce.  The single source of FT's modeled schedule — [`ft_model`]
/// runs it on a [`ModelComm`], [`ft_schedule`] records it for the placement
/// search's evaluator.
pub fn ft_program<P: CollectiveProgram>(p: &mut P, config: &FtConfig) {
    let size = p.size();
    let total = config.total_points();
    // 3-D FFT: one butterfly sweep per log2 level of the whole grid.
    let levels = (64 - u64::leading_zeros(total.max(2) - 1)) as f64;
    let block = |src: u32| {
        let (_, share) = crate::ep::rank_share(total, src, size);
        (share / size as u64) * BYTES_PER_POINT
    };
    for _ in 0..config.iterations {
        // Evolve + the two local FFT passes.
        p.compute(FT_MEMORY_INTENSITY, |rank| {
            crate::ep::rank_share(total, rank, size).1 as f64 * OPS_PER_POINT_PER_LEVEL * levels
        });
        // The global transpose: a block to every other rank, nothing to
        // self (the local block is a memory copy, charged to compute).
        p.alltoallv(move |src, dst| if src == dst { 0 } else { block(src) });
        // Checksum: allreduce(Sum) of one complex double.
        p.allreduce(BYTES_PER_POINT);
    }
}

/// Predicts the FT makespan analytically on a [`ModelComm`].
pub fn ft_model(model: &mut ModelComm, config: &FtConfig) -> SimDuration {
    ft_program(model, config);
    model.makespan()
}

/// Compiles [`ft_program`] for `size` ranks — the schedule hook of the
/// placement search.  The transpose rings compile to `Uniform`/`PerSrc`
/// byte structures, so all iterations share one pooled transfer table in
/// the evaluator, and compile to equal blocks its pass fast-forwards.
pub fn ft_schedule(config: &FtConfig, size: u32) -> CompiledSchedule {
    let mut b = ScheduleBuilder::new(size);
    ft_program(&mut b, config);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_reflects_class_table() {
        let c = FtConfig::new(Class::B);
        assert_eq!(c.iterations, 20);
        assert_eq!(c.total_points(), 512 * 256 * 256);
        assert_eq!(FtConfig::new(Class::S).iterations, 6);
        let short = FtConfig::new(Class::A).with_iterations(2);
        assert_eq!(short.iterations, 2);
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_panics() {
        let _ = FtConfig::new(Class::S).with_iterations(0);
    }

    #[test]
    fn schedule_compiles_with_one_ring_per_iteration() {
        let config = FtConfig::new(Class::S).with_iterations(3);
        let s = ft_schedule(&config, 8);
        assert_eq!(s.size(), 8);
        // Per iteration: compute, the transpose ring, and the checksum
        // allreduce's merged tree run; rings split the tree runs apart.
        assert_eq!(s.segment_count(), 3 * 3);
        assert!(s.op_count() > 0);
        assert_eq!(s.repeated_block(), Some((0, 3, 3)));
    }
}
