//! Adversarial fault-timing search: slide an outage's phase against the
//! day's flash crowd and hunt the offset that maximises recovery time.
//!
//! The scenario matrix pins *one* onset per fault, but the inhomogeneous
//! Poisson day means the same outage can be benign at 06:00 and brutal at
//! 10:30 — the damage depends on what the grid was doing when the rack
//! went down.  This module turns [`FaultSpec::PhaseShift`] into a search
//! knob: [`search_worst_phase`] evaluates the composed outage-in-crowd
//! scenario ([`outage_in_crowd_config`]) at a grid of phase offsets, then
//! optionally refines the worst bracket with golden-section iterations,
//! all against one shared crowd-only twin (the outage never reshapes
//! arrivals, so every offset replays the identical inflated trace).  The
//! grid points are independent runs and go through [`par_map`]; the
//! refinement picks each point from the last and stays serial.
//!
//! The objective is the recovery time of [`recovery_to_twin`]: seconds
//! after the outage clears until grid-total utilisation regains 95% of
//! the twin's, measured on the exact binned core-seconds timelines.  An
//! offset whose utilisation *never* recovers is scored with the remaining
//! virtual day (a pessimistic upper bound), so "never recovered" always
//! dominates any finite recovery.
//!
//! The found worst case is pinned as the `outage_in_crowd_worst` scenario
//! ([`OUTAGE_IN_CROWD_WORST_OFFSET_SECS`]); the `fault_search` binary
//! re-runs the hunt and fails loudly when the worst phase is no longer at
//! least 10% worse than the nominal onset — the signal that placement or
//! profile changes moved the worst case and the pin needs re-validation.
//!
//! [`FaultSpec::PhaseShift`]: crate::workload::FaultSpec::PhaseShift
//! [`OUTAGE_IN_CROWD_WORST_OFFSET_SECS`]: crate::scenario::OUTAGE_IN_CROWD_WORST_OFFSET_SECS

use crate::par::par_map;
use crate::scenario::{outage_in_crowd_config, outage_window, recovery_to_twin, ScenarioParams};
use crate::workload::{flatten_faults, run_day_sweep, DaySweepResult, FaultSpec};

/// Inverse golden ratio: the interior-point placement of the
/// golden-section refinement.
const INV_PHI: f64 = 0.618_033_988_749_894_8;

/// Knobs of one adversarial phase search.
#[derive(Debug, Clone)]
pub struct PhaseSearchParams {
    /// Scale knobs shared with the scenario matrix (compression, rate
    /// scale, seed, queue, strategy override).
    pub scenario: ScenarioParams,
    /// Phase offsets to evaluate, in seconds on the *uncompressed* day
    /// (compression scales them inside the config, like every fault
    /// time).  Offset 0 — the nominal onset — is always evaluated, listed
    /// or not.
    pub offsets: Vec<f64>,
    /// Golden-section iterations refining the worst grid bracket
    /// (0 = grid sweep only).  Each iteration costs one sweep run.
    pub refine_iters: usize,
}

impl Default for PhaseSearchParams {
    fn default() -> Self {
        PhaseSearchParams {
            scenario: ScenarioParams::default(),
            // ±2h around the nominal 10:30 onset in half-hour steps: the
            // band where the outage window can straddle the 10:00 crowd.
            offsets: (-4..=4).map(|k| k as f64 * 1800.0).collect(),
            refine_iters: 0,
        }
    }
}

/// One evaluated phase offset.
#[derive(Debug, Clone, Copy)]
pub struct PhasePoint {
    /// The offset, in uncompressed seconds (the search coordinate).
    pub offset_secs: f64,
    /// Recovery time in the run's (compressed) coordinates.  When
    /// `recovered` is false this is the remaining virtual day after the
    /// window — the pessimistic score of a run that never got back.
    pub recovery_secs: f64,
    /// Whether utilisation actually regained 95% of the twin's.
    pub recovered: bool,
    /// Jobs placed and run at this phase.
    pub succeeded: usize,
    /// Jobs submitted (identical across phases — one shared trace).
    pub submitted: usize,
    /// Running jobs the outage killed at this phase.
    pub jobs_killed: u64,
}

/// Everything one [`search_worst_phase`] hunt produced.
#[derive(Debug, Clone)]
pub struct PhaseSearchReport {
    /// Every evaluated point, in evaluation order (grid first, then
    /// refinement).
    pub points: Vec<PhasePoint>,
    /// The nominal-onset point (offset 0).
    pub nominal: PhasePoint,
    /// The worst point found (maximum recovery time; first wins ties).
    pub worst: PhasePoint,
    /// How many of the points came from golden-section refinement.
    pub refined_evals: usize,
}

impl PhaseSearchReport {
    /// Worst-vs-nominal recovery ratio (∞ when the nominal onset recovers
    /// instantly but the worst phase does not).
    pub fn worst_over_nominal(&self) -> f64 {
        if self.nominal.recovery_secs > 0.0 {
            self.worst.recovery_secs / self.nominal.recovery_secs
        } else if self.worst.recovery_secs > 0.0 {
            f64::INFINITY
        } else {
            1.0
        }
    }
}

/// Runs the composed scenario at one phase offset and scores it against
/// the shared crowd twin.
fn eval_phase(offset_secs: f64, params: &ScenarioParams, twin: &DaySweepResult) -> PhasePoint {
    let cfg = outage_in_crowd_config(offset_secs, params);
    let (_, end) = outage_window(&cfg).expect("the composed scenario declares an outage window");
    let result = run_day_sweep(&cfg);
    let recovery = recovery_to_twin(&result, twin, end);
    let horizon = cfg.profile.horizon().as_secs_f64();
    PhasePoint {
        offset_secs,
        recovery_secs: recovery.unwrap_or((horizon - end).max(0.0)),
        recovered: recovery.is_some(),
        succeeded: result.succeeded,
        submitted: result.submitted,
        jobs_killed: result.jobs_killed,
    }
}

/// The shared twin: the crowd without the outage.  Every phase offset
/// replays this exact trace (the outage is a pure timeline fault), so one
/// run serves all evaluations.
fn crowd_twin(params: &ScenarioParams) -> DaySweepResult {
    let mut twin_cfg = outage_in_crowd_config(0.0, params);
    twin_cfg.faults = flatten_faults(&twin_cfg.faults)
        .into_iter()
        .filter(|f| matches!(f, FaultSpec::FlashCrowd { .. }))
        .collect();
    run_day_sweep(&twin_cfg)
}

/// Grid-sweeps the phase offsets (plus the nominal onset) and optionally
/// golden-section-refines the bracket around the worst grid point,
/// returning every evaluated point and the worst found.  One crowd-only
/// twin is run up front and shared by every evaluation.
pub fn search_worst_phase(p: &PhaseSearchParams) -> PhaseSearchReport {
    let twin = crowd_twin(&p.scenario);

    let mut offsets = p.offsets.clone();
    if !offsets.contains(&0.0) {
        offsets.push(0.0);
    }
    offsets.sort_by(|a, b| a.partial_cmp(b).expect("finite offsets"));
    offsets.dedup();

    let mut points = par_map(&offsets, |&o| eval_phase(o, &p.scenario, &twin));
    let nominal = *points
        .iter()
        .find(|pt| pt.offset_secs == 0.0)
        .expect("offset 0 is always evaluated");

    let worst_idx = |pts: &[PhasePoint]| {
        let mut best = 0usize;
        for (i, pt) in pts.iter().enumerate() {
            if pt.recovery_secs > pts[best].recovery_secs {
                best = i;
            }
        }
        best
    };

    // Golden-section refinement over the bracket spanned by the worst
    // grid point's neighbours.  Recovery vs phase is not unimodal in
    // general, but near a burst the worst basin is — and the grid sweep
    // already bounds how wrong a non-unimodal bracket can be (the grid
    // worst is kept regardless).
    let mut refined_evals = 0usize;
    if p.refine_iters > 0 && offsets.len() >= 2 {
        let wi = worst_idx(&points);
        let a = if wi > 0 { offsets[wi - 1] } else { offsets[wi] };
        let b = if wi + 1 < offsets.len() {
            offsets[wi + 1]
        } else {
            offsets[wi]
        };
        if b > a {
            let (mut lo, mut hi) = (a, b);
            let mut x1 = hi - INV_PHI * (hi - lo);
            let mut x2 = lo + INV_PHI * (hi - lo);
            let mut f1 = eval_phase(x1, &p.scenario, &twin);
            let mut f2 = eval_phase(x2, &p.scenario, &twin);
            points.push(f1);
            points.push(f2);
            refined_evals += 2;
            for _ in 0..p.refine_iters {
                if f1.recovery_secs >= f2.recovery_secs {
                    hi = x2;
                    x2 = x1;
                    f2 = f1;
                    x1 = hi - INV_PHI * (hi - lo);
                    f1 = eval_phase(x1, &p.scenario, &twin);
                    points.push(f1);
                } else {
                    lo = x1;
                    x1 = x2;
                    f1 = f2;
                    x2 = lo + INV_PHI * (hi - lo);
                    f2 = eval_phase(x2, &p.scenario, &twin);
                    points.push(f2);
                }
                refined_evals += 1;
            }
        }
    }

    let worst = points[worst_idx(&points)];
    PhaseSearchReport {
        points,
        nominal,
        worst,
        refined_evals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_parallel_grid_sweep_reports_what_a_serial_one_would() {
        let params = PhaseSearchParams {
            scenario: ScenarioParams {
                compress: 24.0,
                ..ScenarioParams::default()
            },
            // Unsorted, and without the nominal onset: the report lists the
            // grid in ascending order with offset 0 added.
            offsets: vec![1800.0, -3600.0, 3600.0],
            refine_iters: 0,
        };
        let report = search_worst_phase(&params);

        let twin = crowd_twin(&params.scenario);
        let serial: Vec<PhasePoint> = [-3600.0, 0.0, 1800.0, 3600.0]
            .iter()
            .map(|&o| eval_phase(o, &params.scenario, &twin))
            .collect();
        assert_eq!(format!("{:?}", report.points), format!("{serial:?}"));
        assert_eq!(format!("{:?}", report.nominal), format!("{:?}", serial[1]));
        let worst = serial.iter().fold(serial[0], |w, p| {
            if p.recovery_secs > w.recovery_secs {
                *p
            } else {
                w
            }
        });
        assert_eq!(format!("{:?}", report.worst), format!("{worst:?}"));
        assert_eq!(report.refined_evals, 0);
    }
}
