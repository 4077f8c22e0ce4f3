//! One run of one workload: the untraced end-to-end pass (`--trace 0`) or
//! the traced per-layer pass (`--trace 1`).  A closed loop on one driver
//! thread: the next repetition starts when the previous one returns.

use crate::contract::{END_TO_END, PER_LAYER};
use crate::json;
use crate::probes::{ep256_probe, is1024_probe, queue_probes};
use crate::stats::{median, peak_rss_mb, quartiles, HostWitness, Quartiles};
use crate::traced::{traced_day, Spans};
use crate::workloads::{
    run_headline, run_setup, search_defects, setup_total, Fingerprint, Plan, Workload,
};
use p2pmpi_bench::shard::run_shard_sweep;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// What to run.
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long to keep repeating, in host seconds.
    pub seconds: f64,
    /// Traced per-layer pass instead of the end-to-end pass.
    pub trace: bool,
    /// One repetition at 5% of the arrivals.
    pub smoke: bool,
    /// Where the traced pass writes its spans.
    pub spans: PathBuf,
}

/// What a run measured.
pub struct Outcome {
    /// Whether every output check passed.
    pub correct: bool,
    /// Jobs submitted across the timed repetitions.
    pub attempted: u64,
    /// Jobs of repetitions whose simulated statistics did not reproduce.
    pub failed: u64,
    /// `(name, value, unit)` of every metric of the pass, in contract order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// The result line the contract asks for.
    pub fn to_json(&self) -> String {
        let metrics = self.metrics.iter().map(|&(name, value, unit)| {
            (
                name,
                json::object([("value", json::num(value)), ("unit", json::string(unit))]),
            )
        });
        json::object([
            ("correct", self.correct.to_string()),
            ("attempted", self.attempted.to_string()),
            ("failed", self.failed.to_string()),
            ("metrics", json::object(metrics)),
        ])
    }
}

/// A group of set-ups is timed before every repetition: at least this many ...
const SETUP_GROUP_MIN: usize = 3;
/// ... then more until the group has taken this long ...
const SETUP_GROUP_S: f64 = 0.05;
/// ... but never more than this.  A sweep's set-up takes a millisecond and
/// gets all 25; the offline search's cold evaluator build takes 60 ms and
/// gets 3.
const SETUP_GROUP_MAX: usize = 25;
/// Fewest timed repetitions of a run, however long one takes.
const MIN_REPS: usize = 3;
/// Repetitions a run goes on to if they fit in twice `--seconds`: the spins
/// around a repetition of several seconds miss what the host did during it,
/// and the median of five shrugs off such a repetition where the median of
/// three does not.
const STEADY_REPS: usize = 5;
/// Fewest traced passes of a run (a `week_sharded` pass takes 20 s).
const MIN_PASSES: usize = 2;

fn quartiles_json(q: &Quartiles) -> String {
    json::object([
        ("q1", json::num(q.q1)),
        ("median", json::num(q.median)),
        ("q3", json::num(q.q3)),
        ("n", q.n.to_string()),
    ])
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The part of the run record known before measuring: what ran, on what.
fn record_head(opts: &Options) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    // Only where the working directory is itself a git checkout: the driver's
    // is not, and git would otherwise climb out of it looking for one.
    let commit = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    vec![
        ("workload", json::string(opts.workload.name())),
        ("seed", opts.seed.to_string()),
        ("trace", u8::from(opts.trace).to_string()),
        ("smoke", opts.smoke.to_string()),
        ("seconds", json::num(opts.seconds)),
        ("commit", json::string(&commit)),
        ("rustc", json::string(&command_line("rustc", &["-V"]))),
        ("nproc", nproc.to_string()),
    ]
}

/// Runs `opts` and prints the run record and the `sim_fingerprint` on the
/// way; the caller prints the result line last.
pub fn run(opts: &Options) -> Outcome {
    let plan = opts.workload.plan(opts.seed, opts.smoke);
    if opts.trace {
        per_layer(opts, &plan)
    } else {
        end_to_end(opts, &plan)
    }
}

/// Times one group of set-ups.
fn setup_group(plan: &Plan, smoke: bool) -> Vec<f64> {
    let (min, budget_s) = if smoke {
        (1, 0.0)
    } else {
        (SETUP_GROUP_MIN, SETUP_GROUP_S)
    };
    let mut group = Vec::new();
    let started = Instant::now();
    while group.len() < min
        || (group.len() < SETUP_GROUP_MAX && started.elapsed().as_secs_f64() < budget_s)
    {
        group.push(setup_total(&run_setup(plan)));
    }
    group
}

fn end_to_end(opts: &Options, plan: &Plan) -> Outcome {
    let mut defects: Vec<String> = Vec::new();
    let (min_reps, seconds) = if opts.smoke {
        (1, 0.0)
    } else {
        (MIN_REPS, opts.seconds)
    };
    let threads = opts.workload.threads();

    // One untimed repetition first: it fills caches and fixes the
    // statistics every timed repetition must reproduce.
    let reference = run_headline(plan);
    if let (Plan::Search(search), Some(report)) = (plan, &reference.search) {
        defects.extend(search_defects(search, report));
    }
    let fp = reference.fingerprint;

    // Every measurement sits between two spins, which give the host's speed
    // around it: spin, set-up group, spin, repetition, spin, set-up group...
    let mut witness = HostWitness::new(threads);
    let (mut setups, mut setups_raw) = (Vec::new(), Vec::new());
    let (mut walls, mut walls_raw) = (Vec::new(), Vec::new());
    let mut failed = 0u64;
    let started = Instant::now();
    let more = |done: usize, elapsed_s: f64| {
        done < min_reps || elapsed_s < seconds || (done < STEADY_REPS && elapsed_s < 2.0 * seconds)
    };
    while more(walls.len(), started.elapsed().as_secs_f64()) {
        let group = witness.around(|| setup_group(plan, opts.smoke));
        setups.extend(group.out.iter().map(|s| s * group.speed));
        setups_raw.extend(group.out);

        let rep = witness.around(|| run_headline(plan));
        walls.push(rep.reference_s());
        walls_raw.push(rep.raw_s);
        if rep.out.fingerprint != fp {
            failed += rep.out.fingerprint.submitted;
            defects.push(format!(
                "repetition {} did not reproduce the first: {:?} vs {:?}",
                walls.len(),
                rep.out.fingerprint,
                fp
            ));
        }
    }

    let wall = quartiles(&walls);
    let setup = quartiles(&setups);
    let values = [
        ("setup_s", setup.median),
        ("wall_s", wall.median),
        ("jobs_per_s", fp.submitted as f64 / wall.median),
        (
            "peak_rss_mb",
            peak_rss_mb().expect("VmHWM is readable from /proc/self/status on Linux"),
        ),
        ("placed_share", fp.placed_share()),
        ("mean_hold_s", fp.mean_hold_s()),
    ];
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let (_, value) = values
                .iter()
                .find(|(name, _)| *name == m.name)
                .expect("every end-to-end metric is measured");
            (m.name, *value, m.unit)
        })
        .collect();
    let numbers = |v: &[f64]| json::array(v.iter().map(|&x| json::num(x)));
    let record = vec![
        ("reps", walls.len().to_string()),
        ("wall_s", quartiles_json(&wall)),
        ("setup_s", quartiles_json(&setup)),
        ("raw_wall_s", quartiles_json(&quartiles(&walls_raw))),
        ("raw_setup_s", quartiles_json(&quartiles(&setups_raw))),
        ("rep_wall_s", numbers(&walls)),
        ("rep_raw_wall_s", numbers(&walls_raw)),
        ("spin_threads", threads.to_string()),
        ("spin_s", numbers(witness.spins())),
    ];
    finish(
        opts,
        &fp,
        &defects,
        fp.submitted * walls.len() as u64,
        failed,
        metrics,
        record,
    )
}

/// One traced pass of a workload: its metrics by name (host times already
/// in reference seconds), its simulated statistics, and (for days) the span
/// log.
struct Pass {
    metrics: Vec<(&'static str, f64)>,
    fingerprint: Fingerprint,
    spans: Option<Spans>,
}

/// Converts the host times and rates among `metrics` to reference seconds.
/// Counts, ratios and virtual times pass through.
fn to_reference(mut metrics: Vec<(&'static str, f64)>, speed: f64) -> Vec<(&'static str, f64)> {
    for (name, value) in &mut metrics {
        let unit = PER_LAYER
            .iter()
            .find(|m| m.name == *name)
            .unwrap_or_else(|| panic!("a pass measured {name}, which BENCHMARK.json does not list"))
            .unit;
        match unit {
            "s" | "ms" | "us" | "ns" => *value *= speed,
            "1/s" => *value /= speed,
            _ => {}
        }
    }
    metrics
}

fn traced_pass(
    workload: Workload,
    plan: &Plan,
    witness: &mut HostWitness,
    defects: &mut Vec<String>,
) -> Pass {
    match plan {
        Plan::Day(cfg) => {
            // A plain repetition right beside the traced one: the pair gives
            // the tracing overhead and the statistics the copy must match.
            let plain = witness.around(|| run_headline(plan));
            let traced = witness.around(|| {
                let pass = traced_day(cfg);
                let probes = if workload == Workload::DaySearched {
                    ep256_probe()
                } else {
                    queue_probes(cfg.queue)
                };
                (pass, probes)
            });
            let (pass, probes) = traced.out;
            if pass.fingerprint != plain.out.fingerprint {
                defects.push(format!(
                    "the traced driver diverged from run_day_sweep: {:?} vs {:?}",
                    pass.fingerprint, plain.out.fingerprint
                ));
            }
            let mut metrics = pass.metrics();
            metrics.extend(probes);
            let mut metrics = to_reference(metrics, traced.speed);
            metrics.push((
                "bench.trace_overhead",
                pass.wall_s() * traced.speed / plain.reference_s() - 1.0,
            ));
            Pass {
                metrics,
                fingerprint: pass.fingerprint,
                spans: Some(pass.spans),
            }
        }
        Plan::Search(search) => {
            let probe = witness.around(|| is1024_probe(search));
            Pass {
                metrics: to_reference(probe.out, probe.speed),
                fingerprint: Fingerprint {
                    submitted: 1,
                    succeeded: 1,
                    ..Fingerprint::default()
                },
                spans: None,
            }
        }
        Plan::Week(cfg) => {
            let parallel = witness.around(|| (run_setup(plan), run_shard_sweep(cfg)));
            let mut one_thread = cfg.clone();
            one_thread.parallel = false;
            let sequential = witness.around(|| run_shard_sweep(&one_thread));
            let (setup, sweep) = parallel.out;
            let fingerprint = Fingerprint::of_day(&sweep.merged);
            if fingerprint != Fingerprint::of_day(&sequential.out.merged) {
                defects.push(format!(
                    "the parallel sharded sweep diverged from parallel = false: {:?} vs {:?}",
                    fingerprint,
                    Fingerprint::of_day(&sequential.out.merged)
                ));
            }
            let parallel_s = sweep.wall.as_secs_f64();
            let sequential_s = sequential.out.wall.as_secs_f64() * sequential.speed;
            let mut metrics = setup;
            metrics.extend([
                ("simgrid.events", fingerprint.events as f64),
                (
                    "simgrid.events_per_s",
                    fingerprint.events as f64 / parallel_s,
                ),
                ("core.placed", fingerprint.succeeded as f64),
                ("core.refused", fingerprint.failed as f64),
                ("core.rs_dead", fingerprint.timeouts as f64),
                ("bench.shard_parallel_s", parallel_s),
                ("bench.shard_barriers", sweep.barriers as f64),
                (
                    "bench.shard_cross_placed_share",
                    sweep.cross_succeeded as f64 / sweep.cross_submitted.max(1) as f64,
                ),
            ]);
            let mut metrics = to_reference(metrics, parallel.speed);
            metrics.extend([
                ("bench.shard_sequential_s", sequential_s),
                (
                    "bench.shard_speedup",
                    sequential_s / (parallel_s * parallel.speed),
                ),
            ]);
            Pass {
                metrics,
                fingerprint,
                spans: None,
            }
        }
    }
}

fn per_layer(opts: &Options, plan: &Plan) -> Outcome {
    let mut defects: Vec<String> = Vec::new();
    let (min_passes, seconds) = if opts.smoke {
        (1, 0.0)
    } else {
        (MIN_PASSES, opts.seconds)
    };
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut spans = None;
    let (mut passes, mut attempted, mut failed) = (0usize, 0u64, 0u64);
    let mut reference: Option<Fingerprint> = None;
    let mut witness = HostWitness::new(opts.workload.threads());
    let started = Instant::now();
    while passes < min_passes || started.elapsed().as_secs_f64() < seconds {
        let before = defects.len();
        let pass = traced_pass(opts.workload, plan, &mut witness, &mut defects);
        let first = *reference.get_or_insert(pass.fingerprint);
        if first != pass.fingerprint {
            defects.push(format!("pass {} did not reproduce the first", passes + 1));
        }
        passes += 1;
        attempted += pass.fingerprint.submitted;
        if defects.len() > before {
            failed += pass.fingerprint.submitted;
        }
        for (name, value) in pass.metrics {
            samples.entry(name).or_default().push(value);
        }
        spans = pass.spans.or(spans);
    }

    if let Some(spans) = &spans {
        if let Err(e) = spans.write_jsonl(&opts.spans) {
            defects.push(format!("writing spans to {}: {e}", opts.spans.display()));
        }
    }
    // A metric that does not apply to this workload reads 0.
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            (
                m.name,
                samples.get(m.name).map_or(0.0, |v| median(v)),
                m.unit,
            )
        })
        .collect();
    let record = vec![
        ("passes", passes.to_string()),
        (
            "spin_s",
            json::array(witness.spins().iter().map(|&s| json::num(s))),
        ),
        (
            "spans",
            spans.map_or("null".to_string(), |_| {
                json::string(&opts.spans.display().to_string())
            }),
        ),
    ];
    let fp = reference.expect("at least one pass ran");
    finish(opts, &fp, &defects, attempted, failed, metrics, record)
}

/// Prints the run record and the fingerprint, and assembles the outcome.
fn finish(
    opts: &Options,
    fp: &Fingerprint,
    defects: &[String],
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    record: Vec<(&'static str, String)>,
) -> Outcome {
    for d in defects {
        eprintln!("DEFECT [{}]: {d}", opts.workload.name());
    }
    let mut fields = record_head(opts);
    fields.extend(record);
    fields.push((
        "defects",
        json::array(defects.iter().map(|d| json::string(d))),
    ));
    println!("{}", json::object([("run_record", json::object(fields))]));
    println!(
        "{}",
        json::object([
            ("workload", json::string(opts.workload.name())),
            ("sim_fingerprint", fp.to_json()),
        ])
    );
    Outcome {
        correct: defects.is_empty(),
        attempted,
        failed,
        metrics,
    }
}
