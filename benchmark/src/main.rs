//! Command line of the repo benchmark.
//!
//! With `--workload` it is one run of one workload, as the driver's contract
//! asks: records on the way, the result object as the last line of standard
//! output.  Without it, it runs the whole set — every workload in a process
//! of its own, end to end and traced — and prints one report.

use p2pmpi_benchmark::contract::{benchmark_json, END_TO_END, RUN_SECONDS};
use p2pmpi_benchmark::json::{self, Value};
use p2pmpi_benchmark::run::{run, Options};
use p2pmpi_benchmark::workloads::{Workload, ALL};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: p2pmpi-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] \
[--trace <0|1>] [--smoke] [--check-repeat] [--spans <path>] [--print-contract]

  --workload <name>  run one workload and end with the result object; without
                     it, run every workload (each in its own process)
  --seed <n>         seed of every generated input (default 2008)
  --seconds <s>      how long one run keeps repeating (default 10)
  --trace <0|1>      0: end-to-end metrics, tracing off; 1: per-layer metrics
  --smoke            one repetition at 5% of the arrivals (IS@128 for the search)
  --check-repeat     whole set only: run the end-to-end set twice and fail
                     unless every metric agrees within its bound
  --spans <path>     where --trace 1 writes its spans
                     (default benchmark/out/spans-<workload>.jsonl)
  --print-contract   print the text of BENCHMARK.json and exit";

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    check_repeat: bool,
    spans: Option<PathBuf>,
    print_contract: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 2008,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        check_repeat: false,
        spans: None,
        print_contract: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds >= 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must lie in 0..=600".to_string());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--spans" => cli.spans = Some(PathBuf::from(value()?)),
            "--smoke" => cli.smoke = true,
            "--check-repeat" => cli.check_repeat = true,
            "--print-contract" => cli.print_contract = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if cli.check_repeat && cli.workload.is_some() {
        return Err("--check-repeat compares whole sets; drop --workload".to_string());
    }
    Ok(cli)
}

/// Runs one workload in a process of its own (so `peak_rss_mb` is that
/// workload's alone), relays its records and returns its result line, as
/// printed and parsed.
fn child(cli: &Cli, workload: Workload, trace: bool) -> Result<(String, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if cli.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end; its standard error passes through.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    if !out.status.success() {
        return Err(format!(
            "{} (trace {}) exited with {}",
            workload.name(),
            u8::from(trace),
            out.status
        ));
    }
    let last = stdout.lines().last().ok_or("the run printed nothing")?;
    let result = json::parse(last)
        .map_err(|e| format!("{}: result line is not JSON: {e}", workload.name()))?;
    Ok((last.to_string(), result))
}

fn metric(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// The disagreements between two end-to-end sets of the same commit: a
/// simulated metric that is not bit-identical, or a measured one further
/// from the first set's than its bound.
fn repeat_disagreements(first: &[(String, Value)], second: &[(String, Value)]) -> Vec<String> {
    let mut out = Vec::new();
    for ((workload, (_, a)), (_, b)) in ALL.iter().zip(first).zip(second) {
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (metric(a, m.name), metric(b, m.name)) else {
                out.push(format!("{}: {} is missing", workload.name(), m.name));
                continue;
            };
            let simulated = matches!(m.name, "placed_share" | "mean_hold_s");
            let apart = (y - x).abs() / x.abs();
            if (simulated && x != y) || apart > m.bound {
                out.push(format!(
                    "{}: {} read {x} then {y} ({:.1}% apart, bound {:.0}%{})",
                    workload.name(),
                    m.name,
                    apart * 100.0,
                    m.bound * 100.0,
                    if simulated {
                        ", simulated: must repeat exactly"
                    } else {
                        ""
                    },
                ));
            }
        }
    }
    out
}

/// Runs the whole set and prints the report; the last line ends with
/// `"claim": null` — the benchmark measures, it claims nothing.
fn whole_set(cli: &Cli) -> Result<bool, String> {
    let set = |trace: bool| -> Result<Vec<(String, Value)>, String> {
        ALL.iter().map(|&w| child(cli, w, trace)).collect()
    };
    // Each set walks all six workloads, so the two runs of one workload
    // that --check-repeat compares are a whole set apart in time.
    let end_to_end = set(false)?;
    let disagreements = if cli.check_repeat {
        Some(repeat_disagreements(&end_to_end, &set(false)?))
    } else {
        None
    };
    let per_layer = set(true)?;

    let all_correct = end_to_end
        .iter()
        .chain(&per_layer)
        .all(|(_, r)| r.get("correct") == Some(&Value::Bool(true)));
    // Each workload's two result lines, as its runs printed them.
    let rows = ALL
        .iter()
        .zip(&end_to_end)
        .zip(&per_layer)
        .map(|((w, (e, _)), (p, _))| {
            (
                w.name(),
                json::object([("end_to_end", e.clone()), ("per_layer", p.clone())]),
            )
        });
    let report = json::object([
        ("workloads", json::object(rows)),
        ("correct", all_correct.to_string()),
        (
            "check_repeat",
            disagreements.as_ref().map_or("null".to_string(), |d| {
                json::object([
                    ("agree", d.is_empty().to_string()),
                    (
                        "disagreements",
                        json::array(d.iter().map(|s| json::string(s))),
                    ),
                ])
            }),
        ),
        ("claim", "null".to_string()),
    ]);
    println!("{report}");
    for d in disagreements.iter().flatten() {
        eprintln!("REPEAT: {d}");
    }
    Ok(all_correct && disagreements.is_none_or(|d| d.is_empty()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.print_contract {
        print!("{}", benchmark_json());
        return ExitCode::SUCCESS;
    }
    let ok = match cli.workload {
        Some(workload) => {
            let spans = cli.spans.clone().unwrap_or_else(|| {
                PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                    .join("out")
                    .join(format!("spans-{}.jsonl", workload.name()))
            });
            let outcome = run(&Options {
                workload,
                seed: cli.seed,
                seconds: cli.seconds,
                trace: cli.trace,
                smoke: cli.smoke,
                spans,
            });
            println!("{}", outcome.to_json());
            outcome.correct
        }
        None => match whole_set(&cli) {
            Ok(ok) => ok,
            Err(e) => {
                eprintln!("{e}");
                false
            }
        },
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
