//! Tiny command-line flag helpers shared by the experiment binaries.

use std::str::FromStr;

/// Exits with status 2 on a flag error: a run launched with `--seed 2oo8`
/// or a trailing `--strategy` must not measure the default without a word.
fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// Returns the value following `flag` on the command line, `None` when the
/// flag is absent.  A flag [`flag_value_in`] rejects (it came last) ends
/// the process with status 2, like [`flag_parsed`].
pub fn flag_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    or_exit(flag_value_in(&args, flag))
}

/// Returns the value following `flag` in an explicit argument list:
/// `Ok(None)` when the flag is absent, an error naming the flag when it
/// came last and has no value.
pub fn flag_value_in(args: &[String], flag: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(value) => Ok(Some(value.clone())),
        None => Err(format!("missing value for {flag}")),
    }
}

/// Parses the value following `flag` in an explicit argument list:
/// `Ok(None)` when the flag is absent, an error naming the flag when its
/// value does not parse or is missing (the flag came last).
pub fn parse_flag_in<T: FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let value = args.get(i + 1).map_or("", String::as_str);
    match value.parse() {
        Ok(parsed) => Ok(Some(parsed)),
        Err(_) => Err(format!("invalid {flag} value {value:?}")),
    }
}

/// Parses the value following `flag` on the command line, `None` when the
/// flag is absent.  A value [`parse_flag_in`] rejects ends the process with
/// status 2.
pub fn flag_parsed<T: FromStr>(flag: &str) -> Option<T> {
    let args: Vec<String> = std::env::args().collect();
    or_exit(parse_flag_in(&args, flag))
}

/// Parses the value following `flag` as a `u64` (see [`flag_parsed`]).
pub fn flag_u64(flag: &str) -> Option<u64> {
    flag_parsed(flag)
}

/// Parses the value following `flag` as an `f64` (see [`flag_parsed`]).
pub fn flag_f64(flag: &str) -> Option<f64> {
    flag_parsed(flag)
}

/// True if `flag` appears on the command line.
pub fn flag_present(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// Sweep flags shared by the Figure 4 binaries.
pub struct SweepFlags {
    /// `--modeled`: cost collectives with the analytical LogGP backend.
    pub modeled: bool,
    /// `--ranks a,b,c`: process counts overriding the paper's defaults.
    pub ranks: Option<Vec<u32>>,
    /// `--scale K`: Table-1 grid scale factor for modeled sweeps
    /// (default: just large enough for the largest count).
    pub scale: Option<usize>,
    /// `--searched`: add a third curve with the placement found by the
    /// annealing search (implies `--modeled` for that curve; tune with
    /// `--moves` / `--chains` / `--seed`).
    pub searched: bool,
    /// `--moves N`: annealing moves per search chain.
    pub moves: Option<u64>,
    /// `--chains N`: parallel search chains.
    pub chains: Option<u32>,
    /// `--seed N`: master seed of the search.
    pub seed: Option<u64>,
}

impl SweepFlags {
    /// The backend name for experiment headers.
    pub fn backend_name(&self) -> &'static str {
        if self.modeled {
            "modeled"
        } else {
            "executed"
        }
    }

    /// The search parameters selected by `--moves`/`--chains`/`--seed`,
    /// starting from the kernel's own default move budget
    /// ([`crate::search::SearchParams::default_for`]) — a `fig4_is
    /// --searched` run must not inherit EP's 4 000-move sweep default.
    pub fn search_params(
        &self,
        kernel: crate::experiments::Fig4Kernel,
    ) -> crate::search::SearchParams {
        let default = crate::search::SearchParams::default_for(kernel);
        crate::search::SearchParams {
            moves: self.moves.unwrap_or(default.moves),
            chains: self.chains.unwrap_or(default.chains),
            seed: self.seed.unwrap_or(default.seed),
        }
    }
}

/// Parses the `--modeled` / `--ranks` / `--scale` / `--searched` (and its
/// `--moves` / `--chains` / `--seed`) flags.
pub fn sweep_flags() -> SweepFlags {
    SweepFlags {
        modeled: flag_present("--modeled"),
        ranks: flag_value("--ranks").map(|v| parse_u32_list(&v, "--ranks")),
        scale: flag_u64("--scale").map(|s| s as usize),
        searched: flag_present("--searched"),
        moves: flag_u64("--moves"),
        chains: flag_u64("--chains").map(|c| c as u32),
        seed: flag_u64("--seed"),
    }
}

/// Parses a comma-separated list of `u32`s, panicking with the flag name on
/// malformed input.
pub fn parse_u32_list(value: &str, flag: &str) -> Vec<u32> {
    value
        .split(',')
        .map(|n| {
            n.parse()
                .unwrap_or_else(|_| panic!("{flag} takes comma-separated counts, got {n:?}"))
        })
        .collect()
}

/// Parses a comma-separated list of `f64`s, panicking with the flag name on
/// malformed input (the `fault_search` `--offsets` list).
pub fn parse_f64_list(value: &str, flag: &str) -> Vec<f64> {
    value
        .split(',')
        .map(|n| {
            n.parse()
                .unwrap_or_else(|_| panic!("{flag} takes comma-separated numbers, got {n:?}"))
        })
        .collect()
}

/// Flags of the `sweep` ablation subcommands (`latency-ranking`,
/// `overbooking`, `contention`), parsed once like [`sweep_flags`] is for the
/// Figure 4 binaries.
pub struct AblationFlags {
    /// `--sigma S`: probe-noise sigma for `latency-ranking` (overrides the
    /// built-in sigma ladder with a single value).
    pub sigma: Option<f64>,
    /// `--churn F`: crashed-peer fraction for `overbooking` (default 0.15).
    pub churn: f64,
    /// `--processes N`: demanded process count (`overbooking` default 300,
    /// `contention` default 128).
    pub processes: Option<u32>,
    /// `--seed N`: master seed (default 2008).
    pub seed: u64,
}

/// Parses the `--sigma` / `--churn` / `--processes` / `--seed` flags.
pub fn ablation_flags() -> AblationFlags {
    AblationFlags {
        sigma: flag_f64("--sigma"),
        churn: flag_f64("--churn").unwrap_or(0.15),
        processes: flag_u64("--processes").map(|n| n as u32),
        seed: flag_u64("--seed").unwrap_or(2008),
    }
}

/// Flags of the `fig23_sweep` day-trace binary.
pub struct DaySweepFlags {
    /// `--strategy concentrate|spread|searched|both|all`: which runs to
    /// perform (default both, like Figures 2 and 3 side by side; `all`
    /// adds the search-guided run to the pair).
    pub strategy: String,
    /// `--search-moves N`: annealing move budget per arrival (default 300).
    pub search_moves: Option<u64>,
    /// `--seed N`: master seed (default 2008).
    pub seed: u64,
    /// `--compress F`: replay the day's shape in `1/F` of the virtual time
    /// (rates scaled up to preserve the job count).
    pub compress: Option<f64>,
    /// `--rate-scale F`: multiply every arrival rate (job count scales).
    pub rate_scale: Option<f64>,
    /// `--duration-scale F`: multiply each job's modeled hold duration.
    pub duration_scale: Option<f64>,
    /// `--sample-secs S`: utilisation sample period (default 300).
    pub sample_secs: Option<u64>,
    /// `--ranks a,b,c`: rank palette jobs draw from (default 8,32,64,128,
    /// the `JobMix::default` palette).
    pub ranks: Option<Vec<u32>>,
    /// `--churn F`: enable the dead-peer flapping scenario with fraction
    /// `F` of peers on the default down/up cycle (timeout-heavy trace).
    pub churn: Option<f64>,
}

/// Parses the `fig23_sweep` flags.
pub fn day_sweep_flags() -> DaySweepFlags {
    DaySweepFlags {
        strategy: flag_value("--strategy").unwrap_or_else(|| "both".to_string()),
        search_moves: flag_u64("--search-moves"),
        seed: flag_u64("--seed").unwrap_or(2008),
        compress: flag_f64("--compress"),
        rate_scale: flag_f64("--rate-scale"),
        duration_scale: flag_f64("--duration-scale"),
        sample_secs: flag_u64("--sample-secs"),
        ranks: flag_value("--ranks").map(|v| parse_u32_list(&v, "--ranks")),
        churn: flag_f64("--churn"),
    }
}

/// Flags of the `week_sweep` sharded-driver binary.
pub struct WeekSweepFlags {
    /// `--shards N`: number of site-aligned shards (default 4).
    pub shards: usize,
    /// `--days N`: how many paper days to tile into the trace (default 7).
    pub days: usize,
    /// `--cross-fraction F`: fraction of jobs brokered cross-shard at
    /// synchronization barriers (default 0.05).
    pub cross_fraction: f64,
    /// `--strategy concentrate|spread`: allocation strategy (default
    /// spread — cross-shard splits exercise more than one site).
    pub strategy: String,
    /// `--seed N`: master seed (default 2008).
    pub seed: u64,
    /// `--compress F`: replay the trace's shape in `1/F` of the virtual
    /// time.
    pub compress: Option<f64>,
    /// `--rate-scale F`: multiply every arrival rate (job count scales).
    pub rate_scale: Option<f64>,
    /// `--sequential`: run the shard timelines on one thread (the
    /// bit-identical speedup baseline).
    pub sequential: bool,
    /// `--baseline`: additionally run the single-thread driver and report
    /// the parallel speedup.
    pub baseline: bool,
}

/// Parses the `week_sweep` flags.
pub fn week_sweep_flags() -> WeekSweepFlags {
    WeekSweepFlags {
        shards: flag_u64("--shards").unwrap_or(4) as usize,
        days: flag_u64("--days").unwrap_or(7) as usize,
        cross_fraction: flag_f64("--cross-fraction").unwrap_or(0.05),
        strategy: flag_value("--strategy").unwrap_or_else(|| "spread".to_string()),
        seed: flag_u64("--seed").unwrap_or(2008),
        compress: flag_f64("--compress"),
        rate_scale: flag_f64("--rate-scale"),
        sequential: flag_present("--sequential"),
        baseline: flag_present("--baseline"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_value_in_finds_following_token() {
        let args: Vec<String> = ["prog", "--seed", "42", "--strategy"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        // Present, absent, and last on the line with nothing to read.
        assert_eq!(flag_value_in(&args, "--seed"), Ok(Some("42".to_string())));
        assert_eq!(flag_value_in(&args, "--sigma"), Ok(None));
        assert_eq!(
            flag_value_in(&args, "--strategy"),
            Err("missing value for --strategy".to_string())
        );
    }

    #[test]
    fn a_flag_value_parses_or_names_its_flag() {
        let args: Vec<String> = ["prog", "--seed", "2008", "--compress", "12x", "--moves"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(parse_flag_in::<u64>(&args, "--seed"), Ok(Some(2008)));
        assert_eq!(parse_flag_in::<f64>(&args, "--seed"), Ok(Some(2008.0)));
        assert_eq!(
            parse_flag_in::<f64>(&args, "--compress"),
            Err(r#"invalid --compress value "12x""#.to_string())
        );
        // A flag given last has no value to fall back from.
        assert_eq!(
            parse_flag_in::<u64>(&args, "--moves"),
            Err(r#"invalid --moves value """#.to_string())
        );
        assert_eq!(parse_flag_in::<u64>(&args, "--chains"), Ok(None));
    }
}
