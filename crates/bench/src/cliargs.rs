//! The one command-line parser of the experiment binaries: subcommand
//! words, then `--flag [value]` pairs checked against the flags the binary
//! knows.  Every error names its flag; the binaries print it and exit 2, so
//! a typo in a launch line fails instead of measuring a default.

use std::fmt::Display;
use std::str::FromStr;

/// A parsed command line: its leading words and the flags given.
#[derive(Debug)]
pub struct Args {
    /// The words before the first flag (`paper ablation contention` gives
    /// `["ablation", "contention"]`).
    pub(crate) words: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses `args` (without the program name).  `switches` (no value) and
    /// `valued` (take the next token) are whitespace-separated flag lists;
    /// any other flag, a valued flag given last, or a word after the first
    /// flag is an error.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        switches: &str,
        valued: &str,
    ) -> Result<Args, String> {
        let mut args = args.into_iter().peekable();
        let mut words = Vec::new();
        while let Some(word) = args.next_if(|a| !a.starts_with("--")) {
            words.push(word);
        }
        let mut flags = Vec::new();
        while let Some(flag) = args.next() {
            let value = if listed(switches, &flag) {
                None
            } else if listed(valued, &flag) {
                let missing = || format!("missing value for {flag}");
                Some(args.next().ok_or_else(missing)?)
            } else if flag.starts_with("--") {
                return Err(format!("unknown flag {flag}"));
            } else {
                return Err(format!("unexpected argument {flag:?}"));
            };
            flags.push((flag, value));
        }
        Ok(Args { words, flags })
    }

    /// Word `i`, which must be one of `known`.
    pub fn word(&self, i: usize, known: &[&str]) -> Result<&str, String> {
        let expected = known.join("|");
        match self.words.get(i) {
            None => Err(format!("missing subcommand (expected {expected})")),
            Some(w) if known.contains(&w.as_str()) => Ok(w),
            Some(w) => Err(format!("unknown subcommand {w:?} (expected {expected})")),
        }
    }

    /// Checks that `context` got at most `words` words and only flags the
    /// whitespace-separated `allowed` lists: a flag meant for another
    /// subcommand or mode is an error.
    pub fn only(&self, words: usize, allowed: &str, context: &str) -> Result<(), String> {
        if let Some(extra) = self.words.get(words) {
            return Err(format!("unexpected argument {extra:?} to {context}"));
        }
        match self.flags.iter().find(|(f, _)| !listed(allowed, f)) {
            Some((flag, _)) => Err(format!("{flag} does not apply to {context}")),
            None => Ok(()),
        }
    }

    /// True if `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        let given = self.flags.iter().find(|(f, _)| f == flag);
        given.and_then(|(_, v)| v.as_deref())
    }

    /// The value of `flag` parsed as `T`: `Ok(None)` when absent, an error
    /// naming the flag and quoting the parse error when it does not parse.
    pub fn get<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        let parse = |v: &str| {
            v.parse()
                .map_err(|e| format!("invalid {flag} value {v:?}: {e}"))
        };
        self.value(flag).map(parse).transpose()
    }

    /// The value of `flag` as a comma-separated list of `T`, erroring on
    /// the first element that does not parse.
    pub fn list<T: FromStr>(&self, flag: &str) -> Result<Option<Vec<T>>, String>
    where
        T::Err: Display,
    {
        let bad = |n: &str, e: T::Err| format!("invalid {flag} element {n:?}: {e}");
        let parse = |v: &str| {
            v.split(',')
                .map(|n| n.parse().map_err(|e| bad(n, e)))
                .collect()
        };
        self.value(flag).map(parse).transpose()
    }
}

/// `value` when it is finite and >= 0, else an error naming `flag`.
pub fn non_negative(flag: &str, value: f64) -> Result<f64, String> {
    if value.is_finite() && value >= 0.0 {
        Ok(value)
    } else {
        Err(format!("{flag} must be finite and >= 0, got {value}"))
    }
}

/// True if the whitespace-separated `list` holds `flag`.
fn listed(list: &str, flag: &str) -> bool {
    list.split_whitespace().any(|f| f == flag)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let tokens = line.split_whitespace().map(str::to_string);
        Args::parse(tokens, "--modeled --baseline", "--seed --ranks --refine")
    }

    #[test]
    fn flag_value_in_finds_following_token() {
        let args = parse("ablation contention --seed 42 --modeled").unwrap();
        assert_eq!(args.words, ["ablation", "contention"]);
        assert_eq!(args.word(1, &["contention"]), Ok("contention"));
        assert_eq!(args.get::<u64>("--seed"), Ok(Some(42)));
        assert_eq!(args.get::<u64>("--refine"), Ok(None));
        assert!(args.has("--modeled") && !args.has("--baseline"));
        assert_eq!(args.only(2, "--seed --modeled", "contention"), Ok(()));
        // A flag another subcommand or mode takes, and a stray word.
        let err = |r: Result<(), String>| r.unwrap_err();
        let not_here = err(args.only(2, "--seed", "contention"));
        assert_eq!(not_here, "--modeled does not apply to contention");
        let stray = err(args.only(1, "--seed --modeled", "ablation"));
        assert_eq!(stray, r#"unexpected argument "contention" to ablation"#);
        // A missing or unknown subcommand.
        let missing = err(parse("--seed 1").unwrap().word(0, &["fig2"]).map(drop));
        assert_eq!(missing, "missing subcommand (expected fig2)");
        let unknown = err(args.word(0, &["fig2", "fig3"]).map(drop));
        assert_eq!(
            unknown,
            r#"unknown subcommand "ablation" (expected fig2|fig3)"#
        );
        // A valued flag given last, a misspelt or retired flag, a word after
        // the flags.
        let err = |line| parse(line).unwrap_err();
        assert_eq!(err("fig4 --seed"), "missing value for --seed");
        assert_eq!(err("--rate-scal 0.05"), "unknown flag --rate-scal");
        assert_eq!(err("--sequential"), "unknown flag --sequential");
        assert_eq!(err("--modeled fig4"), r#"unexpected argument "fig4""#);
    }

    #[test]
    fn a_flag_value_parses_or_names_its_flag() {
        let args = parse("--seed 2oo8 --ranks 8,x --refine 2").unwrap();
        let seed = args.get::<u64>("--seed").unwrap_err();
        assert_eq!(
            seed,
            r#"invalid --seed value "2oo8": invalid digit found in string"#
        );
        assert_eq!(args.get::<f64>("--refine"), Ok(Some(2.0)));
        let ranks = args.list::<u32>("--ranks").unwrap_err();
        assert_eq!(
            ranks,
            r#"invalid --ranks element "x": invalid digit found in string"#
        );
        let args = parse("--ranks 8,32,128 --refine -3600,1800.5").unwrap();
        assert_eq!(args.list::<u32>("--ranks"), Ok(Some(vec![8, 32, 128])));
        assert_eq!(args.list("--refine"), Ok(Some(vec![-3600.0, 1800.5])));
        assert_eq!(args.list::<f64>("--seed"), Ok(None));
    }
}
