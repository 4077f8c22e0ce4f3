//! Order statistics, the host-speed spin probe and the process's peak RSS.

use std::hint::black_box;
use std::time::Instant;

/// Median and quartiles of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample size.
    pub n: usize,
}

/// Quartiles by the method Python's `statistics.quantiles(values, n=4)` uses
/// (exclusive: the i-th cut sits at position `i·(n+1)/4`, interpolated and
/// clamped to the sample), so numbers here and in the driver's spread check
/// mean the same thing.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quartiles(values: &[f64]) -> Quartiles {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| -> f64 {
        let pos = (i * (n + 1)) as f64 / 4.0;
        let below = (pos.floor() as usize).clamp(1, n.max(2) - 1);
        let lo = v[below - 1];
        let hi = v[below.min(n - 1)];
        lo + (hi - lo) * (pos - below as f64)
    };
    Quartiles {
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
        n,
    }
}

/// The median alone.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).median
}

/// The `p`-th percentile (nearest rank) of a sample; 0 for an empty one.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Iterations of one spin, in three segments: 60 ms on the box the
/// benchmark was defined on, in its fast state.  The count is fixed so the
/// *time* varies with the host's momentary speed, which is the point.
const SPIN_SEGMENT_ITERS: u64 = 20_000_000;
const SPIN_SEGMENTS: usize = 3;

/// What a spin reads on a host at reference speed.
const SPIN_REFERENCE_S: f64 = 0.060;

/// Times a fixed integer loop, run on `threads` threads at once (as many as
/// the workload's headline call keeps busy, so the probe loads the host the
/// way the workload does).  The loop runs in three segments and the median
/// segment counts for all three, so one descheduling does not read as a slow
/// host.
fn spin_secs(threads: usize) -> f64 {
    fn segment() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..SPIN_SEGMENT_ITERS {
            x = black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        black_box(x);
    }
    let segments: Vec<f64> = (0..SPIN_SEGMENTS)
        .map(|_| {
            let start = Instant::now();
            std::thread::scope(|scope| {
                for _ in 1..threads {
                    scope.spawn(segment);
                }
                segment();
            });
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&segments) * SPIN_SEGMENTS as f64
}

/// Something the benchmark timed, with the host's speed around it.
pub struct Timed<T> {
    /// What the timed call returned.
    pub out: T,
    /// Host seconds the call took, as measured.
    pub raw_s: f64,
    /// The host's speed around the call relative to the reference: a time
    /// multiplied by this reads in *reference seconds*, what it would have
    /// taken had the host run the spin loop in 60 ms throughout.
    pub speed: f64,
}

impl<T> Timed<T> {
    /// The call's duration in reference seconds.
    pub fn reference_s(&self) -> f64 {
        self.raw_s * self.speed
    }
}

/// The host-speed witness: a spin before and after everything the benchmark
/// times.
///
/// The box this was defined on alternates, on a scale of seconds to minutes
/// and with no load of its own, between a state where the spin takes 59 ms
/// and one where it takes 75 ms, and every workload slows with it by 14–28%.
/// Medians of raw 10-second runs then spread by 4–31% of their median across
/// ten runs; scaled by the spins around each repetition they spread by 2–8%
/// (12–14% where the seed moves the amount of work).  So every host time the
/// benchmark reports is in reference seconds, and the run record keeps the
/// raw times and every spin beside them.
pub struct HostWitness {
    threads: usize,
    spins: Vec<f64>,
}

impl HostWitness {
    /// Takes the first spin, after one discarded spin: right after an idle
    /// stretch (a process start, say) the first loop reads up to twice too
    /// slow.
    pub fn new(threads: usize) -> HostWitness {
        spin_secs(threads);
        HostWitness {
            threads,
            spins: vec![spin_secs(threads)],
        }
    }

    /// Runs `work` between the previous spin and a fresh one.
    pub fn around<T>(&mut self, work: impl FnOnce() -> T) -> Timed<T> {
        let before = *self.spins.last().expect("new() took a spin");
        let start = Instant::now();
        let out = work();
        let raw_s = start.elapsed().as_secs_f64();
        let after = spin_secs(self.threads);
        self.spins.push(after);
        Timed {
            out,
            raw_s,
            speed: SPIN_REFERENCE_S / ((before + after) / 2.0),
        }
    }

    /// Every spin so far, in host seconds, in order.
    pub fn spins(&self) -> &[f64] {
        &self.spins
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None` where
/// `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// SplitMix64, inlined so the probes need no RNG crate.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `[lo, hi)` (modulo bias is irrelevant to a probe's mix).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   -> [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&ten);
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) -> [1.0, 2.0, 3.0]
        let q = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // A single value is its own quartiles.
        let q = quartiles(&[7.0]);
        assert_eq!((q.q1, q.median, q.q3), (7.0, 7.0, 7.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut [], 50.0), 0.0);
    }
}
