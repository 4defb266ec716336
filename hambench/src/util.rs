//! Small helpers shared by every workload: a seeded generator, order
//! statistics, wall clocks and process facts.

use std::time::Instant;

/// SplitMix64: a tiny deterministic generator, so request streams depend on
/// `--seed` alone and not on any crate the benchmark measures.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5851_F42D_4C95_7F2D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Nearest-rank percentile (`q` in `0..=1`) of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Length of the windows [`best_window`] splits a measured phase into.
const WINDOW_NS: u64 = 1_000_000_000;

/// The phase's best window: `[start, end)` is cut into equal windows of
/// about one second and each sample `(completion ns, latency ms, ops)` goes
/// to the window it completed in. Returns the highest window throughput
/// (ops/s) and the lowest window median latency (ms).
///
/// Interference from outside the process (other tenants of a shared host)
/// only ever slows a window down, and it comes and goes on a scale of
/// seconds, so the best window tracks what the program can do while any
/// slowdown of the program itself still moves every window.
pub fn best_window(samples: &[(u64, f64, f64)], start_ns: u64, end_ns: u64) -> (f64, f64) {
    let span = end_ns.saturating_sub(start_ns).max(1);
    let n = ((span + WINDOW_NS / 2) / WINDOW_NS).max(1) as usize;
    let width = span as f64 / n as f64;
    let mut ops = vec![0.0; n];
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); n];
    for &(at, latency, weight) in samples {
        let w = ((at.saturating_sub(start_ns) as f64 / width) as usize).min(n - 1);
        ops[w] += weight;
        latencies[w].push(latency);
    }
    let best_rate = ops.iter().fold(0.0, |best: f64, &o| best.max(o / (width / 1e9)));
    let best_p50 = latencies
        .into_iter()
        .filter(|l| !l.is_empty())
        .map(|l| percentile(&sorted(l), 0.5))
        .fold(f64::INFINITY, f64::min);
    (best_rate, if best_p50.is_finite() { best_p50 } else { 0.0 })
}

/// Nanoseconds since a run-wide epoch; spans and records share it.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn new() -> Self {
        Self(Instant::now())
    }

    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `build` `reps` times, keeping the last result; returns it with the
/// wall seconds of every repetition. Earlier results are dropped before the
/// next build starts, so repetitions never hold two instances at once.
pub fn repeat_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut seconds = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let started = Instant::now();
        last = Some(build());
        seconds.push(started.elapsed().as_secs_f64());
    }
    (last.expect("at least one setup repetition"), seconds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_window_takes_the_fastest_second() {
        // Two one-second windows: four 1 ms completions, then two 5 ms ones.
        let s = 1_000_000_000;
        let samples =
            [(100, 1.0, 1.0), (200, 1.0, 1.0), (300, 1.0, 1.0), (400, 1.0, 1.0), (s + 1, 5.0, 1.0), (s + 2, 5.0, 1.0)];
        assert_eq!(best_window(&samples, 0, 2 * s), (4.0, 1.0));
    }
}
