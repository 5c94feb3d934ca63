//! Harness plumbing shared by every workload: arguments, timing
//! statistics, the host reference loop, peak memory, the scratch directory
//! and the result record.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Command-line arguments. Every one is required: the benchmark has no
/// defaults that could make two runs measure different things.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub const USAGE: &str = "usage: perfbench --workload <mine-outofcore|serve-routed|online-ingest> \
--seed <u64> --seconds <n> --trace <0|1>";

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err("--seconds must be positive".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace must be 0 or 1".into()),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }

    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Derives an independent sub-seed for one input of a workload, so that
/// every generated input is a pure function of `--seed`.
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic generator for the benchmark's own query streams.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        sub_seed(self.0, 0)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Seconds elapsed while running `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Quantile `q` in `[0, 1]` of `samples` by linear interpolation between
/// order statistics. Panics on an empty slice (a workload always measures
/// at least one operation).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// One pass of the fixed reference loop, in milliseconds: a dependent
/// chase through a 3 MiB random cycle (larger than one core's L2, so it
/// slows when a neighbour contends for the cache, as the mines do) mixed
/// with integer and floating-point work. Its work never changes, so its
/// time shows the host's speed at that moment.
pub fn reference_loop_ms() -> f64 {
    static CYCLE: std::sync::OnceLock<Vec<u32>> = std::sync::OnceLock::new();
    let cycle = CYCLE.get_or_init(|| {
        let n = 3 << 18; // 786,432 u32 = 3 MiB
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut rng = SplitMix(0x5EED);
        for i in (1..n).rev() {
            order.swap(i, rng.below(i + 1));
        }
        let mut next = vec![0u32; n];
        for w in 0..n {
            next[order[w] as usize] = order[(w + 1) % n];
        }
        next
    });
    let start = Instant::now();
    let (mut at, mut acc) = (black_box(0u32), black_box(1.0f64));
    for _ in 0..1_000_000u32 {
        at = cycle[at as usize];
        acc = acc * 0.999_999 + at as f64 * 1e-9;
    }
    black_box((at, acc));
    start.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None` when
/// the kernel does not expose it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A scratch directory inside the working directory (the checkout the
/// benchmark runs from), removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(workload: &str) -> std::io::Result<WorkDir> {
        let dir = Path::new(".bench_work").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh, empty sub-directory.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave the parent only if no other run still uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// What a workload measured.
#[derive(Default)]
pub struct Report {
    /// Operations attempted and failed (errors or wrong answers).
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// In-run summary of the unit operation's latency, milliseconds.
    pub op_ms: f64,
    /// Work items completed per second.
    pub items_per_s: f64,
    /// Per-layer figures (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records a failed check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("perfbench: check failed: {msg}");
            self.problems.push(msg);
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }
}

/// Relative closeness for values computed by two different summation
/// orders.
pub fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs()).max(1.0)
}
