//! Pieces shared by the three scenarios: run sizing, input perturbation,
//! plan digests and the run report.

use std::fmt::Write as _;
use usher_core::{Config, Plan};
use usher_driver::{plan_fingerprint, KeyWriter, PipelineOptions};

/// How large a scenario runs in one benchmark run. The named workload
/// runs its scenario at `Full` size for most of the measuring time; the
/// other two run at `Probe` size so that every end-to-end metric is
/// measured on every workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The workload's own scenario.
    Full,
    /// A small companion run of another workload's scenario.
    Probe,
}

/// One of the three scenarios, run step by step so that the measuring
/// window can interleave them: a slow phase of the machine then spreads
/// over every metric instead of landing on one scenario's samples.
pub trait Scenario {
    /// Runs one step: a few timed calls and their output checks.
    fn step(&mut self, report: &mut Report);
    /// Whether every input has been measured at least once; the window
    /// does not close before.
    fn covered(&self) -> bool;
    /// Runs the checks that need every step, and reports.
    fn finish(self: Box<Self>, report: &mut Report);
}

/// The analysis configuration every scenario measures: the paper's full
/// Usher configuration at O0+IM.
pub fn usher_options() -> PipelineOptions {
    PipelineOptions::from_config(Config::USHER)
}

/// The digest the serve `query` verb reports for a plan: the key hash
/// of its canonical fingerprint.
pub fn plan_digest(plan: &Plan) -> u64 {
    let mut k = KeyWriter::new("fingerprint");
    k.str(&plan_fingerprint(plan));
    k.finish()
}

/// Derives an independent 64-bit seed from `seed` and a stream tag.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Rewrites every `<lhs> = <integer>;` statement of a generated program
/// to a constant drawn from `seed`, and stamps the seed into the leading
/// comment. The statement structure, and with it every pointer, memory
/// SSA and value-flow fact, is unchanged, so analysis work and plan
/// counts keep their shape while the text (and every cache key derived
/// from it) is new for each seed.
pub fn perturb(src: &str, seed: u64) -> String {
    let mut rng = usher_workloads::Rng::new(seed);
    let mut out = String::with_capacity(src.len() + 64);
    let _ = writeln!(out, "// input variant {seed:#x}");
    for line in src.lines() {
        match split_int_assign(line) {
            Some(lhs) => {
                let _ = writeln!(out, "{lhs} = {};", 1 + rng.below(97));
            }
            None => {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    out
}

/// The left-hand side of a `<lhs> = <integer>;` line.
pub fn split_int_assign(line: &str) -> Option<&str> {
    let eq = line.rfind(" = ")?;
    let digits = line[eq + 3..].trim_end().strip_suffix(';')?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some(&line[..eq])
}

/// One reported metric.
pub struct Metric {
    /// Metric name as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one run reports: metrics, operation counts, failures.
#[derive(Default)]
pub struct Report {
    /// End-to-end metrics (printed by untraced runs).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (printed by traced runs).
    pub per_layer: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or produced wrong output.
    pub failed: u64,
    /// Deterministic counts, checked for drift within and between runs.
    pub counts: Vec<(String, u64)>,
}

impl Report {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Counts one operation; a failed one is reported on stderr.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts an output check failure against an operation already
    /// attempted.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        eprintln!("perfbench: FAILED: {msg}");
    }

    /// Records a deterministic count under `name`.
    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.push((name.to_string(), value));
    }
}

/// Checks that every sample of a deterministic count is equal, returning
/// the value; a drift is counted as a failure.
pub fn steady_count(report: &mut Report, name: &str, samples: &[u64]) -> u64 {
    let first = samples.first().copied().unwrap_or(0);
    report.check(samples.iter().all(|&x| x == first), || {
        format!("deterministic count {name} drifted between repeats: {samples:?}")
    });
    report.count(name, first);
    first
}

/// Returns freed heap memory to the kernel, so that the resident set is
/// close to the live data before a peak-RSS measurement starts, instead
/// of carrying whatever earlier steps left in the allocator's free lists.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes a byte count by value,
        // only releases pages on the allocator's own free lists, and
        // locks each arena it trims, so it is safe to call at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Restarts the kernel's peak-RSS count (`VmHWM`) at the current RSS.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM`) since the
/// start or the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
