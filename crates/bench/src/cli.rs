//! Shared command-line handling for the benchmark binaries.
//!
//! Every binary accepts:
//!
//! * `test` / `ref` — workload scale (each binary picks its default);
//! * `--threads N` — worker threads for the pipeline driver (default:
//!   the machine's available parallelism);
//! * `--no-cache` — disable the artifact cache (every stage recomputes);
//! * `--report` — emit JSON-lines pipeline telemetry on stderr.
//!
//! Degradation under a budget is exercised by `usher analyze
//! --budget-steps` and `usher fuzz --fault budget-exhaust`, not here.

use usher_driver::{default_threads, BatchReport, Pipeline};
use usher_workloads::Scale;

/// Parsed benchmark arguments.
#[derive(Clone, Debug)]
pub struct BenchArgs {
    /// Workload scale.
    pub scale: Scale,
    /// Worker threads.
    pub threads: usize,
    /// Whether the artifact cache is enabled.
    pub use_cache: bool,
    /// Whether to emit JSON-lines telemetry on stderr.
    pub report: bool,
}

impl BenchArgs {
    /// Parses `std::env::args`, exiting with a usage message on errors.
    pub fn parse(default_scale: Scale) -> BenchArgs {
        let mut out = BenchArgs {
            scale: default_scale,
            threads: default_threads(),
            use_cache: true,
            report: false,
        };
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "test" => out.scale = Scale::TEST,
                "ref" => out.scale = Scale::REF,
                "--threads" => {
                    let v = it
                        .next()
                        .unwrap_or_else(|| usage("--threads needs a value"));
                    out.threads = v
                        .parse()
                        .ok()
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| usage(&format!("bad thread count {v}")));
                }
                "--no-cache" => out.use_cache = false,
                "--report" => out.report = true,
                other => usage(&format!("unknown argument {other}")),
            }
        }
        out
    }

    /// Builds the pipeline these arguments describe.
    pub fn pipeline(&self) -> Pipeline {
        let p = Pipeline::new().with_threads(self.threads);
        if self.use_cache {
            p
        } else {
            p.without_cache()
        }
    }

    /// Emits batch telemetry on stderr when `--report` was given.
    pub fn emit_report(&self, batch: &BatchReport) {
        if self.report {
            eprint!("{}", batch.to_json_lines());
        }
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: <bin> [test|ref] [--threads N] [--no-cache] [--report]");
    std::process::exit(2)
}
