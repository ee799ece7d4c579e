//! The Usher benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold-ladder|serve-edit|exec-suite> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run measures all three scenarios, timing calls into the public
//! functions of the workspace crates from outside. The named workload
//! runs its own scenario at full size for most of the window; the other
//! two run at probe size, so every end-to-end metric is measured on
//! every workload (see `perfbench/README.md`). Set-up (program
//! generation, compiling and planning the execution suite) is repeated
//! and timed separately. Output checks run outside the timed calls and
//! count failed operations.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics, or with
//! `--trace 1` the per-layer metrics, which come from a run that records
//! spans around each call and then makes direct layer calls.

mod common;
mod exec;
mod ladder;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use common::{Report, Scenario, Size};
use stats::median;

/// Share of the window given to the workload's own scenario; the two
/// probes split the rest.
const FULL_SHARE: f64 = 0.7;

/// Timed repeats of set-up; `setup_s` is their median. One untimed
/// set-up runs first, so page faults of a fresh process and allocator
/// growth stay out of the figure; all but the first timed one run at
/// even intervals during the measuring window.
const SETUP_REPS: usize = 11;

/// Step pairs the tracing-overhead measurement makes at least, and the
/// time after which it starts no further pair.
const CALIBRATION_PAIRS: usize = 2;
const CALIBRATION_SECONDS: f64 = 6.0;

/// The end-to-end metrics every untraced run prints.
const END_TO_END: [&str; 16] = [
    "setup_s",
    "analyze_p50_ms",
    "analyze_p90_ms",
    "analyze_mb_per_s",
    "plan_shadow_ops",
    "serve_cold_ms",
    "warm_analyze_p50_ms",
    "edit_p50_ms",
    "edit_p90_ms",
    "query_use_p50_us",
    "peak_rss_mb",
    "exec_native_s",
    "exec_msan_s",
    "exec_usher_s",
    "usher_overhead_pct",
    "cost_overhead_usher_pct",
];

/// Layers whose self time the traced run reports: those with calls of
/// their own in the layer pass.
const LAYERS: [&str; 6] = ["frontend", "ir", "pointer", "vfg", "core", "serve"];

const USAGE: &str = "usage: perfbench --workload <cold-ladder|serve-edit|exec-suite> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let Some(name) = k.strip_prefix("--") else {
            return Err(format!("unexpected argument {k:?}"));
        };
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(name.to_string(), v);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?.clone();
    if !["cold-ladder", "serve-edit", "exec-suite"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be a positive number".to_string());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Where the run may write: under the build directory of the checkout.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"))
        .join("perfbench")
}

/// A content hash of the running binary: deterministic counts are only
/// compared between runs of the same build.
fn build_id() -> u64 {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    let mut k = usher_driver::KeyWriter::new("perfbench-build");
    k.bytes(&bytes);
    k.finish()
}

/// Compares this run's deterministic counts with those of an earlier
/// run of the same build, workload, seed and mode, then records them.
fn check_counts_between_runs(args: &Args, dir: &Path, report: &mut Report) {
    let dir = dir.join("counts");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!(
        "{:016x}-{}-{}-{}.txt",
        build_id(),
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let mut text = String::new();
    for (k, v) in &report.counts {
        let _ = writeln!(text, "{k} {v}");
    }
    match std::fs::read_to_string(&path) {
        Ok(prev) => {
            let same = prev == text;
            report.check(same, || {
                format!(
                    "deterministic counts differ from an earlier run ({})",
                    path.display()
                )
            });
        }
        Err(_) => {
            let _ = std::fs::write(&path, text);
        }
    }
}

struct Inputs {
    rungs: Vec<ladder::Rung>,
    serve: serve::ServeInput,
    progs: Vec<exec::Prog>,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out = out_dir();
    let work = out.join(format!("work-{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(2);
    }
    if args.trace {
        trace::set_enabled(true);
    }
    let size = |own: &str| {
        if args.workload == own {
            Size::Full
        } else {
            Size::Probe
        }
    };
    let (ladder_size, serve_size, exec_size) =
        (size("cold-ladder"), size("serve-edit"), size("exec-suite"));

    let mut report = Report::default();

    // Set-up: one untimed run, then a timed one whose inputs are used.
    // The other timed repeats are spread over the measuring window, so a
    // slow phase of the machine lands on few of them.
    let set_up = |report: &mut Report| {
        trace::begin_request();
        let t = Instant::now();
        let rungs = ladder::setup(args.seed, ladder_size);
        let serve_input = serve::setup(args.seed, serve_size);
        let generate_ms = t.elapsed().as_secs_f64() * 1e3;
        let progs = exec::setup(exec_size, report);
        let inputs = Inputs {
            rungs,
            serve: serve_input,
            progs,
        };
        (inputs, t.elapsed().as_secs_f64(), generate_ms)
    };
    let mut setup_s = Vec::new();
    let mut generate_ms = Vec::new();
    let mut timed_set_up = |report: &mut Report| {
        let (inputs, secs, gen) = set_up(report);
        setup_s.push(secs);
        generate_ms.push(gen);
        inputs
    };
    drop(set_up(&mut report));
    let inputs = timed_set_up(&mut report);

    // The measuring window: the scenarios' steps interleaved, each next
    // step going to the scenario furthest behind its share of the time.
    let share = |s: Size| match s {
        Size::Full => FULL_SHARE,
        Size::Probe => (1.0 - FULL_SHARE) / 2.0,
    };
    let mut scenarios: Vec<(Box<dyn Scenario + '_>, f64, Vec<f64>)> = vec![
        (
            Box::new(ladder::Ladder::new(&inputs.rungs, args.seed)),
            share(ladder_size),
            Vec::new(),
        ),
        (
            Box::new(serve::Serve::new(&inputs.serve, &work, args.trace)),
            share(serve_size),
            Vec::new(),
        ),
        (
            Box::new(exec::Exec::new(&inputs.progs, args.seed, args.trace)),
            share(exec_size),
            Vec::new(),
        ),
    ];
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(args.seconds);
    let setup_every = args.seconds / SETUP_REPS as f64;
    let mut setups = 1;
    loop {
        if setups < SETUP_REPS && start.elapsed().as_secs_f64() >= setups as f64 * setup_every {
            drop(timed_set_up(&mut report));
            setups += 1;
        }
        let left = end.saturating_duration_since(Instant::now()).as_secs_f64();
        // A scenario may start a step while it has inputs not yet
        // measured, or while its mean step fits in the time left.
        let next = scenarios
            .iter()
            .enumerate()
            .filter(|(_, (scenario, _, steps))| {
                !scenario.covered() || (!steps.is_empty() && stats::mean(steps) <= left)
            })
            .min_by(|a, b| {
                let behind = |(_, share, steps): &(Box<dyn Scenario + '_>, f64, Vec<f64>)| {
                    steps.iter().sum::<f64>() / share
                };
                behind(a.1).total_cmp(&behind(b.1))
            })
            .map(|(i, _)| i);
        let Some(i) = next else { break };
        let t = Instant::now();
        scenarios[i].0.step(&mut report);
        scenarios[i].2.push(t.elapsed().as_secs_f64());
    }
    for _ in setups..SETUP_REPS {
        drop(timed_set_up(&mut report));
    }
    report.e2e("setup_s", median(&setup_s), "s");
    report.layer("workloads.generate_ms", median(&generate_ms), "ms");
    for (scenario, _, _) in scenarios {
        scenario.finish(&mut report);
    }

    if args.trace {
        let layer_pass = trace::begin_request();
        ladder::layers(&inputs.rungs, &mut report);
        serve::layers(&inputs.serve, &work, &mut report);
        let spans = trace::take();
        let overhead = trace_overhead(&args, &inputs, &work, &mut report);
        report.layer("trace.overhead_pct", overhead, "%");
        report_spans(&args, &spans, layer_pass, &out, &mut report);
    }
    check_counts_between_runs(&args, &out, &mut report);
    let _ = std::fs::remove_dir_all(&work);
    print_result(&args, &report);
}

/// Tracing overhead: the traced minus the untraced end-to-end time of
/// the same work. Two copies of the workload's own scenario, in the
/// untraced run's configuration and from the same seed, step in
/// lockstep, one with recording on and one with it off (which goes first
/// alternates), so each pair does the same work. Returns the median over
/// pairs of on/off wall time, as a percentage above 100. Spans recorded
/// here are discarded.
fn trace_overhead(args: &Args, inputs: &Inputs, work: &Path, report: &mut Report) -> f64 {
    let make = || -> Box<dyn Scenario + '_> {
        match args.workload.as_str() {
            "cold-ladder" => Box::new(ladder::Ladder::new(&inputs.rungs, args.seed)),
            "serve-edit" => Box::new(serve::Serve::new(&inputs.serve, work, false)),
            _ => Box::new(exec::Exec::new(&inputs.progs, args.seed, false)),
        }
    };
    // Index 0 records nothing, index 1 records spans.
    let mut copies = [make(), make()];
    let mut ratios = Vec::new();
    let start = Instant::now();
    while ratios.len() < CALIBRATION_PAIRS || start.elapsed().as_secs_f64() < CALIBRATION_SECONDS {
        let first = ratios.len() % 2;
        let mut secs = [0.0; 2];
        for on in [first, 1 - first] {
            trace::set_enabled(on == 1);
            let t = Instant::now();
            copies[on].step(report);
            secs[on] = t.elapsed().as_secs_f64();
        }
        ratios.push(secs[1] / secs[0]);
    }
    trace::set_enabled(false);
    let _ = trace::take();
    (median(&ratios) - 1.0) * 100.0
}

/// Writes the span file and reports per-layer self time over the layer
/// pass, the requests from `layer_pass` on. Composite calls (a
/// `run_source`, a `handle_line`, an engine request), whose insides
/// belong to several layers and carry no spans, are left out, so each
/// share is that of one layer's own calls.
fn report_spans(
    args: &Args,
    spans: &[trace::Span],
    layer_pass: u64,
    out: &Path,
    report: &mut Report,
) {
    let path = out.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    if let Err(e) = std::fs::write(&path, trace::to_jsonl(spans)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    } else {
        eprintln!(
            "perfbench: {} spans written to {}",
            spans.len(),
            path.display()
        );
    }
    let (by_layer, root_ns) = trace::self_time_by_layer(spans, |s| {
        s.request >= layer_pass && !trace::is_composite(s.name)
    });
    for layer in LAYERS {
        let ns = by_layer.get(layer).copied().unwrap_or(0);
        report.layer(
            &format!("selftime.{layer}_pct"),
            ns as f64 * 100.0 / root_ns.max(1) as f64,
            "%",
        );
    }
}

fn print_result(args: &Args, report: &Report) {
    let metrics = if args.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    let mut failed = report.failed;
    if !args.trace {
        for name in END_TO_END {
            if !metrics.iter().any(|m| m.name == name) {
                eprintln!("perfbench: FAILED: metric {name} was not measured");
                failed += 1;
            }
        }
    }
    let mut body = String::new();
    for m in metrics {
        let value = if m.value.is_finite() {
            m.value
        } else {
            eprintln!("perfbench: FAILED: metric {} is not finite", m.name);
            failed += 1;
            0.0
        };
        if !body.is_empty() {
            body.push(',');
        }
        let _ = write!(
            body,
            "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            m.name, m.unit
        );
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{body}}}}}",
        failed == 0,
        report.attempted.max(1),
    );
}
