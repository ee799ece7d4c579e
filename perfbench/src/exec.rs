//! `exec-suite`: the 15 SPEC-shaped programs under the interpreter,
//! natively, with the MSan plan and with the Usher plan.
//!
//! Compiling and planning happen in set-up. Each step runs one program
//! in all three modes (in a seeded order); the run reports per-program
//! medians over all the passes its window allows. Slowdowns are taken
//! within each step, instrumented over native wall time of the same
//! program run back to back, so a drift in machine speed over the run
//! cancels out of them.
//! Outside the timed calls it checks that both instrumented runs print
//! the native trace and exit the same way, that Usher detects exactly
//! the sites MSan detects and the interpreter's ground truth holds, and
//! that the execution counters repeat exactly in every pass.

use std::sync::Arc;

use usher_core::{Config, Plan};
use usher_driver::{Pipeline, PipelineOptions};
use usher_ir::Module;
use usher_runtime::{RunOptions, RunResult};
use usher_workloads::{all_workloads, Scale};

use crate::common::{mix, steady_count, Report, Scenario, Size};
use crate::stats::{geomean, mean, median};
use crate::trace;

/// Program scale of the full run (a quarter of `Scale::REF`).
const FULL_SCALE: Scale = Scale { n: 384 };

/// One compiled and planned program.
pub struct Prog {
    name: &'static str,
    module: Arc<Module>,
    msan: Arc<Plan>,
    usher: Arc<Plan>,
}

/// Compiles and plans the suite.
pub fn setup(size: Size, report: &mut Report) -> Vec<Prog> {
    let scale = match size {
        Size::Full => FULL_SCALE,
        Size::Probe => Scale::TEST,
    };
    let pipe = Pipeline::new();
    all_workloads(scale)
        .into_iter()
        .filter_map(|w| {
            let _g = trace::span("workloads.compile_plan");
            let msan = pipe.run_source(
                w.name,
                &w.source,
                PipelineOptions::from_config(Config::MSAN),
            );
            let usher = pipe.run_source(
                w.name,
                &w.source,
                PipelineOptions::from_config(Config::USHER),
            );
            report.op(msan.is_ok() && usher.is_ok(), || {
                format!("{} does not compile", w.name)
            });
            let (msan, usher) = (msan.ok()?, usher.ok()?);
            Some(Prog {
                name: w.name,
                module: msan.module,
                msan: msan.plan,
                usher: usher.plan,
            })
        })
        .collect()
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Native,
    Msan,
    Usher,
    Empty,
}

impl Mode {
    fn span(self) -> &'static str {
        match self {
            Mode::Native => "runtime.native",
            Mode::Msan => "runtime.msan",
            Mode::Usher => "runtime.usher",
            Mode::Empty => "runtime.empty_plan",
        }
    }
}

/// Per-program samples.
#[derive(Default)]
struct ProgStats {
    wall: [Vec<f64>; 4],
    /// Per-step MSan/native and Usher/native wall-time ratios.
    msan_ratio: Vec<f64>,
    usher_ratio: Vec<f64>,
    native_ops: Vec<u64>,
    shadow_ops: Vec<u64>,
    checks_executed: Vec<u64>,
    cost_pct_milli: Vec<u64>,
}

/// The exec-suite scenario: each step runs one program in every mode, in
/// a seeded order, and checks the instrumented runs against the native
/// one; programs are visited in a freshly shuffled order each pass.
pub struct Exec<'a> {
    progs: &'a [Prog],
    opts: RunOptions,
    modes: Vec<Mode>,
    empty: Plan,
    per: Vec<ProgStats>,
    order: Vec<usize>,
    pos: usize,
    rng: usher_workloads::Rng,
}

impl<'a> Exec<'a> {
    /// A scenario over `progs`. With `empty_plan`, each step also runs the
    /// program with an empty plan (the traced run's fixed-floor probe).
    pub fn new(progs: &'a [Prog], seed: u64, empty_plan: bool) -> Exec<'a> {
        let mut modes = vec![Mode::Native, Mode::Msan, Mode::Usher];
        if empty_plan {
            modes.push(Mode::Empty);
        }
        Exec {
            progs,
            opts: RunOptions {
                input_seed: mix(seed, 0xe8ec),
                ..RunOptions::default()
            },
            modes,
            empty: Plan::default(),
            per: progs.iter().map(|_| ProgStats::default()).collect(),
            order: (0..progs.len()).collect(),
            pos: progs.len(),
            rng: usher_workloads::Rng::new(mix(seed, 0x5eed)),
        }
    }
}

impl Scenario for Exec<'_> {
    fn step(&mut self, report: &mut Report) {
        if self.pos == self.order.len() {
            for i in (1..self.order.len()).rev() {
                self.order.swap(i, self.rng.below(i + 1));
            }
            self.pos = 0;
        }
        let p = self.order[self.pos];
        self.pos += 1;
        let prog = &self.progs[p];
        let mut order: Vec<usize> = (0..self.modes.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, self.rng.below(i + 1));
        }
        let mut results: Vec<Option<RunResult>> = vec![None; self.modes.len()];
        for m in order {
            let plan = match self.modes[m] {
                Mode::Native => None,
                Mode::Msan => Some(&*prog.msan),
                Mode::Usher => Some(&*prog.usher),
                Mode::Empty => Some(&self.empty),
            };
            trace::begin_request();
            let (r, dt) = trace::timed(self.modes[m].span(), || {
                usher_runtime::run(&prog.module, plan, &self.opts)
            });
            self.per[p].wall[m].push(dt);
            results[m] = Some(r);
        }

        let st = &mut self.per[p];
        // Native, MSan and Usher are modes 0, 1 and 2.
        let [native_s, msan_s, usher_s] =
            [0, 1, 2].map(|m| st.wall[m].last().copied().expect("every mode ran"));
        st.msan_ratio.push(msan_s / native_s);
        st.usher_ratio.push(usher_s / native_s);
        let native = results[0].as_ref().expect("every mode ran");
        let truth = native.ground_truth_sites();
        st.native_ops.push(native.counters.native_ops);
        for (&mode, r) in self.modes.iter().zip(&results) {
            let r = r.as_ref().expect("every mode ran");
            let ok = r.trap.is_none()
                && r.trace == native.trace
                && r.exit == native.exit
                && r.counters.native_ops == native.counters.native_ops;
            report.op(ok, || {
                format!(
                    "{} under {}: output differs from native",
                    prog.name,
                    mode.span()
                )
            });
            if matches!(mode, Mode::Msan | Mode::Usher) {
                report.check(r.detected_sites() == truth, || {
                    format!(
                        "{} under {}: detected {:?}, ground truth {:?}",
                        prog.name,
                        mode.span(),
                        r.detected_sites(),
                        truth
                    )
                });
            }
            if mode == Mode::Usher {
                st.shadow_ops.push(r.counters.shadow_ops);
                st.checks_executed.push(r.counters.checks_executed);
                st.cost_pct_milli
                    .push((r.counters.slowdown_pct() * 1000.0).round() as u64);
            }
        }
    }

    fn covered(&self) -> bool {
        self.per.iter().all(|st| !st.native_ops.is_empty())
    }

    fn finish(self: Box<Self>, report: &mut Report) {
        let Exec {
            progs, modes, per, ..
        } = *self;
        let empty_plan = modes.contains(&Mode::Empty);
        let mut totals = [0.0f64; 4];
        let mut ratios = Vec::new();
        let mut costs = Vec::new();
        let (mut native_ops, mut shadow_ops, mut checks) = (0u64, 0u64, 0u64);
        for (prog, st) in progs.iter().zip(&per) {
            let med: Vec<f64> = st.wall.iter().map(|w| median(w)).collect();
            for (t, m) in totals.iter_mut().zip(&med) {
                *t += m;
            }
            let (msan_ratio, usher_ratio) = (median(&st.msan_ratio), median(&st.usher_ratio));
            ratios.push(usher_ratio);
            let name = prog.name;
            native_ops += steady_count(report, &format!("exec.{name}.native_ops"), &st.native_ops);
            shadow_ops += steady_count(report, &format!("exec.{name}.shadow_ops"), &st.shadow_ops);
            checks += steady_count(
                report,
                &format!("exec.{name}.checks_executed"),
                &st.checks_executed,
            );
            let cost = steady_count(
                report,
                &format!("exec.{name}.cost_pct_milli"),
                &st.cost_pct_milli,
            );
            costs.push(cost as f64 / 1000.0);
            let (native, msan, usher) = (med[0] * 1e3, med[1] * 1e3, med[2] * 1e3);
            println!(
                "exec-suite row: program={name} passes={} native_ms={native:.3} \
                 msan_ms={msan:.3} usher_ms={usher:.3} msan_overhead_pct={:.1} \
                 usher_overhead_pct={:.1} cost_usher_pct={:.1} shadow_ops={}",
                st.wall[0].len(),
                (msan_ratio - 1.0) * 100.0,
                (usher_ratio - 1.0) * 100.0,
                cost as f64 / 1000.0,
                st.shadow_ops.first().copied().unwrap_or(0),
            );
        }
        report.e2e("exec_native_s", totals[0], "s");
        report.e2e("exec_msan_s", totals[1], "s");
        report.e2e("exec_usher_s", totals[2], "s");
        report.e2e("usher_overhead_pct", (geomean(&ratios) - 1.0) * 100.0, "%");
        report.e2e("cost_overhead_usher_pct", mean(&costs), "%");

        report.layer(
            "runtime.native_ns_per_op",
            totals[0] * 1e9 / native_ops.max(1) as f64,
            "ns",
        );
        report.layer(
            "runtime.shadow_ns_per_op",
            (totals[2] - totals[0]) * 1e9 / shadow_ops.max(1) as f64,
            "ns",
        );
        if empty_plan {
            report.layer(
                "runtime.empty_plan_overhead_pct",
                (totals[3] / totals[0] - 1.0) * 100.0,
                "%",
            );
        }
        report.layer("runtime.shadow_ops", shadow_ops as f64, "count");
        report.layer("runtime.checks_executed", checks as f64, "count");
    }
}
