//! `cold-ladder`: cold `Pipeline::run_source` over the generator seed
//! ladder.
//!
//! Every analysis is cold: a fresh pipeline without the artifact cache,
//! so each call pays parse, lower, inline, mem2reg, pointer analysis,
//! memory SSA, VFG construction, resolution with Opt II and planning.
//! Outside the timed calls the benchmark checks that each rung's plan
//! fingerprint is identical across repeats, at one and two pipeline
//! threads, and against the chain of direct stage calls below.

use std::collections::BTreeMap;
use std::sync::Arc;

use usher_core::{guided_plan, redundant_check_elimination, GuidedOpts, Plan};
use usher_driver::{analyze_pointer, parallel_map, Pipeline, PipelineRun, PointerStrategy};
use usher_ir::{mem2reg, optimize, run_inline, FuncId, InlinePolicy, Module, OptLevel};
use usher_vfg::{build_function_ssa, build_with, modref_summaries, BuildOpts, MemSsa, VfgMode};
use usher_workloads::{generate, ladder_config, SEED_LADDER};

use crate::common::{
    mix, perturb, plan_digest, steady_count, usher_options, Report, Scenario, Size,
};
use crate::stats::{median, percentile};
use crate::trace;

/// Rungs run at probe size: the ladder up to the gen-53 shape.
const PROBE_RUNGS: usize = 4;

/// Repeats of the direct stage chain in the traced layer pass.
const LAYER_REPS: usize = 7;

/// One ladder program.
pub struct Rung {
    /// `gen-<ladder seed>`.
    pub name: String,
    /// Perturbed TinyC source.
    pub src: String,
}

/// Generates the ladder's programs for `seed`.
pub fn setup(seed: u64, size: Size) -> Vec<Rung> {
    let n = match size {
        Size::Full => SEED_LADDER.len(),
        Size::Probe => PROBE_RUNGS,
    };
    SEED_LADDER[..n]
        .iter()
        .map(|&(s, helpers, stmts)| {
            let _g = trace::span("workloads.generate");
            Rung {
                name: format!("gen-{s}"),
                src: perturb(&generate(s, ladder_config(helpers, stmts)), mix(seed, s)),
            }
        })
        .collect()
}

/// Per-rung measurements.
#[derive(Default)]
struct RungStats {
    ms: Vec<f64>,
    digests: Vec<u64>,
    ops: Vec<u64>,
    vfg_nodes: Vec<u64>,
    pops: Vec<u64>,
}

/// The cold-ladder scenario: one cold analysis per step, going through
/// the rungs in a freshly shuffled order each round.
pub struct Ladder<'a> {
    rungs: &'a [Rung],
    per: Vec<RungStats>,
    order: Vec<usize>,
    pos: usize,
    rng: usher_workloads::Rng,
    bytes: usize,
    secs: f64,
}

impl<'a> Ladder<'a> {
    /// A scenario over `rungs`, shuffled from `seed`.
    pub fn new(rungs: &'a [Rung], seed: u64) -> Ladder<'a> {
        Ladder {
            rungs,
            per: rungs.iter().map(|_| RungStats::default()).collect(),
            order: (0..rungs.len()).collect(),
            pos: rungs.len(),
            rng: usher_workloads::Rng::new(mix(seed, 0x1add)),
            bytes: 0,
            secs: 0.0,
        }
    }
}

impl Scenario for Ladder<'_> {
    fn step(&mut self, report: &mut Report) {
        if self.pos == self.order.len() {
            for i in (1..self.order.len()).rev() {
                self.order.swap(i, self.rng.below(i + 1));
            }
            self.pos = 0;
        }
        let i = self.order[self.pos];
        self.pos += 1;
        let rung = &self.rungs[i];
        let pipe = Pipeline::new().without_cache();
        trace::begin_request();
        let (run, dt) = trace::timed("driver.run_source", || {
            pipe.run_source(rung.name.as_str(), &rung.src, usher_options())
        });
        report.op(run.is_ok(), || {
            format!("cold analyze {}: {:?}", rung.name, run.as_ref().err())
        });
        if let Ok(run) = run {
            self.bytes += rung.src.len();
            self.secs += dt;
            let st = &mut self.per[i];
            st.ms.push(dt * 1e3);
            st.digests.push(plan_digest(&run.plan));
            st.ops.push(run.plan.stats.ops as u64);
            st.vfg_nodes.push(run.report.vfg_nodes as u64);
            st.pops.push(run.report.solver_stats.pops as u64);
        }
    }

    fn covered(&self) -> bool {
        self.per.iter().all(|st| !st.ms.is_empty())
    }

    fn finish(self: Box<Self>, report: &mut Report) {
        let Ladder {
            rungs,
            per,
            bytes,
            secs,
            ..
        } = *self;
        // Output checks, outside every timed call.
        let mut plan_ops = 0u64;
        for (rung, st) in rungs.iter().zip(&per) {
            let name = &rung.name;
            let digest = st.digests.first().copied().unwrap_or(0);
            report.check(st.digests.iter().all(|&d| d == digest), || {
                format!("{name}: plan fingerprint differs between repeats")
            });
            let one = Pipeline::new().without_cache().with_threads(1);
            let single = one.run_source(name.as_str(), &rung.src, usher_options());
            report.op(
                single
                    .as_ref()
                    .is_ok_and(|r| plan_digest(&r.plan) == digest),
                || format!("{name}: plan at 1 pipeline thread differs from 2 threads"),
            );
            let chain = chain(&rung.src);
            report.op(
                chain
                    .as_ref()
                    .is_some_and(|c| plan_digest(&c.plan) == digest),
                || format!("{name}: direct stage chain plan differs from Pipeline::run_source"),
            );
            plan_ops += steady_count(report, &format!("ladder.{name}.plan_ops"), &st.ops);
            steady_count(report, &format!("ladder.{name}.vfg_nodes"), &st.vfg_nodes);
            steady_count(report, &format!("ladder.{name}.pointer_pops"), &st.pops);
            println!(
                "cold-ladder row: rung={name} bytes={} runs={} p50_ms={:.3} p90_ms={:.3} \
                 plan_ops={}",
                rung.src.len(),
                st.ms.len(),
                median(&st.ms),
                percentile(&st.ms, 90.0),
                st.ops.first().copied().unwrap_or(0),
            );
        }
        report.count("ladder.plan_shadow_ops", plan_ops);

        let largest = per.last().map(|s| s.ms.as_slice()).unwrap_or(&[]);
        report.e2e("analyze_p50_ms", median(largest), "ms");
        report.e2e("analyze_p90_ms", percentile(largest, 90.0), "ms");
        report.e2e(
            "analyze_mb_per_s",
            bytes as f64 / 1e6 / secs.max(1e-9),
            "MB/s",
        );
        report.e2e("plan_shadow_ops", plan_ops as f64, "count");
    }
}

/// Everything the direct stage chain produces, plus per-stage seconds.
pub struct Chain {
    /// The plan.
    pub plan: Plan,
    /// Instructions in the module as lowered, before inlining.
    pub instrs_lowered: usize,
    /// Stage name → seconds.
    pub secs: BTreeMap<&'static str, f64>,
    /// Pointer solver counters.
    pub pa_stats: usher_pointer::SolverStats,
    /// VFG nodes.
    pub vfg_nodes: usize,
    /// VFG dependence edges.
    pub vfg_edges: usize,
    /// Word operations of resolution.
    pub resolve_word_ops: usize,
    /// Nodes redirected by Opt II.
    pub opt2_redirected: usize,
}

/// Runs the Usher configuration as a chain of direct calls into the
/// stage crates, in the pipeline's order and with its thread count.
/// `None` when the source does not compile.
pub fn chain(src: &str) -> Option<Chain> {
    let threads = Pipeline::new().threads();
    let mut secs = BTreeMap::new();
    let mut stage = |name: &'static str, dt: f64| {
        secs.insert(name, dt);
    };
    let (m, dt) = trace::timed("frontend.compile", || usher_frontend::compile(src));
    stage("frontend.compile", dt);
    let mut m: Module = m.ok()?;
    let instrs_lowered = m
        .funcs
        .iter()
        .map(|f| f.blocks.iter().map(|b| b.insts.len()).sum::<usize>())
        .sum();
    let ((), dt) = trace::timed("ir.inline", || {
        run_inline(&mut m, InlinePolicy::default());
    });
    stage("ir.inline", dt);
    let ((), dt) = trace::timed("ir.mem2reg", || {
        mem2reg(&mut m);
    });
    stage("ir.mem2reg", dt);
    let (verified, dt) = trace::timed("ir.opt", || {
        optimize(&mut m, OptLevel::O0Im);
        usher_ir::verify(&m)
    });
    stage("ir.opt", dt);
    verified.ok()?;
    let m = Arc::new(m);
    let (pa, dt) = trace::timed("pointer.solve", || {
        analyze_pointer(&m, PointerStrategy::default(), threads)
    });
    stage("pointer.solve", dt);
    let (ms, dt) = trace::timed("vfg.memssa", || {
        let modref = modref_summaries(&m, &pa);
        let fids: Vec<FuncId> = m.funcs.indices().collect();
        let built = parallel_map(threads, &fids, |&fid| {
            build_function_ssa(&m, &pa, fid, &modref)
        });
        let mut ms = MemSsa::default();
        for (fid, fs) in fids.into_iter().zip(built) {
            if let Some(fs) = fs {
                ms.funcs.insert(fid, fs);
            }
        }
        ms
    });
    stage("vfg.memssa", dt);
    let opts = BuildOpts {
        mode: VfgMode::Full,
        semi_strong: true,
    };
    let (vfg, dt) = trace::timed("vfg.build", || build_with(&m, &pa, &ms, opts));
    stage("vfg.build", dt);
    let (opt2, dt) = trace::timed("core.resolve", || {
        redundant_check_elimination(&m, &pa, &ms, &vfg, 1)
    });
    stage("core.resolve", dt);
    let gopts = GuidedOpts {
        opt1: true,
        full_memory: false,
        bit_level: false,
    };
    let (plan, dt) = trace::timed("core.instrument", || {
        guided_plan(&m, &pa, &ms, &vfg, &opt2.gamma, gopts, "chain")
    });
    stage("core.instrument", dt);
    let vfg_edges = (0..vfg.len() as u32).map(|v| vfg.deps.degree(v)).sum();
    Some(Chain {
        plan,
        instrs_lowered,
        secs,
        pa_stats: pa.stats,
        vfg_nodes: vfg.len(),
        vfg_edges,
        resolve_word_ops: opt2.gamma.stats.word_ops,
        opt2_redirected: opt2.redirected,
    })
}

/// The traced layer pass: the direct stage chain and `run_source`,
/// back to back [`LAYER_REPS`] times on the largest rung. Reports the
/// per-stage medians, the layer counts and the driver's own overhead
/// (the median over pairs of `run_source` minus the chain's stages).
pub fn layers(rungs: &[Rung], report: &mut Report) {
    let Some(rung) = rungs.last() else { return };
    let mut stage_secs: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut run_total = Vec::new();
    let mut overhead = Vec::new();
    let mut last: Option<Chain> = None;
    for _ in 0..LAYER_REPS {
        trace::begin_request();
        let Some(c) = chain(&rung.src) else { return };
        for (k, v) in &c.secs {
            stage_secs.entry(k).or_default().push(*v);
        }
        trace::begin_request();
        let pipe = Pipeline::new().without_cache();
        let (run, dt) = trace::timed("driver.run_source", || {
            pipe.run_source(rung.name.as_str(), &rung.src, usher_options())
        });
        report.op(run.is_ok(), || format!("layer pass: analyze {}", rung.name));
        run_total.push(dt);
        overhead.push(dt - c.secs.values().sum::<f64>());
        last = Some(c);
    }
    let Some(c) = last else { return };
    for (name, xs) in &stage_secs {
        report.layer(&format!("{name}_ms"), median(xs) * 1e3, "ms");
    }
    report.layer("ir.instrs_lowered", c.instrs_lowered as f64, "count");
    report.layer("pointer.pops", c.pa_stats.pops as f64, "count");
    report.layer(
        "pointer.unify_collapsed",
        c.pa_stats.unify_collapsed as f64,
        "count",
    );
    report.layer("pointer.merges", c.pa_stats.merges as f64, "count");
    report.layer(
        "pointer.wave_batches",
        c.pa_stats.wave_batches as f64,
        "count",
    );
    report.layer("vfg.nodes", c.vfg_nodes as f64, "count");
    report.layer("vfg.edges", c.vfg_edges as f64, "count");
    report.layer("core.resolve_word_ops", c.resolve_word_ops as f64, "count");
    report.layer("core.opt2_redirected", c.opt2_redirected as f64, "count");
    report.layer("core.plan_checks", c.plan.stats.checks as f64, "count");
    report.layer(
        "core.plan_propagations",
        c.plan.stats.propagations as f64,
        "count",
    );
    report.layer("driver.run_ms", median(&run_total) * 1e3, "ms");
    report.layer("driver.overhead_ms", median(&overhead) * 1e3, "ms");
}

/// A cold `Pipeline::run_source` of `src`, for the serve checks.
pub fn cold_run(name: &str, src: &str) -> Option<PipelineRun> {
    Pipeline::new()
        .without_cache()
        .run_source(name, src, usher_options())
        .ok()
}
