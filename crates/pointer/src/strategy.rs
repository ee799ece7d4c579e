//! Strategy-pluggable solver entry points.
//!
//! Every pointer-analysis variant in this crate — the frozen reference
//! solver, the bitmap Andersen worklist, the unification-prefiltered
//! worklist and prefiltered parallel wave propagation — implements the
//! [`Solver`] trait and is addressable by a [`PointerStrategy`] value.
//! They differ in how fast they reach the fixpoint and in which
//! [`SolverStats`](crate::SolverStats) counters they populate.
//!
//! They do **not** all compute the same [`PointerAnalysis`]. The
//! reference, Andersen and prefilter solvers agree on the seed ladder
//! (`tests/representation_equiv.rs`) and on all 15 programs of
//! `all_workloads(Scale::TEST)`. Prefilter-wave agrees with them on the
//! ladder and on 14 of the 15. The counterexample is `176.gcc`. There,
//! 68 variables get smaller points-to sets than the reference's, and
//! the Usher plan's cost-model slowdown under `RunOptions::default()`
//! drops from 138.15% to 95.72%. A smaller set than the reference
//! oracle's is unsound, so the default strategy's results on such
//! programs are not to be trusted. The driver keys the pointer
//! artifact, and every artifact built from it, on the strategy name.
//!
//! Threading stays out of this crate: the wave strategy accepts an
//! injected [`WaveRunner`] — the driver passes a thunk built on its
//! thread pool — and falls back to inline execution (identical results)
//! when none is given.

use usher_ir::{Budget, Exhausted, Module};

use crate::andersen::{analyze_andersen, PointerAnalysis};
use crate::reference::analyze_reference_budgeted;

/// One parallel pull job: maps a batch index to the node's freshly
/// gained target ids. Jobs only read state finalized before the batch
/// started, so any execution order gives the same results.
pub type WaveJob<'a> = &'a (dyn Fn(usize) -> Vec<u32> + Sync);

/// Executes `count` [`WaveJob`] invocations (indices `0..count`) and
/// returns their results **in index order**. The driver implements this
/// on its thread pool; `usher-pointer` itself never spawns threads.
pub type WaveRunner<'a> = &'a (dyn Fn(usize, WaveJob<'_>) -> Vec<Vec<u32>> + Sync);

/// Selects which solver implementation runs the pointer stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PointerStrategy {
    /// The frozen pre-overhaul `BTreeSet` solver (`reference.rs`) —
    /// the equivalence oracle.
    Reference,
    /// The bitmap Andersen worklist solver, no prefilter.
    Andersen,
    /// Unification prefilter (offline variable substitution) followed
    /// by the Andersen worklist on the collapsed graph.
    Prefilter,
    /// Unification prefilter followed by parallel wave propagation in
    /// topological batches over the condensed constraint graph.
    #[default]
    PrefilterWave,
}

impl PointerStrategy {
    /// Every strategy, oracle first.
    pub const ALL: [PointerStrategy; 4] = [
        PointerStrategy::Reference,
        PointerStrategy::Andersen,
        PointerStrategy::Prefilter,
        PointerStrategy::PrefilterWave,
    ];

    /// The stable name used by `--pointer-strategy`, cache keys,
    /// telemetry and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            PointerStrategy::Reference => "reference",
            PointerStrategy::Andersen => "andersen",
            PointerStrategy::Prefilter => "prefilter",
            PointerStrategy::PrefilterWave => "prefilter-wave",
        }
    }

    /// Parses a strategy name as accepted by `--pointer-strategy`.
    pub fn parse(s: &str) -> Option<PointerStrategy> {
        PointerStrategy::ALL.into_iter().find(|st| st.name() == s)
    }
}

impl std::fmt::Display for PointerStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A pluggable pointer-analysis implementation. Every implementation
/// is meant to compute the reference solver's [`PointerAnalysis`]; the
/// representation-equivalence suite checks that on the seed ladder, and
/// the module docs record where prefilter-wave falls short of it.
pub trait Solver {
    /// The strategy's stable name (matches [`PointerStrategy::name`]).
    fn name(&self) -> &'static str;

    /// Runs the analysis under a cooperative step budget. On
    /// [`Exhausted`] the partial result is discarded — a partial
    /// points-to solution under-approximates and must never feed the
    /// guided planner — and the driver degrades to full instrumentation.
    ///
    /// # Errors
    ///
    /// Returns [`Exhausted`] when the budget runs out before the
    /// fixpoint.
    fn analyze_budgeted(&self, m: &Module, budget: &Budget) -> Result<PointerAnalysis, Exhausted>;

    /// Runs the analysis to completion.
    fn analyze(&self, m: &Module) -> PointerAnalysis {
        self.analyze_budgeted(m, &Budget::unlimited())
            .expect("unlimited budget cannot exhaust")
    }
}

/// [`PointerStrategy::Reference`]: the frozen baseline.
pub struct ReferenceSolver;

impl Solver for ReferenceSolver {
    fn name(&self) -> &'static str {
        PointerStrategy::Reference.name()
    }

    fn analyze_budgeted(&self, m: &Module, budget: &Budget) -> Result<PointerAnalysis, Exhausted> {
        analyze_reference_budgeted(m, budget)
    }
}

/// [`PointerStrategy::Andersen`]: the bitmap worklist solver.
pub struct AndersenSolver;

impl Solver for AndersenSolver {
    fn name(&self) -> &'static str {
        PointerStrategy::Andersen.name()
    }

    fn analyze_budgeted(&self, m: &Module, budget: &Budget) -> Result<PointerAnalysis, Exhausted> {
        analyze_andersen(m, budget, false)
    }
}

/// [`PointerStrategy::Prefilter`]: unification prefilter + worklist.
pub struct PrefilterSolver;

impl Solver for PrefilterSolver {
    fn name(&self) -> &'static str {
        PointerStrategy::Prefilter.name()
    }

    fn analyze_budgeted(&self, m: &Module, budget: &Budget) -> Result<PointerAnalysis, Exhausted> {
        analyze_andersen(m, budget, true)
    }
}

/// [`PointerStrategy::PrefilterWave`]: unification prefilter + parallel
/// wave propagation, optionally on an injected runner.
pub struct WaveSolver<'r> {
    /// Parallel batch executor; `None` runs every batch inline
    /// (byte-identical results).
    pub runner: Option<WaveRunner<'r>>,
}

impl Solver for WaveSolver<'_> {
    fn name(&self) -> &'static str {
        PointerStrategy::PrefilterWave.name()
    }

    fn analyze_budgeted(&self, m: &Module, budget: &Budget) -> Result<PointerAnalysis, Exhausted> {
        let mut s = crate::andersen::Solver::new(m);
        s.apply_prefilter();
        s.lazy_seed = true;
        s.import_offline_edges();
        s.seed();
        s.lazy_seed = false;
        s.finalize_lazy_edges();
        s.solve_wave(budget, self.runner)?;
        Ok(s.finish_with(self.runner))
    }
}

/// Runs `strategy` to completion; `runner` feeds the wave strategy's
/// parallel batches (ignored by the worklist strategies).
pub fn analyze_with(
    m: &Module,
    strategy: PointerStrategy,
    runner: Option<WaveRunner<'_>>,
) -> PointerAnalysis {
    analyze_budgeted_with(m, strategy, &Budget::unlimited(), runner)
        .expect("unlimited budget cannot exhaust")
}

/// Runs `strategy` under a cooperative step budget. See
/// [`Solver::analyze_budgeted`] for the degradation contract.
///
/// # Errors
///
/// Returns [`Exhausted`] when the budget runs out before the fixpoint.
pub fn analyze_budgeted_with(
    m: &Module,
    strategy: PointerStrategy,
    budget: &Budget,
    runner: Option<WaveRunner<'_>>,
) -> Result<PointerAnalysis, Exhausted> {
    match strategy {
        PointerStrategy::Reference => ReferenceSolver.analyze_budgeted(m, budget),
        PointerStrategy::Andersen => AndersenSolver.analyze_budgeted(m, budget),
        PointerStrategy::Prefilter => PrefilterSolver.analyze_budgeted(m, budget),
        PointerStrategy::PrefilterWave => WaveSolver { runner }.analyze_budgeted(m, budget),
    }
}

/// Analyzes a module with the default strategy
/// ([`PointerStrategy::PrefilterWave`], inline batches). This is the
/// crate's plain entry point; strategy- and thread-aware callers go
/// through [`analyze_with`] or the driver.
pub fn analyze(m: &Module) -> PointerAnalysis {
    analyze_with(m, PointerStrategy::default(), None)
}

/// Budgeted analysis with the default strategy.
///
/// # Errors
///
/// Returns [`Exhausted`] when the budget runs out before the fixpoint.
pub fn analyze_budgeted(m: &Module, budget: &Budget) -> Result<PointerAnalysis, Exhausted> {
    analyze_budgeted_with(m, PointerStrategy::default(), budget, None)
}
