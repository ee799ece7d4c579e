//! The IR interpreter with a shadow-memory runtime.
//!
//! The interpreter plays two roles:
//!
//! * **the native machine** — it executes the program and tracks, for
//!   every register and memory cell, a *ground-truth* definedness bit.
//!   Ground truth is the oracle: it records every use of an undefined
//!   value at a critical operation regardless of instrumentation;
//! * **the instrumented machine** — when given a [`Plan`], it executes the
//!   plan's shadow operations alongside. Shadow registers live per frame,
//!   shadow memory per cell; both default to *defined*, and only explicit
//!   shadow operations change them (this realizes the paper's `Top`
//!   strong updates at zero runtime cost).
//!
//! The plan is not read during execution: each run first decodes it into
//! a dense side table (`table.rs`) that gives every site of every block
//! one slot. Each frame caches its current block's first slot, so the
//! per-step probe is one add and one slice-length test, and shadow ops
//! run from slices borrowed from the plan. Origins and first detections
//! are recorded per slot as well. A plan with no ops builds no table and
//! runs the native path.
//!
//! A deterministic cost model accumulates native and shadow cost
//! separately; [`Counters::slowdown_pct`] is the y-axis of Figure 10.

use std::collections::{BTreeSet, HashMap};

use usher_core::{Plan, ShadowOp, ShadowSrc};
use usher_ir::{
    BinOp, BlockId, Callee, ExtFunc, FuncId, GepOffset, Idx, Inst, Module, ObjId, ObjKind, Operand,
    Site, Terminator, UnOp, VarId,
};
use usher_vfg::CheckKind;

use crate::table::PlanTable;
use crate::value::{Addr, CostModel, Counters, RunOptions, Trap, UndefEvent, Value};

/// One memory cell: a value plus its ground-truth definedness.
#[derive(Clone, Copy, Debug)]
struct Cell {
    value: Value,
    defined: bool,
}

#[derive(Clone, Debug)]
struct Instance {
    /// Allocation-site object (kept for diagnostics in `Debug` dumps).
    #[allow(dead_code)]
    obj: ObjId,
    cells: Vec<Cell>,
    freed: bool,
}

/// Shadow state is a 64-bit poison mask per value: bit set = that bit may
/// be undefined; `0` = fully defined. Value-level plans only ever produce
/// all-or-nothing masks (`0` / `!0`); bit-level plans (Memcheck-style)
/// exploit the full width.
const POISON: u64 = !0;

/// A shadow value: poison mask plus the origin of the poison — an index
/// into the machine's origin table (0 = unknown). Origins make reports
/// actionable, the analogue of MSan's `-fsanitize-memory-track-origins`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Sh {
    mask: u64,
    origin: u32,
}

impl Sh {
    const DEFINED: Sh = Sh { mask: 0, origin: 0 };

    fn poison(origin: u32) -> Sh {
        Sh {
            mask: POISON,
            origin,
        }
    }

    /// Same provenance, different mask (clears the origin when fully
    /// defined).
    fn with_mask(self, mask: u64) -> Sh {
        Sh {
            mask,
            origin: if mask == 0 { 0 } else { self.origin },
        }
    }

    /// Union of poison; provenance of the first poisoned side wins.
    fn or(self, other: Sh) -> Sh {
        Sh {
            mask: self.mask | other.mask,
            origin: if self.mask != 0 {
                self.origin
            } else {
                other.origin
            },
        }
    }
}

struct Frame {
    func: FuncId,
    block: BlockId,
    idx: usize,
    /// Plan-table slot of `block`'s first site (0 without a table).
    base: usize,
    regs: Vec<Option<(Value, bool)>>,
    sh_regs: Vec<Sh>,
    stack_insts: HashMap<Site, u32>,
}

/// The outcome of a run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Values printed by `print`.
    pub trace: Vec<i64>,
    /// `main`'s return value, when it returned normally.
    pub exit: Option<i64>,
    /// Abnormal termination, if any.
    pub trap: Option<Trap>,
    /// Uses of undefined values *detected by the instrumentation*.
    pub detected: Vec<UndefEvent>,
    /// Ground-truth uses of undefined values at critical operations.
    pub ground_truth: Vec<UndefEvent>,
    /// Execution counters.
    pub counters: Counters,
}

impl RunResult {
    /// Distinct sites where the instrumentation fired.
    pub fn detected_sites(&self) -> BTreeSet<Site> {
        self.detected.iter().map(|e| e.site).collect()
    }

    /// Distinct sites where ground truth says an undefined value was used.
    pub fn ground_truth_sites(&self) -> BTreeSet<Site> {
        self.ground_truth.iter().map(|e| e.site).collect()
    }
}

/// Runs `main` of `m`, optionally under an instrumentation plan.
///
/// # Panics
///
/// Panics if the module has no `main`.
pub fn run(m: &Module, plan: Option<&Plan>, opts: &RunOptions) -> RunResult {
    let main = m.main.expect("module has no main function");
    Machine::new(m, plan, opts).run(main)
}

struct Machine<'a> {
    m: &'a Module,
    table: Option<PlanTable<'a>>,
    opts: &'a RunOptions,
    cost: CostModel,
    mem: Vec<Instance>,
    sh_mem: Vec<Vec<Sh>>,
    globals: HashMap<ObjId, u32>,
    sigma_g: Vec<Sh>,
    sigma_ret: Sh,
    rng: u64,
    fuel: u64,
    stack: Vec<Frame>,
    trace: Vec<i64>,
    detected: Vec<UndefEvent>,
    /// Per slot: whether a detection was reported there.
    detected_seen: Vec<bool>,
    gt: Vec<UndefEvent>,
    gt_seen: BTreeSet<Site>,
    counters: Counters,
    origins: Vec<Site>,
    /// Per slot: the origin id of poison created there (0 = none yet).
    origin_ids: Vec<u32>,
}

enum Step {
    Continue,
    Exit(Option<i64>),
    Trapped(Trap),
}

impl<'a> Machine<'a> {
    fn new(m: &'a Module, plan: Option<&'a Plan>, opts: &'a RunOptions) -> Machine<'a> {
        let table = plan.and_then(|p| PlanTable::decode(m, p));
        let slots = table.as_ref().map_or(0, PlanTable::slots);
        let mut mach = Machine {
            m,
            table,
            opts,
            cost: opts.cost,
            mem: Vec::new(),
            sh_mem: Vec::new(),
            globals: HashMap::new(),
            sigma_g: vec![Sh::DEFINED; 16],
            sigma_ret: Sh::DEFINED,
            rng: opts.input_seed.wrapping_mul(0x9e3779b97f4a7c15) | 1,
            fuel: opts.fuel,
            stack: Vec::new(),
            trace: Vec::new(),
            detected: Vec::new(),
            detected_seen: vec![false; slots],
            gt: Vec::new(),
            gt_seen: BTreeSet::new(),
            counters: Counters::default(),
            origins: Vec::new(),
            origin_ids: vec![0; slots],
        };
        // Globals exist for the whole run, zero-initialized and defined.
        for &g in &m.globals {
            let size = m.objects[g].size as usize;
            let inst = mach.alloc_instance(g, size, true);
            mach.globals.insert(g, inst);
        }
        mach
    }

    fn alloc_instance(&mut self, obj: ObjId, cells: usize, zero_defined: bool) -> u32 {
        let id = self.mem.len() as u32;
        self.mem.push(Instance {
            obj,
            cells: vec![
                Cell {
                    value: Value::Int(0),
                    defined: zero_defined
                };
                cells
            ],
            freed: false,
        });
        self.sh_mem.push(vec![Sh::DEFINED; cells]);
        id
    }

    fn run(mut self, main: FuncId) -> RunResult {
        self.push_frame(main, Vec::new());
        let outcome = loop {
            // The step budget is charged here and nowhere else: guard and
            // decrement live at one site so the accounting cannot drift
            // from the exhaustion check (shadow operations are free — both
            // the native and every instrumented run execute the identical
            // native prefix before trapping).
            if self.fuel == 0 {
                break Step::Trapped(Trap::FuelExhausted);
            }
            self.fuel = self.fuel.saturating_sub(1);
            match self.step() {
                Step::Continue => {}
                other => break other,
            }
        };
        let (exit, trap) = match outcome {
            Step::Exit(v) => (v, None),
            Step::Trapped(t) => (None, Some(t)),
            Step::Continue => unreachable!(),
        };
        RunResult {
            trace: self.trace,
            exit,
            trap,
            detected: self.detected,
            ground_truth: self.gt,
            counters: self.counters,
        }
    }

    fn push_frame(&mut self, f: FuncId, args: Vec<(Value, bool)>) {
        let func = &self.m.funcs[f];
        let base = self
            .table
            .as_ref()
            .map_or(0, |t| t.block_base(f, func.entry));
        let mut frame = Frame {
            func: f,
            block: func.entry,
            idx: 0,
            base,
            regs: vec![None; func.vars.len()],
            sh_regs: vec![Sh::DEFINED; func.vars.len()],
            stack_insts: HashMap::new(),
        };
        for (p, a) in func.params.iter().zip(args) {
            frame.regs[p.index()] = Some(a);
        }
        // Missing arguments (e.g. main's argc) are defined zeros.
        for p in &func.params {
            if frame.regs[p.index()].is_none() {
                frame.regs[p.index()] = Some((Value::Int(0), true));
            }
        }
        self.stack.push(frame);
        // Entry shadow ops (ParamSh), attributed to the entry block's
        // first site.
        if let Some(t) = &self.table {
            let ops = t.entry(f);
            if !ops.is_empty() {
                self.exec_shadow_ops(ops, Site::new(f, func.entry, 0), base);
            }
        }
        // Skip leading phis in the entry block (there are none in valid
        // IR, but stay defensive).
        self.skip_phis();
    }

    fn skip_phis(&mut self) {
        let frame = self.stack.last_mut().expect("frame exists");
        let func = &self.m.funcs[frame.func];
        let block = &func.blocks[frame.block];
        while frame.idx < block.insts.len() && matches!(block.insts[frame.idx], Inst::Phi { .. }) {
            frame.idx += 1;
        }
    }

    // ---- operand evaluation ---------------------------------------------

    fn eval(&self, op: Operand) -> (Value, bool) {
        match op {
            Operand::Const(c) => (Value::Int(c), true),
            Operand::Var(v) => {
                let frame = self.stack.last().expect("frame exists");
                frame.regs[v.index()].expect("SSA guarantees def before use")
            }
            Operand::Global(o) => (
                Value::Ptr(Addr {
                    inst: self.globals[&o],
                    cell: 0,
                }),
                true,
            ),
            Operand::Func(f) => (Value::Func(f), true),
            Operand::Undef => (Value::Int(0), false),
        }
    }

    /// The origin id of poison created at `site` (in `slot`), numbered by
    /// first use.
    fn origin_id(&mut self, site: Site, slot: usize) -> u32 {
        let id = self.origin_ids[slot];
        if id != 0 {
            return id;
        }
        self.origins.push(site);
        let id = self.origins.len() as u32;
        self.origin_ids[slot] = id;
        id
    }

    fn origin_site(&self, id: u32) -> Option<Site> {
        if id == 0 {
            None
        } else {
            self.origins.get(id as usize - 1).copied()
        }
    }

    fn shadow_of_src(&mut self, src: &ShadowSrc, site: Site, slot: usize) -> Sh {
        match src {
            ShadowSrc::Tl(v) => self.stack.last().expect("frame exists").sh_regs[v.index()],
            ShadowSrc::Const(true) => Sh::DEFINED,
            ShadowSrc::Const(false) => {
                let o = self.origin_id(site, slot);
                Sh::poison(o)
            }
        }
    }

    fn shadow_of_op(&mut self, op: Operand, site: Site, slot: usize) -> Sh {
        match op {
            Operand::Var(v) => self.stack.last().expect("frame exists").sh_regs[v.index()],
            Operand::Undef => {
                let o = self.origin_id(site, slot);
                Sh::poison(o)
            }
            _ => Sh::DEFINED,
        }
    }

    fn set_reg(&mut self, v: VarId, val: Value, gt: bool) {
        let frame = self.stack.last_mut().expect("frame exists");
        frame.regs[v.index()] = Some((val, gt));
    }

    fn deref(&self, v: Value, site: Site) -> Result<Addr, Trap> {
        match v {
            Value::Ptr(a) => {
                let inst = self
                    .mem
                    .get(a.inst as usize)
                    .ok_or(Trap::OutOfBounds(site))?;
                if inst.freed {
                    return Err(Trap::UseAfterFree(site));
                }
                if (a.cell as usize) >= inst.cells.len() {
                    return Err(Trap::OutOfBounds(site));
                }
                Ok(a)
            }
            Value::Int(_) => Err(Trap::NullDeref(site)),
            Value::Func(_) => Err(Trap::TypeError(site)),
        }
    }

    fn record_gt(&mut self, site: Site, kind: CheckKind, gt_defined: bool) {
        if !gt_defined && self.gt_seen.insert(site) {
            self.gt.push(UndefEvent {
                site,
                kind,
                origin: None,
            });
        }
    }

    // ---- shadow execution ------------------------------------------------

    fn run_before(&mut self, site: Site, slot: usize) {
        if let Some(t) = &self.table {
            let ops = t.before(slot);
            if !ops.is_empty() {
                self.exec_shadow_ops(ops, site, slot);
            }
        }
    }

    fn run_after(&mut self, site: Site, slot: usize) {
        if let Some(t) = &self.table {
            let ops = t.after(slot);
            if !ops.is_empty() {
                self.exec_shadow_ops(ops, site, slot);
            }
        }
    }

    /// Executes `ops` at `site`, whose plan-table slot is `slot`.
    fn exec_shadow_ops(&mut self, ops: &'a [ShadowOp], site: Site, slot: usize) {
        for op in ops {
            self.counters.shadow_ops += 1;
            match op {
                ShadowOp::SetTl { dst, defined } => {
                    self.counters.shadow_cost += self.cost.shadow_reg;
                    let sh = if *defined {
                        Sh::DEFINED
                    } else {
                        let o = self.origin_id(site, slot);
                        Sh::poison(o)
                    };
                    let frame = self.stack.last_mut().expect("frame exists");
                    frame.sh_regs[dst.index()] = sh;
                }
                ShadowOp::CopyTl { dst, src } => {
                    self.counters.shadow_cost += self.cost.shadow_reg;
                    let b = self.shadow_of_src(src, site, slot);
                    let frame = self.stack.last_mut().expect("frame exists");
                    frame.sh_regs[dst.index()] = b;
                }
                ShadowOp::AndTl { dst, srcs } => {
                    self.counters.shadow_cost += self.cost.shadow_reg;
                    // Conjunction of definedness = union of poison masks.
                    let mut b = Sh::DEFINED;
                    for s in srcs {
                        let sh = self.shadow_of_src(s, site, slot);
                        b = b.or(sh);
                    }
                    let frame = self.stack.last_mut().expect("frame exists");
                    frame.sh_regs[dst.index()] = b;
                }
                ShadowOp::BinSh { dst, op, lhs, rhs } => {
                    self.counters.shadow_cost += self.cost.shadow_reg;
                    let (lv, _) = self.eval(*lhs);
                    let (rv, _) = self.eval(*rhs);
                    let lsh = self.shadow_of_op(*lhs, site, slot);
                    let rsh = self.shadow_of_op(*rhs, site, slot);
                    let mask = bit_bin_shadow(*op, lv, lsh.mask, rv, rsh.mask);
                    let b = lsh.or(rsh).with_mask(mask);
                    let frame = self.stack.last_mut().expect("frame exists");
                    frame.sh_regs[dst.index()] = b;
                }
                ShadowOp::UnSh { dst, op, src } => {
                    self.counters.shadow_cost += self.cost.shadow_reg;
                    let sh = self.shadow_of_op(*src, site, slot);
                    let mask = match op {
                        // Complement preserves per-bit definedness.
                        usher_ir::UnOp::BitNot => sh.mask,
                        // The zero-test reads every bit.
                        usher_ir::UnOp::Not => all_or_nothing(sh.mask),
                        // Negation is 0 - x: carries propagate leftwards.
                        usher_ir::UnOp::Neg => left_propagate(sh.mask),
                    };
                    let b = sh.with_mask(mask);
                    let frame = self.stack.last_mut().expect("frame exists");
                    frame.sh_regs[dst.index()] = b;
                }
                ShadowOp::LoadSh { dst, addr } => {
                    self.counters.shadow_cost += self.cost.shadow_mem;
                    let (av, _) = self.eval(*addr);
                    let b = match self.deref(av, site) {
                        Ok(a) => self.sh_mem[a.inst as usize][a.cell as usize],
                        Err(_) => Sh::DEFINED, // native access traps; stay neutral
                    };
                    let frame = self.stack.last_mut().expect("frame exists");
                    frame.sh_regs[dst.index()] = b;
                }
                ShadowOp::StoreSh { addr, src } => {
                    self.counters.shadow_cost += self.cost.shadow_mem;
                    let (av, _) = self.eval(*addr);
                    let b = self.shadow_of_src(src, site, slot);
                    if let Ok(a) = self.deref(av, site) {
                        self.sh_mem[a.inst as usize][a.cell as usize] = b;
                    }
                }
                ShadowOp::SetMemClass {
                    addr,
                    obj,
                    class,
                    defined,
                    ..
                } => {
                    let (av, _) = self.eval(*addr);
                    if let Value::Ptr(a) = av {
                        let sh = if *defined {
                            Sh::DEFINED
                        } else {
                            let o = self.origin_id(site, slot);
                            Sh::poison(o)
                        };
                        let reps = self
                            .table
                            .as_ref()
                            .expect("ops come from the table")
                            .reps(*obj);
                        let mut touched = 0u64;
                        for (cell, cell_sh) in self.sh_mem[a.inst as usize].iter_mut().enumerate() {
                            let rep = reps[cell % reps.len()];
                            if *class == u32::MAX || rep == *class {
                                *cell_sh = sh;
                                touched += 1;
                            }
                        }
                        self.counters.shadow_cost +=
                            self.cost.shadow_mem + touched * self.cost.shadow_mem_init_per_cell;
                    }
                }
                ShadowOp::ArgSh { index, src } => {
                    self.counters.shadow_cost += self.cost.shadow_reg;
                    let b = self.shadow_of_src(src, site, slot);
                    if self.sigma_g.len() <= *index {
                        self.sigma_g.resize(index + 1, Sh::DEFINED);
                    }
                    self.sigma_g[*index] = b;
                }
                ShadowOp::ParamSh { dst, index } => {
                    self.counters.shadow_cost += self.cost.shadow_reg;
                    let b = self.sigma_g.get(*index).copied().unwrap_or(Sh::DEFINED);
                    let frame = self.stack.last_mut().expect("frame exists");
                    frame.sh_regs[dst.index()] = b;
                }
                ShadowOp::RetSh { src } => {
                    self.counters.shadow_cost += self.cost.shadow_reg;
                    self.sigma_ret = self.shadow_of_src(src, site, slot);
                }
                ShadowOp::RetResultSh { dst } => {
                    self.counters.shadow_cost += self.cost.shadow_reg;
                    let b = self.sigma_ret;
                    let frame = self.stack.last_mut().expect("frame exists");
                    frame.sh_regs[dst.index()] = b;
                }
                ShadowOp::Check { op, kind } => {
                    self.counters.shadow_cost += self.cost.shadow_check;
                    self.counters.checks_executed += 1;
                    let sh = self.shadow_of_op(*op, site, slot);
                    if sh.mask != 0 && !std::mem::replace(&mut self.detected_seen[slot], true) {
                        let origin = self.origin_site(sh.origin);
                        self.detected.push(UndefEvent {
                            site,
                            kind: *kind,
                            origin,
                        });
                    }
                }
            }
        }
    }

    // ---- native execution -------------------------------------------------

    fn step(&mut self) -> Step {
        let frame = self.stack.last().expect("frame exists");
        let f = frame.func;
        let block = frame.block;
        let idx = frame.idx;
        let func = &self.m.funcs[f];
        let insts_len = func.blocks[block].insts.len();
        let site = Site::new(f, block, idx.min(insts_len));
        let slot = frame.base + site.idx;

        self.counters.native_ops += 1;

        if idx < insts_len {
            let inst = func.blocks[block].insts[idx].clone();
            self.run_before(site, slot);
            match self.exec_inst(&inst, site) {
                Ok(advance) => {
                    if advance {
                        self.run_after(site, slot);
                        self.stack.last_mut().expect("frame exists").idx += 1;
                    }
                    Step::Continue
                }
                Err(t) => Step::Trapped(t),
            }
        } else {
            let term = func.blocks[block].term.clone();
            self.run_before(site, slot);
            self.exec_term(&term, site)
        }
    }

    fn exec_inst(&mut self, inst: &Inst, site: Site) -> Result<bool, Trap> {
        match inst {
            Inst::Copy { dst, src } => {
                self.counters.native_cost += self.cost.native_simple;
                let (v, gt) = self.eval(*src);
                self.set_reg(*dst, v, gt);
                Ok(true)
            }
            Inst::Un { dst, op, src } => {
                self.counters.native_cost += self.cost.native_simple;
                let (v, gt) = self.eval(*src);
                let Value::Int(n) = v else {
                    return Err(Trap::TypeError(site));
                };
                let r = match op {
                    UnOp::Neg => n.wrapping_neg(),
                    UnOp::Not => (n == 0) as i64,
                    UnOp::BitNot => !n,
                };
                self.set_reg(*dst, Value::Int(r), gt);
                Ok(true)
            }
            Inst::Bin { dst, op, lhs, rhs } => {
                self.counters.native_cost += self.cost.native_simple;
                let (l, gl) = self.eval(*lhs);
                let (r, gr) = self.eval(*rhs);
                let gt = gl && gr;
                let result = match (op, l, r) {
                    (BinOp::Eq, a, b) => Value::Int((a == b) as i64),
                    (BinOp::Ne, a, b) => Value::Int((a != b) as i64),
                    (op, Value::Int(a), Value::Int(b)) => {
                        Value::Int(eval_int_bin(*op, a, b).ok_or(Trap::DivByZero(site))?)
                    }
                    _ => return Err(Trap::TypeError(site)),
                };
                self.set_reg(*dst, result, gt);
                Ok(true)
            }
            Inst::Alloc { dst, obj, count } => {
                self.counters.native_cost += self.cost.native_call;
                let o = &self.m.objects[*obj];
                let zero = o.zero_init;
                let inst_id = match o.kind {
                    ObjKind::Stack(_) => {
                        let existing = self
                            .stack
                            .last()
                            .expect("frame exists")
                            .stack_insts
                            .get(&site)
                            .copied();
                        match existing {
                            Some(id) => {
                                // C semantics: the slot's previous contents
                                // are indeterminate on re-entry.
                                for cell in self.mem[id as usize].cells.iter_mut() {
                                    if zero {
                                        cell.value = Value::Int(0);
                                        cell.defined = true;
                                    } else {
                                        cell.defined = false;
                                    }
                                }
                                id
                            }
                            None => {
                                let id = self.alloc_instance(*obj, o.size as usize, zero);
                                self.stack
                                    .last_mut()
                                    .expect("frame exists")
                                    .stack_insts
                                    .insert(site, id);
                                id
                            }
                        }
                    }
                    ObjKind::Heap(_) => {
                        let n = match count {
                            Some(c) => {
                                let (v, _) = self.eval(*c);
                                let Value::Int(n) = v else {
                                    return Err(Trap::TypeError(site));
                                };
                                n.max(0) as u64
                            }
                            None => 1,
                        };
                        let cells = (n * o.size as u64).max(1);
                        if cells > self.opts.max_alloc_cells {
                            return Err(Trap::AllocTooLarge(site));
                        }
                        self.counters.native_cost += cells / 8;
                        self.alloc_instance(*obj, cells as usize, zero)
                    }
                    ObjKind::Global => unreachable!("globals are never alloc'd"),
                };
                self.set_reg(
                    *dst,
                    Value::Ptr(Addr {
                        inst: inst_id,
                        cell: 0,
                    }),
                    true,
                );
                Ok(true)
            }
            Inst::Gep { dst, base, offset } => {
                self.counters.native_cost += self.cost.native_simple;
                let (b, gb) = self.eval(*base);
                let Value::Ptr(a) = b else {
                    return Err(Trap::NullDeref(site));
                };
                let (delta, gi) = match offset {
                    GepOffset::Field(k) => (*k as i64, true),
                    GepOffset::Index { index, elem_cells } => {
                        let (iv, gi) = self.eval(*index);
                        let Value::Int(i) = iv else {
                            return Err(Trap::TypeError(site));
                        };
                        (i.wrapping_mul(*elem_cells as i64), gi)
                    }
                };
                let cell = a.cell as i64 + delta;
                if !(0..=u32::MAX as i64).contains(&cell) {
                    return Err(Trap::OutOfBounds(site));
                }
                self.set_reg(
                    *dst,
                    Value::Ptr(Addr {
                        inst: a.inst,
                        cell: cell as u32,
                    }),
                    gb && gi,
                );
                Ok(true)
            }
            Inst::Load { dst, addr } => {
                self.counters.native_cost += self.cost.native_mem;
                let (av, gt) = self.eval(*addr);
                self.record_gt(site, CheckKind::LoadAddr, gt);
                let a = self.deref(av, site)?;
                let cell = self.mem[a.inst as usize].cells[a.cell as usize];
                self.set_reg(*dst, cell.value, cell.defined);
                Ok(true)
            }
            Inst::Store { addr, val } => {
                self.counters.native_cost += self.cost.native_mem;
                let (av, gt) = self.eval(*addr);
                self.record_gt(site, CheckKind::StoreAddr, gt);
                let a = self.deref(av, site)?;
                let (v, gv) = self.eval(*val);
                self.mem[a.inst as usize].cells[a.cell as usize] = Cell {
                    value: v,
                    defined: gv,
                };
                Ok(true)
            }
            Inst::Call { dst, callee, args } => {
                self.counters.native_cost += self.cost.native_call;
                match callee {
                    Callee::External(ext) => {
                        self.exec_external(*ext, dst, args, site)?;
                        Ok(true)
                    }
                    Callee::Direct(g) => {
                        self.enter_call(*g, args, site)?;
                        Ok(false) // frame pushed; resume on return
                    }
                    Callee::Indirect(t) => {
                        let (tv, gt) = self.eval(*t);
                        self.record_gt(site, CheckKind::CallTarget, gt);
                        let Value::Func(g) = tv else {
                            return Err(Trap::BadCallTarget(site));
                        };
                        if self.m.funcs[g].params.len() != args.len() {
                            return Err(Trap::BadCallTarget(site));
                        }
                        self.enter_call(g, args, site)?;
                        Ok(false)
                    }
                }
            }
            Inst::Phi { .. } => {
                // Phis execute at block entry; stepping onto one means the
                // phi prefix was not skipped — a machine bug.
                unreachable!("phi reached by sequential execution")
            }
        }
    }

    fn enter_call(&mut self, g: FuncId, args: &[Operand], site: Site) -> Result<(), Trap> {
        if self.stack.len() >= self.opts.max_depth {
            return Err(Trap::StackOverflow(site));
        }
        let vals: Vec<(Value, bool)> = args.iter().map(|a| self.eval(*a)).collect();
        self.push_frame(g, vals);
        Ok(())
    }

    fn exec_external(
        &mut self,
        ext: ExtFunc,
        dst: &Option<VarId>,
        args: &[Operand],
        site: Site,
    ) -> Result<(), Trap> {
        match ext {
            ExtFunc::PrintInt => {
                let (v, _) = self.eval(args[0]);
                let Value::Int(n) = v else {
                    return Err(Trap::TypeError(site));
                };
                self.trace.push(n);
            }
            ExtFunc::InputInt => {
                self.rng = self
                    .rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let n = ((self.rng >> 33) & 0x3ff) as i64;
                if let Some(d) = dst {
                    self.set_reg(*d, Value::Int(n), true);
                }
            }
            ExtFunc::Abort => return Err(Trap::Abort(site)),
            ExtFunc::Free => {
                let (v, _) = self.eval(args[0]);
                match v {
                    Value::Ptr(a) => {
                        if self.mem[a.inst as usize].freed {
                            return Err(Trap::UseAfterFree(site));
                        }
                        self.mem[a.inst as usize].freed = true;
                    }
                    Value::Int(0) => {} // free(NULL) is a no-op
                    _ => return Err(Trap::TypeError(site)),
                }
            }
        }
        Ok(())
    }

    fn exec_term(&mut self, term: &Terminator, site: Site) -> Step {
        match term {
            Terminator::Jmp(b) => {
                self.counters.native_cost += self.cost.native_simple;
                self.enter_block(*b);
                Step::Continue
            }
            Terminator::Br {
                cond,
                then_bb,
                else_bb,
            } => {
                self.counters.native_cost += self.cost.native_simple;
                let (v, gt) = self.eval(*cond);
                self.record_gt(site, CheckKind::BranchCond, gt);
                let target = if v.truthy() { *then_bb } else { *else_bb };
                self.enter_block(target);
                Step::Continue
            }
            Terminator::Ret(op) => {
                self.counters.native_cost += self.cost.native_simple;
                let retval = op.map(|o| self.eval(o));
                self.stack.pop();
                match self.stack.last() {
                    None => {
                        let exit = match retval {
                            Some((Value::Int(n), _)) => Some(n),
                            _ => None,
                        };
                        Step::Exit(exit)
                    }
                    Some(frame) => {
                        // Complete the suspended call in the caller.
                        let caller_site = Site::new(frame.func, frame.block, frame.idx);
                        let caller_slot = frame.base + frame.idx;
                        let call_inst =
                            self.m.funcs[frame.func].blocks[frame.block].insts[frame.idx].clone();
                        if let Inst::Call { dst: Some(d), .. } = call_inst {
                            let (v, gt) = retval.unwrap_or((Value::Int(0), false));
                            self.set_reg(d, v, gt);
                        }
                        self.run_after(caller_site, caller_slot);
                        self.stack.last_mut().expect("frame exists").idx += 1;
                        Step::Continue
                    }
                }
            }
            Terminator::Unreachable => Step::Trapped(Trap::TypeError(site)),
        }
    }

    /// Transfers control to `target`, executing its phi prefix with
    /// parallel-copy semantics.
    fn enter_block(&mut self, target: BlockId) {
        let frame = self.stack.last().expect("frame exists");
        let f = frame.func;
        let from = frame.block;
        let func = &self.m.funcs[f];
        let block = &func.blocks[target];
        let base = self.table.as_ref().map_or(0, |t| t.block_base(f, target));

        // Gather (dst, value, gt, shadow) for every phi first.
        let mut writes: Vec<(VarId, Value, bool, Option<Sh>)> = Vec::new();
        let mut nphis = 0usize;
        for inst in &block.insts {
            let Inst::Phi { dst, incomings } = inst else {
                break;
            };
            nphis += 1;
            let inc = incomings
                .iter()
                .find(|(b, _)| *b == from)
                .map(|(_, o)| *o)
                .unwrap_or(Operand::Undef);
            let (v, gt) = self.eval(inc);
            let tracked = self.table.as_ref().is_some_and(|t| t.tracks_phi(f, *dst));
            let sh = tracked.then(|| self.shadow_of_op(inc, Site::new(f, target, 0), base));
            writes.push((*dst, v, gt, sh));
        }
        self.counters.native_ops += nphis as u64;
        self.counters.native_cost += nphis as u64 * self.cost.native_simple;

        let frame = self.stack.last_mut().expect("frame exists");
        for (dst, v, gt, sh) in writes {
            frame.regs[dst.index()] = Some((v, gt));
            if let Some(sh) = sh {
                self.counters.shadow_ops += 1;
                self.counters.shadow_cost += self.cost.shadow_reg;
                frame.sh_regs[dst.index()] = sh;
            }
        }
        frame.block = target;
        frame.idx = nphis;
        frame.base = base;
    }
}

fn eval_int_bin(op: BinOp, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return None;
            }
            a.wrapping_div(b)
        }
        BinOp::Rem => {
            if b == 0 {
                return None;
            }
            a.wrapping_rem(b)
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl((b & 63) as u32),
        BinOp::Shr => a.wrapping_shr((b & 63) as u32),
        BinOp::Eq => (a == b) as i64,
        BinOp::Ne => (a != b) as i64,
        BinOp::Lt => (a < b) as i64,
        BinOp::Le => (a <= b) as i64,
        BinOp::Gt => (a > b) as i64,
        BinOp::Ge => (a >= b) as i64,
    })
}

/// Collapses a mask to all-or-nothing (any poisoned bit poisons all).
fn all_or_nothing(m: u64) -> u64 {
    if m == 0 {
        0
    } else {
        POISON
    }
}

/// Carry-style left propagation: every bit at or above the lowest
/// poisoned bit becomes poisoned (Memcheck's cheap add/sub rule).
fn left_propagate(m: u64) -> u64 {
    if m == 0 {
        0
    } else {
        POISON << m.trailing_zeros()
    }
}

/// Memcheck-style bit-precise shadow for a binary operation.
fn bit_bin_shadow(op: BinOp, lv: Value, lm: u64, rv: Value, rm: u64) -> u64 {
    let (va, vb) = match (lv, rv) {
        (Value::Int(a), Value::Int(b)) => (a as u64, b as u64),
        // Pointer/function operands only occur under Eq/Ne; any poison
        // poisons the (boolean) result entirely.
        _ => return all_or_nothing(lm | rm),
    };
    match op {
        BinOp::And => {
            // A defined 0 bit forces a defined 0 result bit.
            let def0 = (!va & !lm) | (!vb & !rm);
            (lm | rm) & !def0
        }
        BinOp::Or => {
            // A defined 1 bit forces a defined 1 result bit.
            let def1 = (va & !lm) | (vb & !rm);
            (lm | rm) & !def1
        }
        BinOp::Xor => lm | rm,
        BinOp::Shl => {
            if rm != 0 {
                POISON
            } else {
                lm << (vb & 63)
            }
        }
        BinOp::Shr => {
            if rm != 0 {
                POISON
            } else {
                // Arithmetic shift smears the (possibly poisoned) sign bit.
                ((lm as i64) >> (vb & 63)) as u64
            }
        }
        BinOp::Add | BinOp::Sub => left_propagate(lm | rm),
        BinOp::Mul
        | BinOp::Div
        | BinOp::Rem
        | BinOp::Eq
        | BinOp::Ne
        | BinOp::Lt
        | BinOp::Le
        | BinOp::Gt
        | BinOp::Ge => all_or_nothing(lm | rm),
    }
}
