//! The instrumentation plan pre-decoded against its module.
//!
//! A [`Plan`] keys its shadow operations by [`Site`] in hash maps — the
//! right shape for the planner, the serve codec and plan fingerprints,
//! but a hash probe per executed instruction if the interpreter read it
//! directly. [`PlanTable::decode`] lays the plan out densely once per run:
//!
//! * every site of every block (its instructions plus the terminator)
//!   gets one **slot**, a per-block base offset plus the site's `idx`;
//! * `before` and `after` hold one op slice per slot, borrowed from the
//!   plan (empty when the site has no ops);
//! * entry ops are indexed by [`FuncId`], and tracked phis are one bit
//!   vector per function;
//! * the representative-cell map that `SetMemClass` applies is computed
//!   once per object it names.
//!
//! A plan that names a site, function, variable or object outside the
//! module is rejected with a panic naming it: a dense table would
//! otherwise index out of bounds, or alias the next block's slot and run
//! shadow ops at the wrong instruction.

use std::collections::HashMap;

use usher_core::{Plan, ShadowOp};
use usher_ir::{BlockId, FuncId, Idx, Module, ObjId, Site, VarId};

/// A [`Plan`] decoded into dense per-slot, per-function and per-object
/// tables, borrowing its op lists from the plan.
pub(crate) struct PlanTable<'p> {
    /// First slot of each block, per function.
    block_base: Vec<Vec<usize>>,
    /// Ops to run before each slot's site.
    before: Vec<&'p [ShadowOp]>,
    /// Ops to run after each slot's site.
    after: Vec<&'p [ShadowOp]>,
    /// Ops to run on entry to each function.
    entry: Vec<&'p [ShadowOp]>,
    /// Tracked phi destinations: one bit per variable, per function.
    tracked_phis: Vec<Vec<u64>>,
    /// Representative cell of each cell's class, per object (empty for
    /// objects no `SetMemClass` names).
    reps: Vec<Vec<u32>>,
}

impl<'p> PlanTable<'p> {
    /// Decodes `plan` against `m`; `None` when the plan has no ops and no
    /// tracked phis, so the run takes the native path.
    ///
    /// # Panics
    ///
    /// Panics, naming the offender, if the plan refers to a site,
    /// function, variable or object that `m` does not have.
    pub(crate) fn decode(m: &Module, plan: &'p Plan) -> Option<PlanTable<'p>> {
        let no_ops = plan
            .before
            .values()
            .chain(plan.after.values())
            .chain(plan.entry.values())
            .all(Vec::is_empty);
        if no_ops && plan.tracked_phis.is_empty() {
            return None;
        }
        let mut slots = 0;
        let block_base = m
            .funcs
            .iter()
            .map(|f| {
                f.blocks
                    .iter()
                    .map(|b| {
                        let base = slots;
                        slots += b.insts.len() + 1;
                        base
                    })
                    .collect()
            })
            .collect();
        let mut table = PlanTable {
            block_base,
            before: vec![&[]; slots],
            after: vec![&[]; slots],
            entry: vec![&[]; m.funcs.len()],
            tracked_phis: m
                .funcs
                .iter()
                .map(|f| vec![0; f.vars.len().div_ceil(64)])
                .collect(),
            reps: vec![Vec::new(); m.objects.len()],
        };
        for (site, ops) in &plan.before {
            let slot = table.slot_of(m, *site);
            table.before[slot] = ops;
            table.add_reps(m, ops);
        }
        for (site, ops) in &plan.after {
            let slot = table.slot_of(m, *site);
            table.after[slot] = ops;
            table.add_reps(m, ops);
        }
        for (&f, ops) in &plan.entry {
            assert!(
                f.index() < m.funcs.len(),
                "plan entry ops name function {f}, which is outside the module"
            );
            table.entry[f.index()] = ops;
            table.add_reps(m, ops);
        }
        for &(f, v) in &plan.tracked_phis {
            let words = table
                .tracked_phis
                .get_mut(f.index())
                .filter(|_| v.index() < m.funcs[f].vars.len())
                .unwrap_or_else(|| {
                    panic!("plan tracks phi {f}:{v:?}, which is outside the module")
                });
            words[v.index() / 64] |= 1 << (v.index() % 64);
        }
        Some(table)
    }

    /// The slot of `site`, which must lie inside `m`.
    fn slot_of(&self, m: &Module, site: Site) -> usize {
        let base = self
            .block_base
            .get(site.func.index())
            .and_then(|blocks| blocks.get(site.block.index()))
            .filter(|_| site.idx <= m.funcs[site.func].blocks[site.block].insts.len());
        match base {
            Some(&base) => base + site.idx,
            None => panic!("plan site {site} is outside the module"),
        }
    }

    /// Computes the representative-cell map of every object `ops` names.
    fn add_reps(&mut self, m: &Module, ops: &[ShadowOp]) {
        for op in ops {
            let ShadowOp::SetMemClass { obj, .. } = op else {
                continue;
            };
            let reps = self.reps.get_mut(obj.index()).unwrap_or_else(|| {
                panic!("plan initializes object {obj:?}, which is outside the module")
            });
            if reps.is_empty() {
                *reps = class_reps(&m.objects[*obj].field_classes);
            }
        }
    }

    /// First slot of block `b` of `f`.
    pub(crate) fn block_base(&self, f: FuncId, b: BlockId) -> usize {
        self.block_base[f.index()][b.index()]
    }

    /// Ops to run before the site in `slot`.
    pub(crate) fn before(&self, slot: usize) -> &'p [ShadowOp] {
        self.before[slot]
    }

    /// Ops to run after the site in `slot`.
    pub(crate) fn after(&self, slot: usize) -> &'p [ShadowOp] {
        self.after[slot]
    }

    /// Ops to run on entry to `f`.
    pub(crate) fn entry(&self, f: FuncId) -> &'p [ShadowOp] {
        self.entry[f.index()]
    }

    /// Number of slots.
    pub(crate) fn slots(&self) -> usize {
        self.before.len()
    }

    /// Whether the phi defining `v` in `f` has its shadow tracked.
    pub(crate) fn tracks_phi(&self, f: FuncId, v: VarId) -> bool {
        self.tracked_phis[f.index()][v.index() / 64] >> (v.index() % 64) & 1 != 0
    }

    /// Representative cell of each cell's class in `obj`, repeating with
    /// the object's size.
    pub(crate) fn reps(&self, obj: ObjId) -> &[u32] {
        &self.reps[obj.index()]
    }
}

/// Maps each cell to the first cell of its layout class (`[0]` for an
/// object without fields).
fn class_reps(classes: &[u32]) -> Vec<u32> {
    let mut first: HashMap<u32, u32> = HashMap::new();
    let mut out: Vec<u32> = classes
        .iter()
        .enumerate()
        .map(|(cell, &class)| *first.entry(class).or_insert(cell as u32))
        .collect();
    if out.is_empty() {
        out.push(0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use usher_core::{run_config, Config};
    use usher_frontend::compile_o0im;

    const SRC: &str = "def main() -> int {
                           int x;
                           if (x > 0) { print(1); }
                           return 0;
                       }";

    #[test]
    fn empty_plan_builds_no_table() {
        let m = compile_o0im(SRC).unwrap();
        assert!(PlanTable::decode(&m, &Plan::default()).is_none());
        assert!(PlanTable::decode(&m, &run_config(&m, Config::MSAN).plan).is_some());
    }

    #[test]
    #[should_panic(expected = "plan site")]
    fn site_past_the_terminator_is_rejected() {
        let m = compile_o0im(SRC).unwrap();
        let main = m.main.unwrap();
        let entry = m.funcs[main].entry;
        let past = m.funcs[main].blocks[entry].insts.len() + 1;
        let mut plan = run_config(&m, Config::MSAN).plan;
        // One past the terminator would alias the next block's first slot.
        let stray = Site::new(main, entry, past);
        plan.after.insert(
            stray,
            vec![ShadowOp::RetSh {
                src: usher_core::ShadowSrc::Const(true),
            }],
        );
        PlanTable::decode(&m, &plan);
    }
}
