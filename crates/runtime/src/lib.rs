//! # usher-runtime
//!
//! The dynamic half of the reproduction: a deterministic IR interpreter
//! with a shadow-memory runtime that executes instrumentation plans
//! (either the MSan-style full plan or an Usher-guided plan) and measures
//! their overhead with a calibrated cost model.
//!
//! The interpreter additionally tracks *ground-truth* definedness for
//! every value, independent of the shadows — the oracle against which the
//! detectors are validated in tests and benchmarks.
//!
//! A [`Plan`](usher_core::Plan) is not consulted while the program runs.
//! [`run`] first decodes it into a dense side table with one slot per site
//! of every block (instructions plus terminator), holding the op slices
//! to run before and after that site, borrowed from the plan. Frames
//! cache their block's first slot, so an instrumented run pays per
//! executed instruction only an add and a slice-length test, plus the
//! shadow ops it actually executes. A plan with no ops decodes to no
//! table and runs exactly like a native run.
//!
//! ```
//! use usher_core::{run_config, Config};
//! use usher_runtime::{run, RunOptions};
//!
//! let m = usher_frontend::compile_o0im(
//!     "def main() -> int { int x = 40; return x + 2; }",
//! ).unwrap();
//! let native = run(&m, None, &RunOptions::default());
//! assert_eq!(native.exit, Some(42));
//!
//! let plan = run_config(&m, Config::MSAN).plan;
//! let inst = run(&m, Some(&plan), &RunOptions::default());
//! assert_eq!(inst.exit, Some(42));
//! assert!(inst.detected.is_empty());
//! ```

#![warn(missing_docs)]

pub mod interp;
mod table;
pub mod value;

pub use interp::{run, RunResult};
pub use value::{Addr, CostModel, Counters, RunOptions, Trap, UndefEvent, Value};

#[cfg(test)]
mod tests {
    use super::*;
    use usher_core::{run_config, Config};
    use usher_frontend::compile_o0im;
    use usher_ir::Module;

    fn compile(src: &str) -> Module {
        compile_o0im(src).expect("compiles")
    }

    fn native(src: &str) -> RunResult {
        run(&compile(src), None, &RunOptions::default())
    }

    fn with_config(m: &Module, cfg: Config) -> RunResult {
        let plan = run_config(m, cfg).plan;
        run(m, Some(&plan), &RunOptions::default())
    }

    // ---- native semantics -------------------------------------------------

    #[test]
    fn arithmetic_and_control_flow() {
        let r = native(
            "def main() -> int {
                 int s = 0;
                 for (int i = 1; i <= 10; i = i + 1) { s = s + i; }
                 return s;
             }",
        );
        assert_eq!(r.exit, Some(55));
        assert!(r.trap.is_none());
    }

    #[test]
    fn recursion_fibonacci() {
        let r = native(
            "def fib(int n) -> int {
                 if (n < 2) { return n; }
                 return fib(n - 1) + fib(n - 2);
             }
             def main() -> int { return fib(12); }",
        );
        assert_eq!(r.exit, Some(144));
    }

    #[test]
    fn heap_linked_list() {
        let r = native(
            "struct Node { int v; struct Node *next; };
             def main() -> int {
                 struct Node *head = 0;
                 for (int i = 0; i < 5; i = i + 1) {
                     struct Node *n;
                     n = malloc(1);
                     n->v = i;
                     n->next = head;
                     head = n;
                 }
                 int s = 0;
                 struct Node *cur = head;
                 while (cur != 0) { s = s + cur->v; cur = cur->next; }
                 return s;
             }",
        );
        assert_eq!(r.exit, Some(10));
    }

    #[test]
    fn arrays_and_pointer_arithmetic() {
        let r = native(
            "def main() -> int {
                 int a[8];
                 for (int i = 0; i < 8; i = i + 1) { a[i] = i * i; }
                 int *p = &a[3];
                 return *p + *(p + 2);
             }",
        );
        assert_eq!(r.exit, Some(9 + 25));
    }

    #[test]
    fn globals_are_zeroed() {
        let r = native(
            "int g; int arr[4];
             def main() -> int { return g + arr[2]; }",
        );
        assert_eq!(r.exit, Some(0));
        assert!(r.ground_truth.is_empty());
    }

    #[test]
    fn print_and_deterministic_input() {
        let src = "def main() { print(input()); print(input()); }";
        let a = native(src);
        let b = native(src);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.trace.len(), 2);
    }

    #[test]
    fn indirect_call_through_function_pointer() {
        let r = native(
            "def sq(int x) -> int { return x * x; }
             def cube(int x) -> int { return x * x * x; }
             def main() -> int {
                 fn(int) -> int f;
                 if (input() >= 0) { f = sq; } else { f = cube; }
                 return f(5);
             }",
        );
        assert_eq!(r.exit, Some(25));
    }

    #[test]
    fn null_deref_traps() {
        let r = native("def main() { int *p = 0; *p = 1; }");
        assert!(matches!(r.trap, Some(Trap::NullDeref(_))), "{:?}", r.trap);
    }

    #[test]
    fn out_of_bounds_traps() {
        let r = native("def main() -> int { int a[4]; int i = 9; a[i] = 1; return 0; }");
        assert!(matches!(r.trap, Some(Trap::OutOfBounds(_))), "{:?}", r.trap);
    }

    #[test]
    fn use_after_free_traps() {
        let r = native("def main() { int *p; p = malloc(2); free(p); *p = 1; }");
        assert!(
            matches!(r.trap, Some(Trap::UseAfterFree(_))),
            "{:?}",
            r.trap
        );
    }

    #[test]
    fn division_by_zero_traps() {
        let r = native("def main() -> int { int z = 0; return 5 / z; }");
        assert!(matches!(r.trap, Some(Trap::DivByZero(_))), "{:?}", r.trap);
    }

    #[test]
    fn fuel_exhaustion_is_reported() {
        let m = compile("def main() { while (1) { } }");
        let r = run(
            &m,
            None,
            &RunOptions {
                fuel: 1000,
                ..Default::default()
            },
        );
        assert!(matches!(r.trap, Some(Trap::FuelExhausted)));
    }

    #[test]
    fn stack_overflow_traps() {
        let m = compile(
            "def loop_forever(int n) -> int { return loop_forever(n + 1); }
             def main() -> int { return loop_forever(0); }",
        );
        let r = run(
            &m,
            None,
            &RunOptions {
                max_depth: 64,
                ..Default::default()
            },
        );
        assert!(
            matches!(r.trap, Some(Trap::StackOverflow(_))),
            "{:?}",
            r.trap
        );
    }

    // ---- ground truth ------------------------------------------------------

    #[test]
    fn ground_truth_catches_uninitialized_branch() {
        let r = native(
            "def main() -> int {
                 int x;
                 if (x > 0) { return 1; }
                 return 0;
             }",
        );
        assert_eq!(r.ground_truth.len(), 1);
    }

    #[test]
    fn ground_truth_catches_malloc_read_flow() {
        let r = native(
            "def main() -> int {
                 int *p;
                 p = malloc(4);
                 int v = *(p + 1);
                 if (v) { return 1; }
                 return 0;
             }",
        );
        // The branch uses a value loaded from uninitialized heap memory.
        assert_eq!(r.ground_truth.len(), 1, "{:?}", r.ground_truth);
    }

    #[test]
    fn calloc_flow_is_clean() {
        let r = native(
            "def main() -> int {
                 int *p;
                 p = calloc(4);
                 int v = *(p + 1);
                 if (v) { return 1; }
                 return 0;
             }",
        );
        assert!(r.ground_truth.is_empty());
    }

    // ---- instrumented runs --------------------------------------------------

    #[test]
    fn full_plan_detects_exactly_ground_truth() {
        let srcs = [
            "def main() -> int { int x; if (x > 0) { return 1; } return 0; }",
            "def main() -> int { int *p; p = malloc(2); if (*p) { return 1; } return 0; }",
            "def main() -> int { int x = 1; if (x > 0) { return 1; } return 0; }",
            "int g; def main() -> int { if (g) { return 1; } return 0; }",
        ];
        for src in srcs {
            let m = compile(src);
            let r = with_config(&m, Config::MSAN);
            assert_eq!(
                r.detected_sites(),
                r.ground_truth_sites(),
                "full instrumentation must mirror ground truth for: {src}"
            );
        }
    }

    #[test]
    fn guided_detects_same_errors_as_full() {
        let src = "
            def maybe_init(int c, int *out) {
                if (c > 512) { *out = 1; }
            }
            def main() -> int {
                int x;
                maybe_init(input(), &x);
                if (x > 0) { print(x); }
                return 0;
            }";
        let m = compile(src);
        let full = with_config(&m, Config::MSAN);
        for cfg in [Config::USHER_TL, Config::USHER_TL_AT, Config::USHER_OPT1] {
            let guided = with_config(&m, cfg);
            assert_eq!(
                guided.detected_sites(),
                full.detected_sites(),
                "{} must match MSan",
                cfg.name
            );
        }
    }

    #[test]
    fn usher_with_opt2_detects_subset_dominated_by_full() {
        let src = "
            def main() -> int {
                int x;
                if (input() > 2000) { x = 1; }
                if (x > 0) { print(1); }
                if (x > 1) { print(2); }
                return 0;
            }";
        let m = compile(src);
        let full = with_config(&m, Config::MSAN);
        let usher = with_config(&m, Config::USHER);
        // Opt II may suppress dominated duplicates but never invents
        // errors, and the program-level verdict agrees.
        assert!(usher.detected_sites().is_subset(&full.detected_sites()));
        assert_eq!(usher.detected.is_empty(), full.detected.is_empty());
    }

    #[test]
    fn instrumented_execution_preserves_semantics() {
        let src = "
            int table[16];
            def main() -> int {
                int s = 0;
                for (int i = 0; i < 16; i = i + 1) { table[i] = i * 2; }
                for (int i = 0; i < 16; i = i + 1) { s = s + table[i]; }
                print(s);
                return s;
            }";
        let m = compile(src);
        let nat = run(&m, None, &RunOptions::default());
        for cfg in Config::ALL {
            let r = with_config(&m, cfg);
            assert_eq!(r.exit, nat.exit, "{}", cfg.name);
            assert_eq!(r.trace, nat.trace, "{}", cfg.name);
        }
    }

    #[test]
    fn guided_overhead_is_below_full_overhead() {
        let src = "
            int buf[256];
            def main() -> int {
                int s = 0;
                for (int i = 0; i < 256; i = i + 1) { buf[i] = i; }
                for (int r = 0; r < 50; r = r + 1) {
                    for (int i = 0; i < 256; i = i + 1) { s = s + buf[i]; }
                }
                if (s > 0) { print(s); }
                return 0;
            }";
        let m = compile(src);
        let full = with_config(&m, Config::MSAN);
        let usher = with_config(&m, Config::USHER);
        assert!(
            usher.counters.slowdown_pct() < full.counters.slowdown_pct(),
            "usher {:.1}% vs full {:.1}%",
            usher.counters.slowdown_pct(),
            full.counters.slowdown_pct()
        );
    }

    #[test]
    fn native_run_has_zero_shadow_cost() {
        let r = native("def main() -> int { return 7; }");
        assert_eq!(r.counters.shadow_cost, 0);
        assert_eq!(r.counters.shadow_ops, 0);
        assert!(r.counters.native_ops > 0);
    }

    #[test]
    fn stack_slot_reuse_in_loops_repoisons() {
        // A loop-local is indeterminate each iteration; the guided plan
        // must re-poison it so late iterations still detect the bug.
        let src = "
            def main() -> int {
                int bad = 0;
                for (int i = 0; i < 4; i = i + 1) {
                    int x;
                    int *p = &x;
                    if (i == 0) { *p = 1; }
                    if (*p > 0) { bad = bad + 1; }
                }
                return bad;
            }";
        let m = compile(src);
        let full = with_config(&m, Config::MSAN);
        let usher = with_config(&m, Config::USHER);
        assert!(
            !full.detected.is_empty(),
            "iterations 1..3 read indeterminate x"
        );
        assert_eq!(usher.detected_sites(), full.detected_sites());
    }
}

#[cfg(test)]
mod bit_level_tests {
    use super::*;
    use usher_core::{run_config, Config};
    use usher_frontend::compile_o0im;
    use usher_workloads::{generate, GenConfig};

    fn detect(src: &str, cfg: Config) -> RunResult {
        let m = compile_o0im(src).expect("compiles");
        let plan = run_config(&m, cfg).plan;
        run(&m, Some(&plan), &RunOptions::default())
    }

    #[test]
    fn masking_with_defined_zero_is_bit_defined() {
        // `u & 240` keeps only bits 4..8 of the undefined value; shifting
        // them out leaves a fully defined zero. Value-level shadows flag
        // the branch; bit-level shadows (like Memcheck/MSan) do not.
        let src = "
            def main() -> int {
                int u;
                int masked = (u & 240) & 15;
                if (masked) { print(1); }
                return 0;
            }";
        let value = detect(src, Config::MSAN);
        let bit = detect(src, Config::MSAN_BIT);
        assert_eq!(value.detected.len(), 1, "value-level is conservative");
        assert!(bit.detected.is_empty(), "bit-level sees the defined-0 bits");
    }

    #[test]
    fn or_with_defined_ones_is_bit_defined() {
        let src = "
            def main() -> int {
                int u;
                int v = (u | 7) & 7;   // low bits forced to defined 1s
                if (v == 7) { print(1); }
                return 0;
            }";
        let bit = detect(src, Config::MSAN_BIT);
        assert!(bit.detected.is_empty(), "{:?}", bit.detected);
    }

    #[test]
    fn genuinely_undefined_bits_still_detected_in_bit_mode() {
        let src = "
            def main() -> int {
                int u;
                if (u & 1) { print(1); }
                return 0;
            }";
        let bit = detect(src, Config::MSAN_BIT);
        assert_eq!(bit.detected.len(), 1);
    }

    #[test]
    fn add_left_propagates_poison() {
        // Poison in the low bit of u contaminates everything above after
        // an add, but masking below the poison stays defined... here the
        // poison starts at bit 0, so the whole sum is suspect.
        let src = "
            def main() -> int {
                int u;
                int s = u + 1;
                if (s & 1) { print(1); }
                return 0;
            }";
        let bit = detect(src, Config::MSAN_BIT);
        assert_eq!(bit.detected.len(), 1);
    }

    #[test]
    fn bit_usher_matches_bit_msan() {
        let srcs = [
            "def main() -> int { int u; if ((u & 240) & 15) { print(1); } return 0; }",
            "def main() -> int { int u; if (u & 8) { print(1); } return 0; }",
            "def main() -> int { int u; if (input() > 900) { u = 3; } if (u > 1) { print(u); } return 0; }",
        ];
        for src in srcs {
            let full = detect(src, Config::MSAN_BIT);
            let guided = detect(src, Config::USHER_BIT);
            assert_eq!(
                guided.detected_sites(),
                full.detected_sites(),
                "bit-level guided must match bit-level full for: {src}"
            );
        }
    }

    #[test]
    fn corpus_bit_detections_subset_of_value_detections() {
        for seed in 0..40u64 {
            let src = generate(seed, GenConfig::default());
            let m = compile_o0im(&src).expect("generated programs compile");
            let value_plan = run_config(&m, Config::MSAN).plan;
            let bit_plan = run_config(&m, Config::MSAN_BIT).plan;
            let opts = RunOptions::default();
            let value = run(&m, Some(&value_plan), &opts);
            let bit = run(&m, Some(&bit_plan), &opts);
            assert!(
                bit.detected_sites().is_subset(&value.detected_sites()),
                "seed {seed}: bit-level invented a detection\n{src}"
            );
        }
    }

    #[test]
    fn corpus_bit_guided_matches_bit_full() {
        for seed in 0..40u64 {
            let src = generate(seed, GenConfig::default());
            let m = compile_o0im(&src).expect("generated programs compile");
            let opts = RunOptions::default();
            let full = run(&m, Some(&run_config(&m, Config::MSAN_BIT).plan), &opts);
            // Bit-level guided without Opt II must agree exactly.
            let cfg = Config {
                name: "Usher/bit-no-opt2",
                usher: Some(usher_core::UsherConfig {
                    mode: usher_vfg::VfgMode::Full,
                    opt1: true,
                    opt2: false,
                    context_depth: 1,
                    bit_level: true,
                }),
                bit_level: true,
            };
            let guided = run(&m, Some(&run_config(&m, cfg).plan), &opts);
            assert_eq!(
                guided.detected_sites(),
                full.detected_sites(),
                "seed {seed}\n{src}"
            );
        }
    }
}

#[cfg(test)]
mod origin_tests {
    use super::*;
    use usher_core::{run_config, Config};
    use usher_frontend::compile_o0im;

    #[test]
    fn detection_reports_the_poisoning_allocation() {
        let src = "
            def main() -> int {
                int *p;
                p = malloc(4);
                if (*(p + 2)) { print(1); }
                return 0;
            }";
        let m = compile_o0im(src).unwrap();
        for cfg in [Config::MSAN, Config::USHER] {
            let plan = run_config(&m, cfg).plan;
            let r = run(&m, Some(&plan), &RunOptions::default());
            assert_eq!(r.detected.len(), 1, "{}", cfg.name);
            let ev = r.detected[0];
            let origin = ev.origin.expect("origin tracked");
            // The origin is the malloc site, distinct from the use site.
            assert_ne!(origin, ev.site, "{}", cfg.name);
            let f = &m.funcs[origin.func];
            let is_alloc = matches!(
                f.blocks[origin.block].insts.get(origin.idx),
                Some(usher_ir::Inst::Alloc { .. })
            );
            assert!(is_alloc, "{}: origin should be the allocation", cfg.name);
        }
    }

    #[test]
    fn origin_survives_arithmetic_chains() {
        let src = "
            def main() -> int {
                int u;
                int a = u + 1;
                int b = a * 3;
                if (b > 0) { print(b); }
                return 0;
            }";
        let m = compile_o0im(src).unwrap();
        let plan = run_config(&m, Config::MSAN).plan;
        let r = run(&m, Some(&plan), &RunOptions::default());
        assert_eq!(r.detected.len(), 1);
        assert!(r.detected[0].origin.is_some());
    }

    #[test]
    fn defined_values_have_no_origin() {
        let src = "def main() -> int { int x = 1; if (x) { print(x); } return 0; }";
        let m = compile_o0im(src).unwrap();
        let plan = run_config(&m, Config::MSAN).plan;
        let r = run(&m, Some(&plan), &RunOptions::default());
        assert!(r.detected.is_empty());
    }
}
