//! Regenerates Table 1: per-benchmark statistics of the value-flow
//! analysis under O0+IM.

use usher_bench::cli::BenchArgs;
use usher_core::{render_table1, table1_row_from, AnalysisFacts, Config};
use usher_driver::{Job, PipelineOptions, SourceInput};
use usher_workloads::{all_workloads, Scale};

fn main() {
    let args = BenchArgs::parse(Scale::REF);
    let pipe = args.pipeline();
    let workloads = all_workloads(args.scale);
    let jobs: Vec<Job> = workloads
        .iter()
        .map(|w| {
            Job::new(
                w.name,
                SourceInput::TinyC(w.source.clone()),
                PipelineOptions::from_config(Config::USHER),
            )
        })
        .collect();
    let (runs, batch) = pipe.run_batch(&jobs);
    args.emit_report(&batch);

    let mut rows = Vec::new();
    for (w, r) in workloads.iter().zip(runs) {
        let r = r.unwrap_or_else(|e| panic!("{} fails: {e}", w.name));
        // A run that degraded to full instrumentation (a contained stage
        // panic) has no VFG to report statistics from; its row would be
        // meaningless.
        let Some(vfg) = r.vfg.as_ref() else {
            eprintln!(
                "note: {} degraded to full instrumentation ({} event(s)); no Table 1 row",
                w.name,
                r.report.degrade_events.len()
            );
            continue;
        };
        rows.push(table1_row_from(
            w.name,
            &w.source,
            &r.module,
            AnalysisFacts {
                vfg,
                mfcs_simplified: r.plan.stats.mfcs_simplified,
                opt2_redirected: r.opt2_redirected,
                analysis_seconds: r.report.total_seconds,
            },
        ));
    }
    println!(
        "Table 1: benchmark statistics under O0+IM (scale n={})",
        args.scale.n
    );
    print!("{}", render_table1(&rows));
    println!("\n%F  = % of address-taken objects uninitialized when allocated");
    println!("S   = semi-strong rule applications per non-array heap allocation site");
    println!("%SU = % of stores strongly updated; %WU = unique-target stores left weak");
    println!("%B  = % of VFG nodes reaching at least one critical statement");
}
