//! Regenerates the Section 4.6 experiment: instrumentation overhead under
//! the O0+IM, O1 and O2 configurations, for MSan and full Usher.

use usher_bench::{average, cli::BenchArgs};
use usher_core::Config;
use usher_driver::{Job, PipelineOptions, SourceInput};
use usher_ir::OptLevel;
use usher_runtime::{run, RunOptions};
use usher_workloads::{all_workloads, Scale};

fn main() {
    let args = BenchArgs::parse(Scale::REF);
    let pipe = args.pipeline();
    let opts = RunOptions::default();
    let workloads = all_workloads(args.scale);

    // One job per workload × level × {MSan, Usher}; within a level the two
    // configurations share the compiled module through the cache.
    let jobs: Vec<Job> = workloads
        .iter()
        .flat_map(|w| {
            [OptLevel::O0Im, OptLevel::O1, OptLevel::O2]
                .into_iter()
                .flat_map(move |level| {
                    [Config::MSAN, Config::USHER].into_iter().map(move |cfg| {
                        Job::new(
                            w.name,
                            SourceInput::TinyC(w.source.clone()),
                            PipelineOptions::from_config(cfg).at_level(level),
                        )
                    })
                })
        })
        .collect();
    let (runs, batch) = pipe.run_batch(&jobs);
    args.emit_report(&batch);

    println!(
        "Section 4.6: effect of compiler optimizations (scale n={})",
        args.scale.n
    );
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "Benchmark", "MSan@O0+IM", "Usher@O0+IM", "MSan@O1", "Usher@O1", "MSan@O2", "Usher@O2"
    );
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 6];
    for (w, per_workload) in workloads.iter().zip(runs.chunks(6)) {
        print!("{:<14}", w.name);
        for (i, r) in per_workload.iter().enumerate() {
            let r = r.as_ref().unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let exec = run(&r.module, Some(&r.plan), &opts);
            let v = exec.counters.slowdown_pct();
            print!(" {:>11.0}%", v);
            cols[i].push(v);
        }
        println!();
    }
    print!("{:<14}", "average");
    for c in &cols {
        print!(" {:>11.0}%", average(c));
    }
    println!();
    let red = |m: f64, u: f64| 100.0 * (m - u) / m.max(1.0);
    println!(
        "\nUsher reduces MSan's overhead by {:.1}% (O0+IM), {:.1}% (O1), {:.1}% (O2)",
        red(average(&cols[0]), average(&cols[1])),
        red(average(&cols[2]), average(&cols[3])),
        red(average(&cols[4]), average(&cols[5])),
    );
}
