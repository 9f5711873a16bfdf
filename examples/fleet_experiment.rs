//! Fleet experiment: run a slice of the MalGene corpus through the
//! Figure 3 cluster (fresh "Deep-Frozen" machine per run, paired
//! with/without execution, trace-diff verdicts) and print per-family
//! statistics.
//!
//! Run with: `cargo run --release --example fleet_experiment [n_samples]`

use std::sync::Arc;

use harness::{Cluster, RunLimits};
use malware_sim::malgene_corpus;
use scarecrow::{Config, ResourceDb, Scarecrow};
use winsim::env::bare_metal_sandbox;

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(200);
    // sample evenly across the corpus so every family and behaviour class
    // is represented even in small slices
    let full = malgene_corpus(20200629);
    let step = (full.len() / n.max(1)).max(1);
    let corpus: Vec<_> = full.into_iter().step_by(step).take(n).collect();
    let workers = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4);

    println!("running {} samples across {workers} simulated cluster nodes...", corpus.len());
    let engine = Scarecrow::builder(Config::default()).db(ResourceDb::builtin()).build();
    let cluster = Cluster::new(Arc::new(bare_metal_sandbox), engine)
        .with_limits(RunLimits { budget_ms: 60_000, max_processes: 100 });
    let report = cluster.run_corpus(&corpus, workers);

    println!(
        "\ndeactivated: {}/{} ({:.2}%)   self-spawn loops: {}   via IsDebuggerPresent: {}",
        report.deactivated(),
        report.results().len(),
        100.0 * report.deactivation_rate(),
        report.self_spawn_loops(),
        report.loopers_via_isdebugger(),
    );

    println!("\n{:<12} {:>6} {:>12} {:>14}", "family", "total", "deactivated", "kept spawning");
    for row in report.top_families(10) {
        println!(
            "{:<12} {:>6} {:>12} {:>14}",
            row.family, row.total, row.deactivated, row.kept_spawning
        );
    }

    if let Some(t) = report.telemetry() {
        use tracer::Counter;
        println!(
            "\ntelemetry: {} api calls, {} hook hits, {} deception triggers across {} workers",
            t.counter(Counter::ApiCalls),
            t.counter(Counter::HookHits),
            t.counter(Counter::DeceptionTriggers),
            workers,
        );
    }

    // show a couple of per-sample outcomes
    println!("\nsample outcomes (first 5):");
    for r in report.results().iter().take(5) {
        println!(
            "  {} [{}] -> {} (first trigger: {})",
            &r.md5[..12],
            r.family,
            r.verdict,
            r.first_trigger.as_deref().unwrap_or("-"),
        );
    }
}
