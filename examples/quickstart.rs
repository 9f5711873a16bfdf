//! Quickstart: deactivate an evasive sample with Scarecrow.
//!
//! Builds a minimal evasive dropper (checks `IsDebuggerPresent`, then
//! drops a payload), runs it on a clean machine with and without the
//! deception engine, and prints the trace-diff verdict. Also demonstrates
//! the inline-hook detection of the paper's Figure 1.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;

use malware_sim::{EvasiveLogic, EvasiveSample, Payload, Reaction, Technique};
use scarecrow::{Config, Scarecrow};
use tracer::Verdict;
use winsim::{check_hook, Api, Machine, System};

fn sample() -> EvasiveSample {
    EvasiveSample::new(
        "dropper.exe",
        "QuickstartFamily",
        EvasiveLogic::any([Technique::IsDebuggerPresent]),
        Reaction::Exit,
        Payload::Chain(vec![
            Payload::DropAndExec(vec!["implant.exe".into()]),
            Payload::RegistryPersistence,
        ]),
    )
}

fn main() {
    // --- run 1: unprotected machine -------------------------------------
    let mut unprotected = Machine::new(System::new());
    unprotected.register_program(Arc::new(sample()));
    unprotected.run_sample("dropper.exe").expect("registered image");
    let baseline = unprotected.take_trace();
    println!("without Scarecrow, the dropper performed:");
    for activity in baseline.significant_activities() {
        println!("  - {activity}");
    }

    // --- run 2: the same sample under the deception engine --------------
    let engine = Scarecrow::with_builtin_db(Config::default());
    let mut protected = Machine::new(System::new());
    protected.register_program(Arc::new(sample()));
    let run = engine.run_protected(&mut protected, "dropper.exe").expect("registered image");

    println!("\nwith Scarecrow:");
    if run.trace.significant_activities().is_empty() {
        println!("  (no malicious activity at all)");
    }
    for trigger in &run.triggers {
        println!("  trigger: {trigger}");
    }

    // the sample's own anti-hook check would *confirm* the deception:
    let prologue =
        protected.process(run.pid).expect("sample process").api_prologue(Api::IsDebuggerPresent);
    println!(
        "\nFigure 1 check on IsDebuggerPresent prologue {:02x?}: hooked = {}",
        prologue,
        check_hook(&prologue)
    );

    // --- verdict ---------------------------------------------------------
    let verdict = Verdict::decide(&baseline, &run.trace);
    println!("\nverdict: {verdict}");
    assert!(verdict.is_deactivated());
}
