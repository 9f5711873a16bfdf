//! Cross-crate integration tests: the full pipeline from substrate to
//! verdict, spanning winsim → hooklib → scarecrow → malware-sim → tracer
//! → harness.

use std::sync::Arc;

use harness::{Cluster, RunLimits};
use malware_sim::samples::{cases, joe::joe_samples};
use malware_sim::{EvasiveLogic, EvasiveSample, Payload, Reaction, Technique};
use scarecrow::{Config, Scarecrow};
use tracer::Verdict;
use winsim::env::{bare_metal_sandbox, end_user_machine, vm_sandbox};
use winsim::{Machine, ProcState, System};

fn default_cluster() -> Cluster {
    Cluster::new(Arc::new(bare_metal_sandbox), Scarecrow::with_builtin_db(Config::default()))
}

#[test]
fn all_thirteen_joe_samples_reproduce_table1_outcomes() {
    let cluster = default_cluster();
    for js in joe_samples() {
        let pair = cluster.run_pair(js.sample.clone().into_program());
        assert_eq!(
            pair.verdict.is_deactivated(),
            js.effective,
            "{}: verdict {:?}",
            js.md5,
            pair.verdict
        );
    }
}

#[test]
fn evasive_sample_evades_the_vm_sandbox_but_hits_bare_metal() {
    // the motivating asymmetry: sandbox analysis sees nothing, a victim
    // machine without Scarecrow gets infected
    let kasidet = cases::kasidet();

    let mut sandbox = vm_sandbox();
    sandbox.register_program(kasidet.clone().into_program());
    sandbox.run_sample("kasidet_de1af0e.exe").unwrap();
    assert!(sandbox.trace().significant_activities().is_empty(), "evaded the sandbox");

    let mut victim = bare_metal_sandbox();
    victim.register_program(kasidet.into_program());
    victim.run_sample("kasidet_de1af0e.exe").unwrap();
    assert!(!victim.trace().significant_activities().is_empty(), "infected the victim");
}

#[test]
fn scarecrow_controller_chain_protects_descendants() {
    // dropper spawns a second stage; the second stage carries the evasive
    // check; injection must follow the chain for deactivation to work
    let stage2 = EvasiveSample::new(
        "stage2.exe",
        "Chain",
        EvasiveLogic::any([Technique::IsDebuggerPresent]),
        Reaction::Exit,
        Payload::EncryptFiles { extension: ".enc".into(), note: "PAY.txt".into() },
    );
    let stage1 = EvasiveSample::new(
        "stage1.exe",
        "Chain",
        EvasiveLogic::none(),
        Reaction::Exit,
        Payload::CreateProcesses(vec!["stage2.exe".into()]),
    );

    let engine = Scarecrow::with_builtin_db(Config::default());
    let mut m = end_user_machine();
    m.register_program(stage1.into_program());
    m.register_program(stage2.into_program());
    let run = engine.run_protected(&mut m, "stage1.exe").unwrap();
    assert!(!m.system().fs.iter().any(|f| f.encrypted), "stage 2 was deceived too");
    assert!(run.triggers.iter().any(|t| t.api == winsim::Api::IsDebuggerPresent));
}

#[test]
fn without_child_following_the_second_stage_detonates() {
    let stage2 = EvasiveSample::new(
        "stage2.exe",
        "Chain",
        EvasiveLogic::any([Technique::IsDebuggerPresent]),
        Reaction::Exit,
        Payload::EncryptFiles { extension: ".enc".into(), note: "PAY.txt".into() },
    );
    let stage1 = EvasiveSample::new(
        "stage1.exe",
        "Chain",
        EvasiveLogic::none(),
        Reaction::Exit,
        Payload::CreateProcesses(vec!["stage2.exe".into()]),
    );
    let engine = Scarecrow::with_builtin_db(Config { follow_children: false, ..Config::default() });
    let mut m = end_user_machine();
    m.register_program(stage1.into_program());
    m.register_program(stage2.into_program());
    engine.run_protected(&mut m, "stage1.exe").unwrap();
    assert!(m.system().fs.iter().any(|f| f.encrypted), "ablated injector lets stage 2 through");
}

#[test]
fn self_spawn_loop_is_detected_alarmed_and_bounded() {
    let spawner = EvasiveSample::new(
        "loop.exe",
        "Loop",
        EvasiveLogic::any([Technique::IsDebuggerPresent]),
        Reaction::SelfSpawn,
        Payload::SelfCopy,
    );
    let engine = Scarecrow::with_builtin_db(Config::default());
    let mut m = Machine::new(System::new());
    m.max_processes = 200;
    m.register_program(spawner.into_program());
    let run = engine.run_protected(&mut m, "loop.exe").unwrap();
    assert!(run.trace.self_spawn_count() > tracer::SELF_SPAWN_LOOP_THRESHOLD);
    assert!(!run.alarms().is_empty());
    // the alarm also lands in the kernel trace
    assert!(run.trace.events().iter().any(|e| matches!(&e.kind, tracer::EventKind::Alarm { .. })));
    // the substrate's cap contains the fork bomb
    assert!(m.processes().count() <= 210);
}

#[test]
fn active_mitigation_terminates_the_loop_early() {
    let spawner = EvasiveSample::new(
        "loop.exe",
        "Loop",
        EvasiveLogic::any([Technique::IsDebuggerPresent]),
        Reaction::SelfSpawn,
        Payload::SelfCopy,
    );
    let engine = Scarecrow::with_builtin_db(Config {
        active_mitigation: true,
        spawn_alarm_threshold: 15,
        ..Config::default()
    });
    let mut m = Machine::new(System::new());
    m.register_program(spawner.into_program());
    let run = engine.run_protected(&mut m, "loop.exe").unwrap();
    let spawned = run.trace.self_spawn_count();
    assert!(spawned <= 20, "mitigation cut the loop at ~threshold, got {spawned}");
    // every spawned copy is dead afterwards
    let live =
        m.processes().filter(|p| p.image == "loop.exe" && p.state != ProcState::Terminated).count();
    assert_eq!(live, 0);
}

#[test]
fn indeterminate_samples_do_not_count_as_wins() {
    let selfdel = EvasiveSample::new(
        "sd.exe",
        "Selfdel",
        EvasiveLogic::none(),
        Reaction::Exit,
        Payload::DeleteSelf,
    );
    let cluster = default_cluster();
    let pair = cluster.run_pair(selfdel.into_program());
    assert_eq!(pair.verdict, Verdict::Indeterminate);
    assert!(!pair.verdict.is_deactivated());
}

#[test]
fn corpus_subset_runs_deterministically() {
    let corpus: Vec<_> = malware_sim::malgene_corpus(77).into_iter().take(30).collect();
    let limits = RunLimits { budget_ms: 60_000, max_processes: 40 };
    let a = default_cluster().with_limits(limits).run_corpus(&corpus, 1);
    let b = default_cluster().with_limits(limits).run_corpus(&corpus, 4);
    assert_eq!(a.deactivated(), b.deactivated());
    for (x, y) in a.results().iter().zip(b.results()) {
        assert_eq!(x.verdict, y.verdict, "{}", x.md5);
    }
}

#[test]
fn exception_timing_deception_deactivates_timing_probes() {
    // Section II-B(g): a sample that measures exception-dispatch latency
    let sample = EvasiveSample::new(
        "exctimer.exe",
        "ExcTimer",
        EvasiveLogic::any([Technique::ExceptionDispatchSlow(5_000)]),
        Reaction::Exit,
        Payload::DropAndExec(vec!["stage.exe".into()]),
    );
    // unprotected end host: exception dispatch is fast → payload runs
    let mut m = end_user_machine();
    m.register_program(sample.clone().into_program());
    m.run_sample("exctimer.exe").unwrap();
    assert!(!m.trace().significant_activities().is_empty());

    // under Scarecrow the dispatcher is patched to look instrumented
    let engine = Scarecrow::with_builtin_db(Config::default());
    let mut m = end_user_machine();
    m.register_program(sample.into_program());
    let run = engine.run_protected(&mut m, "exctimer.exe").unwrap();
    assert!(run.trace.significant_activities().is_empty());
    assert!(run
        .triggers
        .iter()
        .any(|t| t.api == winsim::Api::RaiseException && t.resource.contains("exception")));
}

#[test]
fn scarecrow_also_works_inside_a_sandbox() {
    // Section III-A: "the presence of SCARECROW does not guarantee that it
    // is an end-user execution environment because SCARECROW can also be
    // deployed in a sandbox environment" — deploying it in the VM sandbox
    // must not break anything, and adds the deception the VM lacks.
    let sample = EvasiveSample::new(
        "dbgcheck.exe",
        "Dbg",
        EvasiveLogic::any([Technique::IsDebuggerPresent]),
        Reaction::Exit,
        Payload::DropAndExec(vec!["x.exe".into()]),
    );
    // the VM sandbox alone does NOT trip a pure debugger check
    let mut m = vm_sandbox();
    m.register_program(sample.clone().into_program());
    m.run_sample("dbgcheck.exe").unwrap();
    assert!(
        !m.trace().significant_activities().is_empty(),
        "the VM alone has no debugger attached, so a pure IsDebuggerPresent \
         sample detonates even inside it"
    );

    // with Scarecrow deployed inside the sandbox, the sample is deceived
    // and the sandbox could observe its *evasive* branch instead
    let engine = Scarecrow::with_builtin_db(Config::default());
    let mut m = vm_sandbox();
    m.register_program(sample.into_program());
    let run = engine.run_protected(&mut m, "dbgcheck.exe").unwrap();
    assert!(run.trace.significant_activities().is_empty());
}

#[test]
fn triggers_report_the_paper_style_first_cause() {
    let engine = Scarecrow::with_builtin_db(Config::default());
    let s = joe_samples().into_iter().find(|s| s.md5 == "9437eab").unwrap();
    let mut m = bare_metal_sandbox();
    m.register_program(s.sample.into_program());
    let run = engine.run_protected(&mut m, "joe_9437eab.exe").unwrap();
    let first = run.first_trigger().unwrap();
    assert_eq!(first.api, winsim::Api::NtQueryValueKey);
    assert_eq!(first.category, scarecrow::Category::Registry.name());
}
