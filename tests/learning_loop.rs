//! The Section II-C continuous-learning loop, end to end:
//!
//! 1. a sample arrives that keys on a resource Scarecrow does not fake —
//!    the engine fails to deactivate it;
//! 2. the sample is run in two analysis environments (one carrying the
//!    artifact, one clean), MalGene-style;
//! 3. `malgene` aligns the traces and extracts the evasion signature;
//! 4. the signature is learned into the resource database;
//! 5. the rebuilt engine deactivates the sample.

use malware_sim::{EvasiveLogic, EvasiveSample, Payload, Reaction, Technique};
use scarecrow::{Config, LearnOutcome, Profile, ResourceDb, Scarecrow};
use winsim::env::bare_metal_sandbox;
use winsim::Machine;

/// A sandbox vendor Scarecrow's curated database does not know about.
const NOVEL_KEY: &str = r"HKLM\SOFTWARE\Norman SandBox Analyzer";

fn novel_sample() -> EvasiveSample {
    EvasiveSample::new(
        "novel.exe",
        "Novel",
        EvasiveLogic::any([Technique::RegistryKey(NOVEL_KEY.into())]),
        Reaction::Exit,
        Payload::Chain(vec![
            Payload::CreateProcesses(vec!["svchost.exe".into()]),
            Payload::RegistryPersistence,
        ]),
    )
}

fn protected_activity_count(engine: &Scarecrow) -> usize {
    let mut m = bare_metal_sandbox();
    m.register_program(novel_sample().into_program());
    let run = engine.run_protected(&mut m, "novel.exe").expect("registered");
    run.trace.significant_activities().len()
}

#[test]
fn learning_loop_closes_the_gap() {
    // --- step 1: the out-of-the-box engine misses the novel probe -------
    let base_db = ResourceDb::builtin();
    assert!(base_db.reg_key(NOVEL_KEY).is_none(), "the probe must be genuinely unknown");
    let engine = Scarecrow::with_db(Config::default(), base_db.clone());
    assert!(protected_activity_count(&engine) > 0, "novel sample detonates despite protection");

    // --- step 2: paired analysis runs (the MalGene setup) ---------------
    // environment A carries the artifact: the sample evades
    let mut env_a = bare_metal_sandbox();
    env_a.system_mut().registry.create_key(NOVEL_KEY);
    env_a.register_program(novel_sample().into_program());
    env_a.run_sample("novel.exe").unwrap();
    let evading = env_a.take_trace();
    assert!(evading.significant_activities().is_empty());

    // environment B is clean: the sample detonates
    let mut env_b = bare_metal_sandbox();
    env_b.register_program(novel_sample().into_program());
    env_b.run_sample("novel.exe").unwrap();
    let detonating = env_b.take_trace();
    assert!(!detonating.significant_activities().is_empty());

    // --- step 3: extract the signature ----------------------------------
    let sig = malgene::extract_signature(&evading, &detonating)
        .expect("the deviation has a deciding probe");
    assert_eq!(sig.kind, malgene::SignatureKind::RegistryKey(NOVEL_KEY.into()));

    // --- step 4: learn it -------------------------------------------------
    let mut learned_db = base_db;
    assert_eq!(learned_db.learn(&sig), LearnOutcome::Added);
    assert_eq!(learned_db.reg_key(NOVEL_KEY), Some(Profile::Learned));

    // --- step 5: the rebuilt engine deactivates the sample ---------------
    let engine = Scarecrow::with_db(Config::default(), learned_db);
    assert_eq!(protected_activity_count(&engine), 0, "learned resource deactivates the sample");
}

#[test]
fn learning_loop_works_for_file_probes_too() {
    const NOVEL_FILE: &str = r"C:\Windows\System32\drivers\nsaengine.sys";
    let sample = EvasiveSample::new(
        "novelfile.exe",
        "Novel",
        EvasiveLogic::any([Technique::FileExists(NOVEL_FILE.into())]),
        Reaction::Exit,
        Payload::CreateProcesses(vec!["svchost.exe".into()]),
    );

    let mut env_a = bare_metal_sandbox();
    env_a.system_mut().fs.create(NOVEL_FILE, 4096, "analysis-driver");
    env_a.register_program(sample.clone().into_program());
    env_a.run_sample("novelfile.exe").unwrap();
    let evading = env_a.take_trace();

    let mut env_b: Machine = bare_metal_sandbox();
    env_b.register_program(sample.clone().into_program());
    env_b.run_sample("novelfile.exe").unwrap();
    let detonating = env_b.take_trace();

    let sig = malgene::extract_signature(&evading, &detonating).unwrap();
    assert_eq!(sig.kind, malgene::SignatureKind::File(NOVEL_FILE.into()));

    let mut db = ResourceDb::builtin();
    db.learn(&sig);
    let engine = Scarecrow::with_db(Config::default(), db);
    let mut m = bare_metal_sandbox();
    m.register_program(sample.into_program());
    let run = engine.run_protected(&mut m, "novelfile.exe").unwrap();
    assert!(run.trace.significant_activities().is_empty());
    assert!(run.triggers.iter().any(|t| t.profile == Profile::Learned.name()));
}

#[test]
fn batch_extraction_deduplicates_a_family() {
    // a family shares one novel probe across many members: one signature
    let probe = Technique::RegistryKey(NOVEL_KEY.into());
    let mut pairs = Vec::new();
    for i in 0..5 {
        let image = format!("fam{i}.exe");
        let s = EvasiveSample::new(
            image.clone(),
            "Fam",
            EvasiveLogic::any([probe.clone()]),
            Reaction::Exit,
            Payload::DropAndExec(vec![format!("drop{i}.exe")]),
        );
        let mut env_a = bare_metal_sandbox();
        env_a.system_mut().registry.create_key(NOVEL_KEY);
        env_a.register_program(s.clone().into_program());
        env_a.run_sample(&image).unwrap();
        let mut env_b = bare_metal_sandbox();
        env_b.register_program(s.into_program());
        env_b.run_sample(&image).unwrap();
        pairs.push((env_a.take_trace(), env_b.take_trace()));
    }
    let sigs = malgene::extract_batch(pairs.iter().map(|(a, b)| (a, b)));
    assert_eq!(sigs.len(), 1, "one shared probe, one signature");
    let mut db = ResourceDb::new();
    assert_eq!(db.learn_all(&sigs), 1);
}
