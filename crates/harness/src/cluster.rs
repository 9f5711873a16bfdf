//! The cluster: per-sample paired execution with Deep-Freeze semantics.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use malware_sim::CorpusSample;
use scarecrow::{ProtectedRun, Scarecrow};
use tracer::{
    Counter, FlightConfig, FlightRecorder, FlightSnapshot, Stage, Telemetry, TelemetrySnapshot,
    Trace, TraceDiff, Verdict,
};
use winsim::{Machine, MachineSnapshot, Program};

use crate::report::{CorpusReport, SampleResult};

/// Builds a fresh machine per run — the simulation's Deep Freeze.
pub type MachineFactory = Arc<dyn Fn() -> Machine + Send + Sync>;

/// How the cluster produces a pristine machine for each run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResetStrategy {
    /// Build the preset once, capture a [`MachineSnapshot`], and reset by
    /// cloning it: the clone shares the preset's registry and filesystem as
    /// an immutable base, and the run's writes go into a per-run delta, so
    /// a reset plus a run costs O(keys the run touches) instead of a full
    /// rebuild. The default.
    #[default]
    Snapshot,
    /// Call the [`MachineFactory`] from scratch for every run. Kept only as
    /// an oracle: a determinism cross-check and a cost bound for the
    /// snapshot path.
    FactoryRebuild,
}

/// Per-run resource limits.
///
/// The paper ran each sample for one virtual minute; `max_processes`
/// bounds self-spawn loops (well above the 10-spawn verdict threshold but
/// far below the substrate's fork-bomb cap) so large corpus sweeps stay
/// fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLimits {
    /// Virtual-time budget per run, in ms.
    pub budget_ms: u64,
    /// Total process cap per run.
    pub max_processes: usize,
}

impl Default for RunLimits {
    fn default() -> Self {
        RunLimits { budget_ms: winsim::DEFAULT_BUDGET_MS, max_processes: 600 }
    }
}

/// The result of running one sample in both environments.
#[derive(Debug, Clone)]
pub struct RunPair {
    /// Trace without Scarecrow.
    pub baseline: Trace,
    /// The protected run (trace, triggers, alarms).
    pub protected: ProtectedRun,
    /// Both traces folded once: the activity sets and self-spawn counts
    /// the verdict and every report read.
    pub diff: TraceDiff,
    /// The Section IV-C judgement of `diff`.
    pub verdict: Verdict,
}

/// The experiment cluster: machine factory + deception engine + limits.
pub struct Cluster {
    factory: MachineFactory,
    engine: Scarecrow,
    limits: RunLimits,
    reset: ResetStrategy,
    /// Lazily captured preset snapshot (under [`ResetStrategy::Snapshot`]);
    /// shared with parallel workers so a sweep builds the preset once.
    snapshot: OnceLock<Arc<MachineSnapshot>>,
    /// The cluster's recorder, when armed: handed to the machine for the
    /// duration of each recorded protected run and taken back afterwards.
    /// Parallel workers arm their own when this slot holds one. Locked only
    /// at run boundaries — the dispatch hot path reaches the recorder
    /// through the machine's own `&mut` field, never through this mutex.
    flight: Mutex<Option<FlightRecorder>>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster").field("limits", &self.limits).finish()
    }
}

impl Cluster {
    /// Creates a cluster over a machine preset and a deception engine,
    /// with the flight recorder unarmed (see [`Cluster::with_flight`]).
    pub fn new(factory: MachineFactory, engine: Scarecrow) -> Self {
        Cluster {
            factory,
            engine,
            limits: RunLimits::default(),
            reset: ResetStrategy::default(),
            snapshot: OnceLock::new(),
            flight: Mutex::new(None),
        }
    }

    /// Overrides run limits.
    pub fn with_limits(mut self, limits: RunLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Arms (or disarms) the cluster's flight recorder — the one way a
    /// harness run is recorded. Armed, every [`Cluster::run_pair`] and
    /// corpus sweep brackets its protected run as one sample.
    pub fn with_flight(self, cfg: FlightConfig) -> Self {
        *self.recorder() = cfg.enabled.then(|| FlightRecorder::new(cfg));
        self
    }

    /// The cluster's recorder slot. Only recorder methods run under the
    /// lock, so a poisoned lock means one of them panicked: a bug.
    fn recorder(&self) -> MutexGuard<'_, Option<FlightRecorder>> {
        self.flight.lock().expect("flight recorder lock poisoned by a panicking recorder")
    }

    /// A snapshot of the cluster's flight recorder, when one is enabled.
    /// (A corpus sweep's merged per-worker snapshot is attached to its
    /// [`CorpusReport`] instead.)
    pub fn flight_snapshot(&self) -> Option<FlightSnapshot> {
        self.recorder().as_ref().map(FlightRecorder::snapshot)
    }

    /// Overrides the machine reset strategy (default:
    /// [`ResetStrategy::Snapshot`]).
    pub fn with_reset_strategy(mut self, reset: ResetStrategy) -> Self {
        self.reset = reset;
        self
    }

    /// The engine (e.g. for database statistics).
    pub fn engine(&self) -> &Scarecrow {
        &self.engine
    }

    /// The engine's telemetry recorder, when collection is enabled.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.engine.telemetry()
    }

    /// A snapshot of the engine's telemetry, when collection is enabled.
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        self.engine.telemetry_snapshot()
    }

    fn record_stage(&self, stage: Stage, started: Instant) {
        if let Some(t) = self.engine.telemetry() {
            t.record_stage(stage, started.elapsed());
        }
    }

    /// The shared preset snapshot, capturing the factory's machine on
    /// first use. Every subsequent reset is a clone that shares the
    /// snapshot's stores as its base and starts with an empty delta.
    fn preset_snapshot(&self) -> &Arc<MachineSnapshot> {
        self.snapshot.get_or_init(|| Arc::new(MachineSnapshot::capture(&(self.factory)())))
    }

    fn fresh_machine(&self) -> Machine {
        let started = Instant::now();
        let mut m = match self.reset {
            ResetStrategy::Snapshot => self.preset_snapshot().instantiate(),
            ResetStrategy::FactoryRebuild => (self.factory)(),
        };
        m.budget_ms = self.limits.budget_ms;
        m.max_processes = self.limits.max_processes;
        m.set_telemetry(self.engine.telemetry().cloned());
        self.record_stage(Stage::MachineReset, started);
        m
    }

    /// Runs one program without Scarecrow on a fresh machine, returning
    /// the machine (for state inspection) and its trace.
    pub fn run_baseline(&self, program: Arc<dyn Program>) -> (Machine, Trace) {
        let image = program.image_name().to_owned();
        let mut m = self.fresh_machine();
        m.register_program(program);
        let started = Instant::now();
        m.run_sample(&image).expect("registered image");
        self.record_stage(Stage::BaselineRun, started);
        let trace = m.take_trace();
        (m, trace)
    }

    /// Runs one program under Scarecrow on a fresh machine. The cluster's
    /// flight recorder stays off this run: only a paired run has the
    /// verdict its sample span closes with.
    pub fn run_protected(&self, program: Arc<dyn Program>) -> (Machine, ProtectedRun) {
        self.protected_run(program, None)
    }

    /// The one protected-run body: a fresh machine, the engine's protected
    /// run, and — for a recorded run on an armed cluster — the recorder
    /// riding on the machine with its `sample` span opened as `(name,
    /// index)`. The caller closes that span and takes the recorder back.
    fn protected_run(
        &self,
        program: Arc<dyn Program>,
        sample: Option<(&str, u64)>,
    ) -> (Machine, ProtectedRun) {
        let image = program.image_name().to_owned();
        let mut m = self.fresh_machine();
        m.register_program(program);
        if let Some((name, index)) = sample {
            if let Some(mut f) = self.recorder().take() {
                f.begin_sample(name, index, m.system().clock.now_ms());
                m.set_flight(Some(f));
            }
        }
        let started = Instant::now();
        let run = self.engine.run_protected(&mut m, &image).expect("registered image");
        self.record_stage(Stage::ProtectedRun, started);
        (m, run)
    }

    /// The paired experiment of Section IV-C: baseline and protected runs
    /// on freshly reset machines, judged by trace diff. On an armed
    /// cluster the protected run is recorded as a sample keyed by the
    /// program's image name ([`Cluster::run_pair_recorded`] at index 0).
    pub fn run_pair(&self, program: Arc<dyn Program>) -> RunPair {
        let name = program.image_name().to_owned();
        self.run_pair_recorded(&name, 0, program)
    }

    /// The paired run, with the cluster's flight recorder (when armed)
    /// riding on the machine for the protected run only — the deception
    /// stack is what it instruments — bracketed by a root `sample` span
    /// keyed on `name` at corpus position `index` and finalized with the
    /// verdict.
    pub fn run_pair_recorded(&self, name: &str, index: u64, program: Arc<dyn Program>) -> RunPair {
        let (_, baseline) = self.run_baseline(Arc::clone(&program));
        let (mut m, protected) = self.protected_run(program, Some((name, index)));
        let started = Instant::now();
        let diff = TraceDiff::compute(&baseline, &protected.trace);
        let verdict = Verdict::from_diff(&diff);
        self.record_stage(Stage::Verdict, started);
        if let Some(mut f) = m.take_flight() {
            f.end_sample(m.system().clock.now_ms(), &verdict);
            *self.recorder() = Some(f);
        }
        RunPair { baseline, protected, diff, verdict }
    }

    fn run_corpus_sample(&self, s: &CorpusSample, index: u64) -> SampleResult {
        let pair = self.run_pair_recorded(&s.md5, index, s.sample.clone().into_program());
        if let Some(t) = self.engine.telemetry() {
            t.incr(Counter::SamplesRun);
        }
        SampleResult::from_pair(s, &pair)
    }

    /// Runs the corpus across `workers` threads (at least one), each on a
    /// [`Scarecrow::worker`] engine sharing this cluster's database `Arc`,
    /// machine factory, limits, and preset snapshot (worker isolation
    /// mirrors the paper's independent cluster nodes).
    ///
    /// Work is distributed by stealing from a shared atomic index rather
    /// than static chunking, so a worker stuck on an expensive sample
    /// (e.g. a deep self-spawn loop) never leaves the others idle. Result
    /// order is the corpus order whatever the worker count. The report's
    /// telemetry and flight snapshots merge the workers' own, so they
    /// cover exactly this sweep and read the same for any worker count;
    /// the cluster's engine and recorder are left untouched.
    pub fn run_corpus(&self, corpus: &[CorpusSample], workers: usize) -> CorpusReport {
        let workers = workers.max(1).min(corpus.len().max(1));
        let next = AtomicUsize::new(0);
        let slots: Vec<OnceLock<SampleResult>> =
            (0..corpus.len()).map(|_| OnceLock::new()).collect();
        let mut snapshots: Vec<TelemetrySnapshot> = Vec::new();
        let mut flights: Vec<FlightSnapshot> = Vec::new();
        let armed = self.recorder().is_some();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..workers {
                let worker = Cluster::new(Arc::clone(&self.factory), self.engine.worker())
                    .with_limits(self.limits)
                    .with_reset_strategy(self.reset)
                    .with_flight(FlightConfig { enabled: armed });
                if self.reset == ResetStrategy::Snapshot {
                    // capture once on this thread; workers share the Arc
                    let _ = worker.snapshot.set(Arc::clone(self.preset_snapshot()));
                }
                let next = &next;
                let slots = &slots;
                handles.push(scope.spawn(move || {
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(s) = corpus.get(i) else { break };
                        let done = slots[i].set(worker.run_corpus_sample(s, i as u64));
                        debug_assert!(done.is_ok(), "index {i} claimed twice");
                    }
                    (worker.telemetry_snapshot(), worker.flight_snapshot())
                }));
            }
            for handle in handles {
                let (telemetry, flight) = handle.join().expect("worker panicked");
                snapshots.extend(telemetry);
                flights.extend(flight);
            }
        });
        let telemetry = (!snapshots.is_empty()).then(|| TelemetrySnapshot::merged(snapshots));
        // Merging re-sorts spans and attributions into corpus order, so the
        // sweep's flight data reads the same for any worker count.
        let flight = (!flights.is_empty()).then(|| FlightSnapshot::merged(flights));
        let results = slots.into_iter().map(|s| s.into_inner().expect("all samples ran")).collect();
        CorpusReport::new(results).with_telemetry(telemetry).with_flight(flight)
    }
}

/// Convenience: result rows enriched with corpus ground truth.
impl SampleResult {
    pub(crate) fn from_pair(s: &CorpusSample, pair: &RunPair) -> SampleResult {
        let baseline = &pair.diff.baseline;
        SampleResult {
            md5: s.md5.clone(),
            family: s.family.clone(),
            class: s.class,
            verdict: pair.verdict.clone(),
            protected_self_spawns: pair.diff.self_spawns.1,
            first_trigger: pair.protected.triggers.first().map(|t| t.api.name().to_owned()),
            baseline_created_processes: baseline
                .iter()
                .any(|a| a.tag == "proc_create" || a.tag == "proc_inject"),
            baseline_modified_files_or_registry: baseline
                .iter()
                .any(|a| a.tag.starts_with("file_") || a.tag == "reg_mutate"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BenignReport;
    use malware_sim::cnet_top20;
    use malware_sim::samples::cases;
    use malware_sim::samples::joe::joe_samples;
    use malware_sim::{malgene_corpus, SampleClass};
    use scarecrow::Config;
    use tracer::{Span, ToJson};
    use winsim::env::{bare_metal_sandbox, end_user_machine, vm_sandbox};
    use winsim::DriveInfo;

    fn cluster() -> Cluster {
        Cluster::new(Arc::new(bare_metal_sandbox), Scarecrow::with_builtin_db(Config::default()))
    }

    #[test]
    fn deep_freeze_isolates_runs() {
        let c = cluster();
        let ransom = malware_sim::samples::cases::wannacry_initial();
        let (m1, _) = c.run_baseline(Arc::new(ransom));
        assert!(m1.system().fs.iter().any(|f| f.path.ends_with(".WCRY")));
        // the next machine from the factory is clean again
        let m2 = (c.factory)();
        assert!(!m2.system().fs.iter().any(|f| f.path.ends_with(".WCRY")));
    }

    #[test]
    fn joe_failure_case_survives_protection() {
        let c = cluster();
        let cbdda64 = joe_samples().into_iter().find(|s| s.md5 == "cbdda64").unwrap();
        let pair = c.run_pair(cbdda64.sample.into_program());
        assert_eq!(pair.verdict, Verdict::NotDeactivated);
    }

    #[test]
    fn rule_overrides_propagate_through_cluster_wiring() {
        // a per-rule override in the cluster's engine config must reach
        // the sweep workers (Scarecrow::worker clones the live config) and
        // change run outcomes, not just the listing
        let mut cfg = Config::default();
        cfg.rule_overrides.insert("debugger".to_owned(), false);
        let c = Cluster::new(Arc::new(bare_metal_sandbox), Scarecrow::with_builtin_db(cfg));
        let worker = c.engine().worker();
        assert!(!worker.hooked_apis().contains(&winsim::Api::IsDebuggerPresent));
        assert_eq!(worker.config().rule_overrides, c.engine().config().rule_overrides);
        // f1a1288 fingerprints the debugger; with the rule unregistered it
        // sees a clean machine and stays active
        let s = joe_samples().into_iter().find(|s| s.md5 == "f1a1288").unwrap();
        let pair = c.run_pair(s.sample.into_program());
        assert_eq!(pair.verdict, Verdict::NotDeactivated);
        assert!(pair.protected.triggers.is_empty());
    }

    #[test]
    fn joe_debugger_sample_is_deactivated() {
        let c = cluster();
        let s = joe_samples().into_iter().find(|s| s.md5 == "f1a1288").unwrap();
        let pair = c.run_pair(s.sample.into_program());
        assert!(pair.verdict.is_deactivated());
        assert_eq!(pair.protected.triggers[0].api, winsim::Api::IsDebuggerPresent);
    }

    #[test]
    fn every_report_reads_the_stored_fold() {
        // Figure 4's corpus seed and limits, and the benign experiment's preset
        let corpus: Vec<_> = malgene_corpus(20200629).into_iter().take(64).collect();
        let c = cluster();
        let apps = Cluster::new(
            Arc::new(|| {
                let mut m = end_user_machine();
                m.system_mut().fs.set_drive('D', DriveInfo::gb(1_000, 800));
                m
            }),
            Scarecrow::with_builtin_db(Config::default()),
        );
        let samples = corpus.iter().map(|s| (&c, s.sample.clone().into_program(), Some(s)));
        let programs = cnet_top20().into_iter().map(|app| (&apps, Arc::new(app) as _, None));
        for (cluster, program, sample) in samples.chain(programs) {
            let image = program.image_name().to_owned();
            let pair = cluster.run_pair(program);
            let (baseline, protected) = (&pair.baseline, &pair.protected.trace);
            assert_eq!(pair.diff, TraceDiff::compute(baseline, protected), "{image}");
            assert_eq!(pair.verdict, Verdict::decide(baseline, protected), "{image}");
            assert_eq!(
                BenignReport::from_diff(&image, &pair.diff),
                BenignReport::compare(&image, baseline, protected),
                "{image}"
            );
            let Some(s) = sample else { continue };
            let acts = baseline.significant_activities();
            let rebuilt = SampleResult {
                md5: s.md5.clone(),
                family: s.family.clone(),
                class: s.class,
                verdict: Verdict::decide(baseline, protected),
                protected_self_spawns: protected.self_spawn_count(),
                first_trigger: pair.protected.triggers.first().map(|t| t.api.name().to_owned()),
                baseline_created_processes: acts
                    .iter()
                    .any(|a| a.tag == "proc_create" || a.tag == "proc_inject"),
                baseline_modified_files_or_registry: acts
                    .iter()
                    .any(|a| a.tag.starts_with("file_") || a.tag == "reg_mutate"),
            };
            assert_eq!(SampleResult::from_pair(s, &pair), rebuilt, "{}", s.md5);
        }
    }

    #[test]
    fn small_corpus_slice_produces_expected_verdicts() {
        let c = cluster().with_limits(RunLimits { budget_ms: 60_000, max_processes: 80 });
        let corpus = malgene_corpus(3);
        // pick one of each class
        for class in [
            SampleClass::SelfSpawner,
            SampleClass::Terminator,
            SampleClass::Undeceivable,
            SampleClass::SelfDeleter,
        ] {
            let s = corpus.iter().find(|s| s.class == class).unwrap();
            let pair = c.run_pair(s.sample.clone().into_program());
            match class {
                SampleClass::SelfSpawner => {
                    assert!(pair.verdict.is_self_spawn_loop(), "{:?}", pair.verdict);
                }
                SampleClass::Terminator => {
                    assert!(pair.verdict.is_deactivated(), "{:?}", pair.verdict);
                }
                SampleClass::Undeceivable => {
                    assert_eq!(pair.verdict, Verdict::NotDeactivated);
                }
                SampleClass::SelfDeleter => {
                    assert_eq!(pair.verdict, Verdict::Indeterminate);
                }
            }
        }
    }

    #[test]
    fn parallel_and_sequential_reports_agree() {
        let corpus: Vec<_> = malgene_corpus(3).into_iter().take(24).collect();
        let limits = RunLimits { budget_ms: 60_000, max_processes: 60 };
        let c = cluster().with_limits(limits);
        let seq = c.run_corpus(&corpus, 1);
        let par = c.run_corpus(&corpus, 4);
        assert_eq!(seq.deactivated(), par.deactivated());
        for (a, b) in seq.results().iter().zip(par.results()) {
            assert_eq!(a.md5, b.md5);
            assert_eq!(a.verdict, b.verdict);
        }
        // the N workers' merged telemetry counters sum to exactly the
        // one-worker sweep's counts
        let seq_t = seq.telemetry().expect("telemetry on by default");
        let par_t = par.telemetry().expect("telemetry on by default");
        assert!(!seq_t.is_empty());
        assert!(seq_t.counters_agree(par_t), "seq {seq_t:#?}\npar {par_t:#?}");
        assert_eq!(seq_t.counter(Counter::SamplesRun), corpus.len() as u64);
        // the split snapshot makes the deterministic section comparable in
        // isolation: byte-identical once serialized
        assert_eq!(seq_t.deterministic, par_t.deterministic);
        let a = seq_t.deterministic.to_json().to_string();
        let b = par_t.deterministic.to_json().to_string();
        assert_eq!(a, b, "deterministic telemetry must serialize byte-identically");
        assert_eq!(seq, par, "report equality covers results + counters");
    }

    #[test]
    fn snapshot_restore_matches_factory_rebuild() {
        let corpus: Vec<_> = malgene_corpus(3).into_iter().take(12).collect();
        let limits = RunLimits { budget_ms: 60_000, max_processes: 60 };
        let engine = || Scarecrow::with_builtin_db(Config::default());
        // bare metal, and the VM sandbox whose Cuckoo monitor is injected
        // into every process a sample creates
        for preset in [bare_metal_sandbox as fn() -> Machine, vm_sandbox] {
            let factory: MachineFactory = Arc::new(preset);
            let snap = Cluster::new(Arc::clone(&factory), engine()).with_limits(limits);
            let rebuild = Cluster::new(factory, engine())
                .with_limits(limits)
                .with_reset_strategy(ResetStrategy::FactoryRebuild);
            // per-sample: byte-identical traces and equal verdicts
            for s in &corpus {
                let a = snap.run_pair(s.sample.clone().into_program());
                let b = rebuild.run_pair(s.sample.clone().into_program());
                assert_eq!(a.baseline, b.baseline, "{}: baseline trace differs", s.md5);
                assert_eq!(
                    a.protected.trace, b.protected.trace,
                    "{}: protected trace differs",
                    s.md5
                );
                assert_eq!(a.verdict, b.verdict, "{}", s.md5);
            }
            // whole sweeps: reports and telemetry counters agree
            let ra = snap.run_corpus(&corpus, 1);
            let rb = rebuild.run_corpus(&corpus, 1);
            assert_eq!(ra.results(), rb.results());
            let ta = ra.telemetry().expect("telemetry on by default");
            let tb = rb.telemetry().expect("telemetry on by default");
            assert!(ta.counters_agree(tb), "snapshot {ta:#?}\nrebuild {tb:#?}");
            assert_eq!(ta.deterministic, tb.deterministic);
            assert_eq!(
                ta.deterministic.to_json().to_string(),
                tb.deterministic.to_json().to_string(),
                "deterministic telemetry must serialize byte-identically across reset strategies"
            );
            // and a four-worker sweep matches both
            let rp = snap.run_corpus(&corpus, 4);
            assert_eq!(ra.results(), rp.results());
            assert!(ta.counters_agree(rp.telemetry().expect("telemetry on by default")));
        }

        // the write-heavy preset: benign apps write into the 60k-key hive,
        // and the ransomware cases rename and encrypt preset files, which
        // leaves tombstones over base entries
        let factory: MachineFactory = Arc::new(|| {
            let mut m = end_user_machine();
            m.system_mut().fs.set_drive('D', DriveInfo::gb(1_000, 800));
            m
        });
        let snap = Cluster::new(Arc::clone(&factory), engine());
        let rebuild =
            Cluster::new(factory, engine()).with_reset_strategy(ResetStrategy::FactoryRebuild);
        let mut programs: Vec<Arc<dyn Program>> =
            cnet_top20().into_iter().map(|app| Arc::new(app) as Arc<dyn Program>).collect();
        programs.extend(
            [cases::wannacry(), cases::locky(), cases::kasidet()]
                .map(|s| Arc::new(s) as Arc<dyn Program>),
        );
        // one factory build per run under rebuild: the baseline machine is
        // kept for its post-run store view
        let paired = |c: &Cluster, program: &Arc<dyn Program>| {
            let (machine, baseline) = c.run_baseline(Arc::clone(program));
            let (_, protected) = c.run_protected(Arc::clone(program));
            let verdict = Verdict::decide(&baseline, &protected.trace);
            (machine, baseline, protected, verdict)
        };
        let files = |m: &Machine| -> Vec<(String, bool)> {
            m.system().fs.iter().map(|f| (f.path.clone(), f.encrypted)).collect()
        };
        let processes = |m: &Machine| -> Vec<String> {
            m.processes()
                .map(|p| {
                    let (pid, state, hooked) = (p.pid, p.state, p.hooked_api_count());
                    format!("{pid} {} {state:?} {} {:?} {hooked}", p.image, p.exit_code, p.modules)
                })
                .collect()
        };
        for program in programs {
            let name = program.image_name().to_owned();
            let (ma, baseline_a, protected_a, verdict_a) = paired(&snap, &program);
            let (mb, baseline_b, protected_b, verdict_b) = paired(&rebuild, &program);
            assert_eq!(baseline_a, baseline_b, "{name}: baseline trace differs");
            assert_eq!(protected_a.trace, protected_b.trace, "{name}: protected trace differs");
            assert_eq!(verdict_a, verdict_b, "{name}");
            // the post-run store views agree
            let (ra, rb) = (&ma.system().registry, &mb.system().registry);
            assert_eq!(ra.key_count(), rb.key_count(), "{name}");
            assert_eq!(ma.system().fs.file_count(), mb.system().fs.file_count(), "{name}");
            assert_eq!(files(&ma), files(&mb), "{name}: file views differ");
            assert_eq!(processes(&ma), processes(&mb), "{name}: process tables differ");
        }
    }

    #[test]
    fn flight_attribution_is_deterministic_across_parallel_sweeps() {
        let corpus: Vec<_> = malgene_corpus(3).into_iter().take(12).collect();
        // loopers of 600 copies record about 4,800 spans each
        let limits = RunLimits { budget_ms: 60_000, max_processes: 600 };
        let c = cluster().with_limits(limits).with_flight(FlightConfig::enabled());
        let seq = c.run_corpus(&corpus, 1);
        let par = c.run_corpus(&corpus, 4);
        let fs = seq.flight().expect("flight enabled");
        let fp = par.flight().expect("flight enabled");
        assert_eq!(fs.attributions.len(), corpus.len(), "one chain per sample");
        // merge re-sorts worker data into corpus order; virtual-clock
        // timestamps make the chains byte-identical to the one-worker sweep
        assert_eq!(fs.attributions, fp.attributions);
        assert!(fs.hists.contains_key("api_dispatch_ns"));
        // every sample keyed by md5 is findable (the explain path)
        assert!(fs.attribution_for(&corpus[0].md5).is_some());
        // the slice overflows the span capacity, and both sweeps keep the
        // same whole samples: equal spans once the wall clock is zeroed
        assert!(fs.dropped_spans > 0);
        assert_eq!(fs.dropped_spans, fp.dropped_spans);
        let virtual_spans = |f: &FlightSnapshot| -> Vec<Span> {
            f.spans.iter().cloned().map(|s| Span { wall_ns: 0, ..s }).collect()
        };
        assert_eq!(virtual_spans(fs), virtual_spans(fp));
    }

    #[test]
    fn a_looper_larger_than_the_span_capacity_is_kept_whole() {
        let corpus = malgene_corpus(3);
        let looper = corpus.iter().find(|s| s.class == SampleClass::SelfSpawner).unwrap();
        // each self-spawned copy adds about eight spans
        let c = cluster()
            .with_limits(RunLimits { budget_ms: 60_000, max_processes: 1_200 })
            .with_flight(FlightConfig::enabled());
        let program = looper.sample.clone().into_program();
        let image = program.image_name().to_owned();
        assert!(c.run_pair(program).verdict.is_self_spawn_loop());
        let snap = c.flight_snapshot().expect("armed");
        assert!(snap.spans.len() > tracer::flight::SPAN_CAPACITY, "{} spans", snap.spans.len());
        assert_eq!(snap.dropped_spans, 0);
        let root = &snap.spans[0];
        assert_eq!((root.kind, root.id, root.parent), (tracer::SpanKind::Sample, 0, None));
        assert_eq!(root.name, image);
        assert_eq!(snap.spans.last().unwrap().id, snap.spans.len() as u64 - 1);
    }

    #[test]
    fn flight_disabled_sweep_attaches_no_snapshot() {
        let corpus: Vec<_> = malgene_corpus(3).into_iter().take(4).collect();
        let limits = RunLimits { budget_ms: 60_000, max_processes: 60 };
        let c = cluster().with_limits(limits);
        let report = c.run_corpus(&corpus, 1);
        assert!(report.flight().is_none());
        assert!(c.flight_snapshot().is_none());
    }

    #[test]
    fn flight_on_and_off_give_identical_results_traces_and_telemetry() {
        let corpus: Vec<_> = malgene_corpus(3).into_iter().take(12).collect();
        let limits = RunLimits { budget_ms: 60_000, max_processes: 60 };
        let off = cluster().with_limits(limits);
        let on = cluster().with_limits(limits).with_flight(FlightConfig::enabled());
        for s in &corpus {
            let a = off.run_pair(s.sample.clone().into_program());
            let b = on.run_pair(s.sample.clone().into_program());
            assert_eq!(a.protected.trace, b.protected.trace, "{}: protected trace differs", s.md5);
            assert_eq!(a.protected.triggers, b.protected.triggers, "{}", s.md5);
            assert_eq!(a.verdict, b.verdict, "{}", s.md5);
        }
        let (ra, rb) = (off.run_corpus(&corpus, 1), on.run_corpus(&corpus, 1));
        assert!(ra.flight().is_none());
        assert_eq!(rb.flight().expect("armed").attributions.len(), corpus.len());
        assert_eq!(ra.results(), rb.results());
        let ta = ra.telemetry().expect("telemetry on by default");
        let tb = rb.telemetry().expect("telemetry on by default");
        assert_eq!(
            ta.deterministic.to_json().to_string(),
            tb.deterministic.to_json().to_string(),
            "deterministic telemetry must serialize byte-identically with the recorder on or off"
        );
    }

    #[test]
    fn armed_run_pair_records_one_attribution_keyed_by_image_name() {
        let s = joe_samples().into_iter().find(|s| s.md5 == "f1a1288").unwrap();
        let program = s.sample.into_program();
        let image = program.image_name().to_owned();
        let c = cluster().with_flight(FlightConfig::enabled());
        let pair = c.run_pair(Arc::clone(&program));
        assert!(pair.verdict.is_deactivated());
        let snap = c.flight_snapshot().expect("armed");
        assert_eq!(snap.attributions.len(), 1);
        let attr = snap.attribution_for(&image).expect("keyed by the image name");
        assert_eq!(attr.corpus_index, 0);
        assert!(attr.verdict.contains("deactivated"));
        assert!(attr.chain.iter().any(|s| s.api == "IsDebuggerPresent"
            && s.handler == "Debugger"
            && s.answer == "TRUE"));
        assert!(snap.spans.iter().any(|s| s.kind == tracer::SpanKind::Handler));
        assert!(snap.spans.iter().any(|s| s.kind == tracer::SpanKind::ApiDispatch));
        // a lone protected run leaves the recorder with the cluster
        let (m, _) = c.run_protected(Arc::clone(&program));
        assert!(!m.flight_active());
        assert_eq!(c.flight_snapshot().expect("armed").attributions.len(), 1);
        // an unarmed cluster records nothing
        let unarmed = cluster();
        let (m, _) = unarmed.run_protected(Arc::clone(&program));
        assert!(!m.flight_active());
        unarmed.run_pair(program);
        assert!(unarmed.flight_snapshot().is_none());
    }

    #[test]
    fn telemetry_disabled_dispatch_returns_identical_values() {
        let enabled = Scarecrow::with_builtin_db(Config::default());
        let disabled = Scarecrow::builder(Config::default()).telemetry(false).build();
        assert!(enabled.telemetry().is_some());
        assert!(disabled.telemetry().is_none());
        let corpus: Vec<_> = malgene_corpus(3).into_iter().take(8).collect();
        let limits = RunLimits { budget_ms: 60_000, max_processes: 60 };
        let with_t = Cluster::new(Arc::new(bare_metal_sandbox), enabled)
            .with_limits(limits)
            .run_corpus(&corpus, 1);
        let without_t = Cluster::new(Arc::new(bare_metal_sandbox), disabled)
            .with_limits(limits)
            .run_corpus(&corpus, 1);
        assert!(without_t.telemetry().is_none());
        // counting must never change what the dispatch returns
        assert_eq!(with_t.results(), without_t.results());
    }
}
