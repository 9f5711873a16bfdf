//! The Scarecrow controller — the reproduction's `scarecrow.exe`
//! (Section III-B, Figure 2).
//!
//! The controller starts the target program (so the sample's parent process
//! is the analysis-daemon-like `scarecrow.exe`, not `explorer.exe`),
//! injects `scarecrow.dll`, and collects the fingerprint triggers the DLL
//! reports and the self-spawn-loop alarms it raises. Both are per-run
//! state, so they live on the machine the run is on, not in the engine.

use std::sync::{Arc, RwLock};

use hooklib::{DllImage, Injector};
use tracer::{Telemetry, TelemetrySnapshot, Trace};
use winsim::{Api, Machine, Pid, SimError};

use crate::config::Config;
use crate::crawler;
use crate::engine::{DeceptionHook, EngineState, POISONED};
use crate::ipc::Trigger;
use crate::profiles::Profile;
use crate::resources::{ResourceDb, ResourceStats};
use crate::rules::RuleSet;

/// The module name the injected DLL appears under.
pub const DLL_NAME: &str = "scarecrow.dll";
/// The controller's process image name (becomes the sample's parent).
pub const CONTROLLER_IMAGE: &str = "scarecrow.exe";

/// Result of one protected run. Its spans and attribution chain, when
/// wanted, go to the flight recorder armed on the machine by the machine's
/// owner (`Machine::set_flight`), never into this result.
#[derive(Debug, Clone)]
pub struct ProtectedRun {
    /// Pid the sample ran as.
    pub pid: Pid,
    /// Every fingerprint trigger, in order.
    pub triggers: Vec<Trigger>,
    /// The kernel trace of the run.
    pub trace: Trace,
}

impl ProtectedRun {
    /// The first trigger — what Table I reports per sample.
    pub fn first_trigger(&self) -> Option<&Trigger> {
        self.triggers.first()
    }

    /// Self-spawn-loop alarms raised during the run, read from its trace.
    pub fn alarms(&self) -> Vec<&str> {
        self.trace.alarms().collect()
    }
}

/// The deception engine: resource database + configuration + controller.
///
/// One `Scarecrow` can protect many runs on many machines at once: each
/// run's deception state lives on its own machine
/// ([`winsim::DeceptionRecord`]), never in the engine.
///
/// # Example
///
/// ```
/// use scarecrow::{Config, Scarecrow};
/// use winsim::env::bare_metal_sandbox;
///
/// let engine = Scarecrow::with_builtin_db(Config::default());
/// let mut machine = bare_metal_sandbox();
/// // register a sample program, then:
/// // let run = engine.run_protected(&mut machine, "sample.exe")?;
/// assert!(engine.db_stats().processes >= 24);
/// ```
pub struct Scarecrow {
    state: Arc<EngineState>,
    /// The engine's telemetry recorder, for the machine's owner to attach
    /// (`Machine::set_telemetry`); the engine never attaches it itself.
    telemetry: Option<Arc<Telemetry>>,
    /// The injector for the current configuration, built with the engine
    /// and rebuilt by [`Scarecrow::update_config`]. It lives here, not in
    /// `EngineState`: its hooks hold the state, so storing it there would
    /// form a reference cycle.
    injector: RwLock<Arc<Injector>>,
}

impl std::fmt::Debug for Scarecrow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scarecrow").field("db", &self.db_stats()).finish()
    }
}

/// Step-by-step construction of a [`Scarecrow`] engine — the one path
/// behind [`Scarecrow::new`], [`Scarecrow::with_builtin_db`], and
/// [`Scarecrow::with_db`].
///
/// ```
/// use std::sync::Arc;
/// use scarecrow::{Config, ResourceDb, Scarecrow};
///
/// let db = Arc::new(ResourceDb::builtin());
/// let engine = Scarecrow::builder(Config::default()).db(Arc::clone(&db)).build();
/// assert!(engine.telemetry().is_some());
/// ```
#[derive(Debug)]
pub struct ScarecrowBuilder {
    config: Config,
    db: Option<Arc<ResourceDb>>,
    crawl: bool,
    telemetry: bool,
}

impl ScarecrowBuilder {
    /// Uses an explicit resource database. Accepts `ResourceDb` or
    /// `Arc<ResourceDb>`; an `Arc` is shared, not cloned, so parallel
    /// workers built from the same `Arc` reuse one database.
    pub fn db(mut self, db: impl Into<Arc<ResourceDb>>) -> Self {
        self.db = Some(db.into());
        self
    }

    /// Extends the database with the public-sandbox crawl of Section II-C.
    pub fn crawl(mut self) -> Self {
        self.crawl = true;
        self
    }

    /// Enables or disables telemetry collection (enabled by default).
    pub fn telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = enabled;
        self
    }

    /// Builds the engine.
    pub fn build(self) -> Scarecrow {
        let db = match (self.db, self.crawl) {
            (Some(db), false) => db,
            (Some(db), true) => {
                let mut db = (*db).clone();
                crawler::extend_db(&mut db, &crawler::crawl_public_sandboxes());
                Arc::new(db)
            }
            (None, false) => Arc::new(ResourceDb::builtin()),
            (None, true) => {
                let mut db = ResourceDb::builtin();
                crawler::extend_db(&mut db, &crawler::crawl_public_sandboxes());
                Arc::new(db)
            }
        };
        let state = Arc::new(EngineState::new(self.config, db));
        let telemetry = self.telemetry.then(|| {
            let profiles = Profile::all().iter().map(|p| p.name());
            Arc::new(Telemetry::new(Api::telemetry_slot_names(), profiles))
        });
        let injector = RwLock::new(Arc::new(build_injector(&state)));
        Scarecrow { state, telemetry, injector }
    }
}

/// An injector of a fresh `scarecrow.dll` image for the state's current
/// rule set: one hook sharing `state` per hooked API, following children
/// unless `follow_children` is off.
fn build_injector(state: &Arc<EngineState>) -> Injector {
    let rules = state.rule_set();
    let mut dll = DllImage::new(DLL_NAME);
    for &api in rules.hooked_apis() {
        dll.hook(api, Arc::new(DeceptionHook::new(Arc::clone(state))));
    }
    if rules.config().follow_children {
        Injector::new(dll)
    } else {
        Injector::without_follow(dll)
    }
}

impl Scarecrow {
    /// Starts building an engine over a configuration. Defaults: the
    /// curated builtin database, no crawl, telemetry enabled.
    pub fn builder(config: Config) -> ScarecrowBuilder {
        ScarecrowBuilder { config, db: None, crawl: false, telemetry: true }
    }

    /// Builds the full engine: curated resources plus the public-sandbox
    /// crawl of Section II-C (17,540 files / 24 processes / 1,457 registry
    /// entries).
    pub fn new(config: Config) -> Self {
        Scarecrow::builder(config).crawl().build()
    }

    /// Builds an engine with only the curated core database (cheaper; used
    /// in unit tests and ablations).
    pub fn with_builtin_db(config: Config) -> Self {
        Scarecrow::builder(config).build()
    }

    /// Builds an engine over an explicit database (`ResourceDb` or a
    /// shared `Arc<ResourceDb>`).
    pub fn with_db(config: Config, db: impl Into<Arc<ResourceDb>>) -> Self {
        Scarecrow::builder(config).db(db).build()
    }

    /// A worker engine for a parallel sweep: same configuration, the
    /// *same shared* database `Arc`, its own rule-set lock, and its own
    /// telemetry recorder (so worker snapshots merge without
    /// contention). The engine carries no flight-recorder setting: the
    /// worker's harness arms its own recorder.
    pub fn worker(&self) -> Scarecrow {
        Scarecrow::builder(self.config())
            .db(Arc::clone(&self.state.db))
            .telemetry(self.telemetry().is_some())
            .build()
    }

    /// The engine's telemetry recorder, when collection is enabled. It
    /// counts only on machines their owner attached it to
    /// (`Machine::set_telemetry`), as `harness::Cluster` does for every
    /// machine it runs.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref()
    }

    /// A snapshot of the engine's telemetry, when collection is enabled.
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        self.telemetry.as_ref().map(|t| t.snapshot())
    }

    /// A snapshot of the engine configuration.
    pub fn config(&self) -> Config {
        self.state.config().as_ref().clone()
    }

    /// Dynamically reconfigures the engine — the Section III-B IPC path:
    /// every already injected DLL observes the change on its next
    /// intercepted call, without re-injection. The configuration and the
    /// rule set built from it are swapped in together, and right after
    /// them the injector that later [`Scarecrow::run_protected`] and
    /// [`Scarecrow::protect_process`] calls inject with.
    pub fn update_config<F: FnOnce(&mut Config)>(&self, f: F) {
        let mut cfg = self.state.config().as_ref().clone();
        f(&mut cfg);
        self.state.swap_config(cfg);
        *self.injector.write().expect(POISONED) = Arc::new(self.injector());
    }

    /// The rule set derived from the current configuration — what
    /// `scarecrowctl rules` lists and what [`Scarecrow::hooked_apis`] and
    /// the injected `scarecrow.dll` are driven by.
    pub fn rule_set(&self) -> Arc<RuleSet> {
        self.state.rule_set()
    }

    /// Database cardinalities.
    pub fn db_stats(&self) -> ResourceStats {
        self.state.db.stats()
    }

    /// Every API the engine hooks, derived from the rule registry: the 29
    /// core APIs, the exception dispatcher and Toolhelp32 extensions, plus
    /// (when the wear-and-tear extension is enabled) the 7 APIs of
    /// Table III — minus any APIs only declared by rules disabled through
    /// [`Config::rule_overrides`].
    pub fn hooked_apis(&self) -> Vec<Api> {
        self.state.rule_set().hooked_apis().to_vec()
    }

    /// Builds a fresh injector for the current configuration
    /// (child-following per `follow_children`, one hook per hooked API).
    /// The engine itself builds one when it is built and one per
    /// [`Scarecrow::update_config`], and protects every process with it,
    /// so this cost is paid per configuration, not per run.
    pub fn injector(&self) -> Injector {
        build_injector(&self.state)
    }

    /// Installs the engine into an *already running* process — the
    /// "on-demand service" deployment for processes not started by the
    /// controller. The decisions land in the machine's
    /// [`winsim::DeceptionRecord`], and in whatever telemetry recorder the
    /// machine's owner attached.
    pub fn protect_process(&self, machine: &mut Machine, pid: Pid) {
        self.current_injector().inject(machine, pid);
    }

    /// The injector built for the current configuration.
    fn current_injector(&self) -> Arc<Injector> {
        Arc::clone(&*self.injector.read().expect(POISONED))
    }

    /// Runs one sample under full protection: clear the machine's deception
    /// record, start a controller process, launch the sample as its child
    /// with `scarecrow.dll` injected, run to completion, and take the trace
    /// and the record's triggers. A telemetry or flight recorder already on
    /// the machine observes the run; the engine never attaches either.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownImage`] if the sample image was not
    /// registered with the machine.
    pub fn run_protected(
        &self,
        machine: &mut Machine,
        image: &str,
    ) -> Result<ProtectedRun, SimError> {
        // The run's record and trace start empty: triggers and alarms are
        // scoped to this run, whatever the machine did before.
        machine.take_deception();
        machine.take_trace();
        let controller = machine.add_system_process(CONTROLLER_IMAGE);
        machine.set_trace_root(image);
        let pid = self.current_injector().launch_injected(machine, image, controller)?;
        machine.run();
        let decisions = machine.take_deception().into_decisions();
        let triggers = decisions.into_iter().map(Trigger::from_decision).collect();
        Ok(ProtectedRun { pid, triggers, trace: machine.take_trace() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc as StdArc, Mutex};
    use winsim::{ProcessCtx, Program, System};

    /// The canonical evasive sample: checks the debugger, then drops.
    struct Evader;
    impl Program for Evader {
        fn image_name(&self) -> &str {
            "evader.exe"
        }
        fn run(&self, ctx: &mut ProcessCtx<'_>) {
            if ctx.is_debugger_present() {
                ctx.exit_process(0);
            } else {
                ctx.create_process("svchost.exe");
                ctx.write_file(r"C:\evil.bin", 64);
            }
        }
    }

    /// A self-spawner: re-spawns itself whenever it sees a debugger.
    struct Spawner;
    impl Program for Spawner {
        fn image_name(&self) -> &str {
            "spawner.exe"
        }
        fn run(&self, ctx: &mut ProcessCtx<'_>) {
            if ctx.is_debugger_present() {
                ctx.create_process("spawner.exe");
            } else {
                ctx.write_file(r"C:\payload.bin", 8);
            }
        }
    }

    #[test]
    fn protected_run_deactivates_the_evader() {
        let engine = Scarecrow::with_builtin_db(Config::default());
        let mut m = Machine::new(System::new());
        m.register_program(StdArc::new(Evader));
        let run = engine.run_protected(&mut m, "evader.exe").unwrap();
        assert!(!m.system().fs.exists(r"C:\evil.bin"));
        assert_eq!(run.first_trigger().unwrap().api, Api::IsDebuggerPresent);
        assert!(run.alarms().is_empty());
    }

    #[test]
    fn unprotected_run_shows_the_payload() {
        let mut m = Machine::new(System::new());
        m.register_program(StdArc::new(Evader));
        m.run_sample("evader.exe").unwrap();
        assert!(m.system().fs.exists(r"C:\evil.bin"));
    }

    #[test]
    fn parent_process_is_the_controller() {
        let engine = Scarecrow::with_builtin_db(Config::default());
        struct ParentChecker;
        impl Program for ParentChecker {
            fn image_name(&self) -> &str {
                "pc.exe"
            }
            fn run(&self, ctx: &mut ProcessCtx<'_>) {
                let parent = ctx.parent_image();
                ctx.write_file(&format!(r"C:\parent_{parent}"), 1);
            }
        }
        let mut m = Machine::new(System::new());
        m.register_program(StdArc::new(ParentChecker));
        engine.run_protected(&mut m, "pc.exe").unwrap();
        assert!(m.system().fs.exists(r"C:\parent_scarecrow.exe"));
    }

    #[test]
    fn self_spawn_loop_is_contained_and_alarmed() {
        let engine = Scarecrow::with_builtin_db(Config::default());
        let mut m = Machine::new(System::new());
        m.register_program(StdArc::new(Spawner));
        let run = engine.run_protected(&mut m, "spawner.exe").unwrap();
        assert!(run.trace.self_spawn_count() > 10, "everlasting loop under deception");
        assert!(!m.system().fs.exists(r"C:\payload.bin"));
        assert!(!run.alarms().is_empty(), "controller raised the loop alarm");
    }

    #[test]
    fn full_db_includes_the_crawl() {
        let engine = Scarecrow::new(Config::default());
        let stats = engine.db_stats();
        assert!(stats.files >= 17_540);
        // 24 curated + 24 crawled, minus the VirtualBox daemons present in
        // both sets
        assert!(stats.processes >= 44);
        assert!(stats.reg_keys >= 1_457);
    }

    #[test]
    fn hooked_api_count_matches_the_paper() {
        use crate::rules::{all_rules, Tier};
        use std::collections::HashSet;
        // tier counts derived from the registry, anchored to the paper
        let tier_count = |tier: Tier| {
            all_rules()
                .iter()
                .flat_map(|r| r.apis())
                .filter(|(_, t)| *t == tier)
                .map(|(a, _)| *a)
                .collect::<HashSet<_>>()
                .len()
        };
        let (core, extra, wear) =
            (tier_count(Tier::Core), tier_count(Tier::Extra), tier_count(Tier::Wear));
        assert_eq!(core, 29, "Section III-A: 29 hooked APIs");
        assert_eq!(wear, 7, "Table III: 7 associated APIs");
        let engine = Scarecrow::with_builtin_db(Config::default());
        assert_eq!(engine.hooked_apis().len(), core + extra + wear);
        assert_eq!(engine.hooked_apis(), engine.rule_set().hooked_apis().to_vec());
        let engine = Scarecrow::with_builtin_db(Config { weartear: false, ..Config::default() });
        assert_eq!(engine.hooked_apis().len(), core + extra);
    }

    #[test]
    fn update_config_rebuilds_the_rule_set() {
        let engine = Scarecrow::with_builtin_db(Config::default());
        let before = engine.hooked_apis().len();
        engine.update_config(|c| {
            c.rule_overrides.insert("gui".to_owned(), false);
        });
        assert!(!engine.hooked_apis().contains(&Api::FindWindow));
        assert_eq!(engine.hooked_apis().len(), before - 1);
        engine.update_config(|c| {
            c.rule_overrides.clear();
        });
        assert_eq!(engine.hooked_apis().len(), before);
    }

    /// Per process: its image and whether `FindWindow` and
    /// `IsDebuggerPresent` are hooked in it.
    type PrologueLog = StdArc<Mutex<Vec<(&'static str, bool, bool)>>>;

    /// Logs its own process into a [`PrologueLog`], then spawns its
    /// child, if it has one.
    struct PrologueProbe {
        image: &'static str,
        child: Option<&'static str>,
        log: PrologueLog,
    }
    impl Program for PrologueProbe {
        fn image_name(&self) -> &str {
            self.image
        }
        fn run(&self, ctx: &mut ProcessCtx<'_>) {
            let hooked = |api| hooklib::check_hook(&ctx.read_api_prologue(api));
            let entry = (self.image, hooked(Api::FindWindow), hooked(Api::IsDebuggerPresent));
            self.log.lock().unwrap().push(entry);
            if let Some(child) = self.child {
                ctx.create_process(child);
            }
        }
    }

    #[test]
    fn update_config_rebuilds_the_held_injector() {
        let engine = Scarecrow::with_builtin_db(Config::default());
        let probe = |engine: &Scarecrow| {
            let log = PrologueLog::default();
            let mut m = Machine::new(System::new());
            for (image, child) in [("parent.exe", Some("child.exe")), ("child.exe", None)] {
                m.register_program(StdArc::new(PrologueProbe {
                    image,
                    child,
                    log: StdArc::clone(&log),
                }));
            }
            engine.run_protected(&mut m, "parent.exe").unwrap();
            let log = log.lock().unwrap().clone();
            log
        };
        let hooked = [("parent.exe", true, true), ("child.exe", true, true)];
        assert_eq!(probe(&engine), hooked);
        engine.update_config(|c| {
            c.rule_overrides.insert("gui".to_owned(), false);
        });
        assert_eq!(probe(&engine), [("parent.exe", false, true), ("child.exe", false, true)]);
        engine.update_config(|c| {
            c.rule_overrides.clear();
            c.follow_children = false;
        });
        assert_eq!(probe(&engine), [("parent.exe", true, true), ("child.exe", false, false)]);
        engine.update_config(|c| *c = Config::default());
        assert_eq!(probe(&engine), hooked);
    }

    #[test]
    fn runs_reset_state_between_samples() {
        let engine = Scarecrow::with_builtin_db(Config::default());
        let mut m1 = Machine::new(System::new());
        m1.register_program(StdArc::new(Spawner));
        let r1 = engine.run_protected(&mut m1, "spawner.exe").unwrap();
        assert!(!r1.alarms().is_empty());
        let mut m2 = Machine::new(System::new());
        m2.register_program(StdArc::new(Evader));
        let r2 = engine.run_protected(&mut m2, "evader.exe").unwrap();
        assert!(r2.alarms().is_empty(), "alarms must not leak across runs");
        assert!(r2.triggers.iter().all(|t| t.api == Api::IsDebuggerPresent));
    }

    #[test]
    fn a_run_on_a_used_machine_reports_only_its_own_alarms_and_triggers() {
        let engine = Scarecrow::with_builtin_db(Config::default());
        let mut m = Machine::new(System::new());
        m.register_program(StdArc::new(Evader));
        engine.run_protected(&mut m, "evader.exe").unwrap();
        // a probe session after the first run leaves an alarm in the trace
        let pid = m.add_system_process("probe.exe");
        engine.protect_process(&mut m, pid);
        for _ in 0..engine.config().spawn_alarm_threshold {
            m.call_api(pid, Api::CreateProcess, winsim::args!["probe.exe"]);
        }
        assert_eq!(m.trace().alarms().count(), 1, "the probe session raised an alarm");
        let run = engine.run_protected(&mut m, "evader.exe").unwrap();
        assert!(run.alarms().is_empty(), "the probe's alarm is not the run's");
        assert_eq!(run.triggers.len(), 1, "only the evader's own trigger: {:?}", run.triggers);
    }

    #[test]
    fn probe_triggers_do_not_leak_into_the_next_run() {
        let engine = Scarecrow::with_builtin_db(Config::default());
        let mut probe = Machine::new(System::new());
        let pid = probe.add_system_process("probe.exe");
        engine.protect_process(&mut probe, pid);
        let vmware = winsim::args![r"HKLM\SOFTWARE\VMware, Inc.\VMware Tools"];
        probe.call_api(pid, Api::RegOpenKeyEx, vmware);
        probe.call_api(pid, Api::FindWindow, winsim::args!["OLLYDBG"]);
        let mut m = Machine::new(System::new());
        m.register_program(StdArc::new(Evader));
        let run = engine.run_protected(&mut m, "evader.exe").unwrap();
        assert_eq!(run.triggers.len(), 1, "only the evader's own trigger: {:?}", run.triggers);
        assert_eq!(run.triggers[0].api, Api::IsDebuggerPresent);
    }

    const VMWARE_KEY: &str = r"HKLM\SOFTWARE\VMware, Inc.\VMware Tools";
    const VBOX_KEY: &str = r"HKLM\SOFTWARE\Oracle\VirtualBox Guest Additions";

    /// A fresh machine with one process protected by `engine`.
    fn protected_probe(engine: &Scarecrow) -> (Machine, Pid) {
        let mut m = Machine::new(System::new());
        let pid = m.add_system_process("probe.exe");
        engine.protect_process(&mut m, pid);
        (m, pid)
    }

    fn open_key(m: &mut Machine, pid: Pid, key: &str) -> winsim::NtStatus {
        m.call_api(pid, Api::RegOpenKeyEx, winsim::args![key]).as_status()
    }

    #[test]
    fn exclusive_mode_switched_on_by_update_config_takes_effect() {
        let engine = Scarecrow::with_builtin_db(Config::default());
        engine.update_config(|c| c.exclusive_profiles = true);
        let (mut m, pid) = protected_probe(&engine);
        assert_eq!(open_key(&mut m, pid, VMWARE_KEY), winsim::NtStatus::Success);
        assert_eq!(open_key(&mut m, pid, VBOX_KEY), winsim::NtStatus::ObjectNameNotFound);
    }

    #[test]
    fn exclusive_commitment_does_not_leak_across_machines() {
        let engine =
            Scarecrow::with_builtin_db(Config { exclusive_profiles: true, ..Config::default() });
        let (mut a, pid_a) = protected_probe(&engine);
        let (mut b, pid_b) = protected_probe(&engine);
        assert_eq!(open_key(&mut a, pid_a, VMWARE_KEY), winsim::NtStatus::Success);
        assert_eq!(open_key(&mut b, pid_b, VBOX_KEY), winsim::NtStatus::Success);
        assert_eq!(open_key(&mut a, pid_a, VBOX_KEY), winsim::NtStatus::ObjectNameNotFound);
        assert_eq!(a.deception().committed_profile, Some("VMware"));
        assert_eq!(b.deception().committed_profile, Some("VirtualBox"));
    }
}
