//! The injected deception engine — the reproduction's `scarecrow.dll`.
//!
//! One dispatcher ([`DeceptionHook`]) is installed on every hooked API,
//! mirroring the paper's single DLL that "inspects the call parameters
//! and return values. The return values are manipulated before returning
//! to the caller if any resources in SCARECROW deceptive execution
//! environment are queried" (Section III-B). The per-API behavior lives
//! in the declarative rule registry ([`crate::rules`]); this module owns
//! the data the rules consult and the one dispatch entry point.
//! Everything one run changes — its decisions, spawn counts and committed
//! profile — lives on the machine that runs it
//! ([`winsim::DeceptionRecord`]).

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use tracer::SpanKind;
use winsim::env as wenv;
use winsim::{ApiCall, ApiHook, Value};

use crate::config::{Config, WearTearFakes};
use crate::resources::ResourceDb;
use crate::rules::RuleSet;

/// The data shared by the controller and every injected DLL instance; it
/// holds nothing about any one run.
///
/// The configuration sits behind a lock because the controller "dynamically
/// updates the hooks and configurations through IPC" (Section III-B):
/// [`crate::Scarecrow::update_config`] takes effect for every already
/// injected DLL on its next intercepted call. The configuration and the
/// rules it makes live are one [`RuleSet`] behind one lock, so a call sees
/// either the old pair or the new one, never a mix.
pub struct EngineState {
    /// The current configuration and its rules (runtime-updatable). The
    /// dispatcher takes one refcounted handle per call; updates swap in a
    /// freshly built set.
    rules: RwLock<Arc<RuleSet>>,
    /// Faked wear-and-tear values (Table III).
    pub wear: WearTearFakes,
    /// The deceptive resource database.
    pub db: Arc<ResourceDb>,
    /// Normalized well-known worn registry key → (subkey fake, value
    /// fake), precomputed once so the wear-and-tear rule does not
    /// re-lowercase and re-trim every candidate key per call.
    wear_reg: HashMap<String, WearCounts>,
}

impl std::fmt::Debug for EngineState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineState").field("db", &self.db.stats()).finish()
    }
}

/// Every engine lock guards a short swap that cannot panic; no lock is
/// held across a rule or a hook. A poisoned lock is therefore a bug.
pub(crate) const POISONED: &str = "engine state lock poisoned";

/// Fake (subkey count, value count) pair for one worn registry key.
type WearCounts = (Option<u64>, Option<u64>);

/// Builds the normalized worn-key map from the Table III fakes: each
/// well-known key is trimmed and lowercased exactly once, at
/// [`EngineState`] construction.
fn wear_reg_map(w: &WearTearFakes) -> HashMap<String, WearCounts> {
    let entries: [(&str, WearCounts); 11] = [
        (wenv::DEVICE_CLASSES_KEY, (Some(w.device_classes), None)),
        (wenv::RUN_KEY, (None, Some(w.autoruns))),
        (wenv::UNINSTALL_KEY, (Some(w.uninstall), None)),
        (wenv::SHARED_DLLS_KEY, (None, Some(w.shared_dlls))),
        (wenv::APP_PATHS_KEY, (Some(w.app_paths), None)),
        (wenv::ACTIVE_SETUP_KEY, (Some(w.active_setup), None)),
        (wenv::USER_ASSIST_KEY, (None, Some(w.user_assist))),
        (wenv::SHIM_CACHE_KEY, (None, Some(w.shim_cache))),
        (wenv::MUI_CACHE_KEY, (None, Some(w.mui_cache))),
        (wenv::FIREWALL_RULES_KEY, (None, Some(w.firewall_rules))),
        (wenv::USBSTOR_KEY, (Some(w.usb_stor), None)),
    ];
    entries.iter().map(|(k, v)| (k.trim_matches('\\').to_ascii_lowercase(), *v)).collect()
}

impl EngineState {
    /// Creates engine state around a database.
    pub fn new(config: Config, db: Arc<ResourceDb>) -> Self {
        let wear = WearTearFakes::default();
        let wear_reg = wear_reg_map(&wear);
        let rules = RwLock::new(Arc::new(RuleSet::build(config)));
        EngineState { rules, wear, db, wear_reg }
    }

    /// Swaps in a new configuration with the rule set built from it —
    /// the one place [`RuleSet::build`] runs after construction, so the
    /// per-call dispatch path never derives anything.
    pub fn swap_config(&self, config: Config) {
        let rules = Arc::new(RuleSet::build(config));
        *self.rules.write().expect(POISONED) = rules;
    }

    /// The current configuration.
    pub fn config(&self) -> Arc<Config> {
        Arc::clone(self.rule_set().config())
    }

    /// The current configuration's rule set.
    pub fn rule_set(&self) -> Arc<RuleSet> {
        Arc::clone(&*self.rules.read().expect(POISONED))
    }

    /// Wear-and-tear registry override for a well-known worn key:
    /// a precomputed-map lookup, preferring the `what` facet ("values" or
    /// subkeys) but falling back to the other one, like the original
    /// per-call chain did.
    pub(crate) fn wear_reg_override(&self, path: &str, what: &str) -> Option<u64> {
        let n = path.trim_matches('\\').to_ascii_lowercase();
        let &(subkeys, values) = self.wear_reg.get(&n)?;
        match what {
            "values" => values.or(subkeys),
            _ => subkeys.or(values),
        }
    }
}

/// The single dispatcher installed on every hooked API.
pub struct DeceptionHook {
    state: Arc<EngineState>,
}

impl DeceptionHook {
    /// Creates the dispatcher over shared engine state.
    pub fn new(state: Arc<EngineState>) -> Self {
        DeceptionHook { state }
    }
}

impl ApiHook for DeceptionHook {
    /// The injected DLL's name, so the trampoline's `hook_chain` span
    /// names `scarecrow.dll`.
    fn label(&self) -> &'static str {
        crate::DLL_NAME
    }

    fn invoke(&self, call: &mut ApiCall<'_>) -> Value {
        let pid = call.pid;
        call.machine().flight_begin(SpanKind::Handler, "scarecrow-engine", pid);
        let value = self.state.rule_set().dispatch(&self.state, call);
        call.machine().flight_end();
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::Category;
    use crate::Profile;
    use std::collections::HashSet;
    use std::sync::Arc;
    use winsim::{args, Api, Decision, Machine, NtStatus, Pid, System};

    fn engine() -> Arc<EngineState> {
        Arc::new(EngineState::new(Config::default(), Arc::new(ResourceDb::builtin())))
    }

    /// Takes the triggers recorded on the machine so far.
    fn take_triggers(m: &mut Machine) -> Vec<Decision> {
        m.take_deception().into_decisions()
    }

    fn hooked_machine(state: &Arc<EngineState>) -> (Machine, Pid) {
        let mut m = Machine::new(System::new());
        let pid = m.add_system_process("sample.exe");
        for api in RuleSet::build(Config::default()).hooked_apis() {
            m.install_hook(pid, *api, Arc::new(DeceptionHook::new(Arc::clone(state))));
        }
        (m, pid)
    }

    #[test]
    fn registry_key_deception_and_trigger() {
        let state = engine();
        let (mut m, pid) = hooked_machine(&state);
        let v =
            m.call_api(pid, Api::RegOpenKeyEx, args![r"HKLM\SOFTWARE\VMware, Inc.\VMware Tools"]);
        assert_eq!(v.as_status(), NtStatus::Success);
        let triggers = take_triggers(&mut m);
        assert_eq!(triggers.len(), 1);
        assert_eq!(triggers[0].category, Category::Registry.name());
        assert_eq!(triggers[0].profile, Profile::VMware.name());
    }

    #[test]
    fn non_deceptive_keys_fall_through() {
        let state = engine();
        let (mut m, pid) = hooked_machine(&state);
        m.system_mut().registry.create_key(r"HKLM\SOFTWARE\RealApp");
        assert_eq!(
            m.call_api(pid, Api::RegOpenKeyEx, args![r"HKLM\SOFTWARE\RealApp"]).as_status(),
            NtStatus::Success
        );
        assert_eq!(
            m.call_api(pid, Api::RegOpenKeyEx, args![r"HKLM\SOFTWARE\Missing"]).as_status(),
            NtStatus::ObjectNameNotFound
        );
        assert!(take_triggers(&mut m).is_empty());
    }

    #[test]
    fn debugger_lies() {
        let state = engine();
        let (mut m, pid) = hooked_machine(&state);
        assert_eq!(m.call_api(pid, Api::IsDebuggerPresent, args![]), Value::Bool(true));
        assert_eq!(take_triggers(&mut m)[0].category, Category::Debugger.name());
    }

    #[test]
    fn hardware_fakes_match_config() {
        let state = engine();
        let (mut m, pid) = hooked_machine(&state);
        assert_eq!(m.call_api(pid, Api::GetSystemInfo, args![]).as_u64(), Some(1));
        assert_eq!(m.call_api(pid, Api::GlobalMemoryStatusEx, args![]).as_u64(), Some(1023));
        let disk = m.call_api(pid, Api::GetDiskFreeSpaceEx, args!["C"]);
        assert_eq!(disk.as_list().unwrap()[0].as_u64(), Some(50 << 30));
    }

    #[test]
    fn tick_count_preserves_deltas() {
        let state = engine();
        let (mut m, pid) = hooked_machine(&state);
        let t1 = m.call_api(pid, Api::GetTickCount, args![]).as_u64().unwrap();
        m.call_api(pid, Api::Sleep, args![2_000u64]);
        let t2 = m.call_api(pid, Api::GetTickCount, args![]).as_u64().unwrap();
        assert!(t1 < 12 * 60 * 1000, "uptime looks fresh-boot");
        assert!((t2 - t1) >= 2_000, "sleep deltas survive the fake");
    }

    #[test]
    fn nx_domains_are_sinkholed_but_real_dns_untouched() {
        let state = engine();
        let (mut m, pid) = hooked_machine(&state);
        m.system_mut().network.add_host("real.example.com", [1, 2, 3, 4]);
        assert_eq!(
            m.call_api(pid, Api::DnsQuery, args!["real.example.com"]).as_str(),
            Some("1.2.3.4")
        );
        assert!(take_triggers(&mut m).is_empty());
        let v =
            m.call_api(pid, Api::DnsQuery, args!["iuqerfsodp9ifjaposdfjhgosurijfaewrwergwea.test"]);
        assert_eq!(v.as_str(), Some("10.11.12.13"));
        assert_eq!(take_triggers(&mut m)[0].category, Category::Network.name());
        // HTTP against the sinkholed domain answers 200
        let code = m.call_api(pid, Api::InternetOpenUrl, args!["another-nx-domain.test"]);
        assert_eq!(code.as_u64(), Some(200));
    }

    #[test]
    fn process_enumeration_is_augmented() {
        let state = engine();
        let (mut m, pid) = hooked_machine(&state);
        let list = m.call_api(pid, Api::EnumProcesses, args![]);
        let names: Vec<&str> = list.as_list().unwrap().iter().filter_map(Value::as_str).collect();
        assert!(names.iter().any(|n| n.eq_ignore_ascii_case("olydbg.exe")));
        assert!(names.iter().any(|n| n.eq_ignore_ascii_case("VBoxService.exe")));
    }

    #[test]
    fn protected_processes_cannot_be_terminated() {
        let state = engine();
        let (mut m, pid) = hooked_machine(&state);
        let victim = m.add_system_process("procmon.exe");
        let v = m.call_api(pid, Api::TerminateProcess, args![u64::from(victim)]);
        assert_eq!(v, Value::Bool(false));
        assert!(m.find_process("procmon.exe").is_some());
        assert_eq!(take_triggers(&mut m)[0].category, Category::Process.name());
        // unprotected processes still die
        let bystander = m.add_system_process("randomapp.exe");
        assert_eq!(
            m.call_api(pid, Api::TerminateProcess, args![u64::from(bystander)]),
            Value::Bool(true)
        );
    }

    #[test]
    fn wear_overrides_fake_an_unused_machine() {
        let state = engine();
        let (mut m, pid) = hooked_machine(&state);
        // worn machine: many device classes
        for i in 0..200 {
            m.system_mut()
                .registry
                .create_key(&format!(r"{}\{{c{i}}}", winsim::env::DEVICE_CLASSES_KEY));
        }
        let n = m.call_api(pid, Api::NtQueryKey, args![winsim::env::DEVICE_CLASSES_KEY, "subkeys"]);
        assert_eq!(n.as_u64(), Some(29), "Table III: 29 subkeys");
        let quota = m.call_api(pid, Api::NtQuerySystemInformation, args!["RegistryQuota"]);
        assert_eq!(quota.as_u64(), Some(53 * 1024 * 1024));
        let events = m.call_api(pid, Api::EvtNext, args![100_000u64]);
        assert_eq!(events.as_list().unwrap().len(), 8_000);
        let cache = m.call_api(pid, Api::DnsGetCacheDataTable, args![]);
        assert_eq!(cache.as_list().unwrap().len(), 4);
        assert!(take_triggers(&mut m).iter().all(|t| t.category == Category::WearTear.name()));
    }

    #[test]
    fn wear_overrides_normalize_case_and_slashes() {
        let state = engine();
        let shouty = format!(r"\{}\", winsim::env::RUN_KEY.to_ascii_uppercase());
        assert_eq!(state.wear_reg_override(&shouty, "values"), Some(3), "Table III autoruns");
        // the requested facet falls back to the populated one
        assert_eq!(state.wear_reg_override(winsim::env::RUN_KEY, "subkeys"), Some(3));
        assert_eq!(state.wear_reg_override(r"HKLM\SOFTWARE\NotWellKnown", "values"), None);
    }

    #[test]
    fn spawn_loop_alarm_fires_at_threshold() {
        let state = engine();
        let (mut m, pid) = hooked_machine(&state);
        let threshold = state.config().spawn_alarm_threshold;
        for _ in 0..threshold {
            m.call_api(pid, Api::CreateProcess, args!["sample.exe"]);
        }
        let alarms: Vec<_> = m.trace().alarms().collect();
        assert_eq!(alarms.len(), 1);
        assert!(alarms[0].contains("self-spawn loop"));
        assert_eq!(m.deception().spawn_counts["sample.exe"], threshold);
    }

    #[test]
    fn active_mitigation_kills_the_loop() {
        let cfg = Config { active_mitigation: true, spawn_alarm_threshold: 5, ..Config::default() };
        let state = Arc::new(EngineState::new(cfg, Arc::new(ResourceDb::builtin())));
        let (mut m, pid) = hooked_machine(&state);
        let mut blocked = false;
        for _ in 0..10 {
            let v = m.call_api(pid, Api::CreateProcess, args!["sample.exe"]);
            if v.as_u64() == Some(0) {
                blocked = true;
                break;
            }
        }
        assert!(blocked, "mitigation must block the fork bomb");
        // the forking caller itself was killed (Section VI-C)
        assert_eq!(m.process(pid).unwrap().state, winsim::ProcState::Terminated);
    }

    #[test]
    fn presence_only_config_passes_everything_through() {
        let state =
            Arc::new(EngineState::new(Config::presence_only(), Arc::new(ResourceDb::builtin())));
        let (mut m, pid) = hooked_machine(&state);
        assert_eq!(m.call_api(pid, Api::IsDebuggerPresent, args![]), Value::Bool(false));
        assert_eq!(
            m.call_api(pid, Api::RegOpenKeyEx, args![r"HKLM\SOFTWARE\VMware, Inc.\VMware Tools"])
                .as_status(),
            NtStatus::ObjectNameNotFound
        );
        assert!(take_triggers(&mut m).is_empty());
        // but the hooks are still *visible* to anti-hook checks
        assert!(winsim::check_hook(&m.process(pid).unwrap().api_prologue(Api::IsDebuggerPresent)));
    }

    #[test]
    fn swap_config_rebuilds_the_rule_set() {
        let state = engine();
        assert!(state.rule_set().hooked_apis().contains(&Api::EvtNext));
        let mut cfg = state.config().as_ref().clone();
        cfg.weartear = false;
        state.swap_config(cfg);
        assert!(!state.rule_set().hooked_apis().contains(&Api::EvtNext));
        let mut cfg = state.config().as_ref().clone();
        cfg.rule_overrides.insert("network".to_owned(), false);
        state.swap_config(cfg);
        assert!(state.rule_set().rules().iter().all(|r| r.name() != "network"));
    }

    #[test]
    fn exclusive_profiles_silence_conflicts() {
        let cfg = Config { exclusive_profiles: true, ..Config::default() };
        let state = Arc::new(EngineState::new(cfg, Arc::new(ResourceDb::builtin())));
        let (mut m, pid) = hooked_machine(&state);
        // first fingerprint: VMware
        let v =
            m.call_api(pid, Api::RegOpenKeyEx, args![r"HKLM\SOFTWARE\VMware, Inc.\VMware Tools"]);
        assert_eq!(v.as_status(), NtStatus::Success);
        // VirtualBox resources now deny — no contradiction visible
        let v = m.call_api(
            pid,
            Api::RegOpenKeyEx,
            args![r"HKLM\SOFTWARE\Oracle\VirtualBox Guest Additions"],
        );
        assert_eq!(v.as_status(), NtStatus::ObjectNameNotFound);
        // debugger deception still answers, and a later trigger of another
        // profile cannot steal the commitment
        assert_eq!(m.call_api(pid, Api::IsDebuggerPresent, args![]), Value::Bool(true));
        assert_eq!(m.deception().committed_profile, Some("VMware"));
        let v = m.call_api(
            pid,
            Api::RegOpenKeyEx,
            args![r"HKLM\SOFTWARE\Oracle\VirtualBox Guest Additions"],
        );
        assert_eq!(v.as_status(), NtStatus::ObjectNameNotFound);
    }

    #[test]
    fn exclusive_folder_probes_answer_with_the_committed_profile() {
        let cfg = Config { exclusive_profiles: true, ..Config::default() };
        for _ in 0..16 {
            let state = Arc::new(EngineState::new(cfg.clone(), Arc::new(ResourceDb::builtin())));
            let (mut m, pid) = hooked_machine(&state);
            let vbox = r"HKLM\SOFTWARE\Oracle\VirtualBox Guest Additions";
            assert_eq!(
                m.call_api(pid, Api::RegOpenKeyEx, args![vbox]).as_status(),
                NtStatus::Success
            );
            assert_eq!(m.deception().committed_profile, Some("VirtualBox"));
            // the first entry under drivers is VMware's, now silenced; a
            // VirtualBox driver under the same folder still answers
            let drivers = r"C:\Windows\System32\drivers";
            assert_eq!(m.call_api(pid, Api::GetFileAttributes, args![drivers]), Value::U64(0x80));
            let last = take_triggers(&mut m).pop().unwrap();
            assert_eq!((last.api, last.profile), (Api::GetFileAttributes, "VirtualBox"));
        }
    }

    #[test]
    fn inclusive_mode_never_commits() {
        let state = engine();
        let (mut m, pid) = hooked_machine(&state);
        let vmware = r"HKLM\SOFTWARE\VMware, Inc.\VMware Tools";
        let vbox = r"HKLM\SOFTWARE\Oracle\VirtualBox Guest Additions";
        assert_eq!(
            m.call_api(pid, Api::RegOpenKeyEx, args![vmware]).as_status(),
            NtStatus::Success
        );
        assert_eq!(m.call_api(pid, Api::RegOpenKeyEx, args![vbox]).as_status(), NtStatus::Success);
        assert_eq!(m.deception().committed_profile, None);
    }

    /// The strings of a list answer, each as the shared allocation it holds.
    fn shared_strings(v: &Value) -> Vec<&Arc<str>> {
        v.as_list()
            .unwrap()
            .iter()
            .map(|e| match e {
                Value::Str(s) => s,
                other => panic!("list element {other:?} is not a string"),
            })
            .collect()
    }

    #[test]
    fn fabricated_events_share_the_fake_sources() {
        let state = engine();
        let (mut m, pid) = hooked_machine(&state);
        let v = m.call_api(pid, Api::EvtNext, args![1_000_000u64]);
        let events = shared_strings(&v);
        assert_eq!(events.len(), 8_000);
        let sources = &state.wear.event_sources;
        let allocations: HashSet<*const u8> =
            events.iter().map(|s| Arc::as_ptr(s).cast::<u8>()).collect();
        assert_eq!(allocations.len(), sources.len());
        assert!(events.iter().all(|e| sources.iter().any(|s| Arc::ptr_eq(e, s))));
    }

    #[test]
    fn fabricated_dns_cache_shares_the_fake_entries() {
        let state = engine();
        let (mut m, pid) = hooked_machine(&state);
        let v = m.call_api(pid, Api::DnsGetCacheDataTable, args![]);
        let entries = shared_strings(&v);
        assert_eq!(entries.len(), state.wear.dns_cache_entries.len());
        for (answer, fake) in entries.iter().zip(&state.wear.dns_cache_entries) {
            assert!(Arc::ptr_eq(answer, fake));
        }
    }

    #[test]
    fn no_fake_sources_fabricates_no_events() {
        let mut state = EngineState::new(Config::default(), Arc::new(ResourceDb::builtin()));
        state.wear.event_sources.clear();
        let state = Arc::new(state);
        let (mut m, pid) = hooked_machine(&state);
        let v = m.call_api(pid, Api::EvtNext, args![1_000_000u64]);
        assert_eq!(v, Value::List(Vec::new()));
    }
}
