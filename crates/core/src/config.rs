//! Scarecrow configuration.
//!
//! Deceptive hardware values come straight from Section II-B: "SCARECROW
//! provides faked system configurations, such as disk size (50GB), memory
//! size (1GB), and the number of cores (1)", chosen "based on public
//! sandboxes" and "easily adjustable by users if needed". Category switches
//! exist both for user tailoring and for the ablation benches in
//! `scarecrow-bench`.

use std::collections::BTreeMap;
use std::sync::Arc;

use tracer::json::{Json, JsonError, ToJson};

/// Tunable deception engine configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Deceive software resources (files, processes, DLLs, windows,
    /// registry) — Section II-B "Software resources".
    pub software: bool,
    /// Deceive hardware resources (disk/memory/core counts, uptime) —
    /// Section II-B "Hardware resources".
    pub hardware: bool,
    /// Sinkhole non-existent domains — Section II-B "Network resources".
    pub network: bool,
    /// Fake wear-and-tear artifacts — the Section IV-C.2 extension.
    pub weartear: bool,
    /// Protect the deceptive analysis-tool processes from
    /// `TerminateProcess` ("we … protect them from being terminated by
    /// untrusted software", Section II-B(b)).
    pub protect_processes: bool,
    /// Follow child processes with injection (Section III-B).
    pub follow_children: bool,
    /// Kill self-spawn loops instead of only alarming (Section VI-C
    /// "Active Mitigation"; the paper's deployment only records).
    pub active_mitigation: bool,
    /// Self-spawn count at which the loop alarm fires.
    pub spawn_alarm_threshold: usize,
    /// Exclusive-profile mode (Section VI-B future work): once one
    /// profile's resource is fingerprinted, all other profiles go silent to
    /// avoid cross-VM contradictions.
    pub exclusive_profiles: bool,
    /// Per-rule enable/disable overrides, keyed by
    /// [`DeceptionRule::name`](crate::rules::DeceptionRule::name). A rule
    /// absent from the map follows its category gate (the flat paper bools
    /// above); mapping a rule to `false` unregisters it entirely — its
    /// exclusive APIs drop out of the hook set. Finer-grained than the
    /// category switches: `{"network": false}` turns off the DNS sinkhole
    /// while the rest of the `network`-gated deceptions stay available to
    /// future rules. The one field a config file may omit (it defaults to
    /// empty).
    pub rule_overrides: BTreeMap<String, bool>,

    /// Faked total disk size in GiB.
    pub fake_disk_gb: u64,
    /// Faked free disk size in GiB.
    pub fake_disk_free_gb: u64,
    /// Faked physical memory in MiB (a nominal 1 GiB module reports 1023).
    pub fake_memory_mb: u64,
    /// Faked logical processor count.
    pub fake_cores: u64,
    /// Faked uptime in ms (fresh-boot sandbox look).
    pub fake_uptime_ms: u64,
    /// Faked sample path directory (sandboxes rename samples to hashes).
    pub fake_sample_dir: String,
    /// Faked user name (a classic sandbox account name).
    pub fake_user: String,
    /// Faked computer name.
    pub fake_computer: String,
    /// Sinkhole address returned for every NX domain.
    pub sinkhole_addr: [u8; 4],
    /// Faked exception-dispatch round-trip in cycles (Section II-B(g):
    /// "deceptive timing discrepancies in default exception processing").
    pub fake_exception_cycles: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            software: true,
            hardware: true,
            network: true,
            weartear: true,
            protect_processes: true,
            follow_children: true,
            active_mitigation: false,
            spawn_alarm_threshold: 20,
            exclusive_profiles: false,
            rule_overrides: BTreeMap::new(),
            fake_disk_gb: 50,
            fake_disk_free_gb: 21,
            fake_memory_mb: 1023,
            fake_cores: 1,
            fake_uptime_ms: 5 * 60 * 1000,
            fake_sample_dir: r"C:\sample".to_owned(),
            fake_user: "currentuser".to_owned(),
            fake_computer: "SANDBOX".to_owned(),
            sinkhole_addr: [10, 11, 12, 13],
            fake_exception_cycles: 24_000,
        }
    }
}

impl Config {
    /// Loads a configuration from a JSON file — "specific values are
    /// easily adjustable by users if needed" (Section II-B).
    ///
    /// # Errors
    ///
    /// Returns an error when the file cannot be read or parsed.
    pub fn from_json_file(path: impl AsRef<std::path::Path>) -> Result<Self, ConfigError> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| ConfigError::Io(path.as_ref().display().to_string(), e))?;
        text.parse().map_err(ConfigError::Parse)
    }

    /// Saves the configuration as pretty JSON.
    ///
    /// # Errors
    ///
    /// Returns an error when the file cannot be written.
    pub fn save_json_file(&self, path: impl AsRef<std::path::Path>) -> Result<(), ConfigError> {
        std::fs::write(path.as_ref(), self.to_json().pretty())
            .map_err(|e| ConfigError::Io(path.as_ref().display().to_string(), e))
    }

    /// A passthrough configuration: all hooks installed (so anti-hooking
    /// checks still see the `JMP` patches) but no values are faked. Used by
    /// the "sheer presence of in-line hooking" ablation (Section III-A).
    pub fn presence_only() -> Self {
        Config {
            software: false,
            hardware: false,
            network: false,
            weartear: false,
            protect_processes: false,
            ..Config::default()
        }
    }

    /// Whether the named deception rule is registered under this
    /// configuration. Rules default to enabled; [`Config::rule_overrides`]
    /// can switch individual rules off (or explicitly back on).
    pub fn rule_enabled(&self, name: &str) -> bool {
        self.rule_overrides.get(name).copied().unwrap_or(true)
    }
}

tracer::impl_to_json!(struct Config { software, hardware, network, weartear, protect_processes,
    follow_children, active_mitigation, spawn_alarm_threshold, exclusive_profiles, rule_overrides,
    fake_disk_gb, fake_disk_free_gb, fake_memory_mb, fake_cores, fake_uptime_ms, fake_sample_dir,
    fake_user, fake_computer, sinkhole_addr, fake_exception_cycles });

/// Parses a configuration document. Every field is required except
/// `rule_overrides`; unknown keys are ignored; a field of the wrong type or
/// out of range is an error naming it.
impl std::str::FromStr for Config {
    type Err = JsonError;

    fn from_str(text: &str) -> Result<Self, JsonError> {
        let v = Json::parse(text)?;
        let flag = |name| v.field(name, "a boolean", Json::as_bool);
        let uint = |name| v.field(name, "a non-negative integer", Json::as_u64);
        let text = |name| v.field(name, "a string", |j| j.as_str().map(str::to_owned));
        let rule_overrides = match v.get("rule_overrides") {
            None => BTreeMap::new(),
            Some(_) => v.field("rule_overrides", "an object of booleans", |j| {
                j.as_object()?.iter().map(|(k, b)| Some((k.clone(), b.as_bool()?))).collect()
            })?,
        };
        Ok(Config {
            software: flag("software")?,
            hardware: flag("hardware")?,
            network: flag("network")?,
            weartear: flag("weartear")?,
            protect_processes: flag("protect_processes")?,
            follow_children: flag("follow_children")?,
            active_mitigation: flag("active_mitigation")?,
            spawn_alarm_threshold: v
                .field("spawn_alarm_threshold", "a usize", |j| usize::try_from(j.as_u64()?).ok())?,
            exclusive_profiles: flag("exclusive_profiles")?,
            rule_overrides,
            fake_disk_gb: uint("fake_disk_gb")?,
            fake_disk_free_gb: uint("fake_disk_free_gb")?,
            fake_memory_mb: uint("fake_memory_mb")?,
            fake_cores: uint("fake_cores")?,
            fake_uptime_ms: uint("fake_uptime_ms")?,
            fake_sample_dir: text("fake_sample_dir")?,
            fake_user: text("fake_user")?,
            fake_computer: text("fake_computer")?,
            sinkhole_addr: v.field("sinkhole_addr", "four octets 0-255", |j| {
                let octets: Vec<u8> = j
                    .as_array()?
                    .iter()
                    .map(|o| u8::try_from(o.as_u64()?).ok())
                    .collect::<Option<_>>()?;
                octets.try_into().ok()
            })?,
            fake_exception_cycles: uint("fake_exception_cycles")?,
        })
    }
}

/// Errors loading or saving a [`Config`].
#[derive(Debug)]
pub enum ConfigError {
    /// Filesystem access failed (path, cause).
    Io(String, std::io::Error),
    /// The file is not JSON, or a field is missing, mistyped or out of
    /// range.
    Parse(JsonError),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Io(path, e) => write!(f, "config file {path}: {e}"),
            ConfigError::Parse(e) => write!(f, "config parse error: {e}"),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Io(_, e) => Some(e),
            ConfigError::Parse(e) => Some(e),
        }
    }
}

/// The faked wear-and-tear resource values of Table III.
///
/// The fabricated names are `Arc<str>`s built once with the engine, so the
/// `DnsGetCacheDataTable` and `EvtNext` fakes hand out refcounted names
/// rather than copying one string per answer element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WearTearFakes {
    /// `dnscacheEntries`: "Recent 4 entries".
    pub dns_cache_entries: Vec<Arc<str>>,
    /// `sysevt`: "Recent 8K system events".
    pub sys_events: usize,
    /// `syssrc`: sources present in those fabricated events.
    pub event_sources: Vec<Arc<str>>,
    /// `deviceClsCount`: "29 subkeys".
    pub device_classes: u64,
    /// `autoRunCount`: "3 value entries".
    pub autoruns: u64,
    /// `regSize`: "SystemRegistryQuotaInformation 53M (bytes)".
    pub registry_quota_bytes: u64,
    /// `uninstallCount` subkeys.
    pub uninstall: u64,
    /// `totalSharedDlls` values.
    pub shared_dlls: u64,
    /// `totalAppPaths` subkeys.
    pub app_paths: u64,
    /// `totalActiveSetup` subkeys.
    pub active_setup: u64,
    /// `usrassistCount` values.
    pub user_assist: u64,
    /// `shimCacheCount` values.
    pub shim_cache: u64,
    /// `MUICacheEntries` values.
    pub mui_cache: u64,
    /// `FireruleCount` values.
    pub firewall_rules: u64,
    /// `USBStorCount` subkeys.
    pub usb_stor: u64,
}

impl Default for WearTearFakes {
    fn default() -> Self {
        WearTearFakes {
            dns_cache_entries: vec![
                Arc::from("ctldl.windowsupdate.com"),
                Arc::from("www.msftncsi.com"),
                Arc::from("time.windows.com"),
                Arc::from("teredo.ipv6.microsoft.com"),
            ],
            sys_events: 8_000,
            event_sources: vec![
                Arc::from("Service Control Manager"),
                Arc::from("EventLog"),
                Arc::from("Kernel-General"),
                Arc::from("Kernel-Power"),
                Arc::from("Kernel-Boot"),
                Arc::from("Winlogon"),
                Arc::from("Dhcp"),
                Arc::from("Tcpip"),
                Arc::from("Ntfs"),
                Arc::from("UserPnp"),
                Arc::from("Time-Service"),
                Arc::from("WMI"),
            ],
            device_classes: 29,
            autoruns: 3,
            registry_quota_bytes: 53 * 1024 * 1024,
            uninstall: 5,
            shared_dlls: 28,
            app_paths: 12,
            active_setup: 9,
            user_assist: 6,
            shim_cache: 24,
            mui_cache: 9,
            firewall_rules: 31,
            usb_stor: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = Config::default();
        assert_eq!(c.fake_disk_gb, 50);
        assert_eq!(c.fake_memory_mb, 1023); // nominal 1 GB
        assert_eq!(c.fake_cores, 1);
        assert!(!c.active_mitigation, "the paper only records alarms");
        assert!(!c.exclusive_profiles, "exclusive profiles are future work");
    }

    #[test]
    fn presence_only_disables_all_deception() {
        let c = Config::presence_only();
        assert!(!c.software && !c.hardware && !c.network && !c.weartear);
    }

    #[test]
    fn config_round_trips_through_json_files() {
        let dir = std::env::temp_dir().join("scarecrow-config-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("config.json");
        let mut c = Config { fake_disk_gb: 120, exclusive_profiles: true, ..Config::default() };
        c.rule_overrides.insert("network".to_owned(), false);
        c.rule_overrides.insert("gui".to_owned(), true);
        c.save_json_file(&path).unwrap();
        let loaded = Config::from_json_file(&path).unwrap();
        assert_eq!(loaded, c);
        assert!(!loaded.rule_enabled("network"));
        assert!(loaded.rule_enabled("gui"));
        assert!(loaded.rule_enabled("registry"), "unlisted rules stay enabled");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn rule_overrides_are_optional_in_config_files() {
        // pre-registry config files lack the field: it must default empty
        let json = Config::default().to_json().pretty();
        let legacy: String =
            json.lines().filter(|l| !l.contains("rule_overrides")).collect::<Vec<_>>().join("\n");
        let parsed: Config = legacy.parse().unwrap();
        assert_eq!(parsed, Config::default());
    }

    #[test]
    fn unknown_config_keys_are_ignored() {
        let json = Config::default().to_json().pretty().replacen('{', "{\"comment\": [1],", 1);
        assert_eq!(json.parse::<Config>().unwrap(), Config::default());
    }

    #[test]
    fn rule_enabled_defaults_to_true() {
        let mut c = Config::default();
        assert!(c.rule_enabled("wear-and-tear"));
        c.rule_overrides.insert("wear-and-tear".to_owned(), false);
        assert!(!c.rule_enabled("wear-and-tear"));
        assert!(c.rule_enabled("registry"));
    }

    #[test]
    fn config_errors_are_descriptive() {
        let err = Config::from_json_file("/nonexistent/scarecrow.json").unwrap_err();
        assert!(err.to_string().contains("/nonexistent/scarecrow.json"));
        let dir = std::env::temp_dir().join("scarecrow-config-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        let default = Config::default().to_json().pretty();
        let cases = [
            ("not json".to_owned(), "invalid literal at byte 1"),
            (default.replace("\"software\": true", "\"software\": 1"), "field `software`"),
            (default.replace("10,", "256,"), "field `sinkhole_addr`"),
            (default.replace("\"fake_cores\": 1", "\"fake_cores\": -1"), "field `fake_cores`"),
            (default[..default.len() / 2].to_owned(), &format!("at byte {}", default.len() / 2)),
            (default.replace("\"fake_user\"", "\"user\""), "field `fake_user`: missing field"),
            ("[]".to_owned(), "field `software`: missing field"),
        ];
        for (text, needle) in &cases {
            std::fs::write(&path, text).unwrap();
            let err = Config::from_json_file(&path).unwrap_err().to_string();
            assert!(err.contains("parse") && err.contains(needle), "{err:?} lacks {needle:?}");
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn table3_values() {
        // Table III's faked values; the Table III experiment reads them
        // from the engine, so this is where the paper's numbers are pinned
        let w = WearTearFakes::default();
        assert_eq!(w.dns_cache_entries.len(), 4);
        assert_eq!(w.sys_events, 8_000);
        assert_eq!(w.event_sources.len(), 12);
        assert_eq!(w.device_classes, 29);
        assert_eq!(w.autoruns, 3);
        assert_eq!(w.registry_quota_bytes, 53 * 1024 * 1024);
        assert_eq!(w.uninstall, 5);
        assert_eq!(w.shared_dlls, 28);
        assert_eq!(w.app_paths, 12);
        assert_eq!(w.active_setup, 9);
        assert_eq!(w.user_assist, 6);
        assert_eq!(w.shim_cache, 24);
        assert_eq!(w.mui_cache, 9);
        assert_eq!(w.firewall_rules, 31);
        assert_eq!(w.usb_stor, 1);
    }
}
