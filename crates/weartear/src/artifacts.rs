//! The 44 wear-and-tear artifacts of Miramirkhani et al. (S&P 2017),
//! measured through the same APIs the paper's Table III hooks.
//!
//! Artifacts quantify how "aged" a machine is: an installed-for-years
//! end-user system accumulates DNS cache entries, system events, device
//! classes, autostart entries, and registry bulk that a freshly imaged
//! sandbox lacks. The top-5 artifacts (the ones "used by all of their
//! decision trees") are measured exactly; the remaining artifacts use the
//! closest observable our substrate exposes (browser-profile artifacts
//! measure zero everywhere and are retained for completeness — they are
//! non-discriminative here, which the model handles by never splitting on
//! them).

use std::collections::{BTreeMap, HashSet};

use winsim::env as wenv;
use winsim::ProcessCtx;

/// Artifact category, per the five groups of \[29\].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WearCategory {
    /// OS-level counters (event log, processes, uptime, sizes).
    System,
    /// Registry aging (Table III's largest category).
    Registry,
    /// Network history.
    Network,
    /// Filesystem population.
    Disk,
    /// Browser profile artifacts.
    Browser,
}

type Measure = fn(&mut ProcessCtx<'_>) -> f64;

/// One measurable artifact.
#[derive(Clone)]
pub struct Artifact {
    /// Artifact name (matching the paper's vocabulary where it applies).
    pub name: &'static str,
    /// Category.
    pub category: WearCategory,
    measure: Measure,
}

impl std::fmt::Debug for Artifact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Artifact")
            .field("name", &self.name)
            .field("category", &self.category)
            .finish()
    }
}

impl Artifact {
    /// Measures the artifact in the given process context.
    pub fn measure(&self, ctx: &mut ProcessCtx<'_>) -> f64 {
        (self.measure)(ctx)
    }
}

/// The artifact names the top-5 model uses, in feature order.
pub const TOP5: [&str; 5] =
    ["dnscacheEntries", "sysevt", "syssrc", "deviceClsCount", "autoRunCount"];

fn count_files(ctx: &mut ProcessCtx<'_>, pattern: &str) -> f64 {
    ctx.find_files(pattern).len() as f64
}

fn subkeys(ctx: &mut ProcessCtx<'_>, key: &str) -> f64 {
    ctx.reg_subkey_count(key).unwrap_or(0) as f64
}

fn values(ctx: &mut ProcessCtx<'_>, key: &str) -> f64 {
    ctx.reg_value_count(key).unwrap_or(0) as f64
}

/// All 44 artifacts.
pub fn all_artifacts() -> Vec<Artifact> {
    use WearCategory::*;
    let a = |name, category, measure: Measure| Artifact { name, category, measure };
    vec![
        // ---------- System (8) ----------
        a("sysevt", System, |ctx| ctx.system_events(1_000_000).len() as f64),
        a("syssrc", System, |ctx| {
            let events = ctx.system_events(1_000_000);
            events.iter().map(|s| &**s).collect::<HashSet<&str>>().len() as f64
        }),
        a("totalProcesses", System, |ctx| ctx.process_list().len() as f64),
        a("uptimeMinutes", System, |ctx| ctx.tick_count() as f64 / 60_000.0),
        a("loadedModules", System, |ctx| {
            match ctx.call(winsim::Api::EnumModules, winsim::Args::none()) {
                winsim::Value::List(l) => l.len() as f64,
                _ => 0.0,
            }
        }),
        a("cpuCount", System, |ctx| ctx.cpu_count() as f64),
        a("memoryMb", System, |ctx| ctx.memory_mb() as f64),
        a("diskSizeGb", System, |ctx| {
            ctx.disk_total_bytes('C').unwrap_or(0) as f64 / (1u64 << 30) as f64
        }),
        // ---------- Registry (13) ----------
        a("deviceClsCount", Registry, |ctx| subkeys(ctx, wenv::DEVICE_CLASSES_KEY)),
        a("autoRunCount", Registry, |ctx| values(ctx, wenv::RUN_KEY)),
        a("regSize", Registry, |ctx| ctx.registry_quota_bytes() as f64),
        a("uninstallCount", Registry, |ctx| subkeys(ctx, wenv::UNINSTALL_KEY)),
        a("totalSharedDlls", Registry, |ctx| values(ctx, wenv::SHARED_DLLS_KEY)),
        a("totalAppPaths", Registry, |ctx| subkeys(ctx, wenv::APP_PATHS_KEY)),
        a("totalActiveSetup", Registry, |ctx| subkeys(ctx, wenv::ACTIVE_SETUP_KEY)),
        a("totalMissingDlls", Registry, |ctx| {
            let registered = values(ctx, wenv::SHARED_DLLS_KEY);
            let present = count_files(ctx, r"C:\Windows\System32\shared*.dll");
            (registered - present).max(0.0)
        }),
        a("usrassistCount", Registry, |ctx| values(ctx, wenv::USER_ASSIST_KEY)),
        a("shimCacheCount", Registry, |ctx| values(ctx, wenv::SHIM_CACHE_KEY)),
        a("MUICacheEntries", Registry, |ctx| values(ctx, wenv::MUI_CACHE_KEY)),
        a("FireruleCount", Registry, |ctx| values(ctx, wenv::FIREWALL_RULES_KEY)),
        a("USBStorCount", Registry, |ctx| subkeys(ctx, wenv::USBSTOR_KEY)),
        // ---------- Network (5) ----------
        a("dnscacheEntries", Network, |ctx| ctx.dns_cache_table().len() as f64),
        a("dnscacheDistinctTlds", Network, |ctx| {
            ctx.dns_cache_table()
                .iter()
                .filter_map(|d| d.rsplit('.').next().map(str::to_owned))
                .collect::<std::collections::BTreeSet<_>>()
                .len() as f64
        }),
        a("dnscacheNonMicrosoft", Network, |ctx| {
            ctx.dns_cache_table()
                .iter()
                .filter(|d| !d.contains("microsoft") && !d.contains("windows"))
                .count() as f64
        }),
        a("httpReachability", Network, |ctx| {
            f64::from(u8::from(ctx.http_get("www.microsoft.com").is_some()))
        }),
        a("nxResolves", Network, |ctx| {
            f64::from(u8::from(ctx.dns_resolve("weartear-nx-probe.test").is_some()))
        }),
        // ---------- Disk (10) ----------
        a("userFiles", Disk, |ctx| count_files(ctx, r"C:\Users\*")),
        a("userDocuments", Disk, |ctx| count_files(ctx, r"C:\Users\*")), // documents live under Users
        a("programFiles", Disk, |ctx| count_files(ctx, r"C:\Program Files\*")),
        a("systemDrivers", Disk, |ctx| count_files(ctx, r"C:\Windows\System32\drivers\*")),
        a("tempFiles", Disk, |ctx| count_files(ctx, r"C:\Users\*.tmp")),
        a("publicFiles", Disk, |ctx| count_files(ctx, r"C:\Users\Public\*")),
        a("downloadFiles", Disk, |ctx| count_files(ctx, r"C:\Users\*Downloads*")),
        a("desktopFiles", Disk, |ctx| count_files(ctx, r"C:\Users\*Desktop*")),
        a("logFiles", Disk, |ctx| count_files(ctx, r"C:\*.log")),
        a("totalFiles", Disk, |ctx| count_files(ctx, r"C:\*")),
        // ---------- Browser (8) ----------
        a("cookieCount", Browser, |ctx| count_files(ctx, r"C:\Users\*Cookies*")),
        a("historyEntries", Browser, |ctx| count_files(ctx, r"C:\Users\*History*")),
        a("cacheFiles", Browser, |ctx| count_files(ctx, r"C:\Users\*Cache*")),
        a("bookmarks", Browser, |ctx| count_files(ctx, r"C:\Users\*Bookmarks*")),
        a("extensions", Browser, |ctx| count_files(ctx, r"C:\Users\*Extensions*")),
        a("savedLogins", Browser, |ctx| count_files(ctx, r"C:\Users\*Login Data*")),
        a("downloadHistory", Browser, |ctx| count_files(ctx, r"C:\Users\*Downloads.sqlite*")),
        a("profileCount", Browser, |ctx| count_files(ctx, r"C:\Users\*Profiles*")),
    ]
}

/// A full measurement pass over one machine.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WearMeasurement {
    values: BTreeMap<String, f64>,
}

impl WearMeasurement {
    /// Measures every artifact in the process context.
    pub fn collect(ctx: &mut ProcessCtx<'_>) -> Self {
        let mut values = BTreeMap::new();
        for artifact in all_artifacts() {
            values.insert(artifact.name.to_owned(), artifact.measure(ctx));
        }
        WearMeasurement { values }
    }

    /// One artifact's value (0.0 when unknown).
    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The top-5 feature vector, in [`TOP5`] order.
    pub fn top5_features(&self) -> Vec<f64> {
        TOP5.iter().map(|n| self.value(n)).collect()
    }

    /// All values.
    pub fn values(&self) -> &BTreeMap<String, f64> {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use winsim::env::{bare_metal_sandbox, end_user_machine};
    use winsim::{Machine, ProcessCtx};

    fn measure(mut m: Machine) -> WearMeasurement {
        let explorer = m.explorer_pid();
        let pid = m.spawn("weartear.exe", explorer, false);
        let mut ctx = ProcessCtx::new(&mut m, pid);
        WearMeasurement::collect(&mut ctx)
    }

    #[test]
    fn there_are_44_artifacts_with_unique_names() {
        let artifacts = all_artifacts();
        assert_eq!(artifacts.len(), 44);
        let names: std::collections::BTreeSet<_> = artifacts.iter().map(|a| a.name).collect();
        assert_eq!(names.len(), 44);
        for top in TOP5 {
            assert!(names.contains(top));
        }
    }

    #[test]
    fn category_partition() {
        let artifacts = all_artifacts();
        let count = |c| artifacts.iter().filter(|a| a.category == c).count();
        assert_eq!(count(WearCategory::System), 8);
        assert_eq!(count(WearCategory::Registry), 13);
        assert_eq!(count(WearCategory::Network), 5);
        assert_eq!(count(WearCategory::Disk), 10);
        assert_eq!(count(WearCategory::Browser), 8);
    }

    #[test]
    fn worn_machines_measure_older_than_pristine() {
        let sandbox = measure(bare_metal_sandbox());
        let user = measure(end_user_machine());
        for name in TOP5 {
            assert!(
                user.value(name) > sandbox.value(name),
                "{name}: user {} vs sandbox {}",
                user.value(name),
                sandbox.value(name)
            );
        }
        assert!(user.value("regSize") > sandbox.value("regSize"));
        assert!(user.value("uninstallCount") > sandbox.value("uninstallCount"));
        assert!(user.value("USBStorCount") > sandbox.value("USBStorCount"));
    }

    #[test]
    fn top5_feature_vector_is_ordered() {
        let user = measure(end_user_machine());
        let features = user.top5_features();
        assert_eq!(features.len(), 5);
        assert_eq!(features[0], user.value("dnscacheEntries"));
        assert_eq!(features[3], user.value("deviceClsCount"));
    }
}
