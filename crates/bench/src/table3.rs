//! Table III: the wear-and-tear artifacts Scarecrow fakes, their faked
//! values, and the resulting classifier flip on a real end-user machine.

use scarecrow::{Config, Scarecrow, WearTearFakes};
use weartear::{sandbox_classifier, WearMeasurement};
use winsim::env::end_user_machine;
use winsim::ProcessCtx;

/// One artifact row of Table III.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Artifact name.
    pub artifact: String,
    /// The paper's faked-resource description.
    pub faked_resource: String,
    /// Associated hooked APIs (Table III's last column).
    pub associated_apis: String,
    /// Value measured without Scarecrow (genuinely worn machine).
    pub measured_without: f64,
    /// Value measured with Scarecrow.
    pub measured_with: f64,
    /// The value the engine is configured to fake (None for emergent ones).
    pub expected_fake: Option<f64>,
}

/// The full experiment result.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// Per-artifact rows.
    pub rows: Vec<Table3Row>,
    /// Decision-tree verdict on the unprotected end-user machine
    /// (`true` = classified as sandbox).
    pub classified_sandbox_without: bool,
    /// Verdict with Scarecrow's wear fakes active.
    pub classified_sandbox_with: bool,
}

tracer::impl_to_json!(struct Table3Row { artifact, faked_resource, associated_apis,
    measured_without, measured_with, expected_fake });

tracer::impl_to_json!(struct Table3 { rows, classified_sandbox_without, classified_sandbox_with });

fn measure(with_scarecrow: bool) -> WearMeasurement {
    let engine = Scarecrow::with_builtin_db(Config::default());
    let mut m = end_user_machine();
    let pid = harness::spawn_probe(&mut m, "weartear.exe", with_scarecrow.then_some(&engine));
    let mut ctx = ProcessCtx::new(&mut m, pid);
    WearMeasurement::collect(&mut ctx)
}

/// Runs the Table III experiment on the end-user machine.
pub fn run() -> Table3 {
    let without = measure(false);
    let with = measure(true);
    // the values the engine fakes, read from the engine itself
    let w = WearTearFakes::default();
    let spec: &[(&str, &str, &str, Option<f64>)] = &[
        (
            "dnscacheEntries",
            "Recent 4 entries",
            "DnsGetCacheDataTable()",
            Some(w.dns_cache_entries.len() as f64),
        ),
        ("sysevt", "Recent 8K system events", "EvtNext()", Some(w.sys_events as f64)),
        (
            "syssrc",
            "Number of sources in recent 8k events",
            "EvtNext()",
            Some(w.event_sources.len() as f64),
        ),
        (
            "deviceClsCount",
            r"System\CurrentControlSet\Control\DeviceClasses (29 subkeys)",
            "NtOpenKeyEx(), NtQueryKey()",
            Some(w.device_classes as f64),
        ),
        (
            "autoRunCount",
            r"Software\...\CurrentVersion\Run (3 value entries)",
            "NtOpenKeyEx(), NtQueryKey()",
            Some(w.autoruns as f64),
        ),
        (
            "regSize",
            "SystemRegistryQuotaInformation 53M (bytes)",
            "NtQuerySystemInformation()",
            Some(w.registry_quota_bytes as f64),
        ),
        (
            "uninstallCount",
            r"Software\...\CurrentVersion\Uninstall",
            "NtOpenKeyEx(), NtQueryKey()",
            Some(w.uninstall as f64),
        ),
        (
            "totalSharedDlls",
            r"Software\...\CurrentVersion\SharedDlls",
            "NtOpenKeyEx(), NtQueryKey()",
            Some(w.shared_dlls as f64),
        ),
        (
            "totalAppPaths",
            r"Software\...\CurrentVersion\App Paths",
            "NtOpenKeyEx(), NtQueryKey()",
            Some(w.app_paths as f64),
        ),
        (
            "totalActiveSetup",
            r"Software\Microsoft\Active Setup\Installed Components",
            "NtOpenKeyEx(), NtQueryKey()",
            Some(w.active_setup as f64),
        ),
        (
            "totalMissingDlls",
            r"Software\...\CurrentVersion\SharedDlls",
            "NtOpenKeyEx(), NtQueryKey(), NtCreateFile()",
            None,
        ),
        (
            "usrassistCount",
            r"Software\...\Explorer\UserAssist",
            "NtOpenKeyEx(), NtQueryKey()",
            Some(w.user_assist as f64),
        ),
        (
            "shimCacheCount",
            r"SYSTEM\...\Session Manager\AppCompatCache",
            "NtOpenKeyEx(), NtQueryValueKey()",
            Some(w.shim_cache as f64),
        ),
        (
            "MUICacheEntries",
            r"Software\Classes\Local Settings\...\MuiCache",
            "NtOpenKeyEx(), NtQueryKey()",
            Some(w.mui_cache as f64),
        ),
        (
            "FireruleCount",
            r"SYSTEM\ControlSet001\...\FirewallRules",
            "NtOpenKeyEx(), NtQueryKey()",
            Some(w.firewall_rules as f64),
        ),
        (
            "USBStorCount",
            r"SYSTEM\CurrentControlSet\Services\UsbStor",
            "NtOpenKeyEx(), NtQueryKey()",
            Some(w.usb_stor as f64),
        ),
    ];
    let rows = spec
        .iter()
        .map(|(name, fake, apis, expected)| Table3Row {
            artifact: (*name).to_owned(),
            faked_resource: (*fake).to_owned(),
            associated_apis: (*apis).to_owned(),
            measured_without: without.value(name),
            measured_with: with.value(name),
            expected_fake: *expected,
        })
        .collect();
    let tree = sandbox_classifier(11);
    Table3 {
        rows,
        classified_sandbox_without: tree.classify(&without.top5_features()),
        classified_sandbox_with: tree.classify(&with.top5_features()),
    }
}

/// Renders the measured table.
pub fn render(t: &Table3) -> String {
    let rows: Vec<Vec<String>> = t
        .rows
        .iter()
        .map(|r| {
            vec![
                r.artifact.clone(),
                r.faked_resource.clone(),
                format!("{}", r.measured_without),
                format!("{}", r.measured_with),
                r.associated_apis.clone(),
            ]
        })
        .collect();
    let mut out = crate::fmt::render_table(
        "Table III — Wear-and-tear artifacts faked by Scarecrow (end-user machine)",
        &["Artifact", "Faked resource", "w/o SC", "w/ SC", "Associated APIs"],
        &rows,
    );
    out.push_str(&format!(
        "\nDecision-tree classification of the end-user machine:\n  \
         without Scarecrow: {}\n  with Scarecrow:    {}\n",
        if t.classified_sandbox_without { "SANDBOX" } else { "end-user machine" },
        if t.classified_sandbox_with { "SANDBOX" } else { "end-user machine" },
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faked_values_match_table3() {
        let t = run();
        for row in &t.rows {
            if let Some(expected) = row.expected_fake {
                assert_eq!(
                    row.measured_with, expected,
                    "{}: faked value should be {expected}",
                    row.artifact
                );
            }
            assert_ne!(
                row.measured_without, row.measured_with,
                "{}: the fake must differ from the worn machine's truth",
                row.artifact
            );
        }
    }

    #[test]
    fn classification_flips_under_deception() {
        let t = run();
        assert!(!t.classified_sandbox_without, "a worn machine is recognized as such");
        assert!(t.classified_sandbox_with, "Scarecrow steers the decision to SANDBOX");
    }
}
