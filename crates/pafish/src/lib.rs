//! A reimplementation of **Pafish** (Paranoid Fish) against the `winsim`
//! substrate, for the Table II experiment.
//!
//! Pafish "employs several fingerprinting techniques to detect analysis
//! environments in the same way as malware does", organized in the eleven
//! categories the paper's Table II reports. This crate reproduces the
//! category structure and per-category feature counts of that table
//! (1 + 4 + 12 + 2 + 1 + 2 + 17 + 8 + 3 + 3 + 3 = 56 checks; the paper's
//! prose says "54 pieces of evidence" while its own table sums to 56 — we
//! follow the table).
//!
//! Each check is plain data: a name, a category and a
//! [`malware_sim::Technique`], the same evasive predicate the simulated
//! malware runs, so a Pafish check and a sample probing the same artifact
//! share one definition and one [`Technique::deceivable`] classification.
//! Checks run in a fixed order; the two RDTSC probes are evaluated first
//! within the CPU category, which matters on machines with timing noise.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::LazyLock;

use malware_sim::Technique;
use winsim::env::{SCSI_KEY, SYSTEM_BIOS_KEY};
use winsim::{Api, ProcessCtx};

/// The eleven Table II categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PafishCategory {
    /// Debugger presence (1 check).
    Debuggers,
    /// CPU information: RDTSC timing and CPUID leaves (4 checks).
    Cpu,
    /// Generic sandbox traits (12 checks).
    GenericSandbox,
    /// Inline-hook detection (2 checks).
    Hook,
    /// Sandboxie (1 check).
    Sandboxie,
    /// Wine (2 checks).
    Wine,
    /// VirtualBox (17 checks).
    VirtualBox,
    /// VMware (8 checks).
    VMware,
    /// QEMU (3 checks).
    Qemu,
    /// Bochs (3 checks).
    Bochs,
    /// Cuckoo (3 checks).
    Cuckoo,
}

impl PafishCategory {
    /// All categories in report order.
    pub fn all() -> [PafishCategory; 11] {
        use PafishCategory::*;
        [
            Debuggers,
            Cpu,
            GenericSandbox,
            Hook,
            Sandboxie,
            Wine,
            VirtualBox,
            VMware,
            Qemu,
            Bochs,
            Cuckoo,
        ]
    }

    /// Display label matching Table II's row names.
    pub fn label(self) -> &'static str {
        match self {
            PafishCategory::Debuggers => "Debuggers",
            PafishCategory::Cpu => "CPU information",
            PafishCategory::GenericSandbox => "Generic sandbox",
            PafishCategory::Hook => "Hook",
            PafishCategory::Sandboxie => "Sandboxie",
            PafishCategory::Wine => "Wine",
            PafishCategory::VirtualBox => "VirtualBox",
            PafishCategory::VMware => "VMware",
            PafishCategory::Qemu => "Qemu detection",
            PafishCategory::Bochs => "Bochs",
            PafishCategory::Cuckoo => "Cuckoo",
        }
    }
}

/// One Pafish evidence check: a named [`Technique`] in a Table II
/// category.
#[derive(Debug)]
pub struct Check {
    /// Check identifier (pafish-style snake_case).
    pub name: &'static str,
    /// Category the check belongs to.
    pub category: PafishCategory,
    /// The evasive predicate the check evaluates; `probe` returning
    /// `true` means the evidence was *triggered*.
    pub technique: Technique,
}

/// All 56 checks in canonical execution order, built on first use.
pub fn all_checks() -> &'static [Check] {
    static CHECKS: LazyLock<Vec<Check>> = LazyLock::new(build_checks);
    &CHECKS
}

fn build_checks() -> Vec<Check> {
    use PafishCategory::*;
    use Technique as T;
    let s = |v: &str| v.to_owned();
    let key = |k: &str| T::RegistryKey(s(k));
    let file = |f: &str| T::FileExists(s(f));
    let contains = |k: &str, name: &str, needle: &str| T::RegistryValueContains {
        key: s(k),
        name: s(name),
        needle: s(needle),
    };
    let hv_vendor = |vendors: &[&str]| T::CpuidVendor {
        leaf: 0x4000_0000,
        vendors: vendors.iter().map(|v| s(v)).collect(),
    };
    let macs = |prefixes: &[&str]| T::MacPrefix(prefixes.iter().map(|p| s(p)).collect());
    let checks = [
        // ---------- Debuggers (1) ----------
        ("debug_isdebuggerpresent", Debuggers, T::IsDebuggerPresent),
        // ---------- CPU information (4) — rdtsc probes first ----------
        ("cpu_rdtsc_diff", Cpu, T::RdtscAbove(750)),
        ("cpu_rdtsc_diff_vmexit", Cpu, T::RdtscVmexitAbove(750)),
        ("cpu_cpuid_hv_bit", Cpu, T::CpuidHypervisorBit),
        (
            "cpu_known_vm_vendors",
            Cpu,
            hv_vendor(&["VBoxVBoxVBox", "VMwareVMware", "KVMKVMKVM", "Microsoft Hv", "prl hyperv"]),
        ),
        // ---------- Generic sandbox (12) ----------
        ("gensb_mouse_activity", GenericSandbox, T::MouseIdle),
        ("gensb_one_cpu_peb", GenericSandbox, T::PebCpuCountBelow(2)),
        ("gensb_one_cpu_api", GenericSandbox, T::CpuCountBelow(2)),
        ("gensb_less_than_1gb_ram", GenericSandbox, T::MemoryBelowMb(1_024)),
        ("gensb_drive_smaller_60gb", GenericSandbox, T::DiskBelowGb(60)),
        ("gensb_uptime_under_12min", GenericSandbox, T::UptimeBelowMs(12 * 60 * 1_000)),
        ("gensb_parent_not_explorer", GenericSandbox, T::ParentNotExplorer),
        ("gensb_filename_is_hash", GenericSandbox, T::SampleNameIsHash),
        ("gensb_username_sandbox", GenericSandbox, T::UserNameSandboxy),
        ("gensb_path_sandbox", GenericSandbox, T::SamplePathSandboxy),
        (
            "gensb_nx_domain_resolves",
            GenericSandbox,
            T::NxDomainResolves(s("pafish-canary-nxdomain-check.test")),
        ),
        ("gensb_is_native_vhd_boot", GenericSandbox, T::NativeVhdBoot),
        // ---------- Hook (2) ----------
        (
            "hooks_inline_common_apis",
            Hook,
            T::HookDetection(vec![
                Api::IsDebuggerPresent,
                Api::CreateProcess,
                Api::RegOpenKeyEx,
                Api::DeleteFile,
            ]),
        ),
        ("hooks_shellexecuteexw", Hook, T::HookDetection(vec![Api::ShellExecuteEx])),
        // ---------- Sandboxie (1) ----------
        ("sandboxie_sbiedll", Sandboxie, T::ModuleLoaded(s("SbieDll.dll"))),
        // ---------- Wine (2) ----------
        (
            "wine_get_unix_file_name",
            Wine,
            T::ExportExists { module: s("kernel32.dll"), proc: s("wine_get_unix_file_name") },
        ),
        ("wine_reg_key", Wine, key(r"HKLM\SOFTWARE\Wine")),
        // ---------- VirtualBox (17) ----------
        (
            "vbox_guest_additions_reg",
            VirtualBox,
            key(r"HKLM\SOFTWARE\Oracle\VirtualBox Guest Additions"),
        ),
        ("vbox_acpi_dsdt", VirtualBox, key(r"HKLM\HARDWARE\ACPI\DSDT\VBOX__")),
        ("vbox_system_bios", VirtualBox, contains(SYSTEM_BIOS_KEY, "SystemBiosVersion", "VBOX")),
        (
            "vbox_video_bios",
            VirtualBox,
            contains(SYSTEM_BIOS_KEY, "VideoBiosVersion", "VIRTUALBOX"),
        ),
        ("vbox_file_vboxmouse", VirtualBox, file(r"C:\Windows\System32\drivers\VBoxMouse.sys")),
        ("vbox_file_vboxguest", VirtualBox, file(r"C:\Windows\System32\drivers\VBoxGuest.sys")),
        ("vbox_file_vboxsf", VirtualBox, file(r"C:\Windows\System32\drivers\VBoxSF.sys")),
        ("vbox_file_vboxvideo", VirtualBox, file(r"C:\Windows\System32\drivers\VBoxVideo.sys")),
        ("vbox_svc_vboxguest", VirtualBox, key(r"HKLM\SYSTEM\ControlSet001\Services\VBoxGuest")),
        ("vbox_svc_vboxmouse", VirtualBox, key(r"HKLM\SYSTEM\ControlSet001\Services\VBoxMouse")),
        (
            "vbox_svc_vboxservice",
            VirtualBox,
            key(r"HKLM\SYSTEM\ControlSet001\Services\VBoxService"),
        ),
        ("vbox_svc_vboxsf", VirtualBox, key(r"HKLM\SYSTEM\ControlSet001\Services\VBoxSF")),
        ("vbox_proc_vboxservice", VirtualBox, T::ProcessRunning(s("VBoxService.exe"))),
        ("vbox_proc_vboxtray", VirtualBox, T::ProcessRunning(s("VBoxTray.exe"))),
        ("vbox_mac_prefix", VirtualBox, macs(&["08:00:27"])),
        ("vbox_device_vboxguest", VirtualBox, T::DeviceOpens(s("VBoxGuest"))),
        ("vbox_traytool_window", VirtualBox, T::WindowPresent(s("VBoxTrayToolWndClass"))),
        // ---------- VMware (8) ----------
        ("vmware_tools_reg", VMware, key(r"HKLM\SOFTWARE\VMware, Inc.\VMware Tools")),
        ("vmware_file_vmmouse", VMware, file(r"C:\Windows\System32\drivers\vmmouse.sys")),
        ("vmware_file_vmhgfs", VMware, file(r"C:\Windows\System32\drivers\vmhgfs.sys")),
        ("vmware_device_vmci", VMware, T::DeviceOpens(s("vmci"))),
        ("vmware_device_hgfs", VMware, T::DeviceOpens(s("HGFS"))),
        ("vmware_mac_prefix", VMware, macs(&["00:05:69", "00:0c:29", "00:50:56"])),
        ("vmware_svc_vmhgfs", VMware, key(r"HKLM\SYSTEM\ControlSet001\Services\vmhgfs")),
        (
            "vmware_disk_enum",
            VMware,
            contains(r"HKLM\SYSTEM\CurrentControlSet\Services\Disk\Enum", "0", "vmware"),
        ),
        // ---------- Qemu (3) ----------
        ("qemu_scsi_identifier", Qemu, contains(SCSI_KEY, "Identifier", "QEMU")),
        ("qemu_system_bios", Qemu, contains(SYSTEM_BIOS_KEY, "SystemBiosVersion", "QEMU")),
        ("qemu_cpuid_kvm", Qemu, hv_vendor(&["KVMKVMKVM"])),
        // ---------- Bochs (3) ----------
        (
            "bochs_bios_date",
            Bochs,
            T::RegistryValueEquals {
                key: s(SYSTEM_BIOS_KEY),
                name: s("SystemBiosDate"),
                value: s("01/01/2007"),
            },
        ),
        ("bochs_system_bios", Bochs, contains(SYSTEM_BIOS_KEY, "SystemBiosVersion", "BOCHS")),
        ("bochs_cpuid_brand", Bochs, T::CpuidVendor { leaf: 0x0, vendors: vec![s("BOCHS")] }),
        // ---------- Cuckoo (3) ----------
        ("cuckoo_pipe", Cuckoo, T::DeviceOpens(s(r"pipe\cuckoo"))),
        ("cuckoo_svc_cuckoomon", Cuckoo, key(r"HKLM\SYSTEM\CurrentControlSet\Services\CuckooMon")),
        ("cuckoo_agent_file", Cuckoo, file(r"C:\cuckoo-agent.py")),
    ];
    checks
        .into_iter()
        .map(|(name, category, technique)| Check { name, category, technique })
        .collect()
}

/// Per-run report: triggered check names plus per-category tallies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PafishReport {
    /// Names of the triggered checks, in execution order.
    pub triggered: Vec<String>,
    per_category: Vec<(PafishCategory, usize, usize)>,
}

tracer::impl_to_json!(enum PafishCategory);

tracer::impl_to_json!(struct PafishReport { triggered, per_category });

impl PafishReport {
    /// Checks triggered in a category.
    pub fn count(&self, category: PafishCategory) -> usize {
        self.per_category
            .iter()
            .find(|(c, _, _)| *c == category)
            .map(|(_, hit, _)| *hit)
            .unwrap_or(0)
    }

    /// `(category, triggered, total)` rows in Table II order.
    pub fn rows(&self) -> &[(PafishCategory, usize, usize)] {
        &self.per_category
    }

    /// Total triggered checks.
    pub fn total_triggered(&self) -> usize {
        self.triggered.len()
    }
}

/// Runs the full Pafish suite in the given process context.
pub fn run_pafish(ctx: &mut ProcessCtx<'_>) -> PafishReport {
    let mut triggered = Vec::new();
    let mut per_category: Vec<(PafishCategory, usize, usize)> =
        PafishCategory::all().iter().map(|c| (*c, 0usize, 0usize)).collect();
    for check in all_checks() {
        let hit = check.technique.probe(ctx);
        let row = per_category
            .iter_mut()
            .find(|(c, _, _)| *c == check.category)
            .expect("category present");
        row.2 += 1;
        if hit {
            row.1 += 1;
            triggered.push(check.name.to_owned());
        }
    }
    PafishReport { triggered, per_category }
}

#[cfg(test)]
mod tests {
    use super::*;
    use winsim::env::{bare_metal_sandbox, end_user_machine, vm_sandbox};
    use winsim::{Machine, ProcessCtx};

    fn run_on(mut m: Machine) -> PafishReport {
        let explorer = m.explorer_pid();
        let pid = m.spawn("pafish.exe", explorer, false);
        let mut ctx = ProcessCtx::new(&mut m, pid);
        run_pafish(&mut ctx)
    }

    #[test]
    fn category_totals_match_table2_header() {
        let checks = all_checks();
        assert_eq!(checks.len(), 56);
        let count = |cat| checks.iter().filter(|c| c.category == cat).count();
        assert_eq!(count(PafishCategory::Debuggers), 1);
        assert_eq!(count(PafishCategory::Cpu), 4);
        assert_eq!(count(PafishCategory::GenericSandbox), 12);
        assert_eq!(count(PafishCategory::Hook), 2);
        assert_eq!(count(PafishCategory::Sandboxie), 1);
        assert_eq!(count(PafishCategory::Wine), 2);
        assert_eq!(count(PafishCategory::VirtualBox), 17);
        assert_eq!(count(PafishCategory::VMware), 8);
        assert_eq!(count(PafishCategory::Qemu), 3);
        assert_eq!(count(PafishCategory::Bochs), 3);
        assert_eq!(count(PafishCategory::Cuckoo), 3);
    }

    #[test]
    fn check_names_are_unique() {
        let checks = all_checks();
        let names: std::collections::BTreeSet<_> = checks.iter().map(|c| c.name).collect();
        assert_eq!(names.len(), checks.len());
    }

    #[test]
    fn bare_metal_sandbox_triggers_only_mouse() {
        let report = run_on(bare_metal_sandbox());
        assert_eq!(report.triggered, vec!["gensb_mouse_activity".to_owned()]);
    }

    #[test]
    fn vm_sandbox_matches_table2_without_scarecrow() {
        let report = run_on(vm_sandbox());
        assert_eq!(report.count(PafishCategory::Cpu), 3, "{:?}", report.triggered);
        assert_eq!(report.count(PafishCategory::GenericSandbox), 3, "{:?}", report.triggered);
        assert_eq!(report.count(PafishCategory::Hook), 1);
        assert_eq!(report.count(PafishCategory::VirtualBox), 16, "{:?}", report.triggered);
        assert_eq!(report.count(PafishCategory::VMware), 0);
        assert_eq!(report.count(PafishCategory::Cuckoo), 0);
        assert_eq!(report.count(PafishCategory::Debuggers), 0);
    }

    #[test]
    fn end_user_machine_matches_table2_without_scarecrow() {
        let report = run_on(end_user_machine());
        assert_eq!(report.count(PafishCategory::Cpu), 1, "{:?}", report.triggered);
        assert!(report.triggered.contains(&"cpu_rdtsc_diff_vmexit".to_owned()));
        assert_eq!(report.count(PafishCategory::GenericSandbox), 1);
        assert_eq!(report.count(PafishCategory::VMware), 1);
        assert!(report.triggered.contains(&"vmware_device_vmci".to_owned()));
        assert_eq!(report.count(PafishCategory::VirtualBox), 0);
    }
}
