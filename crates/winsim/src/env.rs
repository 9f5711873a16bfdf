//! Machine presets for the paper's three evaluation environments
//! (Section IV, Figure 3 and Table II):
//!
//! * [`bare_metal_sandbox`] — a pristine physical analysis machine reset by
//!   Deep Freeze between samples;
//! * [`vm_sandbox`] — Cuckoo 2.0.3 on a VirtualBox Windows 7 guest;
//! * [`end_user_machine`] — a real, actively used machine with VMware
//!   Workstation installed "due to work requirements".
//!
//! The presets differ only in *artifacts* — wear-and-tear registry content,
//! VM driver files, hypervisor CPUID behaviour, analysis daemons — so the
//! same sample program observes exactly the differences evasive logic keys
//! on.

use std::sync::Arc;

use crate::api::{Api, ApiCall, ApiHook};
use crate::hardware::{HvVendor, RdtscModel};
use crate::machine::Machine;
use crate::registry::RegValue;
use crate::system::{EnvKind, OsVersion, System};
use crate::values::Value;

/// Registry path of the autostart (Run) key, a wear artifact
/// (`autoRunCount` in Table III).
pub const RUN_KEY: &str = r"HKLM\Software\Microsoft\Windows\CurrentVersion\Run";
/// Device-classes key (`deviceClsCount`).
pub const DEVICE_CLASSES_KEY: &str = r"HKLM\System\CurrentControlSet\Control\DeviceClasses";
/// Uninstall key (`uninstallCount`).
pub const UNINSTALL_KEY: &str = r"HKLM\Software\Microsoft\Windows\CurrentVersion\Uninstall";
/// SharedDlls key (`totalSharedDlls`).
pub const SHARED_DLLS_KEY: &str = r"HKLM\Software\Microsoft\Windows\CurrentVersion\SharedDlls";
/// App Paths key (`totalAppPaths`).
pub const APP_PATHS_KEY: &str = r"HKLM\Software\Microsoft\Windows\CurrentVersion\App Paths";
/// Active Setup key (`totalActiveSetup`).
pub const ACTIVE_SETUP_KEY: &str = r"HKLM\Software\Microsoft\Active Setup\Installed Components";
/// UserAssist key (`usrassistCount`).
pub const USER_ASSIST_KEY: &str =
    r"HKCU\Software\Microsoft\Windows\CurrentVersion\Explorer\UserAssist";
/// AppCompatCache (shim cache) key (`shimCacheCount`).
pub const SHIM_CACHE_KEY: &str =
    r"HKLM\SYSTEM\CurrentControlSet\Control\Session Manager\AppCompatCache";
/// MUI cache key (`MUICacheEntries`).
pub const MUI_CACHE_KEY: &str =
    r"HKCU\Software\Classes\Local Settings\Software\Microsoft\Windows\Shell\MuiCache";
/// Firewall rules key (`FireruleCount`).
pub const FIREWALL_RULES_KEY: &str =
    r"HKLM\SYSTEM\ControlSet001\services\SharedAccess\Parameters\FirewallPolicy\FirewallRules";
/// USB storage history key (`USBStorCount`).
pub const USBSTOR_KEY: &str = r"HKLM\SYSTEM\CurrentControlSet\Services\UsbStor";
/// SMBIOS system description key (`SystemBiosVersion`, `VideoBiosVersion`).
pub const SYSTEM_BIOS_KEY: &str = r"HKLM\HARDWARE\Description\System";
/// SCSI identifier key probed for QEMU strings.
pub const SCSI_KEY: &str =
    r"HKLM\HARDWARE\DEVICEMAP\Scsi\Scsi Port 0\Scsi Bus 0\Target Id 0\Logical Unit Id 0";

/// Wear-and-tear artifact counts used when populating a preset registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WearProfile {
    /// Direct subkeys of `DeviceClasses`.
    pub device_classes: usize,
    /// Values under the `Run` key.
    pub autoruns: usize,
    /// Subkeys of `Uninstall`.
    pub uninstall: usize,
    /// Values under `SharedDlls`.
    pub shared_dlls: usize,
    /// Subkeys of `App Paths`.
    pub app_paths: usize,
    /// Subkeys of `Active Setup`.
    pub active_setup: usize,
    /// Values under `UserAssist`.
    pub user_assist: usize,
    /// Values under the shim cache key.
    pub shim_cache: usize,
    /// Values under `MuiCache`.
    pub mui_cache: usize,
    /// Values under `FirewallRules`.
    pub firewall_rules: usize,
    /// Subkeys of `UsbStor`.
    pub usb_stor: usize,
    /// DNS cache entries.
    pub dns_cache: usize,
    /// System event log length.
    pub sys_events: usize,
    /// Distinct event sources.
    pub event_sources: usize,
    /// Extra registry padding keys, to scale the hive quota.
    pub padding_keys: usize,
}

impl WearProfile {
    /// A pristine, freshly imaged machine (analysis sandboxes).
    pub fn pristine() -> Self {
        WearProfile {
            device_classes: 12,
            autoruns: 1,
            uninstall: 4,
            shared_dlls: 25,
            app_paths: 10,
            active_setup: 8,
            user_assist: 5,
            shim_cache: 20,
            mui_cache: 8,
            firewall_rules: 30,
            usb_stor: 0,
            dns_cache: 0,
            sys_events: 500,
            event_sources: 5,
            padding_keys: 2_000,
        }
    }

    /// A machine under real daily use for years.
    pub fn worn() -> Self {
        WearProfile {
            device_classes: 180,
            autoruns: 12,
            uninstall: 85,
            shared_dlls: 320,
            app_paths: 65,
            active_setup: 45,
            user_assist: 130,
            shim_cache: 420,
            mui_cache: 160,
            firewall_rules: 210,
            usb_stor: 6,
            dns_cache: 45,
            sys_events: 25_000,
            event_sources: 30,
            padding_keys: 60_000,
        }
    }

    /// Applies the profile to a system's registry, event log and DNS cache.
    pub fn apply(&self, sys: &mut System) {
        let r = &mut sys.registry;
        for i in 0..self.device_classes {
            r.create_key(&format!(r"{DEVICE_CLASSES_KEY}\{{class-{i:04}}}"));
        }
        for i in 0..self.autoruns {
            r.set_value(
                RUN_KEY,
                &format!("AutoRun{i}"),
                RegValue::Sz(format!(r"C:\Program Files\App{i}\app{i}.exe")),
            );
        }
        for i in 0..self.uninstall {
            r.create_key(&format!(r"{UNINSTALL_KEY}\Product{i:03}"));
        }
        for i in 0..self.shared_dlls {
            r.set_value(
                SHARED_DLLS_KEY,
                &format!(r"C:\Windows\System32\shared{i:03}.dll"),
                RegValue::Dword(1 + (i as u32 % 5)),
            );
        }
        for i in 0..self.app_paths {
            r.create_key(&format!(r"{APP_PATHS_KEY}\app{i:03}.exe"));
        }
        for i in 0..self.active_setup {
            r.create_key(&format!(r"{ACTIVE_SETUP_KEY}\{{comp-{i:04}}}"));
        }
        for i in 0..self.user_assist {
            r.set_value(USER_ASSIST_KEY, &format!("entry{i:04}"), RegValue::Dword(i as u32));
        }
        for i in 0..self.shim_cache {
            r.set_value(SHIM_CACHE_KEY, &format!("shim{i:04}"), RegValue::Binary(vec![0u8; 16]));
        }
        for i in 0..self.mui_cache {
            r.set_value(
                MUI_CACHE_KEY,
                &format!(r"C:\apps\tool{i:03}.exe"),
                RegValue::Sz(format!("Tool {i}")),
            );
        }
        for i in 0..self.firewall_rules {
            r.set_value(
                FIREWALL_RULES_KEY,
                &format!("rule{i:04}"),
                RegValue::Sz("v2.10|Action=Allow".to_owned()),
            );
        }
        for i in 0..self.usb_stor {
            r.create_key(&format!(r"{USBSTOR_KEY}\Disk&Ven_Kingston&Prod_{i:02}"));
        }
        for i in 0..self.padding_keys {
            r.create_key(&format!(r"HKLM\Software\Classes\pad\k{i:06}"));
        }
        let sources = [
            "Service Control Manager",
            "Application Error",
            "Kernel-General",
            "EventLog",
            "Windows Update Agent",
            "Disk",
            "DNS Client Events",
            "Time-Service",
            "WMI",
            "Winlogon",
            "Print",
            "DistributedCOM",
            "GroupPolicy",
            "Dhcp",
            "Tcpip",
            "Ntfs",
            "volsnap",
            "UserPnp",
            "Power-Troubleshooter",
            "RestartManager",
            "MsiInstaller",
            "Outlook",
            "Chrome",
            "Firefox",
            "Defender",
            "Backup",
            "BitLocker",
            "Bits-Client",
            "Kernel-Power",
            "Kernel-Boot",
        ];
        let n = self.event_sources.min(sources.len());
        sys.eventlog.seed(self.sys_events, &sources[..n]);
        let domains: Vec<(String, [u8; 4])> = (0..self.dns_cache)
            .map(|i| (format!("site{i:03}.example.com"), [93, 184, (i % 250) as u8, 34]))
            .collect();
        sys.network.seed_dns_cache(domains);
    }
}

/// Seeds state every Windows machine shares: baseline registry keys, system
/// files, user documents (ransomware targets), common processes, and a few
/// reachable Internet hosts.
fn seed_common(m: &mut Machine) {
    {
        let sys = m.system_mut();
        let user = sys.config.user_name.clone();
        sys.registry.create_key(r"HKLM\Software\Microsoft\Windows\CurrentVersion");
        sys.registry.create_key(RUN_KEY);
        sys.registry.set_value(
            SYSTEM_BIOS_KEY,
            "SystemBiosDate",
            RegValue::Sz("03/14/14".to_owned()),
        );
        for f in ["kernel32.dll", "ntdll.dll", "user32.dll", "shell32.dll"] {
            sys.fs.create(&format!(r"C:\Windows\System32\{f}"), 1 << 20, "system");
        }
        for (i, name) in [
            "budget.xlsx",
            "notes.txt",
            "thesis.docx",
            "photo1.jpg",
            "photo2.jpg",
            "resume.pdf",
            "taxes-2016.pdf",
            "plan.pptx",
            "diary.txt",
            "contract.docx",
            "invoice-01.pdf",
            "invoice-02.pdf",
            "passwords.kdbx",
            "book.epub",
            "scan.png",
        ]
        .iter()
        .enumerate()
        {
            sys.fs.create(
                &format!(r"C:\Users\{user}\Documents\{name}"),
                (i as u64 + 1) * 10_000,
                "user-document",
            );
        }
        for host in [
            "www.microsoft.com",
            "update.microsoft.com",
            "www.google.com",
            "cdn.adobe.com",
            "download.cnet.com",
        ] {
            sys.network.add_host(host, [93, 184, 216, 34]);
            sys.network.add_http_host(host, 200);
        }
    }
    for p in [
        "smss.exe",
        "csrss.exe",
        "wininit.exe",
        "winlogon.exe",
        "services.exe",
        "lsass.exe",
        "svchost.exe",
        "svchost.exe",
        "svchost.exe",
        "spoolsv.exe",
        "taskhost.exe",
        "dwm.exe",
    ] {
        m.add_system_process(p);
    }
}

/// The bare-metal analysis sandbox of Section IV-B: a pristine physical
/// Windows 7 machine, no hypervisor, no VM drivers, unattended.
pub fn bare_metal_sandbox() -> Machine {
    let mut sys = System::new();
    sys.config.kind = EnvKind::BareMetalSandbox;
    sys.config.os = OsVersion::Win7;
    sys.config.computer_name = "WIN7-ANALYSIS".to_owned();
    sys.config.user_name = "john".to_owned();
    sys.config.download_dir = r"C:\Users\john\Downloads".to_owned();
    sys.fs.set_drive('C', crate::fs::DriveInfo::gb(256, 180));
    sys.hardware.num_cores = 4;
    sys.hardware.memory_mb = 8_192;
    sys.hardware.rdtsc = RdtscModel::default();
    sys.clock.boot_offset_ms = 30 * 60 * 1000;
    WearProfile::pristine().apply(&mut sys);
    let mut m = Machine::new(sys);
    seed_common(&mut m);
    m
}

/// Marker hook modeling the Cuckoo monitor's own `ShellExecuteExW` inline
/// hook (Table II: the Hook evidence that fires on the VM sandbox even
/// without Scarecrow).
struct CuckooMonitorHook;
impl ApiHook for CuckooMonitorHook {
    fn label(&self) -> &'static str {
        "cuckoo-monitor"
    }
    fn invoke(&self, call: &mut ApiCall<'_>) -> Value {
        call.call_original()
    }
}

/// The VM sandbox of Table II: Cuckoo 2.0.3 on a VirtualBox Windows 7
/// guest. 2 vCPUs, 2 GB RAM, a 40 GB virtual disk, full VirtualBox guest
/// additions, the Cuckoo agent, and the Cuckoo monitor auto-injected into
/// analyzed processes.
pub fn vm_sandbox() -> Machine {
    let mut sys = System::new();
    sys.config.kind = EnvKind::VmSandbox;
    sys.config.os = OsVersion::Win7;
    sys.config.computer_name = "WIN7-CUCKOO".to_owned();
    sys.config.user_name = "john".to_owned();
    sys.config.download_dir = r"C:\cuckoo\analyzer\samples".to_owned();
    sys.fs.set_drive('C', crate::fs::DriveInfo::gb(40, 22));
    sys.hardware.num_cores = 2;
    sys.hardware.memory_mb = 2_048;
    sys.hardware.hypervisor = Some(HvVendor::VirtualBox);
    sys.hardware.rdtsc =
        RdtscModel { base_cycles: 30, vmexit_cycles: 4_000, noise_cycles: 0, noise_period: 0 };
    sys.hardware.mac_address = [0x08, 0x00, 0x27, 0x3c, 0x9a, 0x51];
    sys.hardware.disk_model = "VBOX HARDDISK".to_owned();
    sys.hardware.devices.extend(["VBoxGuest".to_owned(), "VBoxMiniRdrDN".to_owned()]);
    sys.clock.boot_offset_ms = 25 * 60 * 1000;
    WearProfile::pristine().apply(&mut sys);

    // VirtualBox guest artifacts (registry + driver files).
    let r = &mut sys.registry;
    r.create_key(r"HKLM\SOFTWARE\Oracle\VirtualBox Guest Additions");
    r.create_key(r"HKLM\HARDWARE\ACPI\DSDT\VBOX__");
    r.set_value(SYSTEM_BIOS_KEY, "SystemBiosVersion", RegValue::Sz("VBOX   - 1".to_owned()));
    r.set_value(
        SYSTEM_BIOS_KEY,
        "VideoBiosVersion",
        RegValue::Sz("Oracle VM VirtualBox Version 5.2 - VIRTUALBOX".to_owned()),
    );
    for svc in ["VBoxGuest", "VBoxMouse", "VBoxService", "VBoxSF"] {
        r.create_key(&format!(r"HKLM\SYSTEM\ControlSet001\Services\{svc}"));
    }
    for drv in ["VBoxMouse.sys", "VBoxGuest.sys", "VBoxSF.sys", "VBoxVideo.sys"] {
        sys.fs.create(&format!(r"C:\Windows\System32\drivers\{drv}"), 131_072, "vm-driver");
    }
    sys.fs.create(r"C:\cuckoo\analyzer\analyzer.py", 40_960, "cuckoo");
    sys.fs.create(r"C:\cuckoo\agent\agent.py", 20_480, "cuckoo");

    let mut m = Machine::new(sys);
    seed_common(&mut m);
    // Guest-additions daemons run headless under Cuckoo: the processes
    // exist but VBoxTray never creates its tray window.
    m.add_system_process("VBoxService.exe");
    m.add_system_process("VBoxTray.exe");
    m.add_system_process("python.exe"); // the Cuckoo agent
    m.add_autoinject_hook(Api::ShellExecuteEx, Arc::new(CuckooMonitorHook));
    m
}

/// Applies the transparency hardening the paper performed on the Cuckoo
/// sandbox for the with-Scarecrow runs: "we also modified CPUID instruction
/// results and updated the MAC address of the Cuckoo sandbox to make it
/// more transparent to evasive malware". We additionally scrub the raw
/// firmware artifacts (ACPI table name, disk model) that the same
/// hardening pass covers in practice.
pub fn make_vm_sandbox_transparent(m: &mut Machine) {
    let sys = m.system_mut();
    sys.hardware.cpuid_masked = true;
    sys.hardware.mac_address = [0x54, 0xee, 0x75, 0x10, 0x20, 0x30];
    sys.hardware.disk_model = "WDC WD10EZEX-08WN4A0".to_owned();
    sys.registry.delete_key(r"HKLM\HARDWARE\ACPI\DSDT\VBOX__");
}

/// The real end-user machine of Table II: actively used for years, VMware
/// Workstation installed "due to work requirements" (so its `vmci` device
/// exists), occasional RDTSC noise from SMIs/power management.
pub fn end_user_machine() -> Machine {
    let mut sys = System::new();
    sys.config.kind = EnvKind::EndUser;
    sys.config.os = OsVersion::Win7;
    sys.config.computer_name = "ALICE-PC".to_owned();
    sys.config.user_name = "alice".to_owned();
    sys.config.download_dir = r"C:\Users\alice\Downloads".to_owned();
    sys.fs.set_drive('C', crate::fs::DriveInfo::gb(500, 210));
    sys.hardware.num_cores = 8;
    sys.hardware.memory_mb = 16_384;
    sys.hardware.rdtsc =
        RdtscModel { base_cycles: 30, vmexit_cycles: 0, noise_cycles: 5_000, noise_period: 2 };
    sys.clock.boot_offset_ms = 3 * 24 * 60 * 60 * 1000; // up for three days
    WearProfile::worn().apply(&mut sys);

    // VMware Workstation (host product) artifacts — not guest tools.
    sys.hardware.devices.push("vmci".to_owned());
    sys.registry.create_key(r"HKLM\SOFTWARE\VMware, Inc.\VMware Workstation");
    sys.fs.create(r"C:\Program Files (x86)\VMware\VMware Workstation\vmware.exe", 2 << 20, "app");
    sys.registry.set_value(
        SYSTEM_BIOS_KEY,
        "SystemBiosVersion",
        RegValue::Sz("LENOVO - 1150".to_owned()),
    );

    let mut m = Machine::new(sys);
    seed_common(&mut m);
    m.add_system_process("chrome.exe");
    m.add_system_process("outlook.exe");
    m.add_system_process("vmware-tray.exe");
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_identities() {
        assert_eq!(bare_metal_sandbox().system().config.kind, EnvKind::BareMetalSandbox);
        assert_eq!(vm_sandbox().system().config.kind, EnvKind::VmSandbox);
        assert_eq!(end_user_machine().system().config.kind, EnvKind::EndUser);
    }

    #[test]
    fn vm_sandbox_has_virtualbox_artifacts() {
        let m = vm_sandbox();
        let sys = m.system();
        assert!(sys.registry.key_exists(r"HKLM\SOFTWARE\Oracle\VirtualBox Guest Additions"));
        assert!(sys.fs.exists(r"C:\Windows\System32\drivers\VBoxMouse.sys"));
        assert!(sys.hardware.mac_is_vm_vendor());
        assert!(m.find_process("VBoxService.exe").is_some());
        assert!(!sys.windows.find("VBoxTrayToolWndClass", ""));
    }

    #[test]
    fn bare_metal_is_clean_of_vm_artifacts() {
        let m = bare_metal_sandbox();
        let sys = m.system();
        assert!(!sys.registry.key_exists(r"HKLM\SOFTWARE\Oracle\VirtualBox Guest Additions"));
        assert!(!sys.fs.exists(r"C:\Windows\System32\drivers\VBoxMouse.sys"));
        assert!(sys.hardware.hypervisor.is_none());
        assert!(!sys.hardware.mac_is_vm_vendor());
    }

    #[test]
    fn end_user_is_worn_and_has_vmware_workstation() {
        let m = end_user_machine();
        let sys = m.system();
        assert!(sys.registry.subkey_count(UNINSTALL_KEY) > 50);
        assert!(sys.eventlog.len() > 8_000);
        assert!(sys.network.dns_cache().len() > 4);
        assert!(sys.hardware.has_device("vmci"));
        // but NOT guest tools
        assert!(!sys.registry.key_exists(r"HKLM\SOFTWARE\VMware, Inc.\VMware Tools"));
    }

    #[test]
    fn transparency_hardening_scrubs_vm_signals() {
        let mut m = vm_sandbox();
        make_vm_sandbox_transparent(&mut m);
        let sys = m.system_mut();
        assert!(!sys.hardware.mac_is_vm_vendor());
        assert!(!sys.registry.key_exists(r"HKLM\HARDWARE\ACPI\DSDT\VBOX__"));
        assert!(!sys.hardware.hypervisor_bit());
        // guest additions remain — hardening is about firmware/CPUID, not files
        assert!(sys.registry.key_exists(r"HKLM\SOFTWARE\Oracle\VirtualBox Guest Additions"));
    }

    #[test]
    fn all_presets_have_ransomware_targets() {
        for m in [bare_metal_sandbox(), vm_sandbox(), end_user_machine()] {
            assert!(m.system().fs.files_tagged("user-document").count() >= 10);
        }
    }

    #[test]
    fn wear_profiles_differ_in_hive_size() {
        let mut pristine = System::new();
        WearProfile::pristine().apply(&mut pristine);
        let mut worn = System::new();
        WearProfile::worn().apply(&mut worn);
        assert!(worn.registry.quota_used_bytes() > 3 * pristine.registry.quota_used_bytes());
    }
}
