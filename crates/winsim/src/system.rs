//! Aggregate system state: all subsystems plus identity configuration.

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::clock::Clock;
use crate::events::EventLog;
use crate::fs::FileSystem;
use crate::gui::WindowManager;
use crate::hardware::Hardware;
use crate::input::InputModel;
use crate::network::Network;
use crate::registry::Registry;

/// Windows version of the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OsVersion {
    /// Windows 7 (the paper's evaluation OS).
    Win7,
    /// Windows 8 (adds `IsNativeVhdBoot`).
    Win8,
    /// Windows 10.
    Win10,
}

/// What kind of environment a machine represents (report labeling only —
/// no behaviour reads this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnvKind {
    /// A bare-metal analysis sandbox (paper Section IV-B).
    BareMetalSandbox,
    /// A VM-based sandbox: Cuckoo on VirtualBox (paper Table II).
    VmSandbox,
    /// A real, actively used end-user machine.
    EndUser,
    /// Anything else.
    Custom,
}

impl std::fmt::Display for EnvKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            EnvKind::BareMetalSandbox => "bare-metal sandbox",
            EnvKind::VmSandbox => "virtual machine sandbox",
            EnvKind::EndUser => "end-user machine",
            EnvKind::Custom => "custom environment",
        };
        f.write_str(s)
    }
}

/// Machine identity and miscellaneous configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemConfig {
    /// NetBIOS computer name.
    pub computer_name: String,
    /// Logged-in user name (sandboxes often use names like `malware` or
    /// `sandbox`, a Pafish generic check).
    pub user_name: String,
    /// OS version.
    pub os: OsVersion,
    /// Environment label for reports.
    pub kind: EnvKind,
    /// Directory where launched/spawned executables live (sandboxes drop
    /// samples in analysis directories — an evasion signal).
    pub download_dir: String,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            computer_name: "DESKTOP-01".to_owned(),
            user_name: "user".to_owned(),
            os: OsVersion::Win7,
            kind: EnvKind::Custom,
            download_dir: r"C:\Users\user\Downloads".to_owned(),
        }
    }
}

/// The complete passive state of one simulated machine.
///
/// `System` is pure state — subsystem stores with no scheduling or API
/// dispatch; [`crate::Machine`] wraps it with processes and dispatch.
/// Presets in [`crate::env`] build fully-populated systems for the paper's
/// three evaluation environments.
#[derive(Debug, Clone, Default)]
pub struct System {
    /// Identity and labels.
    pub config: SystemConfig,
    /// The registry hive.
    pub registry: Registry,
    /// The filesystem and drives.
    pub fs: FileSystem,
    /// CPU, memory, disks, devices, MAC.
    pub hardware: Hardware,
    /// DNS and HTTP.
    pub network: Network,
    /// The system event log.
    pub eventlog: EventLog,
    /// Top-level GUI windows.
    pub windows: WindowManager,
    /// Mouse model.
    pub input: InputModel,
    /// The virtual clock.
    pub clock: Clock,
    /// Dynamic libraries that `LoadLibrary` can find on this machine.
    /// `Arc`-shared with machine snapshots: only presets write it
    /// ([`System::add_dll`]), so a reset clones no name.
    pub dll_registry: Arc<BTreeSet<String>>,
    /// Named mutexes currently held.
    pub mutexes: BTreeSet<String>,
    /// Exported symbols resolvable via `GetProcAddress`, keyed as
    /// `module.dll!ProcName` (lowercase module). Wine exposes
    /// `kernel32.dll!wine_get_unix_file_name`, which Pafish checks.
    pub proc_exports: BTreeSet<String>,
}

impl System {
    /// A minimal pristine system: one 256 GB `C:` drive, standard DLLs,
    /// default hardware, real-Internet DNS.
    pub fn new() -> Self {
        let mut sys = System::default();
        sys.fs.set_drive('C', crate::fs::DriveInfo::gb(256, 180));
        for dll in [
            "ntdll.dll",
            "kernel32.dll",
            "user32.dll",
            "advapi32.dll",
            "ws2_32.dll",
            "shell32.dll",
            "ole32.dll",
            "gdi32.dll",
        ] {
            sys.add_dll(dll);
        }
        sys
    }

    /// Registers a loadable DLL by name.
    pub fn add_dll(&mut self, name: &str) {
        Arc::make_mut(&mut self.dll_registry).insert(name.to_ascii_lowercase());
    }

    /// Whether `LoadLibrary(name)` would find the DLL.
    pub fn dll_available(&self, name: &str) -> bool {
        self.dll_registry.contains(&name.to_ascii_lowercase())
    }

    /// Registers a `GetProcAddress`-resolvable export.
    pub fn add_export(&mut self, module: &str, proc: &str) {
        self.proc_exports.insert(format!("{}!{proc}", module.to_ascii_lowercase()));
    }

    /// Whether `GetProcAddress(module, proc)` resolves.
    pub fn has_export(&self, module: &str, proc: &str) -> bool {
        self.proc_exports.contains(&format!("{}!{proc}", module.to_ascii_lowercase()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pristine_system_has_c_drive_and_core_dlls() {
        let sys = System::new();
        assert!(sys.fs.drive('C').is_some());
        assert!(sys.dll_available("KERNEL32.DLL"));
        assert!(!sys.dll_available("SbieDll.dll"));
    }

    #[test]
    fn env_kind_display() {
        assert_eq!(EnvKind::VmSandbox.to_string(), "virtual machine sandbox");
    }
}
