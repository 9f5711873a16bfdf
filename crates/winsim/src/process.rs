//! Processes, threads, and the Process Environment Block.
//!
//! The PEB matters to this reproduction: the one Joe Security sample
//! Scarecrow failed to deactivate (`cbdda64…`, Table I) read
//! `NumberOfProcessors` *directly from PEB memory* instead of calling an
//! API, bypassing every user-level hook. The simulation therefore snapshots
//! hardware facts into each process's [`Peb`] at creation time and exposes
//! them through a non-hookable accessor.

use std::collections::HashMap;
use std::sync::Arc;

use crate::api::{Api, CLEAN_PROLOGUE, HOOKED_PROLOGUE, PROLOGUE_LEN};

/// Process identifier (re-exported as the crate-level `Pid`).
pub type Pid = u32;

/// The Process Environment Block fields the simulation models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Peb {
    /// `PEB.BeingDebugged` — what `IsDebuggerPresent` *actually* reads.
    pub being_debugged: bool,
    /// `PEB.NumberOfProcessors` — snapshotted from hardware at creation.
    pub number_of_processors: u32,
}

/// Scheduling state of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    /// Runnable or running.
    Running,
    /// Created suspended (`CREATE_SUSPENDED`), waiting for `ResumeThread`.
    Suspended,
    /// Exited.
    Terminated,
}

/// One process in the simulated machine.
///
/// The hook map is the process's only hook state — a prologue reads
/// patched exactly when its API's chain is non-empty — and it is
/// `Arc`-shared: injecting the same DLL into a child shares the parent's
/// table (one refcount bump instead of ~40 allocations). Mutating installs
/// copy-on-write via [`Arc::make_mut`]. A machine holds each record behind
/// an `Arc` too, so a machine snapshot shares its processes with every
/// run, and a run copies a record (its strings, module list and the map
/// handle) only when it first writes that process.
#[derive(Clone)]
pub struct Process {
    /// Process id.
    pub pid: Pid,
    /// Parent process id.
    pub parent: Pid,
    /// Executable file name (e.g. `sample.exe`).
    pub image: String,
    /// Full path of the executable.
    pub image_path: String,
    /// The PEB snapshot.
    pub peb: Peb,
    /// Loaded module (DLL) names, in load order.
    pub modules: Vec<String>,
    /// Scheduling state.
    pub state: ProcState,
    /// Exit code once terminated.
    pub exit_code: i32,
    /// Whether this entry is an inert system process (no program body).
    pub is_system: bool,
    /// Per-API hook chains installed in this process (innermost last).
    pub(crate) hooks: crate::api::HookMap,
}

impl std::fmt::Debug for Process {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Process")
            .field("pid", &self.pid)
            .field("parent", &self.parent)
            .field("image", &self.image)
            .field("state", &self.state)
            .field("hooked_apis", &self.hooks.len())
            .finish()
    }
}

/// Default modules every user process maps.
pub const DEFAULT_MODULES: &[&str] = &["ntdll.dll", "kernel32.dll", "user32.dll", "advapi32.dll"];

impl Process {
    /// Creates a process record.
    pub fn new(pid: Pid, parent: Pid, image: &str, image_path: &str, peb: Peb) -> Self {
        Process {
            pid,
            parent,
            image: image.to_owned(),
            image_path: image_path.to_owned(),
            peb,
            modules: DEFAULT_MODULES.iter().map(|s| (*s).to_owned()).collect(),
            state: ProcState::Running,
            exit_code: 0,
            is_system: false,
            hooks: Arc::new(HashMap::new()),
        }
    }

    /// Whether a module with this name is loaded (case-insensitive).
    pub fn module_loaded(&self, name: &str) -> bool {
        self.modules.iter().any(|m| m.eq_ignore_ascii_case(name))
    }

    /// Adds a module if not already loaded. Returns whether it was added.
    pub fn load_module(&mut self, name: &str) -> bool {
        if self.module_loaded(name) {
            false
        } else {
            self.modules.push(name.to_owned());
            true
        }
    }

    /// The first bytes of an API's code as visible from this process: the
    /// `JMP` patch exactly when a hook is installed on it, else the clean
    /// prologue.
    pub fn api_prologue(&self, api: Api) -> [u8; PROLOGUE_LEN] {
        if self.api_hooked(api) {
            HOOKED_PROLOGUE
        } else {
            CLEAN_PROLOGUE
        }
    }

    /// Whether any hook is installed on the API in this process.
    pub fn api_hooked(&self, api: Api) -> bool {
        self.hooks.get(&api).is_some_and(|c| !c.is_empty())
    }

    /// Number of distinct APIs hooked in this process.
    pub fn hooked_api_count(&self) -> usize {
        self.hooks.values().filter(|c| !c.is_empty()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proc() -> Process {
        Process::new(
            100,
            1,
            "a.exe",
            r"C:\a.exe",
            Peb { being_debugged: false, number_of_processors: 4 },
        )
    }

    #[test]
    fn default_modules_are_mapped() {
        let p = proc();
        assert!(p.module_loaded("KERNEL32.DLL"));
        assert!(!p.module_loaded("SbieDll.dll"));
    }

    #[test]
    fn load_module_is_idempotent() {
        let mut p = proc();
        assert!(p.load_module("ws2_32.dll"));
        assert!(!p.load_module("WS2_32.DLL"));
        assert_eq!(p.modules.iter().filter(|m| m.eq_ignore_ascii_case("ws2_32.dll")).count(), 1);
    }

    #[test]
    fn unhooked_api_shows_clean_prologue() {
        let p = proc();
        let pro = p.api_prologue(Api::IsDebuggerPresent);
        assert_eq!(pro[0], 0x8b);
        assert_eq!(pro[1], 0xff);
        assert!(!p.api_hooked(Api::IsDebuggerPresent));
    }
}
