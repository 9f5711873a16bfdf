//! A deterministic simulated Windows substrate for the Scarecrow (DSN 2020)
//! reproduction.
//!
//! The paper deploys Scarecrow as user-level inline API hooking on real
//! Windows 7 machines. This crate provides the smallest faithful model of
//! Windows that the paper's evasive logic, deception engine, fingerprinting
//! tools, and payloads need:
//!
//! * a case-insensitive hierarchical [`Registry`];
//! * a virtual [`FileSystem`] with drives and capacities;
//! * a process table with PEBs, parent links, suspended creation, and
//!   per-process module lists ([`Process`]);
//! * a [`Hardware`] model with CPUID (hypervisor bit / vendor leaf) and an
//!   RDTSC timing model including VM-exit latency;
//! * DNS/HTTP [`Network`] with configurable NX-domain policy;
//! * an [`EventLog`], GUI [`WindowManager`], mouse [`InputModel`], and a
//!   virtual [`Clock`];
//! * a **hookable API dispatch table** ([`Api`], [`ApiHook`]) whose entries
//!   carry x86 prologue bytes, so inline hooking and its detection
//!   (Figure 1 of the paper) behave byte-for-byte;
//! * a deterministic scheduler ([`Machine`]) running [`Program`]s with a
//!   per-sample virtual-time budget (the paper's one minute).
//!
//! API calls are interceptable; direct PEB reads, RDTSC, CPUID, and
//! prologue reads are not — reproducing exactly the boundary at which the
//! paper's Scarecrow succeeds and fails.
//!
//! # Example: an evasive program meets a deceptive hook
//!
//! ```
//! use std::sync::Arc;
//! use winsim::{Api, Machine, Program, ProcessCtx, System, Value};
//!
//! struct Evader;
//! impl Program for Evader {
//!     fn image_name(&self) -> &str { "evader.exe" }
//!     fn run(&self, ctx: &mut ProcessCtx<'_>) {
//!         if ctx.is_debugger_present() {
//!             ctx.exit_process(0); // evasive logic fires: no payload
//!         } else {
//!             ctx.write_file(r"C:\stolen.dat", 1024);
//!         }
//!     }
//! }
//!
//! let mut m = Machine::new(System::new());
//! m.register_program(Arc::new(Evader));
//! let pid = m.launch("evader.exe")?;
//! m.install_hook(pid, Api::IsDebuggerPresent,
//!     Arc::new(|_c: &mut winsim::ApiCall<'_>| Value::Bool(true)));
//! m.run();
//! assert!(!m.system().fs.exists(r"C:\stolen.dat")); // deactivated
//! # Ok::<(), winsim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod api;
mod clock;
pub mod env;
mod error;
mod events;
mod fs;
mod gui;
mod hardware;
mod input;
mod machine;
mod network;
mod overlay;
mod process;
mod program;
mod registry;
mod system;
mod values;
mod winapi;
pub mod xrng;

pub use api::{
    check_hook, Api, ApiCall, ApiHook, HookChain, HookMap, HookTable, CLEAN_PROLOGUE,
    HOOKED_PROLOGUE, PROLOGUE_LEN,
};
pub use clock::Clock;
pub use error::{NtStatus, SimError};
pub use events::{EventLog, SysEvent};
pub use fs::{DriveInfo, FileNode, FileSystem, Glob};
pub use gui::{Window, WindowManager};
pub use hardware::{Hardware, HvVendor, RdtscModel};
pub use input::InputModel;
pub use machine::{
    DeceptionRecord, Decision, Machine, MachineSnapshot, DEFAULT_BUDGET_MS, DEFAULT_MAX_PROCESSES,
};
pub use network::{DnsCacheEntry, Network, NxPolicy};
pub use process::{Peb, Pid, ProcState, Process, DEFAULT_MODULES};
pub use program::{ProcessCtx, Program};
pub use registry::{RegValue, Registry};
pub use system::{EnvKind, OsVersion, System, SystemConfig};
pub use values::{Args, Value};
