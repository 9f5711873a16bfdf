//! The hookable API dispatch table.
//!
//! Every simulated Windows API is a variant of [`Api`]. Each has, per
//! process, a code *prologue* — the first bytes of the function, normally
//! the hot-patchable `mov edi, edi; push ebp; mov ebp, esp` sequence — and
//! a chain of installed [`ApiHook`]s. Inline hooking overwrites the
//! prologue with a `JMP` (exactly Figure 1 of the paper), which in-process
//! code can detect by reading the bytes back ([`check_hook`]); the bytes
//! are derived from the chain, so an API reads patched exactly when a hook
//! is installed on it. The hook chain then receives the call before (or
//! instead of) the kernel's default implementation.

use std::collections::HashMap;
use std::sync::Arc;

use crate::machine::Machine;
use crate::process::Pid;
use crate::values::{Args, Value};

/// Number of prologue bytes visible to anti-hook checks.
pub const PROLOGUE_LEN: usize = 8;

/// The unhooked prologue: `mov edi,edi; push ebp; mov ebp,esp; sub esp,0x10`.
pub const CLEAN_PROLOGUE: [u8; PROLOGUE_LEN] = [0x8b, 0xff, 0x55, 0x8b, 0xec, 0x83, 0xec, 0x10];

/// Prologue after an inline hook: `jmp rel32` (0xE9) into the hook,
/// followed by padding the patcher leaves behind.
pub const HOOKED_PROLOGUE: [u8; PROLOGUE_LEN] = [0xe9, 0xde, 0xc0, 0xad, 0x0b, 0x90, 0x90, 0x90];

/// The in-line hook detection of the paper's Figure 1: a function whose
/// first two bytes are no longer the hot-patch `mov edi, edi` (`8B FF`) has
/// been hooked.
///
/// ```
/// use winsim::{check_hook, CLEAN_PROLOGUE, HOOKED_PROLOGUE};
/// assert!(!check_hook(&CLEAN_PROLOGUE));
/// assert!(check_hook(&HOOKED_PROLOGUE));
/// ```
pub fn check_hook(prologue: &[u8; PROLOGUE_LEN]) -> bool {
    !(prologue[0] == 0x8b && prologue[1] == 0xff)
}

/// Declares [`Api`] from its one variant list, and with it `Api::all()`
/// (the variants in declaration order) and `Api::name()` (each variant's
/// own name).
macro_rules! api_table {
    (
        $(#[$meta:meta])*
        pub enum Api { $($(#[$variant_meta:meta])* $variant:ident,)* }
    ) => {
        $(#[$meta])*
        pub enum Api { $($(#[$variant_meta])* $variant,)* }

        impl Api {
            /// Every API in the table, in declaration order, so that
            /// `Api::all()[i] as usize == i`.
            pub fn all() -> &'static [Api] {
                &[$(Api::$variant,)*]
            }

            /// The API's conventional Windows name (`-A`/`-W` suffixes elided).
            pub fn name(self) -> &'static str {
                match self {
                    $(Api::$variant => stringify!($variant),)*
                }
            }
        }
    };
}

api_table! {
    /// The simulated Windows API surface.
    ///
    /// This list covers every API the paper names (the 29 hooked by Scarecrow,
    /// the triggers of Table I, the wear-and-tear APIs of Table III) plus the
    /// calls Pafish, the benign corpus, and the malware payloads need.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    #[allow(missing_docs)] // variant names are the documentation: they are the Windows API names
    pub enum Api {
        // --- registry (Win32) ---
        RegOpenKeyEx,
        RegQueryValueEx,
        RegSetValueEx,
        RegCreateKeyEx,
        RegDeleteKey,
        RegEnumKeyEx,
        // --- registry (native) ---
        NtOpenKeyEx,
        NtQueryKey,
        NtQueryValueKey,
        // --- files ---
        NtCreateFile,
        NtQueryAttributesFile,
        GetFileAttributes,
        CreateFile,
        ReadFile,
        WriteFile,
        DeleteFile,
        MoveFile,
        FindFirstFile,
        GetDiskFreeSpaceEx,
        // --- processes & debugging ---
        CreateProcess,
        OpenProcess,
        TerminateProcess,
        ExitProcess,
        ResumeThread,
        Sleep,
        GetTickCount,
        IsDebuggerPresent,
        CheckRemoteDebuggerPresent,
        NtQueryInformationProcess,
        OutputDebugString,
        CloseHandle,
        EnumProcesses,
        GetCurrentProcessId,
        WriteProcessMemory,
        CreateToolhelp32Snapshot,
        Process32Next,
        // --- modules ---
        GetModuleHandle,
        LoadLibrary,
        EnumModules,
        GetModuleFileName,
        GetProcAddress,
        // --- system information ---
        GetSystemInfo,
        GlobalMemoryStatusEx,
        NtQuerySystemInformation,
        GetUserName,
        GetComputerName,
        GetCursorPos,
        GetAdaptersInfo,
        IsNativeVhdBoot,
        GetKeyState,
        // --- GUI ---
        FindWindow,
        // --- network ---
        DnsQuery,
        InternetOpenUrl,
        DnsGetCacheDataTable,
        // --- event log / shell / sync ---
        EvtNext,
        ShellExecuteEx,
        CreateMutex,
        /// Raises and handles a (first-chance) exception, returning the
        /// dispatch round-trip in cycles. Debuggers and shadow-page analysis
        /// systems inflate this path; Scarecrow fakes the inflation
        /// (Section II-B(g) "Exception processing").
        RaiseException,
    }
}

impl Api {
    /// API names laid out so that slot `api as usize` holds `api.name()` —
    /// the slot-name list a [`tracer::Telemetry`] recorder for this
    /// substrate is built from.
    pub fn telemetry_slot_names() -> Vec<String> {
        Api::all().iter().map(|api| api.name().to_owned()).collect()
    }
}

impl std::fmt::Display for Api {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An installed hook on one API in one process.
///
/// Implementations receive the in-flight [`ApiCall`] and may inspect or
/// rewrite `call.args`, return a fabricated value, or delegate to
/// [`ApiCall::call_original`] (the trampoline to the next hook or the real
/// implementation) and post-process its result — the same three options a
/// real inline hook has.
pub trait ApiHook: Send + Sync {
    /// Short label naming the hook's `hook_chain` flight span.
    fn label(&self) -> &'static str {
        "hook"
    }

    /// Handles an intercepted call.
    fn invoke(&self, call: &mut ApiCall<'_>) -> Value;
}

/// Blanket impl so plain closures can serve as hooks in tests and simple
/// deployments.
impl<F> ApiHook for F
where
    F: Fn(&mut ApiCall<'_>) -> Value + Send + Sync,
{
    fn invoke(&self, call: &mut ApiCall<'_>) -> Value {
        self(call)
    }
}

/// One API's installed hooks, outermost first, shared across processes.
pub type HookChain = Arc<Vec<Arc<dyn ApiHook>>>;

/// A shared per-API map of hook chains.
pub type HookMap = Arc<HashMap<Api, HookChain>>;

/// A prebuilt set of hook chains, installable into a process wholesale via
/// `Machine::install_hook_table`.
///
/// The map is behind an `Arc`: installing the table into a process that
/// has no hooks yet is one refcount bump, so injecting the same DLL into
/// every spawned child costs O(1) per child instead of O(hooks).
#[derive(Clone)]
pub struct HookTable {
    /// Per-API hook chains (innermost last), shared across processes.
    pub hooks: HookMap,
    /// Total installed hook count (for `HookInstalls` telemetry parity
    /// with one-at-a-time installation).
    pub count: usize,
}

impl std::fmt::Debug for HookTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HookTable")
            .field("apis", &self.hooks.len())
            .field("count", &self.count)
            .finish()
    }
}

/// An in-flight API call traversing the hook chain.
pub struct ApiCall<'m> {
    /// The API being called.
    pub api: Api,
    /// The (possibly hook-rewritten) arguments.
    pub args: Args,
    /// The calling process.
    pub pid: Pid,
    pub(crate) machine: &'m mut Machine,
    /// `None` for unhooked APIs — avoids allocating an empty chain on the
    /// (overwhelmingly common) baseline-run dispatch path.
    pub(crate) chain: Option<HookChain>,
    pub(crate) idx: usize,
}

impl<'m> ApiCall<'m> {
    fn chain_len(&self) -> usize {
        self.chain.as_ref().map_or(0, |c| c.len())
    }

    /// Invokes the next hook in the chain, or the default implementation
    /// once the chain is exhausted — the trampoline a real inline hook
    /// would jump through. It is also the one place a hook is observed:
    /// each hook it enters counts a `HookHits` and runs inside a
    /// `hook_chain` flight span named by the hook's label.
    pub fn call_original(&mut self) -> Value {
        if self.idx < self.chain_len() {
            let hook =
                Arc::clone(&self.chain.as_ref().expect("chain_len > 0 implies chain")[self.idx]);
            self.idx += 1;
            if let Some(t) = self.machine.telemetry() {
                t.incr(tracer::Counter::HookHits);
            }
            // checked first so an unrecorded call skips the `label()` call
            if self.machine.flight_active() {
                self.machine.flight_begin(tracer::SpanKind::HookChain, hook.label(), self.pid);
            }
            let value = hook.invoke(self);
            self.machine.flight_end();
            value
        } else {
            if self.chain_len() > 0 {
                if let Some(t) = self.machine.telemetry() {
                    t.incr(tracer::Counter::TrampolinePassthroughs);
                }
                // a hooked call falling through to the original: time the
                // trampoline tail for the passthrough-vs-hook histogram
                if self.machine.flight_active() {
                    let started = std::time::Instant::now();
                    let value = Machine::default_api(self.machine, self.pid, self.api, &self.args);
                    let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    self.machine.flight_hist(tracer::flight::FlightHist::TrampolinePassthrough, ns);
                    return value;
                }
            }
            Machine::default_api(self.machine, self.pid, self.api, &self.args)
        }
    }

    /// The machine, for hooks that need to inspect or mutate system state.
    pub fn machine(&mut self) -> &mut Machine {
        self.machine
    }

    /// The machine, read-only, for hooks that consult it while they still
    /// borrow the call's arguments.
    pub fn machine_ref(&self) -> &Machine {
        self.machine
    }
}

impl std::fmt::Debug for ApiCall<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ApiCall")
            .field("api", &self.api)
            .field("pid", &self.pid)
            .field("args", &self.args)
            .field("chain_len", &self.chain_len())
            .field("idx", &self.idx)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn api_list_is_complete_and_distinct() {
        let all = Api::all();
        assert!(all.len() >= 50, "expected a broad API surface, got {}", all.len());
        let names: std::collections::HashSet<_> = all.iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn all_lists_each_variant_at_its_discriminant() {
        for (i, api) in Api::all().iter().enumerate() {
            assert_eq!(*api as usize, i, "{api}");
        }
        assert_eq!(Api::all().last(), Some(&Api::RaiseException));
    }

    #[test]
    fn prologues_differ() {
        assert_ne!(CLEAN_PROLOGUE, HOOKED_PROLOGUE);
        assert_eq!(HOOKED_PROLOGUE[0], 0xe9, "hook starts with JMP rel32");
        assert_eq!(CLEAN_PROLOGUE[0], 0x8b, "clean prologue starts with mov edi,edi");
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Api::IsDebuggerPresent.to_string(), "IsDebuggerPresent");
    }
}
