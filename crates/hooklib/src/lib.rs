//! Inline hooking and DLL-injection engine for the `winsim` substrate —
//! the reproduction's analog of EasyHook (Section III-A of the paper).
//!
//! The paper realizes Scarecrow as a controller (`scarecrow.exe`) that
//! injects a hook DLL (`scarecrow.dll`) into target processes, where it
//! installs user-level in-line hooks. The injected DLL also hooks
//! `CreateProcess` so that descendants of the target get injected too: "We
//! suspend the running thread of the new process to inject scarecrow.dll
//! into the address space of the new process and then resume it."
//!
//! This crate provides exactly those mechanisms over `winsim`:
//!
//! * [`DllImage`] — a named bundle of API hooks (a "DLL");
//! * [`Injector`] — injects a [`DllImage`] into a process, launches targets
//!   with injection, and transparently follows child processes.
//!
//! The substrate owns the rest of the hook layer: a process's hook chains
//! are its only hook state (a prologue reads as a `JMP` exactly when its
//! API's chain is non-empty, which [`winsim::check_hook`] — the anti-hooking
//! detection of Figure 1 — reads back), and the trampoline
//! ([`ApiCall::call_original`]) counts each hook it enters and opens its
//! `hook_chain` flight span, named by the hook's own label.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::{Arc, Weak};

use winsim::{Api, ApiCall, ApiHook, HookTable, Machine, Pid, SimError, Value};

/// A named bundle of hooks, modeling a hook DLL such as `scarecrow.dll`.
///
/// The `name` appears in the target process's module list (injection is
/// visible to module enumeration, as with real EasyHook — the paper's
/// deception works *because* analysis-like presence is detectable).
pub struct DllImage {
    name: String,
    hooks: Vec<(Api, Arc<dyn ApiHook>)>,
}

impl std::fmt::Debug for DllImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DllImage")
            .field("name", &self.name)
            .field("hooks", &self.hooks.len())
            .finish()
    }
}

impl DllImage {
    /// Creates an empty DLL image. `name` is the module file name
    /// (e.g. `scarecrow.dll`).
    pub fn new(name: impl Into<String>) -> Self {
        DllImage { name: name.into(), hooks: Vec::new() }
    }

    /// Adds a hook on an API. Later additions sit *deeper* in the chain
    /// (closer to the original), matching repeated inline patching.
    pub fn hook(&mut self, api: Api, hook: Arc<dyn ApiHook>) -> &mut Self {
        self.hooks.push((api, hook));
        self
    }

    /// The module name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// Injects a [`DllImage`] into processes and keeps it injected across
/// process creation (the descendant-following mechanism of Section III-B).
///
/// The injector prebuilds one [`HookTable`] — the DLL's hooks plus the
/// child-following hooks — at construction. Injection into a hook-free
/// process then shares that table (one refcount bump) instead of
/// allocating a chain per hooked API per process, which matters when a
/// looping sample spawns hundreds of descendants.
#[derive(Clone)]
pub struct Injector {
    dll: Arc<DllImage>,
    follow_children: bool,
    table: HookTable,
}

impl std::fmt::Debug for Injector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Injector")
            .field("dll", &self.dll.name)
            .field("follow_children", &self.follow_children)
            .finish()
    }
}

impl Injector {
    /// Creates an injector for a DLL image that follows child processes.
    pub fn new(dll: DllImage) -> Self {
        let dll = Arc::new(dll);
        let table = build_table(&dll, true);
        Injector { dll, follow_children: true, table }
    }

    /// Creates an injector that does *not* propagate to children (for
    /// ablation experiments).
    pub fn without_follow(dll: DllImage) -> Self {
        let dll = Arc::new(dll);
        let table = build_table(&dll, false);
        Injector { dll, follow_children: false, table }
    }

    /// Injects the DLL into an existing process: maps the module and
    /// installs every hook. Idempotent per process (a second injection is
    /// skipped, as the module is already mapped).
    pub fn inject(&self, machine: &mut Machine, pid: Pid) {
        inject_table(machine, pid, &self.dll.name, &self.table);
    }

    /// Launches a registered program as a child of `parent`, suspended;
    /// injects the DLL; resumes. This is the paper's controller start
    /// sequence.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownImage`] if the image has no registered
    /// program body.
    pub fn launch_injected(
        &self,
        machine: &mut Machine,
        image: &str,
        parent: Pid,
    ) -> Result<Pid, SimError> {
        if !machine.has_program(image) {
            return Err(SimError::UnknownImage(image.to_owned()));
        }
        machine.set_trace_root(image);
        let pid = machine.spawn(image, parent, true);
        self.inject(machine, pid);
        machine.resume(pid);
        Ok(pid)
    }
}

/// Maps the module and installs the table's hooks. Idempotent per process.
fn inject_table(machine: &mut Machine, pid: Pid, dll_name: &str, table: &HookTable) {
    let already = machine.process(pid).map(|p| p.module_loaded(dll_name)).unwrap_or(true);
    if already {
        return;
    }
    if let Some(p) = machine.process_mut(pid) {
        p.load_module(dll_name);
    }
    machine.record(pid, tracer::EventKind::ImageLoad { pid, image: dll_name.to_owned() });
    machine.install_hook_table(pid, table);
}

/// Builds the combined hook table: the DLL's hooks first, then (if
/// following) the child-follow hooks on `CreateProcess`/`ShellExecuteEx` —
/// the same chain order repeated `install_hook` calls would produce.
///
/// The follow hooks live *inside* the table they re-install into children,
/// so they hold the chain map through a [`Weak`] (via [`Arc::new_cyclic`])
/// to avoid a reference cycle.
fn build_table(dll: &Arc<DllImage>, follow: bool) -> HookTable {
    let count = dll.hooks.len() + if follow { 2 } else { 0 };
    let hooks = Arc::new_cyclic(|weak: &Weak<HashMap<Api, winsim::HookChain>>| {
        let mut map: HashMap<Api, Vec<Arc<dyn ApiHook>>> = HashMap::new();
        for (api, hook) in &dll.hooks {
            map.entry(*api).or_default().push(Arc::clone(hook));
        }
        if follow {
            for api in [Api::CreateProcess, Api::ShellExecuteEx] {
                map.entry(api).or_default().push(Arc::new(FollowChildrenHook {
                    dll: Arc::clone(dll),
                    hooks: Weak::clone(weak),
                    count,
                }));
            }
        }
        map.into_iter().map(|(api, chain)| (api, Arc::new(chain))).collect()
    });
    HookTable { hooks, count }
}

/// The `CreateProcess`/`ShellExecuteEx` hook that implements descendant
/// following: force-suspend the child, inject, then resume if the caller
/// didn't ask for suspension.
struct FollowChildrenHook {
    dll: Arc<DllImage>,
    /// Weak back-reference to the combined table this hook is part of.
    /// Upgrading succeeds whenever the hook can be invoked — the calling
    /// process's own hook map keeps the table alive.
    hooks: Weak<HashMap<Api, winsim::HookChain>>,
    count: usize,
}

impl FollowChildrenHook {
    fn inject_child(&self, machine: &mut Machine, child: Pid) {
        let table = match self.hooks.upgrade() {
            Some(hooks) => HookTable { hooks, count: self.count },
            // Every process sharing the table is gone (possible when this
            // hook's chain was merged into a foreign map): rebuild the
            // table rather than drop the child.
            None => build_table(&self.dll, true),
        };
        inject_table(machine, child, &self.dll.name, &table);
    }
}

impl ApiHook for FollowChildrenHook {
    fn label(&self) -> &'static str {
        "injector-follow"
    }

    fn invoke(&self, call: &mut ApiCall<'_>) -> Value {
        let caller_wants_suspended = call.args.bool(1);
        call.args.set(1, Value::Bool(true)); // force CREATE_SUSPENDED
        let result = call.call_original();
        let child = result.as_u64().unwrap_or(0) as Pid;
        if child != 0 {
            self.inject_child(call.machine(), child);
            if !caller_wants_suspended {
                call.machine().resume(child);
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use winsim::{args, check_hook, ProcessCtx, Program, System};

    /// Returns `true` from `IsDebuggerPresent`, like scarecrow.dll.
    struct LieAboutDebugger;
    impl ApiHook for LieAboutDebugger {
        fn label(&self) -> &'static str {
            "lie-about-debugger"
        }
        fn invoke(&self, _call: &mut ApiCall<'_>) -> Value {
            Value::Bool(true)
        }
    }

    struct DebugCheckingPayload;
    impl Program for DebugCheckingPayload {
        fn image_name(&self) -> &str {
            "payload.exe"
        }
        fn run(&self, ctx: &mut ProcessCtx<'_>) {
            if !ctx.is_debugger_present() {
                ctx.write_file(r"C:\pwned.txt", 8);
            }
        }
    }

    /// Parent that spawns payload.exe, as malware droppers do.
    struct Dropper;
    impl Program for Dropper {
        fn image_name(&self) -> &str {
            "dropper.exe"
        }
        fn run(&self, ctx: &mut ProcessCtx<'_>) {
            ctx.create_process("payload.exe");
        }
    }

    fn test_dll() -> DllImage {
        let mut dll = DllImage::new("scarecrow.dll");
        dll.hook(Api::IsDebuggerPresent, Arc::new(LieAboutDebugger));
        dll
    }

    #[test]
    fn figure1_detection_round_trip() {
        let mut m = Machine::new(System::new());
        m.register_program(Arc::new(DebugCheckingPayload));
        let pid = m.launch("payload.exe").unwrap();
        // before hooking: clean
        assert!(!check_hook(&m.process(pid).unwrap().api_prologue(Api::IsDebuggerPresent)));
        Injector::new(test_dll()).inject(&mut m, pid);
        assert!(check_hook(&m.process(pid).unwrap().api_prologue(Api::IsDebuggerPresent)));
    }

    #[test]
    fn injection_maps_module_and_intercepts() {
        let mut m = Machine::new(System::new());
        m.register_program(Arc::new(DebugCheckingPayload));
        let pid = m.launch("payload.exe").unwrap();
        Injector::new(test_dll()).inject(&mut m, pid);
        assert!(m.process(pid).unwrap().module_loaded("scarecrow.dll"));
        m.run();
        assert!(!m.system().fs.exists(r"C:\pwned.txt"), "payload must be deceived");
    }

    #[test]
    fn injection_is_idempotent() {
        let mut m = Machine::new(System::new());
        m.register_program(Arc::new(DebugCheckingPayload));
        let pid = m.launch("payload.exe").unwrap();
        let inj = Injector::new(test_dll());
        inj.inject(&mut m, pid);
        let hooks_after_first = m.process(pid).unwrap().hooked_api_count();
        inj.inject(&mut m, pid);
        assert_eq!(m.process(pid).unwrap().hooked_api_count(), hooks_after_first);
    }

    #[test]
    fn children_inherit_the_injection() {
        let mut m = Machine::new(System::new());
        m.register_program(Arc::new(Dropper));
        m.register_program(Arc::new(DebugCheckingPayload));
        let pid = m.launch("dropper.exe").unwrap();
        Injector::new(test_dll()).inject(&mut m, pid);
        m.run();
        // the child was injected before it ran, so its debugger check lied
        assert!(!m.system().fs.exists(r"C:\pwned.txt"));
    }

    #[test]
    fn without_follow_children_escape() {
        let mut m = Machine::new(System::new());
        m.register_program(Arc::new(Dropper));
        m.register_program(Arc::new(DebugCheckingPayload));
        let pid = m.launch("dropper.exe").unwrap();
        Injector::without_follow(test_dll()).inject(&mut m, pid);
        m.run();
        assert!(m.system().fs.exists(r"C:\pwned.txt"), "child escaped the ablated injector");
    }

    #[test]
    fn launch_injected_hooks_before_first_instruction() {
        let mut m = Machine::new(System::new());
        m.register_program(Arc::new(DebugCheckingPayload));
        let parent = m.explorer_pid();
        let inj = Injector::new(test_dll());
        inj.launch_injected(&mut m, "payload.exe", parent).unwrap();
        m.run();
        assert!(!m.system().fs.exists(r"C:\pwned.txt"));
    }

    #[test]
    fn launch_injected_rejects_unknown_images() {
        let mut m = Machine::new(System::new());
        let parent = m.explorer_pid();
        let err = Injector::new(test_dll()).launch_injected(&mut m, "ghost.exe", parent);
        assert!(matches!(err, Err(SimError::UnknownImage(_))));
    }

    #[test]
    fn hooks_emit_hook_chain_spans_when_flight_attached() {
        use tracer::flight::{FlightConfig, FlightRecorder, SpanKind};
        let mut m = Machine::new(System::new());
        m.register_program(Arc::new(DebugCheckingPayload));
        let pid = m.launch("payload.exe").unwrap();
        Injector::new(test_dll()).inject(&mut m, pid);
        m.set_flight(Some(FlightRecorder::new(FlightConfig::enabled())));
        m.run();
        let snap = m.take_flight().unwrap().snapshot();
        let chain: Vec<_> = snap.spans.iter().filter(|s| s.kind == SpanKind::HookChain).collect();
        assert!(chain.iter().any(|s| s.name == "lie-about-debugger"), "hook's own label recorded");
        let parent_id = chain[0].parent.expect("hook span nests under a dispatch");
        let parent = snap.spans.iter().find(|s| s.id == parent_id).unwrap();
        assert_eq!(parent.kind, SpanKind::ApiDispatch);
        assert_eq!(parent.name, "IsDebuggerPresent");
        assert!(snap.hists.get("hook_chain_ns").is_some_and(|h| h.count() > 0));
    }

    #[test]
    fn the_trampoline_observes_every_hook_in_a_mixed_chain() {
        use tracer::flight::{FlightConfig, FlightRecorder, SpanKind};
        use tracer::{Counter, Telemetry};
        let mut m = Machine::new(System::new());
        m.add_autoinject_hook(
            Api::IsDebuggerPresent,
            Arc::new(|c: &mut ApiCall<'_>| c.call_original()),
        );
        m.register_program(Arc::new(DebugCheckingPayload));
        let pid = m.launch("payload.exe").unwrap();
        Injector::new(test_dll()).inject(&mut m, pid);
        let telemetry = Arc::new(Telemetry::new(Api::telemetry_slot_names(), ["VMware"]));
        m.set_telemetry(Some(Arc::clone(&telemetry)));
        m.set_flight(Some(FlightRecorder::new(FlightConfig::enabled())));
        assert_eq!(
            m.call_api(pid, Api::IsDebuggerPresent, winsim::Args::none()),
            Value::Bool(true)
        );
        assert_eq!(telemetry.snapshot().counter(Counter::HookHits), 2);
        let snap = m.take_flight().unwrap().snapshot();
        let chain: Vec<_> = snap.spans.iter().filter(|s| s.kind == SpanKind::HookChain).collect();
        let names: Vec<&str> = chain.iter().map(|s| &*s.name).collect();
        assert_eq!(names.len(), 2);
        assert!(names.contains(&"hook") && names.contains(&"lie-about-debugger"), "{names:?}");
        // the DLL hook runs inside the autoinject hook's span
        let (outer, inner) =
            if chain[0].name == "hook" { (chain[0], chain[1]) } else { (chain[1], chain[0]) };
        assert_eq!(inner.parent, Some(outer.id));
        let dispatch = snap.spans.iter().find(|s| Some(s.id) == outer.parent).unwrap();
        assert_eq!(dispatch.kind, SpanKind::ApiDispatch);
    }

    #[test]
    fn forced_suspension_is_transparent_to_the_caller() {
        // A sample that spawns suspended and resumes manually must still work.
        struct SuspendSpawner;
        impl Program for SuspendSpawner {
            fn image_name(&self) -> &str {
                "susp.exe"
            }
            fn run(&self, ctx: &mut ProcessCtx<'_>) {
                let child = ctx.create_process_suspended("payload.exe");
                assert!(child != 0);
                ctx.call(Api::ResumeThread, args![u64::from(child)]);
            }
        }
        let mut m = Machine::new(System::new());
        m.register_program(Arc::new(SuspendSpawner));
        m.register_program(Arc::new(DebugCheckingPayload));
        let pid = m.launch("susp.exe").unwrap();
        Injector::new(test_dll()).inject(&mut m, pid);
        m.run();
        // child ran (after manual resume) and was deceived
        assert!(!m.system().fs.exists(r"C:\pwned.txt"));
        assert!(m.trace().events().iter().any(|e| matches!(
            &e.kind,
            tracer::EventKind::ProcessTerminate { image, .. } if image == "payload.exe"
        )));
    }
}
