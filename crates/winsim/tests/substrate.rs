//! Substrate integration tests: scheduler semantics, environment presets,
//! and cross-subsystem behaviours that unit tests don't cover.

use std::sync::Arc;

use tracer::EventKind;
use winsim::env::{bare_metal_sandbox, end_user_machine, vm_sandbox};
use winsim::{args, Api, Machine, NtStatus, ProcessCtx, Program, SimError, System, Value};

struct Chain {
    image: &'static str,
    next: Option<&'static str>,
}
impl Program for Chain {
    fn image_name(&self) -> &str {
        self.image
    }
    fn run(&self, ctx: &mut ProcessCtx<'_>) {
        ctx.write_file(&format!(r"C:\ran_{}", self.image), 1);
        if let Some(next) = self.next {
            ctx.create_process(next);
        }
    }
}

#[test]
fn scheduler_runs_process_chains_in_creation_order() {
    let mut m = Machine::new(System::new());
    m.register_program(Arc::new(Chain { image: "a.exe", next: Some("b.exe") }));
    m.register_program(Arc::new(Chain { image: "b.exe", next: Some("c.exe") }));
    m.register_program(Arc::new(Chain { image: "c.exe", next: None }));
    m.run_sample("a.exe").unwrap();
    for img in ["a.exe", "b.exe", "c.exe"] {
        assert!(m.system().fs.exists(&format!(r"C:\ran_{img}")));
    }
    // the trace shows a -> b -> c creation order
    let creations: Vec<String> = m
        .trace()
        .events()
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::ProcessCreate { image, .. } => Some(image.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(creations, vec!["a.exe", "b.exe", "c.exe"]);
}

#[test]
fn launch_as_child_validates_parent() {
    let mut m = Machine::new(System::new());
    m.register_program(Arc::new(Chain { image: "a.exe", next: None }));
    assert!(matches!(m.launch_as_child("a.exe", 99_999), Err(SimError::NoSuchProcess(99_999))));
}

#[test]
fn virtual_time_accumulates_per_call_and_sleep() {
    struct Timed;
    impl Program for Timed {
        fn image_name(&self) -> &str {
            "timed.exe"
        }
        fn run(&self, ctx: &mut ProcessCtx<'_>) {
            let t0 = ctx.tick_count();
            ctx.sleep(5_000);
            let t1 = ctx.tick_count();
            assert!(t1 - t0 >= 5_000, "sleep advances virtual time");
        }
    }
    let mut m = Machine::new(System::new());
    m.register_program(Arc::new(Timed));
    m.run_sample("timed.exe").unwrap();
    assert!(m.system().clock.now_ms() >= 5_000);
}

#[test]
fn terminated_process_calls_fail() {
    let mut m = Machine::new(System::new());
    let pid = m.add_system_process("x.exe");
    m.finish_process(pid, 0);
    let v = m.call_api(pid, Api::GetTickCount, args![]);
    assert_eq!(v, Value::Status(NtStatus::Unsuccessful));
}

#[test]
fn presets_are_reconstructible_and_equal() {
    // Deep Freeze semantics depend on factories producing identical state
    let a = vm_sandbox();
    let b = vm_sandbox();
    assert_eq!(a.system().registry.key_count(), b.system().registry.key_count());
    assert_eq!(a.system().fs.file_count(), b.system().fs.file_count());
    assert_eq!(a.system().eventlog.len(), b.system().eventlog.len());
    assert_eq!(a.processes().count(), b.processes().count());
}

#[test]
fn presets_expose_consistent_identity_through_apis() {
    for (machine, user) in
        [(bare_metal_sandbox(), "john"), (vm_sandbox(), "john"), (end_user_machine(), "alice")]
    {
        let mut m = machine;
        let pid = m.add_system_process("probe.exe");
        let mut ctx = ProcessCtx::new(&mut m, pid);
        assert_eq!(ctx.user_name(), user);
        assert!(!ctx.computer_name().is_empty());
    }
}

#[test]
fn enum_processes_reflects_preset_population() {
    let mut m = vm_sandbox();
    let pid = m.add_system_process("probe.exe");
    let mut ctx = ProcessCtx::new(&mut m, pid);
    let list = ctx.process_list();
    assert!(list.iter().any(|p| &**p == "VBoxService.exe"));
    assert!(list.iter().any(|p| &**p == "python.exe"));
    assert!(list.iter().any(|p| &**p == "explorer.exe"));
    assert!(list.len() > 10);
}

#[test]
fn registry_enumeration_api() {
    let mut m = Machine::new(System::new());
    m.system_mut().registry.create_key(r"HKLM\Soft\A");
    m.system_mut().registry.create_key(r"HKLM\Soft\B");
    let pid = m.add_system_process("probe.exe");
    let first = m.call_api(pid, Api::RegEnumKeyEx, args![r"HKLM\Soft", 0u64]);
    assert_eq!(first.as_str(), Some("A"));
    let second = m.call_api(pid, Api::RegEnumKeyEx, args![r"HKLM\Soft", 1u64]);
    assert_eq!(second.as_str(), Some("B"));
    let done = m.call_api(pid, Api::RegEnumKeyEx, args![r"HKLM\Soft", 2u64]);
    assert_eq!(done.as_status(), NtStatus::NoMoreEntries);
}

#[test]
fn read_and_delete_files_via_apis() {
    let mut m = Machine::new(System::new());
    m.system_mut().fs.create(r"C:\data.bin", 10, "t");
    let pid = m.add_system_process("probe.exe");
    assert_eq!(
        m.call_api(pid, Api::ReadFile, args![r"C:\data.bin"]).as_status(),
        NtStatus::Success
    );
    assert_eq!(
        m.call_api(pid, Api::ReadFile, args![r"C:\missing.bin"]).as_status(),
        NtStatus::ObjectNameNotFound
    );
    assert_eq!(m.call_api(pid, Api::DeleteFile, args![r"C:\data.bin"]), Value::Bool(true));
    assert!(!m.system().fs.exists(r"C:\data.bin"));
}

#[test]
fn exception_dispatch_is_fast_on_all_presets() {
    for machine in [bare_metal_sandbox(), vm_sandbox(), end_user_machine()] {
        let mut m = machine;
        let pid = m.add_system_process("probe.exe");
        let mut ctx = ProcessCtx::new(&mut m, pid);
        let cycles = ctx.exception_dispatch_cycles();
        assert!(cycles < 5_000, "no preset has an analysis-grade dispatcher: {cycles}");
    }
}

#[test]
fn spawn_queries_are_recorded_as_non_significant_events() {
    struct Prober;
    impl Program for Prober {
        fn image_name(&self) -> &str {
            "prober.exe"
        }
        fn run(&self, ctx: &mut ProcessCtx<'_>) {
            ctx.is_debugger_present();
            ctx.module_loaded("SbieDll.dll");
            ctx.find_window_class("OLLYDBG");
            ctx.memory_mb();
        }
    }
    let mut m = Machine::new(System::new());
    m.register_program(Arc::new(Prober));
    m.run_sample("prober.exe").unwrap();
    let tags: Vec<&str> = m.trace().events().iter().map(|e| e.kind.tag()).collect();
    for expected in ["debug_query", "module_query", "window_query", "info_query"] {
        assert!(tags.contains(&expected), "missing {expected} in {tags:?}");
    }
    assert!(m.trace().significant_activities().is_empty(), "queries are never significant");
}

#[test]
fn toolhelp_snapshots_iterate_live_processes() {
    let mut m = Machine::new(System::new());
    m.add_system_process("VBoxService.exe");
    let pid = m.add_system_process("probe.exe");
    let mut ctx = ProcessCtx::new(&mut m, pid);
    let list = ctx.toolhelp_process_list();
    assert!(list.iter().any(|p| &**p == "VBoxService.exe"));
    assert!(list.iter().any(|p| &**p == "explorer.exe"));
    // a second walk gets a fresh snapshot with its own cursor
    let list2 = ctx.toolhelp_process_list();
    assert_eq!(list.len(), list2.len());
}

#[test]
fn process32next_rejects_bogus_handles() {
    let mut m = Machine::new(System::new());
    let pid = m.add_system_process("probe.exe");
    let v = m.call_api(pid, Api::Process32Next, args![0xBADu64]);
    assert_eq!(v.as_status(), NtStatus::InvalidHandle);
}

#[test]
fn snapshots_are_point_in_time() {
    let mut m = Machine::new(System::new());
    let pid = m.add_system_process("probe.exe");
    let handle = m.call_api(pid, Api::CreateToolhelp32Snapshot, args![]).as_u64().unwrap();
    // a process created *after* the snapshot is not in it
    m.add_system_process("latecomer.exe");
    let mut seen = Vec::new();
    while let Value::Str(s) = m.call_api(pid, Api::Process32Next, args![handle]) {
        seen.push(s);
    }
    assert!(!seen.iter().any(|p| &**p == "latecomer.exe"));
}

#[test]
fn hook_chain_runs_outermost_first() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static ORDER: AtomicUsize = AtomicUsize::new(0);

    struct Tagger(usize);
    impl winsim::ApiHook for Tagger {
        fn invoke(&self, call: &mut winsim::ApiCall<'_>) -> Value {
            // record the first hook to run this call
            let _ = ORDER.compare_exchange(0, self.0, Ordering::SeqCst, Ordering::SeqCst);
            call.call_original()
        }
    }
    let mut m = Machine::new(System::new());
    let pid = m.add_system_process("probe.exe");
    m.install_hook(pid, Api::GetTickCount, Arc::new(Tagger(1)));
    m.install_hook(pid, Api::GetTickCount, Arc::new(Tagger(2)));
    m.call_api(pid, Api::GetTickCount, args![]);
    assert_eq!(ORDER.load(Ordering::SeqCst), 1, "first-installed hook is outermost");
}

#[test]
fn budget_cuts_off_late_spawns_but_keeps_trace_consistent() {
    struct Slow;
    impl Program for Slow {
        fn image_name(&self) -> &str {
            "slow.exe"
        }
        fn run(&self, ctx: &mut ProcessCtx<'_>) {
            ctx.sleep(25_000);
            ctx.create_process("slow.exe");
        }
    }
    let mut m = Machine::new(System::new());
    m.budget_ms = 60_000;
    m.register_program(Arc::new(Slow));
    m.run_sample("slow.exe").unwrap();
    // the initial launch counts as the first self-image creation; the
    // generation popped at t=50s still runs (budget checked at pop time)
    // and spawns at t=75s, whose child is never scheduled
    let creates = m.trace().self_spawn_count();
    assert!((3..=4).contains(&creates), "got {creates}");
    // every create has a matching terminate except possibly the last
    let terminates = m
        .trace()
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::ProcessTerminate { .. }))
        .count();
    assert!(terminates >= creates - 1);
}
