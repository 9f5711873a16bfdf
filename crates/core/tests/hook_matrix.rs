//! Behaviour matrix for every hooked API: the deceptive answer, the
//! fall-through answer, and the category switch that gates it.

use std::sync::Arc;

use scarecrow::{Category, Config, Scarecrow};
use winsim::{args, Api, Args, Machine, NtStatus, Pid, System, Value};

fn protected_machine(config: Config) -> (Scarecrow, Machine, Pid) {
    let engine = Scarecrow::with_builtin_db(config);
    let mut m = Machine::new(System::new());
    m.budget_ms = u64::MAX;
    let pid = m.add_system_process("target.exe");
    engine.protect_process(&mut m, pid);
    (engine, m, pid)
}

fn call(m: &mut Machine, pid: Pid, api: Api, a: Args) -> Value {
    m.call_api(pid, api, a)
}

#[test]
fn every_hooked_api_is_patched_and_dispatchable() {
    let (engine, m, pid) = protected_machine(Config::default());
    let p = m.process(pid).unwrap();
    for api in engine.hooked_apis() {
        assert!(p.api_hooked(api), "{api} should be hooked");
        assert!(winsim::check_hook(&p.api_prologue(api)), "{api} prologue should be patched");
    }
    // and nothing else is
    let hooked: std::collections::HashSet<_> = engine.hooked_apis().into_iter().collect();
    for api in Api::all() {
        if !hooked.contains(api) {
            assert!(!p.api_hooked(*api), "{api} should not be hooked");
        }
    }
}

#[test]
fn registry_family_matrix() {
    let (_e, mut m, pid) = protected_machine(Config::default());
    // deceptive keys exist through both API flavours
    for api in [Api::RegOpenKeyEx, Api::NtOpenKeyEx] {
        let v = call(&mut m, pid, api, args![r"HKLM\SOFTWARE\Sandboxie"]);
        assert_eq!(v.as_status(), NtStatus::Success, "{api}");
    }
    // deceptive values answer with their configured data
    for api in [Api::RegQueryValueEx, Api::NtQueryValueKey] {
        let v =
            call(&mut m, pid, api, args![r"HKLM\HARDWARE\Description\System", "VideoBiosVersion"]);
        assert!(v.as_str().unwrap().contains("VIRTUALBOX"), "{api}");
    }
    // non-deceptive keys still miss
    let v = call(&mut m, pid, Api::RegOpenKeyEx, args![r"HKLM\SOFTWARE\JustAnApp"]);
    assert_eq!(v.as_status(), NtStatus::ObjectNameNotFound);
    // and mutations pass through untouched to the real registry
    call(&mut m, pid, Api::RegSetValueEx, args![r"HKLM\SOFTWARE\JustAnApp", "v", "1"]);
    assert!(m.system().registry.key_exists(r"HKLM\SOFTWARE\JustAnApp"));
}

#[test]
fn file_and_device_matrix() {
    let (_e, mut m, pid) = protected_machine(Config::default());
    for api in [Api::NtQueryAttributesFile, Api::NtCreateFile, Api::CreateFile] {
        let v = call(&mut m, pid, api, args![r"C:\Windows\System32\drivers\VBoxGuest.sys", "open"]);
        assert_eq!(v.as_status(), NtStatus::Success, "{api}");
    }
    assert_eq!(
        call(
            &mut m,
            pid,
            Api::GetFileAttributes,
            args![r"C:\Windows\System32\drivers\vmmouse.sys"]
        )
        .as_u64(),
        Some(0x80)
    );
    // deceptive devices open; unknown devices do not
    assert_eq!(
        call(&mut m, pid, Api::CreateFile, args![r"\\.\SICE", "open"]).as_status(),
        NtStatus::Success
    );
    assert_eq!(
        call(&mut m, pid, Api::CreateFile, args![r"\\.\TotallyRealDevice", "open"]).as_status(),
        NtStatus::ObjectNameNotFound
    );
    // file *creation* is never intercepted
    let v = call(&mut m, pid, Api::CreateFile, args![r"C:\newfile.txt", "create"]);
    assert_eq!(v.as_status(), NtStatus::Success);
    assert!(m.system().fs.exists(r"C:\newfile.txt"));
}

#[test]
fn find_first_file_merges_deceptive_matches() {
    let (_e, mut m, pid) = protected_machine(Config::default());
    m.system_mut().fs.create(r"C:\Windows\System32\drivers\realdisk.sys", 1, "t");
    let v = call(&mut m, pid, Api::FindFirstFile, args![r"C:\Windows\System32\drivers\*.sys"]);
    let names: Vec<&str> = v.as_list().unwrap().iter().filter_map(Value::as_str).collect();
    assert!(names
        .iter()
        .any(|n| n.eq_ignore_ascii_case(r"c:\windows\system32\drivers\realdisk.sys")));
    assert!(names.iter().any(|n| n.to_ascii_lowercase().ends_with("vboxmouse.sys")));
}

#[test]
fn module_and_window_matrix() {
    let (_e, mut m, pid) = protected_machine(Config::default());
    assert!(call(&mut m, pid, Api::GetModuleHandle, args!["SbieDll.dll"]).as_u64().unwrap() != 0);
    assert!(call(&mut m, pid, Api::LoadLibrary, args!["cuckoomon.dll"]).as_u64().unwrap() != 0);
    assert_eq!(
        call(&mut m, pid, Api::GetModuleHandle, args!["user32.dll"]).as_u64(),
        Some(0x1000_0000)
    );
    let modules = call(&mut m, pid, Api::EnumModules, args![]);
    let names: Vec<&str> = modules.as_list().unwrap().iter().filter_map(Value::as_str).collect();
    assert!(names.iter().any(|n| n.eq_ignore_ascii_case("SbieDll.dll")));
    assert_eq!(call(&mut m, pid, Api::FindWindow, args!["OLLYDBG", ""]), Value::Bool(true));
    assert_eq!(call(&mut m, pid, Api::FindWindow, args!["NotepadClass", ""]), Value::Bool(false));
    assert!(
        call(&mut m, pid, Api::GetProcAddress, args!["kernel32.dll", "wine_get_unix_file_name"])
            .as_u64()
            .unwrap()
            != 0
    );
    assert_eq!(
        call(&mut m, pid, Api::GetProcAddress, args!["kernel32.dll", "CreateFileA"]).as_u64(),
        Some(0)
    );
}

#[test]
fn toolhelp_snapshots_contain_planted_processes() {
    let (_e, mut m, pid) = protected_machine(Config::default());
    let handle = call(&mut m, pid, Api::CreateToolhelp32Snapshot, args![]).as_u64().unwrap();
    let mut seen = Vec::new();
    while let Value::Str(s) = call(&mut m, pid, Api::Process32Next, args![handle]) {
        seen.push(s);
    }
    assert!(seen.iter().any(|p| p.eq_ignore_ascii_case("olydbg.exe")));
    assert!(seen.iter().any(|p| p.eq_ignore_ascii_case("VBoxTray.exe")));
    assert!(seen.iter().any(|p| &**p == "explorer.exe"), "real processes remain");
    // software category off: the snapshot is honest
    let (_e, mut m, pid) = protected_machine(Config { software: false, ..Config::default() });
    let handle = call(&mut m, pid, Api::CreateToolhelp32Snapshot, args![]).as_u64().unwrap();
    let mut seen = Vec::new();
    while let Value::Str(s) = call(&mut m, pid, Api::Process32Next, args![handle]) {
        seen.push(s);
    }
    assert!(!seen.iter().any(|p| p.eq_ignore_ascii_case("olydbg.exe")));
}

#[test]
fn identity_matrix() {
    let (_e, mut m, pid) = protected_machine(Config::default());
    assert_eq!(call(&mut m, pid, Api::GetUserName, args![]).as_str(), Some("currentuser"));
    assert_eq!(call(&mut m, pid, Api::GetComputerName, args![]).as_str(), Some("SANDBOX"));
    let path = call(&mut m, pid, Api::GetModuleFileName, args![]);
    let path = path.as_str().unwrap();
    assert!(path.starts_with(r"C:\sample\"));
    assert!(path.ends_with(".exe"));
}

#[test]
fn category_switches_gate_their_hooks_independently() {
    // hardware off, software on
    let (_e, mut m, pid) = protected_machine(Config { hardware: false, ..Config::default() });
    assert_eq!(call(&mut m, pid, Api::GetSystemInfo, args![]).as_u64(), Some(4), "real cores");
    assert_eq!(
        call(&mut m, pid, Api::IsDebuggerPresent, args![]),
        Value::Bool(true),
        "software still lies"
    );

    // software off, hardware on
    let (_e, mut m, pid) = protected_machine(Config { software: false, ..Config::default() });
    assert_eq!(call(&mut m, pid, Api::IsDebuggerPresent, args![]), Value::Bool(false));
    assert_eq!(call(&mut m, pid, Api::GetSystemInfo, args![]).as_u64(), Some(1));

    // network off: NX domains fail as on a real host
    let (_e, mut m, pid) = protected_machine(Config { network: false, ..Config::default() });
    let v = call(&mut m, pid, Api::DnsQuery, args!["nx-domain-check.test"]);
    assert_eq!(v.as_status(), NtStatus::ObjectNameNotFound);

    // weartear off: the real event log shows through
    let (_e, mut m, pid) = protected_machine(Config { weartear: false, ..Config::default() });
    m.system_mut().eventlog.seed(123, &["SCM"]);
    let v = call(&mut m, pid, Api::EvtNext, args![1_000_000u64]);
    assert_eq!(v.as_list().unwrap().len(), 123);
}

#[test]
fn exception_dispatch_matrix() {
    let (_e, mut m, pid) = protected_machine(Config::default());
    let cycles = call(&mut m, pid, Api::RaiseException, args![]).as_u64().unwrap();
    assert_eq!(cycles, 24_000, "configured deceptive dispatch latency");

    let (_e, mut m, pid) = protected_machine(Config { software: false, ..Config::default() });
    let cycles = call(&mut m, pid, Api::RaiseException, args![]).as_u64().unwrap();
    assert!(cycles < 1_000, "pass-through exposes the fast real dispatcher");
}

#[test]
fn dynamic_reconfiguration_reaches_injected_dlls() {
    // Section III-B: "SCARECROW controller dynamically updates the hooks
    // and configurations through IPC" — no re-injection required.
    let (engine, mut m, pid) = protected_machine(Config::default());
    assert_eq!(call(&mut m, pid, Api::IsDebuggerPresent, args![]), Value::Bool(true));

    engine.update_config(|c| c.software = false);
    assert_eq!(
        call(&mut m, pid, Api::IsDebuggerPresent, args![]),
        Value::Bool(false),
        "the already-injected hook observes the new configuration"
    );

    engine.update_config(|c| {
        c.software = true;
        c.fake_memory_mb = 512;
    });
    assert_eq!(call(&mut m, pid, Api::GlobalMemoryStatusEx, args![]).as_u64(), Some(512));
    assert_eq!(engine.config().fake_memory_mb, 512);
}

#[test]
fn triggers_carry_every_category() {
    // a probe program that touches one resource of every category; the
    // protected run's trigger stream must carry all of them
    struct OmniProbe;
    impl winsim::Program for OmniProbe {
        fn image_name(&self) -> &str {
            "omni.exe"
        }
        fn run(&self, ctx: &mut winsim::ProcessCtx<'_>) {
            ctx.reg_key_exists(r"HKLM\SOFTWARE\Wine");
            ctx.file_exists(r"C:\Windows\System32\drivers\vmhgfs.sys");
            ctx.open_device("vmci");
            ctx.open_process("procmon.exe");
            ctx.module_loaded("snxhk.dll");
            ctx.find_window_class("WinDbgFrameClass");
            ctx.is_debugger_present();
            ctx.memory_mb();
            ctx.user_name();
            ctx.dns_resolve("nx-category-check.test");
            ctx.dns_cache_table();
        }
    }
    let engine = Scarecrow::with_builtin_db(Config::default());
    let mut m = Machine::new(System::new());
    m.register_program(Arc::new(OmniProbe));
    let run = engine.run_protected(&mut m, "omni.exe").unwrap();
    let seen: std::collections::HashSet<&str> = run.triggers.iter().map(|t| t.category).collect();
    for expected in [
        Category::Registry,
        Category::File,
        Category::Device,
        Category::Process,
        Category::Dll,
        Category::Window,
        Category::Debugger,
        Category::Hardware,
        Category::Identity,
        Category::Network,
        Category::WearTear,
    ] {
        assert!(seen.contains(expected.name()), "missing trigger category {expected} in {seen:?}");
    }
}
