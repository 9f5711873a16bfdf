//! Ergonomic wrappers over the raw API dispatch, as inherent methods on
//! [`ProcessCtx`].
//!
//! These keep malware sample code, Pafish checks, and benign programs close
//! to how the equivalent C would read: `ctx.is_debugger_present()` instead
//! of hand-building an [`crate::Args`] pack. Every wrapper goes through
//! [`ProcessCtx::call`], so hooks see all of them.

use std::sync::Arc;

use crate::api::Api;
use crate::args;
use crate::process::Pid;
use crate::program::ProcessCtx;
use crate::values::Value;

/// The strings of a list answer, moved out of their `Value::Str`s without
/// copying (an element that repeats a stored name stays shared with it);
/// any other answer is an empty list.
fn strings(answer: Value) -> Vec<Arc<str>> {
    match answer {
        Value::List(l) => l
            .into_iter()
            .filter_map(|v| match v {
                Value::Str(s) => Some(s),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

impl ProcessCtx<'_> {
    // ---------- registry ----------

    /// `RegOpenKeyEx` success check.
    pub fn reg_key_exists(&mut self, path: &str) -> bool {
        self.call(Api::RegOpenKeyEx, args![path]).as_status().is_success()
    }

    /// `NtOpenKeyEx` success check (native-API flavour; hooked separately).
    pub fn nt_key_exists(&mut self, path: &str) -> bool {
        self.call(Api::NtOpenKeyEx, args![path]).as_status().is_success()
    }

    /// `RegQueryValueEx`, `None` when the value is missing.
    pub fn reg_value(&mut self, path: &str, name: &str) -> Option<Value> {
        let v = self.call(Api::RegQueryValueEx, args![path, name]);
        match v {
            Value::Status(s) if !s.is_success() => None,
            v => Some(v),
        }
    }

    /// `NtQueryValueKey`, `None` when missing.
    pub fn nt_reg_value(&mut self, path: &str, name: &str) -> Option<Value> {
        let v = self.call(Api::NtQueryValueKey, args![path, name]);
        match v {
            Value::Status(s) if !s.is_success() => None,
            v => Some(v),
        }
    }

    /// `NtQueryKey` subkey count (`None` if the key is absent).
    pub fn reg_subkey_count(&mut self, path: &str) -> Option<u64> {
        self.call(Api::NtQueryKey, args![path, "subkeys"]).as_u64()
    }

    /// `NtQueryKey` value count (`None` if the key is absent).
    pub fn reg_value_count(&mut self, path: &str) -> Option<u64> {
        self.call(Api::NtQueryKey, args![path, "values"]).as_u64()
    }

    /// `RegSetValueEx` with a string value.
    pub fn reg_set_value(&mut self, path: &str, name: &str, value: &str) {
        self.call(Api::RegSetValueEx, args![path, name, value]);
    }

    /// `RegCreateKeyEx`.
    pub fn reg_create_key(&mut self, path: &str) {
        self.call(Api::RegCreateKeyEx, args![path]);
    }

    // ---------- files ----------

    /// `NtQueryAttributesFile` existence check.
    pub fn file_exists(&mut self, path: &str) -> bool {
        self.call(Api::NtQueryAttributesFile, args![path]).as_status().is_success()
    }

    /// `GetFileAttributes` existence check (Win32 flavour).
    pub fn file_attributes_valid(&mut self, path: &str) -> bool {
        self.call(Api::GetFileAttributes, args![path]).as_u64() != Some(0xFFFF_FFFF)
    }

    /// `CreateFile(path, CREATE_ALWAYS)`.
    pub fn create_file(&mut self, path: &str) -> bool {
        self.call(Api::CreateFile, args![path, "create"]).as_status().is_success()
    }

    /// Opens a device namespace path (`\\.\name`).
    pub fn open_device(&mut self, device: &str) -> bool {
        let path = format!(r"\\.\{device}");
        self.call(Api::CreateFile, args![path, "open"]).as_status().is_success()
    }

    /// `WriteFile`.
    pub fn write_file(&mut self, path: &str, bytes: u64) -> bool {
        self.call(Api::WriteFile, args![path, bytes]).as_status().is_success()
    }

    /// `DeleteFile`.
    pub fn delete_file(&mut self, path: &str) -> bool {
        self.call(Api::DeleteFile, args![path]).truthy()
    }

    /// `MoveFile` (rename).
    pub fn move_file(&mut self, from: &str, to: &str) -> bool {
        self.call(Api::MoveFile, args![from, to]).truthy()
    }

    /// `FindFirstFile`-style glob; returns matching paths.
    pub fn find_files(&mut self, pattern: &str) -> Vec<Arc<str>> {
        strings(self.call(Api::FindFirstFile, args![pattern]))
    }

    /// `GetDiskFreeSpaceEx` total bytes of a drive.
    pub fn disk_total_bytes(&mut self, drive: char) -> Option<u64> {
        let v = self.call(Api::GetDiskFreeSpaceEx, args![drive.to_string()]);
        v.as_list().and_then(|l| l.first()).and_then(Value::as_u64)
    }

    // ---------- processes & debugging ----------

    /// `CreateProcess`; returns the child pid (0 on failure).
    pub fn create_process(&mut self, image: &str) -> Pid {
        self.call(Api::CreateProcess, args![image]).as_u64().unwrap_or(0) as Pid
    }

    /// `CreateProcess(CREATE_SUSPENDED)`.
    pub fn create_process_suspended(&mut self, image: &str) -> Pid {
        self.call(Api::CreateProcess, args![image, true]).as_u64().unwrap_or(0) as Pid
    }

    /// `OpenProcess` by image name; returns pid (0 when not running).
    pub fn open_process(&mut self, image: &str) -> Pid {
        self.call(Api::OpenProcess, args![image]).as_u64().unwrap_or(0) as Pid
    }

    /// `ExitProcess`.
    pub fn exit_process(&mut self, code: i32) {
        self.call(Api::ExitProcess, args![i64::from(code)]);
    }

    /// `Sleep`.
    pub fn sleep(&mut self, ms: u64) {
        self.call(Api::Sleep, args![ms]);
    }

    /// `GetTickCount`.
    pub fn tick_count(&mut self) -> u64 {
        self.call(Api::GetTickCount, args![]).as_u64().unwrap_or(0)
    }

    /// `IsDebuggerPresent`.
    pub fn is_debugger_present(&mut self) -> bool {
        self.call(Api::IsDebuggerPresent, args![]).truthy()
    }

    /// `CheckRemoteDebuggerPresent`.
    pub fn check_remote_debugger(&mut self) -> bool {
        self.call(Api::CheckRemoteDebuggerPresent, args![]).truthy()
    }

    /// `NtQueryInformationProcess(ProcessDebugPort)`.
    pub fn debug_port_set(&mut self) -> bool {
        self.call(Api::NtQueryInformationProcess, args!["DebugPort"]).truthy()
    }

    /// Image name of the parent process.
    pub fn parent_image(&mut self) -> String {
        self.call(Api::NtQueryInformationProcess, args!["ParentImage"])
            .as_str()
            .unwrap_or("")
            .to_owned()
    }

    /// `EnumProcesses`: images of all live processes.
    pub fn process_list(&mut self) -> Vec<Arc<str>> {
        strings(self.call(Api::EnumProcesses, args![]))
    }

    /// Whether any live process has the given image name.
    pub fn process_running(&mut self, image: &str) -> bool {
        self.process_list().iter().any(|p| p.eq_ignore_ascii_case(image))
    }

    /// Full Toolhelp32 walk: `CreateToolhelp32Snapshot` + `Process32Next`
    /// until exhaustion (the enumeration style most real malware uses).
    pub fn toolhelp_process_list(&mut self) -> Vec<Arc<str>> {
        let handle = self.call(Api::CreateToolhelp32Snapshot, args![]).as_u64().unwrap_or(0);
        let mut out = Vec::new();
        while let Value::Str(image) = self.call(Api::Process32Next, args![handle]) {
            out.push(image);
        }
        out
    }

    /// `WriteProcessMemory` + remote thread: inject into a target pid.
    pub fn inject_into(&mut self, pid: Pid) -> bool {
        self.call(Api::WriteProcessMemory, args![u64::from(pid)]).truthy()
    }

    // ---------- modules ----------

    /// `GetModuleHandle` != NULL.
    pub fn module_loaded(&mut self, name: &str) -> bool {
        self.call(Api::GetModuleHandle, args![name]).as_u64().unwrap_or(0) != 0
    }

    /// `GetModuleFileName(NULL)`: own executable path.
    pub fn own_path(&mut self) -> String {
        self.call(Api::GetModuleFileName, args![]).as_str().unwrap_or("").to_owned()
    }

    /// `GetProcAddress(GetModuleHandle(module), proc)` != NULL.
    pub fn proc_address_exists(&mut self, module: &str, proc: &str) -> bool {
        self.call(Api::GetProcAddress, args![module, proc]).as_u64().unwrap_or(0) != 0
    }

    // ---------- system information ----------

    /// `GetSystemInfo` logical processor count.
    pub fn cpu_count(&mut self) -> u64 {
        self.call(Api::GetSystemInfo, args![]).as_u64().unwrap_or(0)
    }

    /// `GlobalMemoryStatusEx` physical memory in MiB.
    pub fn memory_mb(&mut self) -> u64 {
        self.call(Api::GlobalMemoryStatusEx, args![]).as_u64().unwrap_or(0)
    }

    /// `NtQuerySystemInformation(SystemRegistryQuotaInformation)`.
    pub fn registry_quota_bytes(&mut self) -> u64 {
        self.call(Api::NtQuerySystemInformation, args!["RegistryQuota"]).as_u64().unwrap_or(0)
    }

    /// `NtQuerySystemInformation(SystemProcessInformation)` image list.
    pub fn nt_process_list(&mut self) -> Vec<Arc<str>> {
        strings(self.call(Api::NtQuerySystemInformation, args!["ProcessInformation"]))
    }

    /// `GetUserName`.
    pub fn user_name(&mut self) -> String {
        self.call(Api::GetUserName, args![]).as_str().unwrap_or("").to_owned()
    }

    /// `GetComputerName`.
    pub fn computer_name(&mut self) -> String {
        self.call(Api::GetComputerName, args![]).as_str().unwrap_or("").to_owned()
    }

    /// `GetCursorPos`.
    pub fn cursor_pos(&mut self) -> (i64, i64) {
        match self.call(Api::GetCursorPos, args![]) {
            Value::List(l) if l.len() == 2 => {
                (l[0].as_i64().unwrap_or(0), l[1].as_i64().unwrap_or(0))
            }
            _ => (0, 0),
        }
    }

    /// `GetAdaptersInfo` first MAC address string.
    pub fn mac_address(&mut self) -> String {
        self.call(Api::GetAdaptersInfo, args![]).as_str().unwrap_or("").to_owned()
    }

    /// `IsNativeVhdBoot`: `None` when the API is unavailable (Win7).
    pub fn is_native_vhd_boot(&mut self) -> Option<bool> {
        match self.call(Api::IsNativeVhdBoot, args![]) {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    // ---------- GUI ----------

    /// `FindWindow(class, NULL)`.
    pub fn find_window_class(&mut self, class: &str) -> bool {
        self.call(Api::FindWindow, args![class, ""]).truthy()
    }

    // ---------- network ----------

    /// `DnsQuery`; returns the resolved address string.
    pub fn dns_resolve(&mut self, domain: &str) -> Option<Arc<str>> {
        match self.call(Api::DnsQuery, args![domain]) {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// HTTP GET to a domain; returns the status code.
    pub fn http_get(&mut self, domain: &str) -> Option<u16> {
        match self.call(Api::InternetOpenUrl, args![domain]).as_u64() {
            Some(0) | None => None,
            Some(code) => Some(code as u16),
        }
    }

    /// `DnsGetCacheDataTable`: cached domains.
    pub fn dns_cache_table(&mut self) -> Vec<Arc<str>> {
        strings(self.call(Api::DnsGetCacheDataTable, args![]))
    }

    // ---------- event log / shell / sync ----------

    /// `EvtNext` over the System channel: sources of up to `limit` recent
    /// events.
    pub fn system_events(&mut self, limit: u64) -> Vec<Arc<str>> {
        strings(self.call(Api::EvtNext, args![limit]))
    }

    /// `CreateMutex`; returns `true` when the mutex already existed (the
    /// infection-marker signal).
    pub fn create_mutex(&mut self, name: &str) -> bool {
        self.call(Api::CreateMutex, args![name]).as_u64() == Some(2)
    }

    /// Raises a handled exception and measures the dispatch round-trip in
    /// cycles (the Section II-B(g) probe).
    pub fn exception_dispatch_cycles(&mut self) -> u64 {
        self.call(Api::RaiseException, args![]).as_u64().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::program::ProcessCtx;
    use crate::system::System;

    fn ctx_machine() -> (Machine, Pid) {
        let mut m = Machine::new(System::new());
        let pid = m.add_system_process("probe.exe");
        (m, pid)
    }

    #[test]
    fn registry_wrappers() {
        let (mut m, pid) = ctx_machine();
        m.system_mut().registry.create_key(r"HKLM\SOFTWARE\Oracle\VirtualBox Guest Additions");
        let mut ctx = ProcessCtx::new(&mut m, pid);
        assert!(ctx.reg_key_exists(r"HKLM\SOFTWARE\Oracle\VirtualBox Guest Additions"));
        assert!(!ctx.reg_key_exists(r"HKLM\SOFTWARE\VMware, Inc.\VMware Tools"));
        ctx.reg_set_value(r"HKLM\X", "v", "1");
        assert_eq!(ctx.reg_value(r"HKLM\X", "v").unwrap().as_str(), Some("1"));
        assert!(ctx.reg_value(r"HKLM\X", "missing").is_none());
    }

    #[test]
    fn file_and_disk_wrappers() {
        let (mut m, pid) = ctx_machine();
        m.system_mut().fs.create(r"C:\Windows\System32\drivers\vmmouse.sys", 1, "vm");
        let mut ctx = ProcessCtx::new(&mut m, pid);
        assert!(ctx.file_exists(r"C:\Windows\System32\drivers\vmmouse.sys"));
        assert!(!ctx.file_exists(r"C:\nope.sys"));
        assert!(ctx.file_attributes_valid(r"C:\Windows\System32\drivers\vmmouse.sys"));
        let total = ctx.disk_total_bytes('C').unwrap();
        assert_eq!(total, 256 << 30);
    }

    #[test]
    fn process_wrappers() {
        let (mut m, pid) = ctx_machine();
        m.add_system_process("VBoxService.exe");
        let mut ctx = ProcessCtx::new(&mut m, pid);
        assert!(ctx.process_running("vboxservice.exe"));
        assert!(!ctx.process_running("ollydbg.exe"));
        assert!(!ctx.is_debugger_present());
        assert_eq!(ctx.parent_image(), "System");
    }

    #[test]
    fn network_wrappers() {
        let (mut m, pid) = ctx_machine();
        m.system_mut().network.add_host("a.example.com", [1, 2, 3, 4]);
        let mut ctx = ProcessCtx::new(&mut m, pid);
        assert_eq!(ctx.dns_resolve("a.example.com").as_deref(), Some("1.2.3.4"));
        assert_eq!(ctx.dns_resolve("missing.test"), None);
        assert_eq!(ctx.http_get("missing.test"), None);
        assert_eq!(ctx.dns_cache_table(), [Arc::from("a.example.com")]);
    }

    #[test]
    fn mutex_wrapper_reports_existing() {
        let (mut m, pid) = ctx_machine();
        let mut ctx = ProcessCtx::new(&mut m, pid);
        assert!(!ctx.create_mutex("Global\\MsWinZonesCacheCounterMutexA"));
        assert!(ctx.create_mutex("Global\\MsWinZonesCacheCounterMutexA"));
    }

    #[test]
    fn event_wrappers() {
        let (mut m, pid) = ctx_machine();
        m.system_mut().eventlog.seed(50, &["SCM", "Kernel-General"]);
        let mut ctx = ProcessCtx::new(&mut m, pid);
        assert_eq!(ctx.system_events(10_000).len(), 50);
        assert_eq!(ctx.system_events(10).len(), 10);
    }
}
