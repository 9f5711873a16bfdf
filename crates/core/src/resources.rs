//! The deceptive resource database (Section II-B and II-C).
//!
//! Every entry answers one question an evasive sample might ask — "does
//! `vmmouse.sys` exist?", "is `VBoxService.exe` running?", "is
//! `SbieDll.dll` loaded?" — with the answer an analysis environment would
//! give. The curated core ([`ResourceDb::builtin`]) covers the resources
//! the paper enumerates (24 processes, 15 DLLs, 6 debugger + 4 sandbox
//! windows, VM registry keys and driver files); the crawler
//! ([`crate::crawler`]) extends it with the unique artifacts of public
//! online sandboxes (17,540 files, 24 processes, 1,457 registry entries).

use std::collections::HashMap;

use crate::profiles::Profile;
use winsim::env::{SCSI_KEY, SYSTEM_BIOS_KEY};

/// What kind of resource a trigger touched (used in reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Deceptive files and folders.
    File,
    /// Deceptive device namespace entries.
    Device,
    /// Deceptive (and protected) processes.
    Process,
    /// Deceptive loaded libraries.
    Dll,
    /// Deceptive GUI windows.
    Window,
    /// Deceptive registry keys and values.
    Registry,
    /// Faked hardware configuration.
    Hardware,
    /// Debugger presence lies.
    Debugger,
    /// Sinkholed network resources.
    Network,
    /// Faked wear-and-tear artifacts.
    WearTear,
    /// Sample-identity deception (fake path/user/computer/parent).
    Identity,
}

impl Category {
    /// Stable lower-case name (also the `Display` form).
    pub fn name(self) -> &'static str {
        match self {
            Category::File => "file",
            Category::Device => "device",
            Category::Process => "process",
            Category::Dll => "dll",
            Category::Window => "window",
            Category::Registry => "registry",
            Category::Hardware => "hardware",
            Category::Debugger => "debugger",
            Category::Network => "network",
            Category::WearTear => "wear-and-tear",
            Category::Identity => "identity",
        }
    }
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Aggregate size of the database, for reports and the Section II-C
/// cardinality checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceStats {
    /// Deceptive file/folder paths.
    pub files: usize,
    /// Deceptive device names.
    pub devices: usize,
    /// Deceptive process names.
    pub processes: usize,
    /// Deceptive DLL names.
    pub dlls: usize,
    /// Deceptive window classes.
    pub windows: usize,
    /// Deceptive registry keys.
    pub reg_keys: usize,
    /// Deceptive registry values.
    pub reg_values: usize,
}

/// One deceptive resource: its name as first added, the profile that
/// plants it, and the data it answers with (a registry value's data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry<D = ()> {
    /// The resource as first spelled — what a listing shows.
    pub name: String,
    /// The profile whose environment the resource belongs to.
    pub profile: Profile,
    /// The normalized key lookups match.
    key: String,
    data: D,
}

/// One kind of deceptive resource: its entries in first-added order and
/// an index from each entry's normalized key to its position.
#[derive(Debug, Clone, Default)]
struct Table<D = ()> {
    entries: Vec<Entry<D>>,
    index: HashMap<String, usize>,
}

impl<D: Clone> Table<D> {
    /// Adds an entry under its normalized `key`; a re-add keeps the first
    /// spelling and position and takes the new profile and data.
    fn add(&mut self, key: String, name: &str, profile: Profile, data: D) {
        if let Some(&i) = self.index.get(&key) {
            let e = &mut self.entries[i];
            (e.profile, e.data) = (profile, data);
            return;
        }
        self.index.insert(key.clone(), self.entries.len());
        self.entries.push(Entry { name: name.to_owned(), profile, key, data });
    }

    fn get(&self, key: &str) -> Option<&Entry<D>> {
        self.index.get(key).map(|&i| &self.entries[i])
    }

    fn profile(&self, key: &str) -> Option<Profile> {
        self.get(key).map(|e| e.profile)
    }

    /// The entries of the `keep` profiles, in the same order.
    fn filter(&self, keep: &[Profile]) -> Table<D> {
        let mut out = Table { entries: Vec::new(), index: HashMap::new() };
        for e in self.entries.iter().filter(|e| keep.contains(&e.profile)) {
            out.add(e.key.clone(), &e.name, e.profile, e.data.clone());
        }
        out
    }
}

/// The deceptive resource database: one table per resource kind, each
/// keeping its entries in first-added order.
#[derive(Debug, Clone, Default)]
pub struct ResourceDb {
    files: Table,
    devices: Table,
    processes: Table,
    dlls: Table,
    windows: Table,
    reg_keys: Table,
    reg_values: Table<String>,
    exports: Table,
}

fn norm_path(p: &str) -> String {
    p.replace('/', "\\").trim_end_matches('\\').to_ascii_lowercase()
}

/// A registry value's key: its normalized key path and lower-cased name,
/// joined by a NUL, which neither can contain.
fn value_key(path: &str, name: &str) -> String {
    format!("{}\0{}", norm_path(path), name.to_ascii_lowercase())
}

/// An export's key: the lower-cased module, `!`, and the procedure name
/// as given (`GetProcAddress` matches procedure names exactly).
fn export_key(module: &str, proc: &str) -> String {
    format!("{}!{proc}", module.to_ascii_lowercase())
}

impl ResourceDb {
    /// An empty database.
    pub fn new() -> Self {
        ResourceDb::default()
    }

    // ----- builders: a re-add keeps the first spelling and position -----

    /// Adds a deceptive file or folder path.
    pub fn add_file(&mut self, path: &str, profile: Profile) {
        self.files.add(norm_path(path), path, profile, ());
    }

    /// Adds a deceptive device (`\\.\name`).
    pub fn add_device(&mut self, name: &str, profile: Profile) {
        self.devices.add(name.to_ascii_lowercase(), name, profile, ());
    }

    /// Adds a deceptive process name.
    pub fn add_process(&mut self, image: &str, profile: Profile) {
        self.processes.add(image.to_ascii_lowercase(), image, profile, ());
    }

    /// Adds a deceptive DLL name.
    pub fn add_dll(&mut self, name: &str, profile: Profile) {
        self.dlls.add(name.to_ascii_lowercase(), name, profile, ());
    }

    /// Adds a deceptive window class.
    pub fn add_window(&mut self, class: &str, profile: Profile) {
        self.windows.add(class.to_ascii_lowercase(), class, profile, ());
    }

    /// Adds a deceptive registry key.
    pub fn add_reg_key(&mut self, path: &str, profile: Profile) {
        self.reg_keys.add(norm_path(path), path, profile, ());
    }

    /// Adds a deceptive registry value (its key becomes deceptive too).
    pub fn add_reg_value(&mut self, path: &str, name: &str, data: &str, profile: Profile) {
        self.add_reg_key(path, profile);
        self.reg_values.add(value_key(path, name), name, profile, data.to_owned());
    }

    /// Adds a deceptive `GetProcAddress` export (`module!proc`).
    pub fn add_export(&mut self, module: &str, proc: &str, profile: Profile) {
        self.exports.add(export_key(module, proc), &format!("{module}!{proc}"), profile, ());
    }

    // ----- queries (hot path for the hook handlers) -----

    /// The profiles planted at a file/folder path: its own entry's, then
    /// those of the entries under it as a folder (querying `C:\analysis`
    /// matches an entry under it), in first-added order.
    pub fn file<'a>(&'a self, path: &str) -> impl Iterator<Item = Profile> + 'a {
        let n = norm_path(path);
        let own = self.files.profile(&n);
        let folder = format!("{n}\\");
        let under = self.files.entries.iter().filter(move |e| e.key.starts_with(&folder));
        own.into_iter().chain(under.map(|e| e.profile))
    }

    /// Every deceptive file or folder, in first-added order.
    pub fn files(&self) -> &[Entry] {
        &self.files.entries
    }

    /// Matches a device name.
    pub fn device(&self, name: &str) -> Option<Profile> {
        self.devices.profile(&name.to_ascii_lowercase())
    }

    /// Matches a process image name.
    pub fn process(&self, image: &str) -> Option<Profile> {
        self.processes.profile(&image.to_ascii_lowercase())
    }

    /// Every deceptive process, in first-added order.
    pub fn processes(&self) -> &[Entry] {
        &self.processes.entries
    }

    /// Matches a DLL name.
    pub fn dll(&self, name: &str) -> Option<Profile> {
        self.dlls.profile(&name.to_ascii_lowercase())
    }

    /// Every deceptive DLL, in first-added order.
    pub fn dlls(&self) -> &[Entry] {
        &self.dlls.entries
    }

    /// Matches a window class or title.
    pub fn window(&self, class_or_title: &str) -> Option<Profile> {
        self.windows.profile(&class_or_title.to_ascii_lowercase())
    }

    /// Matches a registry key path.
    pub fn reg_key(&self, path: &str) -> Option<Profile> {
        self.reg_keys.profile(&norm_path(path))
    }

    /// Matches a registry value; returns its deceptive data.
    pub fn reg_value(&self, path: &str, name: &str) -> Option<(&str, Profile)> {
        self.reg_values.get(&value_key(path, name)).map(|e| (e.data.as_str(), e.profile))
    }

    /// Matches an export.
    pub fn export(&self, module: &str, proc: &str) -> Option<Profile> {
        self.exports.profile(&export_key(module, proc))
    }

    /// A copy of the database containing only resources of the given
    /// profiles, in the same order (used by the deception-breadth
    /// ablation: e.g. a debugger-profile-only engine).
    pub fn filter_profiles(&self, keep: &[Profile]) -> ResourceDb {
        ResourceDb {
            files: self.files.filter(keep),
            devices: self.devices.filter(keep),
            processes: self.processes.filter(keep),
            dlls: self.dlls.filter(keep),
            windows: self.windows.filter(keep),
            reg_keys: self.reg_keys.filter(keep),
            reg_values: self.reg_values.filter(keep),
            exports: self.exports.filter(keep),
        }
    }

    /// Database cardinalities.
    pub fn stats(&self) -> ResourceStats {
        ResourceStats {
            files: self.files.entries.len(),
            devices: self.devices.entries.len(),
            processes: self.processes.entries.len(),
            dlls: self.dlls.entries.len(),
            windows: self.windows.entries.len(),
            reg_keys: self.reg_keys.entries.len(),
            reg_values: self.reg_values.entries.len(),
        }
    }

    // ----- curated content -----

    /// The manually curated core database described in Section II-B.
    pub fn builtin() -> Self {
        let mut db = ResourceDb::new();

        // (a) files & folders — VM drivers, guest-addition trees, sandbox
        // folders, popular debugger installs.
        for f in
            [r"C:\Windows\System32\drivers\vmmouse.sys", r"C:\Windows\System32\drivers\vmhgfs.sys"]
        {
            db.add_file(f, Profile::VMware);
        }
        for f in [
            r"C:\Windows\System32\drivers\VBoxMouse.sys",
            r"C:\Windows\System32\drivers\VBoxGuest.sys",
            r"C:\Windows\System32\drivers\VBoxSF.sys",
            r"C:\Windows\System32\drivers\VBoxVideo.sys",
            r"C:\Windows\System32\vboxdisp.dll",
            r"C:\Program Files\Oracle\VirtualBox Guest Additions\VBoxControl.exe",
        ] {
            db.add_file(f, Profile::VirtualBox);
        }
        for f in [
            r"C:\analysis\sample.exe",
            r"C:\sandbox\starter.exe",
            r"C:\iDEFENSE\SysAnalyzer\sniff_hit.exe",
        ] {
            db.add_file(f, Profile::Generic);
        }
        for f in [
            r"C:\Program Files\OllyDbg\OLLYDBG.EXE",
            r"C:\Program Files\IDA\idaq.exe",
            r"C:\Program Files\Debugging Tools for Windows (x64)\windbg.exe",
        ] {
            db.add_file(f, Profile::Debugger);
        }

        // devices: VM guest devices plus the classic SoftICE pair.
        db.add_device("VBoxGuest", Profile::VirtualBox);
        db.add_device("VBoxMiniRdrDN", Profile::VirtualBox);
        db.add_device("vmci", Profile::VMware);
        db.add_device("SICE", Profile::Debugger);
        db.add_device("NTICE", Profile::Debugger);

        // (b) the 24 deceptive/protected processes ("olydbg.exe, idap.exe,
        // and PETools.exe" are named in the paper).
        for p in [
            ("olydbg.exe", Profile::Debugger),
            ("idap.exe", Profile::Debugger),
            ("PETools.exe", Profile::Debugger),
            ("windbg.exe", Profile::Debugger),
            ("x32dbg.exe", Profile::Debugger),
            ("x64dbg.exe", Profile::Debugger),
            ("ImmunityDebugger.exe", Profile::Debugger),
            ("idaq.exe", Profile::Debugger),
            ("idaq64.exe", Profile::Debugger),
            ("apimonitor.exe", Profile::Debugger),
            ("wireshark.exe", Profile::Generic),
            ("dumpcap.exe", Profile::Generic),
            ("procmon.exe", Profile::Generic),
            ("procexp.exe", Profile::Generic),
            ("regmon.exe", Profile::Generic),
            ("filemon.exe", Profile::Generic),
            ("autorunsc.exe", Profile::Generic),
            ("tcpview.exe", Profile::Generic),
            ("VBoxService.exe", Profile::VirtualBox),
            ("VBoxTray.exe", Profile::VirtualBox),
            ("SbieSvc.exe", Profile::Sandboxie),
            ("SbieCtrl.exe", Profile::Sandboxie),
            ("joeboxcontrol.exe", Profile::Cuckoo),
            ("joeboxserver.exe", Profile::Cuckoo),
        ] {
            db.add_process(p.0, p.1);
        }

        // (c) the 15 unique DLLs.
        for d in [
            ("SbieDll.dll", Profile::Sandboxie),
            ("cuckoomon.dll", Profile::Cuckoo),
            ("api_log.dll", Profile::Generic),
            ("dir_watch.dll", Profile::Generic),
            ("pstorec.dll", Profile::Generic),
            ("vmcheck.dll", Profile::Generic),
            ("wpespy.dll", Profile::Generic),
            ("cmdvrt32.dll", Profile::Generic),
            ("cmdvrt64.dll", Profile::Generic),
            ("snxhk.dll", Profile::Generic),
            ("sxin.dll", Profile::Generic),
            ("sf2.dll", Profile::Generic),
            ("deploy.dll", Profile::Generic),
            ("avghookx.dll", Profile::Generic),
            ("avghooka.dll", Profile::Generic),
        ] {
            db.add_dll(d.0, d.1);
        }

        // (d) 6 debugger windows + 4 sandbox windows.
        for w in
            ["OLLYDBG", "WinDbgFrameClass", "ID", "Zeta Debugger", "Rock Debugger", "ObsidianGUI"]
        {
            db.add_window(w, Profile::Debugger);
        }
        db.add_window("SandboxieControlWndClass", Profile::Sandboxie);
        db.add_window("CuckooAnalyzerWnd", Profile::Cuckoo);
        db.add_window("JoeSandboxWnd", Profile::Cuckoo);
        db.add_window("ThreatExpertWnd", Profile::Cuckoo);

        // (e) registry keys and values.
        db.add_reg_key(r"HKLM\SOFTWARE\VMware, Inc.\VMware Tools", Profile::VMware);
        db.add_reg_key(r"HKLM\SOFTWARE\Oracle\VirtualBox Guest Additions", Profile::VirtualBox);
        for svc in ["VBoxGuest", "VBoxMouse", "VBoxService", "VBoxSF"] {
            db.add_reg_key(
                &format!(r"HKLM\SYSTEM\ControlSet001\Services\{svc}"),
                Profile::VirtualBox,
            );
        }
        db.add_reg_key(r"HKLM\SOFTWARE\Wine", Profile::Wine);
        db.add_reg_key(r"HKLM\SOFTWARE\Sandboxie", Profile::Sandboxie);
        db.add_reg_key(r"HKLM\SYSTEM\CurrentControlSet\Services\SbieDrv", Profile::Sandboxie);
        db.add_reg_value(
            r"HKLM\SYSTEM\CurrentControlSet\Enum\IDE",
            "0",
            r"DiskVBOX_HARDDISK____________________________1.0_____",
            Profile::VirtualBox,
        );
        // SMBIOS configuration values: "SCARECROW also fakes such
        // configuration values by combining multiple virtual machine names"
        // — each value carries one platform's string so profiles stay
        // internally consistent.
        db.add_reg_value(SYSTEM_BIOS_KEY, "SystemBiosVersion", "VBOX   - 1", Profile::VirtualBox);
        db.add_reg_value(
            SYSTEM_BIOS_KEY,
            "VideoBiosVersion",
            "Oracle VM VirtualBox - VIRTUALBOX",
            Profile::VirtualBox,
        );
        db.add_reg_value(SYSTEM_BIOS_KEY, "SystemBiosDate", "01/01/2007", Profile::Bochs);
        db.add_reg_value(SCSI_KEY, "Identifier", "QEMU HARDDISK", Profile::Qemu);

        // Wine's tell-tale kernel32 export.
        db.add_export("kernel32.dll", "wine_get_unix_file_name", Profile::Wine);

        db
    }

    /// The curated core plus extended platform profiles (Parallels, Xen,
    /// Hyper-V). The paper's cardinalities (24 processes, 15 DLLs, …)
    /// describe [`ResourceDb::builtin`]; the extension broadens coverage
    /// for deployments that want every virtualization stack represented.
    pub fn extended() -> Self {
        let mut db = ResourceDb::builtin();
        // Parallels Desktop guest tools
        db.add_reg_key(r"HKLM\SOFTWARE\Parallels\Tools", Profile::Parallels);
        db.add_file(r"C:\Windows\System32\drivers\prl_mouse.sys", Profile::Parallels);
        db.add_file(r"C:\Windows\System32\drivers\prl_fs.sys", Profile::Parallels);
        db.add_process("prl_cc.exe", Profile::Parallels);
        db.add_process("prl_tools.exe", Profile::Parallels);
        db.add_device("prl_tg", Profile::Parallels);
        // Xen paravirtual drivers
        db.add_reg_key(r"HKLM\SYSTEM\CurrentControlSet\Services\xenevtchn", Profile::Xen);
        db.add_reg_key(r"HKLM\SYSTEM\CurrentControlSet\Services\xenvbd", Profile::Xen);
        db.add_file(r"C:\Windows\System32\drivers\xen.sys", Profile::Xen);
        db.add_process("xenservice.exe", Profile::Xen);
        // Hyper-V integration services
        db.add_reg_key(
            r"HKLM\SOFTWARE\Microsoft\Virtual Machine\Guest\Parameters",
            Profile::HyperV,
        );
        db.add_reg_key(r"HKLM\SYSTEM\CurrentControlSet\Services\vmicheartbeat", Profile::HyperV);
        db.add_process("vmicsvc.exe", Profile::HyperV);
        db.add_dll("vmbuspipe.dll", Profile::HyperV);
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_cardinalities_match_the_paper() {
        let db = ResourceDb::builtin();
        let s = db.stats();
        assert_eq!(s.processes, 24, "Section II-B(b): 24 processes");
        assert_eq!(s.dlls, 15, "Section II-B(c): 15 unique DLLs");
        assert_eq!(s.windows, 10, "Section II-B(d): 6 debugger + 4 sandbox windows");
        assert!(s.files >= 10);
        assert!(s.reg_keys >= 10);
    }

    #[test]
    fn file_lookup_is_case_insensitive_and_folder_aware() {
        let db = ResourceDb::builtin();
        assert_eq!(
            db.file(r"c:\windows\system32\drivers\VMMOUSE.SYS").next(),
            Some(Profile::VMware)
        );
        // querying the folder that contains a deceptive entry also matches
        assert_eq!(db.file(r"C:\analysis").next(), Some(Profile::Generic));
        assert_eq!(db.file(r"C:\Program Files\Oracle").next(), Some(Profile::VirtualBox));
        assert_eq!(db.file(r"C:\legit\app.exe").next(), None);
    }

    #[test]
    fn a_folder_query_answers_with_the_first_added_entry_under_it() {
        // every fresh instance answers alike: vmmouse.sys is the first
        // entry added under drivers
        for _ in 0..32 {
            let db = ResourceDb::builtin();
            let drivers = r"C:\Windows\System32\drivers";
            assert_eq!(db.file(drivers).next(), Some(Profile::VMware));
            assert_eq!(
                db.file(drivers).find(|&p| p == Profile::VirtualBox),
                Some(Profile::VirtualBox)
            );
            assert_eq!(db.file(drivers).find(|&p| p == Profile::Wine), None);
        }
    }

    #[test]
    fn registry_value_overrides() {
        let db = ResourceDb::builtin();
        let (data, profile) =
            db.reg_value(r"hklm\hardware\description\system", "systembiosversion").unwrap();
        assert!(data.contains("VBOX"));
        assert_eq!(profile, Profile::VirtualBox);
        assert!(db.reg_value(r"HKLM\X", "y").is_none());
        // the value's key is openable too
        assert!(db.reg_key(r"HKLM\HARDWARE\Description\System").is_some());
    }

    #[test]
    fn lookups_cover_all_kinds() {
        let db = ResourceDb::builtin();
        assert_eq!(db.process("OLYDBG.EXE"), Some(Profile::Debugger));
        assert_eq!(db.dll("sbiedll.dll"), Some(Profile::Sandboxie));
        assert_eq!(db.window("ollydbg"), Some(Profile::Debugger));
        assert_eq!(db.device("sice"), Some(Profile::Debugger));
        assert_eq!(db.export("KERNEL32.DLL", "wine_get_unix_file_name"), Some(Profile::Wine));
        assert_eq!(db.export("kernel32.dll", "CreateFileA"), None);
    }

    #[test]
    fn extended_db_adds_platforms_without_touching_core_cardinalities() {
        let core = ResourceDb::builtin();
        let ext = ResourceDb::extended();
        assert_eq!(ext.reg_key(r"HKLM\SOFTWARE\Parallels\Tools"), Some(Profile::Parallels));
        assert_eq!(ext.process("PRL_CC.EXE"), Some(Profile::Parallels));
        assert_eq!(ext.device("prl_tg"), Some(Profile::Parallels));
        assert_eq!(ext.file(r"C:\Windows\System32\drivers\xen.sys").next(), Some(Profile::Xen));
        assert_eq!(ext.dll("vmbuspipe.dll"), Some(Profile::HyperV));
        assert!(ext.stats().processes > core.stats().processes);
        // the paper-exact core is untouched
        assert_eq!(core.reg_key(r"HKLM\SOFTWARE\Parallels\Tools"), None);
        assert_eq!(core.stats().processes, 24);
    }

    #[test]
    fn filter_profiles_keeps_only_requested_platforms() {
        let db = ResourceDb::builtin();
        let dbg = db.filter_profiles(&[Profile::Debugger]);
        assert_eq!(dbg.process("olydbg.exe"), Some(Profile::Debugger));
        assert_eq!(dbg.reg_key(r"HKLM\SOFTWARE\VMware, Inc.\VMware Tools"), None);
        assert_eq!(dbg.dll("SbieDll.dll"), None);
        assert!(dbg.stats().processes < db.stats().processes);
        assert_eq!(dbg.device("SICE"), Some(Profile::Debugger));
    }

    #[test]
    fn re_adding_under_another_profile_keeps_every_view_in_agreement() {
        let mut db = ResourceDb::new();
        db.add_process("VBoxService.exe", Profile::VirtualBox);
        db.add_process("vboxservice.exe", Profile::PublicSandbox);
        db.add_dll("SbieDll.dll", Profile::Sandboxie);
        db.add_dll("SBIEDLL.DLL", Profile::PublicSandbox);
        assert_eq!(db.process("VBOXSERVICE.EXE"), Some(Profile::PublicSandbox));
        let listed = |entries: &[Entry]| -> Vec<(String, Profile)> {
            entries.iter().map(|e| (e.name.clone(), e.profile)).collect()
        };
        assert_eq!(
            listed(db.processes()),
            [("VBoxService.exe".to_owned(), Profile::PublicSandbox)]
        );
        assert_eq!(db.dll("sbiedll.dll"), Some(Profile::PublicSandbox));
        assert_eq!(listed(db.dlls()), [("SbieDll.dll".to_owned(), Profile::PublicSandbox)]);
        let kept = db.filter_profiles(&[Profile::PublicSandbox]);
        assert_eq!(kept.process("VBoxService.exe"), Some(Profile::PublicSandbox));
        assert_eq!(kept.dll("SbieDll.dll"), Some(Profile::PublicSandbox));
        let dropped = db.filter_profiles(&[Profile::VirtualBox, Profile::Sandboxie]);
        assert_eq!(dropped.stats().processes + dropped.stats().dlls, 0);
    }

    #[test]
    fn re_adds_keep_first_spelling_and_position_for_every_kind() {
        let mut db = ResourceDb::new();
        db.add_file(r"C:\A\x.sys", Profile::VMware);
        db.add_file(r"C:\A\y.sys", Profile::Xen);
        db.add_file(r"c:/a/X.SYS", Profile::Qemu);
        db.add_device("SICE", Profile::Debugger);
        db.add_device("sice", Profile::Generic);
        db.add_window("OLLYDBG", Profile::Debugger);
        db.add_window("ollydbg", Profile::Cuckoo);
        db.add_reg_value(r"HKLM\K", "V", "old", Profile::Bochs);
        db.add_reg_value(r"hklm\k\", "v", "new", Profile::Qemu);
        db.add_export("Kernel32.dll", "wine_get_unix_file_name", Profile::Wine);
        db.add_export("KERNEL32.DLL", "wine_get_unix_file_name", Profile::Generic);
        let files: Vec<_> = db.files().iter().map(|e| (e.name.as_str(), e.profile)).collect();
        assert_eq!(files, [(r"C:\A\x.sys", Profile::Qemu), (r"C:\A\y.sys", Profile::Xen)]);
        assert_eq!(db.file(r"C:\A").next(), Some(Profile::Qemu));
        assert_eq!(db.device("Sice"), Some(Profile::Generic));
        assert_eq!(db.window("OllyDbg"), Some(Profile::Cuckoo));
        assert_eq!(db.reg_value(r"HKLM\K", "v"), Some(("new", Profile::Qemu)));
        assert_eq!(db.reg_key(r"HKLM\K"), Some(Profile::Qemu));
        assert_eq!(db.export("kernel32.dll", "wine_get_unix_file_name"), Some(Profile::Generic));
        // an export's procedure name matches exactly
        assert_eq!(db.export("kernel32.dll", "WINE_GET_UNIX_FILE_NAME"), None);
        let s = db.stats();
        assert_eq!((s.files, s.devices, s.windows, s.reg_keys, s.reg_values), (2, 1, 1, 1, 1));
    }

    #[test]
    fn adding_duplicates_does_not_inflate_lists() {
        let mut db = ResourceDb::new();
        db.add_process("a.exe", Profile::Generic);
        db.add_process("A.EXE", Profile::Generic);
        db.add_dll("x.dll", Profile::Generic);
        db.add_dll("X.DLL", Profile::Generic);
        assert_eq!(db.stats().processes, 1);
        assert_eq!(db.stats().dlls, 1);
    }
}
