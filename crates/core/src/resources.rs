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
    const ALL: [Category; 11] = [
        Category::File,
        Category::Device,
        Category::Process,
        Category::Dll,
        Category::Window,
        Category::Registry,
        Category::Hardware,
        Category::Debugger,
        Category::Network,
        Category::WearTear,
        Category::Identity,
    ];

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

    /// The category named `name`, the inverse of [`Category::name`].
    pub fn from_name(name: &str) -> Option<Category> {
        Category::ALL.into_iter().find(|c| c.name() == name)
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

/// The deceptive resource database.
#[derive(Debug, Clone, Default)]
pub struct ResourceDb {
    files: HashMap<String, Profile>,
    devices: HashMap<String, Profile>,
    /// Deceptive processes in first-added order; `process_index` maps each
    /// lower-cased name to its entry, so a profile is stored once.
    processes: Vec<(String, Profile)>,
    process_index: HashMap<String, usize>,
    /// Deceptive DLLs, stored like the processes.
    dlls: Vec<(String, Profile)>,
    dll_index: HashMap<String, usize>,
    windows: HashMap<String, Profile>,
    reg_keys: HashMap<String, Profile>,
    reg_values: HashMap<(String, String), (String, Profile)>,
    exports: HashMap<String, Profile>,
}

fn norm_path(p: &str) -> String {
    p.replace('/', "\\").trim_end_matches('\\').to_ascii_lowercase()
}

/// Adds `name` to an ordered list with a case-insensitive index, or
/// updates the profile of the entry it already names.
fn upsert(
    list: &mut Vec<(String, Profile)>,
    index: &mut HashMap<String, usize>,
    name: &str,
    profile: Profile,
) {
    let i = *index.entry(name.to_ascii_lowercase()).or_insert_with(|| {
        list.push((name.to_owned(), profile));
        list.len() - 1
    });
    list[i].1 = profile;
}

/// The profile of `name` in a list built by [`upsert`].
fn lookup(
    list: &[(String, Profile)],
    index: &HashMap<String, usize>,
    name: &str,
) -> Option<Profile> {
    index.get(&name.to_ascii_lowercase()).map(|&i| list[i].1)
}

impl ResourceDb {
    /// An empty database.
    pub fn new() -> Self {
        ResourceDb::default()
    }

    // ----- builders -----

    /// Adds a deceptive file or folder path.
    pub fn add_file(&mut self, path: &str, profile: Profile) {
        self.files.insert(norm_path(path), profile);
    }

    /// Adds a deceptive device (`\\.\name`).
    pub fn add_device(&mut self, name: &str, profile: Profile) {
        self.devices.insert(name.to_ascii_lowercase(), profile);
    }

    /// Adds a deceptive process name. Re-adding a name (in any casing)
    /// keeps its first spelling and list position but takes the new
    /// profile.
    pub fn add_process(&mut self, image: &str, profile: Profile) {
        upsert(&mut self.processes, &mut self.process_index, image, profile);
    }

    /// Adds a deceptive DLL name, re-adds resolved like
    /// [`ResourceDb::add_process`].
    pub fn add_dll(&mut self, name: &str, profile: Profile) {
        upsert(&mut self.dlls, &mut self.dll_index, name, profile);
    }

    /// Adds a deceptive window class.
    pub fn add_window(&mut self, class: &str, profile: Profile) {
        self.windows.insert(class.to_ascii_lowercase(), profile);
    }

    /// Adds a deceptive registry key.
    pub fn add_reg_key(&mut self, path: &str, profile: Profile) {
        self.reg_keys.insert(norm_path(path), profile);
    }

    /// Adds a deceptive registry value (its key becomes deceptive too).
    pub fn add_reg_value(&mut self, path: &str, name: &str, data: &str, profile: Profile) {
        self.add_reg_key(path, profile);
        self.reg_values
            .insert((norm_path(path), name.to_ascii_lowercase()), (data.to_owned(), profile));
    }

    /// Adds a deceptive `GetProcAddress` export (`module!proc`).
    pub fn add_export(&mut self, module: &str, proc: &str, profile: Profile) {
        self.exports.insert(format!("{}!{proc}", module.to_ascii_lowercase()), profile);
    }

    // ----- queries (hot path for the hook handlers) -----

    /// Matches a file/folder path, exactly or as a parent folder of the
    /// entry (querying `C:\analysis` matches an entry under it).
    pub fn file(&self, path: &str) -> Option<Profile> {
        let n = norm_path(path);
        if let Some(p) = self.files.get(&n) {
            return Some(*p);
        }
        // folder query: does any deceptive entry live under this path?
        let prefix = format!("{n}\\");
        self.files.iter().find(|(k, _)| k.starts_with(&prefix)).map(|(_, p)| *p)
    }

    /// Iterates over all deceptive file paths (normalized lowercase) with
    /// their profiles — used by glob-style file enumeration hooks.
    pub fn files_iter(&self) -> impl Iterator<Item = (&str, Profile)> {
        self.files.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Matches a device name.
    pub fn device(&self, name: &str) -> Option<Profile> {
        self.devices.get(&name.to_ascii_lowercase()).copied()
    }

    /// Matches a process image name.
    pub fn process(&self, image: &str) -> Option<Profile> {
        lookup(&self.processes, &self.process_index, image)
    }

    /// Every deceptive process with its profile, in first-added order
    /// (merged into process enumerations).
    pub fn processes(&self) -> &[(String, Profile)] {
        &self.processes
    }

    /// Matches a DLL name.
    pub fn dll(&self, name: &str) -> Option<Profile> {
        lookup(&self.dlls, &self.dll_index, name)
    }

    /// Every deceptive DLL with its profile, in first-added order.
    pub fn dlls(&self) -> &[(String, Profile)] {
        &self.dlls
    }

    /// Matches a window class or title.
    pub fn window(&self, class_or_title: &str) -> Option<Profile> {
        self.windows.get(&class_or_title.to_ascii_lowercase()).copied()
    }

    /// Matches a registry key path.
    pub fn reg_key(&self, path: &str) -> Option<Profile> {
        self.reg_keys.get(&norm_path(path)).copied()
    }

    /// Matches a registry value; returns its deceptive data.
    pub fn reg_value(&self, path: &str, name: &str) -> Option<(&str, Profile)> {
        self.reg_values
            .get(&(norm_path(path), name.to_ascii_lowercase()))
            .map(|(d, p)| (d.as_str(), *p))
    }

    /// Matches an export.
    pub fn export(&self, module: &str, proc: &str) -> Option<Profile> {
        self.exports.get(&format!("{}!{proc}", module.to_ascii_lowercase())).copied()
    }

    /// A copy of the database containing only resources of the given
    /// profiles (used by the deception-breadth ablation: e.g. a
    /// debugger-profile-only engine).
    pub fn filter_profiles(&self, keep: &[Profile]) -> ResourceDb {
        let keeps = |p: &Profile| keep.contains(p);
        let mut out = ResourceDb::new();
        out.files =
            self.files.iter().filter(|(_, p)| keeps(p)).map(|(k, p)| (k.clone(), *p)).collect();
        out.devices =
            self.devices.iter().filter(|(_, p)| keeps(p)).map(|(k, p)| (k.clone(), *p)).collect();
        for (name, p) in self.processes.iter().filter(|(_, p)| keeps(p)) {
            out.add_process(name, *p);
        }
        for (name, p) in self.dlls.iter().filter(|(_, p)| keeps(p)) {
            out.add_dll(name, *p);
        }
        out.windows =
            self.windows.iter().filter(|(_, p)| keeps(p)).map(|(k, p)| (k.clone(), *p)).collect();
        out.reg_keys =
            self.reg_keys.iter().filter(|(_, p)| keeps(p)).map(|(k, p)| (k.clone(), *p)).collect();
        out.reg_values = self
            .reg_values
            .iter()
            .filter(|(_, (_, p))| keeps(p))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        out.exports =
            self.exports.iter().filter(|(_, p)| keeps(p)).map(|(k, p)| (k.clone(), *p)).collect();
        out
    }

    /// Database cardinalities.
    pub fn stats(&self) -> ResourceStats {
        ResourceStats {
            files: self.files.len(),
            devices: self.devices.len(),
            processes: self.processes.len(),
            dlls: self.dlls.len(),
            windows: self.windows.len(),
            reg_keys: self.reg_keys.len(),
            reg_values: self.reg_values.len(),
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
    fn category_names_round_trip() {
        for c in Category::ALL {
            assert_eq!(Category::from_name(c.name()), Some(c));
        }
        assert_eq!(Category::from_name("not-a-category"), None);
    }

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
        assert_eq!(db.file(r"c:\windows\system32\drivers\VMMOUSE.SYS"), Some(Profile::VMware));
        // querying the folder that contains a deceptive entry also matches
        assert_eq!(db.file(r"C:\analysis"), Some(Profile::Generic));
        assert_eq!(db.file(r"C:\Program Files\Oracle"), Some(Profile::VirtualBox));
        assert_eq!(db.file(r"C:\legit\app.exe"), None);
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
        assert_eq!(ext.file(r"C:\Windows\System32\drivers\xen.sys"), Some(Profile::Xen));
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
        assert_eq!(db.processes(), [("VBoxService.exe".to_owned(), Profile::PublicSandbox)]);
        assert_eq!(db.dll("sbiedll.dll"), Some(Profile::PublicSandbox));
        assert_eq!(db.dlls(), [("SbieDll.dll".to_owned(), Profile::PublicSandbox)]);
        let kept = db.filter_profiles(&[Profile::PublicSandbox]);
        assert_eq!(kept.process("VBoxService.exe"), Some(Profile::PublicSandbox));
        assert_eq!(kept.dll("SbieDll.dll"), Some(Profile::PublicSandbox));
        let dropped = db.filter_profiles(&[Profile::VirtualBox, Profile::Sandboxie]);
        assert_eq!(dropped.stats().processes + dropped.stats().dlls, 0);
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
