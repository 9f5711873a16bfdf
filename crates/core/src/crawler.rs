//! Deceptive-resource collection from public sandboxes (Section II-C).
//!
//! The paper submits a crawler binary to VirusTotal and Malwr; the crawler
//! inventories files, registry keys, and processes inside the sandbox and
//! exfiltrates the inventory. Diffing the inventories against a clean
//! bare-metal system yields the artifacts *unique* to public sandboxes —
//! "17,540 files, 24 processes, and 1,457 registry entries are added to
//! SCARECROW".
//!
//! We cannot submit binaries anywhere, so the two public sandboxes are
//! simulated as [`winsim`] machines ([`public_sandbox_virustotal`],
//! [`public_sandbox_malwr`]) with plausible analysis tooling on disk, and
//! the crawl/diff pipeline runs for real against them. The synthetic
//! inventories are sized so the diff reproduces the paper's cardinalities
//! exactly.

use std::collections::BTreeSet;

use winsim::env::WearProfile;
use winsim::{DriveInfo, EnvKind, Machine, ProcState, System};

use crate::profiles::Profile;
use crate::resources::ResourceDb;

/// What the crawler sees inside one machine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Inventory {
    /// Absolute file paths.
    pub files: BTreeSet<String>,
    /// Registry key paths.
    pub reg_keys: BTreeSet<String>,
    /// Live process image names.
    pub processes: BTreeSet<String>,
}

impl Inventory {
    /// Inventories a machine the way the crawler binary does: walk the
    /// filesystem, enumerate registry keys, list processes. Paths are
    /// lower-cased so the diff compares identities, not display casing.
    pub fn collect(machine: &Machine) -> Self {
        let sys = machine.system();
        Inventory {
            files: sys.fs.iter().map(|f| f.path.to_ascii_lowercase()).collect(),
            reg_keys: sys.registry.key_paths().map(str::to_ascii_lowercase).collect(),
            processes: machine
                .processes()
                .filter(|p| p.state != ProcState::Terminated)
                .map(|p| p.image.to_ascii_lowercase())
                .collect(),
        }
    }

    /// Resources in `self` that the baseline lacks (case preserved).
    pub fn minus(&self, baseline: &Inventory) -> Inventory {
        Inventory {
            files: self.files.difference(&baseline.files).cloned().collect(),
            reg_keys: self.reg_keys.difference(&baseline.reg_keys).cloned().collect(),
            processes: self.processes.difference(&baseline.processes).cloned().collect(),
        }
    }

    /// Union of two inventories.
    pub fn union(&self, other: &Inventory) -> Inventory {
        Inventory {
            files: self.files.union(&other.files).cloned().collect(),
            reg_keys: self.reg_keys.union(&other.reg_keys).cloned().collect(),
            processes: self.processes.union(&other.processes).cloned().collect(),
        }
    }
}

/// Base system shared by both public-sandbox simulations and the clean
/// baseline, so the diff isolates only sandbox-specific artifacts.
fn common_base() -> System {
    let mut sys = System::new();
    sys.fs.set_drive('C', DriveInfo::gb(60, 30));
    for i in 0..400 {
        sys.fs.create(&format!(r"C:\Windows\System32\win{i:04}.dll"), 65_536, "system");
    }
    sys.registry.create_key(r"HKLM\Software\Microsoft\Windows\CurrentVersion");
    WearProfile::pristine().apply(&mut sys);
    sys
}

fn base_machine(sys: System) -> Machine {
    let mut m = Machine::new(sys);
    for p in ["smss.exe", "csrss.exe", "winlogon.exe", "services.exe", "lsass.exe", "svchost.exe"] {
        m.add_system_process(p);
    }
    m
}

/// The clean bare-metal reference the paper compares crawls against.
pub fn clean_baseline() -> Machine {
    base_machine(common_base())
}

/// A VirusTotal-style public sandbox: Cuckoo on VirtualBox, a large
/// analysis-support tree, Python tooling.
pub fn public_sandbox_virustotal() -> Machine {
    let mut sys = common_base();
    sys.config.kind = EnvKind::VmSandbox;
    sys.config.computer_name = "VT-NODE-07".to_owned();
    for i in 0..6_000 {
        sys.fs.create(&format!(r"C:\cuckoo\analyzer\lib\module_{i:05}.py"), 4_096, "cuckoo");
    }
    for i in 0..3_537 {
        sys.fs.create(&format!(r"C:\Python27\Lib\site-packages\pkg_{i:05}.py"), 2_048, "cuckoo");
    }
    for d in ["VBoxMouse.sys", "VBoxGuest.sys", "VBoxSF.sys"] {
        sys.fs.create(&format!(r"C:\Windows\System32\drivers\{d}"), 131_072, "vm-driver");
    }
    for i in 0..797 {
        sys.registry.create_key(&format!(r"HKLM\SOFTWARE\CuckooInstall\Component{i:04}"));
    }
    sys.registry.create_key(r"HKLM\SOFTWARE\Oracle\VirtualBox Guest Additions");
    let mut m = base_machine(sys);
    for p in [
        "python.exe",
        "agent.py",
        "VBoxService.exe",
        "VBoxTray.exe",
        "analyzer.exe",
        "auxiliary.exe",
        "screenshotd.exe",
        "netlogd.exe",
        "humanmod.exe",
        "dumpmemd.exe",
        "resultsrv.exe",
        "procmemd.exe",
    ] {
        m.add_system_process(p);
    }
    m
}

/// A Malwr-style public sandbox: Cuckoo with a 5 GB disk (the paper calls
/// out Malwr's unusually small drive) and its own tooling tree.
pub fn public_sandbox_malwr() -> Machine {
    let mut sys = common_base();
    sys.config.kind = EnvKind::VmSandbox;
    sys.config.computer_name = "MALWR-01".to_owned();
    sys.fs.set_drive('C', DriveInfo::gb(5, 1));
    for i in 0..5_000 {
        sys.fs.create(&format!(r"C:\malwr\support\tool_{i:05}.bin"), 8_192, "sandbox");
    }
    for i in 0..3_000 {
        sys.fs.create(&format!(r"C:\analysis\deps\dep_{i:05}.dll"), 16_384, "sandbox");
    }
    for i in 0..655 {
        sys.registry.create_key(&format!(r"HKLM\SOFTWARE\MalwrAgent\Hooks\h{i:04}"));
    }
    let mut m = base_machine(sys);
    for p in [
        "pythonw.exe",
        "malwr-agent.exe",
        "sniffer.exe",
        "regshotd.exe",
        "volatilityd.exe",
        "yarascand.exe",
        "ssdeepd.exe",
        "pcapd.exe",
        "clamscand.exe",
        "unpackd.exe",
        "carved.exe",
        "droppedmond.exe",
    ] {
        m.add_system_process(p);
    }
    m
}

/// Runs the full Section II-C pipeline: crawl both public sandboxes, diff
/// against the clean baseline, and return the unique resources.
pub fn crawl_public_sandboxes() -> Inventory {
    let baseline = Inventory::collect(&clean_baseline());
    let vt = Inventory::collect(&public_sandbox_virustotal());
    let malwr = Inventory::collect(&public_sandbox_malwr());
    vt.union(&malwr).minus(&baseline)
}

/// Extends a resource database with crawled unique resources, tagging them
/// with [`Profile::PublicSandbox`].
pub fn extend_db(db: &mut ResourceDb, crawl: &Inventory) {
    for f in &crawl.files {
        db.add_file(f, Profile::PublicSandbox);
    }
    for k in &crawl.reg_keys {
        db.add_reg_key(k, Profile::PublicSandbox);
    }
    for p in &crawl.processes {
        db.add_process(p, Profile::PublicSandbox);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crawl_reproduces_paper_cardinalities() {
        let unique = crawl_public_sandboxes();
        assert_eq!(unique.files.len(), 17_540, "paper: 17,540 files");
        assert_eq!(unique.processes.len(), 24, "paper: 24 processes");
        assert_eq!(unique.reg_keys.len(), 1_457, "paper: 1,457 registry entries");
    }

    #[test]
    fn diff_excludes_shared_baseline_content() {
        let unique = crawl_public_sandboxes();
        assert!(!unique.files.iter().any(|f| f.contains(r"\Windows\System32\win")));
        assert!(!unique.processes.contains("svchost.exe"));
    }

    #[test]
    fn vm_driver_files_survive_the_diff() {
        let unique = crawl_public_sandboxes();
        assert!(unique.files.iter().any(|f| f.ends_with("vboxmouse.sys")));
    }

    #[test]
    fn extend_db_tags_public_sandbox() {
        let mut db = ResourceDb::new();
        let mut inv = Inventory::default();
        inv.files.insert(r"C:\cuckoo\x.py".to_owned());
        inv.processes.insert("agent.py".to_owned());
        inv.reg_keys.insert(r"HKLM\SOFTWARE\CuckooInstall".to_owned());
        extend_db(&mut db, &inv);
        assert_eq!(db.file(r"C:\cuckoo\x.py").next(), Some(Profile::PublicSandbox));
        assert_eq!(db.process("AGENT.PY"), Some(Profile::PublicSandbox));
        assert_eq!(db.reg_key(r"hklm\software\cuckooinstall"), Some(Profile::PublicSandbox));
    }
}
