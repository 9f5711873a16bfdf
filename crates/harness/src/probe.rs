//! Probe spawning for fingerprinting tools (Pafish, wear-and-tear).
//!
//! Fingerprinting tools are not `Program`s run by the scheduler — they
//! are driven directly so they can return structured reports. This helper
//! spawns their process appropriately in both deployment modes: plain
//! (child of `explorer.exe`) or protected (child of `scarecrow.exe` with
//! `scarecrow.dll` injected).

use scarecrow::Scarecrow;
use winsim::{Machine, Pid};

/// Spawns a probe process and, when an engine is supplied, protects it the
/// way the controller protects targets (controller parent + injection).
/// Returns the probe's pid; drive it with [`winsim::ProcessCtx::new`].
pub fn spawn_probe(machine: &mut Machine, image: &str, engine: Option<&Scarecrow>) -> Pid {
    match engine {
        None => {
            let explorer = machine.explorer_pid();
            machine.spawn(image, explorer, false)
        }
        Some(engine) => {
            let controller = machine.add_system_process(scarecrow::CONTROLLER_IMAGE);
            let pid = machine.spawn(image, controller, true);
            engine.protect_process(machine, pid);
            machine.resume(pid);
            pid
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scarecrow::Config;
    use std::collections::BTreeSet;
    use winsim::env::{bare_metal_sandbox, vm_sandbox};
    use winsim::ProcessCtx;

    #[test]
    fn plain_probe_has_explorer_parent_and_no_hooks() {
        let mut m = bare_metal_sandbox();
        let pid = spawn_probe(&mut m, "probe.exe", None);
        let mut ctx = ProcessCtx::new(&mut m, pid);
        assert_eq!(ctx.parent_image(), "explorer.exe");
        assert!(!ctx.is_debugger_present());
    }

    #[test]
    fn protected_probe_sees_the_deceptive_environment() {
        let engine = Scarecrow::with_builtin_db(Config::default());
        let mut m = bare_metal_sandbox();
        let pid = spawn_probe(&mut m, "probe.exe", Some(&engine));
        let mut ctx = ProcessCtx::new(&mut m, pid);
        assert_eq!(ctx.parent_image(), "scarecrow.exe");
        assert!(ctx.is_debugger_present());
        assert_eq!(ctx.cpu_count(), 1);
    }

    #[test]
    fn protected_listing_names_each_path_once() {
        let engine = Scarecrow::with_builtin_db(Config::default());
        let mut m = vm_sandbox();
        let pid = spawn_probe(&mut m, "probe.exe", Some(&engine));
        let listed = ProcessCtx::new(&mut m, pid).find_files(r"C:\Windows\System32\drivers\*");
        let lower: BTreeSet<String> = listed.iter().map(|p| p.to_ascii_lowercase()).collect();
        assert_eq!(lower.len(), listed.len(), "{listed:?}");
        // the sandbox's own VirtualBox drivers are not listed again; the
        // two VMware drivers are appended, and VMware's is the first entry
        let d = m.take_deception().into_decisions().pop().unwrap();
        assert_eq!((d.profile, &*d.answer), ("VMware", "2 deceptive entries appended"));
    }
}
