//! Continuous resource learning from MalGene evasion signatures
//! (Section II-C: "One way to continuously learn new deceptive resources
//! is to leverage the analysis results from MalGene").
//!
//! Each [`malgene::EvasionSignature`] names one environment resource that
//! real malware keyed an evasion decision on. Resources Scarecrow does not
//! yet fake are added to the [`ResourceDb`] under
//! [`Profile::Learned`](crate::Profile::Learned); resource *classes* the
//! engine already deceives wholesale (debugger presence, hardware
//! configuration, DNS sinkholing) are reported as already covered.

use malgene::{EvasionSignature, SignatureKind};

use crate::profiles::Profile::Learned;
use crate::resources::ResourceDb;

/// Marker data installed for learned registry values: combining multiple
/// VM names maximizes substring matches, the same trick the engine's own
/// `SystemBiosVersion` fake uses ("SCARECROW also fakes such configuration
/// values by combining multiple virtual machine names").
pub const LEARNED_VALUE_DATA: &str = "VMware VirtualBox QEMU BOCHS SANDBOX";

/// Result of feeding one signature to the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LearnOutcome {
    /// The resource was added to the deception database.
    Added,
    /// The engine already had an entry for this exact resource.
    AlreadyKnown,
    /// The resource class is deceived wholesale by an existing hook
    /// (debugger lies, hardware fakes, DNS sinkhole): nothing to add.
    CoveredByCategory,
}

/// [`LearnOutcome::AlreadyKnown`] if `known`, else runs `add` and reports
/// [`LearnOutcome::Added`].
fn learned(known: bool, add: impl FnOnce()) -> LearnOutcome {
    if known {
        return LearnOutcome::AlreadyKnown;
    }
    add();
    LearnOutcome::Added
}

impl ResourceDb {
    /// Incorporates a MalGene evasion signature.
    pub fn learn(&mut self, sig: &EvasionSignature) -> LearnOutcome {
        match &sig.kind {
            SignatureKind::RegistryKey(key) => {
                learned(self.reg_key(key).is_some(), || self.add_reg_key(key, Learned))
            }
            SignatureKind::RegistryValue { key, name } => {
                learned(self.reg_value(key, name).is_some(), || {
                    self.add_reg_value(key, name, LEARNED_VALUE_DATA, Learned)
                })
            }
            SignatureKind::File(path) => {
                let known = self.file(path).next().is_some();
                learned(known, || self.add_file(path, Learned))
            }
            SignatureKind::Module(name) => {
                learned(self.dll(name).is_some(), || self.add_dll(name, Learned))
            }
            SignatureKind::Window(class_title) => {
                let class = class_title.split('|').next().unwrap_or(class_title);
                let title = class_title.split('|').nth(1).unwrap_or("");
                let probe = if class.is_empty() { title } else { class };
                learned(self.window(probe).is_some(), || self.add_window(probe, Learned))
            }
            // these classes are answered by the always-on hooks, not by
            // database entries
            SignatureKind::Debugger(_) | SignatureKind::Dns(_) | SignatureKind::SystemInfo(_) => {
                LearnOutcome::CoveredByCategory
            }
        }
    }

    /// Batch variant: learns every signature, returning how many were
    /// actually added.
    pub fn learn_all<'a, I>(&mut self, sigs: I) -> usize
    where
        I: IntoIterator<Item = &'a EvasionSignature>,
    {
        sigs.into_iter().filter(|s| self.learn(s) == LearnOutcome::Added).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Profile;

    fn sig(kind: SignatureKind) -> EvasionSignature {
        EvasionSignature { kind, probe_index: 0, deviation_index: 1 }
    }

    #[test]
    fn registry_key_signatures_are_added_once() {
        let mut db = ResourceDb::builtin();
        let s = sig(SignatureKind::RegistryKey(r"HKLM\SOFTWARE\BrandNewSandbox".into()));
        assert_eq!(db.learn(&s), LearnOutcome::Added);
        assert_eq!(db.reg_key(r"HKLM\SOFTWARE\BrandNewSandbox"), Some(Profile::Learned));
        assert_eq!(db.learn(&s), LearnOutcome::AlreadyKnown);
    }

    #[test]
    fn known_resources_are_not_relearned() {
        let mut db = ResourceDb::builtin();
        let s = sig(SignatureKind::File(r"C:\Windows\System32\drivers\vmmouse.sys".into()));
        assert_eq!(db.learn(&s), LearnOutcome::AlreadyKnown);
        // profile stays what the curated core said
        assert_eq!(
            db.file(r"C:\Windows\System32\drivers\vmmouse.sys").next(),
            Some(Profile::VMware)
        );
    }

    #[test]
    fn category_covered_classes_add_nothing() {
        let mut db = ResourceDb::builtin();
        let before = db.stats();
        assert_eq!(
            db.learn(&sig(SignatureKind::Debugger("IsDebuggerPresent".into()))),
            LearnOutcome::CoveredByCategory
        );
        assert_eq!(
            db.learn(&sig(SignatureKind::Dns("kill-switch.test".into()))),
            LearnOutcome::CoveredByCategory
        );
        assert_eq!(
            db.learn(&sig(SignatureKind::SystemInfo("GetTickCount".into()))),
            LearnOutcome::CoveredByCategory
        );
        assert_eq!(db.stats(), before);
    }

    #[test]
    fn learned_values_use_the_combined_marker() {
        let mut db = ResourceDb::new();
        db.learn(&sig(SignatureKind::RegistryValue {
            key: r"HKLM\HARDWARE\NewKey".into(),
            name: "Vendor".into(),
        }));
        let (data, profile) = db.reg_value(r"HKLM\HARDWARE\NewKey", "Vendor").unwrap();
        assert!(data.contains("VMware") && data.contains("VirtualBox"));
        assert_eq!(profile, Profile::Learned);
    }

    #[test]
    fn window_signatures_learn_the_class() {
        let mut db = ResourceDb::new();
        db.learn(&sig(SignatureKind::Window("NewAnalyzerWnd|".into())));
        assert_eq!(db.window("NewAnalyzerWnd"), Some(Profile::Learned));
        // title-only probes learn the title
        db.learn(&sig(SignatureKind::Window("|Analysis Console".into())));
        assert_eq!(db.window("Analysis Console"), Some(Profile::Learned));
    }

    #[test]
    fn learn_all_counts_additions() {
        let mut db = ResourceDb::new();
        let sigs = vec![
            sig(SignatureKind::RegistryKey(r"HKLM\A".into())),
            sig(SignatureKind::RegistryKey(r"HKLM\A".into())), // duplicate
            sig(SignatureKind::Module("x.dll".into())),
            sig(SignatureKind::Debugger("IsDebuggerPresent".into())), // covered
        ];
        assert_eq!(db.learn_all(&sigs), 2);
    }

    #[test]
    fn learned_resources_survive_exclusive_mode() {
        assert!(Profile::Learned.active(true, Some("VMware")), "learned resources never conflict");
    }
}
