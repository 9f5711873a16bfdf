//! Deception profiles and conflict-avoiding profile activity.
//!
//! Scarecrow integrates deceptive resources from *many* analysis platforms
//! at once, which a Scarecrow-aware attacker could detect by looking for
//! contradictions ("neither a production nor an analysis environment could
//! belong to multiple VMs simultaneously", Section VI-B). The proposed
//! counter-measure — "prepare multiple profiles … if one property of any
//! individual profile is triggered, we can disable all other profiles
//! immediately" — is [`Config::exclusive_profiles`](crate::Config): each
//! run commits to the first platform profile it fingerprints (the
//! machine's [`winsim::DeceptionRecord`] holds the commitment), and
//! [`Profile::active`] silences every other platform from then on.

/// The analysis platform a deceptive resource impersonates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Profile {
    /// VMware guest tools and drivers.
    VMware,
    /// VirtualBox guest additions.
    VirtualBox,
    /// The Sandboxie sandbox.
    Sandboxie,
    /// A Cuckoo-style sandbox deployment.
    Cuckoo,
    /// Interactive debuggers (OllyDbg, WinDbg, IDA, …).
    Debugger,
    /// Wine.
    Wine,
    /// QEMU.
    Qemu,
    /// Bochs.
    Bochs,
    /// Parallels Desktop guest tools.
    Parallels,
    /// Xen paravirtual drivers.
    Xen,
    /// Microsoft Hyper-V integration services.
    HyperV,
    /// Resources crawled from public online sandboxes (Section II-C).
    PublicSandbox,
    /// Resources learned at runtime from MalGene evasion signatures
    /// (Section II-C's continuous-learning feed). Like [`Profile::Generic`],
    /// learned resources answer in every profile mode — a signature proves
    /// real malware keys on them.
    Learned,
    /// Generic analysis-environment traits not tied to one platform
    /// (hardware sizes, uptime, sample naming, sinkholing, wear artifacts).
    Generic,
}

impl Profile {
    /// Every profile, platform and pseudo alike (telemetry slot order).
    pub fn all() -> &'static [Profile] {
        &[
            Profile::VMware,
            Profile::VirtualBox,
            Profile::Sandboxie,
            Profile::Cuckoo,
            Profile::Debugger,
            Profile::Wine,
            Profile::Qemu,
            Profile::Bochs,
            Profile::Parallels,
            Profile::Xen,
            Profile::HyperV,
            Profile::PublicSandbox,
            Profile::Learned,
            Profile::Generic,
        ]
    }

    /// Stable human-readable name (also the `Display` form).
    pub fn name(self) -> &'static str {
        match self {
            Profile::VMware => "VMware",
            Profile::VirtualBox => "VirtualBox",
            Profile::Sandboxie => "Sandboxie",
            Profile::Cuckoo => "Cuckoo",
            Profile::Debugger => "Debugger",
            Profile::Wine => "Wine",
            Profile::Qemu => "QEMU",
            Profile::Bochs => "Bochs",
            Profile::PublicSandbox => "public sandbox",
            Profile::Parallels => "Parallels",
            Profile::Xen => "Xen",
            Profile::HyperV => "Hyper-V",
            Profile::Learned => "learned",
            Profile::Generic => "generic",
        }
    }

    /// Whether a trigger of this profile commits an exclusive-mode run:
    /// every platform profile does; generic and learned resources never
    /// conflict with one.
    pub fn commits(self) -> bool {
        !matches!(self, Profile::Generic | Profile::Learned)
    }

    /// Whether this profile's resources answer, given the configuration's
    /// `exclusive` mode and the run's `committed` profile name:
    ///
    /// * **inclusive mode** (the paper's deployed configuration): always;
    /// * **exclusive mode** (Section VI-B): until the run commits, then only
    ///   the committed profile and the profiles that never commit.
    pub fn active(self, exclusive: bool, committed: Option<&str>) -> bool {
        !exclusive || !self.commits() || committed.is_none_or(|c| c == self.name())
    }
}

impl std::fmt::Display for Profile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inclusive_mode_keeps_everything_active() {
        assert!(Profile::VirtualBox.active(false, Some("VMware")));
    }

    #[test]
    fn exclusive_mode_answers_only_the_committed_profile() {
        assert!(Profile::VMware.active(true, None));
        assert!(Profile::VirtualBox.active(true, None));
        assert!(Profile::VMware.active(true, Some("VMware")));
        assert!(!Profile::VirtualBox.active(true, Some("VMware")), "conflicting profile is silent");
        assert!(Profile::Generic.active(true, Some("VMware")), "generic traits never conflict");
        assert!(Profile::Learned.active(true, Some("VMware")), "learned resources never conflict");
    }

    #[test]
    fn only_platform_profiles_commit() {
        assert!(Profile::VMware.commits() && Profile::PublicSandbox.commits());
        assert!(!Profile::Generic.commits() && !Profile::Learned.commits());
    }

    #[test]
    fn names_are_distinct() {
        // a run commits to a profile by name
        let names: std::collections::HashSet<_> = Profile::all().iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), Profile::all().len());
    }
}
