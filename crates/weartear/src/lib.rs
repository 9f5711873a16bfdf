//! Wear-and-tear artifact fingerprinting (Miramirkhani et al., IEEE S&P
//! 2017) for the Scarecrow reproduction's Table III experiment.
//!
//! "The key idea was that existing dynamic analysis systems were typically
//! implemented using operating system images in an almost pristine
//! condition while real devices \[are\] usually under active use." This
//! crate measures the 44 aging [`Artifact`]s through the substrate's APIs
//! and classifies machines with a [`DecisionTree`] over the top-5
//! artifacts — the evasion technique Scarecrow's wear-and-tear extension
//! (faking the Table III values) defeats.
//!
//! # Example
//!
//! ```
//! use weartear::{sandbox_classifier, WearMeasurement};
//! use winsim::env::end_user_machine;
//! use winsim::ProcessCtx;
//!
//! let mut machine = end_user_machine();
//! let explorer = machine.explorer_pid();
//! let pid = machine.spawn("probe.exe", explorer, false);
//! let mut ctx = ProcessCtx::new(&mut machine, pid);
//! let measurement = WearMeasurement::collect(&mut ctx);
//! let tree = sandbox_classifier(11);
//! assert!(!tree.classify(&measurement.top5_features())); // a real machine
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod artifacts;
mod model;

pub use artifacts::{all_artifacts, Artifact, WearCategory, WearMeasurement, TOP5};
pub use model::{sandbox_classifier, training_population, DecisionTree};

#[cfg(test)]
mod integration {
    use super::*;
    use winsim::env::{bare_metal_sandbox, end_user_machine, vm_sandbox};
    use winsim::{Machine, Pid, ProcessCtx};

    fn spawn_probe(m: &mut Machine) -> Pid {
        let explorer = m.explorer_pid();
        m.spawn("probe.exe", explorer, false)
    }

    #[test]
    fn classifier_detects_both_sandbox_flavors_and_spares_the_user() {
        let tree = sandbox_classifier(11);
        for (machine, expect_sandbox) in
            [(bare_metal_sandbox(), true), (vm_sandbox(), true), (end_user_machine(), false)]
        {
            let mut m = machine;
            let kind = m.system().config.kind;
            let pid = spawn_probe(&mut m);
            let mut ctx = ProcessCtx::new(&mut m, pid);
            let features = WearMeasurement::collect(&mut ctx).top5_features();
            assert_eq!(tree.classify(&features), expect_sandbox, "{kind:?} features {features:?}");
        }
    }

    #[test]
    fn scarecrow_flips_the_end_user_classification() {
        // the headline Table III result: Scarecrow's wear fakes steer the
        // decision so an end-user machine classifies as a sandbox
        let engine = scarecrow::Scarecrow::with_builtin_db(scarecrow::Config::default());
        let mut m = end_user_machine();
        let pid = spawn_probe(&mut m);
        engine.protect_process(&mut m, pid);
        let mut ctx = ProcessCtx::new(&mut m, pid);
        let measurement = WearMeasurement::collect(&mut ctx);
        assert_eq!(measurement.value("dnscacheEntries"), 4.0);
        assert_eq!(measurement.value("sysevt"), 8_000.0);
        assert_eq!(measurement.value("deviceClsCount"), 29.0);
        assert_eq!(measurement.value("autoRunCount"), 3.0);
        assert_eq!(measurement.value("regSize"), (53 * 1024 * 1024) as f64);
        let tree = sandbox_classifier(11);
        assert!(tree.classify(&measurement.top5_features()), "deceived machine looks pristine");
    }
}
