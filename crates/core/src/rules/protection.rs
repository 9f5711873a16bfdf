//! Deceptive-process protection (Section II-B(b)).

use winsim::{Api, ApiCall, Pid, Value};

use crate::config::Config;
use crate::engine::EngineState;
use crate::resources::Category;

use super::{Deception, DeceptionRule, Live, Outcome, Tier};

/// Protects the planted analysis-tool processes from being terminated by
/// untrusted software: `TerminateProcess` against a deceptive process
/// answers ACCESS_DENIED. Bystander processes still die normally.
pub struct ProtectionRule;

impl DeceptionRule for ProtectionRule {
    fn name(&self) -> &'static str {
        "process-protection"
    }

    fn category(&self) -> Category {
        Category::Process
    }

    fn apis(&self) -> &'static [(Api, Tier)] {
        &[(Api::TerminateProcess, Tier::Core)]
    }

    fn gate_flag(&self) -> &'static str {
        "protect_processes"
    }

    fn gate(&self, cfg: &Config) -> bool {
        cfg.protect_processes
    }

    fn respond(&self, state: &EngineState, cfg: &Config, call: &mut ApiCall<'_>) -> Outcome {
        let live = Live::of(cfg, call);
        let target = call.args.u64(0) as Pid;
        let image = call.machine().process(target).map(|p| p.image.clone()).unwrap_or_default();
        if let Some(p) = live.hit(state.db.process(&image)) {
            return Outcome::Deceive(
                Deception::new(Category::Process, image, p, "ACCESS_DENIED"),
                Value::Bool(false), // ACCESS_DENIED
            );
        }
        Outcome::Pass
    }
}
