//! Deceptive debugger presence (Section II-B(e)).

use winsim::{Api, ApiCall, Value};

use crate::config::Config;
use crate::engine::EngineState;
use crate::profiles::Profile;
use crate::resources::Category;

use super::{Deception, DeceptionRule, Gate, Outcome, Tier};

/// Claims a debugger is always attached: the direct presence checks, the
/// `DebugPort` process-information class, and (under the wear-and-tear
/// hook set) the kernel-debugger system-information class all answer yes.
pub struct DebuggerRule;

impl DeceptionRule for DebuggerRule {
    fn name(&self) -> &'static str {
        "debugger"
    }

    fn category(&self) -> Category {
        Category::Debugger
    }

    fn apis(&self) -> &'static [(Api, Tier)] {
        &[
            (Api::IsDebuggerPresent, Tier::Core),
            (Api::CheckRemoteDebuggerPresent, Tier::Core),
            (Api::OutputDebugString, Tier::Core),
            (Api::NtQueryInformationProcess, Tier::Core),
            (Api::NtQuerySystemInformation, Tier::Wear),
        ]
    }

    fn gate(&self) -> Gate {
        Gate::SOFTWARE
    }

    fn respond(&self, _state: &EngineState, _cfg: &Config, call: &mut ApiCall<'_>) -> Outcome {
        match call.api {
            Api::IsDebuggerPresent | Api::CheckRemoteDebuggerPresent | Api::OutputDebugString => {
                Outcome::Deceive(
                    Deception::new(Category::Debugger, call.api.name(), Profile::Debugger, "TRUE"),
                    Value::Bool(true),
                )
            }
            Api::NtQueryInformationProcess => {
                if call.args.str(0) == "DebugPort" {
                    return Outcome::Deceive(
                        Deception::new(Category::Debugger, "DebugPort", Profile::Debugger, "1"),
                        Value::U64(1),
                    );
                }
                Outcome::Pass
            }
            Api::NtQuerySystemInformation => {
                if call.args.str(0) == "KernelDebugger" {
                    return Outcome::Deceive(
                        Deception::new(
                            Category::Debugger,
                            "kernel debugger",
                            Profile::Debugger,
                            "TRUE",
                        ),
                        Value::Bool(true),
                    );
                }
                Outcome::Pass
            }
            _ => Outcome::Pass,
        }
    }
}
