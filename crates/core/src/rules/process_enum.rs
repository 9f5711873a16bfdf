//! Deceptive process presence and enumeration (Section II-B(b)).

use winsim::{Api, ApiCall, Value};

use crate::config::Config;
use crate::engine::EngineState;
use crate::resources::Category;

use super::{merge_listing, Deception, DeceptionRule, Gate, Live, Outcome, Tier};

/// Makes the planted analysis-tool processes observable: `OpenProcess`
/// hands out a fake handle, and every enumeration channel (EnumProcesses,
/// Toolhelp32 snapshots, `NtQuerySystemInformation`) reports the active
/// profiles' deceptive processes alongside the real ones.
pub struct ProcessEnumRule;

/// Merges the deceptive processes into one enumeration channel's listing.
fn merge_processes(
    state: &EngineState,
    live: Live,
    answer: Value,
    snapshot: Option<&mut Vec<Value>>,
    channel: &'static str,
) -> Outcome {
    merge_listing(answer, snapshot, state.db.processes(), live, |p, _| {
        Deception::new(Category::Process, channel, p, "deceptive processes appended")
    })
}

impl DeceptionRule for ProcessEnumRule {
    fn name(&self) -> &'static str {
        "process-enum"
    }

    fn category(&self) -> Category {
        Category::Process
    }

    fn apis(&self) -> &'static [(Api, Tier)] {
        &[
            (Api::OpenProcess, Tier::Core),
            (Api::EnumProcesses, Tier::Core),
            (Api::CreateToolhelp32Snapshot, Tier::Extra),
            (Api::NtQuerySystemInformation, Tier::Wear),
        ]
    }

    fn gate(&self) -> Gate {
        Gate::SOFTWARE
    }

    fn respond(&self, state: &EngineState, cfg: &Config, call: &mut ApiCall<'_>) -> Outcome {
        let live = Live::of(cfg, call);
        match call.api {
            Api::OpenProcess => {
                if let Some(p) = live.hit(state.db.process(call.args.str(0))) {
                    let image = call.args.str(0).to_owned();
                    return Outcome::Deceive(
                        Deception::new(Category::Process, image, p, "handle 0xFEED"),
                        Value::U64(0xFEED),
                    );
                }
                Outcome::Pass
            }
            Api::EnumProcesses => {
                merge_processes(state, live, call.call_original(), None, "process enumeration")
            }
            Api::CreateToolhelp32Snapshot => {
                let handle = call.call_original();
                let snapshot = handle.as_u64().and_then(|h| call.machine().snapshot_mut(h));
                merge_processes(state, live, handle, snapshot, "toolhelp snapshot")
            }
            Api::NtQuerySystemInformation => {
                if call.args.str(0) != "ProcessInformation" {
                    return Outcome::Pass;
                }
                merge_processes(state, live, call.call_original(), None, "process enumeration")
            }
            _ => Outcome::Pass,
        }
    }
}
