//! Deceptive process presence and enumeration (Section II-B(b)).

use winsim::{Api, ApiCall, Value};

use crate::config::Config;
use crate::engine::EngineState;
use crate::resources::Category;

use super::{Deception, DeceptionRule, Gate, Live, Outcome, Tier};

/// Makes the planted analysis-tool processes observable: `OpenProcess`
/// hands out a fake handle, and every enumeration channel (EnumProcesses,
/// Toolhelp32 snapshots, `NtQuerySystemInformation`) reports the active
/// profiles' deceptive processes alongside the real ones.
pub struct ProcessEnumRule;

/// Merges the active profiles' deceptive process names into an
/// enumeration result, deduplicating case-insensitively against what the
/// real listing already contains.
fn merge_processes(state: &EngineState, live: Live, original: &Value) -> Outcome {
    let mut merged: Vec<Value> = original.as_list().unwrap_or(&[]).to_vec();
    let mut first = None;
    for (name, profile) in state.db.processes() {
        if live.admits(*profile) {
            if !merged.iter().any(|v| v.as_str().is_some_and(|s| s.eq_ignore_ascii_case(name))) {
                merged.push(Value::from(name.as_str()));
            }
            first.get_or_insert(*profile);
        }
    }
    match first {
        Some(p) => Outcome::Deceive(
            Deception::new(
                Category::Process,
                "process enumeration",
                p,
                "deceptive processes appended",
            ),
            Value::List(merged),
        ),
        None => Outcome::Done(Value::List(merged)),
    }
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
                let original = call.call_original();
                merge_processes(state, live, &original)
            }
            Api::CreateToolhelp32Snapshot => {
                let result = call.call_original();
                if let Some(handle) = result.as_u64() {
                    let mut first = None;
                    for (name, profile) in state.db.processes() {
                        if live.admits(*profile) {
                            call.machine().snapshot_append(handle, name);
                            first.get_or_insert(*profile);
                        }
                    }
                    if let Some(p) = first {
                        return Outcome::Deceive(
                            Deception::new(
                                Category::Process,
                                "toolhelp snapshot",
                                p,
                                "deceptive processes appended",
                            ),
                            result,
                        );
                    }
                }
                Outcome::Done(result)
            }
            Api::NtQuerySystemInformation => {
                if call.args.str(0) != "ProcessInformation" {
                    return Outcome::Pass;
                }
                let original = call.call_original();
                merge_processes(state, live, &original)
            }
            _ => Outcome::Pass,
        }
    }
}
