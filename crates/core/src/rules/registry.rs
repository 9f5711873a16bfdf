//! Deceptive registry keys and values (Section II-B "Software resources").

use winsim::{Api, ApiCall, NtStatus, Value};

use crate::config::Config;
use crate::engine::EngineState;
use crate::resources::Category;

use super::{Deception, DeceptionRule, Gate, Live, Outcome, Tier};

/// Answers registry probes with the planted VM/sandbox/debugger keys and
/// values from the resource database. Declares the Nt-level registry APIs
/// at the wear tier (they are only hooked by the Table III extension) but
/// answers them with the same software-resource logic as the Win32 pair.
pub struct RegistryRule;

impl DeceptionRule for RegistryRule {
    fn name(&self) -> &'static str {
        "registry"
    }

    fn category(&self) -> Category {
        Category::Registry
    }

    fn apis(&self) -> &'static [(Api, Tier)] {
        &[
            (Api::RegOpenKeyEx, Tier::Core),
            (Api::RegQueryValueEx, Tier::Core),
            (Api::NtOpenKeyEx, Tier::Wear),
            (Api::NtQueryValueKey, Tier::Wear),
            (Api::NtQueryKey, Tier::Wear),
        ]
    }

    fn gate(&self) -> Gate {
        Gate::SOFTWARE
    }

    fn respond(&self, state: &EngineState, cfg: &Config, call: &mut ApiCall<'_>) -> Outcome {
        let live = Live::of(cfg, call);
        match call.api {
            Api::RegOpenKeyEx | Api::NtOpenKeyEx => {
                if let Some(p) = live.hit(state.db.reg_key(call.args.str(0))) {
                    let path = call.args.str(0).to_owned();
                    return Outcome::Deceive(
                        Deception::new(Category::Registry, path, p, "STATUS_SUCCESS"),
                        Value::Status(NtStatus::Success),
                    );
                }
                Outcome::Pass
            }
            Api::RegQueryValueEx | Api::NtQueryValueKey => {
                let hit = state
                    .db
                    .reg_value(call.args.str(0), call.args.str(1))
                    .filter(|&(_, p)| live.admits(p));
                if let Some((data, p)) = hit {
                    let path = format!("{}\\{}", call.args.str(0), call.args.str(1));
                    return Outcome::Deceive(
                        Deception::new(Category::Registry, path, p, data),
                        Value::from(data),
                    );
                }
                Outcome::Pass
            }
            Api::NtQueryKey => {
                // the wear-and-tear rule answers the well-known worn keys
                // first (registration order); this covers planted keys
                if let Some(p) = live.hit(state.db.reg_key(call.args.str(0))) {
                    let path = call.args.str(0).to_owned();
                    return Outcome::Deceive(
                        Deception::new(Category::Registry, path, p, "1"),
                        Value::U64(1),
                    );
                }
                Outcome::Pass
            }
            _ => Outcome::Pass,
        }
    }
}
