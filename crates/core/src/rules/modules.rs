//! Deceptive DLL presence, enumeration, and exports (Section II-B(c)).

use winsim::{Api, ApiCall, Value};

use crate::config::Config;
use crate::engine::EngineState;
use crate::resources::Category;

use super::{merge_listing, Deception, DeceptionRule, Gate, Live, Outcome, Tier};

/// Makes the planted guest-addition and analysis DLLs loadable: handle
/// lookups and loads succeed with a fake module handle, module
/// enumerations gain the deceptive DLL names, and their exports resolve
/// to a fake address.
pub struct ModulesRule;

impl DeceptionRule for ModulesRule {
    fn name(&self) -> &'static str {
        "modules"
    }

    fn category(&self) -> Category {
        Category::Dll
    }

    fn apis(&self) -> &'static [(Api, Tier)] {
        &[
            (Api::GetModuleHandle, Tier::Core),
            (Api::LoadLibrary, Tier::Core),
            (Api::EnumModules, Tier::Core),
            (Api::GetProcAddress, Tier::Core),
        ]
    }

    fn gate(&self) -> Gate {
        Gate::SOFTWARE
    }

    fn respond(&self, state: &EngineState, cfg: &Config, call: &mut ApiCall<'_>) -> Outcome {
        let live = Live::of(cfg, call);
        match call.api {
            Api::GetModuleHandle | Api::LoadLibrary => {
                if let Some(p) = live.hit(state.db.dll(call.args.str(0))) {
                    let name = call.args.str(0).to_owned();
                    return Outcome::Deceive(
                        Deception::new(Category::Dll, name, p, "module handle 0x5CA2EC20"),
                        Value::U64(0x5CA2_EC20),
                    );
                }
                Outcome::Pass
            }
            Api::EnumModules => {
                merge_listing(call.call_original(), None, state.db.dlls(), live, |p, _| {
                    let what = "deceptive modules appended";
                    Deception::new(Category::Dll, "module enumeration", p, what)
                })
            }
            Api::GetProcAddress => {
                if let Some(p) = live.hit(state.db.export(call.args.str(0), call.args.str(1))) {
                    let name = format!("{}!{}", call.args.str(0), call.args.str(1));
                    return Outcome::Deceive(
                        Deception::new(Category::Dll, name, p, "export address 0x5CA2EC24"),
                        Value::U64(0x5CA2_EC24),
                    );
                }
                Outcome::Pass
            }
            _ => Outcome::Pass,
        }
    }
}
