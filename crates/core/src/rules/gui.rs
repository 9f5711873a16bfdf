//! Deceptive analysis-tool windows (Section II-B(d)).

use winsim::{Api, ApiCall, Value};

use crate::config::Config;
use crate::engine::EngineState;
use crate::resources::Category;

use super::{Deception, DeceptionRule, Gate, Live, Outcome, Tier};

/// Answers `FindWindow` probes (by class or title) for the planted
/// analysis-tool windows — OllyDbg, Wireshark, Process Monitor and
/// friends appear to be on screen.
pub struct GuiRule;

impl DeceptionRule for GuiRule {
    fn name(&self) -> &'static str {
        "gui"
    }

    fn category(&self) -> Category {
        Category::Window
    }

    fn apis(&self) -> &'static [(Api, Tier)] {
        &[(Api::FindWindow, Tier::Core)]
    }

    fn gate(&self) -> Gate {
        Gate::SOFTWARE
    }

    fn respond(&self, state: &EngineState, cfg: &Config, call: &mut ApiCall<'_>) -> Outcome {
        let live = Live::of(cfg, call);
        let names = [call.args.str(0), call.args.str(1)];
        if let Some(p) = live.hit(names.into_iter().filter_map(|n| state.db.window(n))) {
            let resource = names.concat();
            return Outcome::Deceive(
                Deception::new(Category::Window, resource, p, "window found"),
                Value::Bool(true),
            );
        }
        Outcome::Pass
    }
}
