//! Deceptive exception-dispatch timing (Section II-B(g)).

use winsim::{Api, ApiCall, Value};

use crate::config::Config;
use crate::engine::EngineState;
use crate::profiles::Profile;
use crate::resources::Category;

use super::{Deception, DeceptionRule, Gate, Outcome, Tier};

/// Fakes the "deceptive timing discrepancies in default exception
/// processing": a raised exception appears to round-trip through a
/// debugger-slowed dispatcher.
pub struct ExceptionTimingRule;

impl DeceptionRule for ExceptionTimingRule {
    fn name(&self) -> &'static str {
        "exception-timing"
    }

    fn category(&self) -> Category {
        Category::Debugger
    }

    fn apis(&self) -> &'static [(Api, Tier)] {
        &[(Api::RaiseException, Tier::Extra)]
    }

    fn gate(&self) -> Gate {
        Gate::SOFTWARE
    }

    fn respond(&self, _state: &EngineState, cfg: &Config, _call: &mut ApiCall<'_>) -> Outcome {
        let answer = format!("{} cycles", cfg.fake_exception_cycles);
        Outcome::Deceive(
            Deception::new(
                Category::Debugger,
                "exception dispatch timing",
                Profile::Debugger,
                answer,
            ),
            Value::U64(cfg.fake_exception_cycles),
        )
    }
}
