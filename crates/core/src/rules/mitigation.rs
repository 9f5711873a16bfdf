//! Self-spawn loop detection and active mitigation (Section VI-C).

use tracer::EventKind;
use winsim::{Api, ApiCall, Value};

use crate::config::Config;
use crate::engine::EngineState;
use crate::resources::Category;

use super::{DeceptionRule, Gate, Outcome, Tier};

/// Counts self-spawns per image on every process creation; at the
/// configured threshold it records the loop alarm in the run's trace (the
/// paper's deployment only records), and with
/// [`Config::active_mitigation`] on it kills the forking caller past the
/// threshold. The counting itself is never gated
/// — the alarm is the headline deactivation signal of Figure 4.
pub struct MitigationRule;

impl DeceptionRule for MitigationRule {
    fn name(&self) -> &'static str {
        "spawn-mitigation"
    }

    fn category(&self) -> Category {
        Category::Process
    }

    fn apis(&self) -> &'static [(Api, Tier)] {
        &[(Api::CreateProcess, Tier::Core), (Api::ShellExecuteEx, Tier::Core)]
    }

    fn gate(&self) -> Gate {
        Gate::ALWAYS
    }

    fn respond(&self, _state: &EngineState, cfg: &Config, call: &mut ApiCall<'_>) -> Outcome {
        let image = call.args.str(0).to_ascii_lowercase();
        let count = call.machine_ref().deception().spawn_counts.get(&image).map_or(1, |c| c + 1);
        let pid = call.pid;
        let m = call.machine();
        if count == cfg.spawn_alarm_threshold {
            let message = format!("self-spawn loop: {image} created {count} times under deception");
            m.record(pid, EventKind::Alarm { message });
        }
        m.deception_mut().spawn_counts.insert(image, count);
        if cfg.active_mitigation && count > cfg.spawn_alarm_threshold {
            // Section VI-C: "could be further mitigated by killing its
            // parent processes or directly blocking forking".
            m.finish_process(pid, 137);
            return Outcome::Done(Value::U64(0));
        }
        Outcome::Pass
    }
}
