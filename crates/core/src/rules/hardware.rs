//! Faked hardware configuration (Section II-B "Hardware resources").

use winsim::{Api, ApiCall, Value};

use crate::config::Config;
use crate::engine::EngineState;
use crate::profiles::Profile;
use crate::resources::Category;

use super::{Deception, DeceptionRule, Gate, Outcome, Tier};

/// Reports the sandbox-looking hardware of the paper: 1 core, ~1 GB of
/// memory, a 50 GB disk, and a fresh-boot uptime. The uptime fake adds
/// the real virtual clock so sleep deltas still measure correctly.
pub struct HardwareRule;

impl DeceptionRule for HardwareRule {
    fn name(&self) -> &'static str {
        "hardware"
    }

    fn category(&self) -> Category {
        Category::Hardware
    }

    fn apis(&self) -> &'static [(Api, Tier)] {
        &[
            (Api::GetTickCount, Tier::Core),
            (Api::GetSystemInfo, Tier::Core),
            (Api::GlobalMemoryStatusEx, Tier::Core),
            (Api::GetDiskFreeSpaceEx, Tier::Core),
        ]
    }

    fn gate(&self) -> Gate {
        Gate::HARDWARE
    }

    fn respond(&self, _state: &EngineState, cfg: &Config, call: &mut ApiCall<'_>) -> Outcome {
        match call.api {
            Api::GetTickCount => {
                let now = call.machine().system().clock.now_ms();
                let faked = cfg.fake_uptime_ms + now;
                Outcome::Deceive(
                    Deception::new(
                        Category::Hardware,
                        "uptime",
                        Profile::Generic,
                        format!("{faked} ms uptime"),
                    ),
                    // preserve deltas so sleeps still measure correctly
                    Value::U64(faked),
                )
            }
            Api::GetSystemInfo => Outcome::Deceive(
                Deception::new(
                    Category::Hardware,
                    "processor count",
                    Profile::Generic,
                    format!("{} cores", cfg.fake_cores),
                ),
                Value::U64(cfg.fake_cores),
            ),
            Api::GlobalMemoryStatusEx => Outcome::Deceive(
                Deception::new(
                    Category::Hardware,
                    "physical memory",
                    Profile::Generic,
                    format!("{} MB", cfg.fake_memory_mb),
                ),
                Value::U64(cfg.fake_memory_mb),
            ),
            Api::GetDiskFreeSpaceEx => Outcome::Deceive(
                Deception::new(
                    Category::Hardware,
                    "disk size",
                    Profile::Generic,
                    format!("{} GB disk", cfg.fake_disk_gb),
                ),
                Value::List(vec![
                    Value::U64(cfg.fake_disk_gb << 30),
                    Value::U64(cfg.fake_disk_free_gb << 30),
                ]),
            ),
            _ => Outcome::Pass,
        }
    }
}
