//! Fabricated wear-and-tear artifacts (Section IV-C.2, Table III).

use std::sync::Arc;

use winsim::{Api, ApiCall, Value};

use crate::config::Config;
use crate::engine::EngineState;
use crate::profiles::Profile;
use crate::resources::Category;

use super::{Deception, DeceptionRule, Outcome, Tier};

/// Makes a freshly provisioned machine look used: faked counts for the
/// well-known worn registry keys, a populated DNS cache, and a system
/// event log with thousands of entries.
pub struct WearTearRule;

impl DeceptionRule for WearTearRule {
    fn name(&self) -> &'static str {
        "wear-and-tear"
    }

    fn category(&self) -> Category {
        Category::WearTear
    }

    fn apis(&self) -> &'static [(Api, Tier)] {
        &[
            (Api::NtQueryKey, Tier::Wear),
            (Api::DnsGetCacheDataTable, Tier::Wear),
            (Api::EvtNext, Tier::Wear),
            (Api::NtQuerySystemInformation, Tier::Wear),
        ]
    }

    fn gate_flag(&self) -> &'static str {
        "weartear"
    }

    fn gate(&self, cfg: &Config) -> bool {
        cfg.weartear
    }

    fn respond(&self, state: &EngineState, _cfg: &Config, call: &mut ApiCall<'_>) -> Outcome {
        match call.api {
            Api::NtQueryKey => {
                if let Some(n) = state.wear_reg_override(call.args.str(0), call.args.str(1)) {
                    let path = call.args.str(0).to_owned();
                    return Outcome::Deceive(
                        Deception::new(Category::WearTear, path, Profile::Generic, n.to_string()),
                        Value::U64(n),
                    );
                }
                Outcome::Pass
            }
            Api::DnsGetCacheDataTable => {
                let answer = format!("{} cached domains", state.wear.dns_cache_entries.len());
                Outcome::Deceive(
                    Deception::new(Category::WearTear, "dns cache", Profile::Generic, answer),
                    Value::List(
                        state
                            .wear
                            .dns_cache_entries
                            .iter()
                            .map(|d| Value::Str(Arc::clone(d)))
                            .collect(),
                    ),
                )
            }
            Api::EvtNext => {
                // Round-robin over the fake sources; no sources, no events.
                let limit = (call.args.u64(0) as usize).min(state.wear.sys_events);
                let events: Vec<Value> = state
                    .wear
                    .event_sources
                    .iter()
                    .cycle()
                    .take(limit)
                    .map(|s| Value::Str(Arc::clone(s)))
                    .collect();
                let answer = format!("{} fabricated events", events.len());
                Outcome::Deceive(
                    Deception::new(Category::WearTear, "system events", Profile::Generic, answer),
                    Value::List(events),
                )
            }
            Api::NtQuerySystemInformation => {
                if call.args.str(0) == "RegistryQuota" {
                    let answer = format!("{} bytes", state.wear.registry_quota_bytes);
                    return Outcome::Deceive(
                        Deception::new(
                            Category::WearTear,
                            "registry quota",
                            Profile::Generic,
                            answer,
                        ),
                        Value::U64(state.wear.registry_quota_bytes),
                    );
                }
                Outcome::Pass
            }
            _ => Outcome::Pass,
        }
    }
}
