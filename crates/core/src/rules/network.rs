//! DNS sinkholing and HTTP liveness fakes (Section II-B "Network
//! resources").

use winsim::{Api, ApiCall, Value};

use crate::config::Config;
use crate::engine::EngineState;
use crate::profiles::Profile;
use crate::resources::Category;

use super::{Deception, DeceptionRule, Gate, Outcome, Tier};

/// Sinkholes non-existent domains and fakes HTTP 200 for unreachable
/// URLs, so C2-liveness evasion checks see a responsive network. Real
/// resolutions and fetches pass through untouched.
pub struct NetworkRule;

impl DeceptionRule for NetworkRule {
    fn name(&self) -> &'static str {
        "network"
    }

    fn category(&self) -> Category {
        Category::Network
    }

    fn apis(&self) -> &'static [(Api, Tier)] {
        &[(Api::DnsQuery, Tier::Core), (Api::InternetOpenUrl, Tier::Core)]
    }

    fn gate(&self) -> Gate {
        Gate::NETWORK
    }

    fn respond(&self, _state: &EngineState, cfg: &Config, call: &mut ApiCall<'_>) -> Outcome {
        match call.api {
            Api::DnsQuery => {
                let domain = call.args.str(0).to_owned();
                let original = call.call_original();
                let failed = matches!(&original, Value::Status(s) if !s.is_success());
                if failed {
                    let a = cfg.sinkhole_addr;
                    let sinkhole = format!("{}.{}.{}.{}", a[0], a[1], a[2], a[3]);
                    return Outcome::Deceive(
                        Deception::new(
                            Category::Network,
                            domain,
                            Profile::Generic,
                            sinkhole.clone(),
                        ),
                        Value::from(sinkhole),
                    );
                }
                Outcome::Done(original)
            }
            Api::InternetOpenUrl => {
                let host = call.args.str(0).to_owned();
                let original = call.call_original();
                if original.as_u64() == Some(0) {
                    return Outcome::Deceive(
                        Deception::new(Category::Network, host, Profile::Generic, "HTTP 200"),
                        Value::U64(200),
                    );
                }
                Outcome::Done(original)
            }
            _ => Outcome::Pass,
        }
    }
}
