//! Faked sample identity: path, user, and machine names (Section II-B(f)).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use winsim::{Api, ApiCall, Value};

use crate::config::Config;
use crate::engine::EngineState;
use crate::profiles::Profile;
use crate::resources::Category;

use super::{Deception, DeceptionRule, Gate, Outcome, Tier};

/// Deterministic md5-looking hex name for the fake sample path.
pub(crate) fn hash_name(image: &str) -> String {
    let mut h1 = DefaultHasher::new();
    image.hash(&mut h1);
    let a = h1.finish();
    let mut h2 = DefaultHasher::new();
    (image, a).hash(&mut h2);
    format!("{:016x}{:016x}", a, h2.finish())
}

/// Tells the sample it lives where a sandbox would put it: renamed to a
/// hash under the sample directory, run by a throwaway account on a
/// machine literally named SANDBOX.
pub struct IdentityRule;

impl DeceptionRule for IdentityRule {
    fn name(&self) -> &'static str {
        "identity"
    }

    fn category(&self) -> Category {
        Category::Identity
    }

    fn apis(&self) -> &'static [(Api, Tier)] {
        &[
            (Api::GetModuleFileName, Tier::Core),
            (Api::GetUserName, Tier::Core),
            (Api::GetComputerName, Tier::Core),
        ]
    }

    fn gate(&self) -> Gate {
        Gate::SOFTWARE
    }

    fn respond(&self, _state: &EngineState, cfg: &Config, call: &mut ApiCall<'_>) -> Outcome {
        match call.api {
            Api::GetModuleFileName => {
                let pid = call.pid;
                let image =
                    call.machine().process(pid).map(|p| p.image.clone()).unwrap_or_default();
                let faked = format!("{}\\{}.exe", cfg.fake_sample_dir, hash_name(&image));
                Outcome::Deceive(
                    Deception::new(Category::Identity, "sample path", Profile::Generic, &faked),
                    Value::from(faked),
                )
            }
            Api::GetUserName => Outcome::Deceive(
                Deception::new(Category::Identity, "user name", Profile::Generic, &cfg.fake_user),
                Value::from(cfg.fake_user.as_str()),
            ),
            Api::GetComputerName => Outcome::Deceive(
                Deception::new(
                    Category::Identity,
                    "computer name",
                    Profile::Generic,
                    &cfg.fake_computer,
                ),
                Value::from(cfg.fake_computer.as_str()),
            ),
            _ => Outcome::Pass,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::hash_name;

    #[test]
    fn fake_sample_path_is_stable_and_hashlike() {
        let a = hash_name("pafish.exe");
        let b = hash_name("pafish.exe");
        assert_eq!(a, b);
        assert_eq!(a.len(), 32);
        assert!(a.chars().all(|c| c.is_ascii_hexdigit()));
        assert_ne!(hash_name("other.exe"), a);
    }
}
