//! The message the injected `scarecrow.dll` sends the `scarecrow.exe`
//! controller (Section III-B).
//!
//! "scarecrow.dll communicates with scarecrow.exe through interprocess
//! communication channels when a deceptive execution environment is
//! fingerprinted by evasive malware." In the simulation the message is
//! the run's own record: each time a deceptive resource answers, the
//! engine appends a [`winsim::Decision`] to the deception record of the
//! machine the run is on, and the controller takes the record after the
//! run and reads it as [`Trigger`]s.

use winsim::{Api, Decision};

use crate::profiles::Profile;
use crate::resources::Category;

/// One fingerprinting event: an evasive check hit a deceptive resource.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trigger {
    /// The hooked API through which the resource was queried.
    pub api: Api,
    /// The resource category.
    pub category: Category,
    /// The queried resource (path, name, key, domain, …).
    pub resource: String,
    /// The profile that answered.
    pub profile: Profile,
    /// Virtual time of the query.
    pub time_ms: u64,
}

impl Trigger {
    /// The trigger a decision stands for. The engine names categories and
    /// profiles only through [`Category::name`] and [`Profile::name`], so
    /// an unknown name is a bug and panics rather than losing a trigger.
    pub(crate) fn from_decision(d: Decision) -> Trigger {
        Trigger {
            api: d.api,
            category: Category::from_name(d.category).expect("decision names a known category"),
            resource: d.resource,
            profile: Profile::from_name(d.profile).expect("decision names a known profile"),
            time_ms: d.time_ms,
        }
    }
}

impl std::fmt::Display for Trigger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{} ms] {}() fingerprinted {} resource {:?} ({} profile)",
            self.time_ms, self.api, self.category, self.resource, self.profile
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Trigger {
        Trigger {
            api: Api::IsDebuggerPresent,
            category: Category::Debugger,
            resource: "IsDebuggerPresent".into(),
            profile: Profile::Debugger,
            time_ms: ms,
        }
    }

    #[test]
    fn display_is_readable() {
        let s = t(5).to_string();
        assert!(s.contains("IsDebuggerPresent"));
        assert!(s.contains("debugger"));
    }
}
