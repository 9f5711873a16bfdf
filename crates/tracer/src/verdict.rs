//! The paper's deactivation criterion (Section IV-C).

use crate::diff::TraceDiff;
use crate::json::{Json, ToJson};
use crate::trace::{ActivityKey, Trace};

/// The self-spawn count beyond which a protected run is classified as a
/// deactivating loop.
///
/// Paper: "we checked the traces with SCARECROW installed and found 823
/// (78.08%) of evasive malware samples spawned itself **more than 10
/// times**".
pub const SELF_SPAWN_LOOP_THRESHOLD: usize = 10;

/// Why a sample was judged deactivated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeactivationReason {
    /// The sample entered an everlasting self-spawn loop under the deception
    /// engine and never reached its payload.
    SelfSpawnLoop {
        /// Number of self-spawns observed within the run budget.
        count: usize,
    },
    /// Significant activities from the baseline run are missing from the
    /// protected run.
    SuppressedActivities {
        /// The missing activities.
        missing: Vec<ActivityKey>,
    },
}

/// The per-sample judgement produced by comparing the two runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Scarecrow deactivated the sample's malicious behaviour.
    Deactivated(DeactivationReason),
    /// The sample performed its full baseline behaviour despite the engine.
    NotDeactivated,
    /// The baseline itself showed no critical activity (e.g. the `Selfdel`
    /// family), so effectiveness cannot be judged.
    Indeterminate,
}

impl ToJson for DeactivationReason {
    fn to_json(&self) -> Json {
        let (variant, fields) = match self {
            DeactivationReason::SelfSpawnLoop { count } => {
                ("SelfSpawnLoop", Json::object([("count", count.to_json())]))
            }
            DeactivationReason::SuppressedActivities { missing } => {
                ("SuppressedActivities", Json::object([("missing", missing.to_json())]))
            }
        };
        Json::object([(variant, fields)])
    }
}

impl ToJson for Verdict {
    fn to_json(&self) -> Json {
        match self {
            Verdict::Deactivated(reason) => Json::object([("Deactivated", reason.to_json())]),
            Verdict::NotDeactivated => "NotDeactivated".to_json(),
            Verdict::Indeterminate => "Indeterminate".to_json(),
        }
    }
}

impl Verdict {
    /// Applies the Section IV-C criterion to a pair of runs.
    ///
    /// Ordering matters and follows the paper:
    ///
    /// 1. a protected-run self-spawn loop (> [`SELF_SPAWN_LOOP_THRESHOLD`])
    ///    is a deactivation regardless of anything else — the loop never
    ///    reaches the code beyond the evasive logic;
    /// 2. otherwise, if the baseline had significant activities and some are
    ///    missing from the protected run, the sample was deactivated;
    /// 3. otherwise, if the baseline had no critical activity at all the
    ///    result is indeterminate;
    /// 4. otherwise the sample ran its payload under the engine: not
    ///    deactivated.
    pub fn decide(baseline: &Trace, protected: &Trace) -> Verdict {
        let diff = TraceDiff::compute(baseline, protected);
        Verdict::from_diff(&diff)
    }

    /// Same as [`Verdict::decide`] but reuses an already-computed diff.
    pub fn from_diff(diff: &TraceDiff) -> Verdict {
        let (_, spawned_protected) = diff.self_spawns;
        if spawned_protected > SELF_SPAWN_LOOP_THRESHOLD {
            return Verdict::Deactivated(DeactivationReason::SelfSpawnLoop {
                count: spawned_protected,
            });
        }
        if diff.has_suppressed() {
            return Verdict::Deactivated(DeactivationReason::SuppressedActivities {
                missing: diff.suppressed().cloned().collect(),
            });
        }
        if !diff.baseline_had_activity() {
            return Verdict::Indeterminate;
        }
        Verdict::NotDeactivated
    }

    /// Whether this verdict counts toward the deactivation rate.
    pub fn is_deactivated(&self) -> bool {
        matches!(self, Verdict::Deactivated(_))
    }

    /// Whether the verdict was reached through the self-spawn-loop rule.
    pub fn is_self_spawn_loop(&self) -> bool {
        matches!(self, Verdict::Deactivated(DeactivationReason::SelfSpawnLoop { .. }))
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Deactivated(DeactivationReason::SelfSpawnLoop { count }) => {
                write!(f, "deactivated (self-spawn loop, {count} spawns)")
            }
            Verdict::Deactivated(DeactivationReason::SuppressedActivities { missing }) => {
                write!(f, "deactivated ({} suppressed activities)", missing.len())
            }
            Verdict::NotDeactivated => write!(f, "not deactivated"),
            Verdict::Indeterminate => write!(f, "indeterminate (no baseline activity)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind};

    fn spawn(t: u64, image: &str) -> Event {
        Event::at(t, 1, EventKind::ProcessCreate { pid: 2, parent: 1, image: image.into() })
    }

    fn baseline_with_payload() -> Trace {
        let mut t = Trace::new("m.exe");
        t.record(spawn(0, "svchost.exe"));
        t.record(Event::at(1, 1, EventKind::FileWrite { path: r"C:\evil.dat".into(), bytes: 8 }));
        t
    }

    #[test]
    fn suppressed_payload_is_deactivated() {
        let base = baseline_with_payload();
        let prot = Trace::new("m.exe");
        let v = Verdict::decide(&base, &prot);
        assert!(v.is_deactivated());
        assert!(!v.is_self_spawn_loop());
    }

    #[test]
    fn self_spawn_loop_is_deactivated_even_with_shared_activity() {
        let base = baseline_with_payload();
        let mut prot = Trace::new("m.exe");
        for i in 0..=SELF_SPAWN_LOOP_THRESHOLD as u64 {
            prot.record(spawn(i, "m.exe"));
        }
        let v = Verdict::decide(&base, &prot);
        assert!(v.is_self_spawn_loop());
    }

    #[test]
    fn exactly_threshold_spawns_is_not_a_loop() {
        // the paper says "more than 10 times"
        let base = baseline_with_payload();
        let mut prot = Trace::new("m.exe");
        for i in 0..SELF_SPAWN_LOOP_THRESHOLD as u64 {
            prot.record(spawn(i, "m.exe"));
        }
        let v = Verdict::decide(&base, &prot);
        // 10 spawns, no suppression missing? baseline has payload missing, so
        // suppression still deactivates — but not via the loop rule.
        assert!(v.is_deactivated());
        assert!(!v.is_self_spawn_loop());
    }

    #[test]
    fn identical_behaviour_is_not_deactivated() {
        let base = baseline_with_payload();
        let prot = baseline_with_payload();
        assert_eq!(Verdict::decide(&base, &prot), Verdict::NotDeactivated);
    }

    #[test]
    fn empty_both_sides_is_indeterminate() {
        let base = Trace::new("m.exe");
        let prot = Trace::new("m.exe");
        assert_eq!(Verdict::decide(&base, &prot), Verdict::Indeterminate);
    }

    #[test]
    fn display_is_informative() {
        let base = baseline_with_payload();
        let prot = Trace::new("m.exe");
        let text = Verdict::decide(&base, &prot).to_string();
        assert!(text.contains("deactivated"));
    }
}
