//! Pairwise trace comparison.

use std::collections::BTreeSet;

use crate::trace::{ActivityKey, Trace};

/// The two runs of one sample, folded once: each run's significant
/// activities and self-spawn count.
///
/// This mirrors the evaluation methodology of Section IV-C: "We examined if
/// there were any significant activities … in the trace without SCARECROW
/// but not in the trace with SCARECROW." A paired run keeps this fold
/// (`harness::RunPair::diff`); its verdict and every report read it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDiff {
    /// Significant activities of the baseline run (without Scarecrow).
    pub baseline: BTreeSet<ActivityKey>,
    /// Significant activities of the protected run (with Scarecrow).
    pub protected: BTreeSet<ActivityKey>,
    /// Self-spawn counts (baseline, protected).
    pub self_spawns: (usize, usize),
}

impl TraceDiff {
    /// Folds the two runs of one sample.
    ///
    /// # Panics
    ///
    /// Panics if the traces record different root images — comparing runs of
    /// different samples is a harness bug, not a data condition.
    pub fn compute(baseline: &Trace, protected: &Trace) -> Self {
        assert_eq!(
            baseline.root_image(),
            protected.root_image(),
            "trace diff requires two runs of the same sample"
        );
        TraceDiff {
            baseline: baseline.significant_activities(),
            protected: protected.significant_activities(),
            self_spawns: (baseline.self_spawn_count(), protected.self_spawn_count()),
        }
    }

    /// Significant activities present only in the baseline (suppressed by
    /// the deception engine), in order.
    pub fn suppressed(&self) -> impl Iterator<Item = &ActivityKey> {
        self.baseline.difference(&self.protected)
    }

    /// Significant activities present only in the protected run (new
    /// behaviour caused by the engine, e.g. a benign fallback component),
    /// in order.
    pub fn introduced(&self) -> impl Iterator<Item = &ActivityKey> {
        self.protected.difference(&self.baseline)
    }

    /// Whether the protected run lost significant activities relative to the
    /// baseline.
    pub fn has_suppressed(&self) -> bool {
        self.suppressed().next().is_some()
    }

    /// Whether the baseline showed any significant activity at all.
    ///
    /// Samples such as the `Selfdel` family delete and terminate themselves
    /// immediately in *both* environments; with no critical activity in the
    /// baseline there is nothing to judge (paper: "it was not
    /// straightforward to determine the effectiveness … without observing
    /// any critical activities").
    pub fn baseline_had_activity(&self) -> bool {
        !self.baseline.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind};

    fn trace_with(root: &str, images: &[&str]) -> Trace {
        let mut t = Trace::new(root);
        for (i, img) in images.iter().enumerate() {
            t.record(Event::at(
                i as u64,
                1,
                EventKind::ProcessCreate { pid: 10 + i as u32, parent: 1, image: (*img).into() },
            ));
        }
        t
    }

    #[test]
    fn diff_partitions_activities() {
        let base = trace_with("m.exe", &["svchost.exe", "dropper.exe"]);
        let prot = trace_with("m.exe", &["svchost.exe", "winform.exe"]);
        let d = TraceDiff::compute(&base, &prot);
        let names = |keys: Vec<&ActivityKey>| -> Vec<String> {
            keys.into_iter().map(ToString::to_string).collect()
        };
        assert_eq!(names(d.suppressed().collect()), ["proc_create(dropper.exe)"]);
        assert_eq!(names(d.introduced().collect()), ["proc_create(winform.exe)"]);
        assert_eq!(d.baseline.intersection(&d.protected).count(), 1);
    }

    #[test]
    fn self_spawns_counted_per_side() {
        let base = trace_with("m.exe", &["x.exe"]);
        let prot = trace_with("m.exe", &["m.exe", "m.exe", "m.exe"]);
        let d = TraceDiff::compute(&base, &prot);
        assert_eq!(d.self_spawns, (0, 3));
    }

    #[test]
    #[should_panic(expected = "same sample")]
    fn diff_rejects_mismatched_samples() {
        let a = Trace::new("a.exe");
        let b = Trace::new("b.exe");
        let _ = TraceDiff::compute(&a, &b);
    }

    #[test]
    fn empty_baseline_reports_no_activity() {
        let a = Trace::new("m.exe");
        let b = Trace::new("m.exe");
        let d = TraceDiff::compute(&a, &b);
        assert!(!d.baseline_had_activity());
    }
}
