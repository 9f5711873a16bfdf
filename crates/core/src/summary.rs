//! Trigger-stream aggregation for controller dashboards and reports.

use std::collections::BTreeMap;

use winsim::Decision;

use crate::profiles::Profile;
use crate::resources::Category;

/// Aggregated view of a protected run's trigger stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TriggerSummary {
    /// Total triggers.
    pub total: usize,
    /// Triggers per resource category.
    pub by_category: BTreeMap<String, usize>,
    /// Triggers per hooked API.
    pub by_api: BTreeMap<String, usize>,
    /// Triggers per deception profile.
    pub by_profile: BTreeMap<String, usize>,
    /// Distinct resources fingerprinted.
    pub distinct_resources: usize,
    /// Virtual time of the first trigger, ms.
    pub first_at_ms: Option<u64>,
}

impl TriggerSummary {
    /// Aggregates a trigger stream.
    pub fn of(triggers: &[Decision]) -> Self {
        let mut summary = TriggerSummary { total: triggers.len(), ..TriggerSummary::default() };
        let mut resources = std::collections::BTreeSet::new();
        for t in triggers {
            *summary.by_category.entry(t.category.to_owned()).or_default() += 1;
            *summary.by_api.entry(t.api.name().to_owned()).or_default() += 1;
            *summary.by_profile.entry(t.profile.to_owned()).or_default() += 1;
            resources.insert(&t.resource);
            summary.first_at_ms = Some(summary.first_at_ms.map_or(t.time_ms, |f| f.min(t.time_ms)));
        }
        summary.distinct_resources = resources.len();
        summary
    }

    /// Count for a category.
    pub fn category(&self, category: Category) -> usize {
        self.by_category.get(category.name()).copied().unwrap_or(0)
    }

    /// Count for a profile.
    pub fn profile(&self, profile: Profile) -> usize {
        self.by_profile.get(profile.name()).copied().unwrap_or(0)
    }

    /// The most-queried API, if any triggers exist.
    pub fn hottest_api(&self) -> Option<(&str, usize)> {
        self.by_api.iter().max_by_key(|(_, n)| **n).map(|(k, n)| (k.as_str(), *n))
    }
}

impl std::fmt::Display for TriggerSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} triggers over {} resources", self.total, self.distinct_resources)?;
        if let Some((api, n)) = self.hottest_api() {
            write!(f, "; hottest API {api} ({n}x)")?;
        }
        if let Some(ms) = self.first_at_ms {
            write!(f, "; first at {ms} ms")?;
        }
        Ok(())
    }
}

impl crate::controller::ProtectedRun {
    /// Aggregates this run's trigger stream.
    pub fn trigger_summary(&self) -> TriggerSummary {
        TriggerSummary::of(&self.triggers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use winsim::Api;

    fn t(api: Api, category: Category, resource: &'static str, ms: u64) -> Decision {
        Decision {
            api,
            category: category.name(),
            resource: resource.into(),
            profile: Profile::Debugger.name(),
            answer: "TRUE".into(),
            time_ms: ms,
        }
    }

    #[test]
    fn aggregation_counts_everything() {
        let triggers = vec![
            t(Api::IsDebuggerPresent, Category::Debugger, "IsDebuggerPresent", 5),
            t(Api::IsDebuggerPresent, Category::Debugger, "IsDebuggerPresent", 9),
            t(Api::RegOpenKeyEx, Category::Registry, r"HKLM\SOFTWARE\Wine", 2),
        ];
        let s = TriggerSummary::of(&triggers);
        assert_eq!(s.total, 3);
        assert_eq!(s.category(Category::Debugger), 2);
        assert_eq!(s.category(Category::Registry), 1);
        assert_eq!(s.category(Category::Network), 0);
        assert_eq!(s.distinct_resources, 2);
        assert_eq!(s.first_at_ms, Some(2));
        assert_eq!(s.hottest_api(), Some(("IsDebuggerPresent", 2)));
        assert_eq!(s.profile(Profile::Debugger), 3);
    }

    #[test]
    fn empty_stream_summary() {
        let s = TriggerSummary::of(&[]);
        assert_eq!(s.total, 0);
        assert_eq!(s.first_at_ms, None);
        assert_eq!(s.hottest_api(), None);
        assert!(s.to_string().contains("0 triggers"));
    }
}
