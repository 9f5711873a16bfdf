//! Trace summary statistics, for reports and fleet dashboards.

use std::collections::BTreeMap;

use crate::trace::Trace;

/// Per-trace summary: event counts by class plus headline figures.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Event counts keyed by [`crate::EventKind::tag`].
    pub by_tag: BTreeMap<String, usize>,
    /// Total events.
    pub total: usize,
    /// Virtual duration covered by the trace (last − first timestamp, ms).
    pub duration_ms: u64,
    /// Distinct acting processes.
    pub distinct_pids: usize,
    /// Number of significant activities.
    pub significant: usize,
    /// Self-spawn count.
    pub self_spawns: usize,
}

impl TraceStats {
    /// Summarizes a trace.
    ///
    /// ```
    /// use tracer::{Event, EventKind, Trace, TraceStats};
    /// let mut t = Trace::new("m.exe");
    /// t.record(Event::at(0, 1, EventKind::FileRead { path: r"C:\x".into() }));
    /// t.record(Event::at(9, 2, EventKind::FileWrite { path: r"C:\y".into(), bytes: 3 }));
    /// let s = TraceStats::of(&t);
    /// assert_eq!(s.total, 2);
    /// assert_eq!(s.duration_ms, 9);
    /// assert_eq!(s.distinct_pids, 2);
    /// assert_eq!(s.by_tag["file_write"], 1);
    /// ```
    pub fn of(trace: &Trace) -> Self {
        let mut by_tag: BTreeMap<String, usize> = BTreeMap::new();
        for e in trace.events() {
            *by_tag.entry(e.kind.tag().to_owned()).or_default() += 1;
        }
        let duration_ms = match (trace.events().first(), trace.events().last()) {
            (Some(first), Some(last)) => last.time - first.time,
            _ => 0,
        };
        TraceStats {
            by_tag,
            total: trace.len(),
            duration_ms,
            distinct_pids: trace.pids().len(),
            significant: trace.significant_activities().len(),
            self_spawns: trace.self_spawn_count(),
        }
    }

    /// Count for one event class.
    pub fn count(&self, tag: &str) -> usize {
        self.by_tag.get(tag).copied().unwrap_or(0)
    }

    /// Fraction of events that are environment queries (registry opens,
    /// file reads, module/window/debug/info queries, DNS) — high ratios are
    /// the signature of fingerprint-heavy evasive code.
    pub fn query_ratio(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let queries: usize =
            ["file_read", "dns_query", "module_query", "window_query", "debug_query", "info_query"]
                .iter()
                .map(|t| self.count(t))
                .sum::<usize>()
                + self.count_registry_queries();
        queries as f64 / self.total as f64
    }

    fn count_registry_queries(&self) -> usize {
        // registry events carry one tag; opens/queries dominate malware
        // fingerprinting, so the registry tag approximates query traffic
        self.count("registry")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind, RegOp};

    fn sample_trace() -> Trace {
        let mut t = Trace::new("m.exe");
        t.record(Event::at(
            0,
            1,
            EventKind::Registry { op: RegOp::OpenKey, path: r"HKLM\SOFTWARE\VMware, Inc.".into() },
        ));
        t.record(Event::at(1, 1, EventKind::DebugQuery { api: "IsDebuggerPresent".into() }));
        t.record(Event::at(5, 1, EventKind::FileWrite { path: r"C:\evil".into(), bytes: 1 }));
        t
    }

    #[test]
    fn counts_and_duration() {
        let s = TraceStats::of(&sample_trace());
        assert_eq!(s.total, 3);
        assert_eq!(s.duration_ms, 5);
        assert_eq!(s.count("registry"), 1);
        assert_eq!(s.count("debug_query"), 1);
        assert_eq!(s.count("nonexistent"), 0);
        assert_eq!(s.significant, 1);
    }

    #[test]
    fn query_ratio_flags_fingerprint_heavy_traces() {
        let s = TraceStats::of(&sample_trace());
        assert!((s.query_ratio() - 2.0 / 3.0).abs() < 1e-9);
        let empty = TraceStats::of(&Trace::new("m.exe"));
        assert_eq!(empty.query_ratio(), 0.0);
    }
}
