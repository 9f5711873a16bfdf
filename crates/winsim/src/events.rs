//! The system event log (the Windows Event Log as seen through `EvtNext`).
//!
//! The wear-and-tear evasion of Miramirkhani et al. counts system events
//! (`sysevt`) and distinct event sources (`syssrc`) as top-5 aging
//! artifacts; Scarecrow hooks `EvtNext()` and "only returns the top 8000
//! system events" (Table III).
//!
//! Each source name is stored once, as an `Arc<str>` every event of that
//! source shares, so an `EvtNext` answer hands out refcounted names rather
//! than one copy per event.

use std::sync::Arc;

/// One record in the system event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SysEvent {
    /// Event source ("Service Control Manager", "Application Error", ...),
    /// shared by every event of that source.
    pub source: Arc<str>,
    /// Provider-specific event id.
    pub event_id: u32,
    /// Virtual timestamp (ms since an arbitrary epoch before boot).
    pub time: u64,
}

/// The event log store.
///
/// ```
/// use std::collections::HashSet;
/// use winsim::EventLog;
/// let mut log = EventLog::new();
/// log.seed(10_000, &["Service Control Manager", "Kernel-General"]);
/// let capped = log.recent(8_000);
/// assert_eq!(capped.len(), 8_000);
/// // distinct sources, as the `syssrc` artifact counts them
/// assert_eq!(capped.iter().map(|e| &*e.source).collect::<HashSet<_>>().len(), 2);
/// ```
///
/// The seeded event store is `Arc`-shared so machine snapshots clone in
/// O(1). Only [`EventLog::seed`] appends, while a preset is built and the
/// `Arc` is not yet shared; no API handler writes the log at run time, so
/// runs never copy it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventLog {
    events: Arc<Vec<SysEvent>>,
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// Seeds the log with `count` synthetic events spread round-robin over
    /// `sources`, modeling a system that has been in use. Each source is
    /// allocated once and shared by its events; with no sources there is
    /// nothing to attribute an event to, so nothing is appended.
    pub fn seed(&mut self, count: usize, sources: &[&str]) {
        let shared: Vec<Arc<str>> = sources.iter().map(|&s| Arc::from(s)).collect();
        let events = shared.iter().cycle().take(count).enumerate().map(|(i, source)| SysEvent {
            source: Arc::clone(source),
            event_id: 1000 + (i % 40) as u32,
            time: i as u64 * 1000,
        });
        Arc::make_mut(&mut self.events).extend(events);
    }

    /// Total number of events (the `sysevt` artifact).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All events, oldest first.
    pub fn events(&self) -> &[SysEvent] {
        &self.events
    }

    /// The most recent `n` events (what a capped `EvtNext` cursor yields).
    pub fn recent(&self, n: usize) -> &[SysEvent] {
        let start = self.events.len().saturating_sub(n);
        &self.events[start..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_produces_requested_count() {
        let mut log = EventLog::new();
        log.seed(100, &["SCM", "AppErr", "Kernel-General"]);
        assert_eq!(log.len(), 100);
        let sources: Vec<&str> = log.events()[..4].iter().map(|e| &*e.source).collect();
        assert_eq!(sources, ["SCM", "AppErr", "Kernel-General", "SCM"]);
        // one allocation per source, shared by its events
        assert!(Arc::ptr_eq(&log.events()[0].source, &log.events()[3].source));
    }

    #[test]
    fn seed_without_sources_appends_nothing() {
        let mut log = EventLog::new();
        log.seed(100, &[]);
        assert!(log.is_empty());
    }

    #[test]
    fn recent_caps_from_the_tail() {
        let mut log = EventLog::new();
        log.seed(20, &["A", "B"]);
        assert_eq!(log.recent(5).len(), 5);
        assert_eq!(log.recent(5)[0].time, 15 * 1000);
        assert_eq!(log.recent(100).len(), 20);
    }

    #[test]
    fn empty_log() {
        let log = EventLog::new();
        assert!(log.is_empty());
        assert_eq!(log.recent(10).len(), 0);
    }
}
