//! The append-only trace store and significant-activity extraction.

use std::collections::BTreeSet;

use crate::event::{Event, EventKind, Pid};

/// A normalized, order-independent description of one *significant activity*.
///
/// The paper's deactivation criterion compares "significant activities, such
/// as creating new processes, writing files, and modifying registries"
/// between the two traces. An `ActivityKey` abstracts an [`Event`] down to
/// what it did and to which object, dropping pids, timestamps, and byte
/// counts so that two runs of the same sample produce comparable sets.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActivityKey {
    /// The activity class (an [`EventKind::tag`] value, or `"reg_mutate"`).
    pub tag: &'static str,
    /// The normalized object of the activity (image name, path, key, ...).
    pub object: String,
}

impl ActivityKey {
    /// Creates a key from a tag/object pair.
    pub fn new(tag: &'static str, object: impl Into<String>) -> Self {
        ActivityKey { tag, object: object.into() }
    }
}

crate::impl_to_json!(struct ActivityKey { tag, object });

impl std::fmt::Display for ActivityKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}({})", self.tag, self.object)
    }
}

/// An append-only sequence of [`Event`]s for one sample execution.
///
/// A trace knows the *root image*: the executable name of the sample whose
/// run it records. Self-spawn analysis (Section IV-C: "823 of evasive
/// malware samples spawned itself more than 10 times") is relative to the
/// root image.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    root_image: String,
    events: Vec<Event>,
}

impl Trace {
    /// Creates an empty trace for a sample whose executable is `root_image`.
    pub fn new(root_image: impl Into<String>) -> Self {
        Trace { root_image: root_image.into(), events: Vec::new() }
    }

    /// The executable name of the traced sample.
    pub fn root_image(&self) -> &str {
        &self.root_image
    }

    /// Appends an event.
    ///
    /// Events must be recorded in non-decreasing virtual-time order; this is
    /// enforced with a debug assertion (the substrate's clock is monotonic).
    pub fn record(&mut self, event: Event) {
        debug_assert!(
            self.events.last().is_none_or(|prev| prev.time <= event.time),
            "events must be recorded in virtual-time order"
        );
        self.events.push(event);
    }

    /// All recorded events in order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// How many times the sample spawned *its own image* again.
    ///
    /// This is the signal behind the paper's self-spawn-loop criterion: in a
    /// Scarecrow environment, `IsDebuggerPresent()`-driven samples re-spawn
    /// themselves indefinitely ("sample 0827… spawned itself 474 times in a
    /// minute").
    pub fn self_spawn_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| {
                matches!(&e.kind, EventKind::ProcessCreate { image, .. }
                    if image.eq_ignore_ascii_case(&self.root_image))
            })
            .count()
    }

    /// The messages of the alarms the controller raised during the run
    /// (the self-spawn-loop alarm of Section VI-C), in order.
    pub fn alarms(&self) -> impl Iterator<Item = &str> {
        self.events.iter().filter_map(|e| match &e.kind {
            EventKind::Alarm { message } => Some(message.as_str()),
            _ => None,
        })
    }

    /// The set of significant activities in this trace.
    ///
    /// Significant activities are the mutations the paper looks for when
    /// diffing traces: process creation (of images other than the sample
    /// itself — a self-copy spawn is loop behaviour, not payload), process
    /// injection, file creation/writes/deletes/renames, registry mutations,
    /// and mutex creation. Queries (file reads, registry opens, DNS lookups)
    /// are not significant: every evasive sample performs those while
    /// fingerprinting.
    pub fn significant_activities(&self) -> BTreeSet<ActivityKey> {
        let mut set = BTreeSet::new();
        for e in &self.events {
            let key = match &e.kind {
                EventKind::ProcessCreate { image, .. } => {
                    if image.eq_ignore_ascii_case(&self.root_image) {
                        continue; // self-spawn: handled by the loop criterion
                    }
                    ActivityKey::new(e.kind.tag(), normalize(image))
                }
                EventKind::ProcessInject { target_image, .. } => {
                    ActivityKey::new(e.kind.tag(), normalize(target_image))
                }
                EventKind::FileDelete { path } if is_self_path(path, &self.root_image) => {
                    // Pure self-removal (the `Selfdel` family): happens in
                    // every environment and signals no payload.
                    continue;
                }
                EventKind::FileCreate { path }
                | EventKind::FileWrite { path, .. }
                | EventKind::FileDelete { path } => {
                    if is_self_path(path, &self.root_image) {
                        // Dropping a copy of *itself* appears identically
                        // in both traces; fold to a stable marker.
                        ActivityKey::new(e.kind.tag(), "<self>".to_owned())
                    } else {
                        ActivityKey::new(e.kind.tag(), normalize(path))
                    }
                }
                EventKind::FileRename { to, .. } => ActivityKey::new(e.kind.tag(), normalize(to)),
                EventKind::Registry { op, path } if op.is_mutation() => {
                    ActivityKey::new("reg_mutate", normalize(path))
                }
                EventKind::MutexCreate { name } => ActivityKey::new(e.kind.tag(), normalize(name)),
                _ => continue,
            };
            set.insert(key);
        }
        set
    }

    /// Pids that appear as actors in this trace.
    pub fn pids(&self) -> BTreeSet<Pid> {
        self.events.iter().map(|e| e.pid).collect()
    }
}

impl Extend<Event> for Trace {
    fn extend<T: IntoIterator<Item = Event>>(&mut self, iter: T) {
        for e in iter {
            self.record(e);
        }
    }
}

/// Normalizes an object name for comparison across runs: lower-cases and
/// strips run-specific numeric decorations (e.g. `FB_473.tmp.exe` and
/// `FB_5DB.tmp.exe` both normalize to `fb_*.tmp.exe`).
fn normalize(object: &str) -> String {
    let lower = object.to_ascii_lowercase();
    let mut out = String::with_capacity(lower.len());
    let mut in_run = false;
    for c in lower.chars() {
        if c.is_ascii_hexdigit() && !c.is_ascii_alphabetic() || c.is_ascii_digit() {
            if !in_run {
                out.push('*');
                in_run = true;
            }
        } else if c.is_ascii_hexdigit() && in_run {
            // letters a-f inside a digit run stay folded into the wildcard
        } else {
            in_run = false;
            out.push(c);
        }
    }
    out
}

/// Whether `path` refers to (a copy of) the sample's own executable.
fn is_self_path(path: &str, root_image: &str) -> bool {
    let file = path.rsplit(['\\', '/']).next().unwrap_or(path);
    file.eq_ignore_ascii_case(root_image)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::RegOp;

    fn pc(t: u64, image: &str) -> Event {
        Event::at(t, 1, EventKind::ProcessCreate { pid: 9, parent: 1, image: image.into() })
    }

    #[test]
    fn self_spawn_count_matches_only_root_image() {
        let mut tr = Trace::new("mal.exe");
        tr.record(pc(0, "mal.exe"));
        tr.record(pc(1, "MAL.EXE")); // case-insensitive
        tr.record(pc(2, "other.exe"));
        assert_eq!(tr.self_spawn_count(), 2);
    }

    #[test]
    fn alarms_lists_only_alarm_messages() {
        let mut tr = Trace::new("mal.exe");
        tr.record(pc(0, "mal.exe"));
        tr.record(Event::at(1, 1, EventKind::Alarm { message: "loop".into() }));
        assert_eq!(tr.alarms().collect::<Vec<_>>(), ["loop"]);
    }

    #[test]
    fn self_spawns_are_not_significant_activities() {
        let mut tr = Trace::new("mal.exe");
        tr.record(pc(0, "mal.exe"));
        assert!(tr.significant_activities().is_empty());
    }

    #[test]
    fn queries_are_not_significant() {
        let mut tr = Trace::new("mal.exe");
        tr.record(Event::at(0, 1, EventKind::FileRead { path: r"C:\vmmouse.sys".into() }));
        tr.record(Event::at(
            1,
            1,
            EventKind::Registry { op: RegOp::OpenKey, path: r"SOFTWARE\VMware, Inc.".into() },
        ));
        tr.record(Event::at(2, 1, EventKind::DnsQuery { domain: "x.test".into(), resolved: None }));
        assert!(tr.significant_activities().is_empty());
    }

    #[test]
    fn mutations_are_significant() {
        let mut tr = Trace::new("mal.exe");
        tr.record(Event::at(0, 1, EventKind::FileWrite { path: r"C:\doc.txt".into(), bytes: 10 }));
        tr.record(Event::at(
            1,
            1,
            EventKind::Registry { op: RegOp::SetValue, path: r"...\Run\mal".into() },
        ));
        tr.record(pc(2, "svchost.exe"));
        assert_eq!(tr.significant_activities().len(), 3);
    }

    #[test]
    fn normalization_folds_numeric_decorations() {
        assert_eq!(normalize("FB_473.tmp.exe"), normalize("FB_5DB.tmp.exe"));
        assert_ne!(normalize("alpha.exe"), normalize("beta.exe"));
    }

    #[test]
    fn self_copy_writes_fold_to_self_marker() {
        let mut a = Trace::new("mal.exe");
        a.record(Event::at(
            0,
            1,
            EventKind::FileWrite { path: r"C:\Users\u\AppData\mal.exe".into(), bytes: 4096 },
        ));
        let mut b = Trace::new("mal.exe");
        b.record(Event::at(
            0,
            1,
            EventKind::FileWrite { path: r"C:\Temp\mal.exe".into(), bytes: 4096 },
        ));
        assert_eq!(a.significant_activities(), b.significant_activities());
    }
}
