//! The causal flight recorder: per-worker span streams, latency
//! histograms, and deactivation attribution.
//!
//! [`Telemetry`](crate::Telemetry) answers *how many* — dispatches,
//! hook hits, deception triggers. This module answers *which and why*: for
//! each sample, the causal chain
//!
//! ```text
//! sample
//! └── api_dispatch            (winsim::Machine::call_api)
//!     └── hook_chain          (winsim::ApiCall::call_original)
//!         └── handler         (core engine DeceptionHook)
//!             └── deception_decision   (winsim::Machine::record_decision)
//! ```
//!
//! recorded as spans with **virtual-clock** timestamps (deterministic,
//! from `winsim::Clock`) plus the **real-clock** cost of each dispatch.
//!
//! # Design
//!
//! * **Off by default, zero cost when disabled.** The recorder is an
//!   `Option<FlightRecorder>` owned by the machine; when `None`, every
//!   instrumentation point is a single branch.
//! * **No locks on the hot path.** `Machine::call_api` takes `&mut self`,
//!   so the recorder is a plain struct mutated through `&mut` — no
//!   atomics, no mutexes, no channel sends. Parallel workers each own a
//!   recorder; their [`FlightSnapshot`]s merge in corpus order afterwards.
//! * **Fixed capacity.** Spans land in a ring buffer of 8,192 entries
//!   per recorder; once full, the oldest span is overwritten and
//!   [`FlightSnapshot::dropped_spans`] counts the loss. Attribution steps
//!   are stored separately (at most 32 per sample; further triggers only
//!   bump [`SampleAttribution::total_steps`]) so ring overwrites never lose
//!   the deception chain. Both sizes are constants, and every dispatch is
//!   recorded: there is no sampling.
//! * **One owner.** Whoever owns the machine arms the recorder: the
//!   harness (`Cluster::with_flight`) or a direct caller
//!   (`Machine::set_flight` / `Machine::take_flight`). The deception engine
//!   never creates one.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::hist::LatencyHistogram;
use crate::json::{Json, ToJson};
use crate::Verdict;

/// Ring-buffer capacity in spans, per recorder.
const CAPACITY: usize = 8192;
/// Attribution steps kept per sample; further deception triggers only bump
/// the step count.
const MAX_CHAIN: usize = 32;

/// The flight recorder's on/off gate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlightConfig {
    /// Whether a recorder is attached at all. Disabled means no recorder
    /// is constructed and the hot path pays one branch.
    pub enabled: bool,
}

impl FlightConfig {
    /// The gate switched on.
    pub fn enabled() -> Self {
        FlightConfig { enabled: true }
    }
}

/// The five causal layers a span can belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// One corpus sample's with/without run pair (harness).
    Sample,
    /// One API dispatch through the substrate (`Machine::call_api`).
    ApiDispatch,
    /// Execution of an installed hook chain entry (the winsim trampoline).
    HookChain,
    /// A deception-engine handler deciding how to answer (core).
    Handler,
    /// The instant a fabricated answer was chosen (`winsim::Machine::record_decision`).
    DeceptionDecision,
}

impl SpanKind {
    /// Stable snake_case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Sample => "sample",
            SpanKind::ApiDispatch => "api_dispatch",
            SpanKind::HookChain => "hook_chain",
            SpanKind::Handler => "handler",
            SpanKind::DeceptionDecision => "deception_decision",
        }
    }
}

/// One recorded span.
///
/// `start_ms`/`end_ms` are virtual-clock milliseconds (deterministic);
/// `wall_ns` is the measured real-clock cost of the span body (varies run
/// to run and lives only in diagnostics, never in deterministic
/// comparisons).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Recorder-local span id (unique within one worker's stream).
    pub id: u64,
    /// Enclosing span's id, `None` for roots.
    pub parent: Option<u64>,
    /// Which causal layer emitted the span.
    pub kind: SpanKind,
    /// Human-readable name (sample md5, API name, hook label, …).
    pub name: String,
    /// Simulated process the span executed in (`0` for harness spans).
    pub pid: u64,
    /// Virtual-clock start, milliseconds since machine boot.
    pub start_ms: u64,
    /// Virtual-clock end, milliseconds since machine boot.
    pub end_ms: u64,
    /// Measured real-clock cost of the span body, nanoseconds.
    pub wall_ns: u64,
    /// Corpus position of the enclosing sample (merge/sort key).
    pub corpus_index: u64,
    /// Extra context: fabricated answer, probed resource, run phase.
    pub detail: String,
}

/// The wall-clock histograms the recorder maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightHist {
    /// Full `Machine::call_api` dispatch cost, nanoseconds.
    ApiDispatch,
    /// One hook-chain entry (hooked path), nanoseconds.
    HookChain,
    /// Trampoline tail falling through to the original API, nanoseconds.
    TrampolinePassthrough,
    /// Restoring a machine from its preset snapshot (snapshot reset only),
    /// nanoseconds.
    SnapshotRestore,
}

impl FlightHist {
    /// Every histogram, in slot order.
    pub const ALL: [FlightHist; 4] = [
        FlightHist::ApiDispatch,
        FlightHist::HookChain,
        FlightHist::TrampolinePassthrough,
        FlightHist::SnapshotRestore,
    ];

    /// Stable snake_case name used in snapshots and JSON sidecars.
    pub fn name(self) -> &'static str {
        match self {
            FlightHist::ApiDispatch => "api_dispatch_ns",
            FlightHist::HookChain => "hook_chain_ns",
            FlightHist::TrampolinePassthrough => "trampoline_passthrough_ns",
            FlightHist::SnapshotRestore => "snapshot_restore_ns",
        }
    }
}

/// One deception trigger in a sample's attribution chain: the ordered
/// record of *probed artifact → hooked API → profile handler → fabricated
/// answer* (the machine-readable version of a Table I row). The recorder's
/// copy of a `winsim::Decision`: the names are static, and the artifact
/// and answer share the decision's text when it is a literal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributionStep {
    /// Virtual time of the probe, milliseconds.
    pub time_ms: u64,
    /// The probed artifact (path, registry key, process name, …).
    pub artifact: Cow<'static, str>,
    /// Resource category of the artifact (file, registry, debugger, …).
    pub category: &'static str,
    /// The hooked API the probe arrived through.
    pub api: &'static str,
    /// The deception profile handler that answered.
    pub handler: &'static str,
    /// The fabricated answer returned to the sample.
    pub answer: Cow<'static, str>,
}

/// The full attribution for one sample: why the verdict came out the way
/// it did, as an ordered deception chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleAttribution {
    /// Sample name (md5 or case label).
    pub sample: String,
    /// Position in the corpus (merge/sort key).
    pub corpus_index: u64,
    /// The deactivation verdict, rendered.
    pub verdict: String,
    /// Total deception triggers observed (may exceed `chain.len()` when
    /// the per-sample cap truncated the chain).
    pub total_steps: u64,
    /// The ordered deception chain, capped at 32 steps.
    pub chain: Vec<AttributionStep>,
}

/// An open span on the recorder's stack.
#[derive(Clone)]
struct OpenSpan {
    id: u64,
    kind: SpanKind,
    name: String,
    pid: u64,
    start_ms: u64,
    started: Instant,
    detail: String,
}

/// The per-worker flight recorder. All methods take `&mut self`; the hot
/// path performs no locking and no atomics. (`Clone` exists only so a
/// machine template carrying one stays cloneable; snapshots drop it.)
#[derive(Clone)]
pub struct FlightRecorder {
    spans: Vec<Span>,
    head: usize,
    total_spans: u64,
    next_id: u64,
    stack: Vec<OpenSpan>,
    corpus_index: u64,
    sample_name: String,
    current_steps: Vec<AttributionStep>,
    current_total_steps: u64,
    attributions: Vec<SampleAttribution>,
    hists: Vec<LatencyHistogram>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("spans", &self.spans.len())
            .field("attributions", &self.attributions.len())
            .finish()
    }
}

impl FlightRecorder {
    /// Creates an empty recorder. The gate only decides whether callers
    /// build one; every recorder has the same fixed capacity.
    pub fn new(_cfg: FlightConfig) -> Self {
        FlightRecorder {
            spans: Vec::new(),
            head: 0,
            total_spans: 0,
            next_id: 0,
            stack: Vec::new(),
            corpus_index: 0,
            sample_name: String::new(),
            current_steps: Vec::new(),
            current_total_steps: 0,
            attributions: Vec::new(),
            hists: FlightHist::ALL.iter().map(|_| LatencyHistogram::new()).collect(),
        }
    }

    fn push_span(&mut self, span: Span) {
        self.total_spans += 1;
        if self.spans.len() < CAPACITY {
            self.spans.push(span);
        } else {
            self.spans[self.head] = span;
            self.head = (self.head + 1) % CAPACITY;
        }
    }

    fn open(&mut self, kind: SpanKind, name: String, pid: u64, start_ms: u64, detail: String) {
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(OpenSpan {
            id,
            kind,
            name,
            pid,
            start_ms,
            started: Instant::now(),
            detail,
        });
    }

    fn close(&mut self, end_ms: u64) {
        let Some(open) = self.stack.pop() else { return };
        let wall_ns = u64::try_from(open.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        match open.kind {
            SpanKind::ApiDispatch => self.record_hist(FlightHist::ApiDispatch, wall_ns),
            SpanKind::HookChain => self.record_hist(FlightHist::HookChain, wall_ns),
            _ => {}
        }
        let parent = self.stack.last().map(|s| s.id);
        let span = Span {
            id: open.id,
            parent,
            kind: open.kind,
            name: open.name,
            pid: open.pid,
            start_ms: open.start_ms,
            end_ms: end_ms.max(open.start_ms),
            wall_ns,
            corpus_index: self.corpus_index,
            detail: open.detail,
        };
        self.push_span(span);
    }

    /// Marks the start of a sample's run pair (root span).
    pub fn begin_sample(&mut self, name: &str, corpus_index: u64, now_ms: u64) {
        self.corpus_index = corpus_index;
        self.sample_name = name.to_owned();
        self.current_steps.clear();
        self.current_total_steps = 0;
        self.open(SpanKind::Sample, name.to_owned(), 0, now_ms, String::new());
    }

    /// Ends the sample's root span and finalizes its attribution chain
    /// against the deactivation verdict.
    pub fn end_sample(&mut self, now_ms: u64, verdict: &Verdict) {
        // Close any spans left open by a budget-truncated run first.
        while self.stack.len() > 1 {
            self.close(now_ms);
        }
        self.close(now_ms);
        self.attributions.push(SampleAttribution {
            sample: std::mem::take(&mut self.sample_name),
            corpus_index: self.corpus_index,
            verdict: verdict.to_string(),
            total_steps: self.current_total_steps,
            chain: std::mem::take(&mut self.current_steps),
        });
        self.current_total_steps = 0;
    }

    /// Opens a child span (API dispatch / hook chain / handler layers).
    /// Closing an `api_dispatch` or `hook_chain` span feeds its wall-clock
    /// cost to the matching histogram.
    pub fn begin_child(&mut self, kind: SpanKind, name: &str, pid: u64, now_ms: u64) {
        self.open(kind, name.to_owned(), pid, now_ms, String::new());
    }

    /// Closes the innermost child span.
    pub fn end_child(&mut self, now_ms: u64) {
        self.close(now_ms);
    }

    /// Records one deception decision made in process `pid`: recorded as
    /// a zero-length `deception_decision` span and appended to the
    /// sample's attribution chain (up to the cap).
    pub fn record_decision(&mut self, pid: u64, step: AttributionStep) {
        self.current_total_steps += 1;
        let id = self.next_id;
        self.next_id += 1;
        let span = Span {
            id,
            parent: self.stack.last().map(|s| s.id),
            kind: SpanKind::DeceptionDecision,
            name: format!("{}:{}", step.handler, step.api),
            pid,
            start_ms: step.time_ms,
            end_ms: step.time_ms,
            wall_ns: 0,
            corpus_index: self.corpus_index,
            detail: format!("{} -> {}", step.artifact, step.answer),
        };
        self.push_span(span);
        if self.current_steps.len() < MAX_CHAIN {
            self.current_steps.push(step);
        }
    }

    /// Records a raw wall-clock observation into one of the recorder's
    /// histograms (e.g. snapshot-restore cost measured by the harness).
    pub fn record_hist(&mut self, hist: FlightHist, value_ns: u64) {
        self.hists[hist as usize].record(value_ns);
    }

    /// Freezes the recorder into a mergeable snapshot.
    /// Spans come out in recording order (oldest surviving first).
    pub fn snapshot(&self) -> FlightSnapshot {
        let mut spans = Vec::with_capacity(self.spans.len());
        if self.spans.len() == CAPACITY {
            spans.extend_from_slice(&self.spans[self.head..]);
            spans.extend_from_slice(&self.spans[..self.head]);
        } else {
            spans.extend_from_slice(&self.spans);
        }
        let hists = FlightHist::ALL
            .iter()
            .filter(|h| !self.hists[**h as usize].is_empty())
            .map(|h| (h.name().to_owned(), self.hists[*h as usize].clone()))
            .collect();
        FlightSnapshot {
            spans,
            dropped_spans: self.total_spans - self.spans.len() as u64,
            attributions: self.attributions.clone(),
            hists,
        }
    }
}

/// A frozen view of one or more [`FlightRecorder`]s.
///
/// Parallel workers each snapshot their own recorder; [`merge`] combines
/// them deterministically in corpus order — spans and attributions sort by
/// `(corpus_index, id)`, histograms sum bucket-wise.
///
/// [`merge`]: FlightSnapshot::merge
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlightSnapshot {
    /// Recorded spans, ordered by `(corpus_index, id)` after a merge.
    pub spans: Vec<Span>,
    /// Spans lost to ring-buffer overwrites.
    pub dropped_spans: u64,
    /// Per-sample deception chains, ordered by corpus index.
    pub attributions: Vec<SampleAttribution>,
    /// Wall-clock histograms by name (see [`FlightHist::name`]).
    pub hists: BTreeMap<String, LatencyHistogram>,
}

impl FlightSnapshot {
    /// Merges another worker's snapshot into this one, keeping corpus
    /// order.
    pub fn merge(&mut self, other: &FlightSnapshot) {
        self.spans.extend(other.spans.iter().cloned());
        self.spans.sort_by_key(|s| (s.corpus_index, s.id));
        self.dropped_spans += other.dropped_spans;
        self.attributions.extend(other.attributions.iter().cloned());
        self.attributions.sort_by_key(|a| a.corpus_index);
        for (k, v) in &other.hists {
            self.hists.entry(k.clone()).or_default().merge(v);
        }
    }

    /// Merges many worker snapshots into one.
    pub fn merged(snapshots: impl IntoIterator<Item = FlightSnapshot>) -> FlightSnapshot {
        let mut out = FlightSnapshot::default();
        for s in snapshots {
            out.merge(&s);
        }
        out
    }

    /// The attribution for a named sample, if recorded.
    pub fn attribution_for(&self, sample: &str) -> Option<&SampleAttribution> {
        self.attributions.iter().find(|a| a.sample == sample)
    }
}

/// Renders a snapshot as Chrome trace-event JSON (the format Perfetto and
/// `chrome://tracing` load).
///
/// Spans become `ph:"X"` complete events with microsecond timestamps
/// derived from the virtual clock (1 virtual ms = 1000 trace µs);
/// deception decisions become `ph:"i"` instant events. The measured
/// real-clock cost rides along in `args.wall_ns`. Compact output.
pub fn chrome_trace_json(snap: &FlightSnapshot) -> String {
    let events = snap.spans.iter().map(|s| {
        let mut fields = if s.kind == SpanKind::DeceptionDecision {
            vec![("ph", "i".to_json()), ("s", "t".to_json())]
        } else {
            vec![("ph", "X".to_json()), ("dur", ((s.end_ms - s.start_ms) * 1000).to_json())]
        };
        fields.extend([
            ("name", s.name.to_json()),
            ("cat", s.kind.name().to_json()),
            ("ts", (s.start_ms * 1000).to_json()),
            ("pid", s.corpus_index.to_json()),
            ("tid", s.pid.to_json()),
            (
                "args",
                Json::object([
                    ("wall_ns", s.wall_ns.to_json()),
                    ("corpus_index", s.corpus_index.to_json()),
                    ("span_id", s.id.to_json()),
                    ("parent", s.parent.to_json()),
                    ("detail", s.detail.to_json()),
                ]),
            ),
        ]);
        Json::object(fields)
    });
    Json::object([
        ("displayTimeUnit", "ms".to_json()),
        ("otherData", Json::object([("dropped_spans", snap.dropped_spans.to_json())])),
        ("traceEvents", Json::Array(events.collect())),
    ])
    .to_string()
}

/// Schema identifier stamped into attribution sidecars.
pub const ATTRIBUTION_SCHEMA: &str = "scarecrow.attribution.v1";

crate::impl_to_json!(struct AttributionStep { time_ms, artifact, category, api, handler, answer });

crate::impl_to_json!(struct SampleAttribution { sample, corpus_index, verdict, total_steps,
    chain });

/// Renders the per-sample deception chains as the compact attribution
/// sidecar (schema [`ATTRIBUTION_SCHEMA`]).
pub fn attribution_json(snap: &FlightSnapshot) -> String {
    Json::object([
        ("schema", ATTRIBUTION_SCHEMA.to_json()),
        ("samples", snap.attributions.to_json()),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trace;

    fn verdict() -> Verdict {
        Verdict::decide(
            &{
                let mut t = Trace::new("m.exe");
                t.record(crate::Event::at(
                    0,
                    1,
                    crate::EventKind::FileWrite { path: "C:\\x".into(), bytes: 1 },
                ));
                t
            },
            &Trace::new("m.exe"),
        )
    }

    fn step(time_ms: u64, api: &'static str, handler: &'static str) -> AttributionStep {
        AttributionStep {
            time_ms,
            artifact: Cow::Borrowed(api),
            category: "debugger",
            api,
            handler,
            answer: Cow::Borrowed("TRUE"),
        }
    }

    fn run_one_sample(rec: &mut FlightRecorder) {
        rec.begin_sample("deadbeef", 3, 0);
        rec.begin_child(SpanKind::ApiDispatch, "IsDebuggerPresent", 7, 1);
        rec.begin_child(SpanKind::HookChain, "scarecrow.dll", 7, 1);
        rec.begin_child(SpanKind::Handler, "scarecrow-engine", 7, 1);
        rec.record_decision(7, step(1, "IsDebuggerPresent", "debugger"));
        rec.end_child(2);
        rec.end_child(2);
        rec.end_child(2);
        rec.end_sample(5, &verdict());
    }

    #[test]
    fn spans_nest_in_causal_order() {
        let mut rec = FlightRecorder::new(FlightConfig::enabled());
        run_one_sample(&mut rec);
        let snap = rec.snapshot();
        assert_eq!(snap.dropped_spans, 0);
        let kinds: Vec<SpanKind> = snap.spans.iter().map(|s| s.kind).collect();
        // decision lands first (instant), then spans close inner-to-outer
        assert_eq!(
            kinds,
            vec![
                SpanKind::DeceptionDecision,
                SpanKind::Handler,
                SpanKind::HookChain,
                SpanKind::ApiDispatch,
                SpanKind::Sample,
            ]
        );
        let sample = snap.spans.iter().find(|s| s.kind == SpanKind::Sample).unwrap();
        let dispatch = snap.spans.iter().find(|s| s.kind == SpanKind::ApiDispatch).unwrap();
        let handler = snap.spans.iter().find(|s| s.kind == SpanKind::Handler).unwrap();
        assert_eq!(sample.parent, None);
        assert_eq!(dispatch.parent, Some(sample.id));
        assert_eq!(handler.name, "scarecrow-engine");
        assert_eq!(sample.start_ms, 0);
        assert_eq!(sample.end_ms, 5);
        assert!(snap.spans.iter().all(|s| s.corpus_index == 3));
        let decision = &snap.spans[0];
        assert_eq!(decision.name, "debugger:IsDebuggerPresent");
        assert_eq!(decision.detail, "IsDebuggerPresent -> TRUE");
        // closing a dispatch or hook-chain span feeds its histogram
        assert_eq!(snap.hists.get("api_dispatch_ns").map(|h| h.count()), Some(1));
        assert_eq!(snap.hists.get("hook_chain_ns").map(|h| h.count()), Some(1));
    }

    #[test]
    fn attribution_survives_and_caps() {
        let mut rec = FlightRecorder::new(FlightConfig::enabled());
        rec.begin_sample("feed", 0, 0);
        for i in 0..MAX_CHAIN as u64 + 3 {
            rec.record_decision(1, step(i, "RegOpenKeyExA", "vm"));
        }
        rec.end_sample(99, &verdict());
        let snap = rec.snapshot();
        let a = snap.attribution_for("feed").unwrap();
        assert_eq!(a.total_steps, MAX_CHAIN as u64 + 3);
        assert_eq!(a.chain.len(), MAX_CHAIN);
        assert_eq!(a.chain[0], step(0, "RegOpenKeyExA", "vm"));
        assert_eq!(a.chain[MAX_CHAIN - 1].time_ms, MAX_CHAIN as u64 - 1, "the first steps kept");
        assert!(a.verdict.contains("deactivated"));
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut rec = FlightRecorder::new(FlightConfig::enabled());
        rec.begin_sample("s", 0, 0);
        let dispatches = CAPACITY as u64 + 2;
        for i in 0..dispatches {
            rec.begin_child(SpanKind::ApiDispatch, "CloseHandle", 1, i);
            rec.end_child(i + 1);
        }
        rec.end_sample(dispatches + 1, &verdict());
        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), CAPACITY);
        assert_eq!(
            snap.dropped_spans, 3,
            "CAPACITY + 2 dispatches + 1 sample span - CAPACITY kept"
        );
        // the newest CAPACITY pushes survive, oldest first: the dispatches
        // from id 4 on (ids 1-3 were overwritten), then the sample root
        // (id 0, which closes last)
        assert_eq!(snap.spans[0].id, 4);
        assert_eq!(snap.spans[CAPACITY - 2].id, dispatches);
        assert!(snap.spans[..CAPACITY - 1].iter().all(|s| s.kind == SpanKind::ApiDispatch));
        assert_eq!(snap.spans[CAPACITY - 1].kind, SpanKind::Sample);
        assert_eq!(snap.spans[CAPACITY - 1].id, 0);
    }

    #[test]
    fn merge_orders_by_corpus_index() {
        let mut w1 = FlightRecorder::new(FlightConfig::enabled());
        let mut w2 = FlightRecorder::new(FlightConfig::enabled());
        w1.begin_sample("b", 1, 0);
        w1.end_sample(1, &verdict());
        w2.begin_sample("a", 0, 0);
        w2.end_sample(1, &verdict());
        let merged = FlightSnapshot::merged([w1.snapshot(), w2.snapshot()]);
        let samples: Vec<&str> = merged.attributions.iter().map(|a| a.sample.as_str()).collect();
        assert_eq!(samples, vec!["a", "b"]);
        assert_eq!(merged.spans[0].name, "a");
        assert_eq!(merged.spans[1].name, "b");
    }

    #[test]
    fn merge_sums_histograms() {
        let mut w1 = FlightRecorder::new(FlightConfig::enabled());
        let mut w2 = FlightRecorder::new(FlightConfig::enabled());
        w1.record_hist(FlightHist::SnapshotRestore, 1000);
        w2.record_hist(FlightHist::SnapshotRestore, 1000);
        w2.record_hist(FlightHist::HookChain, 5);
        let merged = FlightSnapshot::merged([w1.snapshot(), w2.snapshot()]);
        assert_eq!(merged.hists.get("snapshot_restore_ns").unwrap().count(), 2);
        assert_eq!(merged.hists.get("hook_chain_ns").unwrap().count(), 1);
    }

    #[test]
    fn chrome_trace_contains_expected_events() {
        let mut rec = FlightRecorder::new(FlightConfig::enabled());
        run_one_sample(&mut rec);
        let json = chrome_trace_json(&rec.snapshot());
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"cat\":\"api_dispatch\""));
        assert!(json.contains("\"name\":\"deadbeef\""));
    }

    #[test]
    fn chrome_trace_round_trips_through_a_json_parser() {
        // Golden test: a hand-built span stream must come back out of the
        // JSON parser with the same shape.
        let mut rec = FlightRecorder::new(FlightConfig::enabled());
        run_one_sample(&mut rec);
        let snap = rec.snapshot();
        let parsed = Json::parse(chrome_trace_json(&snap)).expect("valid Chrome trace JSON");
        let at = |v: &Json, path: &str| path.split('.').try_fold(v, |v, k| v.get(k)).cloned();
        let text = |s: &str| Some(s.to_json());
        let num = |n: u64| Some(Json::U64(n));
        assert_eq!(at(&parsed, "displayTimeUnit"), text("ms"));
        assert_eq!(at(&parsed, "otherData.dropped_spans"), num(0));
        let events = parsed.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), snap.spans.len());
        let phase =
            |ph: &str| events.iter().filter(|e| at(e, "ph") == text(ph)).collect::<Vec<_>>();
        let complete = phase("X");
        assert_eq!(complete.len(), 4);
        for e in &complete {
            assert!(at(e, "dur").is_some(), "complete events carry a duration");
            assert_ne!(at(e, "name"), text(""));
        }
        let by_cat = |cat: &str| *complete.iter().find(|e| at(e, "cat") == text(cat)).unwrap();
        let sample = by_cat("sample");
        assert_eq!(at(sample, "name"), text("deadbeef"));
        assert_eq!(at(sample, "ts"), num(0));
        assert_eq!(at(sample, "dur"), num(5000), "5 virtual ms = 5000 trace us");
        assert_eq!(at(sample, "args.parent"), Some(Json::Null));
        assert_eq!(at(sample, "pid"), num(3), "trace groups by corpus index");
        let dispatch = by_cat("api_dispatch");
        assert_eq!(at(dispatch, "args.parent"), at(sample, "args.span_id"));
        assert_eq!(at(dispatch, "tid"), num(7));
        assert_eq!(at(dispatch, "args.corpus_index"), num(3));
        let instants = phase("i");
        assert_eq!(instants.len(), 1);
        assert_eq!(at(instants[0], "cat"), text("deception_decision"));
        assert!(at(instants[0], "args.detail").unwrap().as_str().unwrap().contains("TRUE"));
        assert_eq!(at(instants[0], "args.wall_ns"), num(0));
        // and the attribution sidecar parses too, with its schema stamp
        let attr = Json::parse(attribution_json(&snap)).expect("valid attribution JSON");
        assert_eq!(at(&attr, "schema"), text(ATTRIBUTION_SCHEMA));
        assert_eq!(at(&attr, "samples"), Some(snap.attributions.to_json()), "lossless sidecar");
    }
}
