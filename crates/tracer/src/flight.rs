//! The causal flight recorder: per-sample span streams, latency
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
//! ```
//!
//! recorded as spans with **virtual-clock** timestamps (deterministic,
//! from `winsim::Clock`) plus the **real-clock** cost of each dispatch,
//! and the sample's deception chain: every fabricated answer, in order.
//!
//! # Design
//!
//! * **Off by default, zero cost when disabled.** The recorder is an
//!   `Option<FlightRecorder>` owned by the machine; when `None`, every
//!   instrumentation point is a single branch.
//! * **No locks and no owned strings on the hot path.** `Machine::call_api`
//!   takes `&mut self`, so the recorder is a plain struct mutated through
//!   `&mut` — no atomics, no mutexes, no channel sends. A span's name is a
//!   `&'static str` (API name, hook label, handler); only a sample's root
//!   span owns its name. Parallel workers each own a recorder; their
//!   [`FlightSnapshot`]s merge in corpus order afterwards.
//! * **Whole samples, bounded.** Span ids restart at 0 in each sample. A
//!   sample that begins while fewer than [`SPAN_CAPACITY`] spans are kept
//!   is kept whole; a later sample's spans only count in
//!   [`FlightSnapshot::dropped_spans`]. [`FlightSnapshot::merge`] applies
//!   the same rule over the samples in corpus order, and each worker runs
//!   its samples in rising corpus order, so a sweep keeps the same spans
//!   for any worker count. Memory stays within the capacity plus one
//!   sample; there is no sampling.
//! * **Each decision recorded once.** A deception decision is one step of
//!   its sample's attribution chain, built only while the chain is under
//!   its cap of 32 steps; further triggers only bump
//!   [`SampleAttribution::total_steps`]. The Chrome trace renders the
//!   chains of the samples whose spans it holds as instant events.
//! * **One owner.** Whoever owns the machine arms the recorder: the
//!   harness (`Cluster::with_flight`) or a direct caller
//!   (`Machine::set_flight` / `Machine::take_flight`). The deception engine
//!   never creates one.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use crate::hist::LatencyHistogram;
use crate::json::{Json, ToJson};
use crate::Verdict;

/// Spans kept per recorder and per merged snapshot. A sample that begins
/// while fewer are kept is kept whole, so a snapshot can exceed this by
/// the spans of its last sample.
pub const SPAN_CAPACITY: usize = 8192;
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

/// The four causal layers a span can belong to.
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
}

impl SpanKind {
    /// Stable snake_case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Sample => "sample",
            SpanKind::ApiDispatch => "api_dispatch",
            SpanKind::HookChain => "hook_chain",
            SpanKind::Handler => "handler",
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
    /// Span id within its sample: the root is 0, and ids rise in opening
    /// order.
    pub id: u64,
    /// Enclosing span's id, `None` for roots.
    pub parent: Option<u64>,
    /// Which causal layer emitted the span.
    pub kind: SpanKind,
    /// API name, hook label or handler name; a sample root owns its
    /// sample's name (md5 or case label).
    pub name: Cow<'static, str>,
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
}

impl FlightHist {
    /// Every histogram, in slot order.
    pub const ALL: [FlightHist; 3] =
        [FlightHist::ApiDispatch, FlightHist::HookChain, FlightHist::TrampolinePassthrough];

    /// Stable snake_case name used in snapshots and JSON sidecars.
    pub fn name(self) -> &'static str {
        match self {
            FlightHist::ApiDispatch => "api_dispatch_ns",
            FlightHist::HookChain => "hook_chain_ns",
            FlightHist::TrampolinePassthrough => "trampoline_passthrough_ns",
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

/// The per-worker flight recorder. All methods take `&mut self`; the hot
/// path performs no locking and no atomics. (`Clone` exists only so a
/// machine template carrying one stays cloneable; snapshots drop it.)
#[derive(Clone)]
pub struct FlightRecorder {
    /// The kept samples' spans, then the current sample's, each in opening
    /// order. An open span is filled in when it closes.
    spans: Vec<Span>,
    dropped_spans: u64,
    /// The open spans, outermost first: index in `spans` and real-clock
    /// start.
    stack: Vec<(usize, Instant)>,
    /// Index in `spans` of the current sample's root; span ids count from
    /// it.
    root: usize,
    corpus_index: u64,
    chain: Vec<AttributionStep>,
    total_steps: u64,
    attributions: Vec<SampleAttribution>,
    hists: [LatencyHistogram; FlightHist::ALL.len()],
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
            dropped_spans: 0,
            stack: Vec::new(),
            root: 0,
            corpus_index: 0,
            chain: Vec::new(),
            total_steps: 0,
            attributions: Vec::new(),
            hists: FlightHist::ALL.map(|_| LatencyHistogram::new()),
        }
    }

    fn open(&mut self, kind: SpanKind, name: Cow<'static, str>, pid: u64, start_ms: u64) {
        let index = self.spans.len();
        self.spans.push(Span {
            id: (index - self.root) as u64,
            parent: self.stack.last().map(|&(open, _)| self.spans[open].id),
            kind,
            name,
            pid,
            start_ms,
            end_ms: start_ms,
            wall_ns: 0,
            corpus_index: self.corpus_index,
        });
        self.stack.push((index, Instant::now()));
    }

    fn close(&mut self, end_ms: u64) {
        let Some((index, started)) = self.stack.pop() else { return };
        let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let span = &mut self.spans[index];
        span.end_ms = end_ms.max(span.start_ms);
        span.wall_ns = wall_ns;
        match span.kind {
            SpanKind::ApiDispatch => self.record_hist(FlightHist::ApiDispatch, wall_ns),
            SpanKind::HookChain => self.record_hist(FlightHist::HookChain, wall_ns),
            _ => {}
        }
        // a root that opened once the capacity was reached goes whole
        if self.stack.is_empty() && index >= SPAN_CAPACITY {
            self.dropped_spans += (self.spans.len() - index) as u64;
            self.spans.truncate(index);
        }
    }

    /// Marks the start of a sample's run pair (root span).
    pub fn begin_sample(&mut self, name: &str, corpus_index: u64, now_ms: u64) {
        self.corpus_index = corpus_index;
        self.root = self.spans.len();
        self.chain.clear();
        self.total_steps = 0;
        self.open(SpanKind::Sample, Cow::Owned(name.to_owned()), 0, now_ms);
    }

    /// Ends the sample's root span and finalizes its attribution chain
    /// against the deactivation verdict.
    pub fn end_sample(&mut self, now_ms: u64, verdict: &Verdict) {
        let sample = self.spans.get(self.root).map(|s| s.name.to_string()).unwrap_or_default();
        // closes any spans left open by a budget-truncated run, then the root
        while !self.stack.is_empty() {
            self.close(now_ms);
        }
        self.attributions.push(SampleAttribution {
            sample,
            corpus_index: self.corpus_index,
            verdict: verdict.to_string(),
            total_steps: std::mem::take(&mut self.total_steps),
            chain: std::mem::take(&mut self.chain),
        });
    }

    /// Opens a child span (API dispatch / hook chain / handler layers).
    /// Closing an `api_dispatch` or `hook_chain` span feeds its wall-clock
    /// cost to the matching histogram.
    pub fn begin_child(&mut self, kind: SpanKind, name: &'static str, pid: u64, now_ms: u64) {
        self.open(kind, Cow::Borrowed(name), pid, now_ms);
    }

    /// Closes the innermost child span.
    pub fn end_child(&mut self, now_ms: u64) {
        self.close(now_ms);
    }

    /// Counts one deception decision, appending the step `step` builds to
    /// the sample's attribution chain while the chain is under its cap.
    pub fn record_decision(&mut self, step: impl FnOnce() -> AttributionStep) {
        self.total_steps += 1;
        if self.chain.len() < MAX_CHAIN {
            self.chain.push(step());
        }
    }

    /// Records a raw wall-clock observation into one of the recorder's
    /// histograms (e.g. the trampoline tail timed by the substrate).
    pub fn record_hist(&mut self, hist: FlightHist, value_ns: u64) {
        self.hists[hist as usize].record(value_ns);
    }

    /// Freezes the recorder into a mergeable snapshot of its finished
    /// samples, their spans in opening order.
    pub fn snapshot(&self) -> FlightSnapshot {
        let finished = self.stack.first().map_or(self.spans.len(), |&(index, _)| index);
        let hists = FlightHist::ALL
            .iter()
            .filter(|h| !self.hists[**h as usize].is_empty())
            .map(|h| (h.name().to_owned(), self.hists[*h as usize].clone()))
            .collect();
        FlightSnapshot {
            spans: self.spans[..finished].to_vec(),
            dropped_spans: self.dropped_spans,
            attributions: self.attributions.clone(),
            hists,
        }
    }
}

/// A frozen view of one or more [`FlightRecorder`]s.
///
/// Parallel workers each snapshot their own recorder; [`merge`] combines
/// them deterministically in corpus order — spans and attributions sort by
/// corpus index, histograms sum bucket-wise.
///
/// [`merge`]: FlightSnapshot::merge
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlightSnapshot {
    /// Recorded spans: whole samples in corpus order, each sample's spans
    /// in opening order.
    pub spans: Vec<Span>,
    /// Spans recorded but not kept: those of samples that began once
    /// [`SPAN_CAPACITY`] spans were kept.
    pub dropped_spans: u64,
    /// Per-sample deception chains, ordered by corpus index.
    pub attributions: Vec<SampleAttribution>,
    /// Wall-clock histograms by name (see [`FlightHist::name`]).
    pub hists: BTreeMap<String, LatencyHistogram>,
}

impl FlightSnapshot {
    /// Merges another worker's snapshot into this one, keeping corpus
    /// order and, as a recorder does, only the samples that begin while
    /// fewer than [`SPAN_CAPACITY`] spans are kept.
    pub fn merge(&mut self, other: &FlightSnapshot) {
        self.spans.extend(other.spans.iter().cloned());
        // stable, so each sample's spans keep their opening order
        self.spans.sort_by_key(|s| s.corpus_index);
        let kept = (SPAN_CAPACITY..self.spans.len())
            .find(|&i| self.spans[i].corpus_index != self.spans[i - 1].corpus_index)
            .unwrap_or(self.spans.len());
        self.dropped_spans += other.dropped_spans + (self.spans.len() - kept) as u64;
        self.spans.truncate(kept);
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
/// derived from the virtual clock (1 virtual ms = 1000 trace µs), with the
/// measured real-clock cost in `args.wall_ns`. Then the attribution steps
/// of every sample whose spans the snapshot holds become `ph:"i"` instant
/// events on that sample's track. Compact output.
pub fn chrome_trace_json(snap: &FlightSnapshot) -> String {
    let spans = snap.spans.iter().map(|s| {
        Json::object([
            ("ph", "X".to_json()),
            ("dur", ((s.end_ms - s.start_ms) * 1000).to_json()),
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
                ]),
            ),
        ])
    });
    let kept: BTreeSet<u64> = snap.spans.iter().map(|s| s.corpus_index).collect();
    let decisions =
        snap.attributions.iter().filter(|a| kept.contains(&a.corpus_index)).flat_map(|a| {
            a.chain.iter().map(|step| {
                Json::object([
                    ("ph", "i".to_json()),
                    ("s", "p".to_json()),
                    ("name", format!("{}:{}", step.handler, step.api).to_json()),
                    ("cat", "deception_decision".to_json()),
                    ("ts", (step.time_ms * 1000).to_json()),
                    ("pid", a.corpus_index.to_json()),
                    (
                        "args",
                        Json::object([
                            ("artifact", step.artifact.to_json()),
                            ("answer", step.answer.to_json()),
                        ]),
                    ),
                ])
            })
        });
    Json::object([
        ("displayTimeUnit", "ms".to_json()),
        ("otherData", Json::object([("dropped_spans", snap.dropped_spans.to_json())])),
        ("traceEvents", Json::Array(spans.chain(decisions).collect())),
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
        rec.record_decision(|| step(1, "IsDebuggerPresent", "debugger"));
        rec.end_child(2);
        rec.end_child(2);
        rec.end_child(2);
        rec.end_sample(5, &verdict());
    }

    /// Records sample `index` with `dispatches` API dispatch spans under
    /// its root.
    fn run_sample(rec: &mut FlightRecorder, index: u64, dispatches: u64) {
        rec.begin_sample(&format!("s{index}"), index, 0);
        for t in 0..dispatches {
            rec.begin_child(SpanKind::ApiDispatch, "CloseHandle", 1, t);
            rec.end_child(t + 1);
        }
        rec.end_sample(dispatches + 1, &verdict());
    }

    /// The spans with their run-to-run wall-clock cost zeroed.
    fn virtual_spans(snap: &FlightSnapshot) -> Vec<Span> {
        snap.spans.iter().cloned().map(|s| Span { wall_ns: 0, ..s }).collect()
    }

    #[test]
    fn spans_nest_in_causal_order() {
        let mut rec = FlightRecorder::new(FlightConfig::enabled());
        run_one_sample(&mut rec);
        let snap = rec.snapshot();
        assert_eq!(snap.dropped_spans, 0);
        // spans come out in opening order, ids counting from the root
        let kinds: Vec<SpanKind> = snap.spans.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            [SpanKind::Sample, SpanKind::ApiDispatch, SpanKind::HookChain, SpanKind::Handler]
        );
        let ids: Vec<u64> = snap.spans.iter().map(|s| s.id).collect();
        assert_eq!(ids, [0, 1, 2, 3]);
        let parents: Vec<Option<u64>> = snap.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(1), Some(2)]);
        let (sample, handler) = (&snap.spans[0], &snap.spans[3]);
        assert_eq!(sample.name, "deadbeef");
        assert_eq!(handler.name, "scarecrow-engine");
        assert_eq!((sample.start_ms, sample.end_ms), (0, 5));
        assert_eq!((handler.start_ms, handler.end_ms), (1, 2));
        assert!(snap.spans.iter().all(|s| s.corpus_index == 3));
        // the decision is a chain step, not a span
        assert_eq!(snap.attributions[0].chain, [step(1, "IsDebuggerPresent", "debugger")]);
        // closing a dispatch or hook-chain span feeds its histogram
        assert_eq!(snap.hists.get("api_dispatch_ns").map(|h| h.count()), Some(1));
        assert_eq!(snap.hists.get("hook_chain_ns").map(|h| h.count()), Some(1));
    }

    #[test]
    fn attribution_survives_and_caps() {
        let mut rec = FlightRecorder::new(FlightConfig::enabled());
        rec.begin_sample("feed", 0, 0);
        let mut built = 0;
        for i in 0..MAX_CHAIN as u64 + 3 {
            rec.record_decision(|| {
                built += 1;
                step(i, "RegOpenKeyExA", "vm")
            });
        }
        rec.end_sample(99, &verdict());
        assert_eq!(built, MAX_CHAIN, "no step is built past the cap");
        let snap = rec.snapshot();
        let a = snap.attribution_for("feed").unwrap();
        assert_eq!(a.total_steps, MAX_CHAIN as u64 + 3);
        assert_eq!(a.chain.len(), MAX_CHAIN);
        assert_eq!(a.chain[0], step(0, "RegOpenKeyExA", "vm"));
        assert_eq!(a.chain[MAX_CHAIN - 1].time_ms, MAX_CHAIN as u64 - 1, "the first steps kept");
        assert!(a.verdict.contains("deactivated"));
    }

    #[test]
    fn a_sample_is_kept_whole_or_dropped_whole() {
        let mut rec = FlightRecorder::new(FlightConfig::enabled());
        // larger than the capacity on its own, yet begun with nothing kept
        let big = SPAN_CAPACITY as u64 + 2;
        run_sample(&mut rec, 0, big);
        run_sample(&mut rec, 1, 4);
        let snap = rec.snapshot();
        assert_eq!(snap.spans.len() as u64, big + 1, "the first sample whole");
        assert_eq!(snap.dropped_spans, 5, "the second sample's root and 4 dispatches");
        assert_eq!((snap.spans[0].kind, snap.spans[0].id), (SpanKind::Sample, 0));
        assert_eq!(snap.spans.last().unwrap().id, big);
        assert!(snap.spans.iter().all(|s| s.corpus_index == 0));
        // a dropped sample still has its chain and its histogram entries
        assert_eq!(snap.attributions.len(), 2);
        assert_eq!(snap.hists["api_dispatch_ns"].count(), big + 4);
    }

    #[test]
    fn merged_workers_keep_what_one_recorder_keeps() {
        // samples of uneven size whose running total crosses the capacity
        // several samples before the end
        let sizes = [3000, 10, 2500, 1, 2000, 700, 4000, 9, 100, 3000, 1, 50];
        let mut one = FlightRecorder::new(FlightConfig::enabled());
        let mut workers = [
            FlightRecorder::new(FlightConfig::enabled()),
            FlightRecorder::new(FlightConfig::enabled()),
        ];
        for (index, &size) in sizes.iter().enumerate() {
            run_sample(&mut one, index as u64, size);
            // two workers taking interleaved samples, each in rising order
            run_sample(&mut workers[index % 2], index as u64, size);
        }
        let alone = one.snapshot();
        let merged = FlightSnapshot::merged(workers.iter().map(FlightRecorder::snapshot));
        assert!(alone.dropped_spans > 0);
        assert_eq!(virtual_spans(&merged), virtual_spans(&alone));
        assert_eq!(merged.dropped_spans, alone.dropped_spans);
        assert_eq!(merged.attributions, alone.attributions);
        let total: u64 = sizes.iter().map(|n| n + 1).sum();
        assert_eq!(merged.spans.len() as u64 + merged.dropped_spans, total);
        // samples 0..=4 hold 7,516 spans, so sample 5 begins below the
        // capacity and is kept whole; sample 6 begins above it
        let last = merged.spans.last().unwrap();
        assert_eq!((last.corpus_index, last.id), (5, 700));
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
        w1.record_hist(FlightHist::TrampolinePassthrough, 1000);
        w2.record_hist(FlightHist::TrampolinePassthrough, 1000);
        w2.record_hist(FlightHist::HookChain, 5);
        let merged = FlightSnapshot::merged([w1.snapshot(), w2.snapshot()]);
        assert_eq!(merged.hists.get("trampoline_passthrough_ns").unwrap().count(), 2);
        assert_eq!(merged.hists.get("hook_chain_ns").unwrap().count(), 1);
    }

    #[test]
    fn snapshot_holds_only_finished_samples() {
        let mut rec = FlightRecorder::new(FlightConfig::enabled());
        run_one_sample(&mut rec);
        rec.begin_sample("open", 4, 0);
        rec.begin_child(SpanKind::ApiDispatch, "Sleep", 1, 1);
        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), 4);
        assert!(snap.spans.iter().all(|s| s.corpus_index == 3));
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
        assert!(json.contains("\"name\":\"debugger:IsDebuggerPresent\""));
    }

    #[test]
    fn chrome_trace_renders_decisions_of_kept_samples_only() {
        let mut rec = FlightRecorder::new(FlightConfig::enabled());
        run_sample(&mut rec, 0, SPAN_CAPACITY as u64);
        run_one_sample(&mut rec);
        let snap = rec.snapshot();
        assert_eq!(snap.attributions[1].chain.len(), 1, "the dropped sample keeps its chain");
        assert!(!chrome_trace_json(&snap).contains("\"ph\":\"i\""));
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
        assert_eq!(events.len(), snap.spans.len() + 1, "four spans and one decision");
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
        assert_eq!(at(sample, "args.span_id"), num(0));
        assert_eq!(at(sample, "pid"), num(3), "trace groups by corpus index");
        let dispatch = by_cat("api_dispatch");
        assert_eq!(at(dispatch, "args.parent"), at(sample, "args.span_id"));
        assert_eq!(at(dispatch, "tid"), num(7));
        assert_eq!(at(dispatch, "args.corpus_index"), num(3));
        let instants = phase("i");
        assert_eq!(instants.len(), 1);
        assert_eq!(at(instants[0], "cat"), text("deception_decision"));
        assert_eq!(at(instants[0], "name"), text("debugger:IsDebuggerPresent"));
        assert_eq!(at(instants[0], "ts"), num(1000));
        assert_eq!(at(instants[0], "pid"), num(3));
        assert_eq!(at(instants[0], "args.answer"), text("TRUE"));
        // and the attribution sidecar parses too, with its schema stamp
        let attr = Json::parse(attribution_json(&snap)).expect("valid attribution JSON");
        assert_eq!(at(&attr, "schema"), text(ATTRIBUTION_SCHEMA));
        assert_eq!(at(&attr, "samples"), Some(snap.attributions.to_json()), "lossless sidecar");
    }
}
