//! Fibratus-like kernel event tracing for the Scarecrow reproduction.
//!
//! The paper traces Windows kernel activity with Fibratus — process/thread
//! creation and termination, file-system I/O, registry operations, network
//! activity, and DLL loading — and decides whether Scarecrow *deactivated* a
//! sample by comparing the trace recorded **without** Scarecrow against the
//! trace recorded **with** Scarecrow (Section IV-C). This crate provides:
//!
//! * the typed event model ([`Event`], [`EventKind`]),
//! * an append-only [`Trace`] store with query helpers,
//! * normalized *significant activity* extraction ([`ActivityKey`]),
//! * trace diffing ([`TraceDiff`]),
//! * the paper's deactivation criterion ([`Verdict::decide`]),
//! * lock-free cross-layer run telemetry ([`Telemetry`],
//!   [`TelemetrySnapshot`]),
//! * log-bucketed mergeable latency histograms ([`LatencyHistogram`]), and
//! * the causal flight recorder: spans, attribution chains, and Chrome
//!   trace export ([`flight`]), and
//! * the workspace's one JSON reader and writer ([`json`]).
//!
//! The substrate (`winsim`) emits these events; nothing in this crate depends
//! on the substrate, so traces can also be constructed by hand in tests.
//!
//! # Example
//!
//! ```
//! use tracer::{Event, EventKind, Trace, Verdict};
//!
//! let mut without = Trace::new("sample.exe");
//! without.record(Event::at(0, 1, EventKind::ProcessCreate {
//!     pid: 2, parent: 1, image: "svchost.exe".into(),
//! }));
//! let with = Trace::new("sample.exe");
//! let verdict = Verdict::decide(&without, &with);
//! assert!(verdict.is_deactivated());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diff;
mod event;
pub mod flight;
pub mod hist;
pub mod json;
mod stats;
pub mod telemetry;
mod trace;
mod verdict;

pub use diff::TraceDiff;
pub use event::{Event, EventKind, Pid, RegOp, Tid, VirtualTime};
pub use flight::{
    AttributionStep, FlightConfig, FlightHist, FlightRecorder, FlightSnapshot, SampleAttribution,
    Span, SpanKind,
};
pub use hist::{LatencyHistogram, HISTOGRAM_BUCKETS};
pub use json::{Json, JsonError, ToJson};
pub use stats::TraceStats;
pub use telemetry::{
    Counter, DeterministicTelemetry, Stage, StageStat, Telemetry, TelemetrySnapshot,
    WallClockTelemetry,
};
pub use trace::{ActivityKey, Trace};
pub use verdict::{DeactivationReason, Verdict, SELF_SPAWN_LOOP_THRESHOLD};
