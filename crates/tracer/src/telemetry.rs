//! Lock-free run telemetry, shared by every layer of the stack.
//!
//! The substrate (`winsim`) counts API dispatches and virtual-clock cost,
//! the hooking layer counts installs / hits / trampoline pass-throughs and
//! anti-hook probes, the deception engine counts per-handler triggers and
//! per-profile resource hits, and the harness times its run stages. All of
//! it lands in one [`Telemetry`] recorder built from plain relaxed atomics,
//! so collection on the API dispatch hot path costs a branch and an
//! `AtomicU64::fetch_add` — no locks, no allocation.
//!
//! [`Telemetry::snapshot`] freezes the counters into a serializable
//! [`TelemetrySnapshot`]; snapshots from parallel workers [`merge`] by
//! summation, so a corpus sweep across N threads aggregates to exactly the
//! counts a one-worker sweep records.
//!
//! [`merge`]: TelemetrySnapshot::merge
//!
//! This crate knows nothing about the substrate's `Api` enum or the
//! engine's `Profile` enum: slot tables are built from caller-supplied name
//! lists and indexed by the caller's own discriminants.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use crate::hist::{AtomicHistogram, LatencyHistogram};

/// Fixed cross-layer event counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// API calls dispatched by the substrate.
    ApiCalls,
    /// Inline hooks installed (prologues patched).
    HookInstalls,
    /// Hooks entered by intercepted calls, one per hook the trampoline
    /// enters (`winsim::ApiCall::call_original`).
    HookHits,
    /// Hooked calls that trampolined through to the original API.
    TrampolinePassthroughs,
    /// Anti-hook prologue reads (the paper's Figure 1 check).
    DetectionProbes,
    /// Deception-engine triggers (fabricated answers reported over IPC).
    DeceptionTriggers,
    /// Samples run to completion by the harness.
    SamplesRun,
}

impl Counter {
    /// Every counter, in slot order.
    pub const ALL: [Counter; 7] = [
        Counter::ApiCalls,
        Counter::HookInstalls,
        Counter::HookHits,
        Counter::TrampolinePassthroughs,
        Counter::DetectionProbes,
        Counter::DeceptionTriggers,
        Counter::SamplesRun,
    ];

    /// Stable snake_case name used in snapshots and JSON sidecars.
    pub fn name(self) -> &'static str {
        match self {
            Counter::ApiCalls => "api_calls",
            Counter::HookInstalls => "hook_installs",
            Counter::HookHits => "hook_hits",
            Counter::TrampolinePassthroughs => "trampoline_passthroughs",
            Counter::DetectionProbes => "detection_probes",
            Counter::DeceptionTriggers => "deception_triggers",
            Counter::SamplesRun => "samples_run",
        }
    }
}

/// Harness run stages whose wall-clock time is recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Building a fresh machine (the Deep-Freeze reset).
    MachineReset,
    /// The unprotected baseline run.
    BaselineRun,
    /// The Scarecrow-protected run.
    ProtectedRun,
    /// Trace diffing and the deactivation verdict.
    Verdict,
}

impl Stage {
    /// Every stage, in slot order.
    pub const ALL: [Stage; 4] =
        [Stage::MachineReset, Stage::BaselineRun, Stage::ProtectedRun, Stage::Verdict];

    /// Stable snake_case name used in snapshots and JSON sidecars.
    pub fn name(self) -> &'static str {
        match self {
            Stage::MachineReset => "machine_reset",
            Stage::BaselineRun => "baseline_run",
            Stage::ProtectedRun => "protected_run",
            Stage::Verdict => "verdict",
        }
    }
}

/// A named table of atomic counters indexed by caller-owned discriminants.
struct SlotTable {
    names: Vec<String>,
    slots: Vec<AtomicU64>,
}

impl SlotTable {
    fn new(names: Vec<String>) -> Self {
        let slots = names.iter().map(|_| AtomicU64::new(0)).collect();
        SlotTable { names, slots }
    }

    #[inline]
    fn add(&self, idx: usize, n: u64) {
        if let Some(slot) = self.slots.get(idx) {
            slot.fetch_add(n, Relaxed);
        }
    }

    fn add_by_name(&self, name: &str, n: u64) {
        if let Some(idx) = self.names.iter().position(|s| s == name) {
            self.slots[idx].fetch_add(n, Relaxed);
        }
    }

    fn reset(&self) {
        for slot in &self.slots {
            slot.store(0, Relaxed);
        }
    }

    /// Non-zero slots as a sorted name → count map.
    fn snapshot(&self) -> BTreeMap<String, u64> {
        self.names
            .iter()
            .zip(&self.slots)
            .filter_map(|(name, slot)| {
                let v = slot.load(Relaxed);
                (v != 0).then(|| (name.clone(), v))
            })
            .collect()
    }
}

/// The cross-layer telemetry recorder.
///
/// Built once per engine (or per parallel worker) and shared by `Arc` with
/// every machine the engine protects; each layer records through the
/// machine's attached recorder. Safe to hammer from hook handlers: every
/// record method is `&self` and lock-free.
pub struct Telemetry {
    api_calls: SlotTable,
    api_cost_ms: SlotTable,
    deception_hits: SlotTable,
    profile_hits: SlotTable,
    counters: SlotTable,
    stage_hist: Vec<AtomicHistogram>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("api_slots", &self.api_calls.names.len())
            .field("profile_slots", &self.profile_hits.names.len())
            .finish()
    }
}

impl Telemetry {
    /// Creates a recorder with the given API and profile slot names. Slot
    /// `i` of the API tables belongs to the API whose discriminant is `i`;
    /// profile hits are recorded by name.
    pub fn new(
        api_names: impl IntoIterator<Item = impl Into<String>>,
        profile_names: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        let api_names: Vec<String> = api_names.into_iter().map(Into::into).collect();
        let profile_names: Vec<String> = profile_names.into_iter().map(Into::into).collect();
        let counter_names = Counter::ALL.iter().map(|c| c.name().to_owned()).collect();
        Telemetry {
            api_calls: SlotTable::new(api_names.clone()),
            api_cost_ms: SlotTable::new(api_names.clone()),
            deception_hits: SlotTable::new(api_names),
            profile_hits: SlotTable::new(profile_names),
            counters: SlotTable::new(counter_names),
            stage_hist: Stage::ALL.iter().map(|_| AtomicHistogram::new()).collect(),
        }
    }

    /// Records one API dispatch (hot path: two relaxed `fetch_add`s).
    #[inline]
    pub fn record_api(&self, api_idx: usize, cost_ms: u64) {
        self.api_calls.add(api_idx, 1);
        self.api_cost_ms.add(api_idx, cost_ms);
        self.counters.add(Counter::ApiCalls as usize, 1);
    }

    /// Bumps a fixed counter by one.
    #[inline]
    pub fn incr(&self, counter: Counter) {
        self.counters.add(counter as usize, 1);
    }

    /// Bumps a fixed counter by `n`.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        self.counters.add(counter as usize, n);
    }

    /// Records a deception-engine trigger on the API with discriminant
    /// `api_idx`, attributed to the named profile.
    pub fn record_deception(&self, api_idx: usize, profile: &str) {
        self.deception_hits.add(api_idx, 1);
        self.profile_hits.add_by_name(profile, 1);
        self.counters.add(Counter::DeceptionTriggers as usize, 1);
    }

    /// Records one timed harness stage into its log-bucketed histogram,
    /// which also keeps the stage's exact total and count.
    pub fn record_stage(&self, stage: Stage, elapsed: std::time::Duration) {
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        self.stage_hist[stage as usize].record(us);
    }

    /// Zeroes every counter (between experiments on a reused engine).
    pub fn reset(&self) {
        self.api_calls.reset();
        self.api_cost_ms.reset();
        self.deception_hits.reset();
        self.profile_hits.reset();
        self.counters.reset();
        for h in &self.stage_hist {
            h.reset();
        }
    }

    /// Freezes the current counts into a serializable snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let stages = Stage::ALL
            .iter()
            .filter_map(|s| {
                let hist_us = self.stage_hist[*s as usize].snapshot();
                let (total_us, count) = (hist_us.sum(), hist_us.count());
                (count != 0).then(|| (s.name().to_owned(), StageStat { total_us, count, hist_us }))
            })
            .collect();
        TelemetrySnapshot {
            deterministic: DeterministicTelemetry {
                counters: self.counters.snapshot(),
                api_calls: self.api_calls.snapshot(),
                api_cost_ms: self.api_cost_ms.snapshot(),
                deception_hits: self.deception_hits.snapshot(),
                profile_hits: self.profile_hits.snapshot(),
            },
            wall: WallClockTelemetry { stages },
        }
    }
}

/// Accumulated wall-clock time of one harness stage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageStat {
    /// Total wall-clock microseconds across all recordings.
    pub total_us: u64,
    /// Number of recordings.
    pub count: u64,
    /// Log-bucketed distribution of the per-recording microseconds.
    pub hist_us: LatencyHistogram,
}

/// The virtual-clock side of a [`TelemetrySnapshot`]: counts and
/// virtual-time costs that are byte-for-byte reproducible for a
/// deterministic workload, regardless of scheduling, worker count, or
/// reset strategy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeterministicTelemetry {
    /// Fixed cross-layer counters (see [`Counter`]).
    pub counters: BTreeMap<String, u64>,
    /// Dispatched calls per API.
    pub api_calls: BTreeMap<String, u64>,
    /// Virtual-clock milliseconds charged per API.
    pub api_cost_ms: BTreeMap<String, u64>,
    /// Deception-engine triggers per API.
    pub deception_hits: BTreeMap<String, u64>,
    /// Deception-engine triggers per impersonated profile.
    pub profile_hits: BTreeMap<String, u64>,
}

crate::impl_to_json!(struct StageStat { total_us, count, hist_us });

crate::impl_to_json!(struct DeterministicTelemetry { counters, api_calls, api_cost_ms,
    deception_hits, profile_hits });

impl DeterministicTelemetry {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.api_calls.is_empty()
            && self.api_cost_ms.is_empty()
            && self.deception_hits.is_empty()
            && self.profile_hits.is_empty()
    }

    /// Sums another deterministic section into this one.
    pub fn merge(&mut self, other: &DeterministicTelemetry) {
        fn merge_map(into: &mut BTreeMap<String, u64>, from: &BTreeMap<String, u64>) {
            for (k, v) in from {
                *into.entry(k.clone()).or_insert(0) += v;
            }
        }
        merge_map(&mut self.counters, &other.counters);
        merge_map(&mut self.api_calls, &other.api_calls);
        merge_map(&mut self.api_cost_ms, &other.api_cost_ms);
        merge_map(&mut self.deception_hits, &other.deception_hits);
        merge_map(&mut self.profile_hits, &other.profile_hits);
    }
}

/// The wall-clock side of a [`TelemetrySnapshot`]: real-time stage
/// measurements that vary run to run and are excluded from every
/// determinism comparison.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WallClockTelemetry {
    /// Wall-clock time per harness stage.
    pub stages: BTreeMap<String, StageStat>,
}

crate::impl_to_json!(struct WallClockTelemetry { stages });

impl WallClockTelemetry {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Sums another wall-clock section into this one.
    pub fn merge(&mut self, other: &WallClockTelemetry) {
        for (k, v) in &other.stages {
            let s = self.stages.entry(k.clone()).or_default();
            s.total_us += v.total_us;
            s.count += v.count;
            s.hist_us.merge(&v.hist_us);
        }
    }
}

/// A frozen, serializable view of a [`Telemetry`] recorder.
///
/// All maps are sorted and omit zero entries, so two snapshots of the same
/// logical work compare equal regardless of slot-table layout. The
/// [`deterministic`](Self::deterministic) section is reproducible run to
/// run for a deterministic workload; the [`wall`](Self::wall) section is
/// real-clock and varies, which is why the two are split and why
/// [`counters_agree`](Self::counters_agree) compares only the former.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Virtual-clock counts: reproducible, compared by determinism tests.
    pub deterministic: DeterministicTelemetry,
    /// Wall-clock stage timings: diagnostics only.
    pub wall: WallClockTelemetry,
}

crate::impl_to_json!(struct TelemetrySnapshot { deterministic, wall });

impl TelemetrySnapshot {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.deterministic.is_empty() && self.wall.is_empty()
    }

    /// Sums another snapshot into this one (parallel-worker aggregation).
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        self.deterministic.merge(&other.deterministic);
        self.wall.merge(&other.wall);
    }

    /// Merges many worker snapshots into one.
    pub fn merged(snapshots: impl IntoIterator<Item = TelemetrySnapshot>) -> TelemetrySnapshot {
        let mut out = TelemetrySnapshot::default();
        for s in snapshots {
            out.merge(&s);
        }
        out
    }

    /// Whether the deterministic sections match — everything but the
    /// wall-clock [`wall`](Self::wall) side.
    pub fn counters_agree(&self, other: &TelemetrySnapshot) -> bool {
        self.deterministic == other.deterministic
    }

    /// Convenience accessor for one fixed cross-layer counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.deterministic.counters.get(counter.name()).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn recorder() -> Telemetry {
        Telemetry::new(["OpenA", "OpenB", "OpenC"], ["VMware", "Debugger"])
    }

    #[test]
    fn api_counts_and_costs_accumulate() {
        let t = recorder();
        t.record_api(0, 1);
        t.record_api(0, 1);
        t.record_api(2, 3);
        let s = t.snapshot();
        assert_eq!(s.deterministic.api_calls.get("OpenA"), Some(&2));
        assert_eq!(s.deterministic.api_calls.get("OpenC"), Some(&1));
        assert_eq!(s.deterministic.api_calls.get("OpenB"), None, "zero slots are omitted");
        assert_eq!(s.deterministic.api_cost_ms.get("OpenC"), Some(&3));
        assert_eq!(s.counter(Counter::ApiCalls), 3);
    }

    #[test]
    fn out_of_range_slots_are_ignored() {
        let t = recorder();
        t.record_api(99, 1);
        let s = t.snapshot();
        assert!(s.deterministic.api_calls.is_empty());
        // the total still counts the dispatch
        assert_eq!(s.counter(Counter::ApiCalls), 1);
    }

    #[test]
    fn deception_hits_attribute_api_and_profile() {
        let t = recorder();
        t.record_deception(1, "VMware");
        t.record_deception(1, "VMware");
        t.record_deception(1, "not-a-profile");
        let s = t.snapshot();
        assert_eq!(s.deterministic.deception_hits.get("OpenB"), Some(&3));
        assert_eq!(s.deterministic.profile_hits.get("VMware"), Some(&2));
        assert_eq!(s.counter(Counter::DeceptionTriggers), 3);
    }

    #[test]
    fn stages_record_totals_counts_and_distribution() {
        let t = recorder();
        t.record_stage(Stage::BaselineRun, Duration::from_micros(150));
        t.record_stage(Stage::BaselineRun, Duration::from_micros(50));
        let s = t.snapshot();
        let stat = s.wall.stages.get("baseline_run").unwrap();
        assert_eq!(stat.total_us, 200);
        assert_eq!(stat.count, 2);
        assert_eq!(stat.hist_us.count(), 2);
        assert_eq!(stat.hist_us.sum(), 200);
        assert_eq!(s.wall.stages.get("verdict"), None, "unrecorded stages are omitted");
    }

    #[test]
    fn merged_worker_snapshots_sum_to_the_sequential_run() {
        let seq = recorder();
        let w1 = recorder();
        let w2 = recorder();
        for t in [&seq, &w1] {
            t.record_api(0, 1);
            t.record_deception(0, "VMware");
            t.incr(Counter::HookHits);
        }
        for t in [&seq, &w2] {
            t.record_api(2, 1);
            t.incr(Counter::DetectionProbes);
        }
        // wall clock differs between runs; counters must still agree
        w1.record_stage(Stage::ProtectedRun, Duration::from_micros(7));
        seq.record_stage(Stage::ProtectedRun, Duration::from_micros(900));
        let merged = TelemetrySnapshot::merged([w1.snapshot(), w2.snapshot()]);
        assert!(merged.counters_agree(&seq.snapshot()));
        assert_ne!(merged, seq.snapshot(), "full equality sees the wall clock");
    }

    #[test]
    fn reset_zeroes_everything() {
        let t = recorder();
        t.record_api(0, 1);
        t.record_deception(0, "VMware");
        t.record_stage(Stage::Verdict, Duration::from_micros(1));
        t.reset();
        assert!(t.snapshot().is_empty());
    }

    #[test]
    fn counter_and_stage_slot_order_matches_discriminants() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i);
        }
    }
}
