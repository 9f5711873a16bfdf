//! Aggregated experiment reports: the Figure 4 family histogram and the
//! benign-impact comparison.

use std::collections::BTreeMap;

use malware_sim::SampleClass;
use tracer::{FlightSnapshot, TelemetrySnapshot, Trace, TraceDiff, Verdict};

/// One corpus sample's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleResult {
    /// Synthetic md5.
    pub md5: String,
    /// Family label.
    pub family: String,
    /// Ground-truth behaviour class (for validation only).
    pub class: SampleClass,
    /// The trace-diff judgement.
    pub verdict: Verdict,
    /// Self-spawn count in the protected run.
    pub protected_self_spawns: usize,
    /// API of the first deception trigger, if any.
    pub first_trigger: Option<String>,
    /// Baseline run created processes / injected.
    pub baseline_created_processes: bool,
    /// Baseline run wrote files or mutated the registry.
    pub baseline_modified_files_or_registry: bool,
}

tracer::impl_to_json!(struct SampleResult { md5, family, class, verdict, protected_self_spawns,
    first_trigger, baseline_created_processes, baseline_modified_files_or_registry });

/// One Figure 4 bar group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilyRow {
    /// Family label.
    pub family: String,
    /// Total samples in the family.
    pub total: usize,
    /// Samples Scarecrow deactivated.
    pub deactivated: usize,
    /// Deactivated samples that kept self-spawning.
    pub kept_spawning: usize,
    /// Samples that created processes when unprotected.
    pub created_processes_without: usize,
    /// Samples that modified files/registries when unprotected.
    pub modified_without: usize,
}

/// The full corpus report (Section IV-C / Figure 4).
///
/// Equality compares the per-sample results and the *deterministic* part
/// of the telemetry snapshot
/// ([`TelemetrySnapshot::counters_agree`]) — wall-clock stage timings
/// never make two otherwise identical sweeps unequal.
#[derive(Debug, Clone)]
pub struct CorpusReport {
    results: Vec<SampleResult>,
    telemetry: Option<TelemetrySnapshot>,
    flight: Option<FlightSnapshot>,
}

impl PartialEq for CorpusReport {
    fn eq(&self, other: &Self) -> bool {
        // Flight snapshots carry wall-clock histograms and are excluded
        // for the same reason stage timings are.
        self.results == other.results
            && match (&self.telemetry, &other.telemetry) {
                (Some(a), Some(b)) => a.counters_agree(b),
                (None, None) => true,
                _ => false,
            }
    }
}

impl Eq for CorpusReport {}

// Only the per-sample results: telemetry and flight data have their own
// sidecars, and leaving their wall-clock parts out keeps this document
// deterministic.
tracer::impl_to_json!(struct CorpusReport { results });

impl CorpusReport {
    /// Wraps per-sample results.
    pub fn new(results: Vec<SampleResult>) -> Self {
        CorpusReport { results, telemetry: None, flight: None }
    }

    /// Attaches the sweep's telemetry snapshot.
    pub fn with_telemetry(mut self, telemetry: Option<TelemetrySnapshot>) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Attaches the sweep's flight-recorder snapshot.
    pub fn with_flight(mut self, flight: Option<FlightSnapshot>) -> Self {
        self.flight = flight;
        self
    }

    /// The sweep's telemetry snapshot, when collection was enabled.
    pub fn telemetry(&self) -> Option<&TelemetrySnapshot> {
        self.telemetry.as_ref()
    }

    /// The sweep's flight-recorder snapshot, when one was enabled.
    pub fn flight(&self) -> Option<&FlightSnapshot> {
        self.flight.as_ref()
    }

    /// All per-sample results.
    pub fn results(&self) -> &[SampleResult] {
        &self.results
    }

    /// Number of deactivated samples.
    pub fn deactivated(&self) -> usize {
        self.results.iter().filter(|r| r.verdict.is_deactivated()).count()
    }

    /// Deactivation rate in [0, 1].
    pub fn deactivation_rate(&self) -> f64 {
        if self.results.is_empty() {
            return 0.0;
        }
        self.deactivated() as f64 / self.results.len() as f64
    }

    /// Samples judged via the self-spawn-loop rule.
    pub fn self_spawn_loops(&self) -> usize {
        self.results.iter().filter(|r| r.verdict.is_self_spawn_loop()).count()
    }

    /// Self-spawn loopers whose first trigger was `IsDebuggerPresent`.
    pub fn loopers_via_isdebugger(&self) -> usize {
        self.results
            .iter()
            .filter(|r| r.verdict.is_self_spawn_loop())
            .filter(|r| r.first_trigger.as_deref() == Some("IsDebuggerPresent"))
            .count()
    }

    /// Per-family rows, largest families first (the Figure 4 histogram).
    pub fn per_family(&self) -> Vec<FamilyRow> {
        let mut map: BTreeMap<&str, FamilyRow> = BTreeMap::new();
        for r in &self.results {
            let row = map.entry(&r.family).or_insert_with(|| FamilyRow {
                family: r.family.clone(),
                total: 0,
                deactivated: 0,
                kept_spawning: 0,
                created_processes_without: 0,
                modified_without: 0,
            });
            row.total += 1;
            if r.verdict.is_deactivated() {
                row.deactivated += 1;
            }
            if r.verdict.is_self_spawn_loop() {
                row.kept_spawning += 1;
            }
            if r.baseline_created_processes {
                row.created_processes_without += 1;
            }
            if r.baseline_modified_files_or_registry {
                row.modified_without += 1;
            }
        }
        let mut rows: Vec<FamilyRow> = map.into_values().collect();
        rows.sort_by(|a, b| b.total.cmp(&a.total).then(a.family.cmp(&b.family)));
        rows
    }

    /// The `n` largest families.
    pub fn top_families(&self, n: usize) -> Vec<FamilyRow> {
        self.per_family().into_iter().take(n).collect()
    }
}

/// Comparison of one benign app's behaviour with vs without Scarecrow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenignReport {
    /// App image name.
    pub app: String,
    /// Whether observable behaviour was identical in both runs.
    pub identical: bool,
    /// Activities present in only one of the runs (empty when identical).
    pub differences: Vec<String>,
}

tracer::impl_to_json!(struct BenignReport { app, identical, differences });

impl BenignReport {
    /// Reads the two runs of a benign app from their fold: the activities
    /// only the baseline had, then those only the protected run had.
    pub fn from_diff(app: &str, diff: &TraceDiff) -> Self {
        let differences: Vec<String> =
            diff.suppressed().chain(diff.introduced()).map(ToString::to_string).collect();
        BenignReport { app: app.to_owned(), identical: differences.is_empty(), differences }
    }

    /// Compares the two runs of a benign app: [`BenignReport::from_diff`]
    /// over their fresh fold.
    pub fn compare(app: &str, baseline: &Trace, protected: &Trace) -> Self {
        BenignReport::from_diff(app, &TraceDiff::compute(baseline, protected))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracer::{DeactivationReason, Json, ToJson};

    fn result(family: &str, verdict: Verdict) -> SampleResult {
        SampleResult {
            md5: "0".repeat(32),
            family: family.to_owned(),
            class: SampleClass::Terminator,
            verdict,
            protected_self_spawns: 0,
            first_trigger: None,
            baseline_created_processes: true,
            baseline_modified_files_or_registry: false,
        }
    }

    #[test]
    fn rates_and_family_rows() {
        let report = CorpusReport::new(vec![
            result("A", Verdict::Deactivated(DeactivationReason::SelfSpawnLoop { count: 50 })),
            result("A", Verdict::NotDeactivated),
            result("B", Verdict::Indeterminate),
        ]);
        assert_eq!(report.deactivated(), 1);
        assert!((report.deactivation_rate() - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(report.self_spawn_loops(), 1);
        let rows = report.per_family();
        assert_eq!(rows[0].family, "A");
        assert_eq!(rows[0].total, 2);
        assert_eq!(rows[0].kept_spawning, 1);
        assert_eq!(report.top_families(1).len(), 1);
    }

    #[test]
    fn benign_comparison_flags_differences() {
        use tracer::{Event, EventKind};
        let mut a = Trace::new("app.exe");
        a.record(Event::at(0, 1, EventKind::FileWrite { path: r"C:\same".into(), bytes: 1 }));
        let mut b = Trace::new("app.exe");
        b.record(Event::at(0, 1, EventKind::FileWrite { path: r"C:\same".into(), bytes: 9 }));
        let r = BenignReport::compare("app.exe", &a, &b);
        assert!(r.identical, "byte counts do not matter: {:?}", r.differences);

        let mut c = Trace::new("app.exe");
        c.record(Event::at(0, 1, EventKind::FileWrite { path: r"C:\other".into(), bytes: 1 }));
        let r = BenignReport::compare("app.exe", &a, &c);
        assert!(!r.identical);
        // the baseline's missing activity first, then the protected run's new one
        assert_eq!(r.differences, [r"file_write(c:\same)", r"file_write(c:\other)"]);
    }

    #[test]
    fn corpus_report_round_trips() {
        use scarecrow::{Config, Scarecrow};
        let cluster = crate::Cluster::new(
            std::sync::Arc::new(winsim::env::bare_metal_sandbox),
            Scarecrow::with_builtin_db(Config::default()),
        );
        let corpus: Vec<_> = malware_sim::malgene_corpus(5).into_iter().take(6).collect();
        let report = cluster.run_corpus(&corpus, 1);
        // telemetry is attached, yet `results` is the document's only key
        assert!(report.telemetry().is_some());
        let doc = Json::parse(report.to_json().pretty()).expect("valid JSON");
        let results: Vec<Json> = report.results().iter().map(ToJson::to_json).collect();
        assert_eq!(doc, Json::object([("results", Json::Array(results))]));
    }
}
