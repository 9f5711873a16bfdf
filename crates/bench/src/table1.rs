//! Table I: effectiveness of Scarecrow on the 13 Joe Security samples.

use std::sync::Arc;

use harness::{Cluster, RunPair};
use malware_sim::samples::joe::{joe_samples, JoeSample};
use malware_sim::Technique;
use scarecrow::{Config, Scarecrow};
use tracer::{FlightConfig, FlightSnapshot, TelemetrySnapshot, Verdict};
use winsim::env::bare_metal_sandbox;

/// One measured Table I row.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Sample md5 prefix.
    pub md5: String,
    /// Paper's "Without SCARECROW" description.
    pub paper_without: String,
    /// Paper's "With SCARECROW" description.
    pub paper_with: String,
    /// Paper's reported trigger.
    pub paper_trigger: String,
    /// Paper's effectiveness verdict.
    pub paper_effective: bool,
    /// Baseline significant activities we measured.
    pub measured_without: Vec<String>,
    /// Protected-run summary we measured.
    pub measured_with: String,
    /// The trigger we observed.
    pub measured_trigger: String,
    /// Whether our run deactivated the sample.
    pub measured_effective: bool,
}

tracer::impl_to_json!(struct Table1Row { md5, paper_without, paper_with, paper_trigger,
    paper_effective, measured_without, measured_with, measured_trigger, measured_effective });

fn summarize_protected(pair: &RunPair) -> String {
    let spawns = pair.protected.trace.self_spawn_count();
    let acts = pair.protected.trace.significant_activities();
    match &pair.verdict {
        Verdict::Deactivated(_) if spawns > 10 => format!("self-spawn loop ({spawns} spawns)"),
        Verdict::Deactivated(_) if acts.is_empty() => "terminated without payload".to_owned(),
        Verdict::Deactivated(_) => format!("payload suppressed ({} decoy activities)", acts.len()),
        Verdict::NotDeactivated => "payload executed anyway".to_owned(),
        Verdict::Indeterminate => "no baseline activity to compare".to_owned(),
    }
}

fn observed_trigger(sample: &JoeSample, pair: &RunPair) -> String {
    if let Some(t) = pair.protected.triggers.first() {
        // Table I's vocabulary: ANSI suffixes and the sample-renaming label
        return match t.api {
            winsim::Api::GetModuleHandle => "GetModuleHandleA()".to_owned(),
            winsim::Api::GetModuleFileName => "The name of malware".to_owned(),
            api => format!("{api}()"),
        };
    }
    // deactivations with no IPC trigger come from unhookable-but-
    // pro-deception probes (hook detection); failures have no trigger
    let techniques = sample.sample.logic.techniques();
    if pair.verdict.is_deactivated()
        && techniques.iter().any(|t| matches!(t, Technique::HookDetection(_)))
    {
        return "Hook detection".to_owned();
    }
    "N/A".to_owned()
}

/// Runs the Table I experiment: each Joe sample paired on fresh bare-metal
/// machines, exactly the paper's setup, with the flight recorder armed.
/// Returns the rows, the sweep's telemetry snapshot (API call/hook/trigger
/// counters plus per-stage wall-clock timings), and the recorder's
/// snapshot: each Joe sample's causal spans and attribution chain — the
/// machine-readable Table I rows.
pub fn run() -> (Vec<Table1Row>, TelemetrySnapshot, FlightSnapshot) {
    let cluster =
        Cluster::new(Arc::new(bare_metal_sandbox), Scarecrow::with_builtin_db(Config::default()))
            .with_flight(FlightConfig::enabled());
    let rows = joe_samples()
        .into_iter()
        .enumerate()
        .map(|(i, js)| {
            let pair =
                cluster.run_pair_recorded(js.md5, i as u64, js.sample.clone().into_program());
            Table1Row {
                md5: js.md5.to_owned(),
                paper_without: js.without_desc.to_owned(),
                paper_with: js.with_desc.to_owned(),
                paper_trigger: js.trigger.to_owned(),
                paper_effective: js.effective,
                measured_without: pair
                    .baseline
                    .significant_activities()
                    .iter()
                    .map(ToString::to_string)
                    .collect(),
                measured_with: summarize_protected(&pair),
                measured_trigger: observed_trigger(&js, &pair),
                measured_effective: pair.verdict.is_deactivated(),
            }
        })
        .collect();
    let telemetry = cluster.telemetry_snapshot().expect("telemetry on by default");
    (rows, telemetry, cluster.flight_snapshot().expect("flight recorder armed"))
}

/// Renders the measured table.
pub fn render(rows: &[Table1Row]) -> String {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.md5.clone(),
                r.paper_without.clone(),
                r.measured_with.clone(),
                r.measured_trigger.clone(),
                if r.measured_effective { "Y".into() } else { "X".into() },
                if r.measured_effective == r.paper_effective
                    && (r.measured_trigger == r.paper_trigger || !r.paper_effective)
                {
                    "match".into()
                } else {
                    format!(
                        "paper: {} / {}",
                        r.paper_trigger,
                        if r.paper_effective { "Y" } else { "X" }
                    )
                },
            ]
        })
        .collect();
    crate::fmt::render_table(
        "Table I — Effectiveness of Scarecrow on the Joe Security samples",
        &[
            "Sample",
            "Without SCARECROW",
            "With SCARECROW (measured)",
            "Trigger",
            "Eff.",
            "vs paper",
        ],
        &data,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_table1_verdicts_and_triggers() {
        use tracer::Counter;
        let (rows, t, _) = run();
        assert!(!t.is_empty(), "13 paired runs must record activity");
        assert_eq!(t.counter(Counter::SamplesRun), 0, "pairs are not corpus samples");
        assert!(t.counter(Counter::ApiCalls) > 0);
        assert_eq!(rows.len(), 13);
        for r in &rows {
            assert_eq!(
                r.measured_effective, r.paper_effective,
                "{}: expected eff={} ({})",
                r.md5, r.paper_effective, r.measured_with
            );
            if r.paper_effective {
                assert_eq!(r.measured_trigger, r.paper_trigger, "{}: trigger mismatch", r.md5);
            }
        }
        let deactivated = rows.iter().filter(|r| r.measured_effective).count();
        assert_eq!(deactivated, 12, "12 of 13 deactivated");
    }

    #[test]
    fn flight_attribution_covers_the_deception_triggers() {
        let (rows, _, snap) = run();
        assert_eq!(snap.attributions.len(), rows.len(), "one chain per Joe sample");
        for a in &snap.attributions {
            for step in &a.chain {
                assert!(!step.api.is_empty());
                assert!(!step.artifact.is_empty());
                assert!(!step.handler.is_empty());
                assert!(!step.answer.is_empty());
            }
        }
        let debugger = snap.attribution_for("f1a1288").expect("debugger sample attributed");
        assert!(debugger
            .chain
            .iter()
            .any(|s| s.api == "IsDebuggerPresent" && s.handler == "Debugger"));
        assert!(debugger.verdict.contains("deactivated"));
    }

    #[test]
    fn flight_chains_and_run_triggers_are_one_record() {
        // the recorder's chain is copied from the decisions the protected
        // run reports: as many steps, and step for step the same fact
        let cluster = Cluster::new(
            Arc::new(bare_metal_sandbox),
            Scarecrow::with_builtin_db(Config::default()),
        )
        .with_flight(FlightConfig::enabled());
        let pairs: Vec<_> = joe_samples()
            .into_iter()
            .enumerate()
            .map(|(i, js)| {
                (js.md5, cluster.run_pair_recorded(js.md5, i as u64, js.sample.into_program()))
            })
            .collect();
        let snap = cluster.flight_snapshot().expect("flight recorder armed");
        for (md5, pair) in &pairs {
            let triggers = &pair.protected.triggers;
            let a = snap.attribution_for(md5).expect("every Joe sample attributed");
            assert_eq!(a.total_steps, triggers.len() as u64, "{md5}");
            // the recorder keeps the first 32 steps of a chain
            assert_eq!(a.chain.len(), triggers.len().min(32), "{md5}");
            for (step, t) in a.chain.iter().zip(triggers) {
                assert_eq!(
                    (step.time_ms, step.api, step.category, &step.artifact),
                    (t.time_ms, t.api.name(), t.category, &t.resource),
                    "{md5}"
                );
                assert_eq!((step.handler, &step.answer), (t.profile, &t.answer), "{md5}");
            }
        }
        assert!(pairs.iter().any(|(_, p)| !p.protected.triggers.is_empty()));
    }

    #[test]
    fn baseline_runs_show_malicious_activity() {
        let (rows, ..) = run();
        for r in rows.iter().filter(|r| r.md5 != "564ac87") {
            assert!(
                !r.measured_without.is_empty(),
                "{} baseline should act ({:?})",
                r.md5,
                r.measured_without
            );
        }
    }
}
