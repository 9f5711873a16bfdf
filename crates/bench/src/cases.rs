//! The Section V case studies: Kasidet's comprehensive evasive logic and
//! the WannaCry / Locky ransomware.

use std::sync::Arc;

use harness::Cluster;
use malware_sim::samples::cases;
use scarecrow::{Config, Scarecrow};
use winsim::env::end_user_machine;

/// Result of one case-study run pair.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Case label.
    pub name: String,
    /// Files encrypted in the unprotected run.
    pub encrypted_without: usize,
    /// Files encrypted in the protected run.
    pub encrypted_with: usize,
    /// Baseline significant activities.
    pub baseline_activities: usize,
    /// Whether Scarecrow deactivated the sample.
    pub deactivated: bool,
    /// The first trigger observed.
    pub first_trigger: Option<String>,
}

tracer::impl_to_json!(struct CaseResult { name, encrypted_without, encrypted_with,
    baseline_activities, deactivated, first_trigger });

fn engine() -> Scarecrow {
    Scarecrow::with_builtin_db(Config::default())
}

fn run_case(name: &str, sample: malware_sim::EvasiveSample) -> CaseResult {
    let cluster = Cluster::new(Arc::new(end_user_machine), engine());
    let program = sample.into_program();
    // run baseline and protected on fresh machines, inspecting filesystems
    let (m_base, baseline) = cluster.run_baseline(Arc::clone(&program));
    let (m_prot, protected) = cluster.run_protected(program);
    let count_encrypted =
        |m: &winsim::Machine| m.system().fs.iter().filter(|f| f.encrypted).count();
    let diff = tracer::TraceDiff::compute(&baseline, &protected.trace);
    CaseResult {
        name: name.to_owned(),
        encrypted_without: count_encrypted(&m_base),
        encrypted_with: count_encrypted(&m_prot),
        baseline_activities: diff.baseline.len(),
        deactivated: tracer::Verdict::from_diff(&diff).is_deactivated(),
        first_trigger: protected.triggers.first().map(|t| format!("{}()", t.api)),
    }
}

/// Runs all case studies on the end-user machine (the deployment target).
pub fn run() -> Vec<CaseResult> {
    vec![
        run_case("Case I: Kasidet (10+ technique disjunction)", cases::kasidet()),
        run_case("Case II: WannaCry variant (kill-switch)", cases::wannacry()),
        run_case("Case II: WannaCry initial (no evasive logic)", cases::wannacry_initial()),
        run_case("Case II: Locky", cases::locky()),
    ]
}

/// Renders the case-study table.
pub fn render(results: &[CaseResult]) -> String {
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.encrypted_without.to_string(),
                r.encrypted_with.to_string(),
                if r.deactivated { "deactivated".into() } else { "NOT deactivated".into() },
                r.first_trigger.clone().unwrap_or_else(|| "-".into()),
            ]
        })
        .collect();
    crate::fmt::render_table(
        "Section V case studies (end-user machine)",
        &["Case", "Files encrypted w/o SC", "w/ SC", "Outcome", "Trigger"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kasidet_needs_only_one_satisfied_predicate() {
        let results = run();
        let kasidet = &results[0];
        assert!(kasidet.deactivated);
        assert!(kasidet.baseline_activities > 0, "payload runs unprotected");
        // exactly one trigger class fired first — the negated disjunction
        assert!(kasidet.first_trigger.is_some());
    }

    #[test]
    fn wannacry_variant_is_stopped_before_encryption() {
        let results = run();
        let wc = &results[1];
        assert!(wc.encrypted_without >= 10, "unprotected machine is encrypted");
        assert_eq!(wc.encrypted_with, 0, "Scarecrow's sinkhole stops it");
        assert!(wc.deactivated);
        assert_eq!(wc.first_trigger.as_deref(), Some("InternetOpenUrl()"));
    }

    #[test]
    fn initial_wannacry_shows_the_limits_of_deception() {
        let results = run();
        let initial = &results[2];
        assert!(initial.encrypted_with >= 10, "no evasive logic, nothing to exploit");
        assert!(!initial.deactivated);
    }

    #[test]
    fn locky_is_deactivated() {
        let results = run();
        let locky = &results[3];
        assert!(locky.encrypted_without >= 10);
        assert_eq!(locky.encrypted_with, 0);
        assert!(locky.deactivated);
    }
}
