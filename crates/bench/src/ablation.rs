//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! * **deception breadth** — full engine vs. hook-presence-only vs.
//!   single-category configurations (tests the §II-C Pareto argument and
//!   the §III-A "sheer presence of in-line hooking" remark);
//! * **network sinkholing** — the WannaCry kill-switch with the network
//!   category toggled;
//! * **conflict-avoiding profiles** — the §VI-B counter-detection story:
//!   a Scarecrow-aware sample that looks for impossible VM combinations,
//!   with and without exclusive-profile mode.

use std::sync::Arc;

use harness::{Cluster, RunLimits};
use malware_sim::malgene_corpus;
use malware_sim::samples::cases;
use scarecrow::{Config, Scarecrow};
use winsim::env::{bare_metal_sandbox, end_user_machine};
use winsim::{ProcessCtx, Program};

/// Deactivation rate of one engine configuration over a corpus subset.
#[derive(Debug, Clone)]
pub struct ConfigRate {
    /// Configuration label.
    pub label: String,
    /// Samples deactivated.
    pub deactivated: usize,
    /// Subset size.
    pub total: usize,
}

fn config_variants() -> Vec<(String, Config, scarecrow::ResourceDb)> {
    use scarecrow::{Profile, ResourceDb};
    let builtin = ResourceDb::builtin();
    let full = Config::default();
    let presence = Config::presence_only();
    let software_only =
        Config { hardware: false, network: false, weartear: false, ..Config::default() };
    let no_network = Config { network: false, ..Config::default() };
    let no_follow = Config { follow_children: false, ..Config::default() };
    // the §II-C Pareto probe: a database reduced to the debugger profile
    // (but with the debugger-presence lies still active)
    let debugger_only_db = builtin.filter_profiles(&[Profile::Debugger]);
    vec![
        ("full engine".to_owned(), full, builtin.clone()),
        ("software resources only".to_owned(), software_only, builtin.clone()),
        ("debugger profile only".to_owned(), Config::default(), debugger_only_db),
        ("no network sinkhole".to_owned(), no_network, builtin.clone()),
        ("no child following".to_owned(), no_follow, builtin.clone()),
        ("hook presence only (no faking)".to_owned(), presence, builtin),
    ]
}

/// Runs the configuration-breadth ablation over `subset` corpus samples,
/// each configuration's sweep spread over `workers` cluster nodes.
pub fn deception_breadth(subset: usize, workers: usize) -> Vec<ConfigRate> {
    let corpus: Vec<_> = malgene_corpus(crate::figure4::CORPUS_SEED)
        .into_iter()
        .step_by((malware_sim::CORPUS_SIZE / subset).max(1))
        .take(subset)
        .collect();
    config_variants()
        .into_iter()
        .map(|(label, config, db)| {
            let cluster =
                Cluster::new(Arc::new(bare_metal_sandbox), Scarecrow::with_db(config, db))
                    .with_limits(RunLimits { budget_ms: 60_000, max_processes: 40 });
            let report = cluster.run_corpus(&corpus, workers);
            ConfigRate { label, deactivated: report.deactivated(), total: corpus.len() }
        })
        .collect()
}

/// The WannaCry sinkhole ablation: encrypted-file counts with the network
/// category on vs. off.
pub fn wannacry_sinkhole() -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for (label, network) in [("network deception ON", true), ("network deception OFF", false)] {
        let config = Config { network, ..Config::default() };
        let cluster = Cluster::new(Arc::new(end_user_machine), Scarecrow::with_builtin_db(config));
        let (machine, _) = cluster.run_protected(cases::wannacry().into_program());
        let encrypted = machine.system().fs.iter().filter(|f| f.encrypted).count();
        out.push((label.to_owned(), encrypted));
    }
    out
}

/// A Scarecrow-aware sample (Section VI-B): it treats *conflicting* VM
/// evidence (VMware and VirtualBox guest additions on one machine) as
/// proof of deception and detonates anyway.
#[derive(Debug)]
pub struct ScarecrowAwareSample;

impl Program for ScarecrowAwareSample {
    fn image_name(&self) -> &str {
        "aware.exe"
    }
    fn run(&self, ctx: &mut ProcessCtx<'_>) {
        let vmware = ctx.reg_key_exists(r"HKLM\SOFTWARE\VMware, Inc.\VMware Tools");
        let vbox = ctx.reg_key_exists(r"HKLM\SOFTWARE\Oracle\VirtualBox Guest Additions");
        if vmware && vbox {
            // impossible combination: this must be a deception engine
            ctx.write_file(r"C:\detonated.bin", 64);
        } else if vmware || vbox {
            ctx.exit_process(0); // plausible single VM: evade
        } else {
            ctx.write_file(r"C:\detonated.bin", 64);
        }
    }
}

/// Outcome of the profile-mode ablation.
#[derive(Debug, Clone)]
pub struct ProfileAblation {
    /// Whether the aware sample detonated under inclusive profiles.
    pub detonated_inclusive: bool,
    /// Whether it detonated under exclusive profiles.
    pub detonated_exclusive: bool,
}

/// Runs the §VI-B ablation.
pub fn profile_conflicts() -> ProfileAblation {
    let mut result = ProfileAblation { detonated_inclusive: false, detonated_exclusive: false };
    for exclusive in [false, true] {
        let config = Config { exclusive_profiles: exclusive, ..Config::default() };
        let engine = Scarecrow::with_builtin_db(config);
        let mut m = end_user_machine();
        m.register_program(Arc::new(ScarecrowAwareSample));
        engine.run_protected(&mut m, "aware.exe").expect("registered");
        let detonated = m.system().fs.exists(r"C:\detonated.bin");
        if exclusive {
            result.detonated_exclusive = detonated;
        } else {
            result.detonated_inclusive = detonated;
        }
    }
    result
}

/// Renders all ablations.
pub fn render(
    rates: &[ConfigRate],
    wannacry: &[(String, usize)],
    profiles: &ProfileAblation,
) -> String {
    let rows: Vec<Vec<String>> = rates
        .iter()
        .map(|r| vec![r.label.clone(), crate::fmt::rate(r.deactivated, r.total)])
        .collect();
    let mut out = crate::fmt::render_table(
        "Ablation — deception breadth (corpus subset)",
        &["Engine configuration", "Deactivation rate"],
        &rows,
    );
    out.push('\n');
    let rows: Vec<Vec<String>> =
        wannacry.iter().map(|(l, n)| vec![l.clone(), n.to_string()]).collect();
    out.push_str(&crate::fmt::render_table(
        "Ablation — WannaCry kill-switch vs. network sinkholing",
        &["Configuration", "Files encrypted"],
        &rows,
    ));
    out.push_str(&format!(
        "\nScarecrow-aware sample (conflicting-VM check, §VI-B):\n  \
         inclusive profiles: {}\n  exclusive profiles: {}\n",
        if profiles.detonated_inclusive { "DETONATED (conflict observed)" } else { "evaded" },
        if profiles.detonated_exclusive { "DETONATED" } else { "evaded (conflict hidden)" },
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breadth_ordering_holds() {
        let rates = deception_breadth(60, 2);
        let rate_of = |label: &str| {
            rates
                .iter()
                .find(|r| r.label.contains(label))
                .map(|r| r.deactivated as f64 / r.total as f64)
                .unwrap()
        };
        let full = rate_of("full engine");
        let software = rate_of("software resources only");
        let presence = rate_of("hook presence only");
        assert!(full >= software, "full {full} >= software {software}");
        assert!(software > presence, "software {software} > presence {presence}");
        assert!(full > 0.8, "full engine deactivates most of the subset: {full}");
        // hook presence alone still catches the hook-detection samples
        assert!(presence < 0.3);
    }

    #[test]
    fn sinkhole_is_what_stops_wannacry() {
        let results = wannacry_sinkhole();
        let on = results.iter().find(|(l, _)| l.contains("ON")).unwrap().1;
        let off = results.iter().find(|(l, _)| l.contains("OFF")).unwrap().1;
        assert_eq!(on, 0);
        assert!(off >= 10, "without the sinkhole the files are lost: {off}");
    }

    #[test]
    fn exclusive_profiles_defeat_the_conflict_detector() {
        let r = profile_conflicts();
        assert!(r.detonated_inclusive, "inclusive mode exposes the contradiction");
        assert!(!r.detonated_exclusive, "exclusive mode hides it");
    }
}
