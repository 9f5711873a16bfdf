//! The benign-impact experiment (Section IV-C.1): the CNET top-20 corpus
//! runs with and without Scarecrow; observable behaviour must be
//! identical.

use std::sync::Arc;

use harness::{BenignReport, Cluster};
use malware_sim::cnet_top20;
use scarecrow::{Config, Scarecrow};
use winsim::env::end_user_machine;
use winsim::DriveInfo;

/// Runs all 20 benign apps paired.
pub fn run() -> Vec<BenignReport> {
    let factory = Arc::new(|| {
        let mut m = end_user_machine();
        // the backup tool writes to a second drive
        m.system_mut().fs.set_drive('D', DriveInfo::gb(1_000, 800));
        m
    });
    let cluster = Cluster::new(factory, Scarecrow::with_builtin_db(Config::default()));
    cnet_top20()
        .into_iter()
        .map(|app| {
            let image = winsim::Program::image_name(&app).to_owned();
            BenignReport::from_diff(&image, &cluster.run_pair(Arc::new(app)).diff)
        })
        .collect()
}

/// Renders the benign-impact table.
pub fn render(reports: &[BenignReport]) -> String {
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.app.clone(),
                if r.identical { "identical".into() } else { "DIFFERS".into() },
                r.differences.join("; "),
            ]
        })
        .collect();
    let identical = reports.iter().filter(|r| r.identical).count();
    let mut out = crate::fmt::render_table(
        "Benign software impact (CNET top 20, end-user machine)",
        &["Application", "Behaviour w/ vs w/o Scarecrow", "Differences"],
        &rows,
    );
    out.push_str(&format!(
        "\n{} of {} applications behave identically under Scarecrow.\n",
        identical,
        reports.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_benign_app_changes_behaviour() {
        let reports = run();
        assert_eq!(reports.len(), 20);
        for r in &reports {
            assert!(r.identical, "{} differs: {:?}", r.app, r.differences);
        }
    }
}
