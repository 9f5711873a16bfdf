//! `scarecrowctl` — a small operator CLI over the deception engine.
//!
//! ```text
//! scarecrowctl stats                      # resource-database inventory
//! scarecrowctl hooks                      # the hooked API list
//! scarecrowctl rules [config.json] [--json] # the deception-rule registry
//! scarecrowctl config-show                # default configuration as JSON
//! scarecrowctl config-init <path>         # write a config file to edit
//! scarecrowctl list-samples               # built-in reconstructed samples
//! scarecrowctl run <sample> [config.json] # paired run + verdict
//! scarecrowctl trace <sample>             # Chrome trace JSON (Perfetto)
//! scarecrowctl explain <sample>           # deactivation attribution chain
//! scarecrowctl top                        # corpus-wide flight aggregates
//! scarecrowctl pafish <env>               # pafish on bare|vm|user, ±engine
//! ```
//!
//! `<sample>` is a built-in label from `list-samples` (`case:kasidet`,
//! `joe:f1a1288`, …) or a MalGene corpus md5 / unique md5 prefix.

use std::collections::BTreeMap;
use std::sync::Arc;

use harness::{Cluster, RunLimits, RunPair};
use malware_sim::samples::{cases, families, joe};
use malware_sim::{malgene_corpus, EvasiveSample};
use scarecrow::rules::{all_rules, DeceptionRule, RuleSet};
use scarecrow::{Config, Scarecrow};
use scarecrow_bench::figure4;
use tracer::flight::{attribution_json, chrome_trace_json};
use tracer::{Counter, FlightConfig, FlightSnapshot, Json, ToJson};
use winsim::env::{bare_metal_sandbox, end_user_machine, vm_sandbox};

fn builtin_samples() -> Vec<(String, EvasiveSample)> {
    let mut out: Vec<(String, EvasiveSample)> = Vec::new();
    for js in joe::joe_samples() {
        out.push((format!("joe:{}", js.md5), js.sample));
    }
    for rep in families::all_representatives() {
        out.push((format!("family:{}", rep.family.to_ascii_lowercase()), rep));
    }
    out.push(("case:kasidet".into(), cases::kasidet()));
    out.push(("case:wannacry".into(), cases::wannacry()));
    out.push(("case:wannacry-initial".into(), cases::wannacry_initial()));
    out.push(("case:locky".into(), cases::locky()));
    out
}

/// Shared `<sample>` plumbing for `run`/`trace`/`explain`: built-in labels
/// first, then the seeded MalGene corpus (the same corpus `figure4`
/// sweeps) by md5 or unique md5 prefix.
fn resolve_sample(name: &str) -> Result<(String, EvasiveSample), String> {
    if let Some(hit) = builtin_samples().into_iter().find(|(n, _)| n == name) {
        return Ok(hit);
    }
    if name.is_empty() {
        return Err("empty sample name".to_owned());
    }
    let mut hits: Vec<_> = malgene_corpus(figure4::CORPUS_SEED)
        .into_iter()
        .filter(|s| s.md5.starts_with(name))
        .collect();
    match hits.len() {
        0 => Err(format!(
            "unknown sample {name:?}; see `scarecrowctl list-samples` or use a corpus md5"
        )),
        1 => {
            let s = hits.remove(0);
            Ok((s.md5, s.sample))
        }
        n => Err(format!("md5 prefix {name:?} is ambiguous ({n} corpus matches)")),
    }
}

fn resolve_or_exit(name: &str) -> (String, EvasiveSample) {
    match resolve_sample(name) {
        Ok(hit) => hit,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// One flight-recorded paired run on a fresh bare-metal machine (the
/// Figure 4 / Table I setting).
fn flight_run(key: &str, sample: EvasiveSample, config: Config) -> (RunPair, FlightSnapshot) {
    let cluster = Cluster::new(Arc::new(bare_metal_sandbox), Scarecrow::with_builtin_db(config))
        .with_flight(FlightConfig::enabled());
    let pair = cluster.run_pair_recorded(key, 0, sample.into_program());
    let snap = cluster.flight_snapshot().expect("flight recorder enabled");
    (pair, snap)
}

fn cmd_stats() {
    let engine = Scarecrow::new(Config::default());
    let stats = engine.db_stats();
    println!("deceptive resource database (curated core + public-sandbox crawl):");
    println!("  files:            {}", stats.files);
    println!("  devices:          {}", stats.devices);
    println!("  processes:        {}", stats.processes);
    println!("  dlls:             {}", stats.dlls);
    println!("  windows:          {}", stats.windows);
    println!("  registry keys:    {}", stats.reg_keys);
    println!("  registry values:  {}", stats.reg_values);
    println!("  hooked APIs:      {}", engine.hooked_apis().len());
}

fn cmd_hooks() {
    let engine = Scarecrow::with_builtin_db(Config::default());
    for api in engine.hooked_apis() {
        println!("{api}");
    }
}

/// The rule's status under a configuration, for the `rules` listing.
fn rule_status(rule: &dyn DeceptionRule, config: &Config) -> &'static str {
    if !config.rule_enabled(rule.name()) {
        "disabled" // unregistered via Config::rule_overrides
    } else if rule.gate().is_open(config) {
        "active"
    } else {
        "gated-off" // registered (hooks stay patched) but never answers
    }
}

/// The `scarecrow.rules.v1` document: every rule with its status under
/// the set's configuration, then the hook list the registered rules derive.
fn rules_json(set: &RuleSet) -> Json {
    let rules = all_rules().iter().map(|rule| {
        let apis = rule.apis().iter().map(|(api, tier)| {
            Json::object([("api", api.name().to_json()), ("tier", tier.label().to_json())])
        });
        Json::object([
            ("name", rule.name().to_json()),
            ("category", Json::Str(rule.category().to_string())),
            ("gate", rule.gate().name().to_json()),
            ("status", rule_status(*rule, set.config()).to_json()),
            ("apis", Json::Array(apis.collect())),
        ])
    });
    let hooked = set.hooked_apis().iter().map(|a| a.name().to_json());
    Json::object([
        ("schema", "scarecrow.rules.v1".to_json()),
        ("rules", Json::Array(rules.collect())),
        ("hooked_apis", Json::Array(hooked.collect())),
    ])
}

fn cmd_rules(config_path: Option<&str>, json: bool) {
    let config = match config_path {
        Some(path) => match Config::from_json_file(path) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        },
        None => Config::default(),
    };
    let set = RuleSet::build(config);
    let rendered = rules_json(&set).pretty();
    if json {
        println!("{rendered}");
    } else {
        println!(
            "{} rules registered ({} under this config), {} APIs hooked:",
            all_rules().len(),
            set.rules().len(),
            set.hooked_apis().len()
        );
        for rule in all_rules() {
            let apis: Vec<String> =
                rule.apis().iter().map(|(api, tier)| format!("{api}[{}]", tier.label())).collect();
            println!(
                "  {:<19} {:<10} gate={:<18} {:<9} {}",
                rule.name(),
                rule.category().to_string(),
                rule.gate().name(),
                rule_status(*rule, set.config()),
                apis.join(" ")
            );
        }
    }
    if let Some(path) = scarecrow_bench::json::maybe_write("scarecrowctl_rules", &rendered) {
        eprintln!("rules sidecar: {}", path.display());
    }
}

fn cmd_config_show() {
    println!("{}", Config::default().to_json().pretty());
}

fn cmd_config_init(path: &str) {
    match Config::default().save_json_file(path) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_list_samples() {
    for (name, sample) in builtin_samples() {
        println!("{name:<26} ({} techniques)", sample.logic.techniques().len());
    }
}

fn cmd_run(name: &str, config_path: Option<&str>) {
    let config = match config_path {
        Some(path) => match Config::from_json_file(path) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        },
        None => Config::default(),
    };
    let (_, sample) = resolve_or_exit(name);
    let cluster = Cluster::new(Arc::new(end_user_machine), Scarecrow::with_builtin_db(config));
    let pair = cluster.run_pair(sample.into_program());
    println!("baseline activities:");
    for a in pair.baseline.significant_activities() {
        println!("  - {a}");
    }
    println!("\ntriggers under deception:");
    for t in &pair.protected.triggers {
        println!("  - {t}");
    }
    for alarm in pair.protected.alarms() {
        println!("alarm: {alarm}");
    }
    println!("\nsummary: {}", pair.protected.trigger_summary());
    println!("verdict: {}", pair.verdict);
    if let Some(t) = cluster.telemetry_snapshot() {
        println!(
            "telemetry: {} api calls, {} hook hits, {} deception triggers",
            t.counter(Counter::ApiCalls),
            t.counter(Counter::HookHits),
            t.counter(Counter::DeceptionTriggers),
        );
        scarecrow_bench::json::maybe_write("scarecrowctl_run_telemetry", &t.to_json().pretty());
    }
}

fn cmd_trace(name: &str) {
    let (key, sample) = resolve_or_exit(name);
    let (_, snap) = flight_run(&key, sample, Config::default());
    let json = chrome_trace_json(&snap);
    eprintln!(
        "{} spans ({} dropped); load the JSON in Perfetto / chrome://tracing",
        snap.spans.len(),
        snap.dropped_spans
    );
    if let Some(path) = scarecrow_bench::json::maybe_write("scarecrowctl_trace", &json) {
        eprintln!("trace sidecar: {}", path.display());
    }
    println!("{json}");
}

fn cmd_explain(name: &str) {
    let (key, sample) = resolve_or_exit(name);
    let (pair, snap) = flight_run(&key, sample, Config::default());
    let attr = snap.attribution_for(&key).expect("recorded run carries an attribution");
    println!("sample:  {key}");
    println!("verdict: {}", pair.verdict);
    if attr.chain.is_empty() {
        println!("no deception triggers — the engine never had to fabricate an answer");
    } else {
        println!(
            "deception chain (probed artifact -> hooked API -> profile handler => fabricated answer):"
        );
        for (i, s) in attr.chain.iter().enumerate() {
            println!(
                "  {:>3}. t={}ms  {} [{}] -> {}() -> {} handler => {}",
                i + 1,
                s.time_ms,
                s.artifact,
                s.category,
                s.api,
                s.handler,
                s.answer
            );
        }
        let shown = attr.chain.len() as u64;
        if attr.total_steps > shown {
            println!(
                "  ({} further triggers beyond the {shown}-step chain cap)",
                attr.total_steps - shown
            );
        }
    }
    if let Some(path) =
        scarecrow_bench::json::maybe_write("scarecrowctl_attribution", &attribution_json(&snap))
    {
        eprintln!("attribution sidecar: {}", path.display());
    }
}

fn top_counts(title: &str, counts: &BTreeMap<&str, u64>) {
    let mut rows: Vec<(&str, u64)> = counts.iter().map(|(k, v)| (*k, *v)).collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    println!("\n{title}:");
    for (name, n) in rows.into_iter().take(10) {
        println!("  {n:>8}  {name}");
    }
}

fn cmd_top() {
    let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    eprintln!("sweeping the 1,054-sample corpus with the flight recorder on ({workers} workers)…");
    let limits = RunLimits { budget_ms: 60_000, max_processes: 40 };
    let report = figure4::run(limits, workers, FlightConfig::enabled());
    let snap = report.flight().expect("flight recorder enabled");
    let mut apis: BTreeMap<&str, u64> = BTreeMap::new();
    let mut handlers: BTreeMap<&str, u64> = BTreeMap::new();
    let mut artifacts: BTreeMap<&str, u64> = BTreeMap::new();
    let mut recorded = 0u64;
    let mut total = 0u64;
    for a in &snap.attributions {
        total += a.total_steps;
        recorded += a.chain.len() as u64;
        for s in &a.chain {
            *apis.entry(s.api).or_default() += 1;
            *handlers.entry(s.handler).or_default() += 1;
            *artifacts.entry(&s.artifact).or_default() += 1;
        }
    }
    println!(
        "{} samples, {} deactivated; {total} deception triggers ({recorded} in recorded chains)",
        report.results().len(),
        report.deactivated(),
    );
    top_counts("top hooked APIs in deception chains", &apis);
    top_counts("top profile handlers", &handlers);
    top_counts("top probed artifacts", &artifacts);
    if !snap.hists.is_empty() {
        println!("\nlatency histograms (merged across workers):");
        for (name, h) in &snap.hists {
            println!(
                "  {name:<26} n={:<10} mean={:<9} p50={:<9} p99={} (ns)",
                h.count(),
                h.mean(),
                h.percentile(50.0),
                h.percentile(99.0)
            );
        }
    }
    if let Some(path) =
        scarecrow_bench::json::maybe_write("scarecrowctl_top_attribution", &attribution_json(snap))
    {
        eprintln!("attribution sidecar: {}", path.display());
    }
}

fn cmd_pafish(env: &str) {
    let engine = Scarecrow::with_builtin_db(Config::default());
    for (label, with) in [("without Scarecrow", false), ("with Scarecrow", true)] {
        let mut machine = match env {
            "bare" => bare_metal_sandbox(),
            "vm" => vm_sandbox(),
            "user" => end_user_machine(),
            other => {
                eprintln!("unknown environment {other:?} (use bare|vm|user)");
                std::process::exit(1);
            }
        };
        let pid = harness::spawn_probe(&mut machine, "pafish.exe", with.then_some(&engine));
        let mut ctx = winsim::ProcessCtx::new(&mut machine, pid);
        let report = pafish_sim::run_pafish(&mut ctx);
        println!("{label}: {} evidence triggered", report.total_triggered());
        for (cat, hit, total) in report.rows() {
            println!("  {:<18} {hit}/{total}", cat.label());
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: scarecrowctl <command>\n\
         commands:\n  \
         stats | hooks | rules [config.json] [--json] | config-show |\n  \
         config-init <path> | list-samples | run <sample> [config.json] |\n  \
         trace <sample> | explain <sample> | top | pafish <bare|vm|user>\n\
         <sample>: a `list-samples` label or a MalGene corpus md5 (prefix ok)"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("stats") => cmd_stats(),
        Some("hooks") => cmd_hooks(),
        Some("rules") => {
            let json = args.iter().any(|a| a == "--json");
            let config = args.iter().skip(1).find(|a| *a != "--json").map(String::as_str);
            cmd_rules(config, json);
        }
        Some("config-show") => cmd_config_show(),
        Some("config-init") => match args.get(1) {
            Some(path) => cmd_config_init(path),
            None => usage(),
        },
        Some("list-samples") => cmd_list_samples(),
        Some("run") => match args.get(1) {
            Some(name) => cmd_run(name, args.get(2).map(String::as_str)),
            None => usage(),
        },
        Some("trace") => match args.get(1) {
            Some(name) => cmd_trace(name),
            None => usage(),
        },
        Some("explain") => match args.get(1) {
            Some(name) => cmd_explain(name),
            None => usage(),
        },
        Some("top") => cmd_top(),
        Some("pafish") => cmd_pafish(args.get(1).map(String::as_str).unwrap_or("user")),
        _ => usage(),
    }
}
