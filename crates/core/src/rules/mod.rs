//! The declarative deception-rule registry.
//!
//! The paper frames Scarecrow as a *composable set of deceptions*: per
//! resource category (software, hardware, network, timing, wear-and-tear,
//! Section II-B) a family of fake artifacts is served through a small set
//! of hooked APIs. This module realizes that composition literally — each
//! family is one [`DeceptionRule`], and the engine dispatcher is nothing
//! but "ask every rule registered for this API, first answer wins".
//!
//! # Adding a rule
//!
//! 1. Write a unit struct implementing [`DeceptionRule`] in a new
//!    submodule: declare the hooked APIs with their [`Tier`]s, the
//!    [`Gate`] it answers behind, and a
//!    [`respond`](DeceptionRule::respond) that returns an [`Outcome`] —
//!    never record a decision yourself.
//! 2. Register it in [`all_rules`]. Order is load-bearing only where two
//!    rules share an API (e.g. `NtQueryKey` consults wear-and-tear before
//!    the software registry, like the original dispatcher).
//! 3. Done: [`RuleSet::build`] derives the hooked-API set, the hook table,
//!    the `scarecrowctl rules` listing, and the attribution plumbing.

use std::borrow::Cow;
use std::collections::HashSet;
use std::sync::Arc;

use winsim::{Api, ApiCall, Decision, Value};

use crate::config::Config;
use crate::engine::EngineState;
use crate::profiles::Profile;
use crate::resources::{Category, Entry};

mod debugger;
mod exception;
mod filesystem;
mod gui;
mod hardware;
mod identity;
mod mitigation;
mod modules;
mod network;
mod process_enum;
mod protection;
mod registry;
mod weartear;

/// When an API declared by a rule is actually hooked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// One of the paper's 29 always-hooked APIs (Section III-A).
    Core,
    /// A documented extension beyond the 29 (exception dispatcher,
    /// Toolhelp32 snapshots) — also always hooked.
    Extra,
    /// A Table III "Associated API" — hooked only when
    /// [`Config::weartear`] enables the wear-and-tear extension.
    Wear,
}

impl Tier {
    /// Stable lower-case label (used by `scarecrowctl rules`).
    pub fn label(self) -> &'static str {
        match self {
            Tier::Core => "core",
            Tier::Extra => "extra",
            Tier::Wear => "wear",
        }
    }
}

/// The [`Config`] switch a rule answers behind, declared once per rule:
/// the switch's name (its key in the configuration's JSON, or `"always"`)
/// and how to read it. A rule whose gate is closed keeps its hooks patched
/// (anti-hook checks still see the `JMP`s) but never answers.
#[derive(Clone, Copy)]
pub struct Gate {
    name: &'static str,
    read: fn(&Config) -> bool,
}

impl Gate {
    /// Open under every configuration.
    pub const ALWAYS: Gate = Gate { name: "always", read: |_| true };
    /// [`Config::software`].
    pub const SOFTWARE: Gate = Gate { name: "software", read: |c| c.software };
    /// [`Config::hardware`].
    pub const HARDWARE: Gate = Gate { name: "hardware", read: |c| c.hardware };
    /// [`Config::network`].
    pub const NETWORK: Gate = Gate { name: "network", read: |c| c.network };
    /// [`Config::weartear`].
    pub const WEARTEAR: Gate = Gate { name: "weartear", read: |c| c.weartear };
    /// [`Config::protect_processes`].
    pub const PROTECT_PROCESSES: Gate =
        Gate { name: "protect_processes", read: |c| c.protect_processes };

    /// The switch's name (for listings).
    pub fn name(self) -> &'static str {
        self.name
    }

    /// Whether the gate is open under a configuration.
    pub fn is_open(self, cfg: &Config) -> bool {
        (self.read)(cfg)
    }
}

/// A fabricated answer, named: what artifact was probed, which profile
/// answers, and what the caller was told — the rule's draft of a
/// [`Decision`]. The dispatcher moves it into the decision it records on
/// the run's machine ([`winsim::Machine::record_decision`]) — rules cannot
/// forget to attribute their lies. A literal resource or answer is
/// borrowed, not copied.
#[derive(Debug, Clone)]
pub struct Deception {
    /// Resource category of the probed artifact.
    pub category: Category,
    /// The probed artifact (registry path, file, domain, …).
    pub resource: Cow<'static, str>,
    /// The profile whose planted resource answered.
    pub profile: Profile,
    /// Human-readable fabricated answer.
    pub answer: Cow<'static, str>,
}

impl Deception {
    /// Builds a deception record.
    pub fn new(
        category: Category,
        resource: impl Into<Cow<'static, str>>,
        profile: Profile,
        answer: impl Into<Cow<'static, str>>,
    ) -> Self {
        Deception { category, resource: resource.into(), profile, answer: answer.into() }
    }
}

/// What one rule decided about one intercepted call.
pub enum Outcome {
    /// Not this rule's business: try the next rule, then the original API.
    Pass,
    /// Final answer with no deception to report (e.g. a merged listing
    /// with nothing deceptive in it, or a mitigation kill).
    Done(Value),
    /// Final fabricated answer; the dispatcher reports the attached
    /// [`Deception`] before returning the value.
    Deceive(Deception, Value),
}

/// One composable deception: a named family of fake artifacts served
/// through a declared set of hooked APIs behind one configuration gate.
pub trait DeceptionRule: Send + Sync {
    /// Stable rule name — the key for [`Config::rule_overrides`].
    fn name(&self) -> &'static str;

    /// The rule's nominal resource category (individual answers may
    /// refine it, e.g. filesystem answering for a device namespace).
    fn category(&self) -> Category;

    /// Every API this rule answers on, with the tier that hooks it.
    fn apis(&self) -> &'static [(Api, Tier)];

    /// The [`Config`] switch the rule answers behind.
    fn gate(&self) -> Gate;

    /// Inspects one intercepted call and decides an [`Outcome`].
    fn respond(&self, state: &EngineState, cfg: &Config, call: &mut ApiCall<'_>) -> Outcome;
}

/// Which profiles answer one call (Section VI-B): [`Profile::active`]
/// under the current configuration's mode and the calling run's committed
/// profile.
#[derive(Clone, Copy)]
pub(crate) struct Live {
    exclusive: bool,
    committed: Option<&'static str>,
}

impl Live {
    pub(crate) fn of(cfg: &Config, call: &ApiCall<'_>) -> Live {
        let committed = call.machine_ref().deception().committed_profile;
        Live { exclusive: cfg.exclusive_profiles, committed }
    }

    /// Whether resources of `profile` answer.
    pub(crate) fn admits(self, profile: Profile) -> bool {
        profile.active(self.exclusive, self.committed)
    }

    /// The first database hit whose profile answers.
    pub(crate) fn hit(self, hits: impl IntoIterator<Item = Profile>) -> Option<Profile> {
        hits.into_iter().find(|&p| self.admits(p))
    }
}

/// The one merge of database entries into a listing: an enumeration's
/// `answer` itself, or the Toolhelp32 `snapshot` it created. Appends each
/// entry `live` admits that the listing does not name yet (compared
/// case-insensitively); whenever one is admitted, deceives under the
/// first one's profile — `draft` gets it and the number appended.
pub(crate) fn merge_listing<'a>(
    mut answer: Value,
    snapshot: Option<&mut Vec<Value>>,
    entries: impl IntoIterator<Item = &'a Entry>,
    live: Live,
    draft: impl FnOnce(Profile, usize) -> Deception,
) -> Outcome {
    let mut first = None;
    let mut appended = 0;
    if let Some(listing) = snapshot.or(answer.as_list_mut()) {
        for e in entries.into_iter().filter(|e| live.admits(e.profile)) {
            first.get_or_insert(e.profile);
            let named = |v: &Value| v.as_str().is_some_and(|s| s.eq_ignore_ascii_case(&e.name));
            if !listing.iter().any(named) {
                listing.push(Value::from(e.name.as_str()));
                appended += 1;
            }
        }
    }
    match first {
        Some(p) => Outcome::Deceive(draft(p, appended), answer),
        None => Outcome::Done(answer),
    }
}

/// Every rule, in dispatch order. Registration order is the tie-break
/// where rules share an API: wear-and-tear answers `NtQueryKey` before
/// the software registry, exactly like the pre-registry dispatcher.
pub fn all_rules() -> &'static [&'static dyn DeceptionRule] {
    static RULES: [&dyn DeceptionRule; 13] = [
        &weartear::WearTearRule,
        &registry::RegistryRule,
        &filesystem::FilesystemRule,
        &process_enum::ProcessEnumRule,
        &modules::ModulesRule,
        &gui::GuiRule,
        &debugger::DebuggerRule,
        &exception::ExceptionTimingRule,
        &hardware::HardwareRule,
        &identity::IdentityRule,
        &network::NetworkRule,
        &protection::ProtectionRule,
        &mitigation::MitigationRule,
    ];
    &RULES
}

/// One configuration and the rules it makes live, indexed for dispatch —
/// the engine's whole per-configuration state.
///
/// Built once per configuration swap (see `EngineState::swap_config`):
/// each rule's override and gate are resolved here, so the per-call path
/// is a vector lookup with no check, hash or allocation.
pub struct RuleSet {
    config: Arc<Config>,
    /// The registered rules (not switched off by an override).
    rules: Vec<&'static dyn DeceptionRule>,
    /// `Api as usize` → the live rules (registered, gate open) declaring
    /// it, in dispatch order.
    index: Vec<Vec<&'static dyn DeceptionRule>>,
    hooked: Vec<Api>,
}

impl std::fmt::Debug for RuleSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuleSet")
            .field("rules", &self.rules.len())
            .field("hooked", &self.hooked.len())
            .finish()
    }
}

impl RuleSet {
    /// Builds the rule set for a configuration: applies
    /// [`Config::rule_overrides`], indexes `Api → live rules`, and derives
    /// the hooked-API set from every registered rule, gated-off ones
    /// included (core/extra tiers always, wear tier only under
    /// [`Config::weartear`]), deduplicated in one pass.
    pub fn build(config: Config) -> RuleSet {
        let rules: Vec<&'static dyn DeceptionRule> =
            all_rules().iter().copied().filter(|r| config.rule_enabled(r.name())).collect();
        let mut index = vec![Vec::new(); Api::all().len()];
        for &rule in rules.iter().filter(|r| r.gate().is_open(&config)) {
            for &(api, _) in rule.apis() {
                index[api as usize].push(rule);
            }
        }
        let mut hooked = Vec::new();
        let mut seen = HashSet::new();
        for tier in [Tier::Core, Tier::Extra, Tier::Wear] {
            if tier == Tier::Wear && !config.weartear {
                continue;
            }
            for rule in &rules {
                for &(api, t) in rule.apis() {
                    if t == tier && seen.insert(api) {
                        hooked.push(api);
                    }
                }
            }
        }
        RuleSet { config: Arc::new(config), rules, index, hooked }
    }

    /// The configuration this set was built from.
    pub fn config(&self) -> &Arc<Config> {
        &self.config
    }

    /// The registered rules, gated-off ones included, in dispatch order.
    pub fn rules(&self) -> &[&'static dyn DeceptionRule] {
        &self.rules
    }

    /// The live rules declaring `api`, in dispatch order.
    pub fn rules_for(&self, api: Api) -> impl Iterator<Item = &'static dyn DeceptionRule> + '_ {
        self.index.get(api as usize).into_iter().flatten().copied()
    }

    /// The derived hooked-API set: every registered rule's core/extra-tier
    /// APIs, plus wear-tier APIs when the extension is on. No duplicates.
    pub fn hooked_apis(&self) -> &[Api] {
        &self.hooked
    }

    /// The one dispatch path: asks each live rule registered for the
    /// call's API, moves the [`Deception`] of the first
    /// non-[`Outcome::Pass`] answer into a [`Decision`] recorded on the
    /// run's machine — in exclusive mode, a platform profile's first
    /// answer also commits the run to it — and falls through to the
    /// original API when every rule declines.
    pub(crate) fn dispatch(&self, state: &EngineState, call: &mut ApiCall<'_>) -> Value {
        let cfg = &*self.config;
        for rule in self.rules_for(call.api) {
            match rule.respond(state, cfg, call) {
                Outcome::Pass => {}
                Outcome::Done(value) => return value,
                Outcome::Deceive(d, value) => {
                    let profile = d.profile;
                    let decision = Decision {
                        api: call.api,
                        category: d.category.name(),
                        resource: d.resource,
                        profile: profile.name(),
                        answer: d.answer,
                        time_ms: call.machine_ref().system().clock.now_ms(),
                    };
                    let m = call.machine();
                    m.record_decision(decision);
                    if cfg.exclusive_profiles && profile.commits() {
                        m.deception_mut().committed_profile.get_or_insert(profile.name());
                    }
                    return value;
                }
            }
        }
        call.call_original()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracer::json::ToJson;

    #[test]
    fn rule_names_are_unique() {
        let mut names = HashSet::new();
        for rule in all_rules() {
            assert!(names.insert(rule.name()), "duplicate rule name {}", rule.name());
        }
    }

    #[test]
    fn per_rule_api_declarations_have_no_duplicates() {
        for rule in all_rules() {
            let mut seen = HashSet::new();
            for &(api, _) in rule.apis() {
                assert!(seen.insert(api), "rule {} declares {api} twice", rule.name());
            }
        }
    }

    #[test]
    fn hooked_set_has_no_duplicates_and_respects_the_wear_gate() {
        let on = RuleSet::build(Config::default());
        let unique: HashSet<_> = on.hooked_apis().iter().collect();
        assert_eq!(unique.len(), on.hooked_apis().len());
        let off = RuleSet::build(Config { weartear: false, ..Config::default() });
        assert!(off.hooked_apis().len() < on.hooked_apis().len());
        assert!(!off.hooked_apis().contains(&Api::EvtNext));
        assert!(off.hooked_apis().contains(&Api::RegOpenKeyEx));
    }

    #[test]
    fn overridden_rules_are_unregistered() {
        let mut cfg = Config::default();
        cfg.rule_overrides.insert("wear-and-tear".to_owned(), false);
        let set = RuleSet::build(cfg);
        assert!(set.rules().iter().all(|r| r.name() != "wear-and-tear"));
        // APIs only the wear-and-tear rule declares drop out of the hook
        // set; shared wear-tier APIs stay (the registry rule still
        // declares NtQueryKey at the wear tier).
        assert!(!set.hooked_apis().contains(&Api::EvtNext));
        assert!(set.hooked_apis().contains(&Api::NtQueryKey));
    }

    #[test]
    fn wear_rule_precedes_registry_on_shared_apis() {
        let set = RuleSet::build(Config::default());
        let order: Vec<&str> = set.rules_for(Api::NtQueryKey).map(|r| r.name()).collect();
        assert_eq!(order, ["wear-and-tear", "registry"]);
    }

    #[test]
    fn a_closed_gate_keeps_the_hooks_but_drops_the_rule_from_dispatch() {
        let cfg = Config { software: false, ..Config::default() };
        let set = RuleSet::build(cfg.clone());
        assert_eq!(set.rules_for(Api::IsDebuggerPresent).count(), 0);
        assert!(set.hooked_apis().contains(&Api::IsDebuggerPresent));
        assert!(set.rules().iter().any(|r| r.name() == "debugger"));
        assert_eq!(set.config().as_ref(), &cfg);
    }

    #[test]
    fn every_gate_names_always_or_a_boolean_config_key() {
        let json = Config::default().to_json();
        for rule in all_rules() {
            let name = rule.gate().name();
            let flag = json.get(name).and_then(|v| v.as_bool());
            assert!(name == "always" || flag.is_some(), "rule {} gate {name}", rule.name());
        }
    }
}
