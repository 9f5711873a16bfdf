//! **Scarecrow** — a deception engine that deactivates evasive malware via
//! its own evasive logic (reproduction of Zhang et al., DSN 2020).
//!
//! Evasive malware probes its execution environment for analysis artifacts
//! — VM driver files, sandbox processes, debugger windows, hooked APIs,
//! tiny disks, sinkholed DNS — and aborts its payload when any probe hits.
//! Scarecrow inverts this: deployed on an *end-user* machine, it makes the
//! machine look analysis-like to exactly those probes, so the malware's own
//! evasive logic `¬(p₁ ∨ p₂ ∨ … ∨ pᵢ)` deactivates it. Only **one**
//! predicate needs to fire (Section V, Case I).
//!
//! # Architecture (paper Figure 2)
//!
//! * [`Scarecrow`] — the controller (`scarecrow.exe`): starts targets as
//!   its own children, injects the engine, and reads each run's triggers
//!   — the [`winsim::Decision`]s the DLL reported, Section III-B's IPC
//!   message — and alarms off the machine that ran it;
//! * [`engine::DeceptionHook`] — the injected `scarecrow.dll`: one
//!   dispatcher over the 29 core hooked APIs (plus the 7 wear-and-tear
//!   APIs of Table III), delegating per-API behavior to the declarative
//!   [`rules`] registry;
//! * [`ResourceDb`] — the deceptive resource database: curated core plus a
//!   public-sandbox crawl ([`crawler`], Section II-C);
//! * [`Profile`] — per-platform profiles; [`Profile::active`] is the
//!   conflict-avoiding exclusive mode of Section VI-B, a pure function of
//!   the configuration and the run's committed profile.
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//! use scarecrow::{Config, Scarecrow};
//! use winsim::{Machine, Program, ProcessCtx, System};
//!
//! struct Ransom;
//! impl Program for Ransom {
//!     fn image_name(&self) -> &str { "ransom.exe" }
//!     fn run(&self, ctx: &mut ProcessCtx<'_>) {
//!         // WannaCry-style kill switch: exits if the NX domain answers
//!         if ctx.http_get("iuqerfsodp9ifjaposdfjhgosurijfaewrwergwea.test").is_some() {
//!             ctx.exit_process(0);
//!         } else {
//!             ctx.write_file(r"C:\Users\user\Documents\budget.xlsx.WCRY", 4096);
//!         }
//!     }
//! }
//!
//! let engine = Scarecrow::with_builtin_db(Config::default());
//! let mut machine = Machine::new(System::new());
//! machine.register_program(Arc::new(Ransom));
//! let run = engine.run_protected(&mut machine, "ransom.exe")?;
//! assert!(!machine.system().fs.exists(r"C:\Users\user\Documents\budget.xlsx.WCRY"));
//! assert!(!run.triggers.is_empty());
//! # Ok::<(), winsim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod controller;
pub mod crawler;
pub mod engine;
mod learning;
mod profiles;
mod resources;
pub mod rules;
mod summary;

pub use config::{Config, ConfigError, WearTearFakes};
pub use controller::{ProtectedRun, Scarecrow, ScarecrowBuilder, CONTROLLER_IMAGE, DLL_NAME};
pub use learning::{LearnOutcome, LEARNED_VALUE_DATA};
pub use profiles::Profile;
pub use resources::{Category, Entry, ResourceDb, ResourceStats};
pub use summary::TriggerSummary;
