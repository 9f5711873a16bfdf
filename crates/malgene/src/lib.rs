//! MalGene-style evasion-signature extraction for the Scarecrow
//! reproduction.
//!
//! Kirat & Vigna's MalGene (CCS 2015) compares execution traces of the
//! same sample from two environments — one it evades, one where it
//! detonates — and automatically extracts the *evasion signature*: the
//! first system resource whose answer made the sample change course. The
//! Scarecrow paper uses MalGene twice: its 1,054-sample corpus was
//! confirmed evasive this way, and Section II-C proposes MalGene output as
//! the feed for "continuously learn\[ing\] new deceptive resources".
//!
//! This crate implements the pipeline over [`tracer`] traces:
//!
//! * [`align`](crate::align::align) — normalized sequence alignment of two
//!   traces (exact LCS with a windowed greedy fallback);
//! * [`Alignment::deviation`](crate::align::Alignment::deviation) — the
//!   behaviour-deviation point;
//! * [`extract_signature`] — the deciding environment probe before the
//!   deviation, as an [`EvasionSignature`];
//! * [`extract_batch`] — deduplicated batch extraction.
//!
//! The `scarecrow` crate consumes signatures via
//! `ResourceDb::learn` to close the loop.
//!
//! # Example
//!
//! ```
//! use malgene::{extract_signature, SignatureKind};
//! use tracer::{Event, EventKind, RegOp, Trace};
//!
//! let mut evading = Trace::new("m.exe");
//! evading.record(Event::at(0, 1, EventKind::Registry {
//!     op: RegOp::OpenKey, path: r"HKLM\SOFTWARE\BrandNewSandbox".into(),
//! }));
//! let mut detonating = Trace::new("m.exe");
//! detonating.record(Event::at(0, 1, EventKind::Registry {
//!     op: RegOp::OpenKey, path: r"HKLM\SOFTWARE\BrandNewSandbox".into(),
//! }));
//! detonating.record(Event::at(1, 1, EventKind::FileWrite {
//!     path: r"C:\payload".into(), bytes: 64,
//! }));
//!
//! let sig = extract_signature(&evading, &detonating).unwrap();
//! assert_eq!(sig.kind, SignatureKind::RegistryKey(r"HKLM\SOFTWARE\BrandNewSandbox".into()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod align;
mod signature;

pub use align::{align, key, Alignment, EventKey};
pub use signature::{extract_batch, extract_signature, EvasionSignature, SignatureKind};
