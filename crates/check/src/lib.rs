//! # papar-check — static analysis for PaPar workflows
//!
//! PaPar workflows are *declared* (InputData + Workflow XML) and then
//! formalized into key-value operators and stride-permutation matrices,
//! which makes most user mistakes statically decidable before a single
//! record is read. This crate decides them:
//!
//! * **Dataflow** over `$variable` references: unbound arguments, unknown
//!   jobs, use-before-definition (the cycle check — jobs launch in document
//!   order), duplicate ids and dataset names, dead outputs.
//! * **Schema/type inference** threaded through every operator: sort/group/
//!   split keys must exist with usable types, split thresholds must match
//!   the key field, add-on result types must compose, format operators must
//!   be applicable.
//! * **Distribution legality**: stride-permutation `L_m^{km}` divisibility,
//!   partition counts vs. cluster size, replication vs. node count.
//! * **Determinism lint**: index-routed distributes over sort outputs are
//!   only byte-reproducible while the sort breaks ties stably.
//!
//! Everything is reported as a [`Diagnostic`]: a stable `P0xx`/`W0xx` code,
//! a severity, a message, and a 1-based line/column span into the XML
//! source. The dataflow and schema findings come from the planner's own
//! binder (`papar_core::plan`), which recovers past every problem; this
//! crate adds the input-document, declaration and cluster checks, the
//! lints, the bounds analysis, the physical-plan verifier and the
//! renderers. [`json::to_json`] serializes the list for tooling; the
//! `papar check` CLI subcommand is the human entry point, and `papar
//! run`, `papar plan` and served jobs take their plan from the same
//! [`analyze`] pass, refusing while any error-severity diagnostic stands.

pub mod analyze;
pub mod bounds;
pub mod diag;
pub mod json;
pub mod verify;

pub use analyze::{analyze, check_sources, Analysis, CheckContext, InferredJob};
pub use bounds::{analyze_bounds, BoundsConfig, BoundsReport};
pub use diag::{has_errors, render_text, Code, Diagnostic, Severity};
pub use verify::{verify_physical_plan, verify_plan};
