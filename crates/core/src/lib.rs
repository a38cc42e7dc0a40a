//! The PaPar framework core: operators, distribution policies, the workflow
//! planner ("code generation") and the executor.
//!
//! This crate is the paper's primary contribution (Sections III-B through
//! III-D). The pieces map one-to-one onto the paper:
//!
//! * [`operator`] — the operator taxonomy of Table I: **basic** operators
//!   (`Sort`, `Group`, `Split`, `Distribute`) that reorder data, **add-on**
//!   operators (`count`, `max`, `min`, `mean`, `sum`) that add attributes,
//!   and **format** operators (`orig`, `pack`, `unpack`). Users can register
//!   custom operators through [`operator::OperatorRegistry`].
//! * [`policy`] — distribution policies formalized as stride-permutation
//!   matrices `L_m^{km}` and split predicates (`{>=, t},{<, t}`).
//! * [`plan`] — the planner parses the two configuration files, resolves
//!   `$variable` references, type-checks operator keys against the evolving
//!   schema, and emits an executable [`plan::WorkflowPlan`] — the paper's
//!   "code generation" step. It is the one binder: it recovers past every
//!   problem and reports each as a coded, spanned [`diag::Diagnostic`], so
//!   `papar check`, `papar plan`, `papar run` and served jobs all refuse
//!   the same workflows with the same diagnostics. Distribution policies stay symbolic in the
//!   plan and become concrete permutations only at run time, exactly the
//!   decoupling the paper highlights.
//! * [`physplan`] — the logical plan is lowered to a [`physplan::PhysicalPlan`]
//!   before execution: adjacent jobs whose distribution steps compose
//!   (the paper's `L_m^{km}` stride-permutation composition) are fused
//!   into single MapReduce jobs and the datasets between them are
//!   streamed instead of materialized, with byte-identical output.
//! * [`exec`] — [`exec::WorkflowRunner`] lowers the plan and launches its
//!   physical stages one by one on a [`papar_mr::Cluster`], wiring
//!   samplers, add-ons, format conversions and the distribution matrices.

pub mod bounds;
pub mod diag;
pub mod error;
pub mod exec;
pub mod operator;
pub mod physplan;
pub mod plan;
pub mod policy;
mod stage;

pub use bounds::{
    BoundsOptions, DatasetBounds, Interval, SourceBounds, StageBounds, WorkflowBounds,
};
pub use error::{CoreError, Result};
pub use exec::{ExecOptions, WorkflowReport, WorkflowRunner};
pub use physplan::{lower, PhysicalPlan, PhysicalStage, StageKind};
pub use plan::{Planner, WorkflowPlan};
pub use policy::{DistrPolicy, SplitPolicy, StridePermutation};
