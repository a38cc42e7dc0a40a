//! Plan-invariant verification of the physical plan: a lowered
//! [`PhysicalPlan`] must implement the logical plan it claims to.
//!
//! The logical plan needs no cross-check: `papar check`, `papar plan`,
//! `papar run` and served jobs all take it from the one binder that also
//! produces the analysis. The debug-mode runtime verifier in
//! `crates/core/src/exec.rs` asserts the plan's metadata against actual
//! records.

use papar_config::xml::Span;
use papar_core::physplan::{self, PhysicalPlan, StageKind};
use papar_core::plan::WorkflowPlan;

use crate::analyze::Analysis;
use crate::diag::{Code, Diagnostic};

/// Compare an analysis's per-job output metadata with a plan: one `P099`
/// per job whose outputs disagree (output names are not compared, the
/// analysis may be symbolic). Both come from the same binder, so this only
/// remains for the benchmark harness, which still calls it.
#[doc(hidden)]
pub fn verify_plan(analysis: &Analysis, plan: &WorkflowPlan) -> Vec<Diagnostic> {
    plan.jobs
        .iter()
        .filter(|job| {
            analysis
                .jobs
                .iter()
                .find(|j| j.id == job.id)
                .is_none_or(|inferred| {
                    inferred.outputs.len() != job.outputs.len()
                        || inferred.outputs.iter().zip(&job.outputs).any(
                            |((_, inferred), (_, planned))| {
                                inferred.as_ref().is_some_and(|m| m != planned)
                            },
                        )
                })
        })
        .map(|job| {
            Diagnostic::error(
                Code::P099,
                "workflow",
                Span::UNKNOWN,
                format!(
                    "job '{}': the analysis and the plan disagree on its outputs",
                    job.id
                ),
            )
        })
        .collect()
}

/// Verify a lowered [`PhysicalPlan`] against the logical plan it claims to
/// implement. Returns one `P099` diagnostic per violated invariant; any
/// hit is a framework bug, not a user error.
///
/// `num_nodes` and `default_reducers` must describe the cluster the plan
/// was lowered for (the group→split gate depends on them).
pub fn verify_physical_plan(
    plan: &WorkflowPlan,
    phys: &PhysicalPlan,
    num_nodes: usize,
    default_reducers: Option<usize>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut violation = |msg: String| {
        out.push(Diagnostic::error(
            Code::P099,
            "workflow",
            Span::UNKNOWN,
            msg,
        ));
    };

    // 1. The stages' logical lists partition 0..jobs.len(), in order.
    let covered: Vec<usize> = phys
        .stages
        .iter()
        .flat_map(|s| s.logical.iter().copied())
        .collect();
    if covered != (0..plan.jobs.len()).collect::<Vec<_>>() {
        violation(format!(
            "physical stages cover logical jobs {covered:?}, expected every job \
             0..{} exactly once in order",
            plan.jobs.len()
        ));
    }

    for stage in &phys.stages {
        // 2. The stage kind agrees with the logical list, and fused kinds
        //    satisfy their byte-identity gates.
        match stage.kind {
            StageKind::Single(j) => {
                if stage.logical != vec![j] {
                    violation(format!(
                        "stage '{}' is Single({j}) but covers {:?}",
                        stage.id, stage.logical
                    ));
                }
                if !stage.elided.is_empty() {
                    violation(format!(
                        "stage '{}' is unfused but claims to stream {:?}",
                        stage.id, stage.elided
                    ));
                }
            }
            StageKind::FusedSortDistribute { sort, distribute } => {
                if stage.logical != vec![sort, distribute] || distribute != sort + 1 {
                    violation(format!(
                        "stage '{}' fuses jobs {sort} and {distribute} but covers {:?}",
                        stage.id, stage.logical
                    ));
                } else if !physplan::sort_distribute_fusible(plan, sort) {
                    violation(format!(
                        "stage '{}' fuses sort job {sort} with distribute job \
                         {distribute}, but the pair fails the sort→distribute gate",
                        stage.id
                    ));
                }
            }
            StageKind::FusedGroupSplit { group, split } => {
                if stage.logical != vec![group, split] || split != group + 1 {
                    violation(format!(
                        "stage '{}' fuses jobs {group} and {split} but covers {:?}",
                        stage.id, stage.logical
                    ));
                } else if !physplan::group_split_fusible(plan, group, num_nodes, default_reducers) {
                    violation(format!(
                        "stage '{}' fuses group job {group} with split job {split}, \
                         but the pair fails the group→split gate",
                        stage.id
                    ));
                }
            }
        }
        if !phys.fused && stage.logical.len() > 1 {
            violation(format!(
                "plan was lowered with --no-fuse but stage '{}' fuses {:?}",
                stage.id, stage.logical
            ));
        }
        // 3. Streaming a dataset is only safe when exactly one consumer
        //    exists and it is not the workflow's declared output.
        for name in &stage.elided {
            let consumers = physplan::consumer_count(plan, name);
            if consumers != 1 {
                violation(format!(
                    "stage '{}' streams '{name}', which has {consumers} consumer(s) \
                     (streaming requires exactly one)",
                    stage.id
                ));
            }
            if plan.output_path == *name {
                violation(format!(
                    "stage '{}' streams '{name}', the workflow output",
                    stage.id
                ));
            }
        }
    }

    // 4. Lowering is deterministic: re-lowering under the same cluster
    //    shape must reproduce the plan being verified.
    let relowered = physplan::lower(plan, num_nodes, default_reducers, phys.fused);
    if relowered != *phys {
        violation(format!(
            "physical plan diverges from lowering: got {} stage(s), re-lowering \
             produces {}",
            phys.stages.len(),
            relowered.stages.len()
        ));
    }
    out
}
