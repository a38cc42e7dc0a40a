//! The static analysis passes.
//!
//! [`analyze`] checks what the binder does not see — the InputData
//! documents, duplicate declarations, the cluster shape — then binds the
//! workflow through the planner's one recovering binder
//! ([`papar_core::plan::Planner::binding`]) and takes its diagnostics,
//! its per-job inference and the plan when there is one. Last, it lints
//! the binder's dataflow graph: warnings (`W0xx`) for plans that run but
//! are probably not what the author meant — dead outputs, idle cluster
//! nodes, non-strict stride permutations, tie-dependent layouts, unused
//! arguments, fusible intermediates.
//!
//! Binding needs no launch-time values: an argument without one resolves
//! to its literal `$name`, so the analysis runs symbolically and reports
//! only what holds for every launch. A launch additionally refuses the
//! arguments left without a value ([`Analysis::into_plan`]).

use papar_config::input::InputConfig;
use papar_config::workflow::WorkflowConfig;
use papar_config::xml::Span;
use papar_config::ConfigError;
use papar_core::plan::{Binding, Format, Planner, WorkflowPlan};
use papar_core::policy::DistrPolicy;
use std::collections::{HashMap, HashSet};

pub use papar_core::plan::InferredJob;

use crate::diag::{Code, Diagnostic, Severity};

/// Launch-time facts the analyzer may use when available.
///
/// Everything is optional: with no context at all the analysis is fully
/// symbolic and only reports problems that hold for *every* launch.
#[derive(Debug, Clone, Default)]
pub struct CheckContext {
    /// Launch-time argument values (may be a subset of the declared ones).
    pub args: HashMap<String, String>,
    /// Number of cluster nodes, for partition-count and replication checks.
    pub nodes: Option<usize>,
    /// Replication factor the cluster will be asked for.
    pub replication: Option<usize>,
    /// Input record count, for strict `L_m^{km}` divisibility (`m | km`).
    pub records: Option<usize>,
    /// Names of registered user-defined operators beyond the built-ins.
    pub extra_operators: HashSet<String>,
}

/// The result of an analysis run.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// Everything found, in discovery order (document order per pass).
    pub diagnostics: Vec<Diagnostic>,
    /// Per-job inferred output metadata, in launch order.
    pub jobs: Vec<InferredJob>,
    /// The bound plan, when the binder found no error and every argument
    /// had a value.
    pub plan: Option<WorkflowPlan>,
    /// What a launch refuses beyond the diagnostics (see
    /// [`Binding::launch_errors`]).
    pub launch_errors: Vec<Diagnostic>,
}

impl Analysis {
    /// True when any diagnostic is error-severity.
    pub fn has_errors(&self) -> bool {
        crate::diag::has_errors(&self.diagnostics)
    }

    /// Only the error-severity diagnostics.
    pub fn errors(&self) -> Vec<&Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect()
    }

    /// What a launch runs: the bound plan with the warnings that ride
    /// along, or the diagnostics that refuse it — every error, else the
    /// launch errors (an argument left without a value, an operator known
    /// only by name).
    pub fn into_plan(self) -> Result<(WorkflowPlan, Vec<Diagnostic>), Vec<Diagnostic>> {
        if self.has_errors() {
            return Err(self.errors().into_iter().cloned().collect());
        }
        if !self.launch_errors.is_empty() {
            return Err(self.launch_errors);
        }
        match self.plan {
            Some(plan) => Ok((plan, self.diagnostics)),
            None => Err(Vec::new()),
        }
    }
}

/// Parse both documents and analyze. Parse failures become `P000`
/// diagnostics: the workflow is labelled `workflow`, each input by the label
/// supplied next to its XML text (its file name, typically).
pub fn check_sources(workflow_xml: &str, inputs: &[(&str, &str)], ctx: &CheckContext) -> Analysis {
    let mut diags = Vec::new();
    let mut parsed = Vec::new();
    for (label, xml) in inputs {
        match InputConfig::parse_str_unchecked(xml) {
            Ok(cfg) => parsed.push(cfg),
            Err(e) => diags.push(parse_diag(label, &e)),
        }
    }
    match WorkflowConfig::parse_str_unchecked(workflow_xml) {
        Ok(wf) => {
            let mut analysis = analyze(&wf, &parsed, ctx);
            diags.append(&mut analysis.diagnostics);
            analysis.diagnostics = diags;
            analysis
        }
        Err(e) => {
            diags.push(parse_diag("workflow", &e));
            Analysis {
                diagnostics: diags,
                ..Analysis::default()
            }
        }
    }
}

fn parse_diag(doc: &str, e: &ConfigError) -> Diagnostic {
    Diagnostic::error(
        Code::P000,
        doc,
        e.span().unwrap_or(Span::UNKNOWN),
        e.to_string(),
    )
}

/// Analyze parsed configurations.
pub fn analyze(wf: &WorkflowConfig, inputs: &[InputConfig], ctx: &CheckContext) -> Analysis {
    let mut diags = Vec::new();
    check_inputs(inputs, &mut diags);
    check_declarations(wf, &mut diags);
    if let (Some(replication), Some(nodes)) = (ctx.replication, ctx.nodes) {
        if replication > nodes {
            diags.push(Diagnostic::error(
                Code::P018,
                "workflow",
                wf.span,
                format!(
                    "replication factor {replication} cannot be satisfied by a \
                     {nodes}-node cluster"
                ),
            ));
        }
    }
    let binding =
        Planner::new(wf.clone(), inputs.to_vec()).binding(&ctx.args, &ctx.extra_operators);
    diags.extend(binding.diagnostics.iter().cloned());
    lint(wf, ctx, &binding, &mut diags);
    Analysis {
        diagnostics: diags,
        jobs: binding.jobs,
        plan: binding.plan,
        launch_errors: binding.launch_errors,
    }
}

// ---- pass 0: input configurations ------------------------------------

fn check_inputs(inputs: &[InputConfig], out: &mut Vec<Diagnostic>) {
    let mut ids = HashSet::new();
    for cfg in inputs {
        if !ids.insert(cfg.id.as_str()) {
            out.push(Diagnostic::error(
                Code::P015,
                cfg.id.clone(),
                cfg.span,
                format!("duplicate InputData configuration id '{}'", cfg.id),
            ));
        }
        if let Err(e) = cfg.validate() {
            out.push(Diagnostic::error(
                Code::P019,
                cfg.id.clone(),
                e.span().unwrap_or(cfg.span),
                e.to_string(),
            ));
        }
    }
}

// ---- pass 1: declarations --------------------------------------------

fn check_declarations(wf: &WorkflowConfig, out: &mut Vec<Diagnostic>) {
    let mut seen = HashSet::new();
    for a in &wf.arguments {
        if !seen.insert(a.name.as_str()) {
            out.push(Diagnostic::error(
                Code::P015,
                "workflow",
                a.span,
                format!("duplicate argument '{}'", a.name),
            ));
        }
    }
    let mut ids = HashSet::new();
    for o in &wf.operators {
        if !ids.insert(o.id.as_str()) {
            out.push(Diagnostic::error(
                Code::P004,
                "workflow",
                o.id_span,
                format!("duplicate operator id '{}'", o.id),
            ));
        }
    }
}

// ---- whole-workflow lints over the binder's dataflow graph -----------

/// The `W0xx` lints, in document order per lint.
fn lint(wf: &WorkflowConfig, ctx: &CheckContext, b: &Binding, out: &mut Vec<Diagnostic>) {
    let mut warn = |code, span, message: String| {
        out.push(Diagnostic::warning(code, "workflow", span, message));
    };
    let is_op = |i: usize, names: [&str; 2]| {
        wf.operators
            .get(i)
            .is_some_and(|o| names.contains(&o.operator.as_str()))
    };
    let index_routed =
        |job: &InferredJob| matches!(job.policy, Some(DistrPolicy::Cyclic | DistrPolicy::Block));

    // W002/W003 (cluster-shape legality) and W004 (determinism: an
    // index-routed distribute over a sort output makes the final layout
    // depend on how the sort broke ties), on every distribute.
    for (i, (op, job)) in wf.operators.iter().zip(&b.jobs).enumerate() {
        let parts_span = op
            .param_fuzzy("numPartitions")
            .map_or(op.span, |p| p.value_span);
        if let (Some(parts), Some(nodes)) = (job.num_partitions, ctx.nodes) {
            if parts < nodes {
                warn(
                    Code::W002,
                    parts_span,
                    format!(
                        "{parts} partitions on a {nodes}-node cluster leaves \
                         {} nodes without data",
                        nodes - parts
                    ),
                );
            }
        }
        if let (Some(parts), Some(records)) = (job.num_partitions, ctx.records) {
            if job.policy == Some(DistrPolicy::Cyclic) && records % parts != 0 {
                warn(
                    Code::W003,
                    parts_span,
                    format!(
                        "{records} records are not divisible by {parts} partitions: the \
                         strict stride permutation L_{parts}^{records} requires \
                         {parts} | {records}; the generalized form will be used"
                    ),
                );
            }
        }
        let fed_by_sort = b.datasets.iter().any(|d| {
            d.consumers.contains(&i) && d.producer.is_some_and(|p| is_op(p, ["Sort", "sort"]))
        });
        if index_routed(job) && fed_by_sort {
            warn(
                Code::W004,
                op.span,
                format!(
                    "operator '{}' routes a sort output by index: records with \
                     equal sort keys make the partition layout depend on \
                     tie-breaking, so the output is only byte-reproducible \
                     while the sort stays stable",
                    op.id
                ),
            );
        }
    }

    // W001: a job output nobody reads that is not the workflow output.
    let last = wf.operators.len().wrapping_sub(1);
    for d in &b.datasets {
        if let Some(p) = d.producer.filter(|&p| p != last && d.consumers.is_empty()) {
            let message = format!(
                "output '{}' of job '{}' is never consumed",
                d.name, wf.operators[p].id
            );
            warn(Code::W001, d.span, message);
        }
    }

    // W006: an intermediate with exactly one consumer — the job right
    // after its producer — where the pair matches a fusion rewrite
    // (Sort→Distribute routed by index, or Group→Split). The physical
    // planner streams such datasets instead of writing them; this is the
    // same single-consumption analysis `lower()` gates on, run on the
    // symbolic side. The sort rewrite needs a flat sort output and an
    // index-routed policy; stay silent when either is unknowable.
    for d in &b.datasets {
        let Some(p) = d.producer.filter(|&p| d.consumers == [p + 1]) else {
            continue;
        };
        let (Some(consumer), Some(consumer_job)) = (wf.operators.get(p + 1), b.jobs.get(p + 1))
        else {
            continue;
        };
        let fusible = (is_op(p, ["Sort", "sort"])
            && is_op(p + 1, ["Distribute", "distribute"])
            && d.meta.as_ref().is_some_and(|m| m.format == Format::Flat)
            && index_routed(consumer_job))
            || (is_op(p, ["Group", "group"]) && is_op(p + 1, ["Split", "split"]));
        if fusible {
            warn(
                Code::W006,
                d.span,
                format!(
                    "intermediate '{}' is consumed only by the next job \
                     '{}': job fusion streams it instead of writing it \
                     (--no-fuse keeps it materialized)",
                    d.name, consumer.id
                ),
            );
        }
    }

    // W005: a declared argument no `$` reference names.
    for a in &wf.arguments {
        if !b.used_args.contains(&a.name) {
            warn(
                Code::W005,
                a.span,
                format!("argument '{}' is never referenced", a.name),
            );
        }
    }
}
