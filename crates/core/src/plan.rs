//! The workflow planner — the paper's "code generation" step (Section
//! III-D), and the one binder every front end shares.
//!
//! [`Planner::binding`] takes a parsed [`WorkflowConfig`], the InputData
//! configurations it references, and the launch-time argument values, and
//! binds every operator in document order: every `$` reference resolved,
//! every key bound to a field index of the dataset schema at that point of
//! the pipeline, and every dataset's representation ([`Format::Flat`] vs
//! [`Format::Packed`]) tracked through the format operators.
//!
//! Binding never stops at the first problem. Each one becomes a coded
//! [`Diagnostic`] with the span of the XML that caused it, and binding
//! carries on with what it still knows. An argument with no value
//! resolves to its literal `$name`: every occurrence resolves to the same
//! literal, so dataset names still connect jobs and schemas still thread
//! through the pipeline, while checks that need a concrete value are
//! skipped. That is how `papar check` analyzes a workflow before launch.
//! The [`Binding`] carries the executable [`WorkflowPlan`] — one
//! [`JobPlan`] per operator — exactly when no error stands and every
//! argument is concrete; [`Planner::bind`] returns that plan or the first
//! problem as a [`CoreError`].
//!
//! Distribution policies remain *symbolic* in the plan ([`DistrPolicy`],
//! not a permutation): the permutation matrix is generated at run time from
//! `policy` and `numPartitions`, which is exactly the decoupling the paper
//! stresses ("at the time of code generation, it is not necessary to bind a
//! distribution policy").

use papar_config::input::{FieldType, InputConfig};
use papar_config::varref::{self, VarRef};
use papar_config::workflow::{AddOnDef, OperatorDef, WorkflowConfig};
use papar_config::xml::Span;
use papar_record::{Schema, Value};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::diag::{Code, Diagnostic};
use crate::error::{CoreError, Result};
use crate::operator::{AddOnKind, BoundAddOn, CustomOperator, FormatOp, OperatorRegistry};
use crate::policy::{DistrPolicy, SplitPolicy};

/// The representation of a dataset at some point of the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Flat records (the `orig` representation).
    Flat,
    /// Packed `(key, group)` entries.
    Packed,
}

/// Schema + representation of a dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetMeta {
    /// Field layout of (member) records.
    pub schema: Arc<Schema>,
    /// Flat or packed.
    pub format: Format,
    /// For packed datasets, the member field index holding the group key —
    /// what the wire compressor factors out (paper Section III-D).
    pub packed_key: Option<usize>,
}

/// What a planned job does.
#[derive(Debug, Clone)]
pub enum JobKind {
    /// Sort entries by a key field.
    Sort {
        /// Key field index in the input schema.
        key_idx: usize,
        /// Descending order when true.
        descending: bool,
        /// Add-ons applied per key-group in the reduce stage.
        addons: Vec<BoundAddOn>,
        /// Format operator applied to the output.
        output_format: FormatOp,
    },
    /// Group entries by a key field.
    Group {
        /// Key field index in the input schema.
        key_idx: usize,
        /// Add-ons applied per key-group.
        addons: Vec<BoundAddOn>,
        /// Format operator applied to the output (`pack` in the hybrid-cut).
        output_format: FormatOp,
    },
    /// Route entries to one of several outputs by a predicate list.
    Split {
        /// Key field index (in member records for packed inputs).
        key_idx: usize,
        /// The predicate list, one condition per output.
        policy: SplitPolicy,
    },
    /// Distribute entries to `numPartitions` output partitions.
    Distribute {
        /// The (still symbolic) distribution policy.
        policy: DistrPolicy,
        /// Number of output partitions.
        num_partitions: usize,
        /// When this is the workflow's final job, records are projected
        /// onto the declared output schema (dropping add-on attributes) so
        /// "the output has the same format of input".
        final_schema: Option<Arc<Schema>>,
    },
    /// A registered user-defined operator.
    Custom {
        /// Registry id.
        op_name: String,
        /// Resolved parameters.
        params: HashMap<String, String>,
    },
}

/// One planned job.
#[derive(Debug, Clone)]
pub struct JobPlan {
    /// Operator id from the workflow file.
    pub id: String,
    /// Input dataset names in deterministic order.
    pub inputs: Vec<String>,
    /// Output datasets: `(name, meta)`. Basic operators have one; split has
    /// one per condition.
    pub outputs: Vec<(String, DatasetMeta)>,
    /// Reducer-count override from the configuration.
    pub num_reducers: Option<usize>,
    /// Metadata of the (first) input dataset.
    pub input_meta: DatasetMeta,
    /// Metadata of every input dataset, parallel to `inputs`.
    pub input_metas: Vec<DatasetMeta>,
    /// What to do.
    pub kind: JobKind,
}

impl JobPlan {
    /// The primary output name.
    pub fn output(&self) -> &str {
        &self.outputs[0].0
    }
}

/// An executable workflow: jobs in launch order plus the resolved
/// environment. `Clone` so a resident daemon can cache a bound plan and
/// hand each request its own copy (the operator registry is shared via
/// its `Arc`).
#[derive(Clone)]
pub struct WorkflowPlan {
    /// Workflow id.
    pub id: String,
    /// Jobs in launch order.
    pub jobs: Vec<JobPlan>,
    /// Dataset names the workflow consumes but does not produce, with their
    /// metadata — the external inputs callers must scatter before running.
    pub external_inputs: Vec<(String, DatasetMeta)>,
    /// The final job's primary output name.
    pub output_path: String,
    /// Resolved argument values.
    pub args: HashMap<String, String>,
    /// Operator registry for custom jobs.
    pub registry: Arc<OperatorRegistry>,
}

impl std::fmt::Debug for WorkflowPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkflowPlan")
            .field("id", &self.id)
            .field("jobs", &self.jobs)
            .field("external_inputs", &self.external_inputs)
            .field("output_path", &self.output_path)
            .finish_non_exhaustive()
    }
}

/// What binding learned about one operator, whether or not it bound.
#[derive(Debug, Clone)]
pub struct InferredJob {
    /// Operator id.
    pub id: String,
    /// `(dataset name, inferred meta)` per output; the name may still be
    /// symbolic (`$output_path`), the meta is `None` where inference failed.
    pub outputs: Vec<(String, Option<DatasetMeta>)>,
    /// A distribute's policy, when it is concrete and parses.
    pub policy: Option<DistrPolicy>,
    /// A distribute's partition count, when it is concrete and positive.
    pub num_partitions: Option<usize>,
}

/// One dataset of the bound workflow's dataflow graph.
#[derive(Debug, Clone)]
pub struct DatasetNode {
    /// Dataset name (symbolic while its path argument has no value).
    pub name: String,
    /// Inferred metadata; `None` where inference failed.
    pub meta: Option<DatasetMeta>,
    /// Index of the producing operator; `None` for external inputs.
    pub producer: Option<usize>,
    /// Where the producer declares it.
    pub span: Span,
    /// Indices of the operators that read it, in document order.
    pub consumers: Vec<usize>,
}

/// The result of binding a workflow: every problem found, what was
/// inferred about each operator and dataset, and the plan when there is
/// one.
#[derive(Debug, Clone)]
pub struct Binding {
    /// Every problem found, in document order.
    pub diagnostics: Vec<Diagnostic>,
    /// Errors only a launch raises, which symbolic binding runs past: one
    /// `P001` per argument with no value, one `P013` per operator known
    /// only by name.
    pub launch_errors: Vec<Diagnostic>,
    /// Per-operator inference, in document order.
    pub jobs: Vec<InferredJob>,
    /// Every dataset the workflow names, in creation order.
    pub datasets: Vec<DatasetNode>,
    /// Declared arguments some `$` reference names.
    pub used_args: HashSet<String>,
    /// The executable plan: `Some` exactly when no error stands and no
    /// launch error applies.
    pub plan: Option<WorkflowPlan>,
    first_error: Option<CoreError>,
}

impl Binding {
    /// The plan, or why there is none: the first error (`$`-reference
    /// problems as [`CoreError::Config`], the rest as [`CoreError::Plan`]),
    /// else the first launch error.
    pub fn into_plan(self) -> Result<WorkflowPlan> {
        if let Some(e) = self.first_error {
            return Err(e);
        }
        if let Some(d) = self.launch_errors.into_iter().next() {
            return Err(CoreError::Plan(d.message));
        }
        self.plan
            .ok_or_else(|| CoreError::plan("the workflow did not bind"))
    }
}

/// Builds [`WorkflowPlan`]s from configuration documents.
pub struct Planner {
    workflow: WorkflowConfig,
    input_configs: Vec<InputConfig>,
    registry: Arc<OperatorRegistry>,
}

impl Planner {
    /// A planner for `workflow` knowing the given InputData configurations,
    /// with only built-in operators.
    pub fn new(workflow: WorkflowConfig, input_configs: Vec<InputConfig>) -> Self {
        Self::with_registry(workflow, input_configs, Arc::new(OperatorRegistry::new()))
    }

    /// A planner with a custom operator registry.
    pub fn with_registry(
        workflow: WorkflowConfig,
        input_configs: Vec<InputConfig>,
        registry: Arc<OperatorRegistry>,
    ) -> Self {
        Planner {
            workflow,
            input_configs,
            registry,
        }
    }

    /// Parse both configuration documents and build a planner.
    pub fn from_xml(workflow_xml: &str, input_xmls: &[&str]) -> Result<Self> {
        let workflow = WorkflowConfig::parse_str(workflow_xml)?;
        let inputs = input_xmls
            .iter()
            .map(|x| InputConfig::parse_str(x))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        Ok(Self::new(workflow, inputs))
    }

    /// The parsed workflow (for introspection).
    pub fn workflow(&self) -> &WorkflowConfig {
        &self.workflow
    }

    /// Resolve everything against launch-time argument values and emit the
    /// plan, or the first problem binding found.
    pub fn bind(&self, arg_values: &HashMap<String, String>) -> Result<WorkflowPlan> {
        self.binding(arg_values, &HashSet::new()).into_plan()
    }

    /// Bind every operator in document order, recovering past every
    /// problem. Launch values beat declared defaults. `named_operators`
    /// are operator names known to exist whose implementation this
    /// planner's registry does not hold: they are not `P013` errors, but
    /// they keep the workflow from planning.
    pub fn binding(
        &self,
        arg_values: &HashMap<String, String>,
        named_operators: &HashSet<String>,
    ) -> Binding {
        let mut b = Binder {
            planner: self,
            input_configs: self
                .input_configs
                .iter()
                .map(|c| (c.id.as_str(), c))
                .collect(),
            named_operators,
            diagnostics: Vec::new(),
            seen: HashSet::new(),
            first_error: None,
            launch_errors: Vec::new(),
            args: HashMap::new(),
            used_args: HashSet::new(),
            path_formats: HashMap::new(),
            resolved_params: HashMap::new(),
            job_attrs: HashMap::new(),
            defined_jobs: HashSet::new(),
            current_op: 0,
            datasets: Vec::new(),
            external_inputs: Vec::new(),
            jobs: Vec::new(),
            plans: Vec::new(),
        };
        let wf = &self.workflow;
        if wf.operators.is_empty() {
            b.error(Code::P000, wf.span, "workflow declares no operators");
        }
        b.bind_arguments(arg_values);
        for (i, op) in wf.operators.iter().enumerate() {
            b.bind_operator(i, op, i + 1 == wf.operators.len());
            b.defined_jobs.insert(op.id.clone());
        }
        b.finish()
    }
}

/// A resolved parameter value, tracking whether symbolic placeholders are
/// still inside it.
#[derive(Debug, Clone)]
struct Resolved {
    text: String,
    concrete: bool,
}

/// What binding one operator produced: its outputs (name, meta, declaring
/// span), the distribute facts the lints read, and — when every part of it
/// bound — its input datasets and job kind.
#[derive(Default)]
struct Bound {
    outputs: Vec<(String, Option<DatasetMeta>, Span)>,
    policy: Option<DistrPolicy>,
    num_partitions: Option<usize>,
    job: Option<(Vec<String>, JobKind)>,
}

/// Per-bind working state.
struct Binder<'p> {
    planner: &'p Planner,
    input_configs: HashMap<&'p str, &'p InputConfig>,
    named_operators: &'p HashSet<String>,
    diagnostics: Vec<Diagnostic>,
    seen: HashSet<(Code, usize, usize, String)>,
    first_error: Option<CoreError>,
    launch_errors: Vec<Diagnostic>,
    /// Declared-argument resolutions (symbolic when no value is known).
    args: HashMap<String, Resolved>,
    used_args: HashSet<String>,
    /// `path text -> InputData id` from hdfs-typed arguments.
    path_formats: HashMap<String, String>,
    /// `(job id, param name) -> resolution`, recorded in document order.
    resolved_params: HashMap<(String, String), Resolved>,
    /// `job id -> attribute names` its add-ons append, for `$job.$attr`.
    job_attrs: HashMap<String, Vec<String>>,
    /// Jobs already bound (for use-before-definition).
    defined_jobs: HashSet<String>,
    /// Index of the operator being bound.
    current_op: usize,
    datasets: Vec<DatasetNode>,
    external_inputs: Vec<(String, DatasetMeta)>,
    jobs: Vec<InferredJob>,
    plans: Vec<Option<JobPlan>>,
}

impl<'p> Binder<'p> {
    fn error(&mut self, code: Code, span: Span, message: impl Into<String>) {
        self.report(code, span, message.into(), CoreError::Plan);
    }

    /// Record an error once; `as_error` types it should it be the first.
    fn report(
        &mut self,
        code: Code,
        span: Span,
        message: String,
        as_error: fn(String) -> CoreError,
    ) {
        if !self
            .seen
            .insert((code, span.line, span.col, message.clone()))
        {
            return;
        }
        if self.first_error.is_none() {
            self.first_error = Some(as_error(message.clone()));
        }
        self.diagnostics
            .push(Diagnostic::error(code, "workflow", span, message));
    }

    fn bind_arguments(&mut self, values: &HashMap<String, String>) {
        let wf = &self.planner.workflow;
        for a in &wf.arguments {
            let r = match values.get(&a.name).or(a.value.as_ref()) {
                Some(text) => Resolved {
                    text: text.clone(),
                    concrete: true,
                },
                None => {
                    self.launch_errors.push(Diagnostic::error(
                        Code::P001,
                        "workflow",
                        a.span,
                        format!(
                            "argument '{}' has no value (pass it at launch or set a default)",
                            a.name
                        ),
                    ));
                    Resolved {
                        text: format!("${}", a.name),
                        concrete: false,
                    }
                }
            };
            self.args.insert(a.name.clone(), r);
        }
        let mut undeclared: Vec<&String> = values
            .keys()
            .filter(|k| !self.args.contains_key(*k))
            .collect();
        undeclared.sort();
        for k in undeclared {
            self.error(
                Code::P001,
                wf.span,
                format!(
                    "launch argument '{k}' is not declared by workflow '{}'",
                    wf.id
                ),
            );
        }
        // Path -> InputData id. Symbolic paths key by their `$name` literal,
        // which is exactly what symbolic resolution produces, so schema
        // inference works without launch-time values.
        for a in &wf.arguments {
            let Some(fmt) = &a.format else { continue };
            if !self.input_configs.contains_key(fmt.as_str()) {
                self.error(
                    Code::P017,
                    a.span,
                    format!(
                        "argument '{}' declares format '{fmt}', but its InputData \
                         configuration was not supplied",
                        a.name
                    ),
                );
            }
            if let Some(r) = self.args.get(&a.name) {
                self.path_formats.insert(r.text.clone(), fmt.clone());
            }
        }
    }

    // ---- $-reference resolution --------------------------------------

    /// Substitute every `$` reference in `raw`, diagnosing anything
    /// unresolvable at `span` and recovering with the literal reference
    /// text.
    fn resolve_value(&mut self, raw: &str, span: Span) -> Resolved {
        let mut concrete = true;
        let mut problems: Vec<(Code, String)> = Vec::new();
        let mut used: Vec<String> = Vec::new();
        let out = varref::substitute(raw, |r| {
            Ok(match r {
                VarRef::Literal(s) => s.clone(),
                VarRef::Arg(name) => {
                    used.push(name.clone());
                    match self.args.get(name) {
                        Some(r) => {
                            concrete &= r.concrete;
                            r.text.clone()
                        }
                        None => {
                            problems.push((Code::P001, format!("unknown argument '${name}'")));
                            concrete = false;
                            format!("${name}")
                        }
                    }
                }
                VarRef::JobParam { job, param } => match self.job_param(job, param) {
                    Some(r) => {
                        concrete &= r.concrete;
                        r.text.clone()
                    }
                    None => {
                        problems.push(self.job_ref_problem(
                            job,
                            format!("'${job}.{param}' does not match any earlier job parameter"),
                        ));
                        concrete = false;
                        format!("${job}.{param}")
                    }
                },
                VarRef::JobAttr { job, attr } => {
                    if !self.defined_jobs.contains(job) {
                        problems.push(self.job_ref_problem(
                            job,
                            format!("'${job}.${attr}': no earlier job '{job}'"),
                        ));
                    } else if self
                        .job_attrs
                        .get(job)
                        .is_some_and(|attrs| attrs.iter().any(|a| a == attr))
                    {
                        return Ok(attr.clone());
                    } else {
                        problems.push((
                            Code::P002,
                            format!("job '{job}' does not add an attribute '{attr}'"),
                        ));
                    }
                    concrete = false;
                    format!("${job}.${attr}")
                }
            })
        });
        self.used_args.extend(used);
        for (code, message) in problems {
            self.report(code, span, message, CoreError::Config);
        }
        match out {
            Ok(text) => Resolved { text, concrete },
            Err(e) => {
                self.report(Code::P016, span, e.to_string(), CoreError::Config);
                Resolved {
                    text: raw.to_string(),
                    concrete: false,
                }
            }
        }
    }

    /// An earlier job's resolved parameter, tolerating the paper's
    /// `ouputPath`/`outputPath` typo in either direction.
    fn job_param(&self, job: &str, param: &str) -> Option<&Resolved> {
        if !self.defined_jobs.contains(job) {
            return None;
        }
        let lookup = |p: &str| self.resolved_params.get(&(job.to_string(), p.to_string()));
        lookup(param).or_else(|| match param {
            "outputPath" => lookup("ouputPath"),
            "ouputPath" => lookup("outputPath"),
            _ => None,
        })
    }

    /// Classify a failed `$job.*` reference: `P003` for self/forward
    /// references (the cycle check), `P002` for everything else.
    fn job_ref_problem(&self, job: &str, detail: String) -> (Code, String) {
        let wf = &self.planner.workflow;
        if wf.operators.get(self.current_op).map(|o| o.id.as_str()) == Some(job) {
            (
                Code::P003,
                format!("reference {detail} (a job cannot reference itself)"),
            )
        } else if wf.operators.iter().any(|o| o.id == job) && !self.defined_jobs.contains(job) {
            (
                Code::P003,
                format!(
                    "reference {detail} (job '{job}' is defined later: jobs launch in document order)"
                ),
            )
        } else {
            (Code::P002, format!("reference {detail}"))
        }
    }

    /// Resolve every parameter value of `op` once, in document order, and
    /// record it for later `$job.param` references.
    fn resolve_op_params(&mut self, op: &OperatorDef) {
        for p in &op.params {
            if let Some(raw) = &p.value {
                let r = self.resolve_value(raw, p.value_span);
                self.resolved_params
                    .insert((op.id.clone(), p.name.clone()), r);
            }
        }
    }

    /// The recorded resolution of a parameter (tolerating the paper's
    /// `ouputPath` typo), or `None` when absent or valueless.
    fn param_resolved(&self, op: &OperatorDef, name: &str) -> Option<Resolved> {
        let p = op.param_fuzzy(name)?;
        p.value.as_ref()?;
        self.resolved_params
            .get(&(op.id.clone(), p.name.clone()))
            .cloned()
    }

    /// Like [`Binder::param_resolved`] but diagnoses `P007` when missing.
    fn require_param(&mut self, op: &OperatorDef, name: &str) -> Option<Resolved> {
        let r = self.param_resolved(op, name);
        if r.is_none() {
            self.error(
                Code::P007,
                op.span,
                format!("operator '{}' is missing required param '{name}'", op.id),
            );
        }
        r
    }

    /// The span of a parameter's value attribute, element span as fallback.
    fn param_span(&self, op: &OperatorDef, name: &str) -> Span {
        op.param_fuzzy(name)
            .map(|p| p.value_span)
            .unwrap_or(op.span)
    }

    // ---- dataset resolution ------------------------------------------

    /// The schema an argument declares for the path `path` through its
    /// `format=`, when that InputData configuration was supplied.
    fn declared_schema(&self, path: &str) -> Option<Arc<Schema>> {
        let cfg = self
            .input_configs
            .get(self.path_formats.get(path)?.as_str())?;
        Some(Arc::new(Schema::from_input_config(cfg)))
    }

    /// Metadata of `name`, materializing an external input from the
    /// argument-declared formats on first use. A declared format without
    /// a configuration (diagnosed where the argument declares it) leaves
    /// the input's metadata unknown.
    fn dataset_meta(&mut self, name: &str) -> Option<DatasetMeta> {
        if let Some(d) = self.datasets.iter().find(|d| d.name == name) {
            return d.meta.clone();
        }
        if !self.path_formats.contains_key(name) {
            return None;
        }
        let meta = self.declared_schema(name).map(|schema| DatasetMeta {
            schema,
            format: Format::Flat,
            packed_key: None,
        });
        if let Some(meta) = &meta {
            self.external_inputs.push((name.to_string(), meta.clone()));
        }
        self.datasets.push(DatasetNode {
            name: name.to_string(),
            meta: meta.clone(),
            producer: None,
            span: Span::UNKNOWN,
            consumers: Vec::new(),
        });
        meta
    }

    /// Resolve `op`'s input path to dataset names — exact match, else
    /// directory prefix match over known datasets in creation order —
    /// recording `op` as their consumer. Diagnoses `P017` for a concrete
    /// path that matches nothing; stays silent for a symbolic one, whose
    /// launch-time value may prefix-match a job output.
    fn input_datasets(&mut self, op: &OperatorDef) -> Option<Vec<String>> {
        let path = self.require_param(op, "inputPath")?;
        self.dataset_meta(&path.text);
        let exact = self.datasets.iter().position(|d| d.name == path.text);
        let matches: Vec<usize> = match exact {
            Some(i) => vec![i],
            None => (0..self.datasets.len())
                .filter(|&i| self.datasets[i].name.starts_with(&path.text))
                .collect(),
        };
        if matches.is_empty() {
            if path.concrete {
                self.error(
                    Code::P017,
                    self.param_span(op, "inputPath"),
                    format!(
                        "input path '{}' is not produced by an earlier job and no \
                         argument declares its format",
                        path.text
                    ),
                );
            }
            return None;
        }
        let op_idx = self.current_op;
        let mut names = Vec::new();
        for i in matches {
            let d = &mut self.datasets[i];
            if d.consumers.last() != Some(&op_idx) {
                d.consumers.push(op_idx);
            }
            names.push(d.name.clone());
        }
        Some(names)
    }

    /// The first input's metadata.
    fn first_meta(&mut self, inputs: &Option<Vec<String>>) -> Option<DatasetMeta> {
        let first = inputs.as_ref()?.first()?.clone();
        self.dataset_meta(&first)
    }

    /// Register one job output, diagnosing duplicate dataset names.
    fn push_output(&mut self, op: &OperatorDef, name: &str, meta: Option<DatasetMeta>, span: Span) {
        if self.datasets.iter().any(|d| d.name == name) {
            self.error(
                Code::P005,
                span,
                format!(
                    "job '{}' writes dataset '{name}', which already exists",
                    op.id
                ),
            );
            return;
        }
        self.datasets.push(DatasetNode {
            name: name.to_string(),
            meta,
            producer: Some(self.current_op),
            span,
            consumers: Vec::new(),
        });
    }

    // ---- per-operator binding ----------------------------------------

    fn bind_operator(&mut self, idx: usize, op: &OperatorDef, is_last: bool) {
        self.current_op = idx;
        self.resolve_op_params(op);
        let num_reducers = self.num_reducers(op);
        let mut bound = match op.operator.as_str() {
            "Sort" | "sort" => self.bind_keyed(op, true),
            "Group" | "group" => self.bind_keyed(op, false),
            "Split" | "split" => self.bind_split(op),
            "Distribute" | "distribute" => self.bind_distribute(op, is_last),
            custom => self.bind_custom(op, custom),
        };
        for (name, meta, span) in &bound.outputs {
            self.push_output(op, name, meta.clone(), *span);
        }
        let plan = self.job_plan(op, num_reducers, bound.job.take(), &bound.outputs);
        self.plans.push(plan);
        self.jobs.push(InferredJob {
            id: op.id.clone(),
            outputs: bound
                .outputs
                .into_iter()
                .map(|(name, meta, _)| (name, meta))
                .collect(),
            policy: bound.policy,
            num_partitions: bound.num_partitions,
        });
    }

    /// The executable job, when every part of the operator bound.
    fn job_plan(
        &self,
        op: &OperatorDef,
        num_reducers: Option<Option<usize>>,
        job: Option<(Vec<String>, JobKind)>,
        outputs: &[(String, Option<DatasetMeta>, Span)],
    ) -> Option<JobPlan> {
        let (inputs, kind) = job?;
        let input_metas = inputs
            .iter()
            .map(|n| self.datasets.iter().find(|d| &d.name == n)?.meta.clone())
            .collect::<Option<Vec<_>>>()?;
        let outputs = outputs
            .iter()
            .map(|(name, meta, _)| Some((name.clone(), meta.clone()?)))
            .collect::<Option<Vec<_>>>()?;
        Some(JobPlan {
            id: op.id.clone(),
            inputs,
            outputs,
            num_reducers: num_reducers?,
            input_meta: input_metas.first()?.clone(),
            input_metas,
            kind,
        })
    }

    /// The reducer-count override: `Some(None)` when absent, `None` when
    /// symbolic or invalid (`P012`).
    fn num_reducers(&mut self, op: &OperatorDef) -> Option<Option<usize>> {
        let Some(raw) = &op.num_reducers else {
            return Some(None);
        };
        let r = self.resolve_value(raw, op.span);
        if !r.concrete {
            return None;
        }
        match r.text.parse::<usize>() {
            Ok(n) if n > 0 => Some(Some(n)),
            _ => {
                self.error(
                    Code::P012,
                    op.span,
                    format!(
                        "operator '{}': num_reducers '{}' is not a positive integer",
                        op.id, r.text
                    ),
                );
                None
            }
        }
    }

    /// Key lookup in an inferred schema, with `P006` on absence; `None`
    /// for a symbolic key.
    fn key_index(&mut self, op: &OperatorDef, key: &Resolved, schema: &Schema) -> Option<usize> {
        if !key.concrete {
            return None;
        }
        let idx = schema.index_of(&key.text);
        if idx.is_none() {
            let fields = schema
                .fields()
                .iter()
                .map(|f| f.name.as_str())
                .collect::<Vec<_>>()
                .join(", ");
            self.error(
                Code::P006,
                self.param_span(op, "key"),
                format!(
                    "operator '{}': no field '{}' in schema [{fields}]",
                    op.id, key.text
                ),
            );
        }
        idx
    }

    /// Apply `op`'s add-ons to `schema` one by one, recovering past each
    /// failure. Returns the bound add-ons (`None` when any failed or the
    /// schema is unknown) and the evolved schema.
    fn bind_addons(
        &mut self,
        op: &OperatorDef,
        schema: Option<Arc<Schema>>,
    ) -> (Option<Vec<BoundAddOn>>, Option<Arc<Schema>>) {
        let mut out = schema;
        let mut bound = Some(Vec::new());
        for a in &op.addons {
            match self.bind_addon(op, a, out.as_deref()) {
                Some((addon, schema)) => {
                    out = Some(schema);
                    if let Some(b) = &mut bound {
                        b.push(addon);
                    }
                }
                None => bound = None,
            }
        }
        self.job_attrs.insert(
            op.id.clone(),
            op.addons.iter().map(|a| a.attr.clone()).collect(),
        );
        (bound, out)
    }

    fn bind_addon(
        &mut self,
        op: &OperatorDef,
        a: &AddOnDef,
        schema: Option<&Schema>,
    ) -> Option<(BoundAddOn, Arc<Schema>)> {
        let kind = match AddOnKind::parse(&a.operator) {
            Ok(k) => k,
            Err(e) => {
                self.error(Code::P010, a.span, e.to_string());
                return None;
            }
        };
        let schema = schema?;
        let Some(field_idx) = schema.index_of(&a.key) else {
            self.error(
                Code::P006,
                a.span,
                format!(
                    "operator '{}': add-on key '{}' is not a schema field",
                    op.id, a.key
                ),
            );
            return None;
        };
        let field_ty = schema.fields()[field_idx].ty;
        let Ok(attr_ty) = kind.result_type(field_ty) else {
            self.error(
                Code::P010,
                a.span,
                format!(
                    "add-on '{}' cannot be applied to field '{}' ({field_ty:?})",
                    a.operator, a.key
                ),
            );
            return None;
        };
        let Ok(out) = schema.with_attr(&a.attr, attr_ty) else {
            self.error(
                Code::P010,
                a.span,
                format!("add-on attribute '{}' already exists in the schema", a.attr),
            );
            return None;
        };
        Some((
            BoundAddOn {
                kind,
                field_idx,
                attr: a.attr.clone(),
            },
            out,
        ))
    }

    /// The output format operator declared on a parameter's `format=`
    /// attribute; `orig` (after `P011`) when it does not parse.
    fn output_format(&mut self, op: &OperatorDef, param: &str) -> FormatOp {
        let Some(p) = op.param_fuzzy(param) else {
            return FormatOp::Orig;
        };
        match p.format.as_deref().map(FormatOp::parse) {
            None => FormatOp::Orig,
            Some(Ok(f)) => f,
            Some(Err(e)) => {
                self.error(Code::P011, p.span, e.to_string());
                FormatOp::Orig
            }
        }
    }

    /// Sort (`is_sort`) or group: key lookup, add-ons, output format.
    fn bind_keyed(&mut self, op: &OperatorDef, is_sort: bool) -> Bound {
        let output = self.require_param(op, "outputPath");
        let key = self.require_param(op, "key");
        let inputs = self.input_datasets(op);
        let input_meta = self.first_meta(&inputs);
        if !is_sort
            && input_meta
                .as_ref()
                .is_some_and(|m| m.format == Format::Packed)
        {
            self.error(
                Code::P011,
                op.span,
                format!(
                    "operator '{}': group expects flat input (apply 'unpack' first)",
                    op.id
                ),
            );
        }
        let descending = if is_sort {
            self.sort_order(op)
        } else {
            Some(false)
        };
        let key_idx = match (&key, &input_meta) {
            (Some(k), Some(meta)) => self.key_index(op, k, &meta.schema),
            _ => None,
        };
        let (addons, out_schema) =
            self.bind_addons(op, input_meta.as_ref().map(|m| m.schema.clone()));
        let output_format = self.output_format(op, "outputPath");
        let meta = input_meta.map(|m| {
            let format = apply_format(m.format, output_format);
            DatasetMeta {
                schema: out_schema.unwrap_or(m.schema),
                format,
                packed_key: match format {
                    Format::Packed => key_idx,
                    Format::Flat => None,
                },
            }
        });
        let kind = match (key_idx, descending, addons) {
            (Some(key_idx), Some(descending), Some(addons)) if is_sort => Some(JobKind::Sort {
                key_idx,
                descending,
                addons,
                output_format,
            }),
            (Some(key_idx), Some(_), Some(addons)) => Some(JobKind::Group {
                key_idx,
                addons,
                output_format,
            }),
            _ => None,
        };
        Bound {
            outputs: self.single_output(op, output, meta),
            job: inputs.zip(kind),
            ..Bound::default()
        }
    }

    /// `outputPath` as the operator's one output, when it resolved.
    fn single_output(
        &self,
        op: &OperatorDef,
        output: Option<Resolved>,
        meta: Option<DatasetMeta>,
    ) -> Vec<(String, Option<DatasetMeta>, Span)> {
        output
            .map(|o| (o.text, meta, self.param_span(op, "outputPath")))
            .into_iter()
            .collect()
    }

    /// Table I: `-1` ascending (the default), `1` descending; `None` when
    /// symbolic or unknown (`P012`).
    fn sort_order(&mut self, op: &OperatorDef) -> Option<bool> {
        let Some(flag) = self.param_resolved(op, "flag") else {
            return Some(false);
        };
        if !flag.concrete {
            return None;
        }
        match flag.text.as_str() {
            "-1" | "asc" | "ascending" => Some(false),
            "1" | "desc" | "descending" => Some(true),
            other => {
                self.error(
                    Code::P012,
                    self.param_span(op, "flag"),
                    format!("operator '{}': unknown sort flag '{other}'", op.id),
                );
                None
            }
        }
    }

    fn bind_split(&mut self, op: &OperatorDef) -> Bound {
        let key = self.require_param(op, "key");
        let policy = self.require_param(op, "policy");
        let list = self.require_param(op, "outputPathList");
        let inputs = self.input_datasets(op);
        let input_meta = self.first_meta(&inputs);

        // Output names (only splittable once concrete) and per-output
        // format operators.
        let names: Option<Vec<String>> = list.filter(|l| l.concrete).map(|l| {
            l.text
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect()
        });
        let list_param = op.param_fuzzy("outputPathList");
        let list_span = list_param.map_or(op.span, |p| p.span);
        let formats: Vec<FormatOp> = match list_param.and_then(|p| p.format.as_deref()) {
            Some(f) => f
                .split(',')
                .map(|s| {
                    FormatOp::parse(s.trim()).unwrap_or_else(|e| {
                        self.error(Code::P011, list_span, e.to_string());
                        FormatOp::Orig
                    })
                })
                .collect(),
            None => Vec::new(),
        };
        if let Some(names) = &names {
            if !formats.is_empty() && formats.len() != names.len() {
                self.error(
                    Code::P011,
                    list_span,
                    format!(
                        "operator '{}': {} outputs but {} formats",
                        op.id,
                        names.len(),
                        formats.len()
                    ),
                );
            }
        }

        let policy_span = self.param_span(op, "policy");
        let policy = match policy {
            Some(p) if p.concrete => match SplitPolicy::parse(&p.text) {
                Ok(sp) => Some(sp),
                Err(e) => {
                    self.error(Code::P008, policy_span, e.to_string());
                    None
                }
            },
            _ => None,
        };
        if let (Some(sp), Some(names)) = (&policy, &names) {
            if sp.arity() != names.len() {
                self.error(
                    Code::P008,
                    policy_span,
                    format!(
                        "operator '{}': {} split conditions for {} outputs",
                        op.id,
                        sp.arity(),
                        names.len()
                    ),
                );
            }
        }

        // Threshold/key type compatibility (the key may live in member
        // records of a packed input, same as at run time).
        let key_idx = match (&key, &input_meta) {
            (Some(k), Some(meta)) => self.key_index(op, k, &meta.schema),
            _ => None,
        };
        if let (Some(idx), Some(sp), Some(meta)) = (key_idx, &policy, &input_meta) {
            let field_ty = meta.schema.fields()[idx].ty;
            for cond in &sp.conditions {
                if !threshold_compatible(field_ty, &cond.threshold) {
                    let key = key.as_ref().map_or("", |k| k.text.as_str());
                    self.error(
                        Code::P009,
                        policy_span,
                        format!(
                            "operator '{}': split threshold {:?} is not comparable \
                             with key field '{key}' of type {field_ty:?}",
                            op.id, cond.threshold
                        ),
                    );
                }
            }
        }

        let span = list_param.map_or(op.span, |p| p.value_span);
        let outputs = names
            .into_iter()
            .flatten()
            .enumerate()
            .map(|(i, name)| {
                let f = formats.get(i).copied().unwrap_or(FormatOp::Orig);
                let meta = input_meta.as_ref().map(|m| {
                    let format = apply_format(m.format, f);
                    DatasetMeta {
                        schema: m.schema.clone(),
                        format,
                        packed_key: match format {
                            Format::Packed => m.packed_key,
                            Format::Flat => None,
                        },
                    }
                });
                (name, meta, span)
            })
            .collect();
        Bound {
            outputs,
            job: inputs.zip(
                key_idx
                    .zip(policy)
                    .map(|(key_idx, policy)| JobKind::Split { key_idx, policy }),
            ),
            ..Bound::default()
        }
    }

    fn bind_distribute(&mut self, op: &OperatorDef, is_last: bool) -> Bound {
        let output = self.require_param(op, "outputPath");
        let policy_param = if op.param_fuzzy("distrPolicy").is_some() {
            "distrPolicy"
        } else {
            "policy"
        };
        let policy = self
            .param_resolved(op, "distrPolicy")
            .or_else(|| self.param_resolved(op, "policy"));
        if policy.is_none() {
            self.error(
                Code::P007,
                op.span,
                format!(
                    "operator '{}' needs a 'policy' or 'distrPolicy' param",
                    op.id
                ),
            );
        }
        let policy = match policy {
            Some(p) if p.concrete => match DistrPolicy::parse(&p.text) {
                Ok(dp) => Some(dp),
                Err(e) => {
                    self.error(Code::P012, self.param_span(op, policy_param), e.to_string());
                    None
                }
            },
            _ => None,
        };
        let num_partitions = match self.require_param(op, "numPartitions") {
            Some(p) if p.concrete => match p.text.parse::<usize>() {
                Ok(n) if n > 0 => Some(n),
                _ => {
                    self.error(
                        Code::P012,
                        self.param_span(op, "numPartitions"),
                        format!(
                            "operator '{}': numPartitions '{}' is not a positive integer",
                            op.id, p.text
                        ),
                    );
                    None
                }
            },
            _ => None,
        };
        let inputs = self.input_datasets(op);
        let input_meta = self.first_meta(&inputs);

        // Final jobs project onto the declared output format so add-on
        // attributes disappear from the written partitions.
        let final_schema = output
            .as_ref()
            .filter(|_| is_last)
            .and_then(|o| self.declared_schema(&o.text));
        let meta = input_meta.map(|m| {
            let format = if is_last { Format::Flat } else { m.format };
            DatasetMeta {
                schema: final_schema.clone().unwrap_or(m.schema),
                format,
                packed_key: match format {
                    Format::Packed => m.packed_key,
                    Format::Flat => None,
                },
            }
        });
        let kind = policy
            .zip(num_partitions)
            .map(|(policy, num_partitions)| JobKind::Distribute {
                policy,
                num_partitions,
                final_schema,
            });
        Bound {
            outputs: self.single_output(op, output, meta),
            policy,
            num_partitions,
            job: inputs.zip(kind),
        }
    }

    fn bind_custom(&mut self, op: &OperatorDef, name: &str) -> Bound {
        let registry = &self.planner.registry;
        let custom: Option<Arc<dyn CustomOperator>> = registry.custom(name).cloned();
        if custom.is_none() && self.named_operators.contains(name) {
            // Known by name only: it analyzes, but cannot plan.
            self.launch_errors.push(Diagnostic::error(
                Code::P013,
                "workflow",
                op.span,
                format!(
                    "operator '{}' uses operator '{name}', whose implementation is \
                     not registered with the planner",
                    op.id
                ),
            ));
        } else if custom.is_none() {
            self.error(
                Code::P013,
                op.span,
                format!("operator '{}' uses unregistered operator '{name}'", op.id),
            );
        }
        // Validate against the registration document when one was supplied.
        for arg in registry
            .registration(name)
            .map_or(&[][..], |r| &r.arguments)
        {
            if arg.default.is_none() && op.param_fuzzy(&arg.name).is_none() {
                self.error(
                    Code::P007,
                    op.span,
                    format!(
                        "operator '{}': registered operator '{name}' requires param '{}'",
                        op.id, arg.name
                    ),
                );
            }
        }
        let output = self.require_param(op, "outputPath");
        let inputs = self.input_datasets(op);
        let input_meta = self.first_meta(&inputs);
        let meta = match (&custom, input_meta) {
            (Some(c), Some(m)) => match c.output_schema(&m.schema) {
                Ok(schema) => Some(DatasetMeta {
                    schema,
                    format: m.format,
                    packed_key: m.packed_key,
                }),
                Err(e) => {
                    self.error(Code::P006, op.span, e.to_string());
                    None
                }
            },
            _ => None,
        };
        let params: HashMap<String, String> = op
            .params
            .iter()
            .filter_map(|p| {
                let r = self.resolved_params.get(&(op.id.clone(), p.name.clone()))?;
                Some((p.name.clone(), r.text.clone()))
            })
            .collect();
        Bound {
            outputs: self.single_output(op, output, meta),
            job: inputs.zip(custom.map(|_| JobKind::Custom {
                op_name: name.to_string(),
                params,
            })),
            ..Bound::default()
        }
    }

    fn finish(self) -> Binding {
        let plan = if self.first_error.is_none() && self.launch_errors.is_empty() {
            let wf = &self.planner.workflow;
            let jobs = self.plans.into_iter().collect::<Option<Vec<_>>>();
            let output_path = jobs
                .as_ref()
                .and_then(|jobs| jobs.last()?.outputs.first())
                .map(|(name, _)| name.clone());
            jobs.zip(output_path)
                .map(|(jobs, output_path)| WorkflowPlan {
                    id: wf.id.clone(),
                    jobs,
                    external_inputs: self.external_inputs,
                    output_path,
                    args: self
                        .args
                        .into_iter()
                        .map(|(name, r)| (name, r.text))
                        .collect(),
                    registry: self.planner.registry.clone(),
                })
        } else {
            None
        };
        Binding {
            diagnostics: self.diagnostics,
            launch_errors: self.launch_errors,
            jobs: self.jobs,
            datasets: self.datasets,
            used_args: self.used_args,
            plan,
            first_error: self.first_error,
        }
    }
}

/// Apply a format operator to a representation.
fn apply_format(input: Format, op: FormatOp) -> Format {
    match op {
        FormatOp::Orig => input,
        FormatOp::Pack => Format::Packed,
        FormatOp::Unpack => Format::Flat,
    }
}

/// Can `threshold` be meaningfully compared with a key field of type
/// `field`? Numeric types compare with each other; strings only with
/// strings.
fn threshold_compatible(field: FieldType, threshold: &Value) -> bool {
    matches!(field, FieldType::Str) == matches!(threshold, Value::Str(_))
}
