//! The physical plan: what actually runs on the cluster.
//!
//! A [`crate::plan::WorkflowPlan`] is *logical* — one job per workflow
//! operator, every intermediate dataset materialized in the cluster store.
//! [`lower`] rewrites it into a [`PhysicalPlan`]: a sequence of stages
//! where adjacent jobs whose distribution steps compose algebraically
//! (the paper's stride-permutation composition `L_m^{km}`, Section III)
//! are *fused* into a single MapReduce job with a single shuffle, and the
//! dataset between them is streamed instead of written.
//!
//! Three rewrite rules, all gated so the fused stage is **byte-identical**
//! to the unfused pair (see DESIGN.md §11 for the proofs):
//!
//! 1. **Sort → Distribute** (`Cyclic`/`Block` policies): the pair runs as
//!    one sort-shuffled job; the distribute's index-routed permutation is
//!    applied by the driver over the already-ordered reducer runs, whose
//!    prefix sums give every entry's exact global rank. One shuffle
//!    instead of two.
//! 2. **Group → Split**: the split predicates are applied reduce-side
//!    inside the group job (split never shuffles, so this removes a whole
//!    pass over the grouped data, not a shuffle).
//! 3. **Dead-intermediate elimination**: the dataset between the fused
//!    jobs is consumed exactly once, by the fused partner — it is never
//!    committed to the cluster store. Its name lands in
//!    [`PhysicalStage::elided`] so `papar check`/`papar plan` can report
//!    it and the P099 verifier can prove the elision safe.
//!
//! Fusion changes *performance accounting only* (fewer jobs, fewer
//! shuffled bytes); every gate in [`fusion`], the one statement of both
//! rules, exists to keep the output bytes unchanged for every thread
//! count and fault plan.

use crate::plan::{Format, JobKind, WorkflowPlan};
use crate::policy::DistrPolicy;

/// What one physical stage executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StageKind {
    /// One logical job, executed as planned (index into
    /// `WorkflowPlan::jobs`).
    Single(usize),
    /// A sort job and the index-routed distribute consuming it, as one
    /// MapReduce job with the sort's shuffle only.
    FusedSortDistribute {
        /// Index of the sort job.
        sort: usize,
        /// Index of the distribute job.
        distribute: usize,
    },
    /// A group job and the split consuming it, with the split predicates
    /// applied reduce-side.
    FusedGroupSplit {
        /// Index of the group job.
        group: usize,
        /// Index of the split job.
        split: usize,
    },
}

/// One stage of the physical plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhysicalStage {
    /// Stage id: the covered operator ids joined with `+` (what stats and
    /// trace spans carry, e.g. `sort+distr`).
    pub id: String,
    /// Indices of the logical jobs this stage covers, in launch order.
    pub logical: Vec<usize>,
    /// What to run.
    pub kind: StageKind,
    /// Intermediate dataset names this stage streams instead of writing
    /// to the cluster store.
    pub elided: Vec<String>,
}

/// The lowered plan: stages in launch order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhysicalPlan {
    /// Stages in launch order. Their `logical` lists partition
    /// `0..jobs.len()` exactly, in order.
    pub stages: Vec<PhysicalStage>,
    /// Whether rewrites were enabled when lowering (false = `--no-fuse`,
    /// every stage is `Single`).
    pub fused: bool,
}

impl PhysicalPlan {
    /// Every dataset the plan streams (union of the stages' elisions).
    pub fn elided(&self) -> Vec<&str> {
        self.stages
            .iter()
            .flat_map(|s| s.elided.iter().map(String::as_str))
            .collect()
    }

    /// Number of stages that fuse more than one logical job.
    pub fn fused_stages(&self) -> usize {
        self.stages.iter().filter(|s| s.logical.len() > 1).count()
    }
}

/// How many jobs (plus the workflow output) consume each dataset name.
/// Prefix-matched inputs were already resolved to concrete names by the
/// planner, so plain equality is the whole dataflow analysis — the same
/// single-consumption counting `papar check`'s W006 lint performs on the
/// symbolic side.
pub fn consumer_count(plan: &WorkflowPlan, name: &str) -> usize {
    let by_jobs: usize = plan
        .jobs
        .iter()
        .flat_map(|j| &j.inputs)
        .filter(|i| i.as_str() == name)
        .count();
    // The workflow output is an external consumer: eliding it would lose
    // the workflow's result.
    by_jobs + usize::from(plan.output_path == name)
}

/// The fusion rule covering the adjacent jobs `i` and `i + 1`: `None` when
/// no rule pairs their kinds (or either has no outputs), else the fused
/// [`StageKind`] or the first gate that blocks it, in the words W009
/// prints. This is the one statement of each rule: [`lower`] fuses on
/// `Ok`, the P099 verifier re-asks it of every fused stage, and `papar
/// check --bounds` names the `Err` as W009. Every gate keeps the fused
/// stage byte-identical to the pair (DESIGN.md §11).
pub fn fusion(
    plan: &WorkflowPlan,
    i: usize,
    num_nodes: usize,
) -> Option<Result<StageKind, String>> {
    let (a, b) = (plan.jobs.get(i)?, plan.jobs.get(i + 1)?);
    if a.outputs.is_empty() || b.outputs.is_empty() {
        return None;
    }
    let out = a.output();
    let reads_only_a = b.inputs == [out];
    let is_output = plan.output_path == out;
    let consumers = consumer_count(plan, out);
    // A gate is `(blocks, why)`; the first that blocks names the rule's
    // refusal.
    let (fused, gates) = match (&a.kind, &b.kind) {
        // The driver applies the distribute's index routing over the
        // sorted reducer runs, whose prefix sums give every entry's rank.
        (JobKind::Sort { .. }, JobKind::Distribute { policy, .. }) => (
            StageKind::FusedSortDistribute {
                sort: i,
                distribute: i + 1,
            },
            vec![
                (
                    !reads_only_a,
                    format!("the distribute does not read exactly the sort output '{out}'"),
                ),
                (
                    *policy == DistrPolicy::GraphVertexCut,
                    "distribute policy 'graphVertexCut' routes by value, so partition \
                     assignments cannot be derived from the sorted runs' prefix sums"
                        .to_string(),
                ),
                (
                    a.outputs[0].1.format != Format::Flat,
                    format!("sort output '{out}' is packed: entry ranks diverge from record ranks"),
                ),
                (
                    is_output,
                    format!("sort output '{out}' is the workflow output and must survive the run"),
                ),
                (
                    consumers != 1,
                    format!(
                        "sort output '{out}' has {consumers} consumers; streaming it would \
                         starve one"
                    ),
                ),
            ],
        ),
        // The group's reducers apply the split predicates. Unfused split
        // writes one fragment per node, fused split one per reducer: the
        // ordinals agree only when reducers and nodes coincide.
        (JobKind::Group { .. }, JobKind::Split { .. }) => {
            let reducers = a.reducers(num_nodes);
            (
                StageKind::FusedGroupSplit {
                    group: i,
                    split: i + 1,
                },
                vec![
                    (
                        !reads_only_a,
                        format!("the split does not read exactly the group output '{out}'"),
                    ),
                    (
                        is_output,
                        format!(
                            "group output '{out}' is the workflow output and must survive the run"
                        ),
                    ),
                    (
                        reducers != num_nodes,
                        format!(
                            "group runs {reducers} reducer(s) but the cluster has {num_nodes} \
                             node(s): fused (per-reducer) and unfused (per-node) fragment \
                             ordinals would diverge"
                        ),
                    ),
                    (
                        consumers != 1,
                        format!(
                            "group output '{out}' has {consumers} consumers; streaming it would \
                             starve one"
                        ),
                    ),
                ],
            )
        }
        _ => return None,
    };
    Some(match gates.into_iter().find(|(blocks, _)| *blocks) {
        Some((_, why)) => Err(why),
        None => Ok(fused),
    })
}

/// Lower a logical plan to a physical one.
///
/// `num_nodes` is the size of the cluster the plan will run on — the
/// group→split gate depends on the reducer count
/// ([`crate::plan::JobPlan::reducers`]). With `fuse` false every job
/// becomes its own [`StageKind::Single`] stage (the `--no-fuse`
/// baseline).
pub fn lower(plan: &WorkflowPlan, num_nodes: usize, fuse: bool) -> PhysicalPlan {
    let mut stages = Vec::new();
    let mut i = 0;
    while i < plan.jobs.len() {
        let stage = match fusion(plan, i, num_nodes) {
            Some(Ok(kind)) if fuse => PhysicalStage {
                id: format!("{}+{}", plan.jobs[i].id, plan.jobs[i + 1].id),
                logical: vec![i, i + 1],
                kind,
                // The pair streams the first job's output.
                elided: vec![plan.jobs[i].output().to_string()],
            },
            _ => PhysicalStage {
                id: plan.jobs[i].id.clone(),
                logical: vec![i],
                kind: StageKind::Single(i),
                elided: Vec::new(),
            },
        };
        i += stage.logical.len();
        stages.push(stage);
    }
    PhysicalPlan {
        stages,
        fused: fuse,
    }
}

/// The `fuse` flag under the name the benchmark harness
/// (`benchmark/src/traced.rs`) lowers through; it and [`lower_with`] go
/// with the harness's next change. Hidden from the docs: new code calls
/// [`lower`] with the flag.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuseToggles(bool);

impl FuseToggles {
    /// From the boolean `fuse` flag.
    pub fn from_flag(fuse: bool) -> Self {
        FuseToggles(fuse)
    }
}

/// [`lower`], as the benchmark harness calls it (see [`FuseToggles`]).
/// `_default_reducers` is the harness's `None`: a reducer count comes
/// only from the configuration ([`crate::plan::JobPlan::reducers`]). It
/// goes with [`FuseToggles`].
#[doc(hidden)]
pub fn lower_with(
    plan: &WorkflowPlan,
    num_nodes: usize,
    _default_reducers: Option<usize>,
    fuse: FuseToggles,
) -> PhysicalPlan {
    lower(plan, num_nodes, fuse.0)
}

/// Render the logical→physical mapping as `papar plan --explain` prints
/// it: the logical job list, then every physical stage with its fusion
/// and elision annotations.
pub fn explain(plan: &WorkflowPlan, phys: &PhysicalPlan) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "workflow '{}': {} logical job(s)\n",
        plan.id,
        plan.jobs.len()
    ));
    for (i, job) in plan.jobs.iter().enumerate() {
        let kind = match &job.kind {
            JobKind::Sort { .. } => "Sort",
            JobKind::Group { .. } => "Group",
            JobKind::Split { .. } => "Split",
            JobKind::Distribute { .. } => "Distribute",
            JobKind::Custom { op_name, .. } => op_name.as_str(),
        };
        out.push_str(&format!(
            "  L{i}: {kind} '{}'  {:?} -> {:?}\n",
            job.id,
            job.inputs,
            job.outputs.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        ));
    }
    out.push_str(&format!(
        "physical plan ({}): {} stage(s)\n",
        if phys.fused { "fused" } else { "--no-fuse" },
        phys.stages.len()
    ));
    for (s, stage) in phys.stages.iter().enumerate() {
        let covered = stage
            .logical
            .iter()
            .map(|&j| format!("L{j}"))
            .collect::<Vec<_>>()
            .join("+");
        match &stage.kind {
            StageKind::Single(_) => {
                out.push_str(&format!(
                    "  P{s}: '{}' = {covered} (as planned)\n",
                    stage.id
                ));
            }
            StageKind::FusedSortDistribute { .. } => {
                out.push_str(&format!(
                    "  P{s}: '{}' = {covered} fused: one sort-shuffled job; the \
                     distribute permutation is applied over the sorted runs' \
                     prefix sums (one shuffle instead of two)\n",
                    stage.id
                ));
            }
            StageKind::FusedGroupSplit { .. } => {
                out.push_str(&format!(
                    "  P{s}: '{}' = {covered} fused: split predicates applied \
                     reduce-side inside the group job\n",
                    stage.id
                ));
            }
        }
        for name in &stage.elided {
            out.push_str(&format!(
                "       streams '{name}' (single consumer; never written to \
                 the cluster store)\n"
            ));
        }
    }
    out
}

/// The path each fused sort→distribute stage can take, for `papar plan
/// --explain` to print after [`explain`]'s text (which the plan
/// fingerprint hashes, so the note stays out of it); empty when the plan
/// fuses no sort→distribute. The data decide between the rank shuffle and
/// the sort, then the distribute, only where the plan allows both.
pub fn fused_paths(plan: &WorkflowPlan, phys: &PhysicalPlan) -> crate::Result<String> {
    let mut out = String::new();
    for (s, stage) in phys.stages.iter().enumerate() {
        let StageKind::FusedSortDistribute { sort, distribute } = stage.kind else {
            continue;
        };
        let (sjob, djob) = (&plan.jobs[sort], &plan.jobs[distribute]);
        let line = match crate::stage::rank_shuffle_refusal(sjob, djob)? {
            None => {
                let (key_idx, ..) = crate::stage::keyed_kind(sjob)?;
                let key = (sjob.input_meta.schema.fields().get(key_idx)).map_or("", |f| &f.name);
                format!(
                    "one shuffle by global rank when its '{key}' keys span at most its \
                     rows over its partitions (a key histogram replaces the sample); \
                     otherwise the sort, then the distribute"
                )
            }
            Some(why) => format!("the sort, then the distribute: {why}"),
        };
        out.push_str(&format!("  P{s}: '{}' takes {line}\n", stage.id));
    }
    if !out.is_empty() {
        out.insert_str(0, "fused sort→distribute paths:\n");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Planner;
    use std::collections::HashMap;

    const BLAST_INPUT: &str = r#"
<input id="blast_db" name="BLAST Database file">
  <input_format>binary</input_format>
  <start_position>32</start_position>
  <element>
    <value name="seq_start" type="integer"/>
    <value name="seq_size" type="integer"/>
    <value name="desc_start" type="integer"/>
    <value name="desc_size" type="integer"/>
  </element>
</input>"#;

    fn blast_workflow(policy: &str) -> String {
        format!(
            r#"
<workflow id="blast_partition" name="BLAST database partition">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
    <param name="output_path" type="hdfs" format="blast_db"/>
    <param name="num_partitions" type="integer"/>
  </arguments>
  <operators>
    <operator id="sort" operator="Sort">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="/user/sort_output"/>
      <param name="key" type="KeyId" value="seq_size"/>
    </operator>
    <operator id="distr" operator="Distribute">
      <param name="inputPath" type="String" value="$sort.outputPath"/>
      <param name="outputPath" type="String" value="$output_path"/>
      <param name="distrPolicy" type="DistrPolicy" value="{policy}"/>
      <param name="numPartitions" type="integer" value="$num_partitions"/>
    </operator>
  </operators>
</workflow>"#
        )
    }

    fn bind_blast(policy: &str) -> WorkflowPlan {
        let planner = Planner::from_xml(&blast_workflow(policy), &[BLAST_INPUT]).unwrap();
        let args: HashMap<String, String> = [
            ("input_path", "/db/in"),
            ("output_path", "/db/out"),
            ("num_partitions", "4"),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
        planner.bind(&args).unwrap()
    }

    #[test]
    fn sort_distribute_pair_fuses_into_one_stage() {
        let plan = bind_blast("roundRobin");
        let phys = lower(&plan, 3, true);
        assert_eq!(phys.stages.len(), 1);
        assert_eq!(phys.stages[0].id, "sort+distr");
        assert_eq!(phys.stages[0].logical, vec![0, 1]);
        assert_eq!(
            phys.stages[0].kind,
            StageKind::FusedSortDistribute {
                sort: 0,
                distribute: 1
            }
        );
        assert_eq!(phys.stages[0].elided, vec!["/user/sort_output".to_string()]);
        assert_eq!(phys.fused_stages(), 1);
    }

    #[test]
    fn block_policy_also_fuses_but_vertex_cut_does_not() {
        let plan = bind_blast("block");
        assert_eq!(lower(&plan, 3, true).stages.len(), 1);
        let plan = bind_blast("graphVertexCut");
        let phys = lower(&plan, 3, true);
        assert_eq!(phys.stages.len(), 2);
        assert!(phys
            .stages
            .iter()
            .all(|s| matches!(s.kind, StageKind::Single(_))));
    }

    #[test]
    fn no_fuse_keeps_every_job_its_own_stage() {
        let plan = bind_blast("roundRobin");
        let phys = lower(&plan, 3, false);
        assert!(!phys.fused);
        assert_eq!(phys.stages.len(), 2);
        assert_eq!(phys.stages[0].kind, StageKind::Single(0));
        assert_eq!(phys.stages[1].kind, StageKind::Single(1));
        assert!(phys.elided().is_empty());
    }

    #[test]
    fn explain_shows_logical_and_physical_sides() {
        let plan = bind_blast("roundRobin");
        let phys = lower(&plan, 3, true);
        let text = explain(&plan, &phys);
        assert!(text.contains("2 logical job(s)"));
        assert!(text.contains("L0: Sort 'sort'"));
        assert!(text.contains("L1: Distribute 'distr'"));
        assert!(text.contains("P0: 'sort+distr' = L0+L1 fused"));
        assert!(text.contains("streams '/user/sort_output'"));
        let unfused = explain(&plan, &lower(&plan, 3, false));
        assert!(unfused.contains("--no-fuse"));
        assert!(unfused.contains("(as planned)"));
    }

    const EDGE_INPUT: &str = r#"
<input id="graph_edge" name="edge lists">
  <input_format>text</input_format>
  <element>
    <value name="vertex_a" type="String"/>
    <delimiter value="\t"/>
    <value name="vertex_b" type="String"/>
    <delimiter value="\n"/>
  </element>
</input>"#;

    const HYBRID_WORKFLOW: &str = r#"
<workflow id="hybrid_cut" name="Hybrid-cut">
  <arguments>
    <param name="input_file" type="hdfs" format="graph_edge"/>
    <param name="output_path" type="hdfs" format="graph_edge"/>
    <param name="num_partitions" type="integer"/>
    <param name="threshold" type="integer"/>
  </arguments>
  <operators>
    <operator id="group" operator="group">
      <param name="inputPath" type="String" value="$input_file"/>
      <param name="outputPath" type="String" value="/tmp/group" format="pack"/>
      <param name="key" type="KeyId" value="vertex_b"/>
      <addon operator="count" key="vertex_b" attr="indegree"/>
    </operator>
    <operator id="split" operator="Split">
      <param name="inputPath" type="String" value="$group.outputPath"/>
      <param name="outputPathList" type="StringList"
             value="/tmp/split/high_degree,/tmp/split/low_degree"
             format="unpack,orig"/>
      <param name="key" type="KeyId" value="$group.$indegree"/>
      <param name="policy" type="SplitPolicy" value="{&gt;=, $threshold},{&lt;,$threshold}"/>
    </operator>
    <operator id="distr" operator="Distribute">
      <param name="inputPath" type="String" value="/tmp/split/"/>
      <param name="outputPath" type="String" value="$output_path"/>
      <param name="policy" type="distrPolicy" value="graphVertexCut"/>
      <param name="numPartitions" type="integer" value="$num_partitions"/>
    </operator>
  </operators>
</workflow>"#;

    fn bind_hybrid() -> WorkflowPlan {
        bind_hybrid_doc(HYBRID_WORKFLOW)
    }

    fn bind_hybrid_doc(workflow: &str) -> WorkflowPlan {
        let planner = Planner::from_xml(workflow, &[EDGE_INPUT]).unwrap();
        let args: HashMap<String, String> = [
            ("input_file", "/g/in"),
            ("output_path", "/g/out"),
            ("num_partitions", "4"),
            ("threshold", "10"),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
        planner.bind(&args).unwrap()
    }

    #[test]
    fn group_split_fuses_and_distribute_stays_single() {
        let plan = bind_hybrid();
        let phys = lower(&plan, 4, true);
        assert_eq!(phys.stages.len(), 2);
        assert_eq!(phys.stages[0].id, "group+split");
        assert_eq!(
            phys.stages[0].kind,
            StageKind::FusedGroupSplit { group: 0, split: 1 }
        );
        assert_eq!(phys.stages[0].elided, vec!["/tmp/group".to_string()]);
        assert_eq!(phys.stages[1].kind, StageKind::Single(2));
        assert_eq!(phys.stages[1].logical, vec![2]);
    }

    #[test]
    fn group_split_gate_requires_reducers_to_match_nodes() {
        // A group with 8 reducers on 4 nodes breaks the fragment-ordinal
        // equivalence, so lowering must keep the two-job plan.
        let eight = HYBRID_WORKFLOW.replace(
            r#"operator="group">"#,
            r#"operator="group" num_reducers="8">"#,
        );
        let plan = bind_hybrid_doc(&eight);
        assert_eq!(plan.jobs[0].reducers(4), 8);
        let phys = lower(&plan, 4, true);
        assert_eq!(phys.stages.len(), 3);
        assert!(phys
            .stages
            .iter()
            .all(|s| matches!(s.kind, StageKind::Single(_))));
    }

    #[test]
    fn logical_indices_partition_exactly_in_order() {
        for (plan, nodes) in [(bind_blast("roundRobin"), 3), (bind_hybrid(), 4)] {
            for fuse in [true, false] {
                let phys = lower(&plan, nodes, fuse);
                let covered: Vec<usize> = phys
                    .stages
                    .iter()
                    .flat_map(|s| s.logical.iter().copied())
                    .collect();
                assert_eq!(covered, (0..plan.jobs.len()).collect::<Vec<_>>());
            }
        }
    }
}
