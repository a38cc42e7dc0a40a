//! Quantitative static analysis: interval bounds over the physical plan,
//! surfaced as diagnostics and a per-stage table.
//!
//! The interpretation itself lives in [`papar_core::bounds`] (it needs the
//! plan types, and the executor's debug-mode verifier consumes it without
//! this crate). This module is the diagnostic surface: it runs the
//! interpreter, anchors each finding at the declaring `<operator>`
//! element, and renders the table `papar check --bounds` and `papar plan
//! --explain` print. Codes emitted here (DESIGN.md §8 and §13):
//!
//! * `P021` — a keyed stage runs more reducers than the distinct-key
//!   upper bound admits under its value-routed partitioner;
//! * `W007` — a distribute stage has provably empty partitions;
//! * `W008` — a distribute stage's worst-case partition load exceeds the
//!   configured skew ratio;
//! * `W009` — an adjacent pair a fusion rule covers stayed unfused, with
//!   the blocking gate named ([`papar_core::physplan::fusion`]).

use papar_config::xml::Span;
use papar_config::WorkflowConfig;
use papar_core::bounds::{
    compute, render_table, BoundsOptions, Interval, SourceBounds, WorkflowBounds,
};
use papar_core::physplan::{self, PhysicalPlan};
use papar_core::plan::{JobKind, WorkflowPlan};

use crate::diag::{Code, Diagnostic};

/// Knobs of the bounds analysis.
#[derive(Debug, Clone)]
pub struct BoundsConfig {
    /// Cluster size the physical plan was lowered for.
    pub num_nodes: usize,
    /// Exact record count of every external input (`--records`), when
    /// known; sources start at `[0, ?]` otherwise.
    pub records: Option<u64>,
    /// Upper bound on distinct values of any single input field
    /// (`--distinct-keys`), when declared.
    pub distinct_keys: Option<u64>,
    /// `W008` threshold: worst-case busiest-partition load over the fair
    /// share (`--skew-ratio`).
    pub skew_ratio: f64,
}

impl Default for BoundsConfig {
    fn default() -> Self {
        BoundsConfig {
            num_nodes: 4,
            records: None,
            distinct_keys: None,
            skew_ratio: 4.0,
        }
    }
}

/// What the bounds analysis produced.
#[derive(Debug, Clone)]
pub struct BoundsReport {
    /// The raw interpretation (per-stage intervals and datasets).
    pub bounds: WorkflowBounds,
    /// P021/W007/W008/W009 findings, anchored at operator spans.
    pub diagnostics: Vec<Diagnostic>,
    /// The per-stage bound table, ready to print.
    pub table: String,
}

/// Position of the `<operator>` element declaring job `id` (unknown when
/// the workflow was built programmatically).
fn span_of(workflow: &WorkflowConfig, id: &str) -> Span {
    workflow
        .operators
        .iter()
        .find(|o| o.id == id)
        .map(|o| o.span)
        .unwrap_or(Span::UNKNOWN)
}

/// Run the interval interpretation over `phys` and turn its facts into
/// diagnostics. `plan` must be the logical plan `phys` was lowered from,
/// and `workflow` the document it was bound from (for spans).
pub fn analyze_bounds(
    workflow: &WorkflowConfig,
    plan: &WorkflowPlan,
    phys: &PhysicalPlan,
    cfg: &BoundsConfig,
) -> BoundsReport {
    let mut opts = BoundsOptions {
        num_nodes: cfg.num_nodes,
        sources: Default::default(),
    };
    for (name, _) in &plan.external_inputs {
        let records = cfg
            .records
            .map(Interval::exact)
            .unwrap_or_else(Interval::top);
        let distinct = cfg
            .distinct_keys
            .map(|k| Interval { lo: 0, hi: k })
            .unwrap_or_else(Interval::top);
        opts.sources
            .insert(name.clone(), SourceBounds { records, distinct });
    }
    let bounds = compute(plan, phys, &opts);
    let mut diagnostics = Vec::new();

    for (stage, sb) in phys.stages.iter().zip(&bounds.stages) {
        // The keyed job of the stage, when its partitioner routes by
        // value (hash for group, sampled ranges for sort): with fewer
        // distinct keys than reducers, some reducer provably receives no
        // key group. A fused stage's engine job is its first.
        let keyed = (stage.logical.first().map(|&j| &plan.jobs[j]))
            .filter(|job| matches!(job.kind, JobKind::Sort { .. } | JobKind::Group { .. }));
        if let Some(job) = keyed {
            let distinct = job
                .inputs
                .iter()
                .filter_map(|n| bounds.datasets.get(n))
                .fold(Interval::zero(), |acc, b| acc.add(b.distinct));
            if distinct.is_bounded() && sb.reducers as u64 > distinct.hi {
                diagnostics.push(Diagnostic::error(
                    Code::P021,
                    "workflow",
                    span_of(workflow, &job.id),
                    format!(
                        "job '{}' runs {} reducers but its input has at most {} distinct \
                         key(s); a value-routed partitioner can never feed {} of them",
                        job.id,
                        sb.reducers,
                        distinct.hi,
                        sb.reducers as u64 - distinct.hi
                    ),
                ));
            }
        }

        // Partition-layout findings anchor at the distribute operator,
        // the stage's last job.
        if let (Some(p), Some(&dist_job)) = (&sb.partitions, stage.logical.last()) {
            let id = &plan.jobs[dist_job].id;
            let span = span_of(workflow, id);
            if p.provably_empty > 0 {
                diagnostics.push(Diagnostic::warning(
                    Code::W007,
                    "workflow",
                    span,
                    format!(
                        "job '{}' distributes at most {} entr{} over {} partitions: {} \
                         partition(s) are provably empty under every admissible input",
                        id,
                        p.entries.hi,
                        if p.entries.hi == 1 { "y" } else { "ies" },
                        p.per_partition.len(),
                        p.provably_empty
                    ),
                ));
            }
            if let Some(ratio) = p.imbalance_hi {
                if ratio > cfg.skew_ratio {
                    diagnostics.push(Diagnostic::warning(
                        Code::W008,
                        "workflow",
                        span,
                        format!(
                            "job '{}': the static worst case puts {} of {} record(s) on one \
                             of {} partition(s) ({:.1}x the fair share, --skew-ratio {:.1}); \
                             a value-routed policy admits a single hot key",
                            id,
                            sb.max_load.hi,
                            sb.records_in.hi,
                            p.per_partition.len(),
                            ratio,
                            cfg.skew_ratio
                        ),
                    ));
                }
            }
        }
    }

    // Adjacent pairs a fusion rule covers that lowering kept apart: name
    // the gate, so the extra materialized dataset and shuffle are visibly
    // deliberate. An unfused (`--no-fuse`) plan needs no excuse.
    let pairs = if phys.fused { plan.jobs.len() } else { 0 };
    for i in 0..pairs {
        let Some(Err(gate)) = physplan::fusion(plan, i, cfg.num_nodes) else {
            continue;
        };
        let (first, second) = (&plan.jobs[i], &plan.jobs[i + 1]);
        diagnostics.push(Diagnostic::warning(
            Code::W009,
            "workflow",
            span_of(workflow, &first.id),
            format!(
                "jobs '{}' and '{}' look fusible but were not fused: {gate}",
                first.id, second.id
            ),
        ));
    }

    let table = render_table(&bounds);
    BoundsReport {
        bounds,
        diagnostics,
        table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use papar_config::InputConfig;
    use papar_core::plan::Planner;
    use std::collections::HashMap;

    const INPUT: &str = r#"
<input id="edges" name="edge list">
  <input_format>binary</input_format>
  <start_position>0</start_position>
  <element>
    <value name="src" type="integer"/>
    <value name="dst" type="integer"/>
  </element>
</input>"#;

    fn bind(workflow_xml: &str, args: &[(&str, &str)]) -> (WorkflowConfig, WorkflowPlan) {
        let wf = WorkflowConfig::parse_str(workflow_xml).unwrap();
        let cfg = InputConfig::parse_str(INPUT).unwrap();
        let args: HashMap<String, String> = args
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let plan = Planner::new(wf.clone(), vec![cfg]).bind(&args).unwrap();
        (wf, plan)
    }

    const SORT_DISTR: &str = r#"
<workflow id="w" name="n">
  <arguments>
    <param name="input_path" type="hdfs" format="edges"/>
  </arguments>
  <operators>
    <operator id="sort" operator="Sort">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="/user/sorted"/>
      <param name="key" type="KeyId" value="src"/>
    </operator>
    <operator id="distr" operator="Distribute">
      <param name="inputPath" type="String" value="$sort.outputPath"/>
      <param name="outputPath" type="String" value="/user/parts"/>
      <param name="distrPolicy" type="DistrPolicy" value="roundRobin"/>
      <param name="numPartitions" type="integer" value="4"/>
    </operator>
  </operators>
</workflow>"#;

    #[test]
    fn exact_sources_give_exact_stage_rows_and_no_findings() {
        let (wf, plan) = bind(SORT_DISTR, &[("input_path", "/data/edges")]);
        let phys = papar_core::physplan::lower(&plan, 4, true);
        let report = analyze_bounds(
            &wf,
            &plan,
            &phys,
            &BoundsConfig {
                records: Some(1000),
                ..Default::default()
            },
        );
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        let stage = &report.bounds.stages[0];
        assert_eq!(stage.records_in, Interval::exact(1000));
        assert_eq!(stage.records_out, Interval::exact(1000));
        assert_eq!(stage.max_load, Interval::new(250, 1000));
        let parts = stage.partitions.as_ref().unwrap();
        assert_eq!(parts.per_partition.len(), 4);
        assert!(parts
            .per_partition
            .iter()
            .all(|i| *i == Interval::exact(250)));
        assert!(report.table.contains("1000"), "{}", report.table);
    }

    #[test]
    fn unknown_sources_stay_top_without_spurious_findings() {
        let (wf, plan) = bind(SORT_DISTR, &[("input_path", "/data/edges")]);
        let phys = papar_core::physplan::lower(&plan, 4, true);
        let report = analyze_bounds(&wf, &plan, &phys, &BoundsConfig::default());
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        assert!(!report.bounds.stages[0].records_in.is_bounded());
        assert!(report.table.contains('?'), "{}", report.table);
    }

    #[test]
    fn provably_empty_partitions_fire_w007() {
        let (wf, plan) = bind(SORT_DISTR, &[("input_path", "/data/edges")]);
        let phys = papar_core::physplan::lower(&plan, 4, true);
        let report = analyze_bounds(
            &wf,
            &plan,
            &phys,
            &BoundsConfig {
                records: Some(2),
                ..Default::default()
            },
        );
        let w007: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == Code::W007)
            .collect();
        assert_eq!(w007.len(), 1, "{:?}", report.diagnostics);
        assert!(
            w007[0].message.contains("2 partition(s)"),
            "{}",
            w007[0].message
        );
        // Anchored at the distribute operator, not the sort.
        assert_eq!(w007[0].span, span_of(&wf, "distr"));
    }

    #[test]
    fn reducer_overcommit_fires_p021() {
        let (wf, plan) = bind(SORT_DISTR, &[("input_path", "/data/edges")]);
        let phys = papar_core::physplan::lower(&plan, 8, true);
        let report = analyze_bounds(
            &wf,
            &plan,
            &phys,
            &BoundsConfig {
                num_nodes: 8,
                records: Some(1000),
                distinct_keys: Some(3),
                ..Default::default()
            },
        );
        let p021: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == Code::P021)
            .collect();
        assert_eq!(p021.len(), 1, "{:?}", report.diagnostics);
        assert!(
            p021[0].message.contains("8 reducers"),
            "{}",
            p021[0].message
        );
        assert!(
            p021[0].message.contains("3 distinct"),
            "{}",
            p021[0].message
        );
    }
}
