//! The cost-based adaptive planner: **sample → enumerate → cost →
//! choose** (ROADMAP item 3; see DESIGN.md §16).
//!
//! [`choose`] turns a [`KeyStats`] artifact (the sampling pre-pass over
//! the plan's external input, [`crate::stats`]) into one authoritative
//! [`PlanDecision`]: which knobs the executor should run with, plus a
//! [`PlanRationale`] recording every candidate considered, every
//! rejection and its reason, and the chosen candidate's predicted cost —
//! enough to reproduce the decision without re-running the planner.
//!
//! The candidate space is restricted to knobs that are provably
//! **output-neutral**, because the engine's contract is byte-identical
//! partitions across every execution mode:
//!
//! * *Sort reducer count, sampling stride, and boundary placement* are
//!   tunable only when the sort feeds an index-routed distribute (the
//!   [`sort_distribute_fusible`] gate): the final partitions then depend
//!   only on the global sorted order and the partition count, not on
//!   where reducer cuts fall. A sort whose output is the workflow output
//!   (or feeds a value-routed consumer) keeps its configured knobs.
//! * *Group reducer counts are never touched*: a group's fragment
//!   ordinals feed the global index of any downstream distribute, so
//!   changing them changes bytes.
//! * *Fusion rewrites* are byte-identical by construction (DESIGN.md
//!   §11), so each gated rewrite is a free on/off knob.
//!
//! Candidates are priced with the calibrated [`CostModel`]/[`NetModel`]
//! over the PR 7 interval bounds, with the bounds doubling as an
//! admissibility filter: a candidate whose predicted busiest reducer
//! exceeds [`SKEW_RATIO`]× the fair share, or that provably leaves
//! reducers empty, is rejected with a reason instead of priced. All
//! arithmetic is integer or replayed from the sorted sample, and ties
//! resolve to the earliest-enumerated candidate (the configured literal
//! plan enumerates first), so the same stats always pick the same plan.

use papar_mr::sampler::boundaries_from_samples;
use papar_mr::stats::NetModel;
use papar_record::{wire, Value};
use papar_trace::{duration_ns, CostModel};
use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::bounds::{self, BoundsOptions, SourceBounds, UNBOUNDED};
use crate::exec::ExecOptions;
use crate::physplan::{lower_with, sort_distribute_fusible, FuseToggles};
use crate::plan::{JobKind, WorkflowPlan};
use crate::stats::KeyStats;

/// Admissibility threshold: a candidate whose predicted busiest reducer
/// carries more than this many fair shares is rejected as provably
/// skewed (matches `papar check --bounds`' default skew ratio).
pub const SKEW_RATIO: u64 = 4;

/// Cap applied to unbounded interval ends before pricing, so a ⊤ bound
/// saturates identically in every candidate and cancels out of the
/// comparison instead of overflowing it.
const PRICE_CAP: u64 = 1 << 40;

/// How a tunable sort places its range boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryMode {
    /// Sampled quantiles (the paper's TopCluster-style method).
    Range,
    /// Equi-width striping of the observed key domain — the naive
    /// strawman; cheap to place but provably skewed on non-uniform
    /// keys, which is exactly what the admissibility filter shows.
    Cyclic,
}

impl std::fmt::Display for BoundaryMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoundaryMode::Range => write!(f, "range"),
            BoundaryMode::Cyclic => write!(f, "cyclic"),
        }
    }
}

/// One candidate's knob settings (also the decision's payload: what the
/// executor actually applies).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Knobs {
    /// Reducer-count overrides for tunable sort jobs, by job id.
    pub sort_reducers: BTreeMap<String, usize>,
    /// Sampling stride for the sort's boundary-placement pass.
    pub sample_stride: usize,
    /// Boundary placement mode for tunable sorts.
    pub boundary_mode: BoundaryMode,
    /// Which gated fusion rewrites to apply.
    pub fuse: FuseToggles,
}

impl Knobs {
    /// One-line summary, stable across runs (used in the rationale and
    /// its canon).
    pub fn summary(&self) -> String {
        let reducers = self
            .sort_reducers
            .iter()
            .map(|(j, r)| format!("{j}={r}"))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "reducers{{{reducers}}} stride={} boundaries={} fusion{{sort_distribute={}, group_split={}}}",
            self.sample_stride,
            self.boundary_mode,
            on_off(self.fuse.sort_distribute),
            on_off(self.fuse.group_split),
        )
    }
}

fn on_off(b: bool) -> &'static str {
    if b {
        "on"
    } else {
        "off"
    }
}

/// What the cost evaluator predicted for the chosen candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Predicted {
    /// Modeled end-to-end cost (compute + shuffle + sampling).
    pub cost_ns: u64,
    /// Predicted busiest-reducer record count of the profiled keyed job
    /// (0 when the plan has no profiled job).
    pub max_load: u64,
    /// Predicted total shuffled bytes (sum of stage upper bounds).
    pub shuffle_bytes: u64,
}

/// A candidate the admissibility filter refused, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RejectedCandidate {
    /// The candidate's knob summary.
    pub knobs: String,
    /// The violated obligation.
    pub reason: String,
}

/// The decision record: everything needed to reproduce (and audit) an
/// adaptive planning pass.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRationale {
    /// The profiled keyed job (`(none)` when the plan has no stats
    /// target — the planner then only weighs fusion toggles).
    pub stats_job: String,
    /// Fingerprint of the [`KeyStats`] the decision was derived from
    /// (0 without stats). Folding this into the plan fingerprint is what
    /// keeps serve's plan cache and checkpoint resume honest: different
    /// input statistics are a different plan.
    pub stats_fingerprint: u64,
    /// Records observed by the sampling pre-pass.
    pub records: u64,
    /// Entries actually sampled.
    pub sampled: u64,
    /// Distinct-key estimate.
    pub distinct_estimate: u64,
    /// Estimated occurrences of the hottest key.
    pub hot_key_estimate: u64,
    /// The winning knobs.
    pub chosen: Knobs,
    /// The winner's predicted cost.
    pub predicted: Predicted,
    /// Total candidates enumerated.
    pub considered: usize,
    /// Candidates the admissibility filter rejected, in enumeration
    /// order.
    pub rejected: Vec<RejectedCandidate>,
}

impl PlanRationale {
    /// Canonical text: every field in a stable order. Appended to
    /// [`crate::exec::plan_canon_with`] when a decision is active, so the
    /// plan fingerprint (serve cache key, checkpoint prefix) pins both
    /// the chosen knobs and the statistics that produced them.
    pub fn canon(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "rationale stats_job='{}' stats={:#018x} records={} sampled={} distinct~{} hot~{}",
            self.stats_job,
            self.stats_fingerprint,
            self.records,
            self.sampled,
            self.distinct_estimate,
            self.hot_key_estimate
        );
        let _ = writeln!(out, "chosen {}", self.chosen.summary());
        let _ = writeln!(
            out,
            "predicted cost_ns={} max_load={} shuffle_bytes={}",
            self.predicted.cost_ns, self.predicted.max_load, self.predicted.shuffle_bytes
        );
        let _ = writeln!(out, "considered={}", self.considered);
        for r in &self.rejected {
            let _ = writeln!(out, "rejected {} :: {}", r.knobs, r.reason);
        }
        out
    }

    /// FNV-1a hash of [`canon`](Self::canon).
    pub fn fingerprint(&self) -> u64 {
        wire::checksum(self.canon().as_bytes())
    }

    /// Human-readable rationale, as `papar plan --explain` and the run
    /// summary print it.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "adaptive plan rationale (stats over job '{}': {} records, {} sampled, \
             ~{} distinct, hottest key ~{} records; stats fingerprint {:#018x}):",
            self.stats_job,
            self.records,
            self.sampled,
            self.distinct_estimate,
            self.hot_key_estimate,
            self.stats_fingerprint
        );
        let _ = writeln!(out, "  chosen:    {}", self.chosen.summary());
        let _ = writeln!(
            out,
            "  predicted: cost {:.3} ms, busiest reducer {} record(s), {} shuffled byte(s)",
            self.predicted.cost_ns as f64 / 1e6,
            self.predicted.max_load,
            self.predicted.shuffle_bytes
        );
        let _ = writeln!(
            out,
            "  considered {} candidate(s), rejected {} as inadmissible:",
            self.considered,
            self.rejected.len()
        );
        for r in &self.rejected {
            let _ = writeln!(out, "    - {}: {}", r.knobs, r.reason);
        }
        out
    }
}

/// The planner's output: the rationale is the decision (the chosen knobs
/// live inside it, keeping one authoritative record).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanDecision {
    /// The decision record.
    pub rationale: PlanRationale,
}

impl PlanDecision {
    /// The knobs the executor should apply.
    pub fn knobs(&self) -> &Knobs {
        &self.rationale.chosen
    }

    /// Reducer override for a job, if the decision carries one.
    pub fn reducer_override(&self, job_id: &str) -> Option<usize> {
        self.rationale.chosen.sort_reducers.get(job_id).copied()
    }
}

/// Equi-width boundaries over a numeric key domain `[lo, hi]` —
/// the [`BoundaryMode::Cyclic`] placement. `None` for non-numeric keys
/// (the enumerator then never offers cyclic mode).
pub fn cyclic_boundaries(lo: &Value, hi: &Value, num_reducers: usize) -> Option<Vec<Value>> {
    if num_reducers <= 1 {
        return Some(Vec::new());
    }
    let (a, b, long) = match (lo, hi) {
        (Value::Int(a), Value::Int(b)) => (*a as i128, *b as i128, false),
        (Value::Long(a), Value::Long(b)) => (*a as i128, *b as i128, true),
        _ => return None,
    };
    let (a, b) = (a.min(b), a.max(b));
    let span = b - a;
    if span == 0 {
        // One-point domain: every record belongs to the first range; the
        // executor's collapse note reports the unused reducers.
        return Some(Vec::new());
    }
    let mut out = Vec::with_capacity(num_reducers - 1);
    for i in 1..num_reducers {
        let cut = a + span * i as i128 / num_reducers as i128;
        out.push(if long {
            Value::Long(cut as i64)
        } else {
            Value::Int(cut as i32)
        });
    }
    out.dedup();
    Some(out)
}

/// The sort job (if any) whose reducer count, stride, and boundary mode
/// the planner may tune: its consumer must be an index-routed distribute
/// (final bytes then depend only on the global sorted order), which is
/// exactly the sort→distribute fusibility gate.
pub fn tunable_sort(plan: &WorkflowPlan) -> Option<usize> {
    (0..plan.jobs.len().saturating_sub(1)).find(|&i| sort_distribute_fusible(plan, i))
}

/// One enumerated candidate before selection.
struct Candidate {
    knobs: Knobs,
    predicted: Predicted,
}

/// Run the enumerate → cost → choose loop.
///
/// Deterministic: candidates enumerate in a fixed order with the
/// configured literal plan first, pricing is integer/sample-replay
/// arithmetic, and the first strictly-cheaper candidate wins — so the
/// same `(plan, nodes, options, stats)` always returns the same
/// decision, and the decision is reproducible from the rationale alone.
pub fn choose(
    plan: &WorkflowPlan,
    num_nodes: usize,
    options: &ExecOptions,
    stats: Option<&KeyStats>,
) -> PlanDecision {
    let cost_model = CostModel::default();
    let net = NetModel::default();
    let tunable = tunable_sort(plan).filter(|&t| {
        // The load model replays the profiled sample against candidate
        // boundaries; without stats over this very sort the planner has
        // no basis to move its knobs.
        stats.is_some_and(|s| s.job == plan.jobs[t].id)
    });

    // --- enumerate -------------------------------------------------
    let baseline_fuse = FuseToggles::from_flag(options.fuse);
    let mut fuse_options = vec![baseline_fuse];
    for t in [
        FuseToggles::all(),
        FuseToggles {
            sort_distribute: true,
            group_split: false,
        },
        FuseToggles {
            sort_distribute: false,
            group_split: true,
        },
        FuseToggles::none(),
    ] {
        if !fuse_options.contains(&t) {
            fuse_options.push(t);
        }
    }

    let (reducer_options, stride_options, mode_options) = match (tunable, stats) {
        (Some(t), Some(s)) => {
            let baseline = plan.jobs[t]
                .num_reducers
                .or(options.default_reducers)
                .unwrap_or(num_nodes)
                .max(1);
            let mut ladder = vec![baseline];
            // A distinct-capped rung guarantees a tiny key domain always
            // has an admissible candidate (every rung above the distinct
            // count is rejected as provably empty-partitioned).
            let distinct_cap = (s.distinct_estimate().max(1) as usize).min(4 * num_nodes.max(1));
            for r in [
                num_nodes.max(1),
                2 * num_nodes.max(1),
                4 * num_nodes.max(1),
                distinct_cap,
            ] {
                if !ladder.contains(&r) {
                    ladder.push(r);
                }
            }
            let mut strides = vec![options.sample_stride.max(1)];
            for s in [options.sample_stride / 4, options.sample_stride * 4] {
                let s = s.max(1);
                if !strides.contains(&s) {
                    strides.push(s);
                }
            }
            let numeric = matches!(
                (s.sample.first(), s.sample.last()),
                (Some(Value::Int(_)), Some(Value::Int(_)))
                    | (Some(Value::Long(_)), Some(Value::Long(_)))
            );
            let modes = if numeric {
                vec![BoundaryMode::Range, BoundaryMode::Cyclic]
            } else {
                vec![BoundaryMode::Range]
            };
            (ladder, strides, modes)
        }
        _ => (
            Vec::new(),
            vec![options.sample_stride.max(1)],
            vec![BoundaryMode::Range],
        ),
    };

    // --- cost + admissibility --------------------------------------
    let mut considered = 0usize;
    let mut rejected = Vec::new();
    let mut best: Option<Candidate> = None;
    for fuse in &fuse_options {
        let reducer_iter: Vec<Option<usize>> = if reducer_options.is_empty() {
            vec![None]
        } else {
            reducer_options.iter().map(|&r| Some(r)).collect()
        };
        for reducers in &reducer_iter {
            for mode in &mode_options {
                for stride in &stride_options {
                    considered += 1;
                    let mut sort_reducers = BTreeMap::new();
                    if let (Some(t), Some(r)) = (tunable, reducers) {
                        sort_reducers.insert(plan.jobs[t].id.clone(), *r);
                    }
                    let knobs = Knobs {
                        sort_reducers,
                        sample_stride: *stride,
                        boundary_mode: *mode,
                        fuse: *fuse,
                    };
                    match price(plan, num_nodes, options, stats, &knobs, &cost_model, &net) {
                        Ok(predicted) => {
                            let better = match &best {
                                Some(b) => predicted.cost_ns < b.predicted.cost_ns,
                                None => true,
                            };
                            if better {
                                best = Some(Candidate { knobs, predicted });
                            }
                        }
                        Err(reason) => rejected.push(RejectedCandidate {
                            knobs: knobs.summary(),
                            reason,
                        }),
                    }
                }
            }
        }
    }

    // --- choose ----------------------------------------------------
    // The baseline candidate (configured knobs, first enumerated) is
    // always admissible unless the data itself is provably skewed under
    // *every* placement; fall back to it un-priced if the filter
    // rejected everything, so the planner never leaves the engine
    // without a plan.
    let chosen = best.unwrap_or_else(|| Candidate {
        knobs: Knobs {
            sort_reducers: BTreeMap::new(),
            sample_stride: options.sample_stride.max(1),
            boundary_mode: BoundaryMode::Range,
            fuse: baseline_fuse,
        },
        predicted: Predicted::default(),
    });

    let rationale = match stats {
        Some(s) => PlanRationale {
            stats_job: s.job.clone(),
            stats_fingerprint: s.fingerprint(),
            records: s.count,
            sampled: s.sampled,
            distinct_estimate: s.distinct_estimate(),
            hot_key_estimate: s.hot_key_estimate(),
            chosen: chosen.knobs,
            predicted: chosen.predicted,
            considered,
            rejected,
        },
        None => PlanRationale {
            stats_job: "(none)".to_string(),
            stats_fingerprint: 0,
            records: 0,
            sampled: 0,
            distinct_estimate: 0,
            hot_key_estimate: 0,
            chosen: chosen.knobs,
            predicted: chosen.predicted,
            considered,
            rejected,
        },
    };
    PlanDecision { rationale }
}

/// Price one candidate, or reject it with a reason.
fn price(
    plan: &WorkflowPlan,
    num_nodes: usize,
    options: &ExecOptions,
    stats: Option<&KeyStats>,
    knobs: &Knobs,
    cm: &CostModel,
    net: &NetModel,
) -> Result<Predicted, String> {
    let phys = lower_with(plan, num_nodes, options.default_reducers, knobs.fuse);

    let mut bopts = BoundsOptions {
        num_nodes,
        default_reducers: options.default_reducers,
        sources: BTreeMap::new(),
        reducer_overrides: knobs.sort_reducers.clone(),
    };
    if let Some(s) = stats {
        // The profiled job's input is external and fully observed; its
        // exact count and distinct estimate seed the interpretation.
        if let Some(target) = crate::stats::stats_target(plan) {
            if target.inputs.len() == 1 {
                bopts.sources.insert(
                    target.inputs[0].clone(),
                    SourceBounds {
                        records: bounds::Interval::exact(s.count),
                        distinct: bounds::Interval::new(1.max(s.distinct_sampled), s.count.max(1)),
                    },
                );
            }
        }
    }

    // Admissibility + load model for the profiled keyed job.
    let mut est_max_load = 0u64;
    let mut profiled_job = None;
    if let Some(s) = stats {
        if let Some(job) = plan.jobs.iter().find(|j| j.id == s.job) {
            profiled_job = Some(job.id.clone());
            let reducers = knobs
                .sort_reducers
                .get(&job.id)
                .copied()
                .or(job.num_reducers)
                .or(options.default_reducers)
                .unwrap_or(num_nodes)
                .max(1);
            let distinct = s.distinct_estimate().max(1);
            let fair = s.count.div_ceil(reducers as u64).max(1);
            match &job.kind {
                JobKind::Sort { .. } => {
                    if reducers as u64 > distinct {
                        return Err(format!(
                            "{reducers} reducers over ~{distinct} distinct keys: \
                             provably empty partitions (boundaries collapse)"
                        ));
                    }
                    let boundaries = match knobs.boundary_mode {
                        BoundaryMode::Range => {
                            boundaries_from_samples(std::slice::from_ref(&s.sample), reducers)
                                .map_err(|e| format!("boundary placement failed: {e}"))?
                        }
                        BoundaryMode::Cyclic => match (s.sample.first(), s.sample.last()) {
                            (Some(lo), Some(hi)) => cyclic_boundaries(lo, hi, reducers)
                                .ok_or_else(|| "cyclic striping needs a numeric key".to_string())?,
                            _ => Vec::new(),
                        },
                    };
                    // A coarse stride can misplace each boundary by about
                    // one stride's worth of records; charge that slack to
                    // the busiest reducer before judging balance.
                    est_max_load = s
                        .max_range_load(&boundaries)
                        .saturating_add(knobs.sample_stride as u64);
                    if est_max_load > SKEW_RATIO.saturating_mul(fair) {
                        return Err(format!(
                            "provable skew under {} boundaries: predicted busiest reducer \
                             {est_max_load} record(s) > {SKEW_RATIO}x fair share {fair}",
                            knobs.boundary_mode
                        ));
                    }
                }
                JobKind::Group { .. } => {
                    // Group reducers are not tunable (fragment ordinals
                    // feed downstream global indices); the hash-routed
                    // load floor is still worth predicting: a single hot
                    // key always lands on one reducer.
                    est_max_load = fair.max(s.hot_key_estimate());
                }
                _ => {}
            }
        }
    }

    // Price the whole physical plan from its interval bounds, with the
    // profiled stage's reduce leg priced at the (finer) replayed load.
    let wb = bounds::compute(plan, &phys, &bopts);
    let cap = |x: u64| x.min(PRICE_CAP);
    let mut cost_ns = 0u64;
    let mut shuffle_bytes = 0u64;
    for sb in &wb.stages {
        let records_in = cap(sb.records_in.hi);
        let pairs = cap(sb.pairs.hi);
        let bytes = cap(sb.shuffle_bytes.hi);
        shuffle_bytes = shuffle_bytes.saturating_add(bytes);
        // Map side: touch every record, emit every pair.
        cost_ns = cost_ns.saturating_add(cm.compute_ns(records_in, pairs, 0));
        // Shuffle: one frame per (node, reducer) pair plus the bytes.
        if sb.reducers > 0 {
            let messages = (num_nodes.max(1) * sb.reducers) as u64;
            cost_ns = cost_ns.saturating_add(duration_ns(net.transfer_time(messages, bytes)));
            // Reduce side critical path: the busiest reducer.
            let covers_profiled = profiled_job
                .as_ref()
                .is_some_and(|id| sb.id == *id || sb.id.starts_with(&format!("{id}+")));
            let load = if covers_profiled && est_max_load > 0 {
                est_max_load
            } else {
                cap(if sb.max_load.hi == UNBOUNDED {
                    sb.records_in.hi
                } else {
                    sb.max_load.hi
                })
            };
            cost_ns = cost_ns.saturating_add(cm.compute_ns(load, load, 0));
        }
    }
    // The sampling pre-pass the chosen stride implies.
    if let Some(s) = stats {
        cost_ns = cost_ns.saturating_add(cm.compute_ns(
            s.count / knobs.sample_stride.max(1) as u64,
            0,
            0,
        ));
    }

    Ok(Predicted {
        cost_ns,
        max_load: est_max_load,
        shuffle_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Planner;
    use crate::stats::KeyCollector;
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

    fn blast_plan() -> WorkflowPlan {
        let wf = r#"
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
      <param name="distrPolicy" type="DistrPolicy" value="roundRobin"/>
      <param name="numPartitions" type="integer" value="$num_partitions"/>
    </operator>
  </operators>
</workflow>"#;
        let planner = Planner::from_xml(wf, &[BLAST_INPUT]).unwrap();
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

    fn stats_of(keys: &[i32]) -> KeyStats {
        let mut c = KeyCollector::new(1);
        for k in keys {
            c.offer(&Value::Int(*k));
        }
        c.finish("sort", 1)
    }

    #[test]
    fn decision_is_deterministic_and_reproducible() {
        let plan = blast_plan();
        let keys: Vec<i32> = (0..5000).map(|i| i % 97).collect();
        let stats = stats_of(&keys);
        let opts = ExecOptions::default();
        let a = choose(&plan, 4, &opts, Some(&stats));
        let b = choose(&plan, 4, &opts, Some(&stats));
        assert_eq!(a, b);
        assert_eq!(a.rationale.fingerprint(), b.rationale.fingerprint());
        assert!(a.rationale.considered > 0);
    }

    #[test]
    fn cyclic_rejected_on_skewed_keys() {
        // 90% of keys in [0, 10), a tail to 10_000: equi-width striping
        // provably floods reducer 0.
        let mut keys: Vec<i32> = (0..9000).map(|i| i % 10).collect();
        keys.extend((0..1000).map(|i| i * 10));
        let plan = blast_plan();
        let stats = stats_of(&keys);
        let d = choose(&plan, 4, &ExecOptions::default(), Some(&stats));
        assert_eq!(d.knobs().boundary_mode, BoundaryMode::Range);
        assert!(
            d.rationale
                .rejected
                .iter()
                .any(|r| r.knobs.contains("cyclic") && r.reason.contains("provable skew")),
            "expected cyclic candidates rejected for skew, got {:#?}",
            d.rationale.rejected
        );
    }

    #[test]
    fn over_partitioning_a_tiny_domain_is_rejected() {
        // 3 distinct keys: every ladder rung above 3 reducers is
        // provably empty-partitioned.
        let keys: Vec<i32> = (0..6000).map(|i| i % 3).collect();
        let plan = blast_plan();
        let stats = stats_of(&keys);
        let d = choose(&plan, 8, &ExecOptions::default(), Some(&stats));
        let chosen_reducers = d.reducer_override("sort").unwrap();
        assert!(chosen_reducers <= 3, "chose {chosen_reducers} reducers");
        assert!(d
            .rationale
            .rejected
            .iter()
            .any(|r| r.reason.contains("provably empty")));
    }

    #[test]
    fn no_stats_keeps_configured_knobs() {
        let plan = blast_plan();
        let opts = ExecOptions::default();
        let d = choose(&plan, 4, &opts, None);
        assert!(d.knobs().sort_reducers.is_empty());
        assert_eq!(d.knobs().fuse, FuseToggles::all());
        assert_eq!(d.rationale.stats_job, "(none)");
    }

    #[test]
    fn cyclic_boundaries_stripe_the_domain() {
        let b = cyclic_boundaries(&Value::Int(0), &Value::Int(100), 4).unwrap();
        assert_eq!(b, vec![Value::Int(25), Value::Int(50), Value::Int(75)]);
        assert!(cyclic_boundaries(&Value::Str("a".into()), &Value::Str("z".into()), 4).is_none());
        assert!(cyclic_boundaries(&Value::Int(5), &Value::Int(5), 4)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn rationale_canon_reproduces_the_decision() {
        let plan = blast_plan();
        let keys: Vec<i32> = (0..5000).map(|i| i % 97).collect();
        let stats = stats_of(&keys);
        let d = choose(&plan, 4, &ExecOptions::default(), Some(&stats));
        let canon = d.rationale.canon();
        // Every chosen knob and the stats fingerprint are in the canon.
        assert!(canon.contains(&d.rationale.chosen.summary()));
        assert!(canon.contains(&format!("{:#018x}", d.rationale.stats_fingerprint)));
        let rendered = d.rationale.render();
        assert!(rendered.contains("adaptive plan rationale"));
        assert!(rendered.contains("boundaries=range") || rendered.contains("boundaries=cyclic"));
    }
}
