//! The cost-based adaptive planner: **sample → enumerate → cost →
//! choose** over one knob, the tunable sort's reducer count (see
//! DESIGN.md §16).
//!
//! [`choose`] turns a [`KeyStats`] artifact (the sampling pre-pass over
//! the plan's external input, [`crate::stats`]) into one authoritative
//! [`PlanDecision`]: which reducer count the executor should run the
//! sort with, plus a [`PlanRationale`] recording every candidate
//! considered, every rejection and its reason, and the chosen
//! candidate's predicted cost — enough to reproduce the decision without
//! re-running the planner.
//!
//! PaPar's sort samples its input to place its range boundaries, so the
//! only output-neutral choice that sample can price honestly is the
//! sort's own reducer count, judged at the stride that drew the sample:
//!
//! * *The sort's reducer count* is tunable only when the sort feeds an
//!   index-routed distribute (the [`sort_distribute_fusible`] gate): the
//!   final partitions then depend only on the global sorted order and
//!   the partition count, not on where reducer cuts fall. A sort whose output is the workflow output
//!   (or feeds a value-routed consumer) keeps its configured count.
//! * *Boundaries stay sampled quantiles*: a rung is priced by replaying
//!   the sample against the very cuts the sort would place from it.
//! * *Group reducer counts are never touched*: a group's fragment
//!   ordinals feed the global index of any downstream distribute, so
//!   changing them changes bytes.
//! * *The sampling stride and fusion stay the caller's*: the sample
//!   replays exactly only at the stride that drew it, and `--no-fuse` is
//!   honoured as given (every rewrite is byte-identical, DESIGN.md §11).
//!
//! The objective is absolute, with the literal plan as the bar. The
//! configured literal is priced first and never rejected. A ladder rung
//! replaces it only when the rung's predicted busiest reducer is lighter
//! than the literal's by at least the replay's resolution
//! ([`KeyStats::resolution`]), and its predicted cost is lower. A rung
//! with more reducers than distinct keys is rejected as provably
//! empty-partitioned, and a rung that is not lighter is rejected with a
//! reason naming both loads. All arithmetic is integer or replayed from
//! the sorted sample, and ties keep the earlier candidate, so the same
//! stats always pick the same plan.

use papar_mr::sampler::boundaries_from_samples;
use papar_mr::stats::NetModel;
use papar_record::wire;
use papar_trace::{duration_ns, CostModel};
use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::bounds::{self, BoundsOptions, SourceBounds, UNBOUNDED};
use crate::exec::ExecOptions;
use crate::physplan::{lower, sort_distribute_fusible, PhysicalPlan};
use crate::plan::{JobKind, JobPlan, WorkflowPlan};
use crate::stats::KeyStats;

/// Cap applied to unbounded interval ends before pricing, so a ⊤ bound
/// saturates identically in every candidate and cancels out of the
/// comparison instead of overflowing it.
const PRICE_CAP: u64 = 1 << 40;

/// One candidate's knob settings (also the decision's payload: what the
/// executor actually applies).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Knobs {
    /// Reducer-count overrides for tunable sort jobs, by job id.
    pub sort_reducers: BTreeMap<String, usize>,
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
        format!("reducers{{{reducers}}}")
    }
}

/// What the cost evaluator predicted for the chosen candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Predicted {
    /// Modeled end-to-end cost (compute + shuffle).
    pub cost_ns: u64,
    /// Predicted busiest-reducer record count of the profiled keyed job
    /// (0 when the plan has no profiled job).
    pub max_load: u64,
    /// Predicted total shuffled bytes (sum of stage upper bounds).
    pub shuffle_bytes: u64,
}

/// A candidate the planner refused, and why.
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
    /// target — the planner then keeps the literal plan).
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
    /// Candidates the planner rejected, in enumeration order.
    pub rejected: Vec<RejectedCandidate>,
}

impl PlanRationale {
    /// The rationale as `papar plan --explain` and the run summary print
    /// it. It states every field, so it is also the canonical text:
    /// appended to [`crate::exec::plan_canon_with`] when a decision is
    /// active, the plan fingerprint (serve cache key, checkpoint prefix)
    /// pins both the chosen knobs and the statistics that produced them.
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
            "  considered {} candidate(s), rejected {}:",
            self.considered,
            self.rejected.len()
        );
        for r in &self.rejected {
            let _ = writeln!(out, "    - {}: {}", r.knobs, r.reason);
        }
        out
    }

    /// FNV-1a hash of [`render`](Self::render).
    pub fn fingerprint(&self) -> u64 {
        wire::checksum(self.render().as_bytes())
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

/// Run the enumerate → cost → choose loop.
///
/// Deterministic: the configured literal plan is priced first, the
/// ladder enumerates in a fixed order, pricing is integer/sample-replay
/// arithmetic, and only a strictly cheaper admissible rung displaces the
/// current best — so the same `(plan, nodes, options, stats)` always
/// returns the same decision, and the decision is reproducible from the
/// rationale alone.
pub fn choose(
    plan: &WorkflowPlan,
    num_nodes: usize,
    options: &ExecOptions,
    stats: Option<&KeyStats>,
) -> PlanDecision {
    let pricer = Pricer::new(plan, num_nodes, options, stats);

    // --- enumerate: the literal plan, then the tunable sort's ladder ---
    let mut literal = Knobs {
        sort_reducers: BTreeMap::new(),
    };
    let mut rungs: Vec<(usize, Knobs)> = Vec::new();
    // The tunable sort feeds an index-routed distribute (final bytes then
    // depend only on the global sorted order): exactly the sort→distribute
    // fusibility gate. The load model replays the profiled sample against
    // candidate boundaries, so without stats over this very sort the
    // planner has no basis to move its knobs.
    let tuned = (0..plan.jobs.len().saturating_sub(1))
        .find(|&i| sort_distribute_fusible(plan, i))
        .map(|t| &plan.jobs[t])
        .zip(stats)
        .filter(|(job, s)| s.job == job.id);
    if let Some((job, s)) = tuned {
        let nodes = num_nodes.max(1);
        let configured = job
            .num_reducers
            .or(options.default_reducers)
            .unwrap_or(nodes)
            .max(1);
        literal.sort_reducers.insert(job.id.clone(), configured);
        let mut ladder = vec![configured];
        // A distinct-capped rung guarantees a tiny key domain always has
        // a rung that is not provably empty-partitioned.
        let distinct_cap = (s.distinct_estimate().max(1) as usize).min(4 * nodes);
        for r in [nodes, 2 * nodes, 4 * nodes, distinct_cap] {
            if !ladder.contains(&r) {
                ladder.push(r);
            }
        }
        for &r in &ladder[1..] {
            rungs.push((
                r,
                Knobs {
                    sort_reducers: BTreeMap::from([(job.id.clone(), r)]),
                },
            ));
        }
    }

    // --- cost, judged against the literal ---------------------------
    let predicted = pricer.price(&literal);
    let literal_load = predicted.max_load;
    let mut best = (literal, predicted);
    let resolution = stats.map_or(0, KeyStats::resolution);
    let distinct = stats.map_or(u64::MAX, |s| s.distinct_estimate().max(1));
    let considered = 1 + rungs.len();
    let mut rejected = Vec::new();
    for (reducers, knobs) in rungs {
        let reason = if reducers as u64 > distinct {
            format!(
                "{reducers} reducers over ~{distinct} distinct keys: \
                 provably empty partitions (boundaries collapse)"
            )
        } else {
            // The replay cannot tell loads less than one sample entry
            // apart, so a rung must beat the literal by that much: a
            // rung it calls a tie often ships a heavier reducer.
            let predicted = pricer.price(&knobs);
            if predicted.max_load.saturating_add(resolution) <= literal_load {
                if predicted.cost_ns < best.1.cost_ns {
                    best = (knobs, predicted);
                }
                continue;
            }
            format!(
                "predicted busiest reducer {} record(s) is not lighter than the literal \
                 plan's {literal_load} by the replay resolution ({resolution})",
                predicted.max_load
            )
        };
        rejected.push(RejectedCandidate {
            knobs: knobs.summary(),
            reason,
        });
    }

    PlanDecision {
        rationale: PlanRationale {
            stats_job: stats.map_or_else(|| "(none)".to_string(), |s| s.job.clone()),
            stats_fingerprint: stats.map_or(0, KeyStats::fingerprint),
            records: stats.map_or(0, |s| s.count),
            sampled: stats.map_or(0, |s| s.sample.len() as u64),
            distinct_estimate: stats.map_or(0, KeyStats::distinct_estimate),
            hot_key_estimate: stats.map_or(0, KeyStats::hot_key_estimate),
            chosen: best.0,
            predicted: best.1,
            considered,
            rejected,
        },
    }
}

/// What pricing shares across candidates: the knobs change neither the
/// physical plan nor the observed input, only the tunable sort's reducer
/// count and cuts.
struct Pricer<'a> {
    plan: &'a WorkflowPlan,
    phys: PhysicalPlan,
    /// Bounds options seeded with the observed input.
    bopts: BoundsOptions,
    /// The profiled keyed job and the statistics over its input.
    profiled: Option<(&'a JobPlan, &'a KeyStats)>,
}

impl<'a> Pricer<'a> {
    fn new(
        plan: &'a WorkflowPlan,
        num_nodes: usize,
        options: &ExecOptions,
        stats: Option<&'a KeyStats>,
    ) -> Self {
        let mut bopts = BoundsOptions {
            num_nodes,
            default_reducers: options.default_reducers,
            ..BoundsOptions::default()
        };
        // The profiled job's input is external and fully observed; its
        // exact count and distinct estimate seed the interpretation.
        if let (Some(s), Some(target)) = (stats, crate::stats::stats_target(plan)) {
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
        Pricer {
            plan,
            phys: lower(plan, num_nodes, options.default_reducers, options.fuse),
            bopts,
            profiled: stats.and_then(|s| Some((plan.jobs.iter().find(|j| j.id == s.job)?, s))),
        }
    }

    /// Price one candidate: the whole physical plan from its interval
    /// bounds, with the profiled stage's reduce leg priced at the (finer)
    /// replayed load.
    fn price(&self, knobs: &Knobs) -> Predicted {
        let est_max_load = match self.profiled {
            Some((job, s)) => {
                let reducers = knobs
                    .sort_reducers
                    .get(&job.id)
                    .copied()
                    .or(job.num_reducers)
                    .or(self.bopts.default_reducers)
                    .unwrap_or(self.bopts.num_nodes)
                    .max(1);
                match &job.kind {
                    // The sample replayed against the candidate's boundaries.
                    // Quantile placement over an in-memory sample cannot fail.
                    JobKind::Sort { .. } => s.max_range_load(
                        &boundaries_from_samples(std::slice::from_ref(&s.sample), reducers)
                            .unwrap_or_default(),
                    ),
                    // Group reducers are not tunable (fragment ordinals feed
                    // downstream global indices); the hash-routed load floor
                    // is still worth predicting: a single hot key always
                    // lands on one reducer.
                    JobKind::Group { .. } => s
                        .count
                        .div_ceil(reducers as u64)
                        .max(1)
                        .max(s.hot_key_estimate()),
                    _ => 0,
                }
            }
            None => 0,
        };
        let bopts = BoundsOptions {
            reducer_overrides: knobs.sort_reducers.clone(),
            ..self.bopts.clone()
        };
        let wb = bounds::compute(self.plan, &self.phys, &bopts);
        let (cm, net) = (CostModel::default(), NetModel::default());
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
                let messages = (self.bopts.num_nodes.max(1) * sb.reducers) as u64;
                cost_ns = cost_ns.saturating_add(duration_ns(net.transfer_time(messages, bytes)));
                // Reduce side critical path: the busiest reducer.
                let covers_profiled = self.profiled.is_some_and(|(job, _)| {
                    sb.id == job.id || sb.id.starts_with(&format!("{}+", job.id))
                });
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
        Predicted {
            cost_ns,
            max_load: est_max_load,
            shuffle_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Planner;
    use crate::stats::KeyCollector;
    use papar_record::Value;
    use std::collections::HashMap;

    /// The shipped Figure 8 example: sort by `seq_size`, deal
    /// round-robin.
    fn blast_plan() -> WorkflowPlan {
        let planner = Planner::from_xml(
            include_str!("../../../examples/configs/blast_partition.xml"),
            &[include_str!("../../../examples/configs/blast_db.xml")],
        )
        .unwrap();
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
    fn a_rung_not_lighter_than_the_literal_is_rejected_naming_both_loads() {
        // Uniform keys with a 16-reducer literal on 4 nodes: every rung
        // with fewer reducers carries a heavier busiest reducer.
        let keys: Vec<i32> = (0..20_000).map(|i| (i * 7919) % 100_000).collect();
        let stats = stats_of(&keys);
        let opts = ExecOptions {
            default_reducers: Some(16),
            ..ExecOptions::default()
        };
        let d = choose(&blast_plan(), 4, &opts, Some(&stats));
        assert_eq!(d.reducer_override("sort"), Some(16));
        let literal = d.rationale.predicted.max_load;
        let four = d
            .rationale
            .rejected
            .iter()
            .find(|r| r.knobs == "reducers{sort=4}")
            .expect("the 4-reducer rung is rejected");
        assert!(
            four.reason
                .contains(&format!("the literal plan's {literal}")),
            "{}",
            four.reason
        );
    }

    #[test]
    fn an_under_partitioned_literal_is_replaced() {
        // No literal on 4 nodes means 4 reducers; uniform keys balance
        // over 16, whose busiest reducer is lighter and whose cost is
        // lower.
        let keys: Vec<i32> = (0..20_000).map(|i| (i * 7919) % 100_000).collect();
        let stats = stats_of(&keys);
        let d = choose(&blast_plan(), 4, &ExecOptions::default(), Some(&stats));
        assert_eq!(d.reducer_override("sort"), Some(16));
        assert!(d.rationale.predicted.max_load <= 20_000 / 16 + stats.resolution());
    }

    #[test]
    fn over_partitioning_a_tiny_domain_is_rejected() {
        // 3 distinct keys: every ladder rung above 3 reducers is
        // provably empty-partitioned. The 8-reducer literal is too, but
        // it is the bar, never a rejection; the 3-reducer rung only ties
        // its busiest reducer (one key's records), so the literal stays.
        let keys: Vec<i32> = (0..6000).map(|i| i % 3).collect();
        let plan = blast_plan();
        let stats = stats_of(&keys);
        let d = choose(&plan, 8, &ExecOptions::default(), Some(&stats));
        assert_eq!(d.reducer_override("sort"), Some(8));
        let rejected = &d.rationale.rejected;
        assert!(rejected.iter().any(|r| r.reason.contains("provably empty")));
        assert!(rejected.iter().all(|r| r.knobs != "reducers{sort=8}"));
    }

    #[test]
    fn no_stats_keeps_configured_knobs() {
        let plan = blast_plan();
        let opts = ExecOptions::default();
        let d = choose(&plan, 4, &opts, None);
        assert!(d.knobs().sort_reducers.is_empty());
        assert_eq!(d.rationale.stats_job, "(none)");
        assert_eq!(d.rationale.considered, 1);
    }

    #[test]
    fn rationale_render_reproduces_the_decision() {
        let plan = blast_plan();
        let keys: Vec<i32> = (0..5000).map(|i| i % 97).collect();
        let stats = stats_of(&keys);
        let d = choose(&plan, 4, &ExecOptions::default(), Some(&stats));
        let rendered = d.rationale.render();
        // Every chosen knob and the stats fingerprint are in the text the
        // fingerprint hashes.
        assert!(rendered.contains("adaptive plan rationale"));
        assert!(rendered.contains(&d.rationale.chosen.summary()));
        assert!(rendered.contains(&format!("{:#018x}", d.rationale.stats_fingerprint)));
        assert_eq!(
            d.rationale.fingerprint(),
            wire::checksum(rendered.as_bytes())
        );
    }
}
