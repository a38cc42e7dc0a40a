//! Key statistics: the cheap sampling pre-pass the adaptive planner
//! feeds on (ROADMAP item 3, "pick reducer counts, sampling rates,
//! range-vs-cyclic partitioners, and fusion decisions from sampled key
//! statistics").
//!
//! The engine already samples keys before every sort to place its range
//! boundaries (paper Section III-D); this module runs the same stride
//! sampling *before planning* and condenses what it saw into a
//! [`KeyStats`] artifact: total count, a distinct-key estimate, interior
//! quantiles, the top-k hot keys, and a capped sorted sample the cost
//! evaluator replays candidate boundary placements against.
//!
//! Everything here is deterministic: the stride walk visits entries in
//! dataset order, ties sort by `Value::cmp`, and the sample cap
//! re-strides rather than randomizes — so the same input bytes always
//! produce the same `KeyStats`, the same fingerprint, and (downstream)
//! the same `PlanRationale`.

use papar_record::batch::Batch;
use papar_record::{wire, Value};
use std::fmt::Write as _;

use crate::error::{CoreError, Result};
use crate::plan::{JobKind, WorkflowPlan};

/// Top-k hot keys retained in the artifact.
pub const TOP_K: usize = 4;

/// Number of equal-probability buckets the quantile summary describes
/// (the artifact stores the `NUM_QUANTILES - 1` interior cut points).
pub const NUM_QUANTILES: usize = 8;

/// Ceiling on the retained sorted sample; larger samples are re-strided
/// down (deterministically) before being stored.
pub const SAMPLE_CAP: usize = 4096;

/// Summary of one keyed job's input key distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyStats {
    /// The keyed job (sort or group) the statistics describe.
    pub job: String,
    /// Key field index within the job's input schema.
    pub key_idx: usize,
    /// Total entries observed (every entry, not just sampled ones).
    pub count: u64,
    /// Sampling stride used (1 in `stride` entries).
    pub stride: usize,
    /// Entries actually sampled.
    pub sampled: u64,
    /// Distinct keys among the sampled entries.
    pub distinct_sampled: u64,
    /// Interior sample quantiles (`NUM_QUANTILES - 1` cut points,
    /// ascending; empty when nothing was sampled).
    pub quantiles: Vec<Value>,
    /// The hottest sampled keys as `(key, sampled_occurrences)`, most
    /// frequent first, ties broken by ascending key.
    pub hot: Vec<(Value, u64)>,
    /// Sorted sample (duplicates kept — they carry the frequency signal),
    /// capped at [`SAMPLE_CAP`] by re-striding.
    pub sample: Vec<Value>,
}

impl KeyStats {
    /// Estimated distinct keys in the full input.
    ///
    /// Heuristic, but deterministic and honest at both extremes: when the
    /// sample repeats keys heavily (fewer than half the samples unique)
    /// the key domain is saturated and the sampled distinct count is the
    /// estimate; when the sample is (nearly) all-unique the true count is
    /// unknown up to `distinct_sampled * stride`, capped by the record
    /// count.
    pub fn distinct_estimate(&self) -> u64 {
        if self.sampled == 0 {
            return 0;
        }
        if self.distinct_sampled < self.sampled / 2 {
            self.distinct_sampled
        } else {
            self.distinct_sampled
                .saturating_mul(self.stride as u64)
                .min(self.count)
        }
    }

    /// Estimated full-input occurrences of the hottest key (0 when
    /// nothing was sampled).
    pub fn hot_key_estimate(&self) -> u64 {
        match self.hot.first() {
            Some((_, n)) => scale(*n, self.count, self.sampled),
            None => 0,
        }
    }

    /// Estimated records landing on each range for the given ascending
    /// boundary list (`boundaries.len() + 1` ranges, the sampler's
    /// `[b[i-1], b[i])` convention), scaled from the sample to the full
    /// count.
    pub fn range_loads(&self, boundaries: &[Value]) -> Vec<u64> {
        let mut loads = Vec::with_capacity(boundaries.len() + 1);
        let mut prev = 0usize;
        for b in boundaries {
            let at = self.sample.partition_point(|k| k < b);
            loads.push(scale((at - prev) as u64, self.count, self.sampled));
            prev = at;
        }
        loads.push(scale(
            (self.sample.len() - prev) as u64,
            self.count,
            self.sampled,
        ));
        loads
    }

    /// Estimated busiest-range load for the given boundaries.
    pub fn max_range_load(&self, boundaries: &[Value]) -> u64 {
        self.range_loads(boundaries).into_iter().max().unwrap_or(0)
    }

    /// Canonical text of the artifact — every field, including the capped
    /// sample, so two inputs with different key distributions never share
    /// a fingerprint.
    pub fn canon(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "keystats job='{}' key_idx={} count={} stride={} sampled={} distinct={}",
            self.job, self.key_idx, self.count, self.stride, self.sampled, self.distinct_sampled
        );
        let _ = writeln!(out, "quantiles={:?}", self.quantiles);
        let _ = writeln!(out, "hot={:?}", self.hot);
        let _ = writeln!(out, "sample={:?}", self.sample);
        out
    }

    /// FNV-1a fingerprint of [`canon`](Self::canon) — what the serve
    /// plan cache and checkpoint fingerprints fold in so an adaptive
    /// decision is never reused against data it was not derived from.
    pub fn fingerprint(&self) -> u64 {
        wire::checksum(self.canon().as_bytes())
    }
}

/// Scale a sampled quantity to the full population: `n * count / sampled`
/// with saturating integer arithmetic (0 when nothing was sampled).
fn scale(n: u64, count: u64, sampled: u64) -> u64 {
    if sampled == 0 {
        return 0;
    }
    ((n as u128).saturating_mul(count as u128) / sampled as u128) as u64
}

/// Streaming stride sampler: offer every key in dataset order (across
/// fragment boundaries — the stride position is global, so a flat input
/// and the same input scattered into fragments sample identically).
#[derive(Debug, Default)]
pub struct KeyCollector {
    stride: usize,
    pos: u64,
    count: u64,
    sample: Vec<Value>,
}

impl KeyCollector {
    /// A collector sampling 1 in `stride` keys.
    pub fn new(stride: usize) -> Self {
        KeyCollector {
            stride: stride.max(1),
            pos: 0,
            count: 0,
            sample: Vec::new(),
        }
    }

    /// Offer one key.
    pub fn offer(&mut self, key: &Value) {
        if self.pos.is_multiple_of(self.stride as u64) {
            self.sample.push(key.clone());
        }
        self.pos += 1;
        self.count += 1;
    }

    /// Offer every entry key of a batch: records (or rows) for flat
    /// batches, each group's first record for packed ones (the same convention the sort
    /// sampler uses).
    pub fn offer_batch(&mut self, batch: &Batch, key_idx: usize) -> Result<()> {
        match batch {
            Batch::Flat(records) => {
                for r in records {
                    self.offer(r.require(key_idx).map_err(CoreError::from)?);
                }
            }
            Batch::Packed(groups) => {
                for g in groups {
                    let first = g
                        .records
                        .first()
                        .ok_or_else(|| CoreError::exec("packed group with no members"))?;
                    self.offer(first.require(key_idx).map_err(CoreError::from)?);
                }
            }
            Batch::Rows(rows) => {
                for row in rows.iter() {
                    self.offer(&row.field(key_idx).map_err(CoreError::from)?);
                }
            }
        }
        Ok(())
    }

    /// Condense into the [`KeyStats`] artifact for `job`.
    pub fn finish(self, job: &str, key_idx: usize) -> KeyStats {
        let KeyCollector {
            stride,
            count,
            mut sample,
            ..
        } = self;
        let sampled = sample.len() as u64;
        sample.sort();
        // Re-stride an oversized sample down to the cap, keeping the
        // distribution shape (every k-th of the *sorted* sample).
        if sample.len() > SAMPLE_CAP {
            let k = sample.len().div_ceil(SAMPLE_CAP);
            sample = sample.into_iter().step_by(k).collect();
        }
        let mut distinct = 0u64;
        let mut hot: Vec<(Value, u64)> = Vec::new();
        let mut i = 0;
        while i < sample.len() {
            let mut j = i + 1;
            while j < sample.len() && sample[j] == sample[i] {
                j += 1;
            }
            distinct += 1;
            let run = (j - i) as u64;
            // Keep the TOP_K heaviest runs; stable over ascending keys, so
            // ties resolve to the smaller key.
            hot.push((sample[i].clone(), run));
            hot.sort_by_key(|h| std::cmp::Reverse(h.1));
            hot.truncate(TOP_K);
            i = j;
        }
        let mut quantiles = Vec::new();
        if !sample.is_empty() {
            let n = sample.len();
            for q in 1..NUM_QUANTILES {
                quantiles.push(sample[q * (n - 1) / NUM_QUANTILES].clone());
            }
        }
        KeyStats {
            job: job.to_string(),
            key_idx,
            count,
            stride,
            sampled,
            distinct_sampled: distinct,
            quantiles,
            hot,
            sample,
        }
    }
}

/// The job whose input key distribution the planner profiles: the first
/// sort or group job all of whose inputs are external (its keys are
/// computable from the scattered data alone, before anything runs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsTarget {
    /// Index into `WorkflowPlan::jobs`.
    pub job_idx: usize,
    /// The job id.
    pub job_id: String,
    /// Key field index within the job's input schema.
    pub key_idx: usize,
    /// The external input datasets the job reads, in declaration order.
    pub inputs: Vec<String>,
}

/// Find the plan's stats target, if it has one.
pub fn stats_target(plan: &WorkflowPlan) -> Option<StatsTarget> {
    for (i, job) in plan.jobs.iter().enumerate() {
        let key_idx = match &job.kind {
            JobKind::Sort { key_idx, .. } | JobKind::Group { key_idx, .. } => *key_idx,
            _ => continue,
        };
        let all_external = job
            .inputs
            .iter()
            .all(|name| plan.external_inputs.iter().any(|(n, _)| n == name));
        if all_external {
            return Some(StatsTarget {
                job_idx: i,
                job_id: job.id.clone(),
                key_idx,
                inputs: job.inputs.clone(),
            });
        }
        // The first keyed job reads derived data: its keys do not exist
        // before the run, so the planner has nothing to sample.
        return None;
    }
    None
}

/// Collect [`KeyStats`] for a plan from its external inputs — the one
/// stats walk, shared by the pre-run planner and the runner. `fragments`
/// resolves a dataset name to its fragments' batches in global ordinal
/// order (the loaded input's split, or the cluster's scattered copy —
/// the same records in the same order, so both derive the same stats);
/// returns `Ok(None)` when the plan has no stats target or an input is
/// unavailable.
pub fn collect_for_plan<'a, I>(
    plan: &WorkflowPlan,
    fragments: impl Fn(&str) -> Option<I>,
    stride: usize,
) -> Result<Option<KeyStats>>
where
    I: IntoIterator<Item = &'a Batch>,
{
    let Some(target) = stats_target(plan) else {
        return Ok(None);
    };
    let mut collector = KeyCollector::new(stride);
    for name in &target.inputs {
        let Some(batches) = fragments(name) else {
            return Ok(None);
        };
        for batch in batches {
            collector.offer_batch(batch, target.key_idx)?;
        }
    }
    Ok(Some(collector.finish(&target.job_id, target.key_idx)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_of(keys: &[i32], stride: usize) -> KeyStats {
        let mut c = KeyCollector::new(stride);
        for k in keys {
            c.offer(&Value::Int(*k));
        }
        c.finish("sort", 0)
    }

    #[test]
    fn counts_and_sample_follow_the_stride() {
        let keys: Vec<i32> = (0..100).collect();
        let s = stats_of(&keys, 10);
        assert_eq!(s.count, 100);
        assert_eq!(s.sampled, 10);
        assert_eq!(s.distinct_sampled, 10);
        assert_eq!(s.quantiles.len(), NUM_QUANTILES - 1);
        assert!(s.quantiles.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn hot_keys_rank_by_frequency_then_key() {
        let mut keys = vec![5; 50];
        keys.extend(vec![9; 30]);
        keys.extend(100..120);
        let s = stats_of(&keys, 1);
        assert_eq!(s.hot[0], (Value::Int(5), 50));
        assert_eq!(s.hot[1], (Value::Int(9), 30));
        assert_eq!(s.hot_key_estimate(), 50);
    }

    #[test]
    fn saturated_domain_keeps_distinct_estimate_small() {
        // 1000 keys over a 4-value domain, stride 7 (coprime with the
        // period, so the sample sees every value): the sample repeats
        // heavily, so the estimate must stay at the sampled distinct
        // count instead of scaling by the stride.
        let keys: Vec<i32> = (0..1000).map(|i| i % 4).collect();
        let s = stats_of(&keys, 7);
        assert_eq!(s.distinct_estimate(), 4);
        // All-unique sample: estimate scales by stride, capped at count.
        let keys: Vec<i32> = (0..1000).collect();
        let s = stats_of(&keys, 8);
        assert_eq!(s.distinct_estimate(), 1000);
    }

    #[test]
    fn range_loads_replay_boundary_placements() {
        let keys: Vec<i32> = (0..100).collect();
        let s = stats_of(&keys, 1);
        let loads = s.range_loads(&[Value::Int(25), Value::Int(50), Value::Int(75)]);
        assert_eq!(loads, vec![25, 25, 25, 25]);
        assert_eq!(s.max_range_load(&[Value::Int(90)]), 90);
    }

    #[test]
    fn fingerprint_tracks_the_distribution() {
        let a = stats_of(&(0..100).collect::<Vec<_>>(), 4);
        let b = stats_of(&(0..100).collect::<Vec<_>>(), 4);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let skewed = stats_of(&vec![7; 100], 4);
        assert_ne!(a.fingerprint(), skewed.fingerprint());
    }

    #[test]
    fn sample_cap_restrides_deterministically() {
        let keys: Vec<i32> = (0..20000).collect();
        let s = stats_of(&keys, 1);
        assert!(s.sample.len() <= SAMPLE_CAP);
        assert_eq!(s.count, 20000);
        let again = stats_of(&keys, 1);
        assert_eq!(s, again);
    }
}
