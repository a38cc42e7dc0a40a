//! Key statistics: the cheap sampling pre-pass the adaptive planner
//! feeds on when it chooses a sort's reducer count.
//!
//! The engine already samples keys before every sort to place its range
//! boundaries (paper Section III-D); this module draws that same sample
//! (the configured stride, each fragment from its first entry) *before
//! planning* and condenses what it saw into a [`KeyStats`] artifact:
//! total count, a distinct-key estimate, the hottest key, and the sorted
//! sample the cost evaluator replays candidate boundary placements
//! against. It keeps the whole sample, as the sort does, so a replayed
//! cut is the sort's cut at any input size. One sample entry stands for
//! [`KeyStats::resolution`] records, so a replayed load is no finer
//! than that.
//!
//! Everything here is deterministic: the stride walk visits entries in
//! dataset order and ties sort by `Value::cmp` — so the same input
//! bytes, split into the same fragments, always produce the same `KeyStats`, the same
//! fingerprint, and (downstream) the same `PlanRationale`.

use papar_mr::EntryRef;
use papar_record::batch::Batch;
use papar_record::{wire, Value};
use std::fmt::Write as _;

use crate::error::Result;
use crate::plan::WorkflowPlan;

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
    /// Distinct keys among the sampled entries.
    pub distinct_sampled: u64,
    /// The hottest sampled key as `(key, occurrences in the sample)`,
    /// ties broken by ascending key (`None` when nothing was
    /// sampled).
    pub hot: Option<(Value, u64)>,
    /// Sorted sample (duplicates kept — they carry the frequency signal):
    /// every entry the sort's boundary pass draws, uncapped, so a replayed
    /// cut is the sort's cut at any input size.
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
        let sampled = self.sample.len() as u64;
        if sampled == 0 {
            return 0;
        }
        if self.distinct_sampled < sampled / 2 {
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
        self.hot.as_ref().map_or(0, |(_, n)| self.scale(*n))
    }

    /// Records one sample entry stands for, rounded up (0 when
    /// nothing was sampled): the finest load a replay can tell apart.
    pub fn resolution(&self) -> u64 {
        match self.sample.len() as u64 {
            0 => 0,
            n => self.count.div_ceil(n),
        }
    }

    /// `n` sample entries scaled to the full count (0 when nothing was
    /// sampled).
    fn scale(&self, n: u64) -> u64 {
        match self.sample.len() as u128 {
            0 => 0,
            len => ((n as u128).saturating_mul(self.count as u128) / len) as u64,
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
            loads.push(self.scale((at - prev) as u64));
            prev = at;
        }
        loads.push(self.scale((self.sample.len() - prev) as u64));
        loads
    }

    /// Estimated busiest-range load for the given boundaries.
    pub fn max_range_load(&self, boundaries: &[Value]) -> u64 {
        self.range_loads(boundaries).into_iter().max().unwrap_or(0)
    }

    /// Canonical text of the artifact — every field, including the
    /// sample, so two inputs with different key distributions never share
    /// a fingerprint.
    pub fn canon(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "keystats job='{}' key_idx={} count={} stride={} distinct={}",
            self.job, self.key_idx, self.count, self.stride, self.distinct_sampled
        );
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

/// Streaming stride sampler: offer every key in dataset order. A batch
/// (one fragment) is sampled from its first entry on, 1 in `stride`,
/// exactly as the sort's boundary pass samples each fragment, so the
/// sample is the very sample the sort places its cuts with.
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

    /// Offer every entry key of a batch, in batch order, as
    /// [`EntryRef::key`] reads it: a packed group's is its first member's
    /// (the same key the sort sampler reads). The stride restarts at the
    /// batch's first entry.
    pub fn offer_batch(&mut self, batch: &Batch, key_idx: usize) -> Result<()> {
        self.pos = 0;
        for entry in EntryRef::all(batch) {
            self.offer(&*entry.key(key_idx)?);
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
        sample.sort();
        let mut distinct = 0u64;
        let mut hot: Option<(Value, u64)> = None;
        for run in sample.chunk_by(|a, b| a == b) {
            distinct += 1;
            // Strictly heavier only: over ascending keys, ties resolve to
            // the smaller key.
            if hot.as_ref().is_none_or(|(_, n)| run.len() as u64 > *n) {
                hot = Some((run[0].clone(), run.len() as u64));
            }
        }
        KeyStats {
            job: job.to_string(),
            key_idx,
            count,
            stride,
            distinct_sampled: distinct,
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
        let Ok((key_idx, ..)) = crate::exec::keyed_kind(job) else {
            continue;
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
/// order (the loaded input's per-node blocks, or the cluster's scattered
/// copy of them — the same blocks in the same order, so both derive the
/// same stats). Each batch is sampled from its first entry, so a caller
/// that cuts the input into other blocks samples other keys. Returns
/// `Ok(None)` when the plan has no stats target or an input is
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
        assert_eq!(s.sample.len(), 10);
        assert_eq!(s.distinct_sampled, 10);
        assert!(s.sample.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(s.resolution(), 10);
    }

    #[test]
    fn each_batch_is_sampled_from_its_first_entry() -> Result<()> {
        // What the sort's boundary pass samples: entries 0 and 3 of each
        // 5-entry fragment at stride 3, not every third key overall.
        let batch = |base: i32| {
            Batch::Flat(
                (base..base + 5)
                    .map(|k| papar_record::Record::new(vec![Value::Int(k)]))
                    .collect(),
            )
        };
        let mut c = KeyCollector::new(3);
        c.offer_batch(&batch(0), 0)?;
        c.offer_batch(&batch(10), 0)?;
        let s = c.finish("sort", 0);
        let keys = [0, 3, 10, 13].map(Value::Int);
        assert_eq!(s.sample, keys);
        Ok(())
    }

    #[test]
    fn hot_keys_rank_by_frequency_then_key() {
        let mut keys = vec![5; 50];
        keys.extend(vec![9; 30]);
        keys.extend(100..120);
        let s = stats_of(&keys, 1);
        assert_eq!(s.hot, Some((Value::Int(5), 50)));
        assert_eq!(s.hot_key_estimate(), 50);
        let tied = stats_of(&[vec![9; 30], vec![5; 30]].concat(), 1);
        assert_eq!(tied.hot, Some((Value::Int(5), 30)));
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
    fn the_whole_sample_is_kept() {
        // The replay must see every entry the sort's boundary pass draws,
        // however large the input.
        let keys: Vec<i32> = (0..20000).collect();
        let s = stats_of(&keys, 1);
        assert_eq!((s.count, s.sample.len()), (20000, 20000));
        assert_eq!(s.range_loads(&[Value::Int(10_000)]), vec![10_000, 10_000]);
        assert_eq!(s.resolution(), 1);
        assert_eq!(s, stats_of(&keys, 1));
    }
}
