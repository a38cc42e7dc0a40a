//! Distributed key sampling for balanced reduce ranges (paper Section
//! III-D, "Data Sampling").
//!
//! The sort operator needs a temporary reduce-key corresponding to the
//! *range* of the user key so that reducer `i` receives keys smaller than
//! reducer `i+1`'s and the concatenated reducer outputs are globally
//! sorted. Picking the ranges naively (uniform over the key domain) skews
//! reducers badly on non-uniform data; the paper follows TopCluster-style
//! local sampling: every node samples its local keys, the samples are
//! gathered, and the quantiles of the combined sample become the range
//! boundaries.

use papar_record::prefix;
use papar_record::Value;

use crate::engine::Partitioner;
use crate::Result;

/// The sampling stride: one key in 64 is sampled, matching the regime
/// where the sample is big enough to place boundaries within a fraction of
/// a percent of the true quantiles but cheap next to the sort itself.
pub const SAMPLE_STRIDE: usize = 64;

/// Combine per-node samples and compute up to `num_reducers - 1` range
/// boundaries at the sample quantiles.
///
/// Reducer `i` handles keys in `[boundaries[i-1], boundaries[i])` with the
/// first reducer open below and the last open above. When the sample holds
/// fewer distinct keys than requested reducers, the raw quantiles repeat; a
/// repeated boundary describes an *empty* range, so duplicates are removed
/// and the result may carry fewer than `num_reducers - 1` boundaries. The
/// achievable reducer count is `boundaries.len() + 1`; callers that want to
/// know a collapse happened compare that against what they asked for (the
/// engine surfaces it as a typed `ReducersCollapsed` note instead of running
/// silently empty reducers).
pub fn boundaries_from_samples(per_node: &[Vec<Value>], num_reducers: usize) -> Result<Vec<Value>> {
    let mut all: Vec<Value> = per_node.iter().flatten().cloned().collect();
    if num_reducers <= 1 || all.is_empty() {
        return Ok(Vec::new());
    }
    all.sort();
    let n = all.len();
    let mut out = Vec::with_capacity(num_reducers - 1);
    for i in 1..num_reducers {
        let idx = (i * n / num_reducers).min(n - 1);
        out.push(all[idx].clone());
    }
    out.dedup();
    Ok(out)
}

/// A partitioner that routes keys by sampled range boundaries.
///
/// Each boundary's order-preserving key prefix (`papar_record::prefix`) is
/// precomputed at construction, so the per-key binary search compares raw
/// `u128`s and falls back to `Value::cmp` only on a prefix tie where either
/// side is inexact — the map hot path pays one prefix extraction per key
/// instead of `log(boundaries)` structural comparisons.
#[derive(Debug, Clone)]
pub struct RangePartitioner {
    boundaries: Vec<Value>,
    /// `(packed66, exact)` per boundary, parallel to `boundaries`.
    prefixes: Vec<(u128, bool)>,
    /// The boundaries as `i64`s, when every one is an `Int` or a `Long`
    /// and they ascend ([`Partitioner::int_cuts`]).
    ints: Option<Vec<i64>>,
}

impl RangePartitioner {
    /// Build from precomputed boundaries (ascending).
    pub fn new(boundaries: Vec<Value>) -> Self {
        debug_assert!(boundaries.windows(2).all(|w| w[0] <= w[1]));
        let prefixes = boundaries
            .iter()
            .map(|b| {
                let p = prefix::of_value(b);
                (p.packed66(), p.exact)
            })
            .collect();
        let ints = (boundaries.iter())
            .map(|b| match b {
                Value::Int(i) => Some(i64::from(*i)),
                Value::Long(l) => Some(*l),
                _ => None,
            })
            .collect::<Option<Vec<i64>>>()
            .filter(|cuts| cuts.is_sorted());
        RangePartitioner {
            boundaries,
            prefixes,
            ints,
        }
    }

    /// Build by sampling per-node key sets.
    pub fn from_samples(per_node: &[Vec<Value>], num_reducers: usize) -> Result<Self> {
        Ok(Self::new(boundaries_from_samples(per_node, num_reducers)?))
    }

    /// The boundaries (for tests and diagnostics).
    pub fn boundaries(&self) -> &[Value] {
        &self.boundaries
    }
}

impl Partitioner for RangePartitioner {
    fn reducer_for(&self, key: &Value, num_reducers: usize) -> Result<usize> {
        // First range whose boundary exceeds the key. With the right
        // number of boundaries (`num_reducers - 1`) this is always in
        // range; boundaries built for a *different* reducer count used
        // to be silently clamped onto the last reducer, mis-routing
        // keys instead of surfacing the mismatch.
        let kp = prefix::of_value(key);
        let (k66, k_exact) = (kp.packed66(), kp.exact);
        // Manual partition point over `b <= key`, resolved from the
        // precomputed prefixes: strict prefix inequality is always
        // truthful, and a tie with both sides exact means equal keys
        // (see `papar_record::prefix`); only the remaining ties touch
        // the boundary `Value`s.
        let (mut lo, mut hi) = (0usize, self.boundaries.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let (b66, b_exact) = self.prefixes[mid];
            let le = if b66 != k66 {
                b66 < k66
            } else if b_exact && k_exact {
                true // equal keys: `b <= key` holds
            } else {
                self.boundaries[mid] <= *key
            };
            if le {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let r = lo;
        if r >= num_reducers {
            return Err(crate::MrError::PartitionOutOfRange {
                id: r as i64,
                num_reducers,
            });
        }
        Ok(r)
    }

    fn int_cuts(&self) -> Option<IntCuts<'_>> {
        self.ints.as_deref().map(IntCuts::new)
    }
}

/// A range partitioner's cuts as `i64`s, for routing integer keys without
/// building a [`Value`] ([`Partitioner::int_cuts`]): a key's reducer is the
/// number of cuts at or below it, read from the far end when the reducer
/// order is reversed (a descending sort).
#[derive(Debug, Clone, Copy)]
pub struct IntCuts<'a> {
    /// Ascending.
    cuts: &'a [i64],
    reversed: bool,
}

impl<'a> IntCuts<'a> {
    /// Route by `cuts`, which must ascend, in reducer order.
    pub(crate) fn new(cuts: &'a [i64]) -> Self {
        debug_assert!(cuts.is_sorted());
        IntCuts {
            cuts,
            reversed: false,
        }
    }

    /// The same cuts, with reducer `r` renamed `num_reducers - 1 - r`
    /// when `reversed`.
    pub fn reversed(self, reversed: bool) -> Self {
        IntCuts { reversed, ..self }
    }

    /// The reducer of `key`, or [`crate::MrError::PartitionOutOfRange`]
    /// when more cuts lie at or below it than `num_reducers` allows —
    /// exactly what the partitioner's `reducer_for` answers for the key as
    /// a `Value`.
    #[inline]
    pub fn reducer_for(&self, key: i64, num_reducers: usize) -> Result<usize> {
        let r = self.cuts.partition_point(|&c| c <= key);
        if r >= num_reducers {
            return Err(crate::MrError::PartitionOutOfRange {
                id: r as i64,
                num_reducers,
            });
        }
        Ok(if self.reversed {
            num_reducers - 1 - r
        } else {
            r
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ints(v: &[i32]) -> Vec<Value> {
        v.iter().map(|&x| Value::Int(x)).collect()
    }

    #[test]
    fn boundaries_split_uniform_data_evenly() {
        let samples = vec![ints(&(0..100).collect::<Vec<_>>())];
        let b = boundaries_from_samples(&samples, 4).unwrap();
        assert_eq!(b, ints(&[25, 50, 75]));
    }

    #[test]
    fn single_reducer_needs_no_boundaries() {
        let samples = vec![ints(&[5, 1, 9])];
        assert!(boundaries_from_samples(&samples, 1).unwrap().is_empty());
        assert!(boundaries_from_samples(&[], 4).unwrap().is_empty());
    }

    #[test]
    fn few_distinct_keys_collapse_to_achievable_reducers() {
        // Two distinct sample keys cannot feed eight reducers: the raw
        // quantiles repeat, which used to leave provably empty ranges.
        // Dedup collapses to the achievable boundary set.
        let samples = vec![ints(&[3, 3, 3, 3, 9, 9, 9, 9])];
        let b = boundaries_from_samples(&samples, 8).unwrap();
        assert_eq!(b, ints(&[3, 9]), "expected collapse, got {b:?}");
        let p = RangePartitioner::new(b);
        assert_eq!(p.reducer_for(&Value::Int(2), 3).unwrap(), 0);
        assert_eq!(p.reducer_for(&Value::Int(3), 3).unwrap(), 1);
        assert_eq!(p.reducer_for(&Value::Int(9), 3).unwrap(), 2);

        // One distinct key collapses all the way to a single boundary.
        let one = vec![ints(&[7; 16])];
        let b = boundaries_from_samples(&one, 8).unwrap();
        assert_eq!(b, ints(&[7]));
    }

    #[test]
    fn range_partitioner_routes_monotonically() {
        let p = RangePartitioner::new(ints(&[10, 20]));
        assert_eq!(p.reducer_for(&Value::Int(-5), 3).unwrap(), 0);
        assert_eq!(p.reducer_for(&Value::Int(9), 3).unwrap(), 0);
        assert_eq!(p.reducer_for(&Value::Int(10), 3).unwrap(), 1);
        assert_eq!(p.reducer_for(&Value::Int(19), 3).unwrap(), 1);
        assert_eq!(p.reducer_for(&Value::Int(20), 3).unwrap(), 2);
        assert_eq!(p.reducer_for(&Value::Int(1000), 3).unwrap(), 2);
    }

    #[test]
    fn mismatched_boundaries_error_instead_of_clamping() {
        // Three boundaries imply four reducers; asking for two must
        // surface the mismatch for high keys, not pile them onto the
        // last reducer.
        let p = RangePartitioner::new(ints(&[10, 20, 30]));
        assert_eq!(p.reducer_for(&Value::Int(5), 2).unwrap(), 0);
        assert!(matches!(
            p.reducer_for(&Value::Int(25), 2),
            Err(crate::MrError::PartitionOutOfRange {
                id: 2,
                num_reducers: 2
            })
        ));
    }

    #[test]
    fn skewed_samples_balance_better_than_uniform_ranges() {
        // 90% of keys are < 10, the rest spread to 1000. A uniform split of
        // the domain would put ~90% of keys in reducer 0; sampled quantiles
        // must spread them.
        let mut keys = Vec::new();
        for i in 0..900 {
            keys.push(Value::Int(i % 10));
        }
        for i in 0..100 {
            keys.push(Value::Int(10 + i * 10));
        }
        let p = RangePartitioner::from_samples(&[keys.clone()], 4).unwrap();
        let mut counts = [0usize; 4];
        for k in &keys {
            counts[p.reducer_for(k, 4).unwrap()] += 1;
        }
        let max = *counts.iter().max().unwrap();
        assert!(
            max < 600,
            "sampled ranges should break up the skew, got {counts:?}"
        );
    }

    #[test]
    fn duplicate_boundaries_stay_deterministic() {
        let p = RangePartitioner::new(ints(&[7, 7, 7]));
        assert_eq!(p.reducer_for(&Value::Int(6), 4).unwrap(), 0);
        assert_eq!(p.reducer_for(&Value::Int(7), 4).unwrap(), 3);
    }

    #[test]
    fn prefix_fast_path_matches_plain_comparison_on_ties() {
        // Boundaries engineered to tie on their 8-byte prefix: long strings
        // sharing a prefix, and Longs beyond f64's 2^53 integer range. The
        // fast path must fall back to Value::cmp and agree with a plain
        // partition_point for every probe.
        let cases: Vec<(Vec<Value>, Vec<Value>)> = vec![
            (
                vec![
                    Value::Str("prefix-aaaa".into()),
                    Value::Str("prefix-bbbb".into()),
                ],
                vec![
                    Value::Str("prefix-a".into()),
                    Value::Str("prefix-aaaa".into()),
                    Value::Str("prefix-abzz".into()),
                    Value::Str("prefix-bbbb".into()),
                    Value::Str("prefix-zzzz".into()),
                    Value::Str("a".into()),
                ],
            ),
            (
                vec![Value::Long((1 << 53) + 2), Value::Long((1 << 53) + 100)],
                vec![
                    Value::Long(1 << 53),
                    Value::Long((1 << 53) + 1),
                    Value::Long((1 << 53) + 2),
                    Value::Long((1 << 53) + 3),
                    Value::Long((1 << 53) + 100),
                    Value::Long(i64::MAX),
                ],
            ),
        ];
        for (bounds, probes) in cases {
            let p = RangePartitioner::new(bounds.clone());
            let n = bounds.len() + 1;
            for key in &probes {
                let expect = bounds.partition_point(|b| b <= key);
                assert_eq!(
                    p.reducer_for(key, n).unwrap(),
                    expect,
                    "key {key:?} against {bounds:?}"
                );
            }
        }
    }

    /// A key where integer routing could go wrong: small values that
    /// repeat, the ends of `i64`, and the neighbourhoods of ±2^53, past
    /// which `long` prefixes are inexact.
    fn edge_key() -> impl Strategy<Value = i64> {
        prop_oneof![
            -4i64..4,
            prop_oneof![
                Just(i64::MIN),
                Just(i64::MIN + 1),
                Just(i64::MAX - 1),
                Just(i64::MAX)
            ],
            ((1i64 << 53) - 3)..((1i64 << 53) + 4),
            (-(1i64 << 53) - 3)..(-(1i64 << 53) + 4),
            any::<i64>(),
        ]
    }

    /// `k` as a `long`, or as an `int` clamped into its range.
    fn key_value(k: i64, long: bool) -> Value {
        if long {
            Value::Long(k)
        } else {
            Value::Int(k.clamp(i32::MIN.into(), i32::MAX.into()) as i32)
        }
    }

    proptest! {
        /// Routing an integer key by the cuts answers what `reducer_for`
        /// answers for it as a `Value` — the same reducer, or the same
        /// out-of-range error — for `int` and `long` keys and cuts,
        /// sampled (so collapsed or empty) and raw (so duplicated) cut
        /// lists, keys equal to a cut, one reducer too few, and both reducer orders.
        #[test]
        fn integer_routing_matches_reducer_for(
            long_keys in any::<bool>(),
            long_cuts in any::<bool>(),
            reversed in any::<bool>(),
            sample in prop::collection::vec(edge_key(), 0..24),
            requested in 1usize..9,
            raw in prop::collection::vec(edge_key(), 0..24),
            keys in prop::collection::vec(edge_key(), 1..24),
            short in 0usize..2,
        ) {
            let sample: Vec<Value> = sample.iter().map(|&k| key_value(k, long_cuts)).collect();
            let sampled = boundaries_from_samples(&[sample], requested)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            let mut raw: Vec<Value> = raw.iter().map(|&k| key_value(k, long_cuts)).collect();
            raw.sort();
            for boundaries in [sampled, raw] {
                let p = RangePartitioner::new(boundaries.clone());
                let cuts = p.int_cuts().map(|c| c.reversed(reversed));
                prop_assert!(cuts.is_some(), "{boundaries:?}");
                let Some(cuts) = cuts else { continue };
                let n = (boundaries.len() + 1 - short).max(1);
                let probes = keys.iter().map(|&k| key_value(k, long_keys));
                for key in probes.chain(boundaries.iter().cloned()) {
                    let want = p.reducer_for(&key, n).map(|r| if reversed { n - 1 - r } else { r });
                    let plain = boundaries.partition_point(|b| *b <= key);
                    prop_assert_eq!(want.is_ok(), plain < n);
                    let got = key.as_i64().map(|k| cuts.reducer_for(k, n));
                    prop_assert_eq!(
                        format!("{got:?}"),
                        format!("{:?}", Some(want)),
                        "key {:?} over {:?} into {}", key, boundaries, n
                    );
                }
            }
        }
    }

    /// Only ascending `int`/`long` boundaries are integer cuts.
    #[test]
    fn integer_cuts_need_ascending_integer_boundaries() {
        let cuts = |b: Vec<Value>| RangePartitioner::new(b).int_cuts().is_some();
        assert!(cuts(Vec::new()));
        assert!(cuts(vec![Value::Int(-1), Value::Long(1 << 60)]));
        assert!(!cuts(vec![Value::Int(1), Value::Double(2.0)]));
        assert!(!cuts(vec![Value::Str("a".into())]));
    }

    #[test]
    fn multi_node_samples_combine() {
        let a = ints(&[1, 2, 3]);
        let b = ints(&[100, 200, 300]);
        let bounds = boundaries_from_samples(&[a, b], 2).unwrap();
        assert_eq!(bounds.len(), 1);
        // The median of the combined sample separates the two nodes' data.
        assert!(bounds[0] >= Value::Int(3) && bounds[0] <= Value::Int(200));
    }
}
