//! Distribution and split policies.
//!
//! Paper Section III-B formalizes distribution policies as permutation
//! matrices: the stride permutation `L_m^{km}` maps `x[i*k + j] -> x[j*m + i]`
//! for `0 <= i < m`, `0 <= j < k`, i.e. a stride-by-`m` shuffle of a vector
//! with `km` entries. Distributing to `m` partitions is then "permute, and
//! send contiguous chunks" (Figure 6): the cyclic policy uses `L_m^{km}`,
//! the block policy uses the identity `L_n^n`.
//!
//! [`StridePermutation`] implements the matrix both as an explicit sparse
//! matrix–vector product (the formalism, used in tests) and as the O(n)
//! closed-form index map (the execution path); property tests assert they
//! agree. [`DistrPolicy`] adds the paper's third policy, `graphVertexCut`,
//! and exposes the end-to-end `partition_of` assignment that mappers apply
//! locally at run time. [`SplitPolicy`] parses the split operator's
//! predicate list (`{>=, 4},{<,4}`, Figure 10).

use papar_record::Value;

use crate::error::{CoreError, Result};

/// The stride permutation `L_m^{n}` over vectors of length `n = k*m`
/// (paper's `L_m^{km}` notation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StridePermutation {
    /// Vector length (`km`).
    pub n: usize,
    /// Stride (`m`), the number of partitions in a distribution.
    pub m: usize,
}

impl StridePermutation {
    /// Construct `L_m^n`. `n` must be a multiple of `m` for the strict
    /// matrix form; [`StridePermutation::generalized_dest`] below covers
    /// the non-divisible case the paper reaches with `L_3^4` in Figure 9.
    pub fn new(n: usize, m: usize) -> Result<Self> {
        if m == 0 || n == 0 {
            return Err(CoreError::plan(format!(
                "stride permutation L_{m}^{n} needs positive dimensions"
            )));
        }
        Ok(StridePermutation { n, m })
    }

    /// Destination index of source index `src` under the matrix definition
    /// `x[ik + j] -> x[jm + i]` (i.e. output position `ik + j` gathers input
    /// position `jm + i`), for `m | n`: writing `src = jm + i` with
    /// `i < m`, the destination is `i*k + j`.
    ///
    /// In distribution terms: after the permutation, the vector is laid out
    /// partition-major — all of partition 0's entries first, and partition
    /// `p` holds exactly the sources with `src % m == p` (cyclic dealing).
    pub fn dest(&self, src: usize) -> usize {
        debug_assert!(src < self.n);
        let k = self.n / self.m;
        let i = src % self.m;
        let j = src / self.m;
        i * k + j
    }

    /// Generalized destination for lengths not divisible by `m`: entry
    /// `src` belongs to partition `src % m` and is the `src / m`-th entry
    /// of that partition; destinations are partition-major with the earlier
    /// partitions taking the remainder (exactly the paper's `L_3^4`, which
    /// sends entries {0,3} to partition 0, {1} to 1, {2} to 2).
    pub fn generalized_dest(&self, src: usize) -> usize {
        debug_assert!(src < self.n);
        let part = src % self.m;
        let rank = src / self.m;
        // Partitions 0..extra hold ceil(n/m), the rest floor(n/m).
        let base = self.n / self.m;
        let extra = self.n % self.m;
        let part_start = if part < extra {
            part * (base + 1)
        } else {
            extra * (base + 1) + (part - extra) * base
        };
        part_start + rank
    }

    /// The permutation as an explicit 0/1 matrix, row-major (`n x n`).
    /// Row `dest`, column `src` is 1 when `dest(src) = dest`. Exposed for
    /// the formal matrix–vector tests; never used on the execution path.
    pub fn to_matrix(&self) -> Vec<Vec<u8>> {
        let mut mat = vec![vec![0u8; self.n]; self.n];
        #[allow(clippy::needless_range_loop)] // src is a matrix column index
        for src in 0..self.n {
            let d = if self.n.is_multiple_of(self.m) {
                self.dest(src)
            } else {
                self.generalized_dest(src)
            };
            mat[d][src] = 1;
        }
        mat
    }

    /// Apply as a matrix–vector product: `out[dest] = in[src]`.
    pub fn apply_matrix<T: Clone>(&self, input: &[T]) -> Result<Vec<T>> {
        if input.len() != self.n {
            return Err(CoreError::exec(format!(
                "permutation L_{}^{} applied to a vector of length {}",
                self.m,
                self.n,
                input.len()
            )));
        }
        let mat = self.to_matrix();
        let mut out: Vec<Option<T>> = vec![None; self.n];
        for (dest, row) in mat.iter().enumerate() {
            for (src, &bit) in row.iter().enumerate() {
                if bit == 1 {
                    out[dest] = Some(input[src].clone());
                }
            }
        }
        Ok(out
            .into_iter()
            .map(|v| v.expect("permutation is total"))
            .collect())
    }

    /// Apply via the closed-form index map — O(n), the execution path.
    pub fn apply<T: Clone>(&self, input: &[T]) -> Result<Vec<T>> {
        if input.len() != self.n {
            return Err(CoreError::exec(format!(
                "permutation L_{}^{} applied to a vector of length {}",
                self.m,
                self.n,
                input.len()
            )));
        }
        let mut out: Vec<Option<T>> = vec![None; self.n];
        for (src, item) in input.iter().enumerate() {
            let d = if self.n.is_multiple_of(self.m) {
                self.dest(src)
            } else {
                self.generalized_dest(src)
            };
            out[d] = Some(item.clone());
        }
        Ok(out
            .into_iter()
            .map(|v| v.expect("permutation is total"))
            .collect())
    }
}

/// A distribution policy (the `distribute` operator's `policy` parameter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistrPolicy {
    /// Round-robin: entry `g` (global index) goes to partition `g % P`.
    /// Formalized as `L_P^{n}`.
    Cyclic,
    /// Contiguous chunks: entry `g` goes to partition `g * P / n` (with the
    /// earlier partitions taking the remainder). Formalized as the identity
    /// permutation `L_n^n`.
    Block,
    /// The hybrid-cut routing of paper Figure 11: packed low-degree groups
    /// go to `hash(group key) % P`; flat high-degree edges go to
    /// `hash(source vertex) % P`, spreading a high-degree vertex's in-edges
    /// across partitions.
    GraphVertexCut,
}

impl DistrPolicy {
    /// Parse the configuration spellings (`roundRobin`/`cyclic`, `block`,
    /// `graphVertexCut`).
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "roundRobin" | "cyclic" => Ok(DistrPolicy::Cyclic),
            "block" => Ok(DistrPolicy::Block),
            "graphVertexCut" => Ok(DistrPolicy::GraphVertexCut),
            other => Err(CoreError::plan(format!(
                "unknown distribution policy '{other}'"
            ))),
        }
    }

    /// Partition of the entry at global index `g` out of `total`, for the
    /// index-based policies.
    ///
    /// # Panics
    ///
    /// Panics if called on [`DistrPolicy::GraphVertexCut`], which routes by
    /// value, not by index — use [`DistrPolicy::partition_of_value`].
    pub fn partition_of_index(&self, g: usize, total: usize, parts: usize) -> usize {
        assert!(parts > 0);
        match self {
            DistrPolicy::Cyclic => g % parts,
            DistrPolicy::Block => {
                if total == 0 {
                    return 0;
                }
                // Contiguous chunks with earlier chunks taking the
                // remainder, matching `split_evenly`.
                let base = total / parts;
                let extra = total % parts;
                let boundary = extra * (base + 1);
                if g < boundary {
                    g / (base + 1)
                } else {
                    // base == 0 only when total < parts, and then every
                    // index is below `boundary`; the checked_div fallback
                    // keeps clippy and the invariant visible.
                    (g - boundary)
                        .checked_div(base)
                        .map_or(parts - 1, |q| extra + q)
                }
            }
            DistrPolicy::GraphVertexCut => {
                panic!("graphVertexCut routes by value; use partition_of_value")
            }
        }
    }

    /// Partition for value-routed policies (`graphVertexCut`).
    pub fn partition_of_value(&self, routing_key: &Value, parts: usize) -> usize {
        assert!(parts > 0);
        (routing_key.stable_hash() % parts as u64) as usize
    }

    /// The permutation matrix this policy generates at run time for a
    /// vector of `n` entries (paper Figure 6): `L_P^n` for cyclic, `L_n^n`
    /// (identity) for block. Value-routed policies have no matrix form.
    pub fn permutation(&self, n: usize, parts: usize) -> Result<Option<StridePermutation>> {
        match self {
            DistrPolicy::Cyclic => Ok(Some(StridePermutation::new(n.max(1), parts)?)),
            DistrPolicy::Block => Ok(Some(StridePermutation::new(n.max(1), n.max(1))?)),
            DistrPolicy::GraphVertexCut => Ok(None),
        }
    }
}

/// One comparison predicate of a split policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitOp {
    /// `>=`
    Ge,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `<`
    Lt,
    /// `==`
    Eq,
}

/// A split condition: `key <op> threshold`.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitCond {
    /// Comparison operator.
    pub op: SplitOp,
    /// Threshold value.
    pub threshold: Value,
}

impl SplitCond {
    /// Evaluate the condition against a key value.
    pub fn matches(&self, key: &Value) -> bool {
        match self.op {
            SplitOp::Ge => key >= &self.threshold,
            SplitOp::Gt => key > &self.threshold,
            SplitOp::Le => key <= &self.threshold,
            SplitOp::Lt => key < &self.threshold,
            SplitOp::Eq => key == &self.threshold,
        }
    }
}

/// An ordered list of split conditions; an entry goes to the output of the
/// *first* matching condition (paper Figure 10's
/// `{>=, $threshold},{<,$threshold}` sends high-degree entries to the first
/// output, the rest to the second).
#[derive(Debug, Clone, PartialEq)]
pub struct SplitPolicy {
    /// Conditions in output order.
    pub conditions: Vec<SplitCond>,
}

impl SplitPolicy {
    /// Parse a policy expression after `$` substitution, e.g.
    /// `{>=, 4},{<,4}`.
    pub fn parse(s: &str) -> Result<Self> {
        let mut conditions = Vec::new();
        let mut rest = s.trim();
        while !rest.is_empty() {
            if !rest.starts_with('{') {
                return Err(CoreError::plan(format!(
                    "split policy must be a list of {{op, value}} groups, got '{s}'"
                )));
            }
            let end = rest.find('}').ok_or_else(|| {
                CoreError::plan(format!("unterminated '{{' in split policy '{s}'"))
            })?;
            let body = &rest[1..end];
            let (op_s, val_s) = body.split_once(',').ok_or_else(|| {
                CoreError::plan(format!("split condition '{{{body}}}' needs 'op, value'"))
            })?;
            let op = match op_s.trim() {
                ">=" => SplitOp::Ge,
                ">" => SplitOp::Gt,
                "<=" => SplitOp::Le,
                "<" => SplitOp::Lt,
                "==" | "=" => SplitOp::Eq,
                other => {
                    return Err(CoreError::plan(format!(
                        "unknown split comparison '{other}'"
                    )))
                }
            };
            let val_s = val_s.trim();
            let threshold = if let Ok(i) = val_s.parse::<i64>() {
                Value::Long(i)
            } else if let Ok(f) = val_s.parse::<f64>() {
                Value::Double(f)
            } else {
                Value::from(val_s)
            };
            conditions.push(SplitCond { op, threshold });
            rest = rest[end + 1..].trim_start();
            if let Some(stripped) = rest.strip_prefix(',') {
                rest = stripped.trim_start();
            }
        }
        if conditions.is_empty() {
            return Err(CoreError::plan("split policy has no conditions"));
        }
        Ok(SplitPolicy { conditions })
    }

    /// Index of the first matching condition for `key`, if any.
    pub fn route(&self, key: &Value) -> Option<usize> {
        self.conditions.iter().position(|c| c.matches(key))
    }

    /// Number of outputs this policy routes to.
    pub fn arity(&self) -> usize {
        self.conditions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure6_cyclic_l2_4() {
        // Paper Figure 6(a): L_2^4 permutes [x0, x1, x2, x3] so the two
        // partitions receive {x0, x2} and {x1, x3}.
        let p = StridePermutation::new(4, 2).unwrap();
        let out = p.apply(&[0, 1, 2, 3]).unwrap();
        assert_eq!(out, vec![0, 2, 1, 3]);
    }

    #[test]
    fn figure6_block_l4_4_is_identity() {
        let p = StridePermutation::new(4, 4).unwrap();
        let out = p.apply(&[0, 1, 2, 3]).unwrap();
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn figure9_generalized_l3_4() {
        // Paper Figure 9: 4 entries, 3 partitions. Partition 0 gets entries
        // {0, 3}, partition 1 gets {1}, partition 2 gets {2}.
        let p = StridePermutation::new(4, 3).unwrap();
        let out = p.apply(&["e0", "e1", "e2", "e3"]).unwrap();
        assert_eq!(out, vec!["e0", "e3", "e1", "e2"]);
    }

    #[test]
    fn l3_3_does_not_permute() {
        // "Note that L_3^3 in this case happens not to permute data".
        let p = StridePermutation::new(3, 3).unwrap();
        assert_eq!(p.apply(&[7, 8, 9]).unwrap(), vec![7, 8, 9]);
    }

    #[test]
    fn matrix_and_closed_form_agree() {
        for n in 1..=24usize {
            for m in 1..=n {
                let p = StridePermutation::new(n, m).unwrap();
                let input: Vec<usize> = (0..n).collect();
                assert_eq!(
                    p.apply(&input).unwrap(),
                    p.apply_matrix(&input).unwrap(),
                    "L_{m}^{n}"
                );
            }
        }
    }

    #[test]
    fn permutation_is_a_bijection() {
        for (n, m) in [(12, 3), (13, 5), (7, 7), (8, 1)] {
            let p = StridePermutation::new(n, m).unwrap();
            let out = p.apply(&(0..n).collect::<Vec<_>>()).unwrap();
            let mut sorted = out.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn wrong_length_vector_is_rejected() {
        let p = StridePermutation::new(4, 2).unwrap();
        assert!(p.apply(&[1, 2, 3]).is_err());
        assert!(p.apply_matrix(&[1, 2, 3]).is_err());
        assert!(StridePermutation::new(0, 2).is_err());
        assert!(StridePermutation::new(4, 0).is_err());
    }

    #[test]
    fn cyclic_assignment_matches_permute_then_chunk() {
        // The execution path computes partition_of_index directly; verify
        // it equals "apply L_P^n then cut contiguous chunks".
        for (n, parts) in [(12, 3), (10, 4), (7, 3), (16, 2)] {
            let perm = StridePermutation::new(n, parts).unwrap();
            let permuted = perm.apply(&(0..n).collect::<Vec<_>>()).unwrap();
            // Chunk boundaries: earlier partitions take the remainder.
            let base = n / parts;
            let extra = n % parts;
            let mut idx = 0;
            for part in 0..parts {
                let sz = base + usize::from(part < extra);
                for _ in 0..sz {
                    let src = permuted[idx];
                    assert_eq!(
                        DistrPolicy::Cyclic.partition_of_index(src, n, parts),
                        part,
                        "n={n} parts={parts} src={src}"
                    );
                    idx += 1;
                }
            }
        }
    }

    #[test]
    fn block_assignment_is_contiguous_and_balanced() {
        let total = 10;
        let parts = 3;
        let assigned: Vec<usize> = (0..total)
            .map(|g| DistrPolicy::Block.partition_of_index(g, total, parts))
            .collect();
        assert_eq!(assigned, vec![0, 0, 0, 0, 1, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn block_handles_fewer_entries_than_partitions() {
        let assigned: Vec<usize> = (0..2)
            .map(|g| DistrPolicy::Block.partition_of_index(g, 2, 5))
            .collect();
        assert_eq!(assigned, vec![0, 1]);
    }

    #[test]
    fn policy_parsing() {
        assert_eq!(
            DistrPolicy::parse("roundRobin").unwrap(),
            DistrPolicy::Cyclic
        );
        assert_eq!(DistrPolicy::parse("cyclic").unwrap(), DistrPolicy::Cyclic);
        assert_eq!(DistrPolicy::parse("block").unwrap(), DistrPolicy::Block);
        assert_eq!(
            DistrPolicy::parse("graphVertexCut").unwrap(),
            DistrPolicy::GraphVertexCut
        );
        assert!(DistrPolicy::parse("bogus").is_err());
    }

    #[test]
    fn policy_permutation_forms() {
        assert_eq!(
            DistrPolicy::Cyclic.permutation(8, 2).unwrap(),
            Some(StridePermutation { n: 8, m: 2 })
        );
        assert_eq!(
            DistrPolicy::Block.permutation(8, 2).unwrap(),
            Some(StridePermutation { n: 8, m: 8 })
        );
        assert_eq!(DistrPolicy::GraphVertexCut.permutation(8, 2).unwrap(), None);
    }

    #[test]
    fn split_policy_parses_figure10() {
        let p = SplitPolicy::parse("{>=, 4},{<,4}").unwrap();
        assert_eq!(p.arity(), 2);
        assert_eq!(p.route(&Value::Long(4)), Some(0));
        assert_eq!(p.route(&Value::Long(5)), Some(0));
        assert_eq!(p.route(&Value::Long(3)), Some(1));
    }

    #[test]
    fn split_policy_first_match_wins_and_none_possible() {
        let p = SplitPolicy::parse("{==, 7},{>, 100}").unwrap();
        assert_eq!(p.route(&Value::Long(7)), Some(0));
        assert_eq!(p.route(&Value::Long(200)), Some(1));
        assert_eq!(p.route(&Value::Long(8)), None);
    }

    #[test]
    fn split_policy_rejects_malformed() {
        assert!(SplitPolicy::parse("").is_err());
        assert!(SplitPolicy::parse("nope").is_err());
        assert!(SplitPolicy::parse("{>= 4}").is_err());
        assert!(SplitPolicy::parse("{~~, 4}").is_err());
        assert!(SplitPolicy::parse("{>=, 4").is_err());
    }

    #[test]
    fn split_policy_string_and_float_thresholds() {
        let p = SplitPolicy::parse("{<, 2.5}").unwrap();
        assert_eq!(p.route(&Value::Double(2.0)), Some(0));
        assert_eq!(p.route(&Value::Double(3.0)), None);
        let q = SplitPolicy::parse("{==, abc}").unwrap();
        assert_eq!(q.route(&Value::Str("abc".into())), Some(0));
    }

    #[test]
    fn value_routed_partition_is_stable() {
        let v = Value::Long(42);
        let a = DistrPolicy::GraphVertexCut.partition_of_value(&v, 7);
        let b = DistrPolicy::GraphVertexCut.partition_of_value(&v, 7);
        assert_eq!(a, b);
        assert!(a < 7);
    }

    #[test]
    #[should_panic(expected = "graphVertexCut routes by value")]
    fn graph_vertex_cut_has_no_index_form() {
        DistrPolicy::GraphVertexCut.partition_of_index(0, 1, 1);
    }
}
