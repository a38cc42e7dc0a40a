//! Virtual-clock timing and network modeling.

use std::time::Duration;

/// A simple α–β model of the interconnect: each message costs a fixed
/// latency (α) and each byte costs `1/bandwidth` (β).
///
/// Two presets match the paper's testbed: QDR InfiniBand with RDMA (what
/// MVAPICH2 gives the PaPar/MR-MPI stack) and 10 Gbps Ethernet sockets
/// (what PowerLyra's GraphLab shuffle uses) — the contrast the paper calls
/// out when explaining Figure 15.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetModel {
    /// Per-message latency in seconds.
    pub latency_s: f64,
    /// Bandwidth in bytes per second.
    pub bytes_per_s: f64,
}

impl NetModel {
    /// QDR InfiniBand with RDMA: ~2 µs latency, 32 Gbit/s effective.
    pub fn infiniband_qdr() -> Self {
        NetModel {
            latency_s: 2e-6,
            bytes_per_s: 32e9 / 8.0,
        }
    }

    /// 10 Gbps Ethernet over sockets: ~50 µs latency, 10 Gbit/s nominal
    /// (socket stacks rarely exceed ~70% of line rate; use 7 Gbit/s).
    pub fn ethernet_10g() -> Self {
        NetModel {
            latency_s: 50e-6,
            bytes_per_s: 7e9 / 8.0,
        }
    }

    /// An infinitely fast network (useful to isolate compute effects in
    /// ablation experiments).
    pub fn instant() -> Self {
        NetModel {
            latency_s: 0.0,
            bytes_per_s: f64::INFINITY,
        }
    }

    /// Time to deliver `messages` messages totalling `bytes` bytes.
    ///
    /// Zero work is free on *every* model: without the fast path a
    /// degenerate zero-bandwidth model turned `0/0` into NaN and
    /// reported an eternity for doing nothing, and finite models paid a
    /// float round-trip to compute zero. Otherwise saturates instead of
    /// panicking: byte counts near `u64::MAX` (or a degenerate
    /// zero-bandwidth model) yield `Duration::MAX` rather than tripping
    /// `Duration::from_secs_f64`'s overflow panic.
    pub fn transfer_time(&self, messages: u64, bytes: u64) -> Duration {
        if messages == 0 && bytes == 0 {
            return Duration::ZERO;
        }
        let secs = self.latency_s * messages as f64 + bytes as f64 / self.bytes_per_s;
        if !secs.is_finite() || secs >= Duration::MAX.as_secs_f64() {
            Duration::MAX
        } else {
            Duration::from_secs_f64(secs)
        }
    }
}

impl Default for NetModel {
    /// The default models the paper's primary configuration (InfiniBand).
    fn default() -> Self {
        NetModel::infiniband_qdr()
    }
}

/// Byte/message accounting of one all-to-all exchange.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExchangeStats {
    /// Total bytes moved between distinct nodes (self-sends are free, as
    /// MR-MPI keeps rank-local data in memory).
    pub remote_bytes: u64,
    /// Number of non-empty remote (sender, receiver) transfers.
    pub remote_messages: u64,
    /// Per-node bytes sent to other nodes.
    pub sent_by_node: Vec<u64>,
    /// Per-node bytes received from other nodes.
    pub recv_by_node: Vec<u64>,
}

impl ExchangeStats {
    /// The communication makespan under `net`: the busiest node's traffic
    /// (max of its send and receive volume, as links are full duplex) plus
    /// its message latencies.
    pub fn comm_time(&self, net: &NetModel) -> Duration {
        let nodes = self.sent_by_node.len().max(1);
        let per_node_msgs = if self.remote_messages == 0 {
            0
        } else {
            self.remote_messages.div_ceil(nodes as u64)
        };
        let busiest = self
            .sent_by_node
            .iter()
            .zip(&self.recv_by_node)
            .map(|(&s, &r)| s.max(r))
            .max()
            .unwrap_or(0);
        net.transfer_time(per_node_msgs, busiest)
    }
}

/// Recovery-side accounting of one job: everything the cluster spent
/// surviving injected faults, on top of the fault-free work. All of it is
/// *also* charged to the regular phase/communication times (the virtual
/// clock pays for recovery), so these fields answer "how much of the
/// makespan was overhead" without changing how `sim_time` composes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Faults that fired during the job.
    pub faults_injected: u32,
    /// Task executions lost to crashes (each implies one re-execution).
    pub tasks_retried: u32,
    /// Compute time of task executions whose results were lost and had to
    /// be redone (the extra compute caused by crashes).
    pub reexec_task_time: Duration,
    /// Virtual time spent in retry backoff waits.
    pub backoff_time: Duration,
    /// Bytes moved to place fragment replicas (checkpoint cost).
    pub replication_bytes: u64,
    /// Replica placement transfers.
    pub replication_messages: u64,
    /// Bytes re-fetched from replicas to restore a crashed node's store.
    pub restore_bytes: u64,
    /// Restore transfers.
    pub restore_messages: u64,
    /// Bytes resent after dropped/corrupted transfers or reducer crashes.
    pub retransmit_bytes: u64,
    /// Retransmitted transfers.
    pub retransmit_messages: u64,
    /// Modeled time of all recovery traffic (replication + restore +
    /// retransmit) under the job's network model; already folded into the
    /// job's `comm_time`.
    pub comm_time: Duration,
}

impl RecoveryStats {
    /// True when the job saw no fault and did no recovery work.
    pub fn is_zero(&self) -> bool {
        *self == RecoveryStats::default()
    }

    /// All recovery-traffic bytes.
    pub fn total_bytes(&self) -> u64 {
        self.replication_bytes + self.restore_bytes + self.retransmit_bytes
    }

    /// All recovery-traffic transfers.
    pub fn total_messages(&self) -> u64 {
        self.replication_messages + self.restore_messages + self.retransmit_messages
    }

    /// Fold another job's recovery accounting into this one (workflow-level
    /// totals).
    pub fn merge(&mut self, other: &RecoveryStats) {
        self.faults_injected += other.faults_injected;
        self.tasks_retried += other.tasks_retried;
        self.reexec_task_time += other.reexec_task_time;
        self.backoff_time += other.backoff_time;
        self.replication_bytes += other.replication_bytes;
        self.replication_messages += other.replication_messages;
        self.restore_bytes += other.restore_bytes;
        self.restore_messages += other.restore_messages;
        self.retransmit_bytes += other.retransmit_bytes;
        self.retransmit_messages += other.retransmit_messages;
        self.comm_time += other.comm_time;
    }
}

/// Reduce-side hot-path accounting: how many bytes and heap allocations
/// the shuffle→reduce hop *staged* through intermediate representations
/// that exist only to be sorted, versus the bytes it *materialized* into
/// reducer-visible owned values.
///
/// The sort operates on a 16-byte location index plus a 16-byte packed
/// `(reducer, key-prefix, scan-index)` integer per pair; only prefix-tie
/// runs re-decode their keys. Every pair is then materialized exactly once
/// into the owned values the `Reducer` API takes.
///
/// All four counters are computed analytically from the data — never from
/// sort internals — so they are identical at every thread count (the
/// Chrome trace export byte-compares across thread counts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HotPathStats {
    /// Bytes written into sort-side staging that is discarded after the
    /// sort (location + packed-key indexes and tie-run key re-decodes).
    pub staged_bytes: u64,
    /// Heap allocations live across the reduce-side sort (tie-run key
    /// decodes). Per-vector container allocations are O(1) per task and
    /// not counted.
    pub staged_allocs: u64,
    /// Wire bytes decoded into reducer-visible owned values (keys +
    /// entries).
    pub materialized_bytes: u64,
    /// Pairs that landed in a key-prefix tie run (≥ 2 pairs sharing
    /// `(reducer, prefix)`) during a keyed sort.
    pub tie_pairs: u64,
}

impl HotPathStats {
    /// Fold another task's hot-path accounting into this one.
    pub fn merge(&mut self, other: &HotPathStats) {
        self.staged_bytes += other.staged_bytes;
        self.staged_allocs += other.staged_allocs;
        self.materialized_bytes += other.materialized_bytes;
        self.tie_pairs += other.tie_pairs;
    }
}

/// Timing and volume summary of one MapReduce job under the virtual clock.
#[derive(Debug, Clone, Default)]
pub struct JobStats {
    /// Job name (the workflow operator id).
    pub name: String,
    /// Measured compute time of each node's map phase.
    pub map_time_by_node: Vec<Duration>,
    /// Measured compute time of each node's reduce phase.
    pub reduce_time_by_node: Vec<Duration>,
    /// Shuffle accounting.
    pub exchange: ExchangeStats,
    /// Modeled communication time of the shuffle.
    pub comm_time: Duration,
    /// Records entering the map phase.
    pub records_in: u64,
    /// Key-value pairs emitted by mappers.
    pub pairs_shuffled: u64,
    /// The shuffle's lower bound once placement is fixed: the record bytes
    /// of every record bound for another node, plus 8 bytes per non-empty
    /// remote (sender, reducer) segment. `exchange.remote_bytes` minus
    /// this is what the wire format adds. A stage replayed from a
    /// checkpoint carries 0: its manifest does not record it.
    pub shuffle_lo: u64,
    /// Records in the reduce output.
    pub records_out: u64,
    /// Fault-recovery accounting (all zero on a fault-free run without
    /// replication).
    pub recovery: RecoveryStats,
    /// Reduce-side hot-path staging/allocation accounting (summed over
    /// nodes; zero for jobs that bypass the engine's reduce path).
    pub hot: HotPathStats,
}

impl JobStats {
    /// Critical-path map time (the slowest node).
    pub fn map_time(&self) -> Duration {
        self.map_time_by_node
            .iter()
            .max()
            .copied()
            .unwrap_or_default()
    }

    /// Critical-path reduce time (the slowest node).
    pub fn reduce_time(&self) -> Duration {
        self.reduce_time_by_node
            .iter()
            .max()
            .copied()
            .unwrap_or_default()
    }

    /// The job's simulated makespan: BSP phases joined by barriers, like a
    /// MapReduce round — `max(map) + comm + max(reduce)`.
    pub fn sim_time(&self) -> Duration {
        self.map_time() + self.comm_time + self.reduce_time()
    }

    /// Attach the recovery accounting accumulated while the job ran and
    /// charge its traffic to the modeled communication time. Compute-side
    /// recovery (re-execution, backoff) is already inside the per-node phase
    /// times; this adds the wire side so `sim_time` pays for everything.
    pub fn absorb_recovery(&mut self, mut recovery: RecoveryStats, net: &NetModel) {
        if !recovery.is_zero() {
            let t = net.transfer_time(recovery.total_messages(), recovery.total_bytes());
            recovery.comm_time = t;
            self.comm_time += t;
        }
        self.recovery = recovery;
    }

    /// This round, then `next` on the same nodes, as one stage's stats: the
    /// rounds are joined by a barrier, so their simulated times add. The
    /// first round's map is the stage's map; its reduce and the second
    /// round's map, each at its critical path, open the stage's reduce on
    /// every node; the shuffles' times, traffic, pairs, recovery and
    /// staging add. Records in are this round's, records out `next`'s, and
    /// the name this one's.
    pub fn then(self, next: JobStats) -> JobStats {
        let between = self.reduce_time() + next.map_time();
        let add = |a: &[u64], b: &[u64]| a.iter().zip(b).map(|(a, b)| a + b).collect();
        let mut recovery = self.recovery;
        recovery.merge(&next.recovery);
        let mut hot = self.hot;
        hot.merge(&next.hot);
        JobStats {
            name: self.name,
            map_time_by_node: self.map_time_by_node,
            reduce_time_by_node: (next.reduce_time_by_node.iter())
                .map(|t| between + *t)
                .collect(),
            exchange: ExchangeStats {
                remote_bytes: self.exchange.remote_bytes + next.exchange.remote_bytes,
                remote_messages: self.exchange.remote_messages + next.exchange.remote_messages,
                sent_by_node: add(&self.exchange.sent_by_node, &next.exchange.sent_by_node),
                recv_by_node: add(&self.exchange.recv_by_node, &next.exchange.recv_by_node),
            },
            comm_time: self.comm_time + next.comm_time,
            records_in: self.records_in,
            pairs_shuffled: self.pairs_shuffled + next.pairs_shuffled,
            shuffle_lo: self.shuffle_lo + next.shuffle_lo,
            records_out: next.records_out,
            recovery,
            hot,
        }
    }

    /// Cross-check the engine's counters against static `[lo, hi]` bounds
    /// (the executor's debug-mode bounds verifier feeds intervals from the
    /// abstract interpretation in `papar_core::bounds`). Shuffle bytes are
    /// the nominal exchange only — retransmits live in the recovery ledger
    /// and are bounded separately. Returns the first violation, rendered.
    pub fn counters_within(
        &self,
        records_in: (u64, u64),
        pairs: (u64, u64),
        records_out: (u64, u64),
        shuffle_bytes_hi: u64,
    ) -> std::result::Result<(), String> {
        let checks = [
            ("records_in", self.records_in, records_in),
            ("pairs_shuffled", self.pairs_shuffled, pairs),
            ("records_out", self.records_out, records_out),
            (
                "exchange.remote_bytes",
                self.exchange.remote_bytes,
                (0, shuffle_bytes_hi),
            ),
        ];
        for (what, observed, (lo, hi)) in checks {
            if observed < lo || observed > hi {
                return Err(format!(
                    "job '{}': observed {what} = {observed} escapes its static bound \
                     [{lo}, {hi}]",
                    self.name
                ));
            }
        }
        Ok(())
    }
}

/// Sum of the simulated times of a sequence of jobs (a whole workflow, which
/// launches its jobs one by one).
pub fn total_sim_time(jobs: &[JobStats]) -> Duration {
    jobs.iter().map(JobStats::sim_time).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_within_reports_the_first_escape() {
        let stats = JobStats {
            name: "sort".to_string(),
            records_in: 100,
            pairs_shuffled: 100,
            records_out: 100,
            exchange: ExchangeStats {
                remote_bytes: 2048,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(stats
            .counters_within((100, 100), (0, 100), (100, 100), 4096)
            .is_ok());
        // A violated interval names the counter and the bound.
        let err = stats
            .counters_within((100, 100), (0, 99), (100, 100), 4096)
            .unwrap_err();
        assert!(err.contains("pairs_shuffled"), "{err}");
        assert!(err.contains("[0, 99]"), "{err}");
        let err = stats
            .counters_within((100, 100), (0, 100), (100, 100), 1024)
            .unwrap_err();
        assert!(err.contains("remote_bytes"), "{err}");
    }

    #[test]
    fn transfer_time_scales_with_volume() {
        let net = NetModel {
            latency_s: 1e-3,
            bytes_per_s: 1e6,
        };
        let t = net.transfer_time(2, 1_000_000);
        assert!((t.as_secs_f64() - (0.002 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn instant_network_is_free() {
        let t = NetModel::instant().transfer_time(1000, u64::MAX / 2);
        assert_eq!(t, Duration::ZERO);
    }

    #[test]
    fn infiniband_beats_ethernet() {
        let msg = 1_000;
        let bytes = 100_000_000;
        assert!(
            NetModel::infiniband_qdr().transfer_time(msg, bytes)
                < NetModel::ethernet_10g().transfer_time(msg, bytes)
        );
    }

    #[test]
    fn comm_time_uses_busiest_node() {
        let ex = ExchangeStats {
            remote_bytes: 300,
            remote_messages: 3,
            sent_by_node: vec![100, 200, 0],
            recv_by_node: vec![50, 0, 250],
        };
        let net = NetModel {
            latency_s: 0.0,
            bytes_per_s: 1000.0,
        };
        // Busiest node is node 2 with max(0, 250) = 250 bytes.
        assert!((ex.comm_time(&net).as_secs_f64() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn sim_time_is_bsp_sum() {
        let st = JobStats {
            map_time_by_node: vec![Duration::from_millis(5), Duration::from_millis(9)],
            reduce_time_by_node: vec![Duration::from_millis(4)],
            comm_time: Duration::from_millis(2),
            ..Default::default()
        };
        assert_eq!(st.map_time(), Duration::from_millis(9));
        assert_eq!(st.sim_time(), Duration::from_millis(15));
    }

    #[test]
    fn transfer_time_zero_volume_is_zero() {
        for net in [
            NetModel::infiniband_qdr(),
            NetModel::ethernet_10g(),
            NetModel::instant(),
        ] {
            assert_eq!(net.transfer_time(0, 0), Duration::ZERO);
        }
        // Zero bytes still pay per-message latency.
        let t = NetModel {
            latency_s: 1e-3,
            bytes_per_s: 1e6,
        }
        .transfer_time(5, 0);
        assert!((t.as_secs_f64() - 0.005).abs() < 1e-12);
    }

    #[test]
    fn transfer_time_saturates_instead_of_panicking() {
        // u64::MAX bytes over a slow link would overflow Duration.
        let slow = NetModel {
            latency_s: 0.0,
            bytes_per_s: 1.0,
        };
        assert_eq!(slow.transfer_time(0, u64::MAX), Duration::MAX);
        assert_eq!(slow.transfer_time(u64::MAX, u64::MAX), Duration::MAX);
        // Latency alone can also saturate: infinite per-message cost.
        let laggy = NetModel {
            latency_s: f64::INFINITY,
            bytes_per_s: 1e9,
        };
        assert_eq!(laggy.transfer_time(1, 0), Duration::MAX);
        // A degenerate zero-bandwidth model divides by zero (inf or NaN),
        // but zero work is still free rather than an eternity.
        let dead = NetModel {
            latency_s: 0.0,
            bytes_per_s: 0.0,
        };
        assert_eq!(dead.transfer_time(0, 1), Duration::MAX);
        assert_eq!(dead.transfer_time(0, 0), Duration::ZERO);
        // The instant network stays free even for huge volumes.
        assert_eq!(
            NetModel::instant().transfer_time(u64::MAX, u64::MAX),
            Duration::ZERO
        );
    }

    #[test]
    fn recovery_stats_merge_and_charge() {
        let mut a = RecoveryStats {
            faults_injected: 1,
            tasks_retried: 1,
            reexec_task_time: Duration::from_millis(5),
            restore_bytes: 100,
            restore_messages: 2,
            ..Default::default()
        };
        assert!(!a.is_zero());
        let b = RecoveryStats {
            retransmit_bytes: 50,
            retransmit_messages: 1,
            backoff_time: Duration::from_millis(10),
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.faults_injected, 1);
        assert_eq!(a.total_bytes(), 150);
        assert_eq!(a.total_messages(), 3);
        assert_eq!(a.backoff_time, Duration::from_millis(10));

        let mut st = JobStats::default();
        let net = NetModel {
            latency_s: 0.0,
            bytes_per_s: 1000.0,
        };
        st.absorb_recovery(a.clone(), &net);
        // 150 bytes at 1000 B/s -> 0.15 s of recovery traffic on the clock.
        assert!((st.comm_time.as_secs_f64() - 0.15).abs() < 1e-12);
        assert_eq!(st.recovery.comm_time, st.comm_time);

        let mut clean = JobStats::default();
        clean.absorb_recovery(RecoveryStats::default(), &net);
        assert_eq!(clean.comm_time, Duration::ZERO);
        assert!(clean.recovery.is_zero());
    }

    /// Two rounds as one stage: the simulated times add, and so do the
    /// traffic, pairs, recovery and staging; records in are the first
    /// round's and records out the second's.
    #[test]
    fn a_round_then_the_next_sums_their_times_and_counters() {
        let ms = Duration::from_millis;
        let round = |map: [u64; 2], comm, reduce: [u64; 2], bytes: u64, records| JobStats {
            name: "round".to_string(),
            map_time_by_node: map.map(ms).to_vec(),
            reduce_time_by_node: reduce.map(ms).to_vec(),
            comm_time: ms(comm),
            exchange: ExchangeStats {
                remote_bytes: bytes,
                remote_messages: 1,
                sent_by_node: vec![bytes, 0],
                recv_by_node: vec![0, bytes],
            },
            records_in: records,
            pairs_shuffled: records,
            shuffle_lo: bytes - 8,
            records_out: records,
            recovery: RecoveryStats {
                faults_injected: 1,
                retransmit_bytes: bytes,
                ..Default::default()
            },
            hot: HotPathStats {
                staged_bytes: bytes,
                materialized_bytes: 2 * bytes,
                ..Default::default()
            },
        };
        let sort = round([5, 9], 2, [4, 1], 100, 10);
        let distribute = JobStats {
            records_out: 7,
            ..round([3, 6], 1, [2, 8], 50, 7)
        };
        let want = sort.sim_time() + distribute.sim_time();
        let both = sort.then(distribute);
        assert_eq!(both.sim_time(), want);
        assert_eq!(both.sim_time(), ms(15 + 15));
        assert_eq!(both.exchange.remote_bytes, 150);
        assert_eq!(both.exchange.remote_messages, 2);
        assert_eq!(both.exchange.sent_by_node, vec![150, 0]);
        assert_eq!(both.exchange.recv_by_node, vec![0, 150]);
        assert_eq!(both.comm_time, ms(3));
        assert_eq!((both.pairs_shuffled, both.shuffle_lo), (17, 134));
        assert_eq!((both.records_in, both.records_out), (10, 7));
        assert_eq!(both.recovery.faults_injected, 2);
        assert_eq!(both.recovery.retransmit_bytes, 150);
        assert_eq!(both.hot.staged_bytes, 150);
        assert_eq!(both.hot.materialized_bytes, 300);
        assert_eq!(both.name, "round");
    }

    #[test]
    fn empty_stats_are_zero() {
        let st = JobStats::default();
        assert_eq!(st.sim_time(), Duration::ZERO);
        assert_eq!(
            ExchangeStats::default().comm_time(&NetModel::default()),
            Duration::ZERO
        );
    }
}
