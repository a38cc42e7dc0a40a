//! The benchmark's metric tables: every name the harness reports, with its
//! unit and direction, and for end-to-end metrics the bound by which it may
//! get worse before that counts as a regression. `BENCHMARK.json` at the
//! repository root is rendered from these tables (`manifest`), and a test
//! keeps the two equal.

use crate::fixture::Workload;
use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may get worse.
    pub bound: f64,
}

/// A metric of one layer. No bound: these explain, they do not gate.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// Seconds one driver run measures for.
pub const RUN_SECONDS: u64 = 15;

pub const END_TO_END: &[EndToEnd] = &[
    // Median over the measured jobs of one job as its user sees it. The
    // bound is what the reference host's noise allows, not what one would
    // like: see README, "Noise".
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    // Median over the jobs of the job process's peak RSS (for the served
    // workload, the daemon's peak while serving the request). Within 1.5%
    // across seeds for `papar run`; the daemon's heap state makes the
    // served one spread 7-10%, which is what sets the bound.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
    },
    // What a real cluster's network would carry. Exact for one input; the
    // bound has to cover how much inputs of different seeds differ (~3%).
    EndToEnd {
        name: "shuffled_bytes",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.10,
    },
    // Fixture generation and writes, reference partitions, daemon start.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

pub const PER_LAYER: &[PerLayer] = &[
    layer("config.parse_s", "s", Lower),
    layer("cli.read_s", "s", Lower),
    layer("cli.read_bytes", "bytes", Lower),
    layer("cli.read_useful_ratio", "ratio", Higher),
    layer("record.decode_s", "s", Lower),
    layer("record.decode_ns_per_rec", "ns/rec", Lower),
    layer("check.analyze_s", "s", Lower),
    layer("core.plan_s", "s", Lower),
    layer("mr.scatter_s", "s", Lower),
    layer("core.run_s", "s", Lower),
    layer("core.jobs", "count", Lower),
    layer("core.run_t1_s", "s", Lower),
    layer("core.thread_speedup", "ratio", Higher),
    layer("core.run_glue_s", "s", Lower),
    layer("mr.map_busy_s", "s", Lower),
    layer("mr.reduce_busy_s", "s", Lower),
    layer("mr.sample_s", "s", Lower),
    layer("mr.reduce_skew", "ratio", Lower),
    layer("mr.pairs_shuffled", "count", Lower),
    layer("mr.shuffled_bytes", "bytes", Lower),
    layer("mr.staged_bytes", "bytes", Lower),
    layer("mr.materialized_bytes", "bytes", Lower),
    layer("mr.comm_model_s", "s", Lower),
    layer("mr.sim_makespan_s", "s", Lower),
    layer("mr.collect_s", "s", Lower),
    layer("record.encode_s", "s", Lower),
    layer("record.encode_ns_per_rec", "ns/rec", Lower),
    layer("cli.write_s", "s", Lower),
    layer("cli.write_bytes", "bytes", Lower),
    layer("cli.teardown_s", "s", Lower),
    layer("job.wall_s", "s", Lower),
    layer("job.unexplained_share", "ratio", Lower),
    layer("trace.overhead_s", "s", Lower),
    layer("sort.packed_ns_per_key", "ns/key", Lower),
    layer("record.wire_encode_ns_per_rec", "ns/rec", Lower),
    layer("record.wire_decode_ns_per_rec", "ns/rec", Lower),
    layer("mr.exchange_s", "s", Lower),
    layer("mr.checkpoint_commit_s", "s", Lower),
    layer("cli.cpu_s", "s", Lower),
    layer("cli.wall_tail_s", "s", Lower),
    layer("cli.spawn_overhead_s", "s", Lower),
    layer("mr.checkpoint_overhead_s", "s", Lower),
    layer("mr.checkpoint_bytes", "bytes", Lower),
    layer("core.resume_s", "s", Lower),
    layer("serve.execute_s", "s", Lower),
    layer("serve.overhead_s", "s", Lower),
    layer("serve.connect_s", "s", Lower),
    layer("serve.plan_hit_ratio", "ratio", Higher),
    layer("serve.data_hit_ratio", "ratio", Higher),
    layer("serve.cold_wall_s", "s", Lower),
    layer("serve.warm_over_cold", "ratio", Lower),
    layer("serve.wall_tail_s", "s", Lower),
    layer("serve.execute_direct_s", "s", Lower),
];

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> String {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str((*s).into())).collect());
    Json::obj([
        ("command", strs(&["bash", "benchmark/run.sh"])),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::Str(w.name().into())),
                            ("why", Json::Str(w.why().into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::Str(m.name.into())),
                            ("unit", Json::Str(m.unit.into())),
                            ("better", Json::Str(m.better.as_str().into())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::Str(m.name.into())),
                            ("unit", Json::Str(m.unit.into())),
                            ("better", Json::Str(m.better.as_str().into())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .render_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_stay_inside_the_manifest_limits() {
        let mut names = BTreeSet::new();
        for w in Workload::ALL {
            assert!(name_ok(w.name()) && names.insert(w.name()));
        }
        for m in END_TO_END {
            assert!(
                name_ok(m.name) && unit_ok(m.unit) && names.insert(m.name),
                "{}",
                m.name
            );
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(
                name_ok(m.name) && unit_ok(m.unit) && names.insert(m.name),
                "{}",
                m.name
            );
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(manifest().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_at_the_root_is_the_rendered_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with: benchmark/run.sh manifest > BENCHMARK.json"
        );
    }
}
