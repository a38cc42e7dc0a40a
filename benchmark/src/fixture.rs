//! Workloads, their seeded inputs, and the correctness gate.
//!
//! The seed reaches only the generators here; the program under test sees
//! files. Reference partitions come from the original partitioners the
//! paper compares against (`mublastp::baseline`, PowerLyra's hybrid-cut),
//! never from PaPar itself.

use mublastp::baseline::{self, BaselinePolicy};
use mublastp::dbformat::{IndexEntry, HEADER_LEN};
use mublastp::dbgen::DbSpec;
use papar_config::InputConfig;
use papar_record::{codec, wire, Schema};
use std::cell::Cell;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Simulated cluster size of every job (`--nodes`).
pub const NODES: usize = 4;
/// `num_partitions` of every job.
pub const PARTITIONS: usize = 8;
/// Engine threads of every job (`--threads` / `PAPAR_THREADS`): the
/// reference host has two cores.
pub const THREADS: usize = 2;
/// Hybrid-cut in-degree threshold.
pub const THRESHOLD: usize = 25;

const CONFIG_DIR: &str = "examples/configs";

/// The four workloads. Three share the blast input and differ in how the
/// engine is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BlastOneshot,
    HybridOneshot,
    BlastServed,
    BlastDurable,
}

impl Workload {
    /// Round-robin order of the end-to-end pass.
    pub const ALL: [Workload; 4] = [
        Workload::BlastOneshot,
        Workload::HybridOneshot,
        Workload::BlastServed,
        Workload::BlastDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BlastOneshot => "blast_oneshot",
            Workload::HybridOneshot => "hybrid_oneshot",
            Workload::BlastServed => "blast_served",
            Workload::BlastDurable => "blast_durable",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (also BENCHMARK.json's `why`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::BlastOneshot => {
                "Fig 8 sort+distribute over a 500k-sequence binary database, fresh papar run per \
                 job: file read, binary decode, range-sort reduce and teardown dominate"
            }
            Workload::HybridOneshot => {
                "Fig 10 hybrid-cut over a 539k-edge text graph: text codec, String keys, \
                 group/split and two physical jobs; power-law degrees make the slowest reducer \
                 matter"
            }
            Workload::BlastServed => {
                "the blast job as warm requests to one resident papar serve: bypasses config, \
                 decode, check and planning, so only engine, clones, encode and write remain"
            }
            Workload::BlastDurable => {
                "the blast input with --no-fuse --checkpoint: intermediates materialised between \
                 two jobs and every stage published with fsync'd writes"
            }
        }
    }

    pub fn is_blast(self) -> bool {
        self != Workload::HybridOneshot
    }

    /// Flags this workload adds to `papar run` beyond the input's own.
    /// `checkpoint` is the fresh run directory of a durable job.
    pub fn run_flags(self, checkpoint: &Path) -> Vec<String> {
        match self {
            Workload::BlastDurable => vec![
                "--no-fuse".into(),
                "--checkpoint".into(),
                checkpoint.display().to_string(),
            ],
            _ => Vec::new(),
        }
    }
}

/// How much work a run does. `full` is what BENCHMARK.json's numbers are
/// taken at; `quick` exists for the smoke test.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub quick: bool,
    /// Sequences in the blast database.
    pub sequences: usize,
    /// Divisor of the LiveJournal preset (vertices and edges).
    pub graph_scale: usize,
    /// Untimed rounds before the end-to-end pass measures.
    pub warmup_rounds: usize,
    /// Measured rounds of a full run (a driver run measures for a time).
    pub rounds: usize,
    /// Measured in-process iterations of the traced pass (the paper's
    /// five-run protocol); one more runs first as warm-up.
    pub traced_iters: usize,
    /// Jobs per configuration of the traced pass's spawned probes.
    pub probe_jobs: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            quick: false,
            sequences: 500_000,
            graph_scale: 128,
            warmup_rounds: 3,
            rounds: 30,
            traced_iters: 5,
            probe_jobs: 3,
        }
    }

    pub fn quick() -> Scale {
        Scale {
            quick: true,
            sequences: 20_000,
            graph_scale: 2048,
            warmup_rounds: 1,
            rounds: 2,
            traced_iters: 2,
            probe_jobs: 2,
        }
    }
}

/// What the original partitioner produces for an input.
enum Reference {
    /// muBLASTP cyclic partitions, in order.
    Blast(Vec<Vec<IndexEntry>>),
    /// PowerLyra hybrid-cut edge sets, each sorted.
    Hybrid(Vec<Vec<(u32, u32)>>),
}

/// One generated input file with everything a job over it needs.
pub struct Input {
    pub data: PathBuf,
    pub input_config: PathBuf,
    pub workflow: PathBuf,
    /// `--arg` pairs.
    pub args: Vec<(String, String)>,
    /// `--records`: bounds the record region of the binary database.
    pub records: Option<usize>,
    pub record_count: usize,
    pub data_bytes: u64,
    reference: Reference,
    /// Digest of the partition files, set by the first job whose files
    /// decoded to the reference; later jobs are compared to it.
    digest: Cell<Option<u64>>,
}

impl Input {
    /// The env_nr-profile muBLASTP database of paper Fig 8. The database
    /// is generated and written by a child of this harness: it holds
    /// ~230 MB while doing so, and a spawned job's `ru_maxrss` starts at
    /// its parent's peak RSS (the kernel folds the pre-exec address space
    /// into it), so the process that measures `peak_rss_mb` must stay
    /// small.
    pub fn blast(scale: &Scale, seed: u64, dir: &Path) -> Result<Input, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let data = dir.join("env_nr.db");
        let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
        let status = Command::new(exe)
            .arg("gen-blast")
            .arg(scale.sequences.to_string())
            .arg(seed.to_string())
            .arg(&data)
            .status()
            .map_err(|e| format!("cannot spawn the generator: {e}"))?;
        if !status.success() {
            return Err(format!("blast generator exited with {status}"));
        }

        // The reference partitioner needs only the index region.
        let input_config = Path::new(CONFIG_DIR).join("blast_db.xml");
        let (cfg, schema) = load_config(&input_config)?;
        let mut index_bytes = vec![0u8; HEADER_LEN + scale.sequences * 16];
        std::fs::File::open(&data)
            .and_then(|mut f| f.read_exact(&mut index_bytes))
            .map_err(|e| format!("cannot read back {}: {e}", data.display()))?;
        let index = decode_index(&cfg, &schema, &index_bytes)?;
        let reference = baseline::partition(&index, PARTITIONS, BaselinePolicy::Cyclic).partitions;

        Ok(Input {
            data_bytes: file_len(&data)?,
            data,
            input_config,
            workflow: Path::new(CONFIG_DIR).join("blast_partition.xml"),
            args: vec![("num_partitions".into(), PARTITIONS.to_string())],
            records: Some(scale.sequences),
            record_count: scale.sequences,
            reference: Reference::Blast(reference),
            digest: Cell::new(None),
        })
    }

    /// The LiveJournal-like R-MAT graph of paper Fig 10 as SNAP text.
    pub fn hybrid(scale: &Scale, seed: u64, dir: &Path) -> Result<Input, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let graph = powerlyra::gen::presets::livejournal_like(scale.graph_scale, seed)
            .map_err(|e| format!("graph generator: {e}"))?;
        let data = dir.join("edges.txt");
        std::fs::write(&data, powerlyra::gen::to_snap_text(&graph))
            .map_err(|e| format!("cannot write {}: {e}", data.display()))?;
        let reference = powerlyra::partition::hybrid_cut(&graph, PARTITIONS, THRESHOLD)
            .map_err(|e| format!("hybrid-cut reference: {e}"))?
            .edges
            .into_iter()
            .map(|mut edges| {
                edges.sort_unstable();
                edges
            })
            .collect();
        Ok(Input {
            data_bytes: file_len(&data)?,
            data,
            input_config: Path::new(CONFIG_DIR).join("graph_edge.xml"),
            workflow: Path::new(CONFIG_DIR).join("hybrid_cut.xml"),
            args: vec![
                ("num_partitions".into(), PARTITIONS.to_string()),
                ("threshold".into(), THRESHOLD.to_string()),
            ],
            records: None,
            record_count: graph.num_edges(),
            reference: Reference::Hybrid(reference),
            digest: Cell::new(None),
        })
    }

    /// The correctness gate for one job's output directory. The first
    /// call decodes the partition files and requires exactly the
    /// reference partitions; it then remembers a digest of the files, and
    /// every later call (any workload sharing this input) must reproduce
    /// that digest — byte-identical files.
    pub fn verify(&self, out_dir: &Path) -> Result<(), String> {
        let files = partition_files(out_dir)?;
        let digest = digest(&files);
        match self.digest.get() {
            Some(expected) if expected == digest => Ok(()),
            Some(expected) => Err(format!(
                "{}: partition files digest {digest:#018x}, the verified run had {expected:#018x}",
                out_dir.display()
            )),
            None => {
                self.matches_reference(&files)?;
                self.digest.set(Some(digest));
                Ok(())
            }
        }
    }

    fn matches_reference(&self, files: &[(String, Vec<u8>)]) -> Result<(), String> {
        if files.len() != PARTITIONS {
            return Err(format!(
                "{} partition files, expected {PARTITIONS}",
                files.len()
            ));
        }
        let (cfg, schema) = load_config(&self.input_config)?;
        for (p, (name, bytes)) in files.iter().enumerate() {
            let same = match &self.reference {
                Reference::Blast(parts) => decode_index(&cfg, &schema, bytes)? == parts[p],
                Reference::Hybrid(parts) => {
                    let text = std::str::from_utf8(bytes)
                        .map_err(|_| format!("{name} is not UTF-8 text"))?;
                    let mut edges = codec::text::read(&cfg, &schema, text)
                        .map_err(|e| format!("{name}: {e}"))?
                        .iter()
                        .map(|r| {
                            let id = |i: usize| {
                                r.value(i)
                                    .and_then(|v| v.as_str())
                                    .and_then(|s| s.parse::<u32>().ok())
                                    .ok_or_else(|| format!("{name}: not a vertex id"))
                            };
                            Ok((id(0)?, id(1)?))
                        })
                        .collect::<Result<Vec<(u32, u32)>, String>>()?;
                    edges.sort_unstable();
                    edges == parts[p]
                }
            };
            if !same {
                return Err(format!(
                    "{name} differs from the reference partitioner's partition {p}"
                ));
            }
        }
        Ok(())
    }
}

/// Entry point of the `gen-blast` child (see [`Input::blast`]).
pub fn gen_blast(sequences: usize, seed: u64, path: &Path) -> Result<(), String> {
    let db = DbSpec::env_nr_scaled(sequences, seed).generate();
    std::fs::write(path, db.to_bytes()).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

pub fn load_config(path: &Path) -> Result<(InputConfig, Schema), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let cfg = InputConfig::parse_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let schema = Schema::from_input_config(&cfg);
    Ok((cfg, schema))
}

fn decode_index(
    cfg: &InputConfig,
    schema: &Schema,
    bytes: &[u8],
) -> Result<Vec<IndexEntry>, String> {
    codec::binary::read(cfg, schema, bytes)
        .map_err(|e| e.to_string())?
        .iter()
        .map(|r| IndexEntry::from_record(r).map_err(|e| e.to_string()))
        .collect()
}

fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("cannot stat {}: {e}", path.display()))
}

/// `(file name, bytes)` of every file in a job's output directory, by name.
fn partition_files(dir: &Path) -> Result<Vec<(String, Vec<u8>)>, String> {
    let mut files = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let bytes =
            std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        files.push((name, bytes));
    }
    files.sort();
    Ok(files)
}

/// One number for a set of files: names, lengths and contents all count.
fn digest(files: &[(String, Vec<u8>)]) -> u64 {
    let mut summary = Vec::with_capacity(files.len() * 32);
    for (name, bytes) in files {
        summary.extend_from_slice(name.as_bytes());
        summary.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        summary.extend_from_slice(&wire::checksum(bytes).to_le_bytes());
    }
    wire::checksum(&summary)
}

/// Bytes of all regular files under `dir` (one level: a checkpoint run
/// directory is flat).
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_names_lengths_and_contents() {
        let base = vec![("a".to_string(), vec![1, 2, 3]), ("b".to_string(), vec![])];
        let mut renamed = base.clone();
        renamed[0].0 = "c".into();
        let mut flipped = base.clone();
        flipped[0].1[1] = 9;
        let mut moved = base.clone();
        moved[1].1 = moved[0].1.split_off(2);
        let d = digest(&base);
        assert_eq!(d, digest(&base.clone()));
        for other in [&renamed, &flipped, &moved] {
            assert_ne!(d, digest(other));
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{} why is too long", w.name());
            assert!(!w.why().contains('\n'));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
