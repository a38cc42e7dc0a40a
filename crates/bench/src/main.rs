//! `reproduce` — regenerate every table and figure of the PaPar paper.
//!
//! ```sh
//! cargo run --release -p papar-bench --bin reproduce -- all
//! cargo run --release -p papar-bench --bin reproduce -- fig13a --quick
//! cargo run --release -p papar-bench --bin reproduce -- all --md EXPERIMENTS.md
//! ```

use papar_bench::datasets::Scale;
use papar_bench::report::Table;
use papar_bench::{ablation, chaos, fig12, fig13, fig14, fig15, fusion, table2};
use std::io::Write;

const EXPERIMENTS: &[&str] = &[
    "table2",
    "fig12",
    "fig13a",
    "fig13b",
    "fig14",
    "fig15a",
    "fig15b",
    "ablation-compress",
    "ablation-sampling",
    "ablation-sort",
    "chaos",
    "fusion",
];

fn usage() -> ! {
    eprintln!(
        "usage: reproduce <experiment>... [--quick] [--md <path>]\n\
         experiments: all {}",
        EXPERIMENTS.join(" ")
    );
    std::process::exit(2);
}

fn run_experiment(name: &str, scale: &Scale) -> Table {
    match name {
        "table2" => table2::run(scale),
        "fig12" => fig12::run(scale),
        "fig13a" => fig13::run_a(scale),
        "fig13b" => fig13::run_b(scale),
        "fig14" => fig14::run(scale),
        "fig15a" => fig15::run_a(scale),
        "fig15b" => fig15::run_b(scale),
        "ablation-compress" => ablation::compression(scale),
        "ablation-sampling" => ablation::sampling(scale),
        "ablation-sort" => ablation::sort_comparison(scale),
        "chaos" => chaos::run(scale),
        "fusion" => fusion::run(scale),
        other => {
            eprintln!("unknown experiment '{other}'");
            usage()
        }
    }
}

fn main() {
    let mut wanted: Vec<String> = Vec::new();
    let mut scale = Scale::default();
    let mut md_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => scale = Scale::quick(),
            "--md" => md_path = Some(args.next().unwrap_or_else(|| usage())),
            "all" => wanted.extend(EXPERIMENTS.iter().map(|s| s.to_string())),
            "-h" | "--help" => usage(),
            exp => wanted.push(exp.to_string()),
        }
    }
    if wanted.is_empty() {
        usage();
    }

    let mut md_out = String::new();
    for name in &wanted {
        let t0 = std::time::Instant::now();
        let table = run_experiment(name, &scale);
        println!("{}", table.to_console());
        println!("({name} regenerated in {:?})\n", t0.elapsed());
        md_out.push_str(&table.to_markdown());
    }

    if let Some(path) = md_path {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .expect("open markdown output");
        writeln!(f, "{md_out}").expect("write markdown output");
        println!("appended markdown to {path}");
    }
}
