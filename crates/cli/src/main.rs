//! `papar` binary: thin shell around [`papar_cli::run`],
//! [`papar_cli::run_check`], [`papar_cli::run_plan`], and the daemon
//! surface ([`papar_cli::run_serve`] / [`papar_cli::run_submit`] /
//! [`papar_cli::run_status`]).
//!
//! `papar check ...` analyzes configurations without touching data;
//! `papar plan ...` shows the physical plan a run would execute;
//! `papar run ...` (or bare `papar ...`, kept for compatibility) executes
//! the workflow, refusing to start when the same analysis finds errors;
//! `papar serve ...` keeps plans, datasets, and the cluster resident,
//! with `papar submit ...` / `papar status ...` as its clients.

fn main() {
    let mut argv = std::env::args().skip(1).peekable();
    match argv.peek().map(String::as_str) {
        Some("check") => {
            argv.next();
            check_main(argv);
        }
        Some("plan") => {
            argv.next();
            plan_main(argv);
        }
        Some("run") => {
            argv.next();
            run_main(argv);
        }
        Some("serve") => {
            argv.next();
            serve_main(argv);
        }
        Some("submit") => {
            argv.next();
            submit_main(argv);
        }
        Some("status") => {
            argv.next();
            status_main(argv);
        }
        _ => run_main(argv),
    }
}

fn serve_main(argv: impl Iterator<Item = String>) {
    let spec = match papar_cli::parse_serve_args(argv) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = papar_cli::run_serve(&spec) {
        eprintln!("papar: {e}");
        std::process::exit(1);
    }
}

fn submit_main(argv: impl Iterator<Item = String>) {
    let spec = match papar_cli::parse_submit_args(argv) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    match papar_cli::run_submit(&spec) {
        Ok(output) => println!("{output}"),
        Err(e) => {
            eprintln!("papar: {e}");
            std::process::exit(1);
        }
    }
}

fn status_main(argv: impl Iterator<Item = String>) {
    let spec = match papar_cli::parse_status_args(argv) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    match papar_cli::run_status(&spec) {
        Ok(output) => println!("{output}"),
        Err(e) => {
            eprintln!("papar: {e}");
            std::process::exit(1);
        }
    }
}

fn plan_main(argv: impl Iterator<Item = String>) {
    let spec = match papar_cli::parse_plan_args(argv) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    match papar_cli::run_plan(&spec) {
        Ok(report) => println!("{}", report.output),
        Err(e) => {
            eprintln!("papar: {e}");
            std::process::exit(1);
        }
    }
}

fn check_main(argv: impl Iterator<Item = String>) {
    let spec = match papar_cli::parse_check_args(argv) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    match papar_cli::run_check(&spec) {
        Ok(report) => {
            println!("{}", report.output);
            std::process::exit(if report.errors > 0 { 1 } else { 0 });
        }
        Err(e) => {
            eprintln!("papar: {e}");
            std::process::exit(2);
        }
    }
}

fn run_main(argv: impl Iterator<Item = String>) {
    let spec = match papar_cli::parse_args(argv) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    match papar_cli::run(&spec) {
        Ok(summary) => {
            for w in &summary.check_warnings {
                eprintln!("papar: {w}");
            }
            for ev in &summary.checkpoint_events {
                eprintln!("papar: {ev}");
            }
            println!("read {} records", summary.records_in);
            if let Some(rationale) = &summary.rationale {
                print!("{rationale}");
            }
            for note in &summary.notes {
                println!("papar: {note}");
            }
            if summary.stages_resumed > 0 {
                println!(
                    "resumed from checkpoint: {} stage(s) restored, not re-executed",
                    summary.stages_resumed
                );
            }
            for (id, time, bytes, lo) in &summary.jobs {
                println!("job '{id}': {time:?} simulated, {bytes} bytes shuffled");
                println!("  shuffle_lo: {lo} bytes (the records sent off-node + segment headers)");
            }
            println!("total simulated partitioning time: {:?}", summary.total_sim);
            if summary.faults_injected > 0 || !summary.recovery.is_zero() {
                println!(
                    "recovery: {} fault(s) injected, {} task(s) re-executed ({:?} redone compute, {:?} backoff, {} B replica/restore/retransmit traffic)",
                    summary.faults_injected,
                    summary.recovery.tasks_retried,
                    summary.recovery.reexec_task_time,
                    summary.recovery.backoff_time,
                    summary.recovery.total_bytes(),
                );
                for line in &summary.recovery_log {
                    println!("  {line}");
                }
            }
            if let Some(profile) = &summary.profile {
                println!("{profile}");
            }
            if let Some(path) = &summary.trace_file {
                println!(
                    "trace written to {} (open in chrome://tracing or Perfetto)",
                    path.display()
                );
            }
            println!("wrote {} partitions:", summary.files.len());
            for f in &summary.files {
                println!("  {}", f.display());
            }
        }
        Err(e) => {
            eprintln!("papar: {e}");
            std::process::exit(1);
        }
    }
}
