//! `papar` binary: one dispatch table over [`papar_cli`]'s subcommands
//! and one exit policy for all of them.
//!
//! `papar check ...` analyzes configurations without touching data;
//! `papar plan ...` shows the physical plan a run would execute;
//! `papar run ...` (or bare `papar ...`, kept for compatibility) executes
//! the workflow, refusing to start when the same analysis finds errors;
//! `papar serve ...` keeps plans, datasets, and the cluster resident,
//! with `papar submit ...` / `papar status ...` as its clients.
//!
//! `--help` prints on stdout and exits 0; a usage error prints on stderr
//! and exits 2; a failure prints `papar: …` on stderr and exits 1, except
//! that `check` exits 2 when it fails and 1 when it finds an
//! error-severity diagnostic.

use papar_cli::*;

/// A subcommand's parse + run: what it prints on stdout, and its exit
/// code.
type Subcommand = fn(std::vec::IntoIter<String>) -> Result<(String, i32), CliError>;

/// Every subcommand with the exit code of its failures; a command line
/// that names none of them is `run`'s.
const SUBCOMMANDS: [(&str, i32, Subcommand); 6] = [
    ("run", 1, |argv| {
        let summary = run(&parse_args(argv)?)?;
        warn(&summary.warnings);
        Ok((summary.output, 0))
    }),
    ("check", 2, |argv| {
        let report = run_check(&parse_check_args(argv)?)?;
        Ok((report.output, i32::from(report.errors > 0)))
    }),
    ("plan", 1, |argv| {
        let report = run_plan(&parse_plan_args(argv)?)?;
        warn(&report.warnings);
        Ok((report.output, 0))
    }),
    ("serve", 1, |argv| {
        run_serve(&parse_serve_args(argv)?)?;
        Ok((String::new(), 0))
    }),
    ("submit", 1, |argv| {
        Ok((run_submit(&parse_submit_args(argv)?)?, 0))
    }),
    ("status", 1, |argv| {
        Ok((run_status(&parse_status_args(argv)?)?, 0))
    }),
];

/// Print the analysis's warnings on stderr, as `run` and `plan` do.
fn warn(lines: &[String]) {
    for line in lines {
        eprintln!("papar: {line}");
    }
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let named = SUBCOMMANDS
        .iter()
        .position(|(name, ..)| argv.first().is_some_and(|a| a == name));
    if named.is_some() {
        argv.remove(0);
    }
    let (_, failure_code, subcommand) = SUBCOMMANDS[named.unwrap_or(0)];
    let (stdout, code) = match subcommand(argv.into_iter()) {
        Ok(done) => done,
        Err(CliError::Help(text)) => (text, 0),
        Err(CliError::Usage(message)) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
        Err(CliError::Failed(message)) => {
            eprintln!("papar: {message}");
            std::process::exit(failure_code);
        }
    };
    if !stdout.is_empty() {
        println!("{stdout}");
    }
    std::process::exit(code);
}
