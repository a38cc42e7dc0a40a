//! CLI validation matrix for the silent-fallback sweep: inputs that the
//! CLI used to paper over (a malformed or zero `PAPAR_THREADS`, a
//! duplicated `--arg`) must now refuse loudly, with exit codes that
//! scripts can branch on and messages that name the offending values.

use mublastp::dbgen::DbSpec;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const INPUT_CFG: &str = r#"
<input id="blast_db" name="BLAST Database file">
  <input_format>binary</input_format>
  <start_position>32</start_position>
  <element>
    <value name="seq_start" type="integer"/>
    <value name="seq_size" type="integer"/>
    <value name="desc_start" type="integer"/>
    <value name="desc_size" type="integer"/>
  </element>
</input>"#;

const WORKFLOW: &str = r#"
<workflow id="blast_partition" name="BLAST database partition">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
    <param name="output_path" type="hdfs" format="blast_db"/>
    <param name="num_partitions" type="integer"/>
  </arguments>
  <operators>
    <operator id="sort" operator="Sort">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="/user/sort_output"/>
      <param name="key" type="KeyId" value="seq_size"/>
    </operator>
    <operator id="distr" operator="Distribute">
      <param name="inputPath" type="String" value="$sort.outputPath"/>
      <param name="outputPath" type="String" value="$output_path"/>
      <param name="distrPolicy" type="DistrPolicy" value="roundRobin"/>
      <param name="numPartitions" type="integer" value="$num_partitions"/>
    </operator>
  </operators>
</workflow>"#;

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("papar-validate-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A complete, valid `papar run` setup, so the only fault in each test
/// is the one it injects.
fn fixture(tag: &str) -> PathBuf {
    let dir = temp_dir(tag);
    std::fs::write(dir.join("blast_db.xml"), INPUT_CFG).unwrap();
    std::fs::write(dir.join("wf.xml"), WORKFLOW).unwrap();
    let db = DbSpec::env_nr_scaled(200, 5).generate();
    std::fs::write(dir.join("env_nr.db"), db.to_bytes()).unwrap();
    dir
}

fn papar_run(dir: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_papar"));
    cmd.args(["run", "--input-config"])
        .arg(dir.join("blast_db.xml"))
        .arg("--workflow")
        .arg(dir.join("wf.xml"))
        .arg("--data")
        .arg(dir.join("env_nr.db"))
        .arg("--out")
        .arg(dir.join("out"))
        .args(["--nodes", "3", "--records", "200"])
        .args(["--arg", "num_partitions=4"]);
    cmd
}

fn stderr_of(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn zero_papar_threads_fails_the_run_loudly() {
    let dir = fixture("threads-zero");
    let out = papar_run(&dir).env("PAPAR_THREADS", "0").output().unwrap();
    assert!(!out.status.success(), "a zero thread budget must not run");
    let err = stderr_of(&out);
    assert!(err.contains("PAPAR_THREADS"), "stderr: {err}");
    assert!(err.contains("'0'"), "stderr names the bad value: {err}");
    assert!(
        !dir.join("out").exists(),
        "no partitions may be written on a refused run"
    );
}

#[test]
fn malformed_papar_threads_fails_the_run_loudly() {
    let dir = fixture("threads-garbage");
    let out = papar_run(&dir)
        .env("PAPAR_THREADS", "lots")
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("PAPAR_THREADS"), "stderr: {err}");
    assert!(err.contains("'lots'"), "stderr names the bad value: {err}");
}

#[test]
fn threads_flag_beats_a_malformed_papar_threads() {
    // `--threads` is the budget; the environment is only its default, so
    // a malformed value there must not refuse a run that names its own.
    let dir = fixture("threads-flag");
    let out = papar_run(&dir)
        .args(["--threads", "2"])
        .env("PAPAR_THREADS", "lots")
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(!err.contains("PAPAR_THREADS"), "stderr: {err}");
    assert!(dir.join("out").join("partition_0000.bin").exists());
}

#[test]
fn valid_papar_threads_is_reported_once_and_runs() {
    let dir = fixture("threads-ok");
    let out = papar_run(&dir).env("PAPAR_THREADS", "2").output().unwrap();
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    let mentions = err.matches("engine thread budget").count();
    assert_eq!(mentions, 1, "budget line printed exactly once:\n{err}");
    assert!(err.contains("PAPAR_THREADS"), "source is named: {err}");
}

#[test]
fn serve_validates_papar_threads_at_startup() {
    // The daemon must refuse to come up at all — not accept submits and
    // fail them later — when the budget is malformed.
    let sock = std::env::temp_dir().join(format!("papar-validate-{}.sock", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_papar"))
        .args(["serve", "--socket"])
        .arg(&sock)
        .env("PAPAR_THREADS", "-3")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains("PAPAR_THREADS"), "stderr: {err}");
    assert!(err.contains("'-3'"), "stderr names the bad value: {err}");
    assert!(!sock.exists(), "no socket may be left behind");
}

/// Duplicate `--arg` for the same key is a usage error (exit 2) naming
/// BOTH values, on every subcommand that accepts `--arg`.
#[test]
fn duplicate_arg_is_rejected_naming_both_values() {
    for subcmd in ["run", "plan", "check", "submit"] {
        let out = Command::new(env!("CARGO_BIN_EXE_papar"))
            .args([
                subcmd,
                "--arg",
                "num_partitions=4",
                "--arg",
                "num_partitions=8",
            ])
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "{subcmd}: duplicate --arg is a usage error"
        );
        let err = stderr_of(&out);
        assert!(
            err.contains("num_partitions") && err.contains("'4'") && err.contains("'8'"),
            "{subcmd}: stderr must name the key and both values:\n{err}"
        );
        assert!(err.contains("twice"), "{subcmd}: stderr: {err}");
    }
}

#[test]
fn same_key_same_value_twice_is_still_rejected() {
    // Even an agreeing duplicate is refused: it is almost always a
    // copy-paste slip, and "last one wins" used to hide real typos.
    let out = Command::new(env!("CARGO_BIN_EXE_papar"))
        .args(["run", "--arg", "k=1", "--arg", "k=1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("twice"));
}

#[test]
fn malformed_arg_without_equals_is_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_papar"))
        .args(["run", "--arg", "num_partitions"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(err.contains("key=value"), "stderr: {err}");
    assert!(err.contains("num_partitions"), "stderr: {err}");
}

/// `--records N` is multiplied by the record width to bound the read;
/// 2^60 + 1 sixteen-byte records used to wrap that product to 16 bytes
/// and silently partition ONE record (a debug build panicked instead).
#[test]
fn records_count_that_overflows_the_byte_bound_is_refused() {
    let dir = fixture("records-overflow");
    let out = papar_run(&dir)
        .args(["--records", "1152921504606846977"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(
        err.contains(
            "--records 1152921504606846977 wants 18446744073709551632 bytes after the header"
        ),
        "stderr: {err}"
    );
    assert!(!dir.join("out").exists(), "nothing may be partitioned");
}

/// Asking for help is not a usage error: every subcommand prints its
/// usage on stdout and exits 0, for `--help` and `-h` alike.
#[test]
fn help_prints_usage_on_stdout_and_exits_zero() {
    for subcmd in ["run", "check", "plan", "serve", "submit", "status"] {
        for flag in ["--help", "-h"] {
            let out = Command::new(env!("CARGO_BIN_EXE_papar"))
                .args([subcmd, flag])
                .output()
                .unwrap();
            assert_eq!(out.status.code(), Some(0), "papar {subcmd} {flag}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(stdout.starts_with("usage: papar "), "{subcmd}: {stdout}");
            assert!(out.stderr.is_empty(), "{subcmd}: {}", stderr_of(&out));
        }
    }
}

/// A subcommand's parser over a command line: the message it refuses the
/// line with, or `None` when the line parses.
type Parser = fn(Vec<String>) -> Option<String>;

fn refusal<T>(parsed: Result<T, papar_cli::CliError>) -> Option<String> {
    parsed.err().map(|e| e.to_string())
}

const PARSERS: [(&str, Parser); 6] = [
    ("run", |a| refusal(papar_cli::parse_args(a.into_iter()))),
    ("check", |a| {
        refusal(papar_cli::parse_check_args(a.into_iter()))
    }),
    ("plan", |a| {
        refusal(papar_cli::parse_plan_args(a.into_iter()))
    }),
    ("serve", |a| {
        refusal(papar_cli::parse_serve_args(a.into_iter()))
    }),
    ("submit", |a| {
        refusal(papar_cli::parse_submit_args(a.into_iter()))
    }),
    ("status", |a| {
        refusal(papar_cli::parse_status_args(a.into_iter()))
    }),
];

/// The parser and the help text cannot drift: across every flag any
/// subcommand's help names, a subcommand accepts exactly the ones its
/// own help names.
#[test]
fn each_subcommand_accepts_exactly_the_flags_its_help_names() {
    let help = |parse: Parser| parse(vec!["--help".into()]).unwrap();
    let named = |text: &str| -> std::collections::BTreeSet<String> {
        text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|w| w.starts_with("--") && w.len() > 2)
            .map(|w| w.trim_end_matches('-').to_string())
            // `--help` asks for this very text, on every subcommand.
            .filter(|w| w != "--help")
            .collect()
    };
    let every_flag: std::collections::BTreeSet<String> = PARSERS
        .iter()
        .flat_map(|(_, parse)| named(&help(*parse)))
        .collect();
    for (subcmd, parse) in PARSERS {
        let documented = named(&help(parse));
        for flag in &every_flag {
            let refusal = parse(vec![flag.clone(), "1".into()]).unwrap_or_default();
            let accepted = !refusal.starts_with(&format!("unknown flag '{flag}'"))
                && !refusal.starts_with(&format!("expected a job id, got '{flag}'"));
            assert_eq!(
                accepted,
                documented.contains(flag),
                "papar {subcmd} {flag}: accepted={accepted}, but its help {} it",
                if documented.contains(flag) {
                    "names"
                } else {
                    "does not name"
                }
            );
        }
    }
}

// ---- one binder: check, plan and run refuse alike --------------------

/// An example configuration shipped with the repository.
fn example(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/configs")
        .join(name)
}

/// `papar <subcmd>` on a workflow and input config, plus extra flags.
fn papar_on(subcmd: &str, workflow: &Path, input_config: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_papar"))
        .arg(subcmd)
        .arg("--workflow")
        .arg(workflow)
        .arg("--input-config")
        .arg(input_config)
        .args(extra)
        .output()
        .unwrap()
}

/// The `error[...]` lines a command printed, on either stream.
fn error_lines(out: &Output) -> Vec<String> {
    let text = String::from_utf8_lossy(&out.stdout).into_owned() + &stderr_of(out);
    text.lines()
        .map(str::trim_start)
        .filter(|l| l.starts_with("error["))
        .map(String::from)
        .collect()
}

/// The 1-based `line:col` of the first occurrence of `needle` in `doc`.
fn position_of(doc: &str, needle: &str) -> String {
    let off = doc.find(needle).unwrap();
    let line = doc[..off].matches('\n').count() + 1;
    let col = off - doc[..off].rfind('\n').map_or(0, |p| p + 1) + 1;
    format!("{line}:{col}")
}

/// `papar plan` binds through the same analysis as `papar check`, so it
/// refuses what check refuses, with the same diagnostics — not a plan
/// for a sort with zero reducers or a split whose threshold cannot be
/// compared with its key.
#[test]
fn plan_refuses_what_check_refuses_with_the_same_diagnostics() {
    let dir = temp_dir("plan-refuses");
    let zero_reducers = dir.join("zero_reducers.xml");
    let text = std::fs::read_to_string(example("blast_partition.xml")).unwrap();
    let text = text.replace(
        r#"<operator id="sort" operator="Sort">"#,
        r#"<operator id="sort" operator="Sort" num_reducers="0">"#,
    );
    std::fs::write(&zero_reducers, text).unwrap();
    let cases = [
        (
            zero_reducers,
            example("blast_db.xml"),
            &["--arg", "num_partitions=8"][..],
            "error[P012]",
        ),
        (
            example("hybrid_cut.xml"),
            example("graph_edge.xml"),
            &["--arg", "threshold=abc", "--arg", "num_partitions=4"][..],
            "error[P009]",
        ),
    ];
    for (workflow, input_config, args, code) in cases {
        let check = papar_on("check", &workflow, &input_config, args);
        let plan = papar_on("plan", &workflow, &input_config, args);
        assert_eq!(check.status.code(), Some(1), "{}", stderr_of(&check));
        assert_eq!(plan.status.code(), Some(1), "{}", stderr_of(&plan));
        let lines = error_lines(&check);
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(lines[0].starts_with(code), "{lines:?}");
        assert_eq!(error_lines(&plan), lines, "{}", workflow.display());
    }
}

/// A declared argument with no value and no default refuses the run
/// with a coded error at the argument's declaration, before any data is
/// partitioned.
#[test]
fn run_without_an_argument_value_gets_a_coded_error_at_its_declaration() {
    let dir = fixture("missing-arg");
    let workflow = example("blast_partition.xml");
    let text = std::fs::read_to_string(&workflow).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_papar"))
        .args(["run", "--input-config"])
        .arg(dir.join("blast_db.xml"))
        .arg("--workflow")
        .arg(&workflow)
        .arg("--data")
        .arg(dir.join("env_nr.db"))
        .arg("--out")
        .arg(dir.join("out"))
        .args(["--nodes", "3", "--records", "200"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
    let expected = format!(
        "error[P001]: workflow:{}: argument 'num_partitions' has no value \
         (pass it at launch or set a default)",
        position_of(&text, r#"<param name="num_partitions""#)
    );
    assert_eq!(error_lines(&out), vec![expected]);
    assert!(!dir.join("out").exists(), "nothing may be partitioned");
}
