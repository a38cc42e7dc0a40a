//! Structured diagnostics: stable codes, severity, message, source span.
//!
//! The binder ([`crate::plan`]) reports every problem it finds in a
//! workflow as a [`Diagnostic`], and `papar-check` adds its own passes and
//! lints in the same type (it re-exports this module as
//! `papar_check::diag`, and renders the list as text or JSON). Every
//! problem has a stable code so tooling (and the golden tests) can match
//! on it: `P0xx` codes are errors that make the
//! workflow unrunnable, `W0xx` codes are warnings about plans that run but
//! probably not the way the author intended. The full table lives in
//! DESIGN.md §8.

use papar_config::xml::Span;
use std::fmt;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The plan is still executable; the result may not be what was meant.
    Warning,
    /// The workflow cannot run (or would crash mid-execution).
    Error,
}

impl Severity {
    /// Lowercase name, as rendered and serialized.
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }

    /// Inverse of [`Severity::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "warning" => Some(Severity::Warning),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

/// One problem found in a workflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code (`P001`, `W002`, ...).
    pub code: Code,
    /// Error or warning.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
    /// Which document the span refers to: `"workflow"` or an InputData id.
    pub doc: String,
    /// 1-based line/column in that document ([`Span::UNKNOWN`] when the
    /// problem has no single source position).
    pub span: Span,
}

impl Diagnostic {
    /// An error-severity diagnostic.
    pub fn error(
        code: Code,
        doc: impl Into<String>,
        span: Span,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            message: message.into(),
            doc: doc.into(),
            span,
        }
    }

    /// A warning-severity diagnostic.
    pub fn warning(
        code: Code,
        doc: impl Into<String>,
        span: Span,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            message: message.into(),
            doc: doc.into(),
            span,
        }
    }
}

impl fmt::Display for Diagnostic {
    /// `error[P001]: workflow:3:12: unknown argument '$input_fil'`
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}:{}: {}",
            self.severity.as_str(),
            self.code,
            self.doc,
            self.span,
            self.message
        )
    }
}

macro_rules! codes {
    ($($(#[doc = $doc:expr])* $name:ident = $text:expr,)*) => {
        /// The stable diagnostic codes (see DESIGN.md §8 for the table).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Code {
            $($(#[doc = $doc])* $name,)*
        }

        impl Code {
            /// The code string, e.g. `"P001"`.
            pub fn as_str(&self) -> &'static str {
                match self { $(Code::$name => $text,)* }
            }

            /// Inverse of [`Code::as_str`].
            pub fn parse(s: &str) -> Option<Self> {
                match s { $($text => Some(Code::$name),)* _ => None }
            }

            /// Every code, in numeric order (used by the docs test).
            pub fn all() -> &'static [Code] {
                &[$(Code::$name,)*]
            }
        }
    };
}

codes! {
    /// The document does not parse as XML / has no valid structure.
    P000 = "P000",
    /// A `$name` reference or a launch argument names no declared workflow
    /// argument, or a launch leaves a declared argument without a value.
    P001 = "P001",
    /// A `$job.param` / `$job.$attr` reference names no such job, parameter,
    /// or add-on attribute.
    P002 = "P002",
    /// A job reference points at the referencing job itself or a later job
    /// (use before definition; the job list is a linear order, so this is
    /// the cycle check).
    P003 = "P003",
    /// Two operators share an id.
    P004 = "P004",
    /// A job writes a dataset name that already exists.
    P005 = "P005",
    /// A sort/group/split key or add-on key names no field of the inferred
    /// input schema.
    P006 = "P006",
    /// An operator is missing a required parameter.
    P007 = "P007",
    /// A split policy expression does not parse or its condition count does
    /// not match the output list.
    P008 = "P008",
    /// A split threshold's type is incomparable with the key field's type.
    P009 = "P009",
    /// An add-on cannot be applied: unknown add-on operator, result type
    /// undefined (sum over String), or the appended attribute already exists.
    P010 = "P010",
    /// A format operator is illegal here: unknown spelling, format-list
    /// arity mismatch, or group over packed input.
    P011 = "P011",
    /// An illegal distribution/parallelism parameter: unknown policy,
    /// non-positive or non-integer numPartitions / num_reducers, or an
    /// unknown sort flag.
    P012 = "P012",
    /// An operator names an implementation that is not registered.
    P013 = "P013",
    /// Duplicate declaration: argument declared twice or input field name
    /// reused.
    P015 = "P015",
    /// A `$` reference is syntactically malformed.
    P016 = "P016",
    /// An input path resolves to no dataset: not produced by an earlier job
    /// and no argument declares its format, or the declared format has no
    /// InputData configuration.
    P017 = "P017",
    /// The requested replication factor cannot be satisfied by the cluster.
    P018 = "P018",
    /// An InputData configuration is semantically invalid (String field in
    /// a binary input, missing delimiter, no fields).
    P019 = "P019",
    /// A `--resume` checkpoint was taken by a different run: its plan
    /// fingerprint (physical plan, input contents, fault seed, or
    /// configuration digest) does not match the current invocation, so
    /// resuming would not be byte-identical and is refused.
    P020 = "P020",
    /// The reducer count of a keyed stage provably exceeds the distinct-key
    /// upper bound under a strict (value-routed) partitioner, so at least one
    /// reducer can never receive a key group.
    P021 = "P021",
    /// Plan-invariant violation: a lowered physical plan breaks an
    /// invariant of the logical plan it implements, such as a fused pair
    /// that fails its fusion gate (a framework bug, not a user error).
    P099 = "P099",
    /// A job output is never consumed and is not the workflow output.
    W001 = "W001",
    /// Fewer partitions than cluster nodes: part of the cluster stays idle.
    W002 = "W002",
    /// The record count is not divisible by the partition count, so the
    /// strict stride permutation `L_m^{km}` (`m | km`) does not apply and
    /// the generalized form is used.
    W003 = "W003",
    /// The plan's output is not byte-reproducible: an index-routed
    /// distribute consumes a sort output, so equal sort keys make the layout
    /// depend on tie-breaking.
    W004 = "W004",
    /// A declared argument is never referenced.
    W005 = "W005",
    /// An intermediate dataset has exactly one consumer — the job right
    /// after its producer — and the pair matches a fusion rewrite, so the
    /// physical planner streams the dataset instead of writing it to the
    /// cluster store (`--no-fuse` keeps it materialized).
    W006 = "W006",
    /// A distribute stage has provably empty partitions: the record-count
    /// upper bound is below the partition count, so the trailing partitions
    /// can never receive a record under any launch.
    W007 = "W007",
    /// The static per-reducer load bound exceeds the configured skew ratio:
    /// in the worst case admitted by the bounds, one reducer processes more
    /// than `ratio` times its fair share.
    W008 = "W008",
    /// A structurally adjacent operator pair that looks fusible was not
    /// fused; the message names the gate that blocked the rewrite, so
    /// the extra shuffle is deliberate, not an oversight.
    W009 = "W009",
    /// A keyed job's reducer count does not load the cluster's nodes
    /// evenly: fewer reducers than nodes leaves nodes idle, and a count
    /// that is not a multiple of the node count gives the busiest node
    /// more than its fair share of key ranges.
    W010 = "W010",
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// True when any diagnostic is error-severity.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_format_is_stable() {
        let d = Diagnostic::error(
            Code::P001,
            "workflow",
            Span::new(3, 12),
            "unknown argument '$input_fil'",
        );
        assert_eq!(
            d.to_string(),
            "error[P001]: workflow:3:12: unknown argument '$input_fil'"
        );
        let w = Diagnostic::warning(Code::W002, "workflow", Span::UNKNOWN, "2 partitions");
        assert_eq!(w.to_string(), "warning[W002]: workflow:?:?: 2 partitions");
    }

    #[test]
    fn code_round_trip() {
        for c in Code::all() {
            assert_eq!(Code::parse(c.as_str()), Some(*c));
        }
        assert_eq!(Code::parse("P042"), None);
    }

    #[test]
    fn codes_are_unique_round_trip_and_documented() {
        use std::collections::HashSet;
        // Unique strings.
        let mut seen = HashSet::new();
        for c in Code::all() {
            assert!(seen.insert(c.as_str()), "duplicate code string {}", c);
        }
        // Exact parse round-trip (as_str -> parse -> same variant).
        for c in Code::all() {
            assert_eq!(Code::parse(c.as_str()), Some(*c), "round-trip for {c}");
        }
        // Every code has a row in the DESIGN.md §8 table: a line starting
        // with `| \`P0xx\` |`.
        let design = include_str!("../../../DESIGN.md");
        for c in Code::all() {
            let row = format!("| `{}` |", c.as_str());
            assert!(
                design.lines().any(|l| l.trim_start().starts_with(&row)),
                "code {} has no row in the DESIGN.md §8 table",
                c
            );
        }
    }

    #[test]
    fn severity_orders_errors_above_warnings() {
        assert!(Severity::Error > Severity::Warning);
        assert_eq!(Severity::parse("error"), Some(Severity::Error));
        assert_eq!(Severity::parse("warning"), Some(Severity::Warning));
        assert_eq!(Severity::parse("fatal"), None);
    }
}
