//! `compare A.json B.json`: judge result file B against baseline A, one
//! row per workload and end-to-end metric, with the benchmark's own bounds.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END};
use crate::report::{fmt_value, Measured};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better than the baseline by more than the bound.
    Better,
    /// No worse (and no better) than the bound allows.
    WithinBound,
    /// Worse than the baseline by more than the bound and more than the
    /// spread: a regression.
    WorseThanBound,
    /// The samples' own quartile spread is wider than the bound, so the
    /// difference cannot be told from noise. Not "unchanged".
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within-bound",
            Verdict::WorseThanBound => "WORSE-THAN-BOUND",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Spread of a measurement: inter-quartile distance over the value.
fn spread(m: &Measured) -> f64 {
    if m.value == 0.0 {
        0.0
    } else {
        (m.q3 - m.q1) / m.value.abs()
    }
}

/// Judge `new` against `base`. Returns the verdict, the share of the base
/// by which `new` is worse (negative = better), and the wider of the two
/// spreads.
pub fn judge(base: &Measured, new: &Measured, better: Better, bound: f64) -> (Verdict, f64, f64) {
    let worse_by = match better {
        Better::Lower => (new.value - base.value) / base.value.abs(),
        Better::Higher => (base.value - new.value) / base.value.abs(),
    };
    let noise = spread(base).max(spread(new));
    let verdict = if worse_by > bound && worse_by > noise {
        Verdict::WorseThanBound
    } else if noise > bound {
        Verdict::Unresolved
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    (verdict, worse_by, noise)
}

fn measured(json: &Json) -> Option<Measured> {
    Some(Measured {
        value: json.get("value")?.as_f64()?,
        q1: json.get("q1")?.as_f64()?,
        q3: json.get("q3")?.as_f64()?,
        n: json.get("n")?.as_f64()? as usize,
    })
}

/// Compare two parsed result files. Returns the rendered table and whether
/// any row is worse than its bound.
pub fn compare(base: &Json, new: &Json) -> Result<(String, bool), String> {
    let workloads = base
        .get("workloads")
        .ok_or("baseline file has no 'workloads'")?;
    let mut out = String::new();
    let mut regressed = false;
    for (workload, base_w) in workloads.members() {
        let new_w = new
            .get("workloads")
            .and_then(|w| w.get(workload))
            .ok_or_else(|| format!("second file has no workload '{workload}'"))?;
        out.push_str(&format!("== {workload}\n"));
        for m in END_TO_END {
            let get = |w: &Json| {
                w.get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(measured)
            };
            let (Some(a), Some(b)) = (get(base_w), get(new_w)) else {
                return Err(format!(
                    "{workload}: metric '{}' missing from a file",
                    m.name
                ));
            };
            let (verdict, worse_by, noise) = judge(&a, &b, m.better, m.bound);
            regressed |= verdict == Verdict::WorseThanBound;
            out.push_str(&format!(
                "  {:<16} {:>14} -> {:>14} {:<6} x{:.4} of base {} ({:+.2}% {}; bound {:.0}%, spread {:.1}%)  {}\n",
                m.name,
                fmt_value(a.value),
                fmt_value(b.value),
                m.unit,
                b.value / a.value,
                fmt_value(a.value),
                worse_by.abs() * 100.0,
                if worse_by > 0.0 { "worse" } else { "better" },
                m.bound * 100.0,
                noise * 100.0,
                verdict.as_str(),
            ));
        }
        for file in [base_w, new_w] {
            let failed = file.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            if failed > 0.0 {
                regressed = true;
                out.push_str(&format!("  {failed} job(s) FAILED in one of the files\n"));
            }
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(value: f64, iqr: f64) -> Measured {
        Measured {
            value,
            q1: value - iqr / 2.0,
            q3: value + iqr / 2.0,
            n: 30,
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        use Better::{Higher, Lower};
        // Quiet samples: plain bound checks, in the metric's direction.
        assert_eq!(
            judge(&m(1.0, 0.01), &m(1.05, 0.01), Lower, 0.10).0,
            Verdict::WithinBound
        );
        assert_eq!(
            judge(&m(1.0, 0.01), &m(1.20, 0.01), Lower, 0.10).0,
            Verdict::WorseThanBound
        );
        assert_eq!(
            judge(&m(1.0, 0.01), &m(0.80, 0.01), Lower, 0.10).0,
            Verdict::Better
        );
        assert_eq!(
            judge(&m(1.0, 0.01), &m(0.80, 0.01), Higher, 0.10).0,
            Verdict::WorseThanBound
        );
        assert_eq!(
            judge(&m(1.0, 0.01), &m(1.20, 0.01), Higher, 0.10).0,
            Verdict::Better
        );
        // Spread wider than the bound: a small difference is unresolved,
        // not "unchanged" ...
        assert_eq!(
            judge(&m(1.0, 0.30), &m(1.02, 0.01), Lower, 0.10).0,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&m(1.0, 0.01), &m(0.85, 0.30), Lower, 0.10).0,
            Verdict::Unresolved
        );
        // ... and so is a loss smaller than the spread, but a loss beyond
        // both the bound and the spread is still a regression.
        assert_eq!(
            judge(&m(1.0, 0.30), &m(1.20, 0.01), Lower, 0.10).0,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&m(1.0, 0.30), &m(1.50, 0.01), Lower, 0.10).0,
            Verdict::WorseThanBound
        );
        // A zero bound (exact counters) tolerates only equality.
        assert_eq!(
            judge(&m(5.0, 0.0), &m(5.0, 0.0), Lower, 0.0).0,
            Verdict::WithinBound
        );
        assert_eq!(
            judge(&m(5.0, 0.0), &m(6.0, 0.0), Lower, 0.0).0,
            Verdict::WorseThanBound
        );
    }

    #[test]
    fn judge_reports_the_signed_share_and_the_wider_spread() {
        let (_, worse_by, noise) = judge(&m(2.0, 0.2), &m(2.5, 0.1), Better::Lower, 0.10);
        assert!((worse_by - 0.25).abs() < 1e-12);
        assert!((noise - 0.1).abs() < 1e-12);
    }

    fn file(wall: f64, failed: f64) -> Json {
        let stat = |v: f64| {
            Json::obj([
                ("value", Json::Num(v)),
                ("q1", Json::Num(v)),
                ("q3", Json::Num(v)),
                ("n", Json::Num(1.0)),
            ])
        };
        Json::obj([(
            "workloads",
            Json::obj([(
                "blast_oneshot",
                Json::obj([
                    ("failed", Json::Num(failed)),
                    (
                        "end_to_end",
                        Json::obj([
                            ("wall_s", stat(wall)),
                            ("peak_rss_mb", stat(300.0)),
                            ("shuffled_bytes", stat(1e6)),
                            ("setup_s", stat(2.0)),
                        ]),
                    ),
                ]),
            )]),
        )])
    }

    #[test]
    fn compare_flags_regressions_failures_and_missing_rows() {
        let (table, regressed) = compare(&file(1.0, 0.0), &file(1.05, 0.0)).unwrap();
        assert!(!regressed, "{table}");
        assert!(table.contains("within-bound") && table.contains("of base 1"));
        let (table, regressed) = compare(&file(1.0, 0.0), &file(1.3, 0.0)).unwrap();
        assert!(regressed && table.contains("WORSE-THAN-BOUND"), "{table}");
        assert!(compare(&file(1.0, 0.0), &file(1.0, 2.0)).unwrap().1);
        assert!(compare(
            &file(1.0, 0.0),
            &Json::obj([("workloads", Json::obj::<String>([]))])
        )
        .is_err());
    }
}
