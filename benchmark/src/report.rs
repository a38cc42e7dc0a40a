//! One workload's results, and how they are printed and stored.

use crate::e2e::JobSample;
use crate::fixture::Workload;
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles, tail};
use std::collections::BTreeMap;

/// An end-to-end metric as measured: the reported statistic plus the
/// quartiles of the samples behind it, which is what `compare` judges
/// run-to-run spread by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Measured {
    /// A single observation: no spread.
    pub fn single(value: f64) -> Measured {
        Measured {
            value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// The median of the samples, with their quartiles.
    pub fn median_of(samples: &[f64]) -> Measured {
        let (q1, q3) = quartiles(samples);
        Measured {
            value: median(samples),
            q1,
            q3,
            n: samples.len(),
        }
    }
}

/// Everything measured for one workload.
#[derive(Debug, Default)]
pub struct WorkloadResult {
    pub end_to_end: BTreeMap<String, Measured>,
    /// Printed beside the end-to-end metrics; not gated: `(value, unit)`.
    pub info: BTreeMap<String, (f64, String)>,
    pub per_layer: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl WorkloadResult {
    /// Fold the measured jobs of the end-to-end pass into the end-to-end
    /// metrics. Errors when no job succeeded: there is then nothing to
    /// report a time for.
    pub fn end_to_end_from(
        &mut self,
        samples: &[JobSample],
        setup_s: Measured,
        records: usize,
    ) -> Result<(), String> {
        let good: Vec<&JobSample> = samples.iter().filter(|s| s.failure.is_none()).collect();
        if good.is_empty() {
            return Err(format!("no job succeeded: {:?}", self.failures));
        }
        let walls: Vec<f64> = good.iter().map(|s| s.wall_s).collect();
        let wall = Measured::median_of(&walls);
        let wall_s = wall.value;
        self.end_to_end.insert("wall_s".into(), wall);
        // The median, not the maximum: a job's peak RSS flips between two
        // or three levels with thread timing, and one high job in a run
        // would set the maximum.
        let rss: Vec<f64> = good.iter().map(|s| s.rss_mb).collect();
        self.end_to_end
            .insert("peak_rss_mb".into(), Measured::median_of(&rss));
        // Exact for one input; a job that disagrees with the first is a
        // determinism failure, not a sample.
        let shuffled = good[0].shuffled_bytes;
        for s in &good {
            if s.shuffled_bytes != shuffled {
                self.failures.push(format!(
                    "shuffled_bytes changed between jobs: {shuffled} then {}",
                    s.shuffled_bytes
                ));
            }
        }
        self.end_to_end
            .insert("shuffled_bytes".into(), Measured::single(shuffled as f64));
        self.end_to_end.insert("setup_s".into(), setup_s);

        let (pct, tail_s) = tail(&walls);
        self.info.insert(
            "records_per_s".into(),
            (records as f64 / wall_s, "1/s".into()),
        );
        self.info.insert(
            "wall_tail_s".into(),
            (tail_s, format!("s (p{pct:.0}, n={})", walls.len())),
        );
        Ok(())
    }

    pub fn failed(&self) -> u64 {
        (self.failures.len() as u64).min(self.attempted)
    }

    pub fn failed_share(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }

    /// The workload's section of the result file.
    pub fn to_json(&self, workload: Workload) -> Json {
        let unit_of = |name: &str| {
            END_TO_END
                .iter()
                .map(|m| (m.name, m.unit))
                .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
                .find(|(n, _)| *n == name)
                .map_or("", |(_, u)| u)
        };
        Json::obj([
            ("why", Json::Str(workload.why().into())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed() as f64)),
            ("failed_share", Json::Num(self.failed_share())),
            (
                "end_to_end",
                Json::obj(self.end_to_end.iter().map(|(name, m)| {
                    (
                        name.clone(),
                        Json::obj([
                            ("value", Json::Num(m.value)),
                            ("unit", Json::Str(unit_of(name).into())),
                            ("q1", Json::Num(m.q1)),
                            ("q3", Json::Num(m.q3)),
                            ("n", Json::Num(m.n as f64)),
                        ]),
                    )
                })),
            ),
            (
                "info",
                Json::obj(self.info.iter().map(|(name, (value, unit))| {
                    (
                        name.clone(),
                        Json::obj([
                            ("value", Json::Num(*value)),
                            ("unit", Json::Str(unit.clone())),
                        ]),
                    )
                })),
            ),
            (
                "per_layer",
                Json::obj(self.per_layer.iter().map(|(name, value)| {
                    (
                        name.clone(),
                        Json::obj([
                            ("value", Json::Num(*value)),
                            ("unit", Json::Str(unit_of(name).into())),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// Every metric by name with its unit, one per line.
    pub fn render(&self, workload: Workload) -> String {
        let mut out = format!("== {} — {}\n", workload.name(), workload.why());
        for m in END_TO_END {
            if let Some(v) = self.end_to_end.get(m.name) {
                out.push_str(&format!(
                    "  {:<32} {:>16} {:<6} (bound {:.2}, n={})\n",
                    m.name,
                    fmt_value(v.value),
                    m.unit,
                    m.bound,
                    v.n
                ));
            }
        }
        for (name, (value, unit)) in &self.info {
            out.push_str(&format!(
                "  {:<32} {:>16} {unit}\n",
                name,
                fmt_value(*value)
            ));
        }
        out.push_str(&format!(
            "  {:<32} {:>16} ratio  ({} of {} jobs)\n",
            "failed_share",
            fmt_value(self.failed_share()),
            self.failed(),
            self.attempted
        ));
        for m in PER_LAYER {
            if let Some(v) = self.per_layer.get(m.name) {
                out.push_str(&format!(
                    "  {:<32} {:>16} {}\n",
                    m.name,
                    fmt_value(*v),
                    m.unit
                ));
            }
        }
        for f in &self.failures {
            out.push_str(&format!("  FAILED: {f}\n"));
        }
        out
    }
}

/// Counts whole, large values to one decimal, everything else to six.
pub fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else if v.abs() >= 1000.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.6}")
    }
}

/// The one-line result a driver run prints last: exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn driver_line(
    attempted: u64,
    failed: u64,
    metrics: impl IntoIterator<Item = (String, f64, &'static str)>,
) -> String {
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::obj(metrics.into_iter().map(|(name, value, unit)| {
                (
                    name,
                    Json::obj([
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(unit.into())),
                    ]),
                )
            })),
        ),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(wall_s: f64, rss_mb: f64) -> JobSample {
        JobSample {
            wall_s,
            rss_mb,
            shuffled_bytes: 77,
            ..JobSample::default()
        }
    }

    #[test]
    fn end_to_end_takes_medians_and_skips_failed_jobs() {
        let mut r = WorkloadResult::default();
        let mut samples = vec![job(3.0, 10.0), job(1.0, 30.0), job(2.0, 20.0)];
        samples.push(JobSample {
            failure: Some("boom".into()),
            ..JobSample::default()
        });
        r.end_to_end_from(&samples, Measured::single(0.5), 100)
            .unwrap();
        assert_eq!(r.end_to_end["wall_s"].value, 2.0);
        assert_eq!(r.end_to_end["wall_s"].n, 3);
        assert_eq!(r.end_to_end["peak_rss_mb"].value, 20.0);
        assert_eq!(r.end_to_end["shuffled_bytes"].value, 77.0);
        assert_eq!(r.info["records_per_s"].0, 50.0);

        let mut none = WorkloadResult::default();
        assert!(none
            .end_to_end_from(&samples[3..], Measured::single(0.5), 100)
            .is_err());
    }

    #[test]
    fn a_job_that_shuffles_differently_is_a_failure() {
        let mut r = WorkloadResult::default();
        let mut odd = job(1.0, 1.0);
        odd.shuffled_bytes = 78;
        r.attempted = 2;
        r.end_to_end_from(&[job(1.0, 1.0), odd], Measured::single(0.1), 1)
            .unwrap();
        assert_eq!(r.failed(), 1);
        assert_eq!(r.failed_share(), 0.5);
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let line = driver_line(12, 0, [("wall_s".to_string(), 0.7512, "s")]);
        let doc = Json::parse(&line).unwrap();
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let m = doc.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(0.7512));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
        assert!(!line.contains('\n'));
    }
}
