//! The benchmark harness: one module per paper table/figure, shared
//! dataset construction, and a plain-text/markdown reporter.
//!
//! Every experiment follows the paper's protocol where it applies: "the
//! execution time is the average time of five runs without I/O time" —
//! [`measure::avg_of`] runs each measurement [`measure::RUNS`] times and
//! reports the mean; dataset generation and parsing happen outside the
//! timed region.
//!
//! The `reproduce` binary (this crate's `src/main.rs`) drives these
//! modules and prints one table per figure; `--md` appends the same tables
//! to `EXPERIMENTS.md` in markdown.

pub mod ablation;
pub mod chaos;
pub mod datasets;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fusion;
pub mod report;
pub mod table2;
pub mod workflows;

/// Measurement protocol helpers.
pub mod measure {
    use std::time::Duration;

    /// Runs per measurement (the paper averages five).
    pub const RUNS: usize = 5;

    /// Mean simulated duration of `RUNS` invocations of `f`.
    pub fn avg_of(mut f: impl FnMut() -> Duration) -> Duration {
        let total: Duration = (0..RUNS).map(|_| f()).sum();
        total / RUNS as u32
    }
}
