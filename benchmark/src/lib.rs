//! The repository's standing benchmark, as a library: the `papar-benchmark`
//! binary (`src/main.rs`) drives these modules, and the smoke test reads
//! result files back through [`json`]. See `benchmark/README.md`.

pub mod compare;
pub mod e2e;
pub mod fixture;
pub mod json;
pub mod metrics;
pub mod report;
pub mod span;
pub mod stats;
pub mod traced;
