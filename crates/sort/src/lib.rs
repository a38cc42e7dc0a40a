//! ASPaS-style sorting kernels for the PaPar sort operator.
//!
//! The paper attributes part of PaPar's single-node advantage to ASPaS
//! (Hou et al., ICS'15), "a highly optimized mergesort implementation on
//! multicore processors" built from SIMD sorting networks and multiway
//! merges. This crate reproduces that design in safe Rust:
//!
//! * [`network`] — branch-free compare–exchange sorting networks (Batcher
//!   odd–even mergesort) for small fixed sizes, the role ASPaS gives to its
//!   SIMD intra-register sorters,
//! * [`merge`] — two-way and k-way merges,
//! * [`parallel`] — multi-threaded mergesort (stable and unstable) and a
//!   samplesort, the shared-memory sorts each simulated cluster node runs
//!   inside its map/reduce stages, and
//! * [`packed`] — the sorts of packed 128-bit keys on the engine's
//!   zero-copy reduce path: the standard library's unstable sort, and a
//!   samplesort over it.
//!
//! The public entry points are [`parallel::sort_by_key`] /
//! [`parallel::sort_unstable_by_key`]; everything else is exposed for tests
//! and benchmarks.

#![forbid(unsafe_code)]

pub mod merge;
pub mod network;
pub mod packed;
pub mod parallel;

pub use parallel::{sort_by_key, sort_unstable_by_key};
