//! The sort kernels of the engine's reduce path.
//!
//! The paper attributes part of PaPar's single-node advantage to ASPaS
//! (Hou et al., ICS'15), "a highly optimized mergesort implementation on
//! multicore processors" that sorts fixed-width keys in vector registers.
//! The engine's analog is [`packed`]: each shuffled pair is compressed
//! into one `u128` whose unsigned order is the shuffle order, and those
//! keys are sorted with the standard library's unstable sort, split over
//! the node's threads by a samplesort for large inputs.

#![forbid(unsafe_code)]

pub mod packed;
