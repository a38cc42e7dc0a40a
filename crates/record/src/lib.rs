//! Record model and codecs for the PaPar framework.
//!
//! PaPar operators manipulate *records*: flat tuples of typed values whose
//! layout is declared by an InputData configuration (paper Section III-A).
//! This crate provides:
//!
//! * [`value::Value`] — the dynamically-typed, 16-byte field value with a
//!   total order (used as operator keys); strings are [`value::SmallStr`],
//!   stored in place up to 14 bytes,
//! * [`schema::Schema`] — the field list of a dataset, extendable by add-on
//!   operators that append attributes (paper Section III-B),
//! * [`record::Record`] — one tuple, up to four values stored in place,
//! * [`batch::Batch`] — a dataset fragment: flat records, the *packed*
//!   format produced by the `pack` format operator, or [`batch::Rows`],
//!   the flat records of a fixed-width schema kept as their wire bytes,
//! * [`packed::PackedRecord`] — a key plus the group of records sharing it,
//! * [`codec`] — readers/writers for the two on-disk formats (fixed-width
//!   binary and delimited text),
//! * [`wire`] — the byte serialization used when records travel between
//!   simulated cluster nodes, and
//! * [`compress`] — the CSR/CSC-style compression of packed data described
//!   in paper Section III-D ("Data Compression"),
//! * [`view`] — borrowed zero-copy views over wire bytes (the reduce hot
//!   path sorts references into shuffle buffers instead of owned pairs), and
//! * [`prefix`] — order-preserving fixed-width key prefixes so sorts and
//!   range partitioning compare raw integers, falling back to full decode
//!   only on prefix ties.

#![forbid(unsafe_code)]

pub mod batch;
pub mod codec;
pub mod compress;
pub mod packed;
pub mod prefix;
pub mod record;
pub mod schema;
pub mod value;
pub mod view;
pub mod wire;

pub use batch::{Batch, RowRef, Rows};
pub use packed::PackedRecord;
pub use record::Record;
pub use schema::Schema;
pub use value::{SmallStr, Value};

/// Error raised by codecs and wire (de)serialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// Result alias for codec operations.
pub type Result<T> = std::result::Result<T, CodecError>;
