//! # simstore — storage substrate for SimFS
//!
//! The paper's deployment writes simulation output through netCDF/HDF5
//! onto Lustre. This crate is the equivalent substrate built from
//! scratch:
//!
//! * [`sdf`] — the **S**elf-**D**escribing **F**ormat, a compact binary
//!   array container playing the role of netCDF: named n-dimensional
//!   variables, string attributes, a step index and simulated time, and
//!   an XXH64 integrity footer (container version 2). Encoding is
//!   canonical (attributes are ordered), so bitwise-identical
//!   simulation states produce bitwise-identical files — the property
//!   `SIMFS_Bitrep` verifies. `decode` and `verify` share one
//!   bounds-checked walk, so a sealed-but-malformed file is an error,
//!   never a panic or an allocation sized by a forged count.
//! * [`checksum`] — the two digests, implemented in-crate: FNV-1a
//!   (64-bit), the whole-file digest behind the driver's checksum
//!   function, `checksums.db` and the WAL record sum (§III-C); and
//!   XXH64, the SDF footer, which is recomputed on every open.
//! * [`area`] — storage areas: the per-context directories the DV
//!   redirects simulator output into (§III-A), with atomic
//!   write-then-rename publication so analyses never observe partially
//!   written output steps.
//! * [`walog`] — the write-ahead pin/lease log: fixed-size checksummed
//!   records, torn-tail-tolerant replay and checkpoint compaction, the
//!   durability substrate that lets a crashed DV daemon re-establish
//!   its authority over the storage area on restart.

pub mod area;
pub mod checksum;
pub mod checksum_db;
pub mod sdf;
pub mod walog;

pub use area::StorageArea;
pub use checksum::{fnv1a64, xxh64, Fnv1a};
pub use sdf::{Data, Dataset, DType, SdfError, Variable};
pub use walog::{WalRecord, WalState, WriteAheadLog};
