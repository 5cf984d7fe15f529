//! Simulation drivers (§III-B).
//!
//! "To let a simulator be managed by SimFS we introduce a simulation
//! driver that can be implemented as a LUA script" providing (1) the
//! naming convention — a `key` function mapping filenames to a
//! monotonically increasing integer — and (2) simulation-job creation
//! taking start/stop keys and a parallelism level.
//!
//! Here the driver is a Rust trait ([`SimDriver`]); [`PatternDriver`] is
//! the standard implementation covering the universal HPC convention of
//! zero-padded step numbers in filenames (`out-000042.sdf`). DESIGN.md
//! §3 documents the LUA-to-trait substitution.

use simbatch::{ParallelismMap, SpawnSpec};
use simstore::{fnv1a64, StorageArea};
use std::io;

/// Simulator-specific knowledge the DV needs (§III-B).
pub trait SimDriver: Send + Sync {
    /// Naming convention: extracts the output-step key from a filename.
    /// Must be monotone: files produced later map to larger keys.
    fn key_of(&self, filename: &str) -> Option<u64>;

    /// Inverse of [`key_of`](Self::key_of): the canonical filename of a
    /// key.
    fn filename_of(&self, key: u64) -> String;

    /// Filename of restart step `j`.
    fn restart_filename(&self, j: u64) -> String;

    /// Builds the job that simulates output steps
    /// `start_key ..= stop_key` at the given parallelism level
    /// (the "simulation job" script of §III-B).
    fn make_job(&self, start_key: u64, stop_key: u64, level: u32) -> SpawnSpec;

    /// The parallelism constraints of this simulator.
    fn parallelism(&self) -> ParallelismMap;

    /// Checksum used by `SIMFS_Bitrep` (§III-C: "the way the checksum is
    /// computed is simulator-specific and specified as a function of
    /// simulator driver"). Default: FNV-1a 64.
    fn checksum(&self, bytes: &[u8]) -> u64 {
        fnv1a64(bytes)
    }
}

/// Driver for `<prefix><zero-padded key><suffix>` naming, launching a
/// configurable simulator binary.
#[derive(Clone, Debug)]
pub struct PatternDriver {
    prefix: String,
    suffix: String,
    restart_prefix: String,
    width: usize,
    /// Program + fixed arguments used to build jobs.
    program: String,
    fixed_args: Vec<String>,
    parallelism: ParallelismMap,
}

impl PatternDriver {
    /// A driver naming outputs `<prefix>NNN…<suffix>` with `width`
    /// zero-padded digits and restarts `restart-NNN…<suffix>`.
    pub fn new(prefix: &str, suffix: &str, width: usize) -> PatternDriver {
        assert!((1..=19).contains(&width), "pad width out of range");
        PatternDriver {
            prefix: prefix.to_string(),
            suffix: suffix.to_string(),
            restart_prefix: "restart-".to_string(),
            width,
            program: "simfs-simd".to_string(),
            fixed_args: Vec::new(),
            parallelism: ParallelismMap::unconstrained(1, 4),
        }
    }

    /// Builder: the simulator program and its fixed arguments.
    pub fn with_program(mut self, program: &str, fixed_args: Vec<String>) -> Self {
        self.program = program.to_string();
        self.fixed_args = fixed_args;
        self
    }

    /// Builder: parallelism constraints.
    pub fn with_parallelism(mut self, map: ParallelismMap) -> Self {
        self.parallelism = map;
        self
    }

    /// Builder: restart-file prefix.
    pub fn with_restart_prefix(mut self, prefix: &str) -> Self {
        self.restart_prefix = prefix.to_string();
        self
    }
}

impl SimDriver for PatternDriver {
    fn key_of(&self, filename: &str) -> Option<u64> {
        let rest = filename.strip_prefix(&self.prefix)?;
        let digits = rest.strip_suffix(&self.suffix)?;
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        digits.parse().ok()
    }

    fn filename_of(&self, key: u64) -> String {
        format!(
            "{}{:0width$}{}",
            self.prefix,
            key,
            self.suffix,
            width = self.width
        )
    }

    fn restart_filename(&self, j: u64) -> String {
        format!(
            "{}{:0width$}{}",
            self.restart_prefix,
            j,
            self.suffix,
            width = self.width
        )
    }

    fn make_job(&self, start_key: u64, stop_key: u64, level: u32) -> SpawnSpec {
        let mut args = self.fixed_args.clone();
        args.extend([
            "--start-key".to_string(),
            start_key.to_string(),
            "--stop-key".to_string(),
            stop_key.to_string(),
            "--nodes".to_string(),
            self.parallelism.nodes_for_level(level).to_string(),
        ]);
        SpawnSpec::new(&self.program, args)
    }

    fn parallelism(&self) -> ParallelismMap {
        self.parallelism
    }
}

/// What [`checksum_fingerprint`] hashes.
const CHECKSUM_PROBE: &[u8] = b"SIMFS_Bitrep checksum fingerprint probe: 0123456789abcdef";

/// A fingerprint of `driver`'s checksum function: its checksum of a
/// fixed probe buffer. A session whose driver's fingerprint differs
/// from the one the daemon published computes other checksums than the
/// recorded ones, and leaves `SIMFS_Bitrep` to the daemon.
pub(crate) fn checksum_fingerprint(driver: &dyn SimDriver) -> u64 {
    driver.checksum(CHECKSUM_PROBE)
}

/// `SIMFS_Bitrep`'s check (§III-C), the one the daemon and a mapped
/// session both run: reads step `key` under its name, applies the
/// driver's checksum and compares it with `recorded`, the initial
/// simulation's value. `Ok(None)` when nothing was recorded for the
/// key; an error when the file cannot be read. Nothing is cached: every
/// call re-reads and re-hashes.
pub(crate) fn bitrep_check(
    driver: &dyn SimDriver,
    storage: &StorageArea,
    key: u64,
    recorded: Option<u64>,
) -> io::Result<Option<bool>> {
    let bytes = storage.read(&driver.filename_of(key))?;
    Ok(recorded.map(|recorded| driver.checksum(&bytes) == recorded))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn driver() -> PatternDriver {
        PatternDriver::new("out-", ".sdf", 6)
    }

    #[test]
    fn filename_roundtrip() {
        let d = driver();
        assert_eq!(d.filename_of(42), "out-000042.sdf");
        assert_eq!(d.key_of("out-000042.sdf"), Some(42));
        assert_eq!(d.key_of(&d.filename_of(0)), Some(0));
        // Keys wider than the pad still roundtrip.
        assert_eq!(d.key_of(&d.filename_of(12345678)), Some(12345678));
    }

    #[test]
    fn key_is_monotone_in_name_order() {
        let d = driver();
        let names: Vec<String> = (1..100).map(|k| d.filename_of(k)).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "zero-padding keeps lexical = numeric order");
    }

    #[test]
    fn foreign_filenames_rejected() {
        let d = driver();
        assert_eq!(d.key_of("restart-000001.sdf"), None);
        assert_eq!(d.key_of("out-xyz.sdf"), None);
        assert_eq!(d.key_of("out-000001.nc"), None);
        assert_eq!(d.key_of("out-.sdf"), None);
        assert_eq!(d.key_of(""), None);
    }

    #[test]
    fn restart_names_are_distinct_namespace() {
        let d = driver();
        assert_eq!(d.restart_filename(3), "restart-000003.sdf");
        assert_eq!(d.key_of(&d.restart_filename(3)), None);
    }

    #[test]
    fn job_args_carry_range_and_nodes() {
        let d = driver().with_program(
            "./target/debug/simfs-simd",
            vec!["--sim".into(), "heat2d".into()],
        );
        let spec = d.make_job(49, 96, 1);
        assert_eq!(spec.program, "./target/debug/simfs-simd");
        let line = spec.command_line();
        assert!(line.contains("--start-key 49"));
        assert!(line.contains("--stop-key 96"));
        assert!(line.contains("--nodes 2"), "level 1 doubles base 1: {line}");
        assert!(line.contains("--sim heat2d"));
    }

    #[test]
    fn default_checksum_is_fnv() {
        let d = driver();
        assert_eq!(d.checksum(b"x"), simstore::fnv1a64(b"x"));
    }
}
