//! Transparent mode: the I/O-library interposition facade (§III-C1,
//! Table I).
//!
//! The paper's DVLib interposes on netCDF/HDF5/ADIOS entry points so
//! unmodified analyses work on virtualized data. The equivalent here is
//! [`VirtualFs`]: open/read/close over SDF datasets where `open` blocks
//! (acquires through the DV) until missing steps are re-simulated, and
//! `close` releases the pin. The per-dialect wrappers ([`netcdf`],
//! [`hdf5`], [`adios`]) carry the paper's Table I names so a port of an
//! existing analysis is a textual substitution.
//!
//! A resident open is a pin and a read of the analysis's own file, so
//! the read is what it costs. Each session reads through its own
//! [`StepReader`]: from a step's second read on, it keeps the step's
//! file open and serves each read with one `pread` into a buffer it
//! reuses (a scan, read once, caches nothing). That is safe because
//! published files are immutable — a step is published by write-temp →
//! fsync → rename and evicted by unlink — and the reader knows when a
//! cached file stopped being the step's:
//!
//! * **Mapped sessions** prove it from the pin. A slot pin returns the
//!   residency epoch of the key's table word, which the daemon advances
//!   whenever a new production of the key becomes resident (a
//!   re-simulation after an eviction, or an overlapping production
//!   renamed over a resident file). A cached file tagged with the epoch
//!   its pin proves is read without an `fstat`; any other epoch (or a
//!   mapping other than the one the tag came from) checks the file on
//!   disk and re-tags it. The steady-state resident open is one slot
//!   store, one `pread`, one decode and one slot clear, and allocates
//!   nothing but the returned [`Dataset`].
//! * **Other sessions** (TCP, clustered, a pin the daemon granted)
//!   check each cached file with one `fstat`: still linked
//!   (`st_nlink > 0`) means still the file under its name; a re-publish
//!   or an eviction unlinks it and the reader opens the name again.
//!
//! The cached files of all sessions in a process stay within a quarter
//! of the soft `RLIMIT_NOFILE`, and each read probes one other entry —
//! against the table where the tag allows, with an `fstat` otherwise —
//! so a session holds at most `entries × step size` bytes of evicted
//! steps, each for at most `entries` further reads. A step file deleted
//! behind the daemon's back is served from its open inode by a proven
//! read until the daemon retires the key.
//!
//! `SIMFS_Bitrep` is not served from the step reader. A [`VirtualFs`]
//! hands its session the driver and the storage area, and a mapped
//! session answers `vfs.session().bitrep(key)` of a resident key itself
//! by re-reading the file under its name and hashing it against the
//! checksum its table records; every other session, and every key the
//! session cannot settle, asks the daemon ([`SimfsClient::bitrep`]).

use crate::client::SimfsClient;
use crate::driver::SimDriver;
use simstore::{Dataset, StepReader, StorageArea};
use std::io;
use std::sync::Arc;

/// A virtualized view of a simulation context's output files.
///
/// Files are addressed by their *names* (the driver's naming
/// convention); the DV works in keys internally.
///
/// Every [`open`](Self::open) reads through the session's
/// [`StepReader`], on every transport: a step read before is served
/// from its cached file while the pin proves it resident or, without a
/// proof, while the file is still linked (see the [module docs](self)
/// for the invariant and the bounds). The cached files are closed when
/// the session is finalized or dropped.
pub struct VirtualFs {
    client: SimfsClient,
    driver: Arc<dyn SimDriver>,
    storage: StorageArea,
    reader: StepReader,
}

impl VirtualFs {
    /// Wraps an analysis session with the context's naming convention
    /// and storage area. The session gets both too, so that, while it
    /// maps the context's table, it answers `SIMFS_Bitrep` itself
    /// ([`SimfsClient::bitrep`]).
    pub fn new(mut client: SimfsClient, driver: Arc<dyn SimDriver>, storage: StorageArea) -> VirtualFs {
        client.set_local_bitrep(Arc::clone(&driver), storage.clone());
        VirtualFs {
            client,
            driver,
            reader: storage.reader(),
            storage,
        }
    }

    fn key_for(&self, filename: &str) -> io::Result<u64> {
        self.driver.key_of(filename).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{filename:?} does not follow the context's naming convention"),
            )
        })
    }

    /// Transparent `open` + `read`: blocks until the step is on disk
    /// (re-simulating if needed), then parses it. The file stays pinned
    /// until [`close`](Self::close).
    pub fn open(&mut self, filename: &str) -> io::Result<Dataset> {
        let key = self.key_for(filename)?;
        if let Some(proof) = self.client.pin_mapped(key)? {
            let opened = self.read(key, filename, Some(proof));
            if opened.is_ok() {
                return opened;
            }
            // A pin taken through the shared table involved no daemon:
            // ask it now. A live daemon serves the step (re-simulating
            // it if it is gone), a dead one surfaces — and, with
            // auto-reconnect on, is recovered — instead of the session
            // going on serving from its table.
            self.client.release(key)?;
        }
        let status = self.client.acquire_via_daemon(&[key])?;
        if let Some((k, reason)) = status.failed.first() {
            return Err(io::Error::other(format!("acquire of step {k} failed: {reason}")));
        }
        let opened = self.read(key, filename, None);
        if opened.is_err() {
            // The acquire pinned the step, but a failed open hands the
            // caller nothing to `close`: drop the pin here (flushed, as
            // in `close`) or it stays unevictable for the whole
            // session. The read/decode error is the one to surface.
            let _ = self.client.release(key).and_then(|()| self.client.flush());
        }
        opened
    }

    /// Reads and decodes step `key` behind a pin with residency proof
    /// `proof` (`None`: a pin the daemon granted). The reader judges its
    /// tagged files by the session's table; a session without one has
    /// no proofs, so every cached file is checked on disk.
    fn read(&mut self, key: u64, filename: &str, proof: Option<u64>) -> io::Result<Dataset> {
        let client = &self.client;
        self.reader
            .read_proven(key, filename, proof, &|k| client.proof_of(k))
            .and_then(|bytes| Dataset::decode(bytes).map_err(io::Error::other))
    }

    /// Transparent `close`: releases the pin taken by
    /// [`open`](Self::open).
    pub fn close(&mut self, filename: &str) -> io::Result<()> {
        let key = self.key_for(filename)?;
        self.client.release(key)?;
        // The transparent API promises the pin is dropped at close —
        // an analysis may compute for hours before its next SimFS call,
        // and a staged release would hold the step unevictable the
        // whole time. Flush instead of riding the next request. (A pin
        // from the shared table is dropped in its slot by `release`,
        // stages nothing, and the flush makes no write.)
        self.client.flush()
    }

    /// Does the file currently exist on disk? (No DV round-trip; the
    /// virtualized answer to "is it materialized", not "does it exist"
    /// — under SimFS every valid name virtually exists.)
    pub fn is_materialized(&self, filename: &str) -> bool {
        self.storage.exists(filename)
    }

    /// Access to the underlying session for the explicit SimFS API
    /// (§III-C2) alongside transparent calls.
    pub fn session(&mut self) -> &mut SimfsClient {
        &mut self.client
    }

    /// The session's step reader (its cached files and counters).
    pub fn step_reader(&self) -> &StepReader {
        &self.reader
    }

    /// Finalizes the session and closes its cached step files.
    pub fn finalize(self) -> io::Result<()> {
        self.client.finalize()
    }
}

/// One row of the paper's Table I: a data-access operation and its name
/// in each supported I/O library.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DialectRow {
    /// Abstract operation.
    pub call: &'static str,
    /// (P)NetCDF entry point.
    pub netcdf: &'static str,
    /// (P)HDF5 entry point.
    pub hdf5: &'static str,
    /// ADIOS entry point.
    pub adios: &'static str,
}

/// Table I of the paper: the mapping of data-access operations to I/O
/// libraries.
pub const TABLE_I: [DialectRow; 4] = [
    DialectRow {
        call: "open",
        netcdf: "nc(mpi)_open",
        hdf5: "H5Fopen",
        adios: "adios_open (r)",
    },
    DialectRow {
        call: "create",
        netcdf: "nc(mpi)_create",
        hdf5: "H5Fcreate",
        adios: "adios_open (w)",
    },
    DialectRow {
        call: "read",
        netcdf: "nc(mpi)_vara_get_type",
        hdf5: "H5Dread",
        adios: "adios_schedule_read",
    },
    DialectRow {
        call: "close",
        netcdf: "nc(mpi)_close",
        hdf5: "H5Fclose",
        adios: "adios_close",
    },
];

/// netCDF-flavoured wrappers (Table I, column 2).
pub mod netcdf {
    use super::VirtualFs;
    use simstore::Dataset;
    use std::io;

    /// `nc_open`: transparent open of a virtualized file.
    pub fn nc_open(vfs: &mut VirtualFs, path: &str) -> io::Result<Dataset> {
        vfs.open(path)
    }

    /// `nc_vara_get_double`: reads a variable from an opened dataset.
    pub fn nc_vara_get_double<'d>(ds: &'d Dataset, var: &str) -> io::Result<&'d [f64]> {
        ds.var(var)
            .and_then(|v| v.data.as_f64())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no f64 var {var:?}")))
    }

    /// `nc_close`: transparent close.
    pub fn nc_close(vfs: &mut VirtualFs, path: &str) -> io::Result<()> {
        vfs.close(path)
    }
}

/// HDF5-flavoured wrappers (Table I, column 3).
pub mod hdf5 {
    use super::VirtualFs;
    use simstore::Dataset;
    use std::io;

    /// `H5Fopen`.
    pub fn h5f_open(vfs: &mut VirtualFs, path: &str) -> io::Result<Dataset> {
        vfs.open(path)
    }

    /// `H5Dread`.
    pub fn h5d_read<'d>(ds: &'d Dataset, dataset: &str) -> io::Result<&'d [f64]> {
        super::netcdf::nc_vara_get_double(ds, dataset)
    }

    /// `H5Fclose`.
    pub fn h5f_close(vfs: &mut VirtualFs, path: &str) -> io::Result<()> {
        vfs.close(path)
    }
}

/// ADIOS-flavoured wrappers (Table I, column 4).
pub mod adios {
    use super::VirtualFs;
    use simstore::Dataset;
    use std::io;

    /// `adios_open` in read mode.
    pub fn adios_open_read(vfs: &mut VirtualFs, path: &str) -> io::Result<Dataset> {
        vfs.open(path)
    }

    /// `adios_schedule_read` (immediate in this facade).
    pub fn adios_schedule_read<'d>(ds: &'d Dataset, var: &str) -> io::Result<&'d [f64]> {
        super::netcdf::nc_vara_get_double(ds, var)
    }

    /// `adios_close`.
    pub fn adios_close(vfs: &mut VirtualFs, path: &str) -> io::Result<()> {
        vfs.close(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_one_matches_paper() {
        assert_eq!(TABLE_I.len(), 4);
        assert_eq!(TABLE_I[0].hdf5, "H5Fopen");
        assert_eq!(TABLE_I[2].adios, "adios_schedule_read");
        assert_eq!(TABLE_I[3].netcdf, "nc(mpi)_close");
        let calls: Vec<&str> = TABLE_I.iter().map(|r| r.call).collect();
        assert_eq!(calls, vec!["open", "create", "read", "close"]);
    }
}
