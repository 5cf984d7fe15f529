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

use crate::client::SimfsClient;
use crate::driver::SimDriver;
use simstore::{Dataset, StorageArea};
use std::io;
use std::sync::Arc;

/// A virtualized view of a simulation context's output files.
///
/// Files are addressed by their *names* (the driver's naming
/// convention); the DV works in keys internally.
pub struct VirtualFs {
    client: SimfsClient,
    driver: Arc<dyn SimDriver>,
    storage: StorageArea,
}

impl VirtualFs {
    /// Wraps an analysis session with the context's naming convention
    /// and storage area.
    pub fn new(client: SimfsClient, driver: Arc<dyn SimDriver>, storage: StorageArea) -> VirtualFs {
        VirtualFs {
            client,
            driver,
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
        let status = self.client.acquire(&[key])?;
        if let Some((k, reason)) = status.failed.first() {
            return Err(io::Error::other(format!("acquire of step {k} failed: {reason}")));
        }
        let mut opened = self.read(filename);
        if opened.is_err() && self.client.holds_shared(key) {
            // A pin taken through the shared table involved no daemon:
            // ask it now. A live daemon serves the step (re-simulating
            // it if it is gone), a dead one surfaces — and, with
            // auto-reconnect on, is recovered — instead of the session
            // going on serving from its table.
            self.client.release(key)?;
            let status = self.client.acquire_via_daemon(&[key])?;
            if let Some((k, reason)) = status.failed.first() {
                return Err(io::Error::other(format!("acquire of step {k} failed: {reason}")));
            }
            opened = self.read(filename);
        }
        if opened.is_err() {
            // The acquire pinned the step, but a failed open hands the
            // caller nothing to `close`: drop the pin here (flushed, as
            // in `close`) or it stays unevictable for the whole
            // session. The read/decode error is the one to surface.
            let _ = self.client.release(key).and_then(|()| self.client.flush());
        }
        opened
    }

    fn read(&self, filename: &str) -> io::Result<Dataset> {
        self.storage
            .read(filename)
            .and_then(|bytes| Dataset::decode(&bytes).map_err(io::Error::other))
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

    /// Finalizes the session.
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
