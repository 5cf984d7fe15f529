//! # SimFS — a simulation data virtualizing file system interface
//!
//! Reproduction of Di Girolamo, Schmid, Schulthess, Hoefler,
//! *"SimFS: A Simulation Data Virtualizing File System Interface"*,
//! IPDPS 2019 (arXiv:1902.03154).
//!
//! SimFS lets analysis applications see a simulation's **complete**
//! output as files while only a subset is actually stored: accesses to
//! missing output steps transparently restart the simulation from the
//! nearest checkpoint and re-create the data on demand, trading storage
//! cost for compute cost. A cost-aware cache (DCL by default) decides
//! which steps stay on disk; prefetch agents overlap re-simulation with
//! analysis.
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`core`] (`simfs-core`) | Data Virtualizer state machine, prefetch agents, drivers, client API, TCP daemon |
//! | [`simcache`] | Replacement policies: LRU, LIRS, ARC, BCL, DCL |
//! | [`simstore`] | SDF array file format, storage areas, checksums |
//! | [`simbatch`] | Cluster model, queueing delays, process launcher |
//! | [`simtrace`] | Access-pattern generators (incl. ECMWF-like) |
//! | [`simulators`] | Restartable simulators: synthetic, Heat2d, Sedov |
//! | [`simcost`] | §V cost models (on-disk / in-situ / SimFS) |
//! | [`simkit`] | Deterministic discrete-event engine + statistics |
//!
//! ## Quickstart
//!
//! ```no_run
//! use simfs::prelude::*;
//! use std::sync::Arc;
//! use std::collections::HashMap;
//!
//! // A context: one output step per timestep, restart every 4, 64 steps.
//! let steps = StepMath::new(1, 4, 64);
//! let ctx = ContextCfg::new("demo", steps, 1024, 64 * 1024);
//! let storage = StorageArea::create("/tmp/simfs-demo", u64::MAX).unwrap();
//! let driver = Arc::new(PatternDriver::new("out-", ".sdf", 6));
//! # let launcher: Arc<dyn simbatch::JobLauncher> = unimplemented!();
//! let server = DvServer::start(ServerConfig {
//!     ctx, driver, storage, launcher, checksums: HashMap::new(),
//!     dv_shards: 0, // one DV per context; larger values are refused
//!     cluster: ClusterMember::SOLO,
//!     durability: DurabilityCfg::default(),
//! }, "127.0.0.1:0").unwrap();
//!
//! // An analysis: acquire a step that does not exist yet — SimFS
//! // re-simulates it on demand.
//! let mut client = SimfsClient::connect(server.addr(), "demo").unwrap();
//! let status = client.acquire(&[42]).unwrap();
//! assert!(status.ok());
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and
//! `crates/bench` for the harnesses regenerating every table and figure
//! of the paper.

pub use simbatch;
pub use simcache;
pub use simcost;
pub use simfs_core as core;
pub use simkit;
pub use simstore;
pub use simtrace;
pub use simulators;

pub mod launchers;
pub mod setup;
pub mod spec;

/// The items most applications need.
pub mod prelude {
    pub use simbatch::{JobLauncher, ParallelismMap, ProcessLauncher, QueueModel};
    pub use simfs_core::client::{DvCluster, SimfsClient, SimfsStatus};
    pub use simfs_core::driver::{PatternDriver, SimDriver};
    pub use simfs_core::dv::ClusterMember;
    pub use simfs_core::intercept::VirtualFs;
    pub use simfs_core::model::{ContextCfg, StepMath};
    pub use simfs_core::server::{DurabilityCfg, DvServer, ServerConfig, ThreadSimLauncher};
    pub use simkit::{Dur, SimTime};
    pub use simstore::{Dataset, StorageArea};
}
