//! # simfs-core — the SimFS Data Virtualizer
//!
//! SimFS virtualizes simulation output the way an OS virtualizes memory
//! (§II): analyses see the complete set of output steps, but only a
//! subset is materialized; accesses to missing steps trigger
//! re-simulations restarted from checkpoint files. This crate implements
//! the paper's contribution:
//!
//! * [`model`] — the simulation model (§II-A): output/restart cadences
//!   `Δd`/`Δr`, the restart mapping `R(d_i)`, re-simulation ranges,
//!   miss costs, and the per-context configuration.
//! * [`dv`] — the **Data Virtualizer**: a deterministic, I/O-free state
//!   machine handling acquire/release, miss-triggered launches,
//!   reference counting, caching (§III-A/D) and prefetch-driven launch
//!   and kill decisions (§IV). Events in, actions out; no clocks, no
//!   sockets — both the virtual-time harness and the TCP daemon drive
//!   the same logic.
//! * [`prefetch`] — per-client prefetch agents (§IV-B): stride/direction
//!   detection, restart-latency masking, bandwidth matching with the
//!   doubling ramp, backward prefetching, and pollution resets.
//! * [`perfmodel`] — the performance estimators: exponential moving
//!   averages of `alpha_sim`, `tau_sim`, `tau_cli` (§IV-C1c).
//! * [`driver`] — simulation drivers (§III-B): naming conventions,
//!   key extraction, job creation (the paper's LUA scripts, as a Rust
//!   trait + pattern driver).
//! * [`mod@replay`] — synchronous workload replay: computes `V(γ)`
//!   (number of re-simulated steps) for the cost models and Fig. 5.
//! * [`vharness`] — the virtual-time experiment harness tying the DV to
//!   `simkit`'s engine and `simbatch`'s cluster (Figs. 16–19).
//! * `route` (crate-private) — the cluster-routing core: down set,
//!   takeover epoch, re-home, hand-back and the members' ownership
//!   rule as one sans-IO state machine, driven by both
//!   [`DvCluster`](client::DvCluster) and the virtual fault harness.
//! * [`wire`], [`server`], [`client`], [`intercept`] — the real deal: a
//!   length-prefixed TCP protocol (the paper's "control messages
//!   (TCP/IP)", Fig. 4), the daemon, the DVLib client API
//!   (`SIMFS_Init/Acquire/Wait/.../Bitrep`, §III-C), and the
//!   transparent-mode I/O facade (Table I).
//! * [`reactor`], [`sys`] — the daemon's sharded epoll front-end: a
//!   fixed pool of event-loop threads serves every connection (raw
//!   `extern "C"` epoll/eventfd bindings; no external dependency).
//! * [`net`] — the one transport decision: a daemon's TCP address
//!   doubles as an abstract Unix socket name, same-host sessions ride
//!   that, remote ones ride TCP, and the framing, reactor and handlers
//!   above cannot tell.
//! * `shm` (crate-private) — the mapped hit path: a same-host session
//!   of a solo, non-durable context maps the context's hit table and a
//!   session mapping of its own at hello, and pins resident steps
//!   through its own slots with no frame exchanged.
//! * [`effectpool`] — the effect-execution tier: bounded per-shard
//!   queues feeding helper threads that own every blocking effect
//!   (sim launch/kill, WAL group-fsync, eviction deletes, storage
//!   reads), so a reactor shard never waits on disk or `fork`.

pub mod client;
pub mod driver;
pub mod dv;
pub mod effectpool;
pub mod intercept;
pub mod model;
pub mod net;
pub mod perfmodel;
pub mod prefetch;
pub mod reactor;
pub mod replay;
mod route;
pub mod server;
mod shm;
pub mod sys;
pub mod vharness;
pub mod wire;

pub use client::{AcquireRequest, FailError, SimfsClient, SimfsStatus};
pub use driver::{PatternDriver, SimDriver};
pub use dv::{
    ClientId, DataVirtualizer, DvAction, DvEvent, DvStats, FailCode, LaunchReason, SimId,
};
pub use model::{ContextCfg, StepMath};
pub use replay::{replay, ReplayStats};
pub use server::{DvServer, ServerConfig};
pub use vharness::{AnalysisResult, VirtualExperiment};
