//! `simfs-dv` — the SimFS Data Virtualizer daemon binary.
//!
//! Serves one simulation context described by a spec file (see
//! [`simfs::spec`]), launching `simfs-simd` subprocesses for
//! re-simulations:
//!
//! ```sh
//! # one-time: the initial simulation (restart files + checksum db)
//! simfs-dv --spec climate.ctx --init
//!
//! # serve the virtualized context
//! simfs-dv --spec climate.ctx --listen 127.0.0.1:7878
//! ```
//!
//! Analyses then connect with `SimfsClient::connect(addr, "climate")`
//! or any tool built on the transparent-mode facade.
//!
//! `--listen` is the only address there is. A daemon listening on a
//! loopback address (or on `0.0.0.0`/`::`) also binds the abstract Unix
//! socket named after it — the start-up line prints it as
//! `@simfs-dv/127.0.0.1:7878` — and sessions that target that loopback
//! address ride it instead of the TCP stack; remote sessions, and
//! hand-rolled TCP clients, use the TCP address as ever. There is no
//! flag for this (`simfs_core::net`).
//!
//! The context runs one Data Virtualizer. To split its restart
//! intervals, its cache budget and `s_max` over several daemons, start
//! one `simfs-dv` per member with `--cluster-index k --cluster-size n`
//! over the same data directory; DVLib's `DvCluster` routes each key to
//! its owner.

use simbatch::ProcessLauncher;
use simfs::spec::ContextSpec;
use simfs_core::dv::ClusterMember;
use simfs_core::server::{DurabilityCfg, DvServer, ServerConfig};
use simstore::{checksum_db, StorageArea};
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    spec_path: String,
    listen: String,
    init: bool,
    simd_program: String,
    cluster_index: u32,
    cluster_size: u32,
    durable: bool,
    recover: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        spec_path: String::new(),
        listen: "127.0.0.1:0".to_string(),
        init: false,
        simd_program: "simfs-simd".to_string(),
        cluster_index: 0,
        cluster_size: 1,
        durable: false,
        recover: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--spec" => {
                i += 1;
                args.spec_path = argv.get(i).cloned().ok_or("--spec needs a path")?;
            }
            "--listen" => {
                i += 1;
                args.listen = argv.get(i).cloned().ok_or("--listen needs an address")?;
            }
            "--simd" => {
                i += 1;
                args.simd_program = argv.get(i).cloned().ok_or("--simd needs a path")?;
            }
            "--init" => args.init = true,
            "--durable" => args.durable = true,
            "--recover" => {
                args.durable = true;
                args.recover = true;
            }
            "--cluster-index" => {
                i += 1;
                args.cluster_index = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--cluster-index needs this daemon's index (0-based)")?;
            }
            "--cluster-size" => {
                i += 1;
                args.cluster_size = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--cluster-size needs the total daemon count")?;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if args.spec_path.is_empty() {
        return Err(
            "usage: simfs-dv --spec <file> [--listen addr] [--simd path] \
             [--cluster-index k --cluster-size n] \
             [--durable] [--recover] [--init]"
                .into(),
        );
    }
    if args.cluster_index >= args.cluster_size {
        return Err(format!(
            "--cluster-index {} out of range 0..{} (set --cluster-size first)",
            args.cluster_index, args.cluster_size
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("simfs-dv: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let text = std::fs::read_to_string(&args.spec_path)
        .map_err(|e| format!("cannot read {}: {e}", args.spec_path))?;
    let spec = ContextSpec::parse(&text)?;
    let storage = StorageArea::create(&spec.data_dir, u64::MAX).map_err(|e| e.to_string())?;

    if args.init {
        let init = simfs::setup::run_initial_simulation(
            &storage,
            spec.sim,
            spec.seed,
            spec.dd,
            spec.dr,
            spec.timesteps,
        )
        .map_err(|e| e.to_string())?;
        println!(
            "context {:?} initialized: {} restart files, {} checksums in {}",
            spec.name,
            init.restarts,
            init.checksums.len(),
            spec.data_dir
        );
        return Ok(());
    }

    let db_path = storage.root().join(checksum_db::DB_FILENAME);
    let checksums: HashMap<u64, u64> = if db_path.is_file() {
        checksum_db::load(&db_path).map_err(|e| e.to_string())?
    } else {
        eprintln!("warning: no checksum db at {}; SIMFS_Bitrep disabled", db_path.display());
        HashMap::new()
    };

    let driver = Arc::new(spec.driver(&args.simd_program));
    let server = DvServer::start(
        ServerConfig {
            ctx: spec.context_cfg(),
            driver,
            storage,
            launcher: Arc::new(ProcessLauncher::new()),
            checksums,
            dv_shards: 1,
            cluster: ClusterMember::new(args.cluster_index, args.cluster_size),
            durability: if args.durable {
                DurabilityCfg::durable(args.recover)
            } else {
                DurabilityCfg::default()
            },
        },
        &args.listen,
    )
    .map_err(|e| format!("cannot bind {}: {e}", args.listen))?;

    println!(
        "simfs-dv serving context {:?} on {}{} (policy {}, smax {}, cache {} steps{})",
        spec.name,
        server.addr(),
        // `@name` is how ss(8) and /proc/net/unix spell an abstract
        // socket: same-host sessions reach the daemon there.
        match server.local_name() {
            Some(name) => format!(" and local socket @{name}"),
            None => " (TCP only)".to_string(),
        },
        spec.policy,
        spec.smax,
        spec.cache_steps,
        if args.cluster_size > 1 {
            format!(", cluster member {} of {}", args.cluster_index, args.cluster_size)
        } else {
            String::new()
        }
    );
    if args.durable {
        println!(
            "durability on: pin/lease WAL in the storage area{}",
            if args.recover { ", recovered prior state" } else { "" }
        );
    }
    println!("press Ctrl-C to stop");
    loop {
        std::thread::park();
    }
}
