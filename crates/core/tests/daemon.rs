//! End-to-end daemon tests: the Fig. 4 protocol over real TCP sockets
//! with in-thread simulator jobs.

use simbatch::ParallelismMap;
use simfs_core::client::SimfsClient;
use simfs_core::driver::{PatternDriver, SimDriver};
use simfs_core::intercept::{netcdf, VirtualFs};
use simfs_core::model::{ContextCfg, StepMath};
use simfs_core::server::{ClusterMember, DurabilityCfg, DvServer, ServerConfig, ThreadSimLauncher};
use simstore::{Data, Dataset, StorageArea};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

fn step_bytes(key: u64) -> Vec<u8> {
    let mut ds = Dataset::new(key, key as f64);
    ds.set_attr("simulator", "synthetic");
    let field: Vec<f64> = (0..16).map(|i| (key * 31 + i) as f64).collect();
    ds.add_var("field", vec![16], Data::F64(field)).unwrap();
    ds.encode().to_vec()
}

struct Fixture {
    server: DvServer,
    storage: StorageArea,
    driver: Arc<PatternDriver>,
    _dir: std::path::PathBuf,
}

/// Starts a daemon (one DV per context) over a fresh storage
/// area. B = 4, N = 64 output steps, cache of `cache_steps` steps,
/// checksums recorded for keys 1..=8, prefetching on (agents observe
/// through the access-stream digest; hits serve through the lock-free
/// fast path in every configuration).
fn start_daemon(tag: &str, cache_steps: u64, smax: u32) -> Fixture {
    start_daemon_cfg(tag, cache_steps, smax, true)
}

/// [`start_daemon`] with an explicit prefetch switch.
fn start_daemon_cfg(tag: &str, cache_steps: u64, smax: u32, prefetch: bool) -> Fixture {
    let dir = std::env::temp_dir().join(format!(
        "simfs-daemon-{}-{}-{:?}",
        tag,
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let storage = StorageArea::create(&dir, u64::MAX).unwrap();
    let (server, driver) = serve(&storage, "127.0.0.1:0", cache_steps, smax, prefetch);
    Fixture {
        server,
        storage,
        driver,
        _dir: dir,
    }
}

/// The daemon of [`start_daemon_cfg`] over `storage`, listening on
/// `listen` (a fixed address is how a test restarts it in place).
fn serve(
    storage: &StorageArea,
    listen: &str,
    cache_steps: u64,
    smax: u32,
    prefetch: bool,
) -> (DvServer, Arc<PatternDriver>) {
    let driver = Arc::new(
        PatternDriver::new("out-", ".sdf", 6)
            .with_parallelism(ParallelismMap::unconstrained(1, 2)),
    );

    let size = step_bytes(1).len() as u64;
    let steps = StepMath::new(1, 4, 64);
    let ctx = ContextCfg::new("test-ctx", steps, size, cache_steps * size)
        .with_policy("dcl")
        .with_smax(smax)
        .with_prefetch(prefetch);

    let checksums: HashMap<u64, u64> = (1..=8)
        .map(|k| (k, simstore::fnv1a64(&step_bytes(k))))
        .collect();

    let launcher = Arc::new(ThreadSimLauncher::new(
        step_bytes,
        |key| PatternDriver::new("out-", ".sdf", 6).filename_of(key),
        Duration::from_millis(5),
        Duration::from_millis(2),
    ));
    let server = DvServer::start(
        ServerConfig {
            ctx,
            driver: driver.clone(),
            storage: storage.clone(),
            launcher,
            checksums,
            dv_shards: 1,
            cluster: ClusterMember::SOLO,
            durability: DurabilityCfg::default(),
        },
        listen,
    )
    .unwrap();
    (server, driver)
}

#[test]
fn miss_triggers_resimulation_and_unblocks_client() {
    let fx = start_daemon("miss", 1000, 4);
    let mut client = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
    assert!(!fx.storage.exists("out-000006.sdf"));
    let status = client.acquire(&[6]).unwrap();
    assert!(status.ok(), "{status:?}");
    assert_eq!(status.ready, vec![6]);
    // The whole enclosing interval 5..=8 is materialized (§II-A) — by
    // the time the sim retires; key 6 unblocks the client as soon as
    // it alone is published.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while client.status().unwrap().active_sims != 0 {
        assert!(std::time::Instant::now() < deadline, "sim never retired");
        std::thread::sleep(Duration::from_millis(2));
    }
    for k in 5..=8 {
        assert!(fx.storage.exists(&fx.driver.filename_of(k)), "key {k}");
    }
    let stats = fx.server.stats();
    assert_eq!(stats.misses, 1);
    assert!(stats.restarts >= 1);
    client.finalize().unwrap();
}

#[test]
fn second_acquire_is_a_hit() {
    let fx = start_daemon("hit", 1000, 4);
    let mut client = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
    client.acquire(&[10]).unwrap();
    client.release(10).unwrap();
    let status = client.acquire(&[10]).unwrap();
    assert!(status.ok());
    let stats = fx.server.stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 1);
    client.finalize().unwrap();
}

#[test]
fn nonblocking_acquire_with_wait_and_test() {
    let fx = start_daemon("nb", 1000, 4);
    let mut client = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
    let mut req = client.acquire_nb(&[2, 3]).unwrap();
    assert!(!req.done());
    // test() polls without blocking until production completes.
    let mut done = false;
    for _ in 0..2_000 {
        let (d, _) = client.test(&mut req).unwrap();
        if d {
            done = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(done, "re-simulation never completed");
    let status = client.wait(&mut req).unwrap();
    let mut ready = status.ready.clone();
    ready.sort_unstable();
    assert_eq!(ready, vec![2, 3]);
    client.finalize().unwrap();
}

#[test]
fn waitsome_reports_incremental_availability() {
    let fx = start_daemon("waitsome", 1000, 4);
    let mut client = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
    let mut req = client.acquire_nb(&[1, 2, 3, 4]).unwrap();
    let mut resolved = 0;
    while !req.done() {
        let status = client.waitsome(&mut req).unwrap();
        let now_resolved = status.ready.len() + status.failed.len();
        assert!(now_resolved > resolved, "waitsome must make progress");
        resolved = now_resolved;
    }
    assert_eq!(resolved, 4);
    client.finalize().unwrap();
}

#[test]
fn out_of_timeline_key_fails_cleanly() {
    let fx = start_daemon("invalid", 1000, 4);
    let mut client = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
    let status = client.acquire(&[9999]).unwrap();
    assert!(!status.ok());
    assert_eq!(status.failed.len(), 1);
    assert_eq!(status.failed[0].0, 9999);
    client.finalize().unwrap();
}

#[test]
fn bitrep_validates_resimulated_output() {
    let fx = start_daemon("bitrep", 1000, 4);
    let mut client = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
    client.acquire(&[3]).unwrap();
    // Keys 1..=8 have recorded checksums; the deterministic simulator
    // reproduces them bitwise.
    assert_eq!(client.bitrep(3).unwrap(), Some(true));
    // Key 20 has no recorded checksum.
    client.acquire(&[20]).unwrap();
    assert_eq!(client.bitrep(20).unwrap(), None);
    client.finalize().unwrap();
}

#[test]
fn bitrep_detects_corruption() {
    let fx = start_daemon("bitrep2", 1000, 4);
    let mut client = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
    client.acquire(&[5]).unwrap();
    // Corrupt the file on disk behind the DV's back.
    let name = fx.driver.filename_of(5);
    let mut bytes = fx.storage.read(&name).unwrap();
    bytes[10] ^= 0xFF;
    fx.storage.publish(&name, &bytes).unwrap();
    assert_eq!(client.bitrep(5).unwrap(), Some(false));
    client.finalize().unwrap();
}

#[test]
fn eviction_deletes_files_under_pressure() {
    // Cache of 4 steps only.
    let fx = start_daemon("evict", 4, 4);
    let mut client = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
    client.acquire(&[2]).unwrap(); // materializes 1..=4
    client.release(2).unwrap();
    client.acquire(&[6]).unwrap(); // materializes 5..=8, evicting 1..=4
    client.release(6).unwrap();
    // Give eviction deletions a moment.
    std::thread::sleep(Duration::from_millis(50));
    let on_disk: Vec<String> = fx.storage.list().unwrap();
    assert!(
        on_disk.len() <= 5,
        "storage area should stay near budget: {on_disk:?}"
    );
    let stats = fx.server.stats();
    assert!(stats.evictions >= 3, "evictions: {}", stats.evictions);
    client.finalize().unwrap();
}

#[test]
fn pinned_files_survive_pressure() {
    let fx = start_daemon("pins", 4, 4);
    let mut client = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
    client.acquire(&[2]).unwrap(); // pin on 2
    client.acquire(&[6]).unwrap(); // pressure
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        fx.storage.exists(&fx.driver.filename_of(2)),
        "pinned step deleted"
    );
    client.finalize().unwrap();
}

#[test]
fn two_clients_share_one_resimulation() {
    let fx = start_daemon("share", 1000, 4);
    let mut a = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
    let mut b = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
    let mut ra = a.acquire_nb(&[13]).unwrap();
    let mut rb = b.acquire_nb(&[14]).unwrap();
    let sa = a.wait(&mut ra).unwrap();
    let sb = b.wait(&mut rb).unwrap();
    assert!(sa.ok() && sb.ok());
    let stats = fx.server.stats();
    assert_eq!(
        stats.restarts, 1,
        "both keys in interval 13..=16: one restart"
    );
    a.finalize().unwrap();
    b.finalize().unwrap();
}

#[test]
fn transparent_mode_open_read_close() {
    let fx = start_daemon("vfs", 1000, 4);
    let client = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
    let mut vfs = VirtualFs::new(client, fx.driver.clone(), fx.storage.clone());
    assert!(!vfs.is_materialized("out-000007.sdf"));
    // Table I facade: nc_open blocks through the re-simulation.
    let ds = netcdf::nc_open(&mut vfs, "out-000007.sdf").unwrap();
    assert_eq!(ds.step_index, 7);
    let field = netcdf::nc_vara_get_double(&ds, "field").unwrap();
    assert_eq!(field.len(), 16);
    assert_eq!(field[0], (7 * 31) as f64);
    netcdf::nc_close(&mut vfs, "out-000007.sdf").unwrap();
    assert!(vfs.is_materialized("out-000007.sdf"));
    // Foreign names are rejected, not silently passed through.
    assert!(vfs.open("weird-name.nc").is_err());
    vfs.finalize().unwrap();
}

/// A failed `open` must not leave its pin behind: the caller has no
/// handle to `close`, so a leaked pin would veto eviction of the step
/// for the rest of the session.
#[test]
fn failed_open_of_corrupt_resident_file_releases_its_pin() {
    let fx = start_daemon("vfs-corrupt", 1000, 4);
    let client = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
    let mut vfs = VirtualFs::new(client, fx.driver.clone(), fx.storage.clone());
    let name = "out-000007.sdf";
    // Materialize the step, then damage the resident file on disk.
    vfs.open(name).unwrap();
    vfs.close(name).unwrap();
    std::fs::write(fx.storage.path_for(name).unwrap(), b"not an sdf file").unwrap();
    // The acquire is a hit (the DV still believes the step resident)
    // and pins it; the decode then fails.
    assert!(vfs.open(name).is_err());
    // A status round trip orders this check after the release frame.
    vfs.session().status().unwrap();
    assert_eq!(fx.server.fast_pinned("test-ctx", 7), Some(false));
    vfs.finalize().unwrap();
}

/// Links in this process's fd table to deleted files under `root`.
fn deleted_fds_under(root: &std::path::Path) -> Vec<String> {
    std::fs::read_dir("/proc/self/fd")
        .unwrap()
        .filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok())
        .map(|target| target.to_string_lossy().into_owned())
        .filter(|target| target.starts_with(&*root.to_string_lossy()) && target.ends_with(" (deleted)"))
        .collect()
}

/// A transparent session keeps the files of the steps it reads again
/// open (`simstore::StepReader`). Eviction must not leave it serving the old
/// inode or holding it: a step evicted and re-simulated reads as the
/// re-simulated bytes, and once every cached entry has had its sweep
/// probe no deleted step file is held open.
#[test]
fn virtualfs_rereads_an_evicted_step_and_holds_no_deleted_file() {
    // Cache of one interval (4 steps); no prefetch, so only the opens
    // below decide what is resident.
    let fx = start_daemon_cfg("vfs-evict", 4, 4, false);
    let client = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
    let mut vfs = VirtualFs::new(client, fx.driver.clone(), fx.storage.clone());
    let name = |k: u64| fx.driver.filename_of(k);
    let open_checked = |vfs: &mut VirtualFs, k: u64| {
        let ds = vfs.open(&name(k)).unwrap();
        assert_eq!(
            simstore::fnv1a64(&ds.encode()),
            simstore::fnv1a64(&step_bytes(k)),
            "step {k}'s bytes disagree with its checksum"
        );
        // The daemon's own check against its checksum database.
        assert_eq!(vfs.session().bitrep(k).unwrap(), Some(true), "step {k}");
        vfs.close(&name(k)).unwrap();
    };
    let await_idle = |vfs: &mut VirtualFs| {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while vfs.session().status().unwrap().active_sims != 0 {
            assert!(std::time::Instant::now() < deadline, "sim never retired");
            std::thread::sleep(Duration::from_millis(2));
        }
    };

    // Interval 1..=4, every step read twice (the second read caches
    // its file).
    for k in [1, 2, 3, 4, 1, 2, 3, 4] {
        open_checked(&mut vfs, k);
    }
    // Interval 5..=8 evicts some of it (which ones is the policy's
    // choice).
    open_checked(&mut vfs, 6);
    await_idle(&mut vfs);
    let k = (1..=4)
        .find(|&k| !fx.storage.exists(&name(k)))
        .expect("interval 5..=8 evicted none of 1..=4");
    // k again: re-simulated, and read from the new file, not from the
    // cached inode of the evicted one.
    let restarts = fx.server.stats().restarts;
    open_checked(&mut vfs, k);
    assert!(fx.server.stats().restarts > restarts, "step {k} was not re-simulated");
    await_idle(&mut vfs);
    // Whatever the two evictions unlinked is still cached (6, read
    // once, never was). The reader has one slot per step it ever held
    // at once (1..=4: four), and as many reads sweep every slot once.
    for _ in 0..4 {
        open_checked(&mut vfs, k);
    }
    let held = deleted_fds_under(fx.storage.root());
    assert!(held.is_empty(), "deleted steps still open: {held:?}");
    vfs.finalize().unwrap();
}

/// The fallback behind a shared-table pin, with a cached step file: the
/// file of a resident step is deleted behind the daemon's back and the
/// daemon dies. The mapping (still the dead daemon's) says "resident",
/// the read fails, and the retry through the daemon reconnects to its
/// restarted instance, which primes without the step and re-simulates
/// it — a successful open with the right bytes. (Should the liveness
/// poll meet the dead daemon first, the open reconnects there instead;
/// it must succeed either way.)
#[test]
fn deleted_resident_file_behind_a_dead_daemon_still_opens() {
    let dir = std::env::temp_dir().join(format!("simfs-daemon-vfs-fallback-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let storage = StorageArea::create(&dir, u64::MAX).unwrap();
    let driver = PatternDriver::new("out-", ".sdf", 6);
    // Resident from the start: the daemon primes 5..=8 from disk.
    for k in 5..=8 {
        storage.publish(&driver.filename_of(k), &step_bytes(k)).unwrap();
    }
    let (server, driver) = serve(&storage, "127.0.0.1:0", 1000, 4, false);
    let listen = server.addr().to_string();
    let mut client = SimfsClient::connect(server.addr(), "test-ctx").unwrap();
    client.set_auto_reconnect(true);
    client.set_op_timeout(Some(Duration::from_secs(10)));
    let mut vfs = VirtualFs::new(client, driver.clone(), storage.clone());
    let name = driver.filename_of(6);
    // Twice, so the session holds the step's file.
    for _ in 0..2 {
        assert_eq!(vfs.open(&name).unwrap().step_index, 6);
        vfs.close(&name).unwrap();
    }

    server.shutdown();
    drop(server);
    assert!(storage.delete(&name).unwrap());
    let (server, _) = serve(&storage, &listen, 1000, 4, false);

    let ds = vfs.open(&name).unwrap();
    assert_eq!(simstore::fnv1a64(&ds.encode()), simstore::fnv1a64(&step_bytes(6)));
    assert_eq!(vfs.session().reconnects(), 1);
    assert_eq!(server.stats().misses, 1, "the restarted daemon re-simulated step 6");
    vfs.close(&name).unwrap();
    vfs.finalize().unwrap();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Another valid production of step `key`: same step, other bytes (as
/// a file replaced in place would be).
fn other_bytes(key: u64) -> Vec<u8> {
    let mut ds = Dataset::decode(&step_bytes(key)).unwrap();
    ds.set_attr("simulator", "replaced");
    ds.encode().to_vec()
}

/// A fresh storage area for the tests that lay out its files before a
/// daemon starts over it.
fn fresh_area(tag: &str) -> (StorageArea, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("simfs-daemon-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (StorageArea::create(&dir, u64::MAX).unwrap(), dir)
}

/// A steady-state resident open on a mapped session is proven by its
/// slot pin: the cached files are read, and swept, without an `fstat`.
#[test]
fn a_resident_open_proven_by_its_pin_makes_no_fstat() {
    let fx = start_daemon("vfs-proven", 1000, 4);
    let client = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
    assert_eq!(client.transport(), simfs_core::net::Transport::Local);
    let mut vfs = VirtualFs::new(client, fx.driver.clone(), fx.storage.clone());
    let names = [fx.driver.filename_of(5), fx.driver.filename_of(6)];
    // The first open re-simulates 5..=8; two more rounds cache both
    // files under the pins' proofs.
    for _ in 0..3 {
        for name in &names {
            vfs.open(name).unwrap();
            vfs.close(name).unwrap();
        }
    }
    let fstats = vfs.step_reader().fstats();
    for _ in 0..100 {
        for (k, name) in [5, 6].into_iter().zip(&names) {
            assert_eq!(vfs.open(name).unwrap().step_index, k);
            vfs.close(name).unwrap();
        }
    }
    assert_eq!(vfs.step_reader().cached(), 2);
    assert_eq!(vfs.step_reader().fstats(), fstats, "a proven open checked its file");
    vfs.finalize().unwrap();
}

/// An overlapping production renames a new file over a resident step a
/// session has cached: once the daemon admits it, the session reads the
/// new inode.
#[test]
fn an_in_place_reproduction_is_read_once_the_daemon_admits_it() {
    let (storage, dir) = fresh_area("vfs-overlap");
    let driver = PatternDriver::new("out-", ".sdf", 6);
    // 5, 6 and 8 resident with bytes the simulator will not reproduce;
    // 7 missing, so its miss re-simulates the whole interval 5..=8.
    for k in [5, 6, 8] {
        storage.publish(&driver.filename_of(k), &other_bytes(k)).unwrap();
    }
    let (server, driver) = serve(&storage, "127.0.0.1:0", 1000, 4, false);
    let client = SimfsClient::connect(server.addr(), "test-ctx").unwrap();
    let mut vfs = VirtualFs::new(client, driver.clone(), storage.clone());
    let name = driver.filename_of(6);
    for _ in 0..2 {
        let ds = vfs.open(&name).unwrap();
        assert_eq!(ds.encode().to_vec(), other_bytes(6));
        vfs.close(&name).unwrap();
    }
    let restarts = server.stats().restarts;
    vfs.open(&driver.filename_of(7)).unwrap();
    vfs.close(&driver.filename_of(7)).unwrap();
    assert!(server.stats().restarts > restarts, "step 7 was not re-simulated");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while vfs.session().status().unwrap().active_sims != 0 {
        assert!(std::time::Instant::now() < deadline, "sim never retired");
        std::thread::sleep(Duration::from_millis(2));
    }
    // The re-simulation renamed step 6's new production over the cached
    // file, and the daemon admitted it.
    assert_eq!(storage.read(&name).unwrap(), step_bytes(6));
    let ds = vfs.open(&name).unwrap();
    assert_eq!(ds.encode().to_vec(), step_bytes(6), "served the replaced inode");
    vfs.close(&name).unwrap();
    vfs.finalize().unwrap();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A proof is valid only against the mapping it came from. A daemon
/// restarted over the same area counts its epochs from the same start,
/// so the step replaced while it was down carries the same epoch in the
/// new table as the cached file's tag in the old one: the session must
/// not trust that tag.
#[test]
fn a_reconnect_trusts_no_tag_of_the_old_mapping() {
    let (storage, dir) = fresh_area("vfs-remap");
    let driver = PatternDriver::new("out-", ".sdf", 6);
    for k in 5..=8 {
        storage.publish(&driver.filename_of(k), &step_bytes(k)).unwrap();
    }
    let (server, driver) = serve(&storage, "127.0.0.1:0", 1000, 4, false);
    let listen = server.addr().to_string();
    let mut client = SimfsClient::connect(server.addr(), "test-ctx").unwrap();
    client.set_auto_reconnect(true);
    client.set_op_timeout(Some(Duration::from_secs(10)));
    let mut vfs = VirtualFs::new(client, driver.clone(), storage.clone());
    let name = driver.filename_of(6);
    for _ in 0..2 {
        assert_eq!(vfs.open(&name).unwrap().encode().to_vec(), step_bytes(6));
        vfs.close(&name).unwrap();
    }

    server.shutdown();
    drop(server);
    storage.publish(&name, &other_bytes(6)).unwrap();
    let (server, _) = serve(&storage, &listen, 1000, 4, false);
    // Reconnect (and map the new table) without reading anything.
    vfs.session().status().unwrap();
    assert_eq!(vfs.session().reconnects(), 1);

    let ds = vfs.open(&name).unwrap();
    assert_eq!(ds.encode().to_vec(), other_bytes(6), "served the old mapping's file");
    vfs.close(&name).unwrap();
    assert_eq!(server.stats().misses, 0);
    vfs.finalize().unwrap();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The steady-state resident open of a mapped session allocates exactly
/// what the returned dataset owns: the pin, the read and the release
/// allocate nothing.
#[test]
fn a_resident_open_allocates_only_its_dataset() {
    let fx = start_daemon_cfg("vfs-alloc", 1000, 4, false);
    let client = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
    let mut vfs = VirtualFs::new(client, fx.driver.clone(), fx.storage.clone());
    let name = fx.driver.filename_of(6);
    for _ in 0..3 {
        vfs.open(&name).unwrap();
        vfs.close(&name).unwrap();
    }
    let bytes = fx.storage.read(&name).unwrap();
    testalloc::reset();
    let decoded = Dataset::decode(&bytes).unwrap();
    let owned = testalloc::count();
    drop(decoded);
    assert!(owned > 0);
    for i in 0..200 {
        testalloc::reset();
        let ds = vfs.open(&name).unwrap();
        vfs.close(&name).unwrap();
        assert_eq!(testalloc::count(), owned, "open {i} allocated beyond its dataset");
        drop(ds);
    }
    vfs.finalize().unwrap();
}

/// Two acquires in flight on one session, waited in the reverse order
/// of their completion: the first `Ready` arrives during the wait on
/// the second request and must be kept for its own, not dropped (a
/// dropped `Ready` is a pin the session never learns it holds).
#[test]
fn outstanding_acquires_waited_in_reverse_order_both_resolve() {
    let fx = start_daemon_cfg("reverse-wait", 1000, 4, false);
    let mut client = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
    client.set_op_timeout(Some(Duration::from_secs(5)));
    // One re-simulation of interval 5..=8 produces 5 before 6.
    let mut first = client.acquire_nb(&[5]).unwrap();
    let mut second = client.acquire_nb(&[6]).unwrap();
    let status = client.wait(&mut second).unwrap();
    assert_eq!(status.ready, vec![6]);
    let status = client.wait(&mut first).unwrap();
    assert_eq!(status.ready, vec![5], "{status:?}");
    for key in [5, 6] {
        client.release(key).unwrap();
    }
    client.status().unwrap();
    assert_eq!(fx.server.stats().restarts, 1);
    client.finalize().unwrap();
}

#[test]
fn daemon_restart_reprimes_existing_files() {
    let fx = start_daemon("prime", 1000, 4);
    let addr_dir = fx._dir.clone();
    {
        let mut client = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
        client.acquire(&[9]).unwrap();
        client.release(9).unwrap();
        client.finalize().unwrap();
    }
    fx.server.shutdown();
    drop(fx.server);

    // New daemon over the same storage area: files must be hits.
    let storage = StorageArea::create(&addr_dir, u64::MAX).unwrap();
    let size = step_bytes(1).len() as u64;
    let ctx = ContextCfg::new("test-ctx", StepMath::new(1, 4, 64), size, 1000 * size);
    let launcher = Arc::new(ThreadSimLauncher::new(
        step_bytes,
        |key| PatternDriver::new("out-", ".sdf", 6).filename_of(key),
        Duration::from_millis(5),
        Duration::from_millis(2),
    ));
    let server = DvServer::start(
        ServerConfig {
            ctx,
            driver: Arc::new(PatternDriver::new("out-", ".sdf", 6)),
            storage,
            launcher,
            checksums: HashMap::new(),
            dv_shards: 1,
            cluster: ClusterMember::SOLO,
            durability: DurabilityCfg::default(),
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let mut client = SimfsClient::connect(server.addr(), "test-ctx").unwrap();
    let status = client.acquire(&[9]).unwrap();
    assert!(status.ok());
    assert_eq!(server.stats().hits, 1, "primed file served without restart");
    assert_eq!(server.stats().restarts, 0);
    client.finalize().unwrap();
}

#[test]
fn abrupt_disconnect_releases_pins() {
    let fx = start_daemon("gone", 4, 4);
    {
        let mut client = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
        client.acquire(&[2]).unwrap();
        // Dropped without release/finalize: TCP close triggers
        // ClientGone.
    }
    std::thread::sleep(Duration::from_millis(50));
    // A second client can now flood the cache past key 2's pins.
    let mut other = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
    other.acquire(&[6]).unwrap();
    other.release(6).unwrap();
    other.acquire(&[10]).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        !fx.storage.exists(&fx.driver.filename_of(2)),
        "departed client's pin must not persist"
    );
    other.finalize().unwrap();
}

#[test]
fn multi_context_daemon_routes_by_name() {
    // Two contexts with distinct cadences and storage areas on ONE
    // daemon (§II "Simulation Contexts").
    let dir_a = std::env::temp_dir().join(format!("simfs-multi-a-{}", std::process::id()));
    let dir_b = std::env::temp_dir().join(format!("simfs-multi-b-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
    let storage_a = StorageArea::create(&dir_a, u64::MAX).unwrap();
    let storage_b = StorageArea::create(&dir_b, u64::MAX).unwrap();
    let size = step_bytes(1).len() as u64;

    let mk_launcher = || {
        Arc::new(ThreadSimLauncher::new(
            step_bytes,
            |key| PatternDriver::new("out-", ".sdf", 6).filename_of(key),
            Duration::from_millis(3),
            Duration::from_millis(1),
        ))
    };
    let coarse = simfs_core::server::ServerConfig {
        ctx: ContextCfg::new("coarse", StepMath::new(1, 4, 64), size, 1000 * size),
        driver: Arc::new(PatternDriver::new("out-", ".sdf", 6)),
        storage: storage_a.clone(),
        launcher: mk_launcher(),
        checksums: HashMap::new(),
        dv_shards: 1,
        cluster: ClusterMember::SOLO,
        durability: simfs_core::server::DurabilityCfg::default(),
    };
    let fine = simfs_core::server::ServerConfig {
        ctx: ContextCfg::new("fine", StepMath::new(1, 8, 128), size, 1000 * size),
        driver: Arc::new(PatternDriver::new("out-", ".sdf", 6)),
        storage: storage_b.clone(),
        launcher: mk_launcher(),
        checksums: HashMap::new(),
        dv_shards: 1,
        cluster: ClusterMember::SOLO,
        durability: simfs_core::server::DurabilityCfg::default(),
    };
    let server = DvServer::start_multi(vec![coarse, fine], "127.0.0.1:0").unwrap();
    assert_eq!(server.context_names(), vec!["coarse", "fine"]);

    // Each client lands in its own context; files go to the right area.
    let mut ca = SimfsClient::connect(server.addr(), "coarse").unwrap();
    let mut cb = SimfsClient::connect(server.addr(), "fine").unwrap();
    assert!(ca.acquire(&[2]).unwrap().ok());
    assert!(cb.acquire(&[2]).unwrap().ok());
    assert!(storage_a.exists("out-000002.sdf"));
    assert!(storage_b.exists("out-000002.sdf"));

    // The acquires return as soon as key 2 is ready; the launched sims
    // keep producing the rest of their intervals. Wait for quiescence
    // before asserting totals.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let (mut sa, mut sb) = (
        server.context_stats("coarse").unwrap(),
        server.context_stats("fine").unwrap(),
    );
    while (sa.produced_steps, sb.produced_steps) != (4, 8)
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(5));
        sa = server.context_stats("coarse").unwrap();
        sb = server.context_stats("fine").unwrap();
    }
    // Different cadences: coarse interval is 1..=4, fine is 1..=8.
    assert!(!storage_a.exists("out-000008.sdf"));
    assert!(storage_b.exists("out-000008.sdf"));
    assert_eq!(sa.misses, 1);
    assert_eq!(sb.misses, 1);
    assert_eq!(sa.produced_steps, 4);
    assert_eq!(sb.produced_steps, 8);

    ca.finalize().unwrap();
    cb.finalize().unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn unknown_context_is_rejected_with_listing() {
    let fx = start_daemon("unknown-ctx", 100, 2);
    let err = match SimfsClient::connect(fx.server.addr(), "no-such-context") {
        Ok(_) => panic!("connect to unknown context must fail"),
        Err(e) => e,
    };
    let msg = err.to_string();
    assert!(msg.contains("unknown simulation context"), "{msg}");
    assert!(msg.contains("test-ctx"), "must list available contexts: {msg}");
}

#[test]
fn status_query_reports_runtime_counters() {
    let fx = start_daemon("status", 100, 2);
    let mut client = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
    let s0 = client.status().unwrap();
    assert_eq!(s0.hits + s0.misses, 0);
    client.acquire(&[6]).unwrap();
    let s1 = client.status().unwrap();
    assert_eq!(s1.misses, 1);
    assert_eq!(s1.restarts, 1);
    assert!(s1.produced_steps >= 1);
    client.finalize().unwrap();
}

#[test]
fn malformed_frames_drop_session_without_crashing_daemon() {
    use std::io::Write;
    let fx = start_daemon("garbage", 100, 2);
    // A raw socket that handshakes properly, then sends byte soup.
    {
        let mut rogue = std::net::TcpStream::connect(fx.server.addr()).unwrap();
        simfs_core::wire::write_frame(
            &mut rogue,
            &simfs_core::wire::Request::Hello {
                kind: simfs_core::wire::ClientKind::Analysis,
                context: "test-ctx".into(),
                membership: None,
            epoch: None,
            }
            .encode(),
        )
        .unwrap();
        let _ = simfs_core::wire::read_frame(&mut rogue).unwrap();
        // Garbage frame: valid length prefix, invalid body.
        let body = [0xFFu8; 16];
        rogue.write_all(&(body.len() as u32).to_le_bytes()).unwrap();
        rogue.write_all(&body).unwrap();
        // And a torn frame: length promising more than we send.
        rogue.write_all(&100u32.to_le_bytes()).unwrap();
        rogue.write_all(&[1, 2, 3]).unwrap();
    }
    // The daemon must still serve well-behaved clients.
    let mut client = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
    let status = client.acquire(&[3]).unwrap();
    assert!(status.ok());
    client.finalize().unwrap();
}

#[test]
fn rogue_simulator_ids_do_not_corrupt_state() {
    // A "simulator" that was never launched reports productions for a
    // bogus sim id: the DV must ignore sim-level bookkeeping it does not
    // know, while still accepting the (real) file.
    let fx = start_daemon("rogue-sim", 100, 2);
    {
        let mut rogue = std::net::TcpStream::connect(fx.server.addr()).unwrap();
        simfs_core::wire::write_frame(
            &mut rogue,
            &simfs_core::wire::Request::Hello {
                kind: simfs_core::wire::ClientKind::Simulator { sim_id: 9999 },
                context: "test-ctx".into(),
                membership: None,
            epoch: None,
            }
            .encode(),
        )
        .unwrap();
        let _ = simfs_core::wire::read_frame(&mut rogue).unwrap();
        // Publish a real file then claim it.
        fx.storage.publish("out-000001.sdf", &step_bytes(1)).unwrap();
        simfs_core::wire::write_frame(
            &mut rogue,
            &simfs_core::wire::Request::FileProduced { key: 1, size: 10 }.encode(),
        )
        .unwrap();
        simfs_core::wire::write_frame(
            &mut rogue,
            &simfs_core::wire::Request::SimFinished.encode(),
        )
        .unwrap();
    }
    std::thread::sleep(Duration::from_millis(50));
    // Key 1 is now (legitimately) cached; a client acquire hits.
    let mut client = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
    let status = client.acquire(&[1]).unwrap();
    assert!(status.ok());
    assert_eq!(fx.server.stats().hits, 1);
    client.finalize().unwrap();
}

#[test]
fn fast_path_serves_hits_without_dv_lock() {
    // Prefetch off ⇒ the lock-free hit layer is active: a re-acquire
    // of a warm key must be served by the concurrent index (counted in
    // acquired_fast), while the first (miss) acquire goes through a
    // DV lock (acquired_slow). The full cycle — fast pin, fast
    // release, later eviction — must stay coherent.
    let fx = start_daemon_cfg("fastpath", 1000, 4, false);
    let mut client = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
    let status = client.acquire(&[6]).unwrap();
    assert!(status.ok(), "{status:?}");
    client.release(6).unwrap();
    let status = client.acquire(&[6]).unwrap();
    assert!(status.ok());
    client.release(6).unwrap();
    let stats = fx.server.stats();
    assert_eq!(stats.hits, 1, "second acquire is the hit");
    assert_eq!(stats.acquired_fast, 1, "the hit came off the fast path");
    assert_eq!(stats.misses, 1);
    assert!(stats.acquired_slow >= 1, "the miss took a shard lock");
    assert!(
        stats.lock_transitions > 0 && stats.lock_hold_ns > 0,
        "lock hold-time counters must be live: {stats:?}"
    );
    client.finalize().unwrap();
}

#[test]
fn start_refuses_dv_shards_above_one_and_out_of_range_cluster_index() {
    // Both are configuration errors a caller can build by hand (the
    // fields are pub): each must come back as a typed InvalidInput
    // naming the field, before anything is bound or started.
    let dir = std::env::temp_dir().join(format!("simfs-daemon-startup-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let storage = StorageArea::create(&dir, u64::MAX).unwrap();
    let size = step_bytes(1).len() as u64;
    let config = |dv_shards: u32, cluster: ClusterMember| ServerConfig {
        ctx: ContextCfg::new("test-ctx", StepMath::new(1, 4, 64), size, 100 * size),
        driver: Arc::new(PatternDriver::new("out-", ".sdf", 6)),
        storage: storage.clone(),
        launcher: Arc::new(ThreadSimLauncher::new(
            step_bytes,
            |key| PatternDriver::new("out-", ".sdf", 6).filename_of(key),
            Duration::from_millis(1),
            Duration::from_millis(1),
        )),
        checksums: HashMap::new(),
        dv_shards,
        cluster,
        durability: DurabilityCfg::default(),
    };
    let refused = |cfg: ServerConfig| match DvServer::start(cfg, "127.0.0.1:0") {
        Ok(_) => panic!("start must refuse this configuration"),
        Err(e) => e,
    };
    let err = refused(config(4, ClusterMember::SOLO));
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    assert!(err.to_string().contains("dv_shards"), "{err}");
    let err = refused(config(1, ClusterMember { index: 3, size: 2 }));
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    assert!(err.to_string().contains("cluster"), "{err}");
    // 0 and 1 both mean one DV and still start.
    for dv_shards in [0, 1] {
        DvServer::start(config(dv_shards, ClusterMember::SOLO), "127.0.0.1:0")
            .unwrap()
            .shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hit_path_stress_races_acquires_against_evictions() {
    // The epoch-fallback scenario, stressed: a tiny cache (4 steps is
    // far less than the 16 keys in play) keeps evicting warm
    // keys while several clients hammer hit-path acquires on them. A
    // fast pin must always win or cleanly fall back — every acquire
    // must succeed (possibly via a re-simulation), no response may be
    // lost, and the counters must account for every request.
    let fx = start_daemon_cfg("hitstress", 4, 8, false);
    let addr = fx.server.addr();
    const HAMMERS: usize = 6;
    const HAMMER_ROUNDS: usize = 80;
    const FLOODS: usize = 2;
    const FLOOD_ROUNDS: usize = 30;
    const WARM: u64 = 8; // the hammered, mostly-resident zone
    const COLD_SPAN: u64 = 32; // flood walks 9..=40, forcing inserts
    {
        let mut warm = SimfsClient::connect(addr, "test-ctx").unwrap();
        let keys: Vec<u64> = (1..=WARM).collect();
        let status = warm.acquire(&keys).unwrap();
        assert!(status.ok(), "warmup failed: {status:?}");
        for k in 1..=WARM {
            warm.release(k).unwrap();
        }
        warm.finalize().unwrap();
    }
    let barrier = Arc::new(std::sync::Barrier::new(HAMMERS + FLOODS));
    let mut handles = Vec::new();
    for i in 0..HAMMERS {
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut client = SimfsClient::connect(addr, "test-ctx").unwrap();
            barrier.wait();
            let mut key = 1 + (i as u64 * 3) % WARM;
            for _ in 0..HAMMER_ROUNDS {
                let status = client.acquire(&[key]).unwrap();
                assert!(status.ok(), "hammer {i}: {status:?}");
                assert_eq!(status.ready, vec![key]);
                client.release(key).unwrap();
                key = 1 + key % WARM;
            }
            client.finalize().unwrap();
        }));
    }
    for i in 0..FLOODS {
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut client = SimfsClient::connect(addr, "test-ctx").unwrap();
            barrier.wait();
            let mut key = WARM + 1 + (i as u64 * 16) % COLD_SPAN;
            for _ in 0..FLOOD_ROUNDS {
                let status = client.acquire(&[key]).unwrap();
                assert!(status.ok(), "flood {i}: {status:?}");
                client.release(key).unwrap();
                key = WARM + 1 + (key - WARM) % COLD_SPAN;
            }
            client.finalize().unwrap();
        }));
    }
    for (i, handle) in handles.into_iter().enumerate() {
        handle.join().unwrap_or_else(|_| panic!("client {i} panicked"));
    }
    let stats = fx.server.stats();
    let total = WARM + (HAMMERS * HAMMER_ROUNDS + FLOODS * FLOOD_ROUNDS) as u64;
    assert_eq!(
        stats.hits + stats.misses,
        total,
        "every acquire must be accounted as hit or miss: {stats:?}"
    );
    assert!(stats.acquired_fast > 0, "fast path never engaged: {stats:?}");
    assert!(
        stats.evictions > 0,
        "cache pressure must have evicted: {stats:?}"
    );
    // Leak probe: every client is gone, so no fast pin may survive. A
    // leaked pin makes its key unevictable (the index vetoes
    // retirement), so flooding fresh intervals through the 4-step
    // cache would leave leaked keys stranded on disk alongside the new
    // residents. With clean accounting the area drains back to the
    // budget's neighbourhood.
    std::thread::sleep(Duration::from_millis(200));
    let mut probe = SimfsClient::connect(addr, "test-ctx").unwrap();
    for key in [41u64, 45, 49, 53] {
        let status = probe.acquire(&[key]).unwrap();
        assert!(status.ok(), "probe acquire of {key}: {status:?}");
        probe.release(key).unwrap();
    }
    probe.finalize().unwrap();
    std::thread::sleep(Duration::from_millis(200));
    let on_disk = fx.storage.list().unwrap();
    assert!(
        on_disk.len() <= 8,
        "storage should drain near the 4-step budget once all pins are \
         released; leaked fast pins would strand keys: {on_disk:?}"
    );
}

#[test]
fn socket_kill_mid_fast_pin_returns_pins_to_index() {
    // A client dies abruptly — no Release, no Bye — while holding a
    // fast-path pin. The reactor must return the connection's
    // thread-local fast-pin counts to the HitIndex when it tears the
    // connection down (before the DV-side ClientGone), otherwise
    // try_retire would veto eviction on pins owned by a dead client
    // forever.
    let fx = start_daemon_cfg("midpin-kill", 4, 4, false);
    let addr = fx.server.addr();
    {
        // Warm key 2 so the kill victim's acquire is a fast-path hit.
        let mut warm = SimfsClient::connect(addr, "test-ctx").unwrap();
        let status = warm.acquire(&[2]).unwrap();
        assert!(status.ok(), "{status:?}");
        warm.release(2).unwrap();
        warm.finalize().unwrap();
    }
    {
        let mut victim = std::net::TcpStream::connect(addr).unwrap();
        victim.set_nodelay(true).unwrap();
        simfs_core::wire::write_frame(
            &mut victim,
            &simfs_core::wire::Request::Hello {
                kind: simfs_core::wire::ClientKind::Analysis,
                context: "test-ctx".into(),
                membership: None,
            epoch: None,
            }
            .encode(),
        )
        .unwrap();
        let _ = simfs_core::wire::read_frame(&mut victim).unwrap().unwrap(); // HelloOk
        simfs_core::wire::write_frame(
            &mut victim,
            &simfs_core::wire::Request::Acquire {
                req_id: 1,
                keys: vec![2],
            }
            .encode(),
        )
        .unwrap();
        let frame = simfs_core::wire::read_frame(&mut victim).unwrap().unwrap();
        match simfs_core::wire::Response::decode(&frame).unwrap() {
            simfs_core::wire::Response::Ready { key: 2, .. } => {}
            other => panic!("expected Ready for key 2, got {other:?}"),
        }
        // The pin is fast (taken through the index, visible to the
        // probe) and owned by this connection alone.
        assert_eq!(fx.server.fast_pinned("test-ctx", 2), Some(true));
        // Killed mid-pin: the stream drops here without Release or Bye.
    }
    // The reactor's teardown must drain the dead connection's fast
    // pins back into the index.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while fx.server.fast_pinned("test-ctx", 2) == Some(true) {
        assert!(
            std::time::Instant::now() < deadline,
            "fast pin stranded by the dead connection"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(fx.server.fast_pinned("test-ctx", 2), Some(false));
    // And the key is evictable again: flooding the 4-step cache with
    // two fresh intervals must push key 2's file out.
    let mut other = SimfsClient::connect(addr, "test-ctx").unwrap();
    for key in [6u64, 10] {
        let status = other.acquire(&[key]).unwrap();
        assert!(status.ok(), "{status:?}");
        other.release(key).unwrap();
    }
    other.flush().unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while fx.storage.exists(&fx.driver.filename_of(2)) {
        assert!(
            std::time::Instant::now() < deadline,
            "key 2 should be evictable once the dead client's pin drains"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    other.finalize().unwrap();
}

#[test]
fn dvlib_drop_flushes_staged_releases() {
    // `release` coalesces its frame into the next request's write; a
    // session dropped (or `close()`d) with frames still staged must
    // flush them best-effort instead of stranding daemon-side pins
    // until the hangup GC. A bare-wire "daemon" observes what actually
    // reaches the socket before EOF.
    use simfs_core::wire::{self, Request, Response};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || -> Vec<u64> {
        let (mut sock, _) = listener.accept().unwrap();
        let hello = wire::read_frame(&mut sock).unwrap().unwrap();
        assert!(matches!(
            Request::decode(&hello).unwrap(),
            Request::Hello { .. }
        ));
        wire::write_frame(&mut sock, &Response::HelloOk { client_id: 7, epoch: 0 }.encode()).unwrap();
        let mut releases = Vec::new();
        while let Some(frame) = wire::read_frame(&mut sock).unwrap() {
            match Request::decode(&frame).unwrap() {
                Request::Release { key } => releases.push(key),
                other => panic!("expected only staged releases, got {other:?}"),
            }
        }
        releases
    });
    let mut client = SimfsClient::connect(addr, "any").unwrap();
    client.release(5).unwrap();
    client.release(9).unwrap();
    drop(client); // staged frames must hit the wire before the FIN
    assert_eq!(server.join().unwrap(), vec![5, 9]);
}

#[test]
fn explicit_close_flushes_staged_releases() {
    use simfs_core::wire::{self, Request, Response};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || -> Vec<u64> {
        let (mut sock, _) = listener.accept().unwrap();
        let _ = wire::read_frame(&mut sock).unwrap().unwrap(); // Hello
        wire::write_frame(&mut sock, &Response::HelloOk { client_id: 8, epoch: 0 }.encode()).unwrap();
        let mut releases = Vec::new();
        while let Some(frame) = wire::read_frame(&mut sock).unwrap() {
            match Request::decode(&frame).unwrap() {
                Request::Release { key } => releases.push(key),
                other => panic!("expected only staged releases, got {other:?}"),
            }
        }
        releases
    });
    let mut client = SimfsClient::connect(addr, "any").unwrap();
    client.release(3).unwrap();
    client.close().unwrap();
    assert_eq!(server.join().unwrap(), vec![3]);
}

#[test]
fn epoll_frontend_serves_256_concurrent_clients() {
    // The headline capability of the reactor: hundreds of concurrent
    // analysis clients on a fixed daemon thread count. Every client
    // runs hit-path acquire/release rounds on warm keys; all must
    // complete without errors or lost responses.
    let fx = start_daemon("c256", 1000, 4);
    let addr = fx.server.addr();
    {
        // Warm keys 1..=8 so the measured traffic is pure control-path.
        let mut warm = SimfsClient::connect(addr, "test-ctx").unwrap();
        let status = warm.acquire(&[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        assert!(status.ok(), "warmup failed: {status:?}");
        for k in 1..=8 {
            warm.release(k).unwrap();
        }
        warm.finalize().unwrap();
    }
    const CLIENTS: usize = 256;
    const ROUNDS: usize = 4;
    let barrier = Arc::new(std::sync::Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = SimfsClient::connect(addr, "test-ctx").unwrap();
                barrier.wait();
                let key = 1 + (i as u64 % 8);
                for _ in 0..ROUNDS {
                    let status = client.acquire(&[key]).unwrap();
                    assert!(status.ok(), "client {i}: {status:?}");
                    assert_eq!(status.ready, vec![key]);
                    client.release(key).unwrap();
                }
                client.finalize().unwrap();
            })
        })
        .collect();
    for (i, handle) in handles.into_iter().enumerate() {
        handle.join().unwrap_or_else(|_| panic!("client {i} panicked"));
    }
    // All 256 * 4 rounds were hits (keys stayed warm and pinned counts
    // returned to zero).
    let stats = fx.server.stats();
    assert!(
        stats.hits >= (CLIENTS * ROUNDS) as u64,
        "hits: {}",
        stats.hits
    );
}

#[test]
fn slow_client_never_stalls_others() {
    // Slowloris: a client dribbles one byte of an Acquire frame per
    // 10 ms. The reactor must (a) keep serving other clients at full
    // speed on the same shard set and (b) resume the partial frame and
    // answer it once it completes.
    use std::io::Write;
    use std::sync::atomic::{AtomicBool, Ordering};

    let fx = start_daemon("slowloris", 1000, 4);
    let addr = fx.server.addr();
    {
        let mut warm = SimfsClient::connect(addr, "test-ctx").unwrap();
        let status = warm.acquire(&[1, 2]).unwrap();
        assert!(status.ok());
        warm.release(1).unwrap();
        warm.release(2).unwrap();
        warm.finalize().unwrap();
    }

    // Handshake the slow connection properly, then dribble.
    let mut slow = std::net::TcpStream::connect(addr).unwrap();
    slow.set_nodelay(true).unwrap();
    simfs_core::wire::write_frame(
        &mut slow,
        &simfs_core::wire::Request::Hello {
            kind: simfs_core::wire::ClientKind::Analysis,
            context: "test-ctx".into(),
            membership: None,
            epoch: None,
        }
        .encode(),
    )
    .unwrap();
    let hello = simfs_core::wire::read_frame(&mut slow).unwrap().unwrap();
    assert!(matches!(
        simfs_core::wire::Response::decode(&hello).unwrap(),
        simfs_core::wire::Response::HelloOk { .. }
    ));

    let stop = Arc::new(AtomicBool::new(false));
    let fast = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut client = SimfsClient::connect(addr, "test-ctx").unwrap();
            let mut ops = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let status = client.acquire(&[1]).unwrap();
                assert!(status.ok());
                client.release(1).unwrap();
                ops += 1;
            }
            client.finalize().unwrap();
            ops
        })
    };

    // One byte per 10 ms: ~29 bytes ≈ 290 ms of dribbling.
    let body = simfs_core::wire::Request::Acquire {
        req_id: 77,
        keys: vec![2],
    }
    .encode();
    let mut frame = (body.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&body);
    for byte in frame {
        slow.write_all(&[byte]).unwrap();
        std::thread::sleep(Duration::from_millis(10));
    }

    // The completed frame gets its answer (a Ready for key 2; the hit
    // path sends no Queued).
    let resp = simfs_core::wire::read_frame(&mut slow).unwrap().unwrap();
    match simfs_core::wire::Response::decode(&resp).unwrap() {
        simfs_core::wire::Response::Ready { req_id, key } => {
            assert_eq!((req_id, key), (77, 2));
        }
        other => panic!("expected Ready for the dribbled acquire, got {other:?}"),
    }

    stop.store(true, Ordering::Relaxed);
    let fast_ops = fast.join().unwrap();
    // Loopback hit-path round trips run in the tens of microseconds; if
    // the slow client had serialized the shard, the fast client would
    // have managed only a handful.
    assert!(
        fast_ops >= 50,
        "fast client starved behind the slow one: {fast_ops} ops in ~290 ms"
    );
}

#[test]
fn deep_pipelined_burst_is_fully_answered() {
    // 300 pipelined requests arrive in one TCP segment burst — more
    // than the reactor's per-wake dispatch cap. The capped remainder
    // sits in the userspace FrameReader where epoll cannot see it; the
    // shard's backlog pass must re-dispatch it, so every request gets
    // its response.
    use std::io::Write;
    let fx = start_daemon("burst", 1000, 4);
    let mut sock = std::net::TcpStream::connect(fx.server.addr()).unwrap();
    sock.set_nodelay(true).unwrap();
    simfs_core::wire::write_frame(
        &mut sock,
        &simfs_core::wire::Request::Hello {
            kind: simfs_core::wire::ClientKind::Analysis,
            context: "test-ctx".into(),
            membership: None,
            epoch: None,
        }
        .encode(),
    )
    .unwrap();
    let _ = simfs_core::wire::read_frame(&mut sock).unwrap().unwrap(); // HelloOk

    const BURST: u64 = 300;
    let mut pipelined = Vec::new();
    for req_id in 0..BURST {
        let body = simfs_core::wire::Request::Status { req_id }.encode();
        pipelined.extend_from_slice(&(body.len() as u32).to_le_bytes());
        pipelined.extend_from_slice(&body);
    }
    sock.write_all(&pipelined).unwrap();

    sock.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    for expect in 0..BURST {
        let frame = simfs_core::wire::read_frame(&mut sock)
            .unwrap_or_else(|e| panic!("response {expect} never arrived: {e}"))
            .unwrap_or_else(|| panic!("EOF before response {expect}"));
        match simfs_core::wire::Response::decode(&frame).unwrap() {
            simfs_core::wire::Response::StatusInfo { req_id, .. } => {
                assert_eq!(req_id, expect, "responses must arrive in order");
            }
            other => panic!("expected StatusInfo, got {other:?}"),
        }
    }
    simfs_core::wire::write_frame(&mut sock, &simfs_core::wire::Request::Bye.encode()).unwrap();
}

#[test]
fn protocol_error_response_precedes_close() {
    // An analysis client sending a simulator-only request gets the
    // final Error frame *before* the daemon closes the connection —
    // the response must not be lost to the close racing it through the
    // reactor.
    let fx = start_daemon("err-close", 1000, 4);
    let mut sock = std::net::TcpStream::connect(fx.server.addr()).unwrap();
    sock.set_nodelay(true).unwrap();
    simfs_core::wire::write_frame(
        &mut sock,
        &simfs_core::wire::Request::Hello {
            kind: simfs_core::wire::ClientKind::Analysis,
            context: "test-ctx".into(),
            membership: None,
            epoch: None,
        }
        .encode(),
    )
    .unwrap();
    let _ = simfs_core::wire::read_frame(&mut sock).unwrap().unwrap(); // HelloOk
    simfs_core::wire::write_frame(&mut sock, &simfs_core::wire::Request::SimStarted.encode())
        .unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let frame = simfs_core::wire::read_frame(&mut sock)
        .expect("error frame must arrive before close")
        .expect("EOF before the error frame");
    match simfs_core::wire::Response::decode(&frame).unwrap() {
        simfs_core::wire::Response::Error { message } => {
            assert!(message.contains("unexpected analysis request"), "{message}");
        }
        other => panic!("expected Error, got {other:?}"),
    }
    // And then the daemon closes.
    assert!(simfs_core::wire::read_frame(&mut sock).unwrap().is_none());
}

#[test]
fn half_close_still_receives_pending_responses() {
    // A client may pipeline requests, shut down its write half, and
    // read responses until EOF (the threaded front-end always
    // supported this). The reactor must flush the responses it owes
    // before dropping the connection on the read-side EOF.
    let fx = start_daemon("half-close", 1000, 4);
    let mut sock = std::net::TcpStream::connect(fx.server.addr()).unwrap();
    sock.set_nodelay(true).unwrap();
    simfs_core::wire::write_frame(
        &mut sock,
        &simfs_core::wire::Request::Hello {
            kind: simfs_core::wire::ClientKind::Analysis,
            context: "test-ctx".into(),
            membership: None,
            epoch: None,
        }
        .encode(),
    )
    .unwrap();
    let _ = simfs_core::wire::read_frame(&mut sock).unwrap().unwrap(); // HelloOk
    for req_id in 0..3u64 {
        simfs_core::wire::write_frame(
            &mut sock,
            &simfs_core::wire::Request::Status { req_id }.encode(),
        )
        .unwrap();
    }
    sock.shutdown(std::net::Shutdown::Write).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    for expect in 0..3u64 {
        let frame = simfs_core::wire::read_frame(&mut sock)
            .unwrap_or_else(|e| panic!("response {expect} lost to the half-close: {e}"))
            .unwrap_or_else(|| panic!("EOF before response {expect}"));
        match simfs_core::wire::Response::decode(&frame).unwrap() {
            simfs_core::wire::Response::StatusInfo { req_id, .. } => assert_eq!(req_id, expect),
            other => panic!("expected StatusInfo, got {other:?}"),
        }
    }
    assert!(simfs_core::wire::read_frame(&mut sock).unwrap().is_none());
}

#[test]
fn prefetching_context_serves_hits_on_fast_path() {
    // The ceiling the access-stream digest removes: a prefetching
    // context keeps the lock-free hit layer — observation rides the
    // digest instead of the acquire path.
    let fx = start_daemon_cfg("prefetchfast", 1000, 8, true);
    let mut client = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
    let status = client.acquire(&[6]).unwrap();
    assert!(status.ok(), "{status:?}");
    client.release(6).unwrap();
    let status = client.acquire(&[6]).unwrap();
    assert!(status.ok(), "{status:?}");
    client.release(6).unwrap();
    let stats = fx.server.stats();
    assert_eq!(
        stats.acquired_fast, 1,
        "prefetching context must serve its hit off the fast path: {stats:?}"
    );
    assert!(stats.misses >= 1);
    client.finalize().unwrap();
}

#[test]
fn tick_drain_feeds_agents_from_pure_hit_stream() {
    // The headline of the digest design: a client whose steady-state
    // traffic is 100% lock-free fast-path hits still drives the §IV-B
    // agents — the reactor tick drains its recorded access stream into
    // the DV, the trajectory confirms, and the agents prefetch
    // beyond the warm zone without the client ever taking a DV lock.
    let fx = start_daemon_cfg("tickdrain", 1000, 8, true);
    let mut client = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
    const WARM: u64 = 12;
    for key in 1..=WARM {
        let status = client.acquire(&[key]).unwrap();
        assert!(status.ok(), "{status:?}");
        client.release(key).unwrap();
    }
    // Second pass over the warm zone: pure fast-path hits; the only
    // path from these accesses to the agents is the tick drain.
    for key in 1..=WARM {
        let status = client.acquire(&[key]).unwrap();
        assert!(status.ok(), "{status:?}");
        client.release(key).unwrap();
    }
    client.flush().unwrap();
    let scanned = fx.server.stats();
    assert!(
        scanned.acquired_fast >= WARM,
        "the warm re-scan must ride the fast path: {scanned:?}"
    );
    // Both passes were recorded (2 × WARM records) and must all replay
    // into the agents; the confirmed stride-1 trajectory must have
    // planned at least one prefetch launch past the warm frontier.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let stats = fx.server.stats();
        if stats.digest_replayed >= 2 * WARM && stats.prefetch_launches >= 1 {
            assert_eq!(stats.digest_dropped, 0, "nothing may drop at this depth");
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "tick drain never fed the agents: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    client.finalize().unwrap();
}

#[test]
fn blocked_forward_scan_prefetches_whole_intervals() {
    // An analysis faster than its paced simulator blocks from its first
    // access, so no access is ever a ready point of its own. Its
    // consumption time still reaches the agent — each gap starts at
    // the blocked key's production — and a default daemon (one DV per
    // context) plans restart-aligned blocks whole: no launch covers
    // less than an interval, and no more sims start than the scan
    // touches intervals.
    let fx = start_daemon_cfg("blockedscan", 1000, 4, true);
    let mut client = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
    assert!(
        !fx.storage.exists(&fx.driver.filename_of(1)),
        "setup: a cold cache"
    );
    let n_outputs = 64;
    for key in 1..=n_outputs {
        let status = client.acquire(&[key]).unwrap();
        assert!(status.ok(), "{status:?}");
        client.release(key).unwrap();
    }
    client.flush().unwrap();
    let stats = fx.server.stats();
    assert!(stats.misses >= 1, "the scan must start blocked: {stats:?}");
    assert!(
        stats.tau_cli_samples > 0,
        "blocked accesses must feed tau_cli: {stats:?}"
    );
    assert!(
        stats.prefetch_launches > 0,
        "the agent never prefetched: {stats:?}"
    );
    assert_eq!(stats.prefetch_partial_launches, 0, "{stats:?}");
    let intervals_touched = n_outputs / 4;
    assert!(
        stats.restarts <= intervals_touched,
        "{} restarts for {intervals_touched} intervals: {stats:?}",
        stats.restarts
    );
    client.finalize().unwrap();
}

/// [`start_daemon_cfg`] with supervision knobs tightened for test
/// timescales and a fault-injecting launcher. Prefetching is off so the
/// fault counters are exactly the demand path's.
fn start_supervised_daemon(
    tag: &str,
    faults: simfs_core::server::SimFaultSpec,
    supervisor: simfs_core::model::SupervisorCfg,
) -> Fixture {
    start_supervised_daemon_producing(tag, faults, supervisor, step_bytes)
}

/// [`start_supervised_daemon`] whose simulators publish
/// `make_bytes(key)` — the hook for output that is wrong in ways the
/// launcher's own fault spec does not script.
fn start_supervised_daemon_producing(
    tag: &str,
    faults: simfs_core::server::SimFaultSpec,
    supervisor: simfs_core::model::SupervisorCfg,
    make_bytes: impl Fn(u64) -> Vec<u8> + Send + Sync + 'static,
) -> Fixture {
    let dir = std::env::temp_dir().join(format!(
        "simfs-daemon-{}-{}-{:?}",
        tag,
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let storage = StorageArea::create(&dir, u64::MAX).unwrap();
    let driver = Arc::new(
        PatternDriver::new("out-", ".sdf", 6)
            .with_parallelism(ParallelismMap::unconstrained(1, 2)),
    );
    let size = step_bytes(1).len() as u64;
    let steps = StepMath::new(1, 4, 64);
    let ctx = ContextCfg::new("test-ctx", steps, size, 1000 * size)
        .with_policy("dcl")
        .with_smax(4)
        .with_prefetch(false)
        .with_supervisor(supervisor);
    let checksums: HashMap<u64, u64> = (1..=8)
        .map(|k| (k, simstore::fnv1a64(&step_bytes(k))))
        .collect();
    let launcher = Arc::new(
        ThreadSimLauncher::new(
            make_bytes,
            |key| PatternDriver::new("out-", ".sdf", 6).filename_of(key),
            Duration::from_millis(2),
            Duration::from_millis(1),
        )
        .with_faults(faults),
    );
    let server = DvServer::start(
        ServerConfig {
            ctx,
            driver: driver.clone(),
            storage: storage.clone(),
            launcher,
            checksums,
            dv_shards: 1,
            cluster: ClusterMember::SOLO,
            durability: DurabilityCfg::default(),
        },
        "127.0.0.1:0",
    )
    .unwrap();
    Fixture {
        server,
        storage,
        driver,
        _dir: dir,
    }
}

/// Supervision knobs scaled to test timescales: fast backoff, short
/// quarantine, watchdog far away (sims here run in milliseconds).
fn test_supervisor() -> simfs_core::model::SupervisorCfg {
    simfs_core::model::SupervisorCfg {
        backoff_base: simkit::Dur::from_millis(2),
        backoff_cap: simkit::Dur::from_millis(10),
        quarantine: simkit::Dur::from_secs(2),
        ..Default::default()
    }
}

#[test]
fn transient_sim_crash_is_retried_transparently() {
    // One injected crash: the first launched sim dies after SimStarted.
    // The supervision tier re-enqueues the production after backoff and
    // the acquire completes as if nothing happened.
    let faults = simfs_core::server::SimFaultSpec {
        crash_quota: 1,
        corrupt_every: 0,
        ..Default::default()
    };
    let fx = start_supervised_daemon("retry", faults, test_supervisor());
    let mut client = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
    let status = client.acquire(&[2]).unwrap();
    assert!(status.ok(), "{status:?}");
    assert_eq!(status.ready, vec![2]);
    let stats = fx.server.stats();
    assert_eq!(stats.sim_retries, 1, "{stats:?}");
    assert_eq!(stats.failures, 1, "{stats:?}");
    assert_eq!(stats.intervals_poisoned, 0, "{stats:?}");
    client.finalize().unwrap();
}

#[test]
fn corrupt_output_is_deleted_killed_and_reproduced() {
    // Key 7's first production is published as a truncated SDF
    // container. The integrity gate must delete it, kill the producer,
    // and the retry must re-produce the whole interval cleanly.
    let faults = simfs_core::server::SimFaultSpec {
        crash_quota: 0,
        corrupt_every: 7,
        ..Default::default()
    };
    let fx = start_supervised_daemon("corrupt", faults, test_supervisor());
    let mut client = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
    let status = client.acquire(&[7]).unwrap();
    assert!(status.ok(), "{status:?}");
    assert_eq!(status.ready, vec![7]);
    let stats = fx.server.stats();
    assert_eq!(stats.corrupt_outputs, 1, "{stats:?}");
    assert_eq!(stats.sim_retries, 1, "{stats:?}");
    assert_eq!(stats.intervals_poisoned, 0, "{stats:?}");
    // What ended up resident must be a structurally valid container
    // matching the recorded checksum — the corrupt attempt left no
    // trace.
    let bytes = fx.storage.read(&fx.driver.filename_of(7)).unwrap();
    simstore::Dataset::decode(&bytes).expect("resident file must verify");
    assert_eq!(simstore::fnv1a64(&bytes), simstore::fnv1a64(&step_bytes(7)));
    client.finalize().unwrap();
}

#[test]
fn sealed_malformed_output_is_rejected_and_the_daemon_survives() {
    // Key 7's first production is a container a simulator sealed
    // correctly — the footer matches — around a body that claims
    // u32::MAX variables. The footer is no reason to trust a count:
    // the gate's structural walk must call it corrupt (it used to size
    // an allocation by it and abort the whole daemon), and from there
    // the corrupt-output path runs as for any other bad file.
    let sealed_huge_n_vars = || {
        let mut bytes = b"SDF1".to_vec();
        bytes.extend_from_slice(&2u32.to_le_bytes()); // version
        bytes.extend_from_slice(&7u64.to_le_bytes()); // step
        bytes.extend_from_slice(&7f64.to_le_bytes()); // simtime
        bytes.extend_from_slice(&0u32.to_le_bytes()); // n_attrs
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // n_vars
        let footer = simstore::xxh64(&bytes);
        bytes.extend_from_slice(&footer.to_le_bytes());
        bytes
    };
    let malformed_served = std::sync::atomic::AtomicBool::new(false);
    let fx = start_supervised_daemon_producing(
        "sealed-malformed",
        simfs_core::server::SimFaultSpec::default(),
        test_supervisor(),
        move |key| {
            if key == 7 && !malformed_served.swap(true, std::sync::atomic::Ordering::SeqCst) {
                sealed_huge_n_vars()
            } else {
                step_bytes(key)
            }
        },
    );
    let mut client = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
    let status = client.acquire(&[7]).unwrap();
    assert!(status.ok(), "{status:?}");
    assert_eq!(status.ready, vec![7]);
    let stats = fx.server.stats();
    assert_eq!(stats.corrupt_outputs, 1, "{stats:?}");
    assert_eq!(stats.sim_retries, 1, "{stats:?}");
    assert_eq!(stats.intervals_poisoned, 0, "{stats:?}");
    let bytes = fx.storage.read(&fx.driver.filename_of(7)).unwrap();
    assert_eq!(bytes, step_bytes(7));
    // Still serving: an untouched interval re-simulates as usual.
    let status = client.acquire(&[12]).unwrap();
    assert!(status.ok(), "{status:?}");
    client.finalize().unwrap();
}

#[test]
fn persistent_crash_exhausts_budget_and_poisons_with_typed_code() {
    // Every sim crashes once (unbounded quota; each retry is a fresh
    // sim id, so every attempt dies). The interval must poison after
    // the attempt budget and the waiter must receive a typed Poisoned
    // failure; later acquires of the interval short-circuit without
    // launching.
    let faults = simfs_core::server::SimFaultSpec {
        crash_quota: u64::MAX,
        corrupt_every: 0,
        ..Default::default()
    };
    let fx = start_supervised_daemon("poison", faults, test_supervisor());
    let mut client = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
    let status = client.acquire(&[2]).unwrap();
    assert!(!status.ok(), "{status:?}");
    assert_eq!(status.failed.len(), 1);
    assert_eq!(status.failed[0].0, 2);
    assert_eq!(
        status.failed[0].1.code,
        simfs_core::dv::FailCode::Poisoned,
        "{status:?}"
    );
    assert!(
        status.failed[0].1.reason.contains("poisoned"),
        "{status:?}"
    );
    let stats = fx.server.stats();
    assert_eq!(stats.failures, 3, "one per attempt: {stats:?}");
    assert_eq!(stats.sim_retries, 2, "{stats:?}");
    assert_eq!(stats.intervals_poisoned, 1, "{stats:?}");
    // A different key of the same interval: immediate typed failure,
    // no new production attempt.
    let status = client.acquire(&[3]).unwrap();
    assert!(!status.ok(), "{status:?}");
    assert_eq!(
        status.failed[0].1.code,
        simfs_core::dv::FailCode::Poisoned,
        "{status:?}"
    );
    let stats = fx.server.stats();
    assert_eq!(stats.failures, 3, "quarantine must not relaunch: {stats:?}");
    client.finalize().unwrap();
}

#[test]
fn lock_rank_tracker_is_engaged_and_clean_across_supervision() {
    // Drives the supervision machinery — crash retries with backoff,
    // the reaper's `next_due` scans, integrity-gate kill/re-produce —
    // with the debug lock-rank tracker live on every daemon thread.
    // Any out-of-order acquisition or blocking call under a no-block
    // lock panics inside the daemon (and fails the acquire), so the
    // green path is the assertion; the final check pins that the
    // tracker actually ran, so a regression that stopped annotating
    // lock sites could not pass silently.
    let baseline = simkit::lockrank::checks();
    let faults = simfs_core::server::SimFaultSpec {
        crash_quota: 2,
        corrupt_every: 3,
        ..Default::default()
    };
    let fx = start_supervised_daemon("lockrank", faults, test_supervisor());
    let mut client = SimfsClient::connect(fx.server.addr(), "test-ctx").unwrap();
    let status = client.acquire(&[1, 2, 3, 4]).unwrap();
    assert!(status.ok(), "{status:?}");
    let stats = fx.server.stats();
    assert!(
        stats.sim_retries >= 1,
        "faults must have exercised the retry path: {stats:?}"
    );
    client.finalize().unwrap();
    drop(fx);
    if cfg!(debug_assertions) {
        assert!(
            simkit::lockrank::checks() > baseline,
            "debug builds must be running the rank tracker"
        );
    } else {
        assert_eq!(simkit::lockrank::checks(), 0, "release tracker is compiled out");
    }
}

/// A [`ThreadSimLauncher`] whose `reap` waits while its gate is closed
/// — how a test holds the reaper in the middle of a pass — and which
/// counts the launches it is asked for.
struct GatedReaper {
    sims: ThreadSimLauncher,
    gate: (std::sync::Mutex<bool>, std::sync::Condvar),
    launches: std::sync::atomic::AtomicUsize,
}

impl GatedReaper {
    fn open(&self) {
        *self.gate.0.lock().unwrap() = true;
        self.gate.1.notify_all();
    }

    fn launches(&self) -> usize {
        self.launches.load(std::sync::atomic::Ordering::SeqCst)
    }
}

impl simbatch::JobLauncher for GatedReaper {
    fn launch(
        &self,
        job: simbatch::JobId,
        spec: &simbatch::SpawnSpec,
    ) -> std::io::Result<simbatch::JobHandle> {
        self.launches.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        self.sims.launch(job, spec)
    }

    fn kill(&self, job: simbatch::JobId) -> std::io::Result<()> {
        self.sims.kill(job)
    }

    fn reap(&self) -> Vec<(simbatch::JobId, bool)> {
        let mut open = self.gate.0.lock().unwrap();
        while !*open {
            open = self.gate.1.wait(open).unwrap();
        }
        drop(open);
        self.sims.reap()
    }
}

/// `shutdown` joins the reaper: a daemon shut down while a retry waits
/// out its backoff — and while the reaper is in the middle of a pass —
/// launches nothing once `shutdown` has returned. (It used to signal the
/// reaper and return; the pass then ran its supervision step and
/// launched the retry into a stopped daemon.) A second `shutdown` — the
/// one `Drop` makes — returns at once.
#[test]
fn shutdown_joins_the_reaper_so_no_retry_launches_after_it() {
    let dir = std::env::temp_dir().join(format!("simfs-daemon-reapjoin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let storage = StorageArea::create(&dir, u64::MAX).unwrap();
    let driver = Arc::new(PatternDriver::new("out-", ".sdf", 6));
    let size = step_bytes(1).len() as u64;
    let supervisor = simfs_core::model::SupervisorCfg {
        backoff_base: simkit::Dur::from_millis(50),
        backoff_cap: simkit::Dur::from_millis(50),
        ..Default::default()
    };
    let ctx = ContextCfg::new("test-ctx", StepMath::new(1, 4, 64), size, 1000 * size)
        .with_policy("dcl")
        .with_smax(4)
        .with_prefetch(false)
        .with_supervisor(supervisor);
    let launcher = Arc::new(GatedReaper {
        sims: ThreadSimLauncher::new(
            step_bytes,
            |key| PatternDriver::new("out-", ".sdf", 6).filename_of(key),
            Duration::from_millis(1),
            Duration::from_millis(1),
        )
        .with_faults(simfs_core::server::SimFaultSpec {
            crash_quota: 1,
            ..Default::default()
        }),
        gate: Default::default(),
        launches: Default::default(),
    });
    let server = Arc::new(
        DvServer::start(
            ServerConfig {
                ctx,
                driver,
                storage,
                launcher: launcher.clone(),
                checksums: HashMap::new(),
                dv_shards: 1,
                cluster: ClusterMember::SOLO,
                durability: DurabilityCfg::default(),
            },
            "127.0.0.1:0",
        )
        .unwrap(),
    );
    // The first production crashes; its retry waits out the backoff —
    // and, with the reaper held inside `reap` since the launch woke it,
    // keeps waiting.
    let mut client = SimfsClient::connect(server.addr(), "test-ctx").unwrap();
    let _pending = client.acquire_nb(&[2]).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.stats().sim_retries < 1 {
        assert!(std::time::Instant::now() < deadline, "the crash was never retried");
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(100)); // the retry is due
    assert_eq!(launcher.launches(), 1);

    // Shut down with the retry still queued: the bounded quiesce wait
    // runs out, then the reaper is told to stop — mid-pass.
    let stopping = {
        let (server, launcher) = (Arc::clone(&server), Arc::clone(&launcher));
        std::thread::spawn(move || {
            server.shutdown();
            launcher.launches()
        })
    };
    std::thread::sleep(Duration::from_millis(5300));
    launcher.open();
    let at_return = stopping.join().unwrap();
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(
        launcher.launches(),
        at_return,
        "the daemon launched a simulation after shutdown returned"
    );
    assert_eq!(at_return, 1, "a stopping reaper launched the retry");
    let again = std::time::Instant::now();
    server.shutdown();
    assert!(again.elapsed() < Duration::from_millis(100), "a second shutdown waits again");
    drop(client);
    let _ = std::fs::remove_dir_all(&dir);
}
