//! simlint self-tests: each seeded fixture violation must be caught,
//! clean shapes must stay clean, and a full run over the real tree
//! must come back empty (the CI gate in test form).

use std::path::{Path, PathBuf};

use simlint::{lockcheck, registry, unsafecheck};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/simlint has a workspace root two levels up")
        .to_path_buf()
}

/// The real registry, so fixtures exercise the production rules.
fn real_registry() -> registry::Registry {
    let src = std::fs::read_to_string(repo_root().join("crates/core/LOCKS.md")).unwrap();
    let (reg, findings) = registry::parse(&src, "crates/core/LOCKS.md");
    assert!(findings.is_empty(), "registry must parse clean: {findings:?}");
    reg
}

/// Fixtures are scanned as if they were server.rs so the production
/// matcher set applies.
const AS_SERVER: &str = "crates/core/src/server.rs";

#[test]
fn fixture_out_of_order_lock_is_caught() {
    let reg = real_registry();
    let src = include_str!("../fixtures/out_of_order_lock.rs");
    let findings = lockcheck::check_source(AS_SERVER, src, &reg);
    let order: Vec<_> = findings.iter().filter(|f| f.check == "lock-order").collect();
    assert_eq!(
        order.len(),
        2,
        "expected the wal→DV climb and the ledger=leases equal-rank nest: {findings:?}"
    );
    assert!(order[0].message.contains("dv-shard") && order[0].message.contains("wal"));
    assert!(order[1].message.contains("leases") && order[1].message.contains("ledger"));
    // The two `fine_*` shapes (descending chain, drop-then-acquire)
    // must not add anything.
    assert_eq!(findings.len(), 2, "{findings:?}");
}

#[test]
fn fixture_blocking_under_lock_is_caught() {
    let reg = real_registry();
    let src = include_str!("../fixtures/blocking_under_lock.rs");
    let findings = lockcheck::check_source(AS_SERVER, src, &reg);
    let blocking: Vec<_> = findings
        .iter()
        .filter(|f| f.check == "blocking-under-lock")
        .collect();
    assert_eq!(
        blocking.len(),
        2,
        "expected `launch` under ledger and `write_all` under a DV-lock temp: {findings:?}"
    );
    assert!(blocking[0].message.contains("launch") && blocking[0].message.contains("ledger"));
    assert!(blocking[1].message.contains("write_all") && blocking[1].message.contains("dv-shard"));
    // Blocking under wal (blocking: yes) and effects-after-release are
    // clean.
    assert_eq!(findings.len(), 2, "{findings:?}");
}

#[test]
fn fixture_bare_unsafe_is_caught() {
    let src = include_str!("../fixtures/bare_unsafe.rs");
    let findings = unsafecheck::check_source("sys.rs", src);
    assert_eq!(findings.len(), 1, "justified block is clean: {findings:?}");
    assert!(findings[0].message.contains("SAFETY"));
}

/// Seeding a violation into the *real* server.rs source must be
/// caught — proof the production scan path is not vacuous (a lexer or
/// matcher regression that stopped tracking acquisitions would pass
/// the clean-tree test below by accident, but fail here).
#[test]
fn seeded_violation_in_real_server_source_is_caught() {
    let reg = real_registry();
    let real = std::fs::read_to_string(repo_root().join("crates/core/src/server.rs")).unwrap();
    assert!(
        lockcheck::check_source(AS_SERVER, &real, &reg).is_empty(),
        "real server.rs must be clean before seeding"
    );
    let seeded = format!(
        "{real}\nfn simlint_seeded(rt: &Runtime) {{\n    let mut w = rt.wal.lock();\n    let core = rt.dv.lock();\n}}\n"
    );
    let findings = lockcheck::check_source(AS_SERVER, &seeded, &reg);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].check, "lock-order");
    assert!(findings[0].message.contains("dv-shard") && findings[0].message.contains("wal"));
}

/// A registry/runtime drift (LOCKS.md says one level, lockrank.rs
/// another) must be caught.
#[test]
fn lockrank_drift_is_caught() {
    let reg = real_registry();
    let real = std::fs::read_to_string(repo_root().join("crates/simkit/src/lockrank.rs")).unwrap();
    assert!(
        registry::check_lockrank_consistency(&reg, &real, "LOCKS.md").is_empty(),
        "real lockrank.rs must agree with the registry"
    );
    let drifted = real.replace(
        "pub const WAL: Rank = Rank { level: 20",
        "pub const WAL: Rank = Rank { level: 45",
    );
    assert_ne!(real, drifted);
    let findings = registry::check_lockrank_consistency(&reg, &drifted, "LOCKS.md");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("WAL"));
}

/// The CI gate in test form: the tree this crate ships in is clean.
#[test]
fn clean_tree_self_run() {
    let report = simlint::run_all(&repo_root());
    assert!(
        report.findings.is_empty(),
        "simlint findings on the real tree:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity: the run actually visited the tree (registry files and
    // every crate src file).
    assert!(report.files_scanned > 40, "only {} files", report.files_scanned);
}
