// Fixture: Effects-outbox violations — blocking denylist calls while
// a `blocking: no` lock is held. Checked as if it were
// crates/core/src/server.rs. Not compiled — consumed by include_str!.

fn seeded_blocking_under_ledger(rt: &Runtime, spec: LaunchSpec) {
    // ledger is blocking: no; `launch` is denylisted: violation.
    let mut ledger = rt.ledger.lock();
    rt.launcher.launch(spec);
    drop(ledger);
}

fn seeded_write_under_dv_temp(rt: &Runtime, bytes: &[u8]) {
    // Statement temporary also counts as held for the statement:
    // `write_all` inside the argument list runs under the DV lock.
    rt.dv.lock().apply(file.write_all(bytes));
}

fn fine_blocking_under_wal(rt: &Runtime, bytes: &[u8]) {
    // wal is blocking: yes — batched file I/O under it is its purpose.
    let mut w = rt.wal.lock();
    w.file.write_all(bytes).unwrap();
    drop(w);
}

fn fine_effects_after_release(rt: &Runtime, spec: LaunchSpec) {
    let job = {
        let mut ledger = rt.ledger.lock();
        ledger.admit(spec.key)
    };
    // Collected under the lock, effected after release: no finding.
    rt.launcher.launch(spec);
}
