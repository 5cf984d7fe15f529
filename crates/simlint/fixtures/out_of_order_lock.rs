// Fixture: lock-order violations. Checked as if it were
// crates/core/src/server.rs (the registry's matcher set for that
// file). Not compiled — consumed by include_str! in tests.

fn seeded_out_of_order(rt: &Runtime) {
    // wal is level 20; acquiring the DV lock (level 40) under it climbs
    // the hierarchy: violation #1.
    let mut w = rt.wal.lock();
    let core = rt.dv.lock();
    drop(core);
    drop(w);
}

fn seeded_equal_rank(rt: &Runtime) {
    // ledger and leases are both level 20; equal levels never nest:
    // violation #2.
    let mut ledger = rt.ledger.lock();
    let n = rt.leases.lock().len();
    drop(ledger);
}

fn fine_descending(rt: &Runtime) {
    // 40 then 20 is a legal descending chain; no finding.
    let core = rt.dv.lock();
    let pins = rt.ledger.lock().pins();
    drop(core);
}

fn fine_after_drop(rt: &Runtime) {
    // Explicit drop releases the bound guard; no finding.
    let mut w = rt.wal.lock();
    drop(w);
    let core = rt.dv.lock();
}
