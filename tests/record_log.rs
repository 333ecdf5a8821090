//! The record log's size: its columns are varint-encoded, so a capture
//! costs about a sixth of the bytes the fixed-width record structs took.
//! This pins the encoded size, so a field added to a record later cannot
//! silently re-inflate the log.

use nicbar::core::{Algorithm, Barrier, RunCfg, Scenario};
use nicbar::gm::GmParams;

/// A 64-node lossy GM NIC-DS capture encodes to fewer than 16 bytes per
/// kept record. The fixed-width structs took 48, 80 and 64 bytes for a
/// span, packet and ledger record, 64 on average over this mix.
#[test]
fn capture_encodes_under_16_bytes_per_record() {
    let cfg = RunCfg {
        warmup: 5,
        iters: 40,
        seed: 1,
        drop_prob: 1e-3,
        permute: true,
        ..RunCfg::default()
    };
    let cap = Scenario::gm(
        GmParams::lanai_xp(),
        64,
        Barrier::Nic(Algorithm::Dissemination),
    )
    .capture(&cfg);
    let t = &cap.trace;
    assert_eq!(t.dropped(), 0, "the capture must fit the log");
    let records = t.len() + t.packets().len() + t.ledger().len();
    assert!(
        !t.is_empty() && !t.packets().is_empty() && !t.ledger().is_empty(),
        "every column must hold records"
    );
    let per_record = t.bytes() as f64 / records as f64;
    assert!(
        per_record < 16.0,
        "{records} records take {} bytes: {per_record:.1} per record",
        t.bytes()
    );
}
