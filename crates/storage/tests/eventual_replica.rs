//! The eventual backend's secondary replica, pinned: a seeded stream of
//! 2 000 `put`s, `delete`s and multi-key `commit_ops` runs through one
//! `EventualBackend::new(8)` on one thread, and every 100 ops the test
//! records the replication counters and a CRC-32 of the secondary's
//! `(key, key_seq, tombstone)` rows.
//!
//! On one thread the secondary is a function of the code alone: the
//! 8-record reorder window, the applier's seed and shuffle order,
//! last-writer-wins by key sequence and tombstones all show in the
//! rows and in the stale-drop count. `eventual_replica.golden` is that
//! record: a difference is a change of how the replica applies the
//! stream, not a fixture to regenerate.

use om_common::checksum::crc32;
use om_common::rng::SplitMix64;
use om_storage::{EventualBackend, StateBackend, WriteOp};

const OPS: u64 = 2_000;
const KEYS: u64 = 48;

fn key(k: u64) -> Vec<u8> {
    format!("k/{k:02}").into_bytes()
}

/// `(key, key_seq, tombstone)` of every key the secondary holds, in key
/// order, framed and checksummed.
fn secondary_rows(b: &EventualBackend) -> (usize, u32) {
    let mut bytes = Vec::new();
    let mut rows = 0;
    for k in 0..KEYS {
        let key = key(k);
        if let Some(v) = b.secondary_store().get_versioned(&key[..]) {
            bytes.extend_from_slice(&key);
            bytes.extend_from_slice(&v.key_seq.to_le_bytes());
            bytes.push(u8::from(v.is_tombstone()));
            rows += 1;
        }
    }
    (rows, crc32(&bytes))
}

fn line(b: &EventualBackend, at: &str) -> String {
    let stats = b.replication_stats();
    let (rows, crc) = secondary_rows(b);
    format!(
        "{at} applied {} stale {} rows {rows} crc {crc:08x}\n",
        stats.applied(),
        stats.stale_drops()
    )
}

#[test]
fn the_secondary_matches_the_golden_record() {
    let b = EventualBackend::new(8);
    let mut rng = SplitMix64::new(0x601D);
    let mut out = String::new();
    for op in 1..=OPS {
        let value = op.to_le_bytes();
        match rng.next_bounded(4) {
            0 | 1 => b.put(&key(rng.next_bounded(KEYS)), &value),
            2 => b.delete(&key(rng.next_bounded(KEYS))),
            _ => {
                let ops: Vec<WriteOp> = (0..2 + rng.next_bounded(4))
                    .map(|_| WriteOp {
                        key: key(rng.next_bounded(KEYS)),
                        value: rng.chance(0.75).then(|| value.to_vec()),
                    })
                    .collect();
                b.commit_ops(&ops).unwrap();
            }
        }
        if op % 100 == 0 {
            out.push_str(&line(&b, &format!("op {op}")));
        }
    }
    b.quiesce();
    out.push_str(&line(&b, "quiesced"));
    assert!(b.replicas_converged());
    assert_eq!(
        out,
        include_str!("eventual_replica.golden"),
        "the replica's apply order, drops or rows changed"
    );
}
