//! B2 — **durability cost and recovery speed** across the three storage
//! backends.
//!
//! Two questions the file-durable backend raises, measured head to head:
//!
//! * `b2_commit_latency` — what a 16-key atomic commit costs per
//!   discipline. The file backend pays a framed WAL append + flush per
//!   commit; the memory backends pay locks (eventual) or MVCC
//!   validation (snapshot isolation) only.
//! * `b2_checkpoint_restart` — how fast a rebuilt dataflow reads back
//!   its last committed checkpoint (`BackendCheckpointStore::load`). For
//!   the memory backends this is the **shared-instance** restart — their
//!   best case, since a genuinely cold process loses them entirely; the
//!   file backend serves the same load after a real process boundary.
//! * `b2_cold_recovery` — the file backend's true cold start as a
//!   first-class **state-size axis**: open a data directory holding
//!   10×/100× the 1× reference state (2k keys) from disk alone, with
//!   serial (1 thread) vs parallel (4 threads) snapshot-section
//!   loading. The parallel cell can only beat serial on multi-core
//!   hosts.
//! * `b2_group_commit` — 1/4/16 concurrent writers committing under
//!   `sync_commits` through the cohort barrier: how far one fsync is
//!   shared as writers are added. One iteration = every writer
//!   performing 32 commits.
//! * `b2_snapshot_mode` — snapshot cost vs state size: 64 dirty keys
//!   over stores of 1k/16k keys. A delta must track the churn (flat
//!   across state sizes), not the store.
//!
//! The criterion shim reports min/median/p95 over repeated samples —
//! cite the medians.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use om_bench::{make_checkpoint_store, BACKENDS};
use om_dataflow::{BackendCheckpointStore, StateDelta};
use om_storage::{make_backend, FileBackend, FileBackendOptions, StateBackend, WriteOp};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

fn commit_ops(round: u64) -> Vec<WriteOp> {
    (0..16u64)
        .map(|k| WriteOp {
            key: format!("b2/key/{k}").into_bytes(),
            value: Some(round.to_le_bytes().to_vec()),
        })
        .collect()
}

fn bench_commit_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("b2_commit_latency");
    group.sample_size(20);
    for backend_kind in BACKENDS {
        let backend = make_backend(backend_kind, 16);
        let round = AtomicU64::new(0);
        group.bench_with_input(
            BenchmarkId::from_parameter(backend_kind.label()),
            &backend_kind,
            |b, _| {
                b.iter_with_setup(
                    || commit_ops(round.fetch_add(1, Ordering::Relaxed)),
                    |ops| backend.commit_ops(&ops).expect("sequential commits"),
                );
            },
        );
    }
    group.finish();
}

/// Commits `epochs` checkpoint epochs (32 dirty keys each) through the
/// given store, mimicking what the dataflow runtime persists.
fn populate_checkpoints(store: &BackendCheckpointStore, epochs: u64) {
    for epoch in 1..=epochs {
        let dirty: Vec<StateDelta> = (0..32u64)
            .map(|k| StateDelta::put(
                (k % 4) as usize,
                "counter",
                k,
                epoch.to_le_bytes().to_vec(),
            ))
            .collect();
        store
            .commit_epoch(epoch, &[epoch, epoch, epoch, epoch], dirty)
            .expect("checkpoint commit");
    }
}

fn bench_checkpoint_restart(c: &mut Criterion) {
    let mut group = c.benchmark_group("b2_checkpoint_restart");
    group.sample_size(15);
    const EPOCHS: u64 = 64;
    for kind in BACKENDS {
        let store = make_checkpoint_store(kind);
        populate_checkpoints(&store, EPOCHS);
        group.bench_with_input(BenchmarkId::from_parameter(kind.label()), &kind, |b, _| {
            b.iter_with_setup(
                || (),
                |()| {
                    let snap = store.load().expect("load").expect("committed");
                    assert_eq!(snap.epoch, EPOCHS);
                    snap.states.len()
                },
            );
        });
    }
    group.finish();
}

fn scratch_dir() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "om-b2-bench-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Bulk-loads `keys` distinct keys (64-byte values) in 512-key batches.
fn populate_state(backend: &FileBackend, keys: u64) {
    let mut batch: Vec<WriteOp> = Vec::with_capacity(512);
    for k in 0..keys {
        batch.push(WriteOp {
            key: format!("state/{k:010}").into_bytes(),
            value: Some(vec![7u8; 64]),
        });
        if batch.len() == 512 {
            backend.commit_ops(&batch).unwrap();
            batch.clear();
        }
    }
    if !batch.is_empty() {
        backend.commit_ops(&batch).unwrap();
    }
}

/// Cold recovery as a state-size axis: the 1× reference state is 2k
/// keys; the sweep opens 10×/100× directories (snapshot base + one
/// delta + a WAL tail, so every recovery phase runs) with serial vs
/// parallel snapshot-section loading.
fn bench_cold_recovery(c: &mut Criterion) {
    const BASE_KEYS: u64 = 2_000; // the 1x reference state
    let mut group = c.benchmark_group("b2_cold_recovery");
    group.sample_size(10);
    group.measurement_time(Duration::from_millis(1_000));
    for scale in [10u64, 100] {
        let keys = BASE_KEYS * scale;
        let dir = scratch_dir();
        let write_opts = FileBackendOptions {
            shards: 8,
            snapshot_every: 0, // snapshots forced below
            compact_max_deltas: u64::MAX,
            compact_ratio_pct: u64::MAX,
            ..FileBackendOptions::default()
        };
        {
            let backend = FileBackend::open(&dir, write_opts).unwrap();
            populate_state(&backend, keys);
            backend.snapshot_now().unwrap(); // base, 8 sections
            for round in 0..(keys / 20).min(2_048) {
                backend.put(format!("state/{round:010}").as_bytes(), &round.to_le_bytes());
            }
            backend.snapshot_now().unwrap(); // delta on top
            for round in 0..256u64 {
                backend.commit_ops(&commit_ops(round)).unwrap(); // WAL tail
            }
        }
        for (label, threads) in [("serial", 1usize), ("parallel", 4)] {
            let opts = FileBackendOptions {
                recovery_threads: threads,
                ..write_opts
            };
            group.bench_function(format!("scale{scale}_{label}"), |b| {
                b.iter_with_setup(
                    || (),
                    |()| {
                        let reborn = FileBackend::open(&dir, opts).unwrap();
                        assert_eq!(reborn.len() as u64, keys + 16);
                        reborn.len()
                    },
                );
            });
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

/// Concurrent committers under `sync_commits`. One iteration =
/// `writers` threads × 32 commits each; the barrier pays one fsync per
/// cohort, so per-commit cost should fall as writers are added.
fn bench_group_commit(c: &mut Criterion) {
    const COMMITS_PER_WRITER: u64 = 32;
    let mut group = c.benchmark_group("b2_group_commit");
    group.sample_size(12);
    group.measurement_time(Duration::from_millis(1_500));
    for writers in [1usize, 4, 16] {
        let opts = FileBackendOptions {
            shards: 16,
            sync_commits: true,
            ..FileBackendOptions::default()
        };
        let backend =
            std::sync::Arc::new(FileBackend::scratch_with(opts).expect("scratch backend"));
        let round = AtomicU64::new(0);
        group.bench_function(format!("w{writers}"), |b| {
            b.iter(|| {
                let r = round.fetch_add(1, Ordering::Relaxed);
                std::thread::scope(|scope| {
                    for w in 0..writers {
                        let backend = backend.clone();
                        scope.spawn(move || {
                            for i in 0..COMMITS_PER_WRITER {
                                let ops = [WriteOp {
                                    key: format!("w{w}/k{i}").into_bytes(),
                                    value: Some(r.to_le_bytes().to_vec()),
                                }];
                                backend.commit_ops(&ops).expect("grouped commit");
                            }
                        });
                    }
                });
            });
        });
    }
    group.finish();
}

/// Snapshot cost vs state size at fixed churn: every iteration dirties
/// 64 keys and forces a snapshot, which must price the churn (flat
/// across store sizes), not the store.
fn bench_snapshot_mode(c: &mut Criterion) {
    const CHURN: u64 = 64;
    let mut group = c.benchmark_group("b2_snapshot_mode");
    group.sample_size(10);
    for state_keys in [1_000u64, 16_000] {
        let opts = FileBackendOptions {
            shards: 16,
            snapshot_every: 0, // snapshots forced by the bench only
            // Never compact here: measure the pure delta path.
            compact_max_deltas: u64::MAX,
            compact_ratio_pct: u64::MAX,
            ..FileBackendOptions::default()
        };
        let backend = FileBackend::scratch_with(opts).expect("scratch backend");
        for k in 0..state_keys {
            backend.put(format!("state/{k:08}").as_bytes(), &[7u8; 64]);
        }
        // Seed the chain with a base so iterations measure deltas, not
        // the first base write.
        backend.snapshot_now().expect("seed snapshot");
        let round = AtomicU64::new(0);
        group.bench_function(format!("incremental_{state_keys}_keys"), |b| {
            b.iter(|| {
                let r = round.fetch_add(1, Ordering::Relaxed);
                for k in 0..CHURN {
                    backend.put(format!("state/{k:08}").as_bytes(), &r.to_le_bytes());
                }
                backend.snapshot_now().expect("forced snapshot");
            });
        });
    }
    group.finish();
}

criterion_group!(
    b2,
    bench_commit_latency,
    bench_checkpoint_restart,
    bench_cold_recovery,
    bench_group_commit,
    bench_snapshot_mode
);
criterion_main!(b2);
