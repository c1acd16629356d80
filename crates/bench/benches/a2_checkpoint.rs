//! A2 — ablation: checkpointing cost of the dataflow runtime.
//!
//! Two axes:
//!
//! * **interval** — epoch batch size: smaller batches commit more
//!   checkpoints per record (the latency/overhead trade-off a Statefun
//!   deployment tunes);
//! * **store** — where checkpoints go: the in-memory store (deep copies,
//!   nothing survives a rebuild) vs the backend-backed store over each
//!   `StateBackend` discipline (durable: every epoch is one multi-key
//!   backend commit). The gap is the price of honest crash recovery.
//!
//! A third group measures the recovery path itself: crash mid-epoch,
//! restore from the backend-backed checkpoint, replay to completion.
//!
//! A fourth group (`a2_workers`) sweeps the partition-parallel worker
//! pool over a CPU-weighted workload, past the host's core count —
//! `w1` is the serial baseline every parallel cell is judged against.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use om_bench::{make_checkpoint_store, CHECKPOINT_STORES};
use om_common::config::BackendKind;
use om_dataflow::{Address, CheckpointStore, Dataflow, Effects};
use std::sync::Arc;

fn build(max_batch: usize, store: Option<Arc<dyn CheckpointStore>>) -> Dataflow<u64> {
    let mut builder = Dataflow::builder().partitions(4).max_batch(max_batch);
    if let Some(store) = store {
        builder = builder.checkpoint_store(store);
    }
    builder
        .register(
            "count",
            |_key, state: Option<&[u8]>, msg: u64, out: &mut Effects<u64>| {
                let cur = state
                    .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                    .unwrap_or(0);
                out.set_state((cur + msg).to_le_bytes().to_vec());
            },
        )
        .build()
}

fn bench_checkpoint_interval(c: &mut Criterion) {
    let mut group = c.benchmark_group("a2_checkpoint_interval");
    group.sample_size(15);
    const RECORDS: u64 = 2_048;
    for max_batch in [8usize, 64, 512] {
        group.bench_with_input(
            BenchmarkId::from_parameter(max_batch),
            &max_batch,
            |b, &max_batch| {
                b.iter_with_setup(
                    || {
                        let df = build(max_batch, None);
                        for i in 0..RECORDS {
                            df.submit(Address::new("count", i % 256), 1);
                        }
                        df
                    },
                    |df| {
                        let epochs = df.run_to_completion().unwrap();
                        assert!(epochs > 0);
                        epochs
                    },
                );
            },
        );
    }
    group.finish();
}

/// In-memory vs backend-backed checkpointing at a fixed interval: what a
/// durable epoch commit costs per storage discipline.
fn bench_checkpoint_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("a2_checkpoint_store");
    group.sample_size(15);
    const RECORDS: u64 = 2_048;
    for (label, kind) in CHECKPOINT_STORES {
        group.bench_with_input(BenchmarkId::from_parameter(label), &kind, |b, &kind| {
            b.iter_with_setup(
                || {
                    let df = build(64, make_checkpoint_store(kind));
                    for i in 0..RECORDS {
                        df.submit(Address::new("count", i % 256), 1);
                    }
                    df
                },
                |df| {
                    let epochs = df.run_to_completion().unwrap();
                    assert!(epochs > 0);
                    epochs
                },
            );
        });
    }
    group.finish();
}

/// Crash mid-run, restore from the backend-backed checkpoint, replay:
/// the recovery cell per backend.
fn bench_crash_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("a2_crash_recovery");
    group.sample_size(10);
    const RECORDS: u64 = 1_024;
    for kind in BackendKind::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.label()),
            &kind,
            |b, &kind| {
                b.iter_with_setup(
                    || {
                        let df = build(64, make_checkpoint_store(Some(kind)));
                        for i in 0..RECORDS {
                            df.submit(Address::new("count", i % 256), 1);
                        }
                        df.inject_crash_after(RECORDS / 2);
                        df
                    },
                    |df| {
                        df.run_to_completion().unwrap();
                        let (_, replays, _, _) = df.stats();
                        assert!(replays >= 1, "the injected crash must fire");
                        replays
                    },
                );
            },
        );
    }
    group.finish();
}

/// Partition-parallel epoch execution: the same CPU-weighted workload at
/// each worker count, including one past any reasonable core count. The
/// per-record work (a short hash chain) is heavy enough that fan-out
/// wins on multi-core hosts and the pool handoff shows up honestly on
/// single-core ones.
fn bench_workers(c: &mut Criterion) {
    let mut group = c.benchmark_group("a2_workers");
    group.sample_size(10);
    const RECORDS: u64 = 1_024;
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("w{workers}")),
            &workers,
            |b, &workers| {
                b.iter_with_setup(
                    || {
                        let df = Dataflow::builder()
                            .partitions(8)
                            .max_batch(128)
                            .workers(workers)
                            .register(
                                "work",
                                |_key, state: Option<&[u8]>, msg: u64, out: &mut Effects<u64>| {
                                    // CPU-weighted: a hash chain per record.
                                    let mut h = msg.wrapping_add(0x9E37_79B9_7F4A_7C15);
                                    for _ in 0..2_000 {
                                        h ^= h >> 33;
                                        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
                                    }
                                    let cur = state
                                        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                                        .unwrap_or(0);
                                    out.set_state((cur ^ h).to_le_bytes().to_vec());
                                },
                            )
                            .build();
                        for i in 0..RECORDS {
                            df.submit(Address::new("work", i % 64), i);
                        }
                        df
                    },
                    |df| {
                        let epochs = df.run_to_completion().unwrap();
                        assert!(epochs > 0);
                        epochs
                    },
                );
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_checkpoint_interval,
    bench_checkpoint_store,
    bench_crash_recovery,
    bench_workers
);
criterion_main!(benches);
