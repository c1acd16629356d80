//! A4 ablation bench: MVCC scan cost as version chains grow, the
//! cost/benefit of garbage collection (the customized stack's dashboard
//! reads are MVCC snapshot scans), and the per-operation cost of a commit
//! and a snapshot read under a manager holding 64 tables — the shape of
//! the snapshot-isolation backend, whose every `get` is one snapshot and
//! whose every grain-state save is one commit.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use om_mvcc::{IsolationLevel, Table, TxManager};
use std::sync::Arc;

const KEYS: u64 = 512;
/// Tables under one manager, as `SnapshotBackend::new(64)` builds.
const SHARDS: usize = 64;

/// Builds a table whose every key carries `versions` versions.
fn table_with_chain_depth(versions: usize) -> (TxManager, Arc<Table<u64, u64>>) {
    let mgr = TxManager::new();
    let table = mgr.create_table::<u64, u64>("t");
    for v in 0..versions.max(1) {
        let tx = mgr.begin(IsolationLevel::Snapshot);
        for k in 0..KEYS {
            table.put(&tx, k, v as u64);
        }
        mgr.commit(tx).unwrap();
    }
    (mgr, table)
}

fn bench_scan_vs_chain_depth(c: &mut Criterion) {
    let mut group = c.benchmark_group("a4/scan_vs_chain_depth");
    for versions in [1usize, 8, 64] {
        let (mgr, table) = table_with_chain_depth(versions);
        group.bench_with_input(
            BenchmarkId::from_parameter(versions),
            &versions,
            |b, _| {
                b.iter(|| {
                    let tx = mgr.begin(IsolationLevel::Snapshot);
                    let n = table.count(&tx);
                    mgr.abort(tx);
                    assert_eq!(n, KEYS as usize);
                    n
                });
            },
        );
    }
    group.finish();
}

fn bench_scan_after_gc(c: &mut Criterion) {
    let (mgr, table) = table_with_chain_depth(64);
    mgr.gc();
    c.bench_function("a4/scan_after_gc_depth64", |b| {
        b.iter(|| {
            let tx = mgr.begin(IsolationLevel::Snapshot);
            let n = table.count(&tx);
            mgr.abort(tx);
            n
        });
    });
}

fn bench_gc_pass_cost(c: &mut Criterion) {
    c.bench_function("a4/gc_pass_depth8", |b| {
        b.iter_with_setup(
            || table_with_chain_depth(8),
            |(mgr, _table)| mgr.gc(),
        );
    });
}

type Shards = Vec<Arc<Table<Vec<u8>, Vec<u8>>>>;

/// A manager with `SHARDS` byte-keyed tables, each holding `KEYS` rows.
fn sharded_manager() -> (TxManager, Shards) {
    let mgr = TxManager::new();
    let shards: Shards = (0..SHARDS)
        .map(|i| mgr.create_table(format!("shard_{i}")))
        .collect();
    let tx = mgr.begin(IsolationLevel::Snapshot);
    for (i, shard) in shards.iter().enumerate() {
        for k in 0..KEYS {
            shard.put(&tx, shard_key(i, k), vec![0; 100]);
        }
    }
    mgr.commit(tx).unwrap();
    (mgr, shards)
}

fn shard_key(shard: usize, k: u64) -> Vec<u8> {
    format!("k/{shard}/{k}").into_bytes()
}

/// One single-key commit, rotating over the tables and their keys.
fn bench_commit_one_key_of_64_tables(c: &mut Criterion) {
    let (mgr, shards) = sharded_manager();
    let mut n = 0u64;
    c.bench_function("a4/commit_one_key_of_64_tables", |b| {
        b.iter(|| {
            n += 1;
            let shard = n as usize % SHARDS;
            let tx = mgr.begin(IsolationLevel::Snapshot);
            shards[shard].put(&tx, shard_key(shard, n % KEYS), vec![1; 100]);
            mgr.commit(tx).unwrap()
        });
    });
}

/// One snapshot opened, one key read from one table, the snapshot dropped.
fn bench_snapshot_get_of_64_tables(c: &mut Criterion) {
    let (mgr, shards) = sharded_manager();
    let keys: Vec<Vec<u8>> = (0..SHARDS).map(|i| shard_key(i, i as u64)).collect();
    let mut n = 0usize;
    c.bench_function("a4/snapshot_get_of_64_tables", |b| {
        b.iter(|| {
            n += 1;
            let shard = n % SHARDS;
            let tx = mgr.begin(IsolationLevel::Snapshot);
            shards[shard].get(&tx, keys[shard].as_slice())
        });
    });
}

criterion_group!(
    benches,
    bench_scan_vs_chain_depth,
    bench_scan_after_gc,
    bench_gc_pass_cost,
    bench_commit_one_key_of_64_tables,
    bench_snapshot_get_of_64_tables
);
criterion_main!(benches);
