//! A4 ablation bench: MVCC scan cost as version chains grow, and the
//! cost/benefit of garbage collection (the customized stack's dashboard
//! reads are MVCC snapshot scans).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use om_mvcc::{IsolationLevel, TxManager};

const KEYS: u64 = 512;

/// Builds a table whose every key carries `versions` versions.
fn table_with_chain_depth(versions: usize) -> (TxManager, std::sync::Arc<om_mvcc::Table<u64, u64>>) {
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

criterion_group!(
    benches,
    bench_scan_vs_chain_depth,
    bench_scan_after_gc,
    bench_gc_pass_cost
);
criterion_main!(benches);
