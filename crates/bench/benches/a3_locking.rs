//! A3 — ablation: wait-die lock contention. Times transactional batches
//! against one hot participant vs spread participants, quantifying the
//! restart cost that makes hot-product checkouts expensive under 2PL.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use om_actor::tx::{Coordinator, LockMode, Participants, TxParticipant};
use om_common::ids::TransactionId;
use om_common::OmResult;
use parking_lot::Mutex;
use std::sync::Arc;

struct LocalPart(Mutex<TxParticipant<u64>>);

/// One in-process participant as the whole participant set.
impl Participants for LocalPart {
    fn prepare(&self, tid: TransactionId) -> Vec<OmResult<bool>> {
        vec![self.0.lock().prepare(tid)]
    }
    fn commit(&self, tid: TransactionId) -> Vec<OmResult<()>> {
        self.0.lock().commit(tid);
        vec![Ok(())]
    }
    fn abort(&self, tid: TransactionId) -> Vec<OmResult<()>> {
        self.0.lock().abort(tid);
        vec![Ok(())]
    }
}

/// Runs `txs` transactions from 4 threads over `parts`, picking the
/// participant by `spread` (1 = all hit participant 0).
fn run_contended(parts: &Arc<Vec<LocalPart>>, coordinator: &Arc<Coordinator>, spread: usize) {
    std::thread::scope(|scope| {
        for w in 0..4usize {
            let parts = parts.clone();
            let coordinator = coordinator.clone();
            scope.spawn(move || {
                for i in 0..50usize {
                    let idx = (w * 50 + i) % spread;
                    let tid = coordinator.begin();
                    // Wait-die retry loop with the same tid.
                    loop {
                        let acquired = {
                            let mut p = parts[idx].0.lock();
                            p.acquire(tid, LockMode::Write)
                                .and_then(|_| p.stage(tid, |s| *s += 1))
                        };
                        match acquired {
                            Ok(()) => break,
                            Err(_) => std::thread::yield_now(),
                        }
                    }
                    let _ = coordinator.run_2pc(tid, &parts[idx]);
                }
            });
        }
    });
}

fn bench_contention(c: &mut Criterion) {
    let mut group = c.benchmark_group("a3_lock_contention");
    group.sample_size(15);
    for (label, spread) in [("hot_single_key", 1usize), ("spread_16_keys", 16)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &spread, |b, &spread| {
            b.iter_with_setup(
                || {
                    let parts: Arc<Vec<LocalPart>> = Arc::new(
                        (0..16)
                            .map(|_| LocalPart(Mutex::new(TxParticipant::new(0u64))))
                            .collect(),
                    );
                    (parts, Arc::new(Coordinator::new()))
                },
                |(parts, coordinator)| run_contended(&parts, &coordinator, spread),
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_contention);
criterion_main!(benches);
