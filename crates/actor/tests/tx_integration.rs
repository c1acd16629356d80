//! Integration tests combining the actor runtime with the transaction
//! layer: grains as 2PC participants, wait-die under real concurrency,
//! and atomicity across silos.

use om_actor::tx::{Coordinator, LockMode, Participants, TxParticipant};
use om_actor::{Cluster, FaultConfig, GrainContext, GrainId};
use om_common::ids::TransactionId;
use om_common::{OmError, OmResult};
use std::sync::Arc;

/// Messages for a transactional account grain.
#[derive(Debug, Clone)]
enum Msg {
    /// Acquire write lock and stage `delta`.
    Apply(TransactionId, i64),
    Prepare(TransactionId),
    Commit(TransactionId),
    Abort(TransactionId),
    Get,
}

#[derive(Debug, Clone)]
enum Reply {
    Ok,
    Vote(bool),
    Value(i64),
    Err(OmError),
}

fn account_cluster(silos: usize) -> Cluster<Msg, Reply> {
    Cluster::builder()
        .silos(silos)
        .workers_per_silo(2)
        .faults(FaultConfig::reliable())
        .register("account", |_id, _snap| {
            let mut part = TxParticipant::new(0i64);
            Box::new(move |_ctx: &mut GrainContext<'_, Msg>, msg: Msg, _| match msg {
                Msg::Apply(tid, delta) => match part
                    .acquire(tid, LockMode::Write)
                    .and_then(|_| part.stage(tid, move |s| *s += delta))
                {
                    Ok(()) => Reply::Ok,
                    Err(e) => Reply::Err(e),
                },
                Msg::Prepare(tid) => match part.prepare(tid) {
                    Ok(v) => Reply::Vote(v),
                    Err(e) => Reply::Err(e),
                },
                Msg::Commit(tid) => {
                    part.commit(tid);
                    Reply::Ok
                }
                Msg::Abort(tid) => {
                    part.abort(tid);
                    Reply::Ok
                }
                Msg::Get => Reply::Value(*part.committed()),
            })
        })
        .build()
}

/// Account grains as 2PC participants: each phase is one fan-out.
struct Accounts<'a> {
    cluster: &'a Cluster<Msg, Reply>,
    ids: Vec<GrainId>,
}

impl Accounts<'_> {
    fn send(&self, msg: fn(TransactionId) -> Msg, tid: TransactionId) -> Vec<OmResult<Reply>> {
        self.cluster
            .call_all(self.ids.iter().map(|&id| (id, msg(tid))).collect())
    }
}

impl Participants for Accounts<'_> {
    fn prepare(&self, tid: TransactionId) -> Vec<OmResult<bool>> {
        self.send(Msg::Prepare, tid)
            .into_iter()
            .map(|reply| match reply? {
                Reply::Vote(v) => Ok(v),
                Reply::Err(e) => Err(e),
                _ => Err(OmError::Internal("bad reply".into())),
            })
            .collect()
    }
    fn commit(&self, tid: TransactionId) -> Vec<OmResult<()>> {
        self.send(Msg::Commit, tid)
            .into_iter()
            .map(|r| r.map(|_| ()))
            .collect()
    }
    fn abort(&self, tid: TransactionId) -> Vec<OmResult<()>> {
        self.send(Msg::Abort, tid)
            .into_iter()
            .map(|r| r.map(|_| ()))
            .collect()
    }
}

fn balance(cluster: &Cluster<Msg, Reply>, key: u64) -> i64 {
    match cluster.call(GrainId::new("account", key), Msg::Get).unwrap() {
        Reply::Value(v) => v,
        other => panic!("unexpected {other:?}"),
    }
}

/// Transfers `amount` between two account grains with the same tid until
/// it commits (wait-die retry with stable priority).
fn transfer(
    cluster: &Cluster<Msg, Reply>,
    coordinator: &Coordinator,
    from: u64,
    to: u64,
    amount: i64,
) {
    let tid = coordinator.begin();
    let a = GrainId::new("account", from);
    let b = GrainId::new("account", to);
    'retry: loop {
        for (g, delta) in [(a, -amount), (b, amount)] {
            loop {
                match cluster.call(g, Msg::Apply(tid, delta)).unwrap() {
                    Reply::Ok => break,
                    Reply::Err(OmError::Conflict(_)) => std::thread::yield_now(),
                    Reply::Err(OmError::TxWaitDie(_)) => {
                        for g2 in [a, b] {
                            let _ = cluster.call(g2, Msg::Abort(tid));
                        }
                        std::thread::yield_now();
                        continue 'retry;
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        let accounts = Accounts {
            cluster,
            ids: vec![a, b],
        };
        match coordinator.run_2pc(tid, &accounts) {
            Ok(()) => return,
            Err(e) if e.is_retryable() => continue 'retry,
            Err(e) => panic!("2pc failed: {e}"),
        }
    }
}

#[test]
fn single_transfer_moves_money_atomically() {
    let cluster = account_cluster(2);
    let coordinator = Coordinator::new();
    transfer(&cluster, &coordinator, 1, 2, 50);
    assert_eq!(balance(&cluster, 1), -50);
    assert_eq!(balance(&cluster, 2), 50);
    assert_eq!(coordinator.log().commits(), 1);
}

#[test]
fn concurrent_transfers_conserve_total_balance() {
    let cluster = Arc::new(account_cluster(2));
    let coordinator = Arc::new(Coordinator::new());
    const ACCOUNTS: u64 = 6;
    std::thread::scope(|scope| {
        for w in 0..4u64 {
            let cluster = cluster.clone();
            let coordinator = coordinator.clone();
            scope.spawn(move || {
                let mut x = w + 1;
                for i in 0..25 {
                    // Deterministic pseudo-random account pairs.
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let from = x % ACCOUNTS;
                    let to = (x / 7 + i) % ACCOUNTS;
                    if from != to {
                        transfer(&cluster, &coordinator, from, to, 1);
                    }
                }
            });
        }
    });
    let total: i64 = (0..ACCOUNTS).map(|k| balance(&cluster, k)).sum();
    assert_eq!(total, 0, "money created or destroyed under concurrency");
    assert!(coordinator.log().is_consistent());
    assert!(coordinator.log().commits() > 0);
}

#[test]
fn aborted_transaction_leaves_no_trace() {
    let cluster = account_cluster(1);
    let coordinator = Coordinator::new();
    let tid = coordinator.begin();
    let g = GrainId::new("account", 9);
    cluster.call(g, Msg::Apply(tid, 1000)).unwrap();
    // Client decides to abort instead of preparing.
    cluster.call(g, Msg::Abort(tid)).unwrap();
    assert_eq!(balance(&cluster, 9), 0);
    // Lock is free for the next transaction.
    let tid2 = coordinator.begin();
    cluster.call(g, Msg::Apply(tid2, 5)).unwrap();
    let p = Accounts {
        cluster: &cluster,
        ids: vec![g],
    };
    coordinator.run_2pc(tid2, &p).unwrap();
    assert_eq!(balance(&cluster, 9), 5);
}

#[test]
fn locks_block_conflicting_transactions_until_decision() {
    let cluster = account_cluster(1);
    let coordinator = Coordinator::new();
    let g = GrainId::new("account", 3);
    let t1 = coordinator.begin();
    let t2 = coordinator.begin();
    cluster.call(g, Msg::Apply(t1, 10)).unwrap();
    // Younger t2 must die, not wait.
    match cluster.call(g, Msg::Apply(t2, 20)).unwrap() {
        Reply::Err(OmError::TxWaitDie(_)) => {}
        other => panic!("expected wait-die kill, got {other:?}"),
    }
    // After t1 commits, t2 can proceed (same tid retry).
    let p = Accounts {
        cluster: &cluster,
        ids: vec![g],
    };
    coordinator.run_2pc(t1, &p).unwrap();
    cluster.call(g, Msg::Apply(t2, 20)).unwrap();
    coordinator.run_2pc(t2, &p).unwrap();
    assert_eq!(balance(&cluster, 3), 30);
}
