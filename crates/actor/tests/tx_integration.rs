//! Integration tests combining the actor runtime with the transaction
//! layer: grains as 2PC participants, admission under real concurrency,
//! and atomicity across silos.

use om_actor::tx::{Coordinator, Participants, TxParticipant};
use om_actor::{Cluster, FaultConfig, GrainContext, GrainId};
use om_common::ids::TransactionId;
use om_common::{OmError, OmResult};
use std::sync::Arc;

/// Messages for a transactional account grain.
#[derive(Debug, Clone)]
enum Msg {
    /// Stage `delta`, taking the lock.
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
        .workers(2)
        .faults(FaultConfig::reliable())
        .register("account", |_id, _snap| {
            let mut part = TxParticipant::new(0i64);
            Box::new(move |_ctx: &mut GrainContext<'_, Msg>, msg: Msg, _| match msg {
                Msg::Apply(tid, delta) => match part.stage(tid, move |s| *s += delta) {
                    Ok(()) => Reply::Ok,
                    Err(e) => Reply::Err(e),
                },
                Msg::Prepare(tid) => Reply::Vote(part.prepare(tid)),
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

/// Transfers `amount` between two account grains: admitted over both,
/// it finds both locks free and commits at the first attempt.
fn transfer(
    cluster: &Cluster<Msg, Reply>,
    coordinator: &Coordinator,
    from: u64,
    to: u64,
    amount: i64,
) {
    let a = GrainId::new("account", from);
    let b = GrainId::new("account", to);
    let _admitted = coordinator.admit(&[a, b]);
    let tid = coordinator.begin();
    for (g, delta) in [(a, -amount), (b, amount)] {
        match cluster.call(g, Msg::Apply(tid, delta)).unwrap() {
            Reply::Ok => {}
            other => panic!("an admitted transfer's stage answered {other:?}"),
        }
    }
    let accounts = Accounts {
        cluster,
        ids: vec![a, b],
    };
    coordinator.run_2pc(tid, &accounts, || Ok(())).unwrap();
}

#[test]
fn single_transfer_moves_money_atomically() {
    let cluster = account_cluster(2);
    let coordinator = Coordinator::new();
    transfer(&cluster, &coordinator, 1, 2, 50);
    assert_eq!(balance(&cluster, 1), -50);
    assert_eq!(balance(&cluster, 2), 50);
    assert_eq!((coordinator.commits(), coordinator.aborts()), (1, 0));
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
    assert!(coordinator.commits() > 0);
    assert_eq!(coordinator.aborts(), 0, "an admitted transfer never aborts");
}

#[test]
fn disjoint_transactions_are_admitted_side_by_side() {
    // Each thread holds its admission until it sees the other inside
    // its own: a gate that serialised disjoint sets would never let both
    // in, and the deadline fails the test instead of hanging it.
    let coordinator = Coordinator::new();
    let inside = [
        std::sync::atomic::AtomicBool::new(false),
        std::sync::atomic::AtomicBool::new(false),
    ];
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    std::thread::scope(|scope| {
        for me in 0..2u64 {
            let (coordinator, inside) = (&coordinator, &inside);
            scope.spawn(move || {
                let _admitted = coordinator.admit(&[
                    GrainId::new("account", 2 * me),
                    GrainId::new("account", 2 * me + 1),
                ]);
                inside[me as usize].store(true, std::sync::atomic::Ordering::SeqCst);
                while !inside[1 - me as usize].load(std::sync::atomic::Ordering::SeqCst) {
                    assert!(std::time::Instant::now() < deadline, "the other set never got in");
                    std::thread::yield_now();
                }
            });
        }
    });
    assert_eq!(coordinator.admission_waits(), 0);
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
    coordinator.run_2pc(tid2, &p, || Ok(())).unwrap();
    assert_eq!(balance(&cluster, 9), 5);
}

#[test]
fn locks_block_conflicting_transactions_until_decision() {
    let cluster = account_cluster(1);
    let coordinator = Coordinator::new();
    let g = GrainId::new("account", 3);
    let p = Accounts {
        cluster: &cluster,
        ids: vec![g],
    };
    let first = coordinator.admit(&[g]);
    let t1 = coordinator.begin();
    cluster.call(g, Msg::Apply(t1, 10)).unwrap();
    let second_admitted = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let second = scope.spawn(|| {
            // Declares the grain t1 holds: blocks until t1's guard drops.
            let _admitted = coordinator.admit(&[g, GrainId::new("account", 4)]);
            second_admitted.store(true, std::sync::atomic::Ordering::SeqCst);
            let t2 = coordinator.begin();
            match cluster.call(g, Msg::Apply(t2, 20)).unwrap() {
                Reply::Ok => {}
                other => panic!("t2 found the lock taken: {other:?}"),
            }
            coordinator.run_2pc(t2, &p, || Ok(())).unwrap();
        });
        while coordinator.admission_waits() == 0 {
            std::thread::yield_now();
        }
        assert!(
            !second_admitted.load(std::sync::atomic::Ordering::SeqCst),
            "admitted while t1 holds the grain"
        );
        coordinator.run_2pc(t1, &p, || Ok(())).unwrap();
        assert_eq!(balance(&cluster, 3), 10, "t2 staged nothing before t1's decision");
        drop(first);
        second.join().unwrap();
    });
    assert!(second_admitted.load(std::sync::atomic::Ordering::SeqCst));
    assert_eq!(balance(&cluster, 3), 30);
    assert_eq!(coordinator.admission_waits(), 1);
}

/// In-process participants with scripted votes: each phase asks every
/// one of them, as the account grains' fan-out does.
struct Voters {
    cells: Vec<parking_lot::Mutex<TxParticipant<u64>>>,
    /// This round's votes, one per cell.
    votes: parking_lot::Mutex<Vec<bool>>,
}

impl Participants for Voters {
    fn prepare(&self, tid: TransactionId) -> Vec<OmResult<bool>> {
        let votes = self.votes.lock();
        self.cells
            .iter()
            .zip(votes.iter())
            .map(|(cell, &yes)| Ok(yes && cell.lock().prepare(tid)))
            .collect()
    }
    fn commit(&self, tid: TransactionId) -> Vec<OmResult<()>> {
        self.cells
            .iter()
            .map(|c| {
                c.lock().commit(tid);
                Ok(())
            })
            .collect()
    }
    fn abort(&self, tid: TransactionId) -> Vec<OmResult<()>> {
        self.cells
            .iter()
            .map(|c| {
                c.lock().abort(tid);
                Ok(())
            })
            .collect()
    }
}

#[test]
fn ten_thousand_mixed_rounds_count_every_decision_and_leave_nothing_held() {
    // The coordinator keeps no record of a finished transaction: what
    // stays is its counts, the participants' committed state and the
    // admission set, which must be empty again after every round.
    const ROUNDS: u64 = 10_000;
    let coordinator = Coordinator::new();
    let voters = Voters {
        cells: (0..3).map(|_| parking_lot::Mutex::new(TxParticipant::new(0))).collect(),
        votes: parking_lot::Mutex::new(Vec::new()),
    };
    let grains: Vec<GrainId> = (0..3).map(|k| GrainId::new("account", k)).collect();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut committed = 0u64;
    for _ in 0..ROUNDS {
        let _admitted = coordinator.admit(&grains);
        let tid = coordinator.begin();
        // Deterministic pseudo-random votes: about one round in three
        // has a no among its three voters.
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let votes: Vec<bool> = (0..3).map(|i| (x >> (40 + 8 * i)) & 7 != 0).collect();
        for cell in &voters.cells {
            cell.lock().stage(tid, |s| *s += 1).unwrap();
        }
        let all_yes = votes.iter().all(|&v| v);
        *voters.votes.lock() = votes;
        let outcome = coordinator.run_2pc(tid, &voters, || Ok(()));
        assert_eq!(outcome.is_ok(), all_yes, "{outcome:?}");
        committed += u64::from(all_yes);
    }
    assert_eq!(coordinator.commits() + coordinator.aborts(), ROUNDS);
    assert_eq!(coordinator.commits(), committed);
    assert!(coordinator.aborts() > 0 && coordinator.commits() > 0, "mixed votes");
    for cell in &voters.cells {
        let cell = cell.lock();
        assert_eq!(*cell.committed(), coordinator.commits());
        assert!(!cell.is_locked(), "a lock outlived its decision");
    }
    // Nothing is left held: a fresh admission over every grain goes
    // straight in.
    let waits = coordinator.admission_waits();
    drop(coordinator.admit(&grains));
    assert_eq!(coordinator.admission_waits(), waits);
}
