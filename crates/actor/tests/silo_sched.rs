//! Every worker-pool thread is background work to the kernel's scheduler
//! (`SCHED_BATCH`), so an event a request handler sends does not preempt
//! the handler on a shared core. The actor cluster's turns run on one
//! such pool, `om-actor-N`, whatever its silo count.
//!
//! Alone in its test binary, so every pool thread named here is this
//! file's.

use om_actor::{Cluster, GrainContext, GrainId};
use om_common::pool::WorkerPool;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Linux's `SCHED_BATCH`.
const SCHED_BATCH: u32 = 3;

/// The scheduling policy of each live `<prefix>-<i>` thread, from field
/// 41 of `/proc/self/task/*/stat`.
fn policies(prefix: &str) -> Vec<u32> {
    let mut policies = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").expect("/proc/self/task") {
        let path = task.expect("task entry").path();
        let Ok(comm) = std::fs::read_to_string(path.join("comm")) else {
            continue; // the thread exited
        };
        let pool_thread = comm
            .trim_end()
            .strip_prefix(prefix)
            .and_then(|rest| rest.strip_prefix('-'))
            .is_some_and(|index| index.parse::<usize>().is_ok());
        if !pool_thread {
            continue;
        }
        let Ok(stat) = std::fs::read_to_string(path.join("stat")) else {
            continue;
        };
        // Fields after the parenthesised name start at field 3.
        let after_name = &stat[stat.rfind(')').expect("stat has a name") + 1..];
        let policy = after_name
            .split_whitespace()
            .nth(41 - 3)
            .expect("policy field");
        policies.push(policy.parse().expect("numeric policy"));
    }
    policies
}

/// The policies of `prefix`'s `n` threads once they all read
/// `SCHED_BATCH`, or after 5 s: each thread sets its policy as it starts.
fn settle(prefix: &str, n: usize) -> Vec<u32> {
    let give_up = Instant::now() + Duration::from_secs(5);
    let mut seen = policies(prefix);
    while seen != vec![SCHED_BATCH; n] && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(5));
        seen = policies(prefix);
    }
    seen
}

#[test]
fn pool_threads_run_as_sched_batch() {
    let pool = WorkerPool::named("sched-probe", 3);
    assert_eq!(settle("sched-probe", 3), [SCHED_BATCH; 3]);
    drop(pool);
}

#[test]
fn a_cluster_runs_its_turns_on_one_sched_batch_pool() {
    let ran_on = Arc::new(Mutex::new(BTreeSet::new()));
    let cluster: Cluster<(), u64> = {
        let ran_on = ran_on.clone();
        Cluster::builder()
            .silos(2)
            .workers(3)
            .register("noop", move |_id, _snapshot| {
                let ran_on = ran_on.clone();
                Box::new(move |_ctx: &mut GrainContext<'_, ()>, _msg: (), _| {
                    let name = std::thread::current().name().map(str::to_owned);
                    ran_on.lock().unwrap().insert(name);
                    0
                })
            })
            .build()
    };
    assert_eq!(
        settle("om-actor", 3),
        [SCHED_BATCH; 3],
        "two silos share one pool of three threads"
    );
    for key in 0..32 {
        cluster.notify(GrainId::new("noop", key), ());
    }
    assert!(cluster.drain(Duration::from_secs(5)));
    assert_eq!(cluster.activation_counts().iter().filter(|&&n| n > 0).count(), 2);
    let ran_on = ran_on.lock().unwrap();
    assert!(
        ran_on
            .iter()
            .all(|name| name.as_deref().is_some_and(|n| n.starts_with("om-actor-"))),
        "events ran on {ran_on:?}"
    );
}
