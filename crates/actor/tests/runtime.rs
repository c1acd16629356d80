//! Integration tests for the virtual actor runtime: activation, turn
//! isolation, event cascades, persistence, silo failure, fault injection
//! and the `call_all` fan-out.

use om_actor::{Cluster, FaultConfig, GrainContext, GrainId};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Message type used by the test grains.
#[derive(Debug, Clone)]
enum Msg {
    Add(u64),
    Get,
    /// Adds then forwards Add(n) to another counter grain.
    AddAndForward(u64, GrainId),
    /// Adds and persists state.
    AddPersist(u64),
    /// Meets the test thread at the barrier twice — once on entering the
    /// turn, once to leave it — holding the thread that runs the turn in
    /// between.
    Block(Arc<Barrier>),
    /// Records the thread that runs the turn.
    WhoRuns(Arc<Mutex<Option<ThreadId>>>),
}

type Reply = u64;

/// Builds a counter-grain cluster. The counter optionally restores from a
/// persisted snapshot (little-endian u64).
fn counter_cluster(silos: usize, workers: usize, faults: FaultConfig) -> Cluster<Msg, Reply> {
    counter_cluster_with_timeout(silos, workers, faults, Duration::from_secs(10))
}

fn counter_cluster_with_timeout(
    silos: usize,
    workers: usize,
    faults: FaultConfig,
    call_timeout: Duration,
) -> Cluster<Msg, Reply> {
    Cluster::builder()
        .silos(silos)
        .workers_per_silo(workers)
        .faults(faults)
        .call_timeout(call_timeout)
        .register("counter", |_id, snapshot| {
            let mut value: u64 = snapshot
                .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte snapshot")))
                .unwrap_or(0);
            Box::new(move |ctx: &mut GrainContext<'_, Msg>, msg: Msg, _| match msg {
                Msg::Add(n) => {
                    value += n;
                    value
                }
                Msg::Get => value,
                Msg::AddAndForward(n, next) => {
                    value += n;
                    ctx.send(next, Msg::Add(n));
                    value
                }
                Msg::AddPersist(n) => {
                    value += n;
                    ctx.persist(value.to_le_bytes().to_vec());
                    value
                }
                Msg::Block(gate) => {
                    gate.wait();
                    gate.wait();
                    value
                }
                Msg::WhoRuns(seen) => {
                    *seen.lock().unwrap() = Some(std::thread::current().id());
                    value
                }
            })
        })
        .build()
}

#[test]
fn call_activates_and_computes() {
    let cluster = counter_cluster(2, 2, FaultConfig::reliable());
    let id = GrainId::new("counter", 1);
    assert_eq!(cluster.call(id, Msg::Add(5)).unwrap(), 5);
    assert_eq!(cluster.call(id, Msg::Add(3)).unwrap(), 8);
    assert_eq!(cluster.call(id, Msg::Get).unwrap(), 8);
}

#[test]
fn unknown_grain_kind_is_not_found() {
    let cluster = counter_cluster(1, 1, FaultConfig::reliable());
    let err = cluster.call(GrainId::new("nope", 1), Msg::Get).unwrap_err();
    assert_eq!(err.label(), "not_found");
}

#[test]
fn grains_have_independent_state() {
    let cluster = counter_cluster(2, 2, FaultConfig::reliable());
    cluster.call(GrainId::new("counter", 1), Msg::Add(10)).unwrap();
    cluster.call(GrainId::new("counter", 2), Msg::Add(20)).unwrap();
    assert_eq!(cluster.call(GrainId::new("counter", 1), Msg::Get).unwrap(), 10);
    assert_eq!(cluster.call(GrainId::new("counter", 2), Msg::Get).unwrap(), 20);
}

#[test]
fn turn_isolation_no_lost_updates_on_hot_grain() {
    let cluster = Arc::new(counter_cluster(2, 4, FaultConfig::reliable()));
    let id = GrainId::new("counter", 7);
    let mut handles = vec![];
    for _ in 0..8 {
        let cluster = cluster.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..500 {
                cluster.call(id, Msg::Add(1)).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        cluster.call(id, Msg::Get).unwrap(),
        4000,
        "single-threaded turns must serialize all increments"
    );
}

#[test]
fn notify_is_fire_and_forget_and_drains() {
    let cluster = counter_cluster(2, 2, FaultConfig::reliable());
    let id = GrainId::new("counter", 3);
    for _ in 0..100 {
        cluster.notify(id, Msg::Add(1));
    }
    assert!(cluster.drain(Duration::from_secs(5)), "must quiesce");
    assert_eq!(cluster.call(id, Msg::Get).unwrap(), 100);
}

#[test]
fn grain_to_grain_events_cascade() {
    let cluster = counter_cluster(2, 2, FaultConfig::reliable());
    let a = GrainId::new("counter", 1);
    let b = GrainId::new("counter", 2);
    for _ in 0..50 {
        cluster.notify(a, Msg::AddAndForward(2, b));
    }
    assert!(cluster.drain(Duration::from_secs(5)));
    assert_eq!(cluster.call(a, Msg::Get).unwrap(), 100);
    assert_eq!(cluster.call(b, Msg::Get).unwrap(), 100, "forwarded events arrived");
}

#[test]
fn persisted_state_survives_silo_kill() {
    let cluster = counter_cluster(2, 2, FaultConfig::reliable());
    // Touch many grains so both silos host some.
    for k in 0..20 {
        let id = GrainId::new("counter", k);
        cluster.call(id, Msg::AddPersist(k + 1)).unwrap();
    }
    assert!(cluster.drain(Duration::from_secs(5)));
    let saved = cluster.storage().len();
    assert_eq!(saved, 20);

    cluster.kill_silo(0);
    // All grains stay reachable (re-placed on silo 1) with restored state.
    for k in 0..20 {
        let id = GrainId::new("counter", k);
        assert_eq!(
            cluster.call(id, Msg::Get).unwrap(),
            k + 1,
            "grain {k} lost persisted state after silo kill"
        );
    }
}

#[test]
fn volatile_state_is_lost_on_silo_kill() {
    let cluster = counter_cluster(1, 2, FaultConfig::reliable());
    let id = GrainId::new("counter", 1);
    cluster.call(id, Msg::Add(42)).unwrap(); // not persisted
    cluster.kill_silo(0);
    cluster.restart_silo(0);
    assert_eq!(
        cluster.call(id, Msg::Get).unwrap(),
        0,
        "unpersisted state must be gone — the eventual-consistency hazard"
    );
}

#[test]
fn killed_cluster_without_live_silo_reports_unavailable() {
    let cluster = counter_cluster(1, 1, FaultConfig::reliable());
    cluster.kill_silo(0);
    let err = cluster.call(GrainId::new("counter", 1), Msg::Get).unwrap_err();
    assert_eq!(err.label(), "unavailable");
    cluster.restart_silo(0);
    assert_eq!(cluster.call(GrainId::new("counter", 1), Msg::Get).unwrap(), 0);
}

#[test]
fn fault_injection_drops_grain_to_grain_events() {
    // a -> b forwarding with 50% drop: b must receive strictly fewer.
    let cluster = counter_cluster(1, 2, FaultConfig::lossy(0.5, 0.0, 1234));
    let a = GrainId::new("counter", 1);
    let b = GrainId::new("counter", 2);
    for _ in 0..200 {
        cluster.notify(a, Msg::AddAndForward(1, b));
    }
    assert!(cluster.drain(Duration::from_secs(5)));
    let at_a = cluster.call(a, Msg::Get).unwrap();
    let at_b = cluster.call(b, Msg::Get).unwrap();
    assert_eq!(at_a, 200, "client->grain notifies are reliable");
    assert!(at_b < 200, "~50% drop expected, got {at_b}");
    assert!(at_b > 20, "not everything may be dropped, got {at_b}");
    assert!(cluster.counters().get("events_dropped") > 0);
}

#[test]
fn fault_injection_duplicates_grain_to_grain_events() {
    let cluster = counter_cluster(1, 2, FaultConfig::lossy(0.0, 0.5, 77));
    let a = GrainId::new("counter", 1);
    let b = GrainId::new("counter", 2);
    for _ in 0..200 {
        cluster.notify(a, Msg::AddAndForward(1, b));
    }
    assert!(cluster.drain(Duration::from_secs(5)));
    let at_b = cluster.call(b, Msg::Get).unwrap();
    assert!(at_b > 200, "duplicates must inflate the count, got {at_b}");
    assert!(cluster.counters().get("events_duplicated") > 0);
}

#[test]
fn load_spreads_across_silos() {
    let cluster = counter_cluster(4, 2, FaultConfig::reliable());
    for k in 0..200 {
        cluster.call(GrainId::new("counter", k), Msg::Add(1)).unwrap();
    }
    let counts = cluster.activation_counts();
    assert_eq!(counts.iter().sum::<usize>(), 200);
    for (i, &c) in counts.iter().enumerate() {
        assert!(c > 10, "silo {i} hosts only {c}/200 activations: {counts:?}");
    }
}

#[test]
fn concurrent_distinct_grains_scale_without_interference() {
    let cluster = Arc::new(counter_cluster(2, 4, FaultConfig::reliable()));
    let total = Arc::new(AtomicU64::new(0));
    let mut handles = vec![];
    for w in 0..4u64 {
        let cluster = cluster.clone();
        let total = total.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..200 {
                let id = GrainId::new("counter", w * 1000 + i);
                let v = cluster.call(id, Msg::Add(1)).unwrap();
                total.fetch_add(v, Ordering::Relaxed);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(total.load(Ordering::Relaxed), 800, "every first Add returns 1");
}

/// A counter grain, from key `from` up, that activates on `silo`.
fn grain_on(cluster: &Cluster<Msg, Reply>, silo: usize, from: u64) -> GrainId {
    (from..)
        .map(|key| GrainId::new("counter", key))
        .find(|&id| {
            let before = cluster.activation_counts()[silo];
            cluster.call(id, Msg::Get).unwrap();
            cluster.activation_counts()[silo] > before
        })
        .unwrap()
}

#[test]
fn call_all_replies_in_call_order() {
    let cluster = counter_cluster(2, 2, FaultConfig::reliable());
    let calls = (0..40u64)
        .map(|k| (GrainId::new("counter", k), Msg::Add(k * 3)))
        .collect();
    let replies: Vec<u64> = cluster
        .call_all(calls)
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    assert_eq!(replies, (0..40u64).map(|k| k * 3).collect::<Vec<_>>());
    let counts = cluster.activation_counts();
    assert!(
        counts.iter().all(|&c| c > 0),
        "spread over both silos: {counts:?}"
    );
}

#[test]
fn call_all_runs_messages_to_one_grain_in_the_order_given() {
    let cluster = counter_cluster(2, 4, FaultConfig::reliable());
    let g = GrainId::new("counter", 1);
    let h = GrainId::new("counter", 2);
    let replies: Vec<u64> = cluster
        .call_all(vec![
            (g, Msg::Add(1)),
            (h, Msg::Add(5)),
            (g, Msg::Add(10)),
            (g, Msg::Add(100)),
            (h, Msg::Get),
        ])
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    assert_eq!(
        replies,
        vec![1, 5, 11, 111, 5],
        "each reply is the running total"
    );
}

#[test]
fn empty_call_all_returns_at_once_and_waits_for_nothing() {
    let cluster = counter_cluster(1, 1, FaultConfig::reliable());
    let started = Instant::now();
    assert!(cluster.call_all(Vec::new()).is_empty());
    assert!(started.elapsed() < Duration::from_secs(1));
    assert_eq!(cluster.counters().get("waits"), 0);
    assert_eq!(cluster.counters().get("calls"), 0);
}

#[test]
fn calls_and_waits_are_counted_per_message_and_per_wait() {
    let cluster = counter_cluster(2, 2, FaultConfig::reliable());
    cluster.call(GrainId::new("counter", 1), Msg::Get).unwrap();
    let calls = (0..7u64)
        .map(|k| (GrainId::new("counter", k), Msg::Get))
        .collect();
    cluster.call_all(calls);
    assert_eq!(cluster.counters().get("calls"), 8);
    assert_eq!(cluster.counters().get("waits"), 2);
}

#[test]
fn call_all_fails_a_killed_silos_slot_without_stalling_the_others() {
    let cluster = Arc::new(counter_cluster(2, 1, FaultConfig::reliable()));
    let blocker = grain_on(&cluster, 0, 0);
    let queued = grain_on(&cluster, 0, blocker.key + 1);
    let other = grain_on(&cluster, 1, 0);
    let gate = Arc::new(Barrier::new(2));
    let started = Instant::now();
    let caller = {
        let cluster = cluster.clone();
        let gate = gate.clone();
        std::thread::spawn(move || {
            cluster.call_all(vec![
                (blocker, Msg::Block(gate)),
                (queued, Msg::Add(1)),
                (other, Msg::Add(2)),
            ])
        })
    };
    // The caller's own thread runs the blocker's turn, before `queued`'s;
    // `queued` waits in its mailbox when the silo dies.
    gate.wait();
    cluster.kill_silo(0);
    gate.wait();
    let replies = caller.join().unwrap();
    assert_eq!(
        *replies[0].as_ref().unwrap(),
        0,
        "the running turn still answers"
    );
    assert_eq!(replies[1].as_ref().unwrap_err().label(), "unavailable");
    assert_eq!(*replies[2].as_ref().unwrap(), 2);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "no slot may wait out the 10 s call timeout"
    );
}

#[test]
fn call_all_times_out_an_unanswered_slot_and_still_drains() {
    let cluster = Arc::new(counter_cluster_with_timeout(
        1,
        1,
        FaultConfig::reliable(),
        Duration::from_millis(300),
    ));
    let fast = GrainId::new("counter", 1);
    let slow = GrainId::new("counter", 2);
    let gate = Arc::new(Barrier::new(2));
    // A second thread holds `slow` mid-turn, so the fan-out finds it
    // scheduled and its call waits in the mailbox.
    let holder = {
        let cluster = cluster.clone();
        let gate = gate.clone();
        std::thread::spawn(move || cluster.call(slow, Msg::Block(gate)))
    };
    gate.wait();
    let replies = cluster.call_all(vec![(fast, Msg::Add(4)), (slow, Msg::Add(1))]);
    assert_eq!(*replies[0].as_ref().unwrap(), 4);
    assert_eq!(replies[1].as_ref().unwrap_err().label(), "timeout");
    // Release the blocked turn: the queued call still runs, its late reply
    // is dropped, and the in-flight gauge still returns to zero.
    gate.wait();
    assert_eq!(holder.join().unwrap().unwrap(), 0);
    assert!(cluster.drain(Duration::from_secs(5)), "must quiesce");
    assert_eq!(cluster.call(slow, Msg::Get).unwrap(), 1);
}

#[test]
fn call_all_delivery_errors_fill_their_slot_and_the_gauge_returns_to_zero() {
    let cluster = counter_cluster(2, 2, FaultConfig::reliable());
    let mut calls: Vec<(GrainId, Msg)> = (0..50u64)
        .map(|k| {
            (
                GrainId::new("counter", k % 5),
                Msg::AddAndForward(1, GrainId::new("counter", 9)),
            )
        })
        .collect();
    calls.insert(10, (GrainId::new("nope", 1), Msg::Get));
    let replies = cluster.call_all(calls);
    assert_eq!(replies.len(), 51);
    assert_eq!(replies[10].as_ref().unwrap_err().label(), "not_found");
    assert!(replies
        .iter()
        .enumerate()
        .all(|(i, r)| i == 10 || r.is_ok()));
    assert!(
        cluster.drain(Duration::from_secs(5)),
        "in-flight gauge leaked"
    );
    assert_eq!(
        cluster.call(GrainId::new("counter", 9), Msg::Get).unwrap(),
        50
    );
}

#[test]
fn concurrent_fan_outs_keep_turns_isolated() {
    let cluster = Arc::new(counter_cluster(2, 4, FaultConfig::reliable()));
    let g = GrainId::new("counter", 1);
    let h = GrainId::new("counter", 2);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let cluster = cluster.clone();
            scope.spawn(move || {
                for _ in 0..100 {
                    for r in
                        cluster.call_all(vec![(g, Msg::Add(1)), (h, Msg::Add(1)), (g, Msg::Add(1))])
                    {
                        r.unwrap();
                    }
                }
            });
        }
    });
    assert_eq!(cluster.call(g, Msg::Get).unwrap(), 800);
    assert_eq!(cluster.call(h, Msg::Get).unwrap(), 400);
}

#[test]
fn a_call_to_an_idle_grain_runs_on_the_calling_thread() {
    let cluster = counter_cluster(2, 2, FaultConfig::reliable());
    for key in 0..8 {
        let seen = Arc::new(Mutex::new(None));
        cluster
            .call(GrainId::new("counter", key), Msg::WhoRuns(seen.clone()))
            .unwrap();
        assert_eq!(*seen.lock().unwrap(), Some(std::thread::current().id()));
    }
    assert_eq!(cluster.counters().get("waits"), 8);
    assert_eq!(cluster.counters().get("parks"), 0, "no call parked");
}

#[test]
fn events_a_caller_run_turn_emits_run_on_the_silo_workers() {
    let cluster = Arc::new(counter_cluster(1, 1, FaultConfig::reliable()));
    let source = GrainId::new("counter", 1);
    let target = GrainId::new("counter", 2);
    let gate = Arc::new(Barrier::new(2));
    // The target is busy on another thread, then receives the forwarded
    // event: if the event ran on the caller, the call would not return.
    let holder = {
        let cluster = cluster.clone();
        let gate = gate.clone();
        std::thread::spawn(move || cluster.call(target, Msg::Block(gate)))
    };
    gate.wait();
    let started = Instant::now();
    assert_eq!(
        cluster
            .call(source, Msg::AddAndForward(3, target))
            .unwrap(),
        3
    );
    assert!(started.elapsed() < Duration::from_secs(5));
    gate.wait();
    holder.join().unwrap().unwrap();
    assert!(cluster.drain(Duration::from_secs(5)));
    assert_eq!(cluster.call(target, Msg::Get).unwrap(), 3, "the event ran");

    // Nor does an event from an idle grain run on the thread that called.
    let seen = Arc::new(Mutex::new(None));
    cluster.notify(target, Msg::WhoRuns(seen.clone()));
    assert!(cluster.drain(Duration::from_secs(5)));
    let worker = seen.lock().unwrap().expect("the event ran");
    assert_ne!(worker, std::thread::current().id());
}

#[test]
fn callers_and_workers_never_enter_one_grain_twice() {
    let inside = Arc::new(AtomicBool::new(false));
    let cluster = Arc::new({
        let inside = inside.clone();
        Cluster::<Msg, Reply>::builder()
            .silos(2)
            .workers_per_silo(2)
            .register("counter", move |_id, _| {
                let inside = inside.clone();
                let mut value = 0u64;
                Box::new(move |_ctx: &mut GrainContext<'_, Msg>, msg: Msg, _| {
                    assert!(!inside.swap(true, Ordering::AcqRel), "turn entered twice");
                    if let Msg::Add(n) = msg {
                        value += n;
                    }
                    inside.store(false, Ordering::Release);
                    value
                })
            })
            .build()
    });
    let hot = GrainId::new("counter", 1);
    std::thread::scope(|scope| {
        for t in 0..8 {
            let cluster = cluster.clone();
            scope.spawn(move || {
                for i in 0..200 {
                    match (t + i) % 3 {
                        0 => {
                            cluster.call(hot, Msg::Add(1)).unwrap();
                        }
                        1 => {
                            for r in cluster.call_all(vec![(hot, Msg::Add(1)), (hot, Msg::Get)]) {
                                r.unwrap();
                            }
                        }
                        _ => cluster.notify(hot, Msg::Add(1)),
                    }
                }
            });
        }
    });
    assert!(cluster.drain(Duration::from_secs(10)));
    assert_eq!(cluster.call(hot, Msg::Get).unwrap(), 8 * 200);
}
