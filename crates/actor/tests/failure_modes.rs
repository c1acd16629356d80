//! Failure-mode tests for the actor runtime: silo restarts mid-traffic,
//! re-placement after a kill, the one-activation rule when a kill races
//! an activation, at-most-once event semantics under combined
//! drop+duplicate faults, and panicking grain handlers.

use om_actor::{Cluster, FaultConfig, Grain, GrainContext, GrainId};
use om_common::rng::SplitMix64;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
enum Msg {
    IncrPersist,
    Get,
    Fanout(u64, u64), // (count, target_base)
    /// Counts without persisting, then panics.
    IncrAndPanic,
}

fn cluster(silos: usize, faults: FaultConfig) -> Cluster<Msg, u64> {
    cluster_with(silos, 2, faults, Duration::from_secs(10))
}

fn cluster_with(
    silos: usize,
    workers: usize,
    faults: FaultConfig,
    call_timeout: Duration,
) -> Cluster<Msg, u64> {
    Cluster::builder()
        .silos(silos)
        .workers(workers)
        .faults(faults)
        .call_timeout(call_timeout)
        .register("c", |_id, snapshot| counter(snapshot))
        .build()
}

/// A `c` grain: a counter that `IncrPersist` persists.
fn counter(snapshot: Option<Vec<u8>>) -> Box<dyn Grain<Msg, u64>> {
    let mut value: u64 = snapshot
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
        .unwrap_or(0);
    Box::new(move |ctx: &mut GrainContext<'_, Msg>, msg: Msg, _| match msg {
        Msg::IncrPersist => {
            value += 1;
            ctx.persist(value.to_le_bytes().to_vec());
            value
        }
        Msg::Get => value,
        Msg::Fanout(count, base) => {
            for i in 0..count {
                ctx.send(GrainId::new("c", base + i), Msg::IncrPersist);
            }
            count
        }
        Msg::IncrAndPanic => {
            value += 1;
            panic!("grain handler bug on {}", ctx.id());
        }
    })
}

#[test]
fn silo_kill_mid_traffic_preserves_persisted_state() {
    let c = Arc::new(cluster(3, FaultConfig::reliable()));
    // Writers hammer 30 grains while a chaos thread kills and restarts
    // silos. Calls may fail transiently (Unavailable/Timeout); persisted
    // state must never regress.
    let writers: Vec<_> = (0..3)
        .map(|w| {
            let c = c.clone();
            std::thread::spawn(move || {
                let mut acks = [0u64; 10];
                for round in 0..30 {
                    let k = w * 10 + round % 10;
                    if let Ok(v) = c.call(GrainId::new("c", k as u64), Msg::IncrPersist) {
                        let slot = (k % 10) as usize;
                        assert!(v > acks[slot], "persisted counter regressed on c/{k}");
                        acks[slot] = v;
                    }
                }
            })
        })
        .collect();
    for round in 0..3 {
        std::thread::sleep(Duration::from_millis(5));
        c.kill_silo(round % 3);
        std::thread::sleep(Duration::from_millis(5));
        c.restart_silo(round % 3);
    }
    for w in writers {
        w.join().unwrap();
    }
}

#[test]
fn all_grains_reachable_after_full_rolling_restart() {
    let c = cluster(2, FaultConfig::reliable());
    for k in 0..20u64 {
        c.call(GrainId::new("c", k), Msg::IncrPersist).unwrap();
    }
    c.drain(Duration::from_secs(5));
    c.kill_silo(0);
    c.kill_silo(1);
    c.restart_silo(0);
    c.restart_silo(1);
    for k in 0..20u64 {
        assert_eq!(
            c.call(GrainId::new("c", k), Msg::Get).unwrap(),
            1,
            "grain {k} lost persisted state across rolling restart"
        );
    }
}

/// The `c` grains from key `from` up that activate on `silo`, found by
/// calling each and watching the per-silo activation counts.
fn grains_on(c: &Cluster<Msg, u64>, silo: usize, from: u64) -> impl Iterator<Item = GrainId> + '_ {
    (from..)
        .map(|key| GrainId::new("c", key))
        .filter(move |&id| {
            let before = c.activation_counts()[silo];
            c.call(id, Msg::Get).unwrap();
            c.activation_counts()[silo] > before
        })
}

#[test]
fn a_kill_during_an_activation_on_its_silo_leaves_one_activation() {
    // Building the grain whose key is armed (once) parks its activation
    // on the gate twice: once to say it is parked, once to be let go.
    const UNARMED: u64 = u64::MAX;
    let armed = Arc::new(AtomicU64::new(UNARMED));
    let gate = Arc::new(Barrier::new(2));
    let c = Arc::new({
        let (armed, gate) = (armed.clone(), gate.clone());
        Cluster::builder()
            .silos(2)
            .workers(2)
            .call_timeout(Duration::from_millis(500))
            .register("c", move |id: GrainId, snapshot| {
                let fire =
                    armed.compare_exchange(id.key, UNARMED, Ordering::SeqCst, Ordering::SeqCst);
                if fire.is_ok() {
                    gate.wait();
                    gate.wait();
                }
                counter(snapshot)
            })
            .build()
    });
    let mut on_0 = grains_on(&c, 0, 0);
    let (g, h) = (on_0.next().unwrap(), on_0.next().unwrap());
    drop(on_0);
    for _ in 0..3 {
        c.call(g, Msg::IncrPersist).unwrap();
    }
    for silo in 0..2 {
        c.kill_silo(silo);
        c.restart_silo(silo);
    }
    assert_eq!(c.activation_counts(), vec![0, 0]);

    armed.store(h.key, Ordering::SeqCst);
    let a = {
        let c = c.clone();
        std::thread::spawn(move || c.call(h, Msg::Get))
    };
    gate.wait(); // A is inside h's activation, on silo 0
    let b = {
        let c = c.clone();
        std::thread::spawn(move || c.call(g, Msg::Get))
    };
    std::thread::sleep(Duration::from_millis(50));
    let killer = {
        let c = c.clone();
        std::thread::spawn(move || c.kill_silo(0))
    };
    std::thread::sleep(Duration::from_millis(50));
    gate.wait(); // let A install h
    killer.join().unwrap();
    let _ = a.join().unwrap(); // h's call may lose its silo
    assert_eq!(
        b.join().unwrap().unwrap(),
        3,
        "g answers its persisted value"
    );
    assert_eq!(
        c.activation_counts().iter().sum::<usize>(),
        1,
        "g's one activation, and nothing left on the killed silo: {:?}",
        c.activation_counts()
    );
    c.restart_silo(0);
    c.kill_silo(1);
    let started = Instant::now();
    assert_eq!(c.call(g, Msg::Get).unwrap(), 3, "g re-placed from storage");
    assert!(started.elapsed() < Duration::from_millis(500));
}

#[test]
fn silo_kills_under_traffic_keep_one_activation_per_grain() {
    const GRAINS: u64 = 64;
    const ROUNDS: u64 = 300;
    let c = Arc::new(cluster_with(
        2,
        2,
        FaultConfig::reliable(),
        Duration::from_millis(200),
    ));
    let grain = |k: u64| GrainId::new("c", k);
    // The highest value each grain has acknowledged to any caller.
    let acked: Arc<Vec<AtomicU64>> = Arc::new((0..GRAINS).map(|_| AtomicU64::new(0)).collect());
    let check = |k: u64, v: u64, what: &str| {
        let floor = acked[k as usize].fetch_max(v, Ordering::SeqCst);
        assert!(
            v >= floor,
            "{what}: c/{k} answered {v} after acknowledging {floor}"
        );
    };
    for round in 0..ROUNDS {
        let calls = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let callers: Vec<_> = (0..3)
            .map(|caller| {
                let (c, acked, calls, stop) =
                    (c.clone(), acked.clone(), calls.clone(), stop.clone());
                std::thread::spawn(move || {
                    let mut rng = SplitMix64::new(round * 3 + caller);
                    while !stop.load(Ordering::Relaxed) {
                        let k = rng.next_bounded(GRAINS);
                        let floor = acked[k as usize].load(Ordering::SeqCst);
                        // A call may fail while a silo is down; an answer
                        // never goes back on an acknowledged value.
                        if let Ok(v) = c.call(GrainId::new("c", k), Msg::IncrPersist) {
                            assert!(v > floor, "c/{k} answered {v} after acknowledging {floor}");
                            acked[k as usize].fetch_max(v, Ordering::SeqCst);
                        }
                        calls.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        // A caller that failed its check stops; its join reports it.
        let wait_for = |n: u64| {
            while calls.load(Ordering::SeqCst) < n && !callers.iter().any(|t| t.is_finished()) {
                std::thread::yield_now();
            }
        };
        wait_for(20);
        c.kill_silo(0);
        wait_for(40);
        c.restart_silo(0);
        wait_for(60);
        stop.store(true, Ordering::Relaxed);
        for caller in callers {
            caller.join().unwrap();
        }
        for k in 0..GRAINS {
            let v = c.call(grain(k), Msg::Get).unwrap();
            check(k, v, "after the restart");
        }
        assert_eq!(
            c.activation_counts().iter().sum::<usize>(),
            GRAINS as usize,
            "round {round}: one activation per grain"
        );
        c.kill_silo(1);
        for k in 0..GRAINS {
            let v = c
                .call(grain(k), Msg::Get)
                .unwrap_or_else(|e| panic!("round {round}: c/{k} with silo 1 down: {e}"));
            check(k, v, "with silo 1 down");
        }
        c.restart_silo(1);
    }
}

#[test]
fn combined_drop_and_duplicate_faults_bound_delivery() {
    // With both drop and duplicate probabilities, delivered increments per
    // fanout land in (0, 2n); exact counts are impossible — that is the
    // point of at-most/at-least-once messaging.
    let c = cluster(1, FaultConfig::lossy(0.2, 0.2, 7));
    const FANOUTS: u64 = 50;
    const TARGETS: u64 = 10;
    for _ in 0..FANOUTS {
        c.notify(GrainId::new("c", 0), Msg::Fanout(TARGETS, 100));
    }
    assert!(c.drain(Duration::from_secs(10)));
    let mut total = 0;
    for i in 0..TARGETS {
        total += c.call(GrainId::new("c", 100 + i), Msg::Get).unwrap();
    }
    let expected = FANOUTS * TARGETS;
    assert!(total > 0, "everything dropped is implausible");
    assert_ne!(total, expected, "faults must distort delivery (w.h.p.)");
    assert!(
        total < expected * 2,
        "duplicates cannot more than double deliveries"
    );
    let counters = c.counters();
    assert!(counters.get("events_dropped") > 0);
    assert!(counters.get("events_duplicated") > 0);
}

#[test]
fn drain_reports_timeout_when_traffic_never_stops() {
    let c = Arc::new(cluster(1, FaultConfig::reliable()));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let flooder = {
        let c = c.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                c.notify(GrainId::new("c", 1), Msg::IncrPersist);
                std::thread::sleep(Duration::from_micros(100));
            }
        })
    };
    // Under sustained traffic a tiny drain window usually cannot reach
    // quiescence; the call must return (false) rather than hang.
    let _ = c.drain(Duration::from_millis(20));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    flooder.join().unwrap();
    assert!(c.drain(Duration::from_secs(5)), "quiesces once traffic stops");
}

/// One silo with one worker: a panic that killed the worker, or left the
/// grain scheduled, would time the next calls out.
fn one_worker_silo() -> Cluster<Msg, u64> {
    cluster_with(1, 1, FaultConfig::reliable(), Duration::from_millis(300))
}

/// After `victim` panicked: the silo still serves another grain, and the
/// victim answers again from storage (its volatile count is gone).
fn silo_survives_a_panic(c: &Cluster<Msg, u64>, victim: GrainId) {
    let started = Instant::now();
    assert_eq!(c.call(GrainId::new("c", 2), Msg::IncrPersist).unwrap(), 1);
    c.notify(GrainId::new("c", 3), Msg::IncrPersist);
    assert!(c.drain(Duration::from_secs(5)), "must quiesce");
    assert_eq!(c.call(GrainId::new("c", 3), Msg::Get).unwrap(), 1);
    assert_eq!(c.call(victim, Msg::Get).unwrap(), 1, "reactivated from storage");
    assert_eq!(c.call(victim, Msg::IncrPersist).unwrap(), 2);
    assert!(
        started.elapsed() < Duration::from_millis(300),
        "no call may wait out the call timeout"
    );
}

#[test]
fn a_panicking_call_fails_unavailable_and_its_silo_keeps_serving() {
    let c = one_worker_silo();
    let victim = GrainId::new("c", 1);
    c.call(victim, Msg::IncrPersist).unwrap();
    let started = Instant::now();
    let err = c.call(victim, Msg::IncrAndPanic).unwrap_err();
    assert_eq!(err.label(), "unavailable");
    assert!(started.elapsed() < Duration::from_millis(300));
    // Calls queued behind the panic in the same fan-out fail too.
    let replies = c.call_all(vec![(victim, Msg::IncrAndPanic), (victim, Msg::Get)]);
    assert!(replies.iter().all(|r| r.as_ref().unwrap_err().label() == "unavailable"));
    assert_eq!(c.counters().get("grain_panics"), 2, "one per panicked turn");
    silo_survives_a_panic(&c, victim);
}

#[test]
fn a_panicking_event_leaves_the_silo_worker_alive() {
    let c = one_worker_silo();
    let victim = GrainId::new("c", 1);
    c.call(victim, Msg::IncrPersist).unwrap();
    // The event runs on the silo's only worker.
    c.notify(victim, Msg::IncrAndPanic);
    assert!(c.drain(Duration::from_secs(5)), "must quiesce");
    // No caller hears of an event's panic; the counter does.
    assert_eq!(c.counters().get("grain_panics"), 1);
    silo_survives_a_panic(&c, victim);
}
