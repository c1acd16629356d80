//! Failure-mode tests for the actor runtime: silo restarts mid-traffic,
//! directory re-placement, at-most-once event semantics under combined
//! drop+duplicate faults, and panicking grain handlers.

use om_actor::{Cluster, FaultConfig, GrainContext, GrainId};
use std::sync::Arc;
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
        .register("c", |_id, snapshot| {
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
        })
        .build()
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
