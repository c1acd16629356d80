//! Crash-consistency torture for the **combined durable stack**: one
//! workload writing through a [`FileBackend`] (WAL + snapshots) *and* a
//! [`PersistentTopic`] (segmented log) over a single
//! recording [`FaultVfs`], so the op log interleaves every byte both
//! stores put on disk. Power loss is then simulated at **every**
//! recorded write boundary ([`CrashImage`]) and both stores recover
//! from the image:
//!
//! * the backend's state must be a prefix of the acked commits, at
//!   least as long as the sync-acked floor below the boundary;
//! * the topic's records must be exactly the payload prefix `1..=n`,
//!   with `n` at least the acked floor — never a gap, duplicate, or
//!   torn frame;
//! * the two floors are **independent** — losing unsynced topic tail
//!   bytes must never cost backend commits, and vice versa.
//!
//! The default run is the CI torture slice; `OM_TORTURE_FULL=1` widens
//! the workload and seed set, and `OM_TORTURE_SEED=<n>` replays a
//! failure. Assertions carry their `seed/boundary` coordinates.

use om_log::{EventLog, PersistentTopic, PersistentTopicOptions, SerdeCodec};
use om_storage::vfs::{CrashImage, FaultVfs, Vfs};
use om_storage::{FileBackend, FileBackendOptions, StateBackend, WriteBatch};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn full_sweep() -> bool {
    std::env::var_os("OM_TORTURE_FULL").is_some()
}

fn torture_seed() -> u64 {
    std::env::var("OM_TORTURE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x70_1C_00)
}

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "om-log-torture-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct DirGuard(PathBuf);
impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn backend_options() -> FileBackendOptions {
    FileBackendOptions {
        snapshot_every: 5,
        segment_bytes: 512,
        sync_commits: true,
        compact_max_deltas: 2,
        compact_ratio_pct: 100,
    }
}

fn topic_options() -> PersistentTopicOptions {
    PersistentTopicOptions {
        segment_bytes: 256,
        sync_appends: true,
        ..PersistentTopicOptions::default()
    }
}

fn try_open_topic(
    dir: &std::path::Path,
    vfs: Arc<dyn Vfs>,
) -> om_common::OmResult<PersistentTopic<u64>> {
    PersistentTopic::open_with_vfs(dir, "orders", 1, Arc::new(SerdeCodec), topic_options(), vfs)
}

fn open_topic(dir: &std::path::Path, vfs: Arc<dyn Vfs>) -> PersistentTopic<u64> {
    try_open_topic(dir, vfs).expect("topic opens")
}

/// The WAL + snapshot + topic workload of the acceptance criterion:
/// interleaved backend commits and topic appends over one recorded op
/// stream, power loss at every boundary, both stores recovered and
/// checked against their independent acked floors.
#[test]
fn power_loss_at_every_boundary_recovers_backend_and_topic_prefixes() {
    let records = if full_sweep() { 28u64 } else { 12 };
    let seeds: Vec<u64> = {
        let n = if full_sweep() { 5 } else { 2 };
        (0..n).map(|i| torture_seed().wrapping_add(i)).collect()
    };
    let root = scratch("combined");
    let _g = DirGuard(root.clone());
    let store_dir = root.join("store");
    let topic_dir = root.join("topic");
    std::fs::create_dir_all(&store_dir).unwrap();
    let vfs = FaultVfs::new(torture_seed()).recording();
    let shared: Arc<dyn Vfs> = Arc::new(vfs.clone());

    // Workload: commit k to the backend, append k to the topic, record
    // each ack's op-log position.
    let mut backend_acks: Vec<(u64, usize)> = Vec::new();
    let mut topic_acks: Vec<(u64, usize)> = Vec::new();
    {
        let backend =
            FileBackend::open_with_vfs(&store_dir, backend_options(), shared.clone()).unwrap();
        let topic = open_topic(&topic_dir, shared.clone());
        for k in 1..=records {
            backend
                .commit(
                    WriteBatch::new()
                        .put(format!("order/{k}"), format!("placed-{k}"))
                        .put(&b"seq"[..], k.to_le_bytes().to_vec()),
                )
                .unwrap();
            backend_acks.push((k, vfs.log_len()));
            topic.append_raw(0, 1, k, k).unwrap();
            topic_acks.push((k, vfs.log_len()));
        }
    }
    let log = vfs.take_log();
    eprintln!(
        "torture[combined]: {} ops x {} seeds (base seed {:#x}; OM_TORTURE_SEED replays, \
         OM_TORTURE_FULL=1 widens)",
        log.len(),
        seeds.len(),
        torture_seed()
    );

    for boundary in 0..=log.len() {
        for &seed in &seeds {
            let ctx = format!("seed={seed:#x} boundary={boundary}/{}", log.len());
            let out = scratch("img");
            let _og = DirGuard(out.clone());
            CrashImage::materialize(&log, boundary, seed, &root, &out)
                .unwrap_or_else(|e| panic!("{ctx}: materialize failed: {e}"));
            std::fs::create_dir_all(out.join("store")).unwrap();
            std::fs::create_dir_all(out.join("topic")).unwrap();

            // Backend half: a clean acked prefix, no torn value.
            let backend = FileBackend::open(out.join("store"), backend_options())
                .unwrap_or_else(|e| panic!("{ctx}: backend image must recover: {e}"));
            let j = backend
                .get(b"seq")
                .map(|v| u64::from_le_bytes(v[..8].try_into().unwrap()))
                .unwrap_or(0);
            assert!(j <= records, "{ctx}: backend invented commits");
            for k in 1..=records {
                let got = backend.get(format!("order/{k}").as_bytes());
                if k <= j {
                    assert_eq!(
                        got.as_deref(),
                        Some(format!("placed-{k}").as_bytes()),
                        "{ctx}: commit {k} missing from the recovered prefix {j}"
                    );
                } else {
                    assert_eq!(got, None, "{ctx}: commit {k} beyond the marker {j} is visible");
                }
            }
            let backend_floor = backend_acks
                .iter()
                .filter(|(_, at)| *at <= boundary)
                .map(|(k, _)| *k)
                .max()
                .unwrap_or(0);
            assert!(
                j >= backend_floor,
                "{ctx}: backend lost acked commit — prefix {j} < floor {backend_floor}"
            );
            drop(backend);

            // Topic half: exactly the payload prefix, at least the floor.
            // A cold open replays the segments; reads come from what the
            // replay rebuilt.
            let topic = try_open_topic(&out.join("topic"), om_storage::real_vfs())
                .unwrap_or_else(|e| panic!("{ctx}: topic image must replay: {e}"));
            let entries = topic.read_from(0, 0, records as usize + 4);
            let n = entries.len() as u64;
            assert!(n <= records, "{ctx}: topic invented records");
            for (i, entry) in entries.iter().enumerate() {
                assert_eq!(
                    (entry.offset, entry.seq, entry.payload),
                    (i as u64, i as u64 + 1, i as u64 + 1),
                    "{ctx}: topic records must be the dense prefix"
                );
            }
            let topic_floor = topic_acks
                .iter()
                .filter(|(_, at)| *at <= boundary)
                .map(|(k, _)| *k)
                .max()
                .unwrap_or(0);
            assert!(
                n >= topic_floor,
                "{ctx}: topic lost acked record — recovered {n} < floor {topic_floor}"
            );
        }
    }
}

/// Four producers race appends to one partition while the `n`th fsync
/// fails, for each of the first twenty flushes. The topic must wedge
/// cleanly: `unwedge` verifies the kept prefix, and a cold reopen reads
/// every acknowledged `(producer, seq)` back at the offset its append
/// returned.
#[test]
fn concurrent_appenders_never_ack_past_a_failed_fsync() {
    const PRODUCERS: u64 = 4;
    const RECORDS: u64 = 24;
    for n in 1..=20u64 {
        let root = scratch("ack-wedge");
        let _g = DirGuard(root.clone());
        let vfs = FaultVfs::new(torture_seed().wrapping_add(n));
        // One segment holds every record: each fsync after the open's
        // (the segment's zero fill) is a cohort's. Clones share one
        // fault schedule.
        let topic: PersistentTopic<u64> = PersistentTopic::open_with_vfs(
            &root,
            "orders",
            1,
            Arc::new(SerdeCodec),
            PersistentTopicOptions {
                segment_bytes: 1 << 16,
                ..topic_options()
            },
            Arc::new(vfs.clone()),
        )
        .unwrap();
        let _ = vfs.clone().fail_nth_sync(vfs.syncs_seen() + n);
        let (mut acked, mut wedged) = (Vec::new(), Vec::new());
        std::thread::scope(|s| {
            let producers: Vec<_> = (1..=PRODUCERS)
                .map(|producer| {
                    let topic = &topic;
                    s.spawn(move || {
                        let (mut acked, mut wedged) = (Vec::new(), Vec::new());
                        for seq in 1..=RECORDS {
                            match topic.append_raw(0, producer, seq, producer * 1_000 + seq) {
                                Ok(offset) => acked.push((producer, seq, offset)),
                                Err(e) if e.label() == "wedged" => {
                                    wedged.push((producer, seq));
                                    break;
                                }
                                Err(e) => {
                                    panic!("n={n}: append {producer}/{seq} failed untyped: {e}")
                                }
                            }
                        }
                        (acked, wedged)
                    })
                })
                .collect();
            for producer in producers {
                let (a, w) = producer.join().unwrap();
                acked.extend(a);
                wedged.extend(w);
            }
        });
        assert!(
            vfs.fired().iter().any(|f| f == "fsync failure"),
            "n={n}: the scheduled fsync failure never fired"
        );
        assert!(
            !wedged.is_empty(),
            "n={n}: the failed fsync must fail some append"
        );
        topic
            .unwedge()
            .unwrap_or_else(|e| panic!("n={n}: unwedge must verify the kept prefix: {e}"));
        drop(topic);
        let reborn = try_open_topic(&root, om_storage::real_vfs())
            .unwrap_or_else(|e| panic!("n={n}: repaired topic must replay: {e}"));
        let entries = reborn.read_from(0, 0, usize::MAX);
        for &(producer, seq, offset) in &acked {
            let entry = entries
                .get(offset as usize)
                .unwrap_or_else(|| panic!("n={n}: acked {producer}/{seq} at {offset} lost"));
            assert_eq!(
                (entry.offset, entry.producer, entry.seq, entry.payload),
                (offset, producer, seq, producer * 1_000 + seq),
                "n={n}: acked {producer}/{seq} read back at another offset"
            );
        }
        assert!(
            entries.len() <= acked.len() + wedged.len(),
            "n={n}: recovery invented records"
        );
    }
}
