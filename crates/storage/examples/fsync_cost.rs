//! What a WAL commit's write and `fdatasync` cost when the write grows
//! the file against when it overwrites blocks a pre-allocated,
//! zero-filled file already owns — the mechanism behind `SegmentLog`'s
//! full-size segments.
//!
//! Every mode writes 1 500 records of 2.2 KiB through [`RealVfs`] and
//! syncs each; an unsynced side file takes the same bytes before every
//! record, as the ingress log does beside the state WAL, and is laid out
//! like the WAL. `append` opens both files with `open_append`. The two
//! in-place modes create them full-size (zeros; for the WAL then
//! `sync_data`, rename, directory sync) and write them through
//! `open_write`: `in-place/1` writes the zeros in one call,
//! `in-place/64k` in 64 KiB calls as `SegmentLog` does. The modes
//! alternate over two rounds in a fresh directory under the system temp
//! dir.
//!
//! ```text
//! cargo run --release --offline -p om_storage --example fsync_cost
//! ```
//!
//! It prints one line per round and mode: the WAL record write's p50
//! and `fdatasync`'s p50 and p99, in µs. The numbers are the host's: on
//! ext4 with `data=ordered`, an append's `fdatasync` also commits the
//! journal for the new size, and a file zero-filled in one call can sit
//! in large page-cache folios that a small write walks and an
//! `fdatasync` writes back whole.

use om_storage::vfs::{RealVfs, Vfs, VfsFile};
use std::path::Path;
use std::time::Instant;

const RECORDS: usize = 1_500;
const RECORD_BYTES: usize = 2_250;

/// Creates `path` holding `RECORDS * RECORD_BYTES` zeros, written
/// `chunk` bytes at a time, and opens it at its first byte; `sync`
/// makes size and name durable first.
fn pre_allocated(
    vfs: &RealVfs,
    dir: &Path,
    name: &str,
    chunk: usize,
    sync: bool,
) -> std::io::Result<Box<dyn VfsFile>> {
    let (tmp, path) = (dir.join(format!("{name}.tmp")), dir.join(name));
    let mut file = vfs.create(&tmp)?;
    for zeros in vec![0; RECORDS * RECORD_BYTES].chunks(chunk) {
        file.write_all(zeros)?;
    }
    if sync {
        file.sync_data()?;
    }
    drop(file);
    vfs.rename(&tmp, &path)?;
    if sync {
        vfs.dir_sync(dir)?;
    }
    vfs.open_write(&path)
}

/// Per-record WAL write and `fdatasync` latencies in µs; `chunk` is
/// `None` for appending files.
fn run(dir: &Path, chunk: Option<usize>) -> std::io::Result<(Vec<f64>, Vec<f64>)> {
    let vfs = RealVfs;
    std::fs::create_dir_all(dir)?;
    let (mut side, mut log) = match chunk {
        Some(chunk) => (
            pre_allocated(&vfs, dir, "side.log", chunk, false)?,
            pre_allocated(&vfs, dir, "wal.log", chunk, true)?,
        ),
        None => {
            let side = vfs.open_append(&dir.join("side.log"))?;
            let log = vfs.open_append(&dir.join("wal.log"))?;
            vfs.dir_sync(dir)?;
            (side, log)
        }
    };
    let record: Vec<u8> = (0..RECORD_BYTES).map(|i| (i % 251) as u8 + 1).collect();
    let (mut writes, mut syncs) = (Vec::new(), Vec::new());
    for _ in 0..RECORDS {
        side.write_all(&record)?;
        let start = Instant::now();
        log.write_all(&record)?;
        let written = Instant::now();
        log.sync_data()?;
        writes.push((written - start).as_secs_f64() * 1e6);
        syncs.push(written.elapsed().as_secs_f64() * 1e6);
    }
    Ok((writes, syncs))
}

fn quantile(samples: &mut [f64], q: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[((samples.len() - 1) as f64 * q).round() as usize]
}

fn main() -> std::io::Result<()> {
    let root = std::env::temp_dir().join(format!("om-fsync-cost-{}", std::process::id()));
    let modes = [
        ("append", None),
        ("in-place/1", Some(usize::MAX)),
        ("in-place/64k", Some(64 << 10)),
    ];
    for round in 1..=2 {
        for (mode, chunk) in modes {
            let dir = root.join(format!("{}-{round}", mode.replace('/', "-")));
            let result = run(&dir, chunk);
            std::fs::remove_dir_all(&dir)?;
            let (mut writes, mut syncs) = result?;
            println!(
                "round {round} {mode:<12} write p50 {:5.1} us  fdatasync p50 {:6.1} us  p99 {:6.1} us",
                quantile(&mut writes, 0.5),
                quantile(&mut syncs, 0.5),
                quantile(&mut syncs, 0.99),
            );
        }
    }
    std::fs::remove_dir_all(&root)
}
