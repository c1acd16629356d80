//! Where a cell's threads execute: the system under test on one core,
//! the load generator on another.
//!
//! Left to the scheduler on the 2-vCPU reference VM, the same seed
//! measured a checkout p50 of 0.46 / 1.55 / 1.65 / 1.77 / 0.59 / 2.02 ms
//! in six consecutive runs and a closed-loop peak between 2.3k and 5.1k
//! req/s. Every request crosses threads several times; where each woken
//! thread lands, and whether the vCPU it lands on had halted, feeds back
//! on itself for the rest of the run.
//!
//! So a cell takes placement away from chance ([`Placement::Split`]):
//! everything the system under test spawns inherits one core (the
//! building thread is pinned before the platform is built) and the client
//! threads pin themselves to another. Pinned this way the same six runs
//! read 0.46 to 0.50 ms, and the system is as fast on its one core as it
//! was on two.
//!
//! The price: **the system under test has one core**. Its workers, actors
//! and epoch threads interleave but never run at the same instant, so no
//! end-to-end metric can show a change that only helps or hurts when they
//! do (lock contention, false sharing, a serialised section). The traced
//! run therefore measures the closed-loop peak both ways,
//! `process.peak_rps_1core` and `process.peak_rps_2core`
//! ([`Placement::Shared`]: system and clients on every allowed core).
//!
//! Neither core is kept from idling. A low-priority spinner on the
//! clients' core spares them a wake-up per response, but with both vCPUs
//! always busy the host ran the system's core a third slower for seconds
//! at a time (31 % of 80 cells at ≈5.2k req/s against ≈7.5k; 4 % without
//! the spinner); one on the system's own core stalls `fdatasync` on the
//! disk workload for seconds and takes whole time slices from the
//! system's threads.

use std::sync::OnceLock;

/// Linux's `cpu_set_t`: one bit per CPU, 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// CPUs this process was allowed when it first asked.
fn allowed_cpus() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(|| {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: `mask` is a live, writable `cpu_set_t` of the size
        // passed; pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } != 0 {
            return Vec::new();
        }
        (0..1024)
            .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    })
}

/// Lets the calling thread, and every thread it spawns from now on, run
/// on `cpus` only; whether that took.
fn run_on(cpus: &[usize]) -> bool {
    let mut mask: CpuSet = [0; 16];
    for cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live `cpu_set_t` of the size passed; pid 0 names
    // the calling thread, and the call changes only where it may run.
    !cpus.is_empty() && unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) == 0 }
}

/// How a cell's threads are placed.
#[derive(Clone, Copy, PartialEq)]
pub enum Placement {
    /// The system under test on the first allowed core, the clients on
    /// the last: every measured cell.
    Split,
    /// System and clients on every allowed core, left to the scheduler:
    /// the traced run's two-core comparison only.
    Shared,
}

impl Placement {
    /// Places the calling thread, which goes on to build the system under
    /// test, and returns the core the client threads pin themselves to.
    /// `None` where nothing is pinned: [`Placement::Shared`], one core,
    /// or pinning refused.
    pub fn apply(self) -> Option<usize> {
        let cpus = allowed_cpus();
        match (self, cpus.first(), cpus.last()) {
            (Placement::Split, Some(&system), Some(&clients))
                if system != clients && run_on(&[system]) =>
            {
                Some(clients)
            }
            _ => {
                run_on(cpus);
                None
            }
        }
    }
}

/// Pins the calling client thread to the clients' core.
pub fn pin_client(core: usize) {
    run_on(&[core]);
}
