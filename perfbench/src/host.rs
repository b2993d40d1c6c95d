//! Host-speed correction for the timing metrics.
//!
//! The benchmark runs on a few cores of a shared host. Two kinds of
//! interference move its wall times by tens of percent between runs:
//!
//! - time when its threads are not running at all: the hypervisor running
//!   another guest (steal), or another runnable thread of the guest. Thread
//!   CPU time leaves both out, so every timing metric is CPU time:
//!   [`thread_cpu_s`] for the benchmark's own thread and [`server_cpu_s`]
//!   for the server's threads.
//! - neighbours that share the processor's caches and memory. These slow
//!   allocation- and memory-heavy code (compress, the VM's fill, corpus
//!   generation) and leave plain arithmetic almost untouched, and they
//!   change over seconds. [`Probe`] times a fixed allocation-heavy
//!   reference kernel, owned by the benchmark, between the stages' rounds.
//!   Each round's CPU time is then scaled by [`REFERENCE_S`] ÷ the probe
//!   time around it: the time the round would have taken on a host where
//!   the kernel takes [`REFERENCE_S`].
//!
//! A change to the code under test moves the rounds and not the probe, so
//! it shows in full; a change in the host's speed moves both.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU seconds the calling thread has run. Steal and run-queue waits are
/// not counted.
pub fn thread_cpu_s() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec, and the clock id is one
    // Linux always provides.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds run so far by the in-process server's threads: every
/// thread whose name starts with `codense-` (the reactor and the
/// workers), read from `/proc/self/task/*/schedstat`.
pub fn server_cpu_s() -> Result<f64, String> {
    let tasks = std::fs::read_dir("/proc/self/task").map_err(|e| format!("tasks: {e}"))?;
    let mut ns = 0u64;
    for task in tasks {
        let dir = task.map_err(|e| format!("tasks: {e}"))?.path();
        // A thread that ends between the listing and the reads is skipped.
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else { continue };
        if !comm.starts_with("codense-") {
            continue;
        }
        let Ok(stat) = std::fs::read_to_string(dir.join("schedstat")) else { continue };
        let on_cpu = stat.split_whitespace().next().and_then(|v| v.parse::<u64>().ok());
        ns += on_cpu.ok_or_else(|| format!("bad schedstat `{stat}`"))?;
    }
    Ok(ns as f64 * 1e-9)
}

/// CPU seconds the reference kernel took on the 2-CPU host the benchmark
/// was defined on, in a quiet stretch. Scaled times read as if the host
/// always ran at that speed.
pub const REFERENCE_S: f64 = 0.015;

/// Wall seconds between probes; a round longer than this is bracketed by
/// the probes just before and after it.
const PROBE_EVERY_S: f64 = 0.25;

/// The reference kernel: builds a hash map and an ordered map of
/// pseudo-random keys, the allocation and cache traffic the measured
/// stages are made of. Its code is the benchmark's own, so it stays the
/// same while the code under test changes.
fn reference_kernel() -> usize {
    let mut hash = HashMap::new();
    for k in 0..150_000u64 {
        *hash.entry(k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20).or_insert(0u64) += k;
    }
    let mut tree = BTreeMap::new();
    for k in 0..40_000u64 {
        tree.insert(k.wrapping_mul(0xD6E8_FEB8_6659_FD93), k);
    }
    hash.len() + tree.len()
}

/// One probe: when it ran (wall seconds since the probe's epoch) and the
/// reference kernel's CPU seconds.
struct Sample {
    start: f64,
    end: f64,
    cpu_s: f64,
}

/// Times the reference kernel through the run, and scales the rounds
/// measured between probes.
pub struct Probe {
    epoch: Instant,
    samples: Vec<Sample>,
}

impl Probe {
    /// A probe with its first sample taken.
    pub fn new() -> Probe {
        let mut p = Probe { epoch: Instant::now(), samples: Vec::new() };
        p.sample();
        p
    }

    /// Wall seconds since the probe was made.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Runs the reference kernel once and records its CPU time.
    pub fn sample(&mut self) {
        let start = self.now();
        let cpu = thread_cpu_s();
        std::hint::black_box(reference_kernel());
        let cpu_s = thread_cpu_s() - cpu;
        self.samples.push(Sample { start, end: self.now(), cpu_s });
    }

    /// Samples if [`PROBE_EVERY_S`] has passed since the last sample.
    pub fn sample_if_due(&mut self) {
        if self.samples.last().is_none_or(|s| self.now() - s.end >= PROBE_EVERY_S) {
            self.sample();
        }
    }

    /// The factor that scales CPU time measured between wall times `t0`
    /// and `t1` to the reference speed: [`REFERENCE_S`] ÷ the mean of the
    /// last probe before `t0` and the first after `t1`. Take a sample after
    /// the last round before asking.
    pub fn scale(&self, t0: f64, t1: f64) -> f64 {
        let before = self.samples.iter().rev().find(|s| s.end <= t0);
        let after = self.samples.iter().find(|s| s.start >= t1);
        let near: Vec<f64> = [before, after].into_iter().flatten().map(|s| s.cpu_s).collect();
        if near.is_empty() {
            return f64::NAN;
        }
        REFERENCE_S * near.len() as f64 / near.iter().sum::<f64>()
    }

    /// Every probe's CPU seconds.
    pub fn times(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.cpu_s).collect()
    }
}
