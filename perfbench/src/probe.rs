//! Measurements taken from outside the program: per-thread and process
//! CPU time, peak RSS and host steal from `/proc`, a reference CPU loop,
//! and percentiles over raw samples.

use std::collections::BTreeSet;
use std::fs;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Linux reports `/proc` CPU times in USER_HZ ticks, 100 per second on
/// every architecture this workspace builds for.
const TICK_US: f64 = 10_000.0;

/// User + system ticks from a `/proc/.../stat` line. Fields are counted
/// after the closing parenthesis of the command name, which may itself
/// hold spaces or parentheses.
fn stat_ticks(path: &str) -> Option<u64> {
    let text = fs::read_to_string(path).ok()?;
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')': state is field 3, utime 14 and stime 15 (1-based).
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// CPU time (user + system) the whole process has used, in µs,
/// including threads that have already exited.
pub fn process_cpu_us() -> f64 {
    stat_ticks("/proc/self/stat").unwrap_or(0) as f64 * TICK_US
}

/// CPU time of one thread of this process, in µs; 0 once it is gone.
pub fn thread_cpu_us(tid: u32) -> f64 {
    stat_ticks(&format!("/proc/self/task/{tid}/stat")).unwrap_or(0) as f64 * TICK_US
}

/// The calling thread's id.
pub fn current_tid() -> u32 {
    fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .expect("/proc/thread-self names the calling thread")
}

/// Ids of every live thread of this process.
pub fn tasks() -> BTreeSet<u32> {
    fs::read_dir("/proc/self/task")
        .expect("/proc/self/task is readable")
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .collect()
}

/// The name the kernel holds for thread `tid`.
pub fn thread_name(tid: u32) -> String {
    fs::read_to_string(format!("/proc/self/task/{tid}/comm"))
        .map(|s| s.trim_end().to_string())
        .unwrap_or_default()
}

/// Runs `start` and returns what it built plus the threads it spawned.
pub fn spawned_by<T>(start: impl FnOnce() -> T) -> (T, Vec<u32>) {
    let before = tasks();
    let built = start();
    let after = tasks();
    (built, after.difference(&before).copied().collect())
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))?
                .split_whitespace()
                .nth(1)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Host steal time summed over all CPUs, in ms.
pub fn steal_ms() -> f64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<u64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks as f64 * TICK_US / 1000.0)
}

/// One pass of a fixed integer loop, in ms. It touches no memory, so
/// its time tracks only how fast the host lets this vCPU run.
pub fn cpu_ref_ms() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x2545_f491_4f6c_dd1du64);
    for _ in 0..black_box(4_000_000u32) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0..=100) of sorted samples.
pub fn percentile(sorted: &[u32], p: f64) -> u32 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Latency summary of raw per-operation samples, in ns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub samples: usize,
    pub p50_us: f64,
    /// The highest percentile with at least ten samples beyond it.
    pub tail_pct: f64,
    pub tail_us: f64,
}

/// Summarises raw samples (ns). The tail is the highest of p99.99,
/// p99.9, p99 and p90 that still has ten samples above it, so it is
/// never read off a single outlier; with fewer samples it is p50.
pub fn latency(samples: &mut [u32]) -> Latency {
    samples.sort_unstable();
    let n = samples.len();
    let tail_pct = [99.99, 99.9, 99.0, 90.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    Latency {
        samples: n,
        p50_us: f64::from(percentile(samples, 50.0)) / 1e3,
        tail_pct,
        tail_us: f64::from(percentile(samples, tail_pct)) / 1e3,
    }
}

/// A duration as saturating ns, for compact sample buffers.
pub fn ns32(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// What a timed phase did over its whole length: operations, wall
/// time, and the latency of its raw per-operation samples.
#[derive(Debug, Clone)]
pub struct Phase {
    pub ops: u64,
    pub elapsed_s: f64,
    pub latency: Latency,
}

impl Phase {
    /// Summarises `ops` operations over `elapsed`; `samples` are the raw
    /// per-operation latencies in ns.
    pub fn new(ops: u64, elapsed: Duration, samples: &mut [u32]) -> Phase {
        Phase {
            ops,
            elapsed_s: elapsed.as_secs_f64(),
            latency: latency(samples),
        }
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.elapsed_s.max(f64::MIN_POSITIVE)
    }
}

/// Set-up repetitions, timed one by one. A workload may repeat its
/// set-up through the timed phase, as each invocation of the program
/// pays it, so that `setup_s` (the median) spans the same host episodes
/// as the phase; the repetitions' wall time and process CPU are then
/// left out of the phase's figures.
#[derive(Debug, Clone, Default)]
pub struct Setups {
    pub times_s: Vec<f64>,
    /// Wall time of every repetition so far.
    pub wall: Duration,
    /// Process CPU of every repetition so far, in µs. `/proc` counts
    /// whole 10 ms ticks, so this is exact only summed over many
    /// repetitions.
    pub cpu_us: f64,
}

impl Setups {
    /// Runs one repetition of the set-up `f` and times it.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let cpu = process_cpu_us();
        let start = Instant::now();
        let built = f();
        let took = start.elapsed();
        self.cpu_us += process_cpu_us() - cpu;
        self.wall += took;
        self.times_s.push(took.as_secs_f64());
        built
    }

    pub fn median_s(&self) -> f64 {
        median(&self.times_s)
    }
}

/// CPU readings bracketing a timed phase.
#[derive(Debug, Clone)]
pub struct CpuWindow {
    process_us: f64,
    threads: Vec<(u32, f64)>,
    steal_ms: f64,
    ref_ms: Vec<f64>,
}

impl CpuWindow {
    /// Opens the window: reference loop first, so its own CPU is not
    /// counted in the phase.
    pub fn open(tids: &[u32]) -> CpuWindow {
        let ref_ms = (0..3).map(|_| cpu_ref_ms()).collect();
        CpuWindow {
            process_us: process_cpu_us(),
            threads: tids.iter().map(|&t| (t, thread_cpu_us(t))).collect(),
            steal_ms: steal_ms(),
            ref_ms,
        }
    }

    /// Closes the window: CPU each thread and the process used in it.
    pub fn close(mut self) -> CpuUse {
        let process_us = process_cpu_us() - self.process_us;
        let threads = self
            .threads
            .iter()
            .map(|&(t, before)| (t, thread_cpu_us(t) - before))
            .collect();
        let steal_ms = steal_ms() - self.steal_ms;
        self.ref_ms.extend((0..3).map(|_| cpu_ref_ms()));
        CpuUse {
            process_us,
            threads,
            steal_ms,
            cpu_ref_ms: median(&self.ref_ms),
        }
    }
}

/// What a [`CpuWindow`] measured.
#[derive(Debug, Clone)]
pub struct CpuUse {
    pub process_us: f64,
    pub threads: Vec<(u32, f64)>,
    pub steal_ms: f64,
    pub cpu_ref_ms: f64,
}

impl CpuUse {
    /// CPU µs of thread `tid` over the window.
    pub fn thread_us(&self, tid: u32) -> f64 {
        self.threads
            .iter()
            .find(|(t, _)| *t == tid)
            .map_or(0.0, |&(_, us)| us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        let mut samples: Vec<u32> = (1..=1000).map(|v| v * 1000).collect();
        let l = latency(&mut samples);
        assert_eq!(l.samples, 1000);
        assert_eq!(l.tail_pct, 99.0);
        assert_eq!(l.tail_us, 990.0);
        assert_eq!(l.p50_us, 500.0);

        let mut few: Vec<u32> = vec![5_000; 50];
        let l = latency(&mut few);
        assert_eq!(l.tail_pct, 50.0);
    }

    #[test]
    fn current_thread_is_a_task_with_cpu_time() {
        let tid = current_tid();
        assert!(tasks().contains(&tid));
        let start = Instant::now();
        while start.elapsed() < Duration::from_millis(60) {
            black_box(cpu_ref_ms());
        }
        assert!(thread_cpu_us(tid) > 0.0);
        assert!(process_cpu_us() >= thread_cpu_us(tid));
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn phase_rate_is_operations_over_the_whole_phase() {
        let mut samples: Vec<u32> = vec![3_000, 1_000, 2_000, 9_000];
        let phase = Phase::new(400, Duration::from_millis(200), &mut samples);
        assert_eq!(phase.ops_per_s(), 2000.0);
        assert_eq!(phase.latency.p50_us, 2.0);
        assert_eq!(phase.latency.samples, 4);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
