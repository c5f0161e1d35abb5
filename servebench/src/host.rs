//! The host and noise block every result carries, and the process's
//! peak memory. Each reader degrades to `None` off Linux rather than
//! failing the run.

use std::fs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// Aggregate CPU time counters from the first line of `/proc/stat`, in
/// clock ticks.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

impl CpuTimes {
    pub fn read() -> Option<Self> {
        let stat = fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .strip_prefix("cpu ")?
            .split_whitespace()
            .map(|f| f.parse().ok())
            .collect::<Option<_>>()?;
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already counted inside user and nice.
        Some(Self {
            steal: *fields.get(7)?,
            total: fields.iter().take(8).sum(),
        })
    }

    /// The share of all CPU time the hypervisor stole between `self`
    /// and `later`.
    pub fn steal_frac_until(self, later: Self) -> Option<f64> {
        let total = later.total.checked_sub(self.total)?;
        let steal = later.steal.checked_sub(self.steal)?;
        (total > 0).then(|| steal as f64 / total as f64)
    }
}

/// A thread that yields in a loop for as long as it lives, so the vCPU
/// of whichever benchmark thread parks always has a runnable thread and
/// never halts. On a shared VM a halted vCPU's core is handed to other
/// guests, and waking the parked thread then waits for the hypervisor to
/// give it back: measured as steal, it moved the benchmark's medians by
/// up to 2× between runs. With this thread the steal share stays near
/// the idle host's, and a wake-up is a reschedule inside the guest. It
/// yields to every other runnable thread, so it takes no time the
/// caller or the shard worker could use.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                thread::yield_now();
            }
        });
        Self {
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            // The loop cannot panic.
            let _ = thread.join();
        }
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

pub fn cpu_model() -> Option<String> {
    let info = fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, model)| model.trim().to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub const RUSTC: &str = env!("SERVEBENCH_RUSTC");
pub const PROFILE: &str = env!("SERVEBENCH_PROFILE");
