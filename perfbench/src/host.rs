//! Linux `/proc` readers for the host-side counters the benchmark reports:
//! per-thread CPU time, hypervisor steal, and peak resident memory.

use std::fs;

/// Nanoseconds the task at `path` (a `.../schedstat` file) has spent on a
/// CPU, or `None` when the task is gone.
fn schedstat_ns(path: &str) -> Option<u64> {
    let text = fs::read_to_string(path).ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// CPU time of the calling thread [ns].
pub fn thread_cpu_ns() -> u64 {
    schedstat_ns("/proc/thread-self/schedstat").expect("/proc/thread-self/schedstat is readable")
}

/// CPU time of every live thread of this process [ns]. Threads that exit
/// drop out of the sum, so callers only take differences across intervals
/// in which the measured threads all stay alive.
pub fn process_cpu_ns() -> u64 {
    let tasks = fs::read_dir("/proc/self/task").expect("/proc/self/task is readable");
    tasks
        .filter_map(|entry| {
            let path = entry.ok()?.path().join("schedstat");
            schedstat_ns(path.to_str()?)
        })
        .sum()
}

/// The `schedstat` path of the live thread of this process named `name`.
pub fn find_thread(name: &str) -> Option<String> {
    let tasks = fs::read_dir("/proc/self/task").ok()?;
    for entry in tasks.flatten() {
        let comm = fs::read_to_string(entry.path().join("comm")).unwrap_or_default();
        if comm.trim_end() == name {
            return Some(entry.path().join("schedstat").to_str()?.to_string());
        }
    }
    None
}

/// CPU time of the thread whose `schedstat` path `find_thread` returned
/// [ns]; 0 once the thread has exited.
pub fn named_thread_cpu_ns(path: &str) -> u64 {
    schedstat_ns(path).unwrap_or(0)
}

/// Aggregate CPU tick counters from the first line of `/proc/stat`, and the
/// number of CPUs they are summed over.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
    cpus: u32,
}

impl CpuTicks {
    /// Reads the current counters.
    pub fn now() -> CpuTicks {
        let text = fs::read_to_string("/proc/stat").expect("/proc/stat is readable");
        let fields: Vec<u64> = text
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|f| f.parse().unwrap_or(0))
            .collect();
        let cpus = text
            .lines()
            .filter(|line| {
                line.strip_prefix("cpu")
                    .is_some_and(|rest| rest.starts_with(|c: char| c.is_ascii_digit()))
            })
            .count();
        CpuTicks {
            // user nice system idle iowait irq softirq steal
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().sum(),
            cpus: cpus.max(1) as u32,
        }
    }

    /// CPU-seconds the hypervisor stole from this VM since `earlier`, over
    /// an interval of `wall_s` seconds.
    pub fn stolen_s_since(&self, earlier: &CpuTicks, wall_s: f64) -> f64 {
        self.steal_frac_since(earlier) * f64::from(self.cpus) * wall_s
    }

    /// Share of all CPU ticks since `earlier` that the hypervisor stole.
    pub fn steal_frac_since(&self, earlier: &CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Peak resident set size of this process (`VmHWM`) [MB].
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: u64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("/proc/self/status reports VmHWM");
    kb as f64 / 1024.0
}
