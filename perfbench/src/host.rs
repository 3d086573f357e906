//! Host-resource readers and small statistics helpers.
//!
//! CPU time and peak resident memory come from `/proc/self`, so they
//! cover every thread of this process — the client thread and every
//! simulated thread the kernel started. Each benchmark invocation runs a
//! single workload in its own process, which is what makes the figures
//! belong to that workload alone.

use std::time::Instant;

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. Linux fixes `USER_HZ` at 100 in its user ABI on
/// every architecture this simulator builds for.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed so far by the whole process,
/// including threads that have already exited.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) is parenthesised and may contain
    // spaces; the numeric fields start after its closing parenthesis.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state is field 3, so utime (14) and stime (15)
    // sit at offsets 11 and 12.
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) as f64 / USER_HZ
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Wall and CPU time of one measured section.
pub struct HostTimer {
    wall: Instant,
    cpu: f64,
}

impl HostTimer {
    /// Starts both clocks.
    pub fn start() -> HostTimer {
        HostTimer {
            wall: Instant::now(),
            cpu: cpu_seconds(),
        }
    }

    /// `(wall seconds, CPU seconds)` since [`HostTimer::start`].
    pub fn stop(&self) -> (f64, f64) {
        (self.wall.elapsed().as_secs_f64(), cpu_seconds() - self.cpu)
    }
}

/// Median of `values` (mean of the middle pair for even counts); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn proc_readers_see_this_process() {
        let spin = Instant::now();
        let mut x = 0u64;
        while spin.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds() > 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
