//! Host-clock probes read from procfs, with no dependencies beyond `std`.
//!
//! CPU time is the benchmark's host clock: it counts only the time this
//! process ran, so a neighbour stealing the core stretches wall time but
//! not the measurement. Wall time and the core count are recorded beside
//! it so a reader can tell the two apart.

use std::fs::File;
use std::os::unix::fs::FileExt;
use std::time::Instant;

/// Reads the calling thread's CPU time from `/proc/thread-self/schedstat`
/// (first field: nanoseconds on a CPU). The benchmark is single-threaded,
/// so this is the process's CPU time; under the test harness it is the
/// test thread's.
pub struct CpuClock {
    file: File,
    buf: Vec<u8>,
}

impl CpuClock {
    /// Opens the probe; fails where procfs has no schedstat.
    pub fn open() -> Result<Self, String> {
        let file = File::open("/proc/thread-self/schedstat")
            .map_err(|e| format!("cannot open /proc/thread-self/schedstat: {e}"))?;
        let mut clock = CpuClock {
            file,
            buf: vec![0u8; 128],
        };
        clock.read_ns()?;
        Ok(clock)
    }

    /// CPU nanoseconds consumed so far.
    pub fn read_ns(&mut self) -> Result<u64, String> {
        // procfs regenerates the text on every read at offset 0, so one
        // open handle serves every probe.
        let n = self
            .file
            .read_at(&mut self.buf, 0)
            .map_err(|e| format!("cannot read /proc/thread-self/schedstat: {e}"))?;
        let text = std::str::from_utf8(&self.buf[..n]).map_err(|e| e.to_string())?;
        text.split_whitespace()
            .next()
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("malformed /proc/thread-self/schedstat: {text:?}"))
    }

    /// CPU seconds consumed so far.
    pub fn secs(&mut self) -> Result<f64, String> {
        Ok(self.read_ns()? as f64 * 1e-9)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM` in
/// `/proc/self/status`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A CPU-time and wall-time interval, started at construction.
pub struct Stopwatch {
    cpu0: f64,
    wall0: Instant,
}

impl Stopwatch {
    /// Starts both clocks.
    pub fn start(cpu: &mut CpuClock) -> Result<Self, String> {
        Ok(Stopwatch {
            cpu0: cpu.secs()?,
            wall0: Instant::now(),
        })
    }

    /// `(cpu_secs, wall_secs)` since start.
    pub fn lap(&self, cpu: &mut CpuClock) -> Result<(f64, f64), String> {
        Ok((cpu.secs()? - self.cpu0, self.wall0.elapsed().as_secs_f64()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let mut cpu = CpuClock::open().unwrap();
        let t0 = cpu.read_ns().unwrap();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu.read_ns().unwrap() > t0);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
