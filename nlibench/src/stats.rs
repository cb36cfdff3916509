//! Small measurement helpers: percentiles, hashing, and readings from
//! `/proc` for peak memory and CPU steal.

use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The `p`-th percentile (0..=100) of `values` by nearest rank; `NaN` when
/// there are none. Sorts in place.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 50.0)
}

/// 64-bit FNV-1a over lines, for the script and expected-answer hashes.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn line(&mut self, s: &str) {
        for b in s.bytes().chain(std::iter::once(b'\n')) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Aggregate CPU time counters from the `cpu` line of `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

impl CpuTimes {
    pub fn read() -> Option<CpuTimes> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let line = stat.lines().find(|l| l.starts_with("cpu "))?;
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already counted in user time.
        let total = fields.iter().take(8).sum();
        Some(CpuTimes {
            steal: fields.get(7).copied().unwrap_or(0),
            total,
        })
    }

    /// Share of CPU time stolen by the hypervisor between `self` and `later`.
    pub fn steal_share(&self, later: &CpuTimes) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// A stretch `[from, to)` of a phase, in seconds from its start, and the
/// share of CPU time the hypervisor stole during it (0 where `/proc/stat`
/// could not be read).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    pub from: f64,
    pub to: f64,
    pub steal: f64,
}

/// Reads `/proc/stat` at `origin + k * every` for k = 0, 1, ... until
/// stopped, so a phase can tell how much CPU the hypervisor took from each
/// of its windows. The thread sleeps between readings.
pub struct StealSampler {
    origin: Instant,
    stop: Sender<()>,
    thread: JoinHandle<Vec<(Instant, Option<CpuTimes>)>>,
}

impl StealSampler {
    pub fn start(origin: Instant, every: Duration) -> StealSampler {
        let (stop, stopped) = channel::<()>();
        let thread = std::thread::spawn(move || {
            let mut readings = Vec::new();
            loop {
                let tick = origin + every * readings.len() as u32;
                match stopped.recv_timeout(tick.saturating_duration_since(Instant::now())) {
                    Err(RecvTimeoutError::Timeout) => {
                        readings.push((Instant::now(), CpuTimes::read()))
                    }
                    _ => return readings,
                }
            }
        });
        StealSampler {
            origin,
            stop,
            thread,
        }
    }

    /// Stop sampling and return the windows between consecutive readings.
    pub fn finish(self) -> Vec<Window> {
        drop(self.stop);
        let readings = self.thread.join().expect("steal sampler panicked");
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        readings
            .windows(2)
            .map(|pair| {
                let ((t0, c0), (t1, c1)) = (pair[0], pair[1]);
                Window {
                    from: at(t0),
                    to: at(t1),
                    steal: c0.zip(c1).map_or(0.0, |(a, b)| a.steal_share(&b)),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut v, 100.0), 100.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert!(percentile(&mut [], 50.0).is_nan());
    }
}
