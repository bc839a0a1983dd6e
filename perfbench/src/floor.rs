//! The host's memory floor, measured: streaming read bandwidth and the
//! latency of dependent random 8-byte reads, both over one array at
//! least four times the last-level cache, so neither fits in cache. Also
//! the CPU time the hypervisor stole while the benchmark ran.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// What the microbench measured, and over how much memory.
#[derive(Debug, Clone, Copy)]
pub struct Floor {
    /// The last-level cache size the array was sized from, bytes.
    pub llc_bytes: u64,
    /// The array both tests run over, bytes.
    pub array_bytes: u64,
    /// Median streaming read bandwidth over the passes, GB/s (1e9 B/s).
    pub stream_gbs: f64,
    /// Median nanoseconds per dependent random 8-byte read.
    pub random_read_ns: f64,
}

/// Fallback when the cache size cannot be read: the 300 MiB L3 of the
/// reference host, so the array stays large rather than small.
const DEFAULT_LLC_BYTES: u64 = 300 << 20;

/// Dependent reads per latency pass.
const RANDOM_READS: usize = 1 << 21;

/// Measured passes of each test; the median is reported.
const PASSES: usize = 3;

/// The largest cache the kernel reports for CPU 0, bytes.
pub fn llc_bytes() -> u64 {
    (0..8)
        .filter_map(|i| {
            let path = format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size");
            parse_size(std::fs::read_to_string(path).ok()?.trim())
        })
        .max()
        .unwrap_or(DEFAULT_LLC_BYTES)
}

/// Parses sysfs cache sizes such as `300M`, `4096K` or `1024`.
fn parse_size(s: &str) -> Option<u64> {
    let (digits, scale) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(scale)
}

/// Runs both tests over an array of `4 × llc_bytes()`.
pub fn measure() -> Floor {
    let llc = llc_bytes();
    let words = usize::try_from(4 * llc / 8).expect("array size fits in usize");
    let mut data: Vec<u64> = Vec::with_capacity(words);
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    data.extend((0..words).map(|_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }));

    let stream: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            let sum = data.iter().fold(0u64, |a, &v| a.wrapping_add(v));
            black_box(sum);
            (words * 8) as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .collect();

    let random: Vec<f64> = (0..PASSES)
        .map(|pass| {
            // Each index depends on the value just read, so the reads
            // cannot overlap; mixing in the counter keeps the walk from
            // falling into a short cycle that would fit in cache.
            let mut i = pass;
            let t = Instant::now();
            for step in 0..RANDOM_READS as u64 {
                let v = data[i];
                i = ((v ^ step).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 1) as usize % words;
            }
            black_box(i);
            t.elapsed().as_secs_f64() * 1e9 / RANDOM_READS as f64
        })
        .collect();

    Floor {
        llc_bytes: llc,
        array_bytes: (words * 8) as u64,
        stream_gbs: median(&stream).expect("passes ran"),
        random_read_ns: median(&random).expect("passes ran"),
    }
}

/// Measures how much CPU time the hypervisor gave to other guests over
/// an interval: the `steal` column of `/proc/stat`. Host timings taken
/// while it is high measure the neighbours, not the program.
pub struct StealMeter {
    ticks: u64,
    start: Instant,
}

impl StealMeter {
    pub fn start() -> Self {
        Self { ticks: steal_ticks().unwrap_or(0), start: Instant::now() }
    }

    /// Percent of all CPUs' time stolen since [`Self::start`]; 0 where the
    /// kernel reports no steal column.
    pub fn percent(&self) -> f64 {
        // `/proc/stat` counts in USER_HZ, which Linux fixes at 100.
        let stolen = steal_ticks().unwrap_or(0).saturating_sub(self.ticks) as f64 / 100.0;
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        100.0 * stolen / (self.start.elapsed().as_secs_f64() * cpus)
    }
}

fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    parse_steal(stat.lines().next()?)
}

/// The steal field of the aggregate `cpu` line of `/proc/stat`.
fn parse_steal(line: &str) -> Option<u64> {
    let mut fields = line.split_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    fields.nth(7)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sysfs_cache_sizes() {
        assert_eq!(parse_size("300M"), Some(300 << 20));
        assert_eq!(parse_size("48K"), Some(48 << 10));
        assert_eq!(parse_size("1024"), Some(1024));
        assert_eq!(parse_size(""), None);
        assert_eq!(parse_size("xM"), None);
    }

    #[test]
    fn parses_the_steal_column() {
        assert_eq!(parse_steal("cpu  350665 0 28198 534111 2672 0 314 37048 0 0"), Some(37048));
        assert_eq!(parse_steal("cpu0 1 2 3 4 5 6 7 8 9 10"), None);
        assert_eq!(parse_steal("cpu  1 2 3"), None);
    }
}
