//! Host fingerprint, process memory, and the drift probe.

use std::hint::black_box;
use std::time::Instant;

/// Version of the result layout this benchmark prints.
pub const SCHEMA_VERSION: u32 = 1;

/// What the numbers were measured on.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// `model name` from `/proc/cpuinfo`, or `unknown`.
    pub cpu_model: String,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `brook_ir::simd::detect()`.
    pub simd: String,
}

impl Fingerprint {
    /// Reads the fingerprint of the running host.
    pub fn detect() -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            cpu_model,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            simd: brook_ir::simd::detect().to_string(),
        }
    }
}

/// A `kB` field of `/proc/self/status` in MiB (0 where unavailable).
fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Current resident set size (`VmRSS`), MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

/// Elements of the drift probe.
pub const LOOP_ELEMS: usize = 1 << 16;

/// One pass of the drift probe: a `black_box` add over [`LOOP_ELEMS`]
/// floats, in ns per element. Timed between workload iterations, it
/// shows how fast the shared host was at that moment.
pub fn loop_ns_per_elem(buf: &mut [f32]) -> f64 {
    let t = Instant::now();
    for v in buf.iter_mut() {
        *v = black_box(*v + 1.0);
    }
    black_box(&buf);
    t.elapsed().as_nanos() as f64 / buf.len() as f64
}
