//! Host measurements: peak memory, the last-level cache, and the
//! STREAM-triad bandwidth that anchors the kernel roofline.

use std::time::Instant;

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The largest cache of CPU 0 (the last level), in bytes.
fn llc_bytes() -> Option<u64> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    dir.filter_map(|e| {
        let size = std::fs::read_to_string(e.ok()?.path().join("size")).ok()?;
        let size = size.trim();
        let (digits, scale) = match size.strip_suffix('K') {
            Some(d) => (d, 1 << 10),
            None => match size.strip_suffix('M') {
                Some(d) => (d, 1 << 20),
                None => (size, 1),
            },
        };
        digits.parse::<u64>().ok().map(|n| n * scale)
    })
    .max()
}

/// The roofline inputs measured on this host.
pub struct Roofline {
    /// Best STREAM-triad bandwidth, GB/s (STREAM byte convention:
    /// 24 bytes per element, write-allocate traffic not counted).
    pub triad_gbs: f64,
    /// Last-level cache size, MB.
    pub llc_mb: f64,
    /// Size of each triad array, MB.
    pub array_mb: u64,
}

/// Runs a STREAM triad `a = b + s·c` on every core, with each array at
/// least four times the last-level cache so that no pass is served
/// from cache, and returns the best of three passes.
pub fn measure_roofline() -> Roofline {
    const FALLBACK_LLC: u64 = 32 << 20;
    let llc = llc_bytes().unwrap_or(FALLBACK_LLC);
    let len = (4 * llc).div_ceil(8) as usize;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let part = len.div_ceil(threads);
    let mut a = vec![0.0f64; len];
    let mut b = vec![0.0f64; len];
    let mut c = vec![0.0f64; len];
    let scalar = 3.0f64;
    // First touch on the threads that later stream the same pages.
    std::thread::scope(|s| {
        for ((a, b), c) in a
            .chunks_mut(part)
            .zip(b.chunks_mut(part))
            .zip(c.chunks_mut(part))
        {
            s.spawn(move || {
                a.fill(0.0);
                b.fill(1.0);
                c.fill(2.0);
            });
        }
    });
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        std::thread::scope(|s| {
            for ((a, b), c) in a.chunks_mut(part).zip(b.chunks(part)).zip(c.chunks(part)) {
                s.spawn(move || {
                    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                        *a = b + scalar * c;
                    }
                });
            }
        });
        best = best.min(start.elapsed().as_secs_f64());
        std::hint::black_box(&a);
    }
    assert!(
        a.iter().step_by(4096).all(|&v| v == 7.0),
        "triad produced a wrong result"
    );
    Roofline {
        triad_gbs: (3 * 8 * len) as f64 / best / 1e9,
        llc_mb: llc as f64 / (1 << 20) as f64,
        array_mb: (8 * len as u64) >> 20,
    }
}
