//! Facts about the machine and the build, recorded beside every result so
//! that a number is never read without the box it was measured on.

use std::time::Instant;

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One field of `/proc/self/status` in MB (`VmHWM`: peak resident set;
/// `VmRSS`: current). 0 where the file does not exist.
pub fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nanoseconds a fixed dependent-multiply loop takes (the median of five
/// goes). The loop never changes, so a throttled or crowded host shows up
/// here next to the numbers it distorted.
pub fn calibration_ns() -> f64 {
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for i in 0..2_000_000u64 {
                x = std::hint::black_box(x.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(i));
            }
            std::hint::black_box(x);
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[2]
}

/// The x86-64 / aarch64 vector features this binary was compiled with
/// (compile time, not what the CPU offers: the kernels dispatch on `cfg`).
pub fn target_features() -> Vec<&'static str> {
    let mut f = Vec::new();
    for (name, on) in [
        ("sse2", cfg!(target_feature = "sse2")),
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("neon", cfg!(target_feature = "neon")),
    ] {
        if on {
            f.push(name);
        }
    }
    f
}

/// `rustc -V` and the commit, handed over by `run.sh` (the binary cannot
/// ask: a benchmark checkout is not a git repository and may have no
/// compiler on the path at run time).
pub fn from_env(var: &str) -> String {
    std::env::var(var).unwrap_or_else(|_| "unknown".to_string())
}
