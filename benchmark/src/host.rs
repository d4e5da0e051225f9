//! What the host is, and what it can do: the reproducibility header and
//! the calibration loops that give every rate its roof. All loops here are
//! the benchmark's own — no library code — so a library change cannot move
//! a denominator.

use crate::json::J;
use std::hint::black_box;
use std::time::Instant;

/// Printed at the top of every output and stored in every result file.
#[derive(Clone, Debug)]
pub struct Header {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub kifmm_num_threads: String,
    pub kifmm_simd: String,
    pub rustc: String,
    pub commit: String,
    pub nproc: usize,
    pub cpu_model: String,
    pub l2_bytes: u64,
    pub llc_bytes: u64,
}

impl Header {
    pub fn collect(workload: &str, seed: u64, seconds: f64, smoke: bool) -> Header {
        let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "<unset>".into());
        let (l2_bytes, llc_bytes) = cache_sizes();
        Header {
            workload: workload.to_string(),
            seed,
            seconds,
            smoke,
            kifmm_num_threads: env("KIFMM_NUM_THREADS"),
            kifmm_simd: env("KIFMM_SIMD"),
            rustc: std::env::var("KIFMM_BENCH_RUSTC").unwrap_or_else(|_| "unknown".into()),
            commit: std::env::var("KIFMM_BENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
            nproc: nproc(),
            cpu_model: cpu_model(),
            l2_bytes,
            llc_bytes,
        }
    }

    pub fn print(&self) {
        println!(
            "# kifmm-benchmark workload={} seed={} seconds={} smoke={}",
            self.workload, self.seed, self.seconds, self.smoke
        );
        println!(
            "# host: cpu=\"{}\" nproc={} L2={} KiB LLC={} KiB",
            self.cpu_model,
            self.nproc,
            self.l2_bytes / 1024,
            self.llc_bytes / 1024
        );
        println!(
            "# build: rustc=\"{}\" commit={} KIFMM_NUM_THREADS={} KIFMM_SIMD={}",
            self.rustc, self.commit, self.kifmm_num_threads, self.kifmm_simd
        );
    }

    pub fn to_json(&self) -> J {
        J::obj([
            ("workload", J::str(&self.workload)),
            ("seed", J::Num(self.seed as f64)),
            ("seconds", J::Num(self.seconds)),
            ("smoke", J::Bool(self.smoke)),
            ("KIFMM_NUM_THREADS", J::str(&self.kifmm_num_threads)),
            ("KIFMM_SIMD", J::str(&self.kifmm_simd)),
            ("rustc", J::str(&self.rustc)),
            ("commit", J::str(&self.commit)),
            ("nproc", J::Num(self.nproc as f64)),
            ("cpu_model", J::str(&self.cpu_model)),
            ("l2_bytes", J::Num(self.l2_bytes as f64)),
            ("llc_bytes", J::Num(self.llc_bytes as f64)),
        ])
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Parse a sysfs cache size such as `2048K` or `32M`.
fn parse_cache_size(text: &str) -> Option<u64> {
    let t = text.trim();
    let (digits, mult) = match t.chars().last()? {
        'K' => (&t[..t.len() - 1], 1024),
        'M' => (&t[..t.len() - 1], 1024 * 1024),
        'G' => (&t[..t.len() - 1], 1024 * 1024 * 1024),
        _ => (t, 1),
    };
    digits.parse::<u64>().ok().map(|v| v * mult)
}

/// `(L2, last-level)` data/unified cache sizes of cpu0 from sysfs; zeros
/// when sysfs does not say (the roofline rows then fall back, see
/// [`Calibration`]).
pub fn cache_sizes() -> (u64, u64) {
    let mut l2 = 0u64;
    let mut llc = (0u64, 0u64); // (level, size)
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let (Ok(level), Some(size)) = (level.trim().parse::<u64>(), parse_cache_size(&size)) else {
            continue;
        };
        if level == 2 {
            l2 = size;
        }
        if level > llc.0 {
            llc = (level, size);
        }
    }
    (l2, llc.1)
}

fn mem_available_bytes() -> u64 {
    std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("MemAvailable:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

const FMA_CHAINS: usize = 10;

/// `iters` rounds of ten independent 4-lane FMA chains (enough chains to
/// cover the FMA latency on two ports). Returns a value that depends on
/// every chain so the work cannot be dropped.
///
/// # Safety
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_chains_avx2(iters: u64) -> f64 {
    use std::arch::x86_64::*;
    let mul = _mm256_set1_pd(0.999_999_9);
    let add = _mm256_set1_pd(1.0e-7);
    let mut acc = [_mm256_setzero_pd(); FMA_CHAINS];
    for (i, a) in acc.iter_mut().enumerate() {
        *a = _mm256_set1_pd(1.0 + i as f64 * 0.125);
    }
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = _mm256_fmadd_pd(*a, mul, add);
        }
    }
    let mut total = _mm256_setzero_pd();
    for a in acc {
        total = _mm256_add_pd(total, a);
    }
    let mut lanes = [0.0f64; 4];
    // SAFETY: `lanes` is four f64 = 32 bytes; storeu has no alignment need.
    unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), total) };
    lanes.iter().sum()
}

/// Scalar fallback: the same chain structure with separate multiply and
/// add, which is the peak of a machine without FMA units.
fn mul_add_chains_scalar(iters: u64) -> f64 {
    let mut acc = [0.0f64; FMA_CHAINS];
    for (i, a) in acc.iter_mut().enumerate() {
        *a = 1.0 + i as f64 * 0.125;
    }
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = *a * 0.999_999_9 + 1.0e-7;
        }
    }
    acc.iter().sum()
}

/// Run the arithmetic loop; returns `(seconds, flops)`.
fn arithmetic_loop(iters: u64) -> (f64, f64) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        let t = Instant::now();
        // SAFETY: AVX2 and FMA support was checked on the line above.
        black_box(unsafe { fma_chains_avx2(black_box(iters)) });
        return (t.elapsed().as_secs_f64(), (iters * FMA_CHAINS as u64 * 4 * 2) as f64);
    }
    let t = Instant::now();
    black_box(mul_add_chains_scalar(black_box(iters)));
    (t.elapsed().as_secs_f64(), (iters * FMA_CHAINS as u64 * 2) as f64)
}

/// Fixed work (about 0.1 s on the merge host): run before and after the
/// measurements, its time tells a noisy run from a quiet one.
pub fn reference_loop() -> f64 {
    // Once untimed, so the timed pass starts on a core already at speed.
    arithmetic_loop(64_000_000);
    arithmetic_loop(64_000_000).0
}

/// The roofs of this host, measured in this run.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    pub fma_gflops: f64,
    pub triad_gbs: f64,
    pub l2_gbs: f64,
    /// Bytes of each of the three triad arrays, and the last-level cache
    /// they are sized against. When an array is below four times the LLC
    /// (memory did not allow it, or sysfs gave no size) `triad_gbs` is not
    /// a memory roof, and every `*_roof_frac` is reported as 0 — omitted.
    pub triad_array_bytes: u64,
    pub llc_bytes: u64,
    pub roofs_valid: bool,
}

impl Calibration {
    /// `--smoke` skips calibration: no roofs, every `*_roof_frac` is 0.
    pub fn skipped() -> Calibration {
        Calibration {
            fma_gflops: 0.0,
            triad_gbs: 0.0,
            l2_gbs: 0.0,
            triad_array_bytes: 0,
            llc_bytes: 0,
            roofs_valid: false,
        }
    }

    /// Share of the roofline bound a kernel reached:
    /// `achieved ÷ min(fma peak, intensity × triad bandwidth)`.
    pub fn roof_frac(&self, achieved_gflops: f64, flops_per_byte: f64) -> f64 {
        if !self.roofs_valid {
            return 0.0;
        }
        achieved_gflops / self.fma_gflops.min(flops_per_byte * self.triad_gbs)
    }
}

/// `a[i] = b[i] + s·c[i]` over three arrays of `n` doubles, best of
/// `passes`; GB/s counts the 24 computed bytes per element.
fn triad_gbs(n: usize, passes: usize, repeats_per_pass: usize) -> f64 {
    let mut a = vec![0.0f64; n];
    let b = vec![1.5f64; n];
    let c = vec![0.25f64; n];
    let s = 3.0f64;
    let mut best = f64::INFINITY;
    // The first pass also faults the pages in; it is not timed.
    for pass in 0..=passes {
        let t = Instant::now();
        for _ in 0..repeats_per_pass {
            for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
                *x = *y + s * *z;
            }
            black_box(&mut a);
        }
        if pass > 0 {
            best = best.min(t.elapsed().as_secs_f64() / repeats_per_pass as f64);
        }
    }
    (24 * n) as f64 / best * 1e-9
}

pub fn calibrate() -> Calibration {
    let fma_gflops = (0..3)
        .map(|_| {
            let (secs, flops) = arithmetic_loop(40_000_000);
            flops / secs * 1e-9
        })
        .fold(0.0, f64::max);

    // A 1 MiB working set (three arrays) sits in L2 on any current core.
    let l2_gbs = triad_gbs((1 << 20) / 24, 5, 200);

    let (_, llc_bytes) = cache_sizes();
    let want = 4 * llc_bytes;
    // Three arrays must fit in half of what is free.
    let afford = mem_available_bytes() / 6;
    let roofs_valid = llc_bytes > 0 && want <= afford;
    let triad_array_bytes = if roofs_valid { want } else { afford.clamp(8 << 20, 256 << 20) };
    let triad = triad_gbs((triad_array_bytes / 8) as usize, 2, 1);

    Calibration { fma_gflops, triad_gbs: triad, l2_gbs, triad_array_bytes, llc_bytes, roofs_valid }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_size_suffixes() {
        assert_eq!(parse_cache_size("2048K\n"), Some(2048 * 1024));
        assert_eq!(parse_cache_size("32M"), Some(32 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size(""), None);
        assert_eq!(parse_cache_size("K"), None);
    }

    #[test]
    fn roof_is_the_lower_of_compute_and_bandwidth() {
        let cal = Calibration {
            fma_gflops: 30.0,
            triad_gbs: 10.0,
            l2_gbs: 50.0,
            triad_array_bytes: 4,
            llc_bytes: 1,
            roofs_valid: true,
        };
        // 0.125 flop/B × 10 GB/s = 1.25 Gflop/s roof: bandwidth-bound.
        assert_eq!(cal.roof_frac(1.0, 0.125), 0.8);
        // Intensity 100: the compute roof applies.
        assert_eq!(cal.roof_frac(15.0, 100.0), 0.5);
        assert_eq!(Calibration { roofs_valid: false, ..cal }.roof_frac(15.0, 100.0), 0.0);
    }

    #[test]
    fn arithmetic_loop_scales_with_iterations() {
        // black_box is only a hint: confirm the work is really done.
        let (short, _) = arithmetic_loop(2_000_000);
        let (long, flops) = arithmetic_loop(20_000_000);
        assert!(long > 3.0 * short, "10x the iterations took {long} vs {short}");
        assert!(flops > 0.0);
        assert!(mul_add_chains_scalar(10).is_finite());
    }
}
