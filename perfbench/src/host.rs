//! Host fingerprint and the same-run calibration probes every result
//! carries, plus the process's resident-memory high-water mark.

use crate::stats::median;
use mt_collectives::World;
use mt_kernels::{gemm, Backend};
use serde_json::Value;
use std::time::Instant;

/// Which machine produced a result, and what it reached in this very run.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// CPU model string (`/proc/cpuinfo`), or `"unknown"`.
    pub cpu: String,
    /// GEMM microkernel instantiation (`mt_kernels::gemm::simd_feature`).
    pub simd: &'static str,
    /// `std::thread::available_parallelism`.
    pub parallelism: usize,
    /// Serial 256³ GEMM throughput, GFLOP/s (median of repeats).
    pub gemm_probe_gflops: f64,
    /// One 2-rank `World` barrier round trip, µs (median of repeats).
    pub barrier_probe_us: f64,
}

const PROBE_N: usize = 256;
const GEMM_REPEATS: usize = 21;
const BARRIERS: usize = 301;

impl Host {
    /// Fingerprints the host and runs both probes.
    pub fn probe() -> Host {
        Host {
            cpu: cpu_model(),
            simd: gemm::simd_feature(),
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            gemm_probe_gflops: gemm_probe_gflops(),
            barrier_probe_us: barrier_probe_us(),
        }
    }

    /// The fields that decide whether two results are comparable.
    pub fn fingerprint(&self) -> String {
        format!("{} | {} | {} threads", self.cpu, self.simd, self.parallelism)
    }

    /// JSON form, for the result document.
    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            ("cpu".into(), Value::Str(self.cpu.clone())),
            ("simd".into(), Value::Str(self.simd.into())),
            ("available_parallelism".into(), Value::UInt(self.parallelism as u64)),
            ("gemm_probe_gflops".into(), Value::Float(self.gemm_probe_gflops)),
            ("barrier_probe_us".into(), Value::Float(self.barrier_probe_us)),
        ])
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn gemm_probe_gflops() -> f64 {
    let n = PROBE_N;
    let a: Vec<f32> = (0..n * n).map(|i| (i % 17) as f32 * 0.01).collect();
    let b: Vec<f32> = (0..n * n).map(|i| (i % 13) as f32 * 0.01).collect();
    let mut c = vec![0.0f32; n * n];
    let samples: Vec<f64> = (0..GEMM_REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            gemm::gemm(Backend::Serial, false, false, n, n, n, &a, &b, &mut c);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    2.0 * (n * n * n) as f64 / median(&samples[1..]) / 1e9
}

fn barrier_probe_us() -> f64 {
    let per_rank = World::run(2, |comm| {
        (0..BARRIERS)
            .map(|_| {
                let t0 = Instant::now();
                comm.barrier();
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect::<Vec<f64>>()
    });
    median(&per_rank[0][1..])
}

/// Resident-set high-water mark of this process in MiB (`VmHWM`), or
/// `None` where `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}
