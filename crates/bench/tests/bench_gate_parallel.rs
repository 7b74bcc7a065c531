//! Forced-regression contract of `bench_gate`'s `--min-parallel-speedup`
//! invariant: a fresh kernel report from a multi-core host where threaded
//! loses to serial at the largest GEMM shape must fail the gate and name
//! the offending shape on stdout and in `$GITHUB_STEP_SUMMARY`; a report
//! from a single-core host must skip the check (with a visible note)
//! instead of demanding a physically impossible speedup.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A kernel-bench v2 document with one GEMM kind at two shapes. The small
/// 64³ pair is healthy either way; `t512_ms` decides whether threading
/// wins (`< s512_ms / 1.3`) or regresses at the 512³ shape the invariant
/// reads.
fn kernels_doc(avail: u64, s512_ms: f64, t512_ms: f64) -> String {
    let entry = |m: u64, n: u64, k: u64, backend: &str, threads: u64, best_ms: f64| {
        format!(
            r#"{{"kernel": "gemm", "kind": "nn", "m": {m}, "n": {n}, "k": {k},
                "backend": "{backend}", "threads": {threads}, "reps": 3,
                "best_ms": {best_ms}, "gflops": 10.0, "packing_us": 40}}"#
        )
    };
    format!(
        r#"{{"schema_version": 2, "generated_by": "kernel_bench", "smoke": true,
            "simd": "avx2", "threaded_workers": 4, "available_parallelism": {avail},
            "results": [{}, {}, {}, {}]}}"#,
        entry(64, 64, 64, "serial", 1, 0.02),
        entry(64, 64, 64, "threaded", 4, 0.02),
        entry(512, 512, 512, "serial", 1, s512_ms),
        entry(512, 512, 512, "threaded", 4, t512_ms),
    )
}

/// Minimal healthy companion documents so only the kernel section can trip
/// the gate.
fn e2e_doc() -> String {
    r#"{"results": [
        {"threads": 4,
         "step_ms": 100.0, "comm_ms": 50.0, "exposed_comm_ms": 50.0,
         "recompute_ms": 30.0, "exposed_recompute_ms": 30.0}
    ]}"#
    .to_string()
}

fn recovery_doc() -> String {
    r#"{"results": [{"scenario": "death_t4_to_t2", "reps": 2, "reforms": 1,
        "final_degree": 2, "mttr_ms": 2.9, "bit_identical": true}]}"#
        .to_string()
}

fn sync_doc() -> String {
    r#"{"results": [{"scenario": "all_reduce", "ranks": 4, "rounds": 64,
        "reps": 3, "best_ms": 1.0}]}"#
        .to_string()
}

struct Fixture {
    dir: PathBuf,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let dir =
            std::env::temp_dir().join(format!("bench_gate_parallel_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create fixture dir");
        Fixture { dir }
    }

    fn write(&self, name: &str, contents: &str) -> PathBuf {
        let p = self.dir.join(name);
        std::fs::write(&p, contents).expect("write fixture file");
        p
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Runs the gate with identical fresh/baseline kernel docs (so per-entry
/// ratios are all ×1.00) plus healthy companions: only the fresh-run
/// parallel-speedup invariant differs across cases.
fn run_gate(fx: &Fixture, kernels_json: &str) -> (std::process::Output, String) {
    let kernels = fx.write("kernels.json", kernels_json);
    let kernels_base = fx.write("kernels_base.json", kernels_json);
    let e2e = fx.write("e2e.json", &e2e_doc());
    let e2e_base = fx.write("e2e_base.json", &e2e_doc());
    let recovery = fx.write("recovery.json", &recovery_doc());
    let recovery_base = fx.write("recovery_base.json", &recovery_doc());
    let sync = fx.write("sync.json", &sync_doc());
    let sync_base = fx.write("sync_base.json", &sync_doc());
    let summary = fx.dir.join("summary.md");
    let arg = |p: &Path| p.to_str().unwrap().to_string();
    let output = Command::new(env!("CARGO_BIN_EXE_bench_gate"))
        .args([
            "--kernels".to_string(),
            arg(&kernels),
            "--kernels-baseline".to_string(),
            arg(&kernels_base),
            "--e2e".to_string(),
            arg(&e2e),
            "--e2e-baseline".to_string(),
            arg(&e2e_base),
            "--recovery".to_string(),
            arg(&recovery),
            "--recovery-baseline".to_string(),
            arg(&recovery_base),
            "--sync".to_string(),
            arg(&sync),
            "--sync-baseline".to_string(),
            arg(&sync_base),
            "--min-parallel-speedup".to_string(),
            "1.3".to_string(),
        ])
        .env("GITHUB_STEP_SUMMARY", &summary)
        .output()
        .expect("run bench_gate");
    let summary_text = std::fs::read_to_string(&summary).unwrap_or_default();
    (output, summary_text)
}

#[test]
fn threaded_losing_at_the_largest_shape_fails_and_names_it() {
    let fx = Fixture::new("regress");
    // 8-way host, but threaded 512³ is *slower* than serial (×0.83):
    // exactly the regression the invariant exists to catch.
    let (output, summary) = run_gate(&fx, &kernels_doc(8, 10.0, 12.0));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);

    assert_eq!(output.status.code(), Some(1), "gate must fail\n{stdout}\n{stderr}");
    assert!(
        stdout.contains("parallel-speedup FAIL: gemm nn 512x512x512"),
        "stdout must name the offending shape:\n{stdout}"
    );
    assert!(
        summary.contains("gemm nn 512x512x512 speedup") && summary.contains("FAIL"),
        "GITHUB_STEP_SUMMARY must carry the failed shape row:\n{summary}"
    );
    assert!(stderr.contains("kernels parallel-speedup"), "{stderr}");
}

#[test]
fn threaded_winning_at_the_largest_shape_passes() {
    let fx = Fixture::new("pass");
    // ×2.5 threaded speedup at 512³: comfortably past the ×1.3 bar. The
    // small 64³ shape ties serial/threaded, which must NOT trip the gate —
    // only the largest shape per kind is judged.
    let (output, summary) = run_gate(&fx, &kernels_doc(8, 10.0, 4.0));
    let stdout = String::from_utf8_lossy(&output.stdout);

    assert_eq!(output.status.code(), Some(0), "gate must pass\n{stdout}");
    assert!(stdout.contains("all checks passed"), "{stdout}");
    assert!(
        summary.contains("gemm nn 512x512x512 speedup") && summary.contains("×2.50"),
        "summary must show the measured speedup:\n{summary}"
    );
}

#[test]
fn single_core_host_skips_the_check_with_a_note() {
    let fx = Fixture::new("skip");
    // Same losing numbers as the failing case — but recorded on a
    // single-core host, where threads cannot beat serial by construction.
    let (output, summary) = run_gate(&fx, &kernels_doc(1, 10.0, 12.0));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);

    assert_eq!(output.status.code(), Some(0), "gate must skip, not fail\n{stdout}\n{stderr}");
    assert!(
        stdout.contains("parallel-speedup check skipped")
            && stdout.contains("available_parallelism = 1"),
        "skip must be visible on stdout:\n{stdout}"
    );
    assert!(
        summary.contains("skipped (available_parallelism = 1)"),
        "summary must record the skip:\n{summary}"
    );
}
