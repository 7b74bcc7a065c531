//! Forced-regression contract of `bench_gate`: a fresh run that blows the
//! step budget must exit nonzero AND carry an `mt-profile` attribution
//! diff naming the regressed category, on stdout and in the
//! `$GITHUB_STEP_SUMMARY` file.

use mt_profile::{analyze, AnalyzeOptions, ProfileDocument, ProfileReport};
use mt_trace::Tracer;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A minimal valid profile: one gemm span, one all-reduce, and one inline
/// recompute replay of the given lengths — so a fresh-vs-base pair with a
/// longer all-reduce diffs to an `exposed_comm` regression and one with a
/// longer replay to an `exposed_recompute` regression.
fn synthetic_profile(label: &str, comm_us: f64, recompute_us: f64) -> ProfileReport {
    let t = Tracer::enabled();
    t.complete_at("kernel_gemm", 0, 0.0, 40.0, Vec::new());
    t.complete_at("all_reduce", 0, 40.0, comm_us, Vec::new());
    t.complete_at("recompute_layer", 0, 100.0, recompute_us, Vec::new());
    analyze(&t.events(), &AnalyzeOptions { label: label.to_string(), ..Default::default() })
        .expect("synthetic profile analyzes")
}

fn write_profile_doc(path: &Path, label: &str, comm_us: f64, recompute_us: f64) {
    let doc = ProfileDocument::new(BTreeMap::from([(
        label.to_string(),
        synthetic_profile(label, comm_us, recompute_us),
    )]));
    std::fs::write(path, doc.to_json()).expect("write profile doc");
}

/// One kernel-bench document with a single healthy entry.
fn kernels_doc(best_ms: f64) -> String {
    format!(
        r#"{{"results": [{{"kernel": "gemm", "kind": "ff1", "m": 64, "n": 64, "k": 64,
            "backend": "threaded", "threads": 4, "best_ms": {best_ms}, "gflops": 10.0}}]}}"#
    )
}

/// One e2e document with the single exposed entry: only its step-time
/// ratio can trip the gate.
fn e2e_doc(exposed_step_ms: f64) -> String {
    format!(
        r#"{{"results": [
            {{"threads": 4,
              "step_ms": {exposed_step_ms}, "comm_ms": 50.0, "exposed_comm_ms": 50.0,
              "recompute_ms": 30.0, "exposed_recompute_ms": 30.0}}
        ]}}"#
    )
}

/// One sync-overhead document with a single healthy scenario.
fn sync_doc(best_ms: f64) -> String {
    format!(
        r#"{{"results": [{{"scenario": "all_reduce", "ranks": 4, "rounds": 64,
            "reps": 3, "best_ms": {best_ms}}}]}}"#
    )
}

/// One recovery document with a single healthy, bit-identical scenario.
fn recovery_doc(mttr_ms: f64) -> String {
    format!(
        r#"{{"results": [{{"scenario": "death_t4_to_t2", "reps": 2, "reforms": 1,
            "final_degree": 2, "detect_ms": 1.0, "consensus_ms": 0.1, "reshard_ms": 0.3,
            "replay_ms": 1.5, "mttr_ms": {mttr_ms}, "bit_identical": true}}]}}"#
    )
}

struct Fixture {
    dir: PathBuf,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let dir =
            std::env::temp_dir().join(format!("bench_gate_diff_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create fixture dir");
        Fixture { dir }
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    fn write(&self, name: &str, contents: &str) -> PathBuf {
        let p = self.path(name);
        std::fs::write(&p, contents).expect("write fixture file");
        p
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// `(base, fresh)` (comm_us, recompute_us) pairs for the profile fixtures:
/// which category the fresh profile regresses decides what the diff names.
fn run_gate(
    fx: &Fixture,
    fresh_step_ms: f64,
    base_profile: (f64, f64),
    fresh_profile: (f64, f64),
) -> (std::process::Output, String) {
    let kernels = fx.write("kernels.json", &kernels_doc(1.0));
    let kernels_base = fx.write("kernels_base.json", &kernels_doc(1.0));
    let e2e = fx.write("e2e.json", &e2e_doc(fresh_step_ms));
    let e2e_base = fx.write("e2e_base.json", &e2e_doc(100.0));
    let recovery = fx.write("recovery.json", &recovery_doc(2.9));
    let recovery_base = fx.write("recovery_base.json", &recovery_doc(2.9));
    let sync = fx.write("sync.json", &sync_doc(1.0));
    let sync_base = fx.write("sync_base.json", &sync_doc(1.0));
    let profile = fx.path("profile.json");
    let profile_base = fx.path("profile_base.json");
    write_profile_doc(&profile_base, "exposed", base_profile.0, base_profile.1);
    write_profile_doc(&profile, "exposed", fresh_profile.0, fresh_profile.1);
    let summary = fx.path("summary.md");
    let output = Command::new(env!("CARGO_BIN_EXE_bench_gate"))
        .args([
            "--kernels",
            kernels.to_str().unwrap(),
            "--kernels-baseline",
            kernels_base.to_str().unwrap(),
            "--e2e",
            e2e.to_str().unwrap(),
            "--e2e-baseline",
            e2e_base.to_str().unwrap(),
            "--recovery",
            recovery.to_str().unwrap(),
            "--recovery-baseline",
            recovery_base.to_str().unwrap(),
            "--sync",
            sync.to_str().unwrap(),
            "--sync-baseline",
            sync_base.to_str().unwrap(),
            "--profile",
            profile.to_str().unwrap(),
            "--profile-baseline",
            profile_base.to_str().unwrap(),
        ])
        .env("GITHUB_STEP_SUMMARY", &summary)
        .output()
        .expect("run bench_gate");
    let summary_text = std::fs::read_to_string(&summary).unwrap_or_default();
    (output, summary_text)
}

#[test]
fn forced_regression_fails_with_an_attribution_narrative() {
    let fx = Fixture::new("regress");
    // ×2.0 step slowdown on the exposed config: past the ×1.5 gate. The
    // fresh profile's all-reduce is much longer: the diff must pin the
    // regression on exposed_comm.
    let (output, summary) = run_gate(&fx, 200.0, (10.0, 5.0), (35.0, 5.0));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);

    assert_eq!(output.status.code(), Some(1), "gate must fail\n{stdout}\n{stderr}");
    assert!(stderr.contains("step_ms 200.000 vs baseline 100.000"), "{stderr}");
    assert!(stdout.contains("attribution diff"), "failure must carry the profile diff:\n{stdout}");
    assert!(
        stdout.contains("largest regression: exposed_comm"),
        "diff must name the regressed category:\n{stdout}"
    );
    assert!(
        summary.contains("### attribution diff")
            && summary.contains("largest regression: exposed_comm"),
        "GITHUB_STEP_SUMMARY must carry the narrative too:\n{summary}"
    );
}

#[test]
fn forced_recompute_regression_names_exposed_recompute() {
    let fx = Fixture::new("recompute");
    // Same ×2.0 step slowdown, but this time the fresh profile's inline
    // replay is what grew: the narrative must name exposed_recompute.
    let (output, summary) = run_gate(&fx, 200.0, (10.0, 5.0), (10.0, 40.0));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);

    assert_eq!(output.status.code(), Some(1), "gate must fail\n{stdout}\n{stderr}");
    assert!(
        stdout.contains("largest regression: exposed_recompute"),
        "diff must name the regressed recompute category:\n{stdout}"
    );
    assert!(
        summary.contains("largest regression: exposed_recompute"),
        "GITHUB_STEP_SUMMARY must carry the recompute narrative too:\n{summary}"
    );
}

#[test]
fn healthy_run_passes_without_a_diff() {
    let fx = Fixture::new("healthy");
    let (output, summary) = run_gate(&fx, 100.0, (10.0, 5.0), (10.0, 5.0));
    let stdout = String::from_utf8_lossy(&output.stdout);

    assert_eq!(output.status.code(), Some(0), "gate must pass\n{stdout}");
    assert!(stdout.contains("all checks passed"), "{stdout}");
    assert!(!stdout.contains("attribution diff"), "no diff on the happy path:\n{stdout}");
    assert!(!summary.contains("attribution diff"), "{summary}");
}
