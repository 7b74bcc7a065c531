//! CI performance-regression gate: compares fresh `--smoke` benchmark JSON
//! against the checked-in baselines and fails loudly on regression.
//!
//! ```text
//! bench_gate --kernels reports/BENCH_kernels.json \
//!            --kernels-baseline reports/baselines/BENCH_kernels.baseline.json \
//!            --e2e reports/BENCH_e2e.json \
//!            --e2e-baseline reports/baselines/BENCH_e2e.baseline.json \
//!            [--recovery reports/BENCH_recovery.json] \
//!            [--recovery-baseline reports/baselines/BENCH_recovery.baseline.json] \
//!            [--sync reports/BENCH_sync.json] \
//!            [--sync-baseline reports/baselines/BENCH_sync.baseline.json] \
//!            [--profile reports/PROFILE_e2e.json] \
//!            [--profile-baseline reports/baselines/PROFILE_e2e.baseline.json] \
//!            [--max-slowdown 1.25] [--min-gflops-ratio 0.80] [--max-step-slowdown 1.5] \
//!            [--max-mttr-slowdown 3.0] [--max-sync-slowdown 1.5] \
//!            [--min-parallel-speedup 1.3]
//! ```
//!
//! When the gate fails and both profile documents (from
//! `e2e_step_bench --profile`) are readable, the failure is annotated with
//! an `mt-profile` attribution diff: a per-category narrative naming what
//! regressed (exposed comm? gemm? recompute?), on stdout and in the
//! `$GITHUB_STEP_SUMMARY`.
//!
//! Kernel entries are keyed by `(kernel, kind, m, n, k, backend, threads)`
//! and fail when `best_ms` regresses past `--max-slowdown` (default ×1.25)
//! or `gflops` drops below `--min-gflops-ratio` (default ×0.80) of the
//! baseline.
//!
//! The **parallel-speedup invariant** reads the *fresh* kernel report: for
//! every GEMM kind, at that kind's largest benched `m·n·k`, the threaded
//! backend's `best_ms` must beat serial by at least
//! `--min-parallel-speedup` (default ×1.3). A failure names the offending
//! shape on stdout and in `$GITHUB_STEP_SUMMARY`. The check is only
//! meaningful where threads can actually run in parallel, so it is
//! enforced when the fresh report's `available_parallelism` is ≥ 2 and
//! explicitly skipped (with a note) on single-core runners — a speedup
//! demand a single core cannot physically meet would gate nothing but the
//! host type.
//!
//! E2e entries are keyed by `threads` and fail when `step_ms` regresses
//! past `--max-step-slowdown` (default ×1.5 — end-to-end steps on shared
//! CI runners are noisier than microbenches).
//!
//! Recovery entries (from `recovery_bench`) are keyed by `scenario` and
//! fail when `mttr_ms` regresses past `--max-mttr-slowdown` (default ×3.0
//! — millisecond-scale recovery timings include thread spawn and are the
//! noisiest of the suite), when the reform count or final degree drift
//! from the baseline (the scenario changed shape, so the timing is not
//! comparable), or when `bit_identical` is false — an MTTR number for a
//! recovery that corrupts training gates nothing.
//!
//! Sync entries (from `sync_overhead_bench`) are keyed by
//! `scenario`/`ranks`/`rounds` and fail when `best_ms` regresses past
//! `--max-sync-slowdown` (default ×1.5). The checked-in baseline was
//! generated from the pre-`mt-sync` rendezvous (raw `parking_lot` /
//! `crossbeam`), so this section *is* the facade's zero-overhead claim:
//! real builds routing every lock, wait, and channel op through `mt-sync`
//! must stay within noise of the raw primitives.
//!
//! A key present in the baseline but missing from the fresh run (or vice
//! versa) is a failure: silently dropping a benchmark is how regressions
//! hide. A per-entry delta table is printed to stdout and appended to
//! `$GITHUB_STEP_SUMMARY` when that variable is set (GitHub renders it as a
//! Markdown table in the job summary).

use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

struct GateArgs {
    kernels: String,
    kernels_baseline: String,
    e2e: String,
    e2e_baseline: String,
    recovery: String,
    recovery_baseline: String,
    sync: String,
    sync_baseline: String,
    profile: String,
    profile_baseline: String,
    max_slowdown: f64,
    min_gflops_ratio: f64,
    max_step_slowdown: f64,
    max_mttr_slowdown: f64,
    max_sync_slowdown: f64,
    min_parallel_speedup: f64,
}

fn parse_args() -> GateArgs {
    let mut args = GateArgs {
        kernels: "reports/BENCH_kernels.json".to_string(),
        kernels_baseline: "reports/baselines/BENCH_kernels.baseline.json".to_string(),
        e2e: "reports/BENCH_e2e.json".to_string(),
        e2e_baseline: "reports/baselines/BENCH_e2e.baseline.json".to_string(),
        recovery: "reports/BENCH_recovery.json".to_string(),
        recovery_baseline: "reports/baselines/BENCH_recovery.baseline.json".to_string(),
        sync: "reports/BENCH_sync.json".to_string(),
        sync_baseline: "reports/baselines/BENCH_sync.baseline.json".to_string(),
        profile: "reports/PROFILE_e2e.json".to_string(),
        profile_baseline: "reports/baselines/PROFILE_e2e.baseline.json".to_string(),
        max_slowdown: 1.25,
        min_gflops_ratio: 0.80,
        max_step_slowdown: 1.5,
        max_mttr_slowdown: 3.0,
        max_sync_slowdown: 1.5,
        min_parallel_speedup: 1.3,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let Some(value) = argv.get(i + 1) else {
            eprintln!("{flag} requires a value");
            std::process::exit(2);
        };
        match flag {
            "--kernels" => args.kernels = value.clone(),
            "--kernels-baseline" => args.kernels_baseline = value.clone(),
            "--e2e" => args.e2e = value.clone(),
            "--e2e-baseline" => args.e2e_baseline = value.clone(),
            "--recovery" => args.recovery = value.clone(),
            "--recovery-baseline" => args.recovery_baseline = value.clone(),
            "--sync" => args.sync = value.clone(),
            "--sync-baseline" => args.sync_baseline = value.clone(),
            "--profile" => args.profile = value.clone(),
            "--profile-baseline" => args.profile_baseline = value.clone(),
            "--max-slowdown" => args.max_slowdown = parse_f64(flag, value),
            "--min-gflops-ratio" => args.min_gflops_ratio = parse_f64(flag, value),
            "--max-step-slowdown" => args.max_step_slowdown = parse_f64(flag, value),
            "--max-mttr-slowdown" => args.max_mttr_slowdown = parse_f64(flag, value),
            "--max-sync-slowdown" => args.max_sync_slowdown = parse_f64(flag, value),
            "--min-parallel-speedup" => args.min_parallel_speedup = parse_f64(flag, value),
            _ => {
                eprintln!("unknown argument {flag}");
                std::process::exit(2);
            }
        }
        i += 2;
    }
    args
}

fn parse_f64(flag: &str, value: &str) -> f64 {
    value.parse().unwrap_or_else(|_| {
        eprintln!("{flag} requires a number, got {value:?}");
        std::process::exit(2);
    })
}

fn load(path: &str) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_gate: cannot read {path}: {e}");
        std::process::exit(2);
    });
    serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("bench_gate: {path} is not valid JSON: {e}");
        std::process::exit(2);
    })
}

/// `results` array of a bench JSON, keyed by the given fields.
fn index_results(doc: &Value, path: &str, key_fields: &[&str]) -> BTreeMap<String, Value> {
    let results = doc["results"].as_array().unwrap_or_else(|| {
        eprintln!("bench_gate: {path} has no results array");
        std::process::exit(2);
    });
    let mut map = BTreeMap::new();
    for r in results {
        let key: Vec<String> = key_fields.iter().map(|f| r[*f].to_string()).collect();
        map.insert(key.join("/"), r.clone());
    }
    map
}

fn f(v: &Value, field: &str) -> f64 {
    v[field].as_f64().unwrap_or(f64::NAN)
}

fn main() {
    let args = parse_args();
    let mut failures: Vec<String> = Vec::new();
    let mut table = String::new();
    writeln!(table, "| bench | key | baseline | fresh | ratio | verdict |").unwrap();
    writeln!(table, "|---|---|---:|---:|---:|---|").unwrap();

    // --- kernel microbenches ---
    let fresh_kernels_doc = load(&args.kernels);
    let fresh = index_results(
        &fresh_kernels_doc,
        &args.kernels,
        &["kernel", "kind", "m", "n", "k", "backend", "threads"],
    );
    let base = index_results(
        &load(&args.kernels_baseline),
        &args.kernels_baseline,
        &["kernel", "kind", "m", "n", "k", "backend", "threads"],
    );
    compare_keys(&fresh, &base, "kernels", &mut failures);
    for (key, b) in &base {
        let Some(n) = fresh.get(key) else { continue };
        let (b_ms, n_ms) = (f(b, "best_ms"), f(n, "best_ms"));
        let (b_gf, n_gf) = (f(b, "gflops"), f(n, "gflops"));
        let ms_ratio = n_ms / b_ms;
        let gf_ratio = n_gf / b_gf;
        let mut verdict = "ok";
        if ms_ratio.is_nan() || ms_ratio > args.max_slowdown {
            verdict = "FAIL";
            failures.push(format!(
                "kernels {key}: best_ms {n_ms:.3} vs baseline {b_ms:.3} (×{ms_ratio:.2} > ×{})",
                args.max_slowdown
            ));
        }
        if gf_ratio.is_nan() || gf_ratio < args.min_gflops_ratio {
            verdict = "FAIL";
            failures.push(format!(
                "kernels {key}: gflops {n_gf:.2} vs baseline {b_gf:.2} (×{gf_ratio:.2} < ×{})",
                args.min_gflops_ratio
            ));
        }
        writeln!(
            table,
            "| kernels | {key} | {b_ms:.3} ms | {n_ms:.3} ms | ×{ms_ratio:.2} | {verdict} |"
        )
        .unwrap();
    }

    // --- parallel-speedup invariant on the fresh kernel run ---
    // Threading that loses to serial at the biggest benched shapes is a
    // regression even if every per-entry ratio is within its band. Judged
    // only where parallelism physically exists: a single-core runner
    // cannot beat serial with threads, and the report says which kind of
    // host produced it.
    let avail = fresh_kernels_doc["available_parallelism"].as_u64().unwrap_or(1);
    if avail >= 2 {
        let gemm_entries: Vec<&Value> = fresh.values().filter(|r| r["kernel"] == "gemm").collect();
        let dim = |r: &Value, d: &str| r[d].as_u64().unwrap_or(0);
        let mut kinds: Vec<String> =
            gemm_entries.iter().filter_map(|r| r["kind"].as_str().map(String::from)).collect();
        kinds.sort();
        kinds.dedup();
        for kind in kinds {
            let of_kind =
                || gemm_entries.iter().filter(|r| r["kind"].as_str() == Some(kind.as_str()));
            let Some(&largest) = of_kind().max_by_key(|r| dim(r, "m") * dim(r, "n") * dim(r, "k"))
            else {
                continue;
            };
            let (m, n, k) = (dim(largest, "m"), dim(largest, "n"), dim(largest, "k"));
            let at_shape = |backend: &str| {
                of_kind().find(|r| {
                    dim(r, "m") == m
                        && dim(r, "n") == n
                        && dim(r, "k") == k
                        && r["backend"].as_str() == Some(backend)
                })
            };
            let (Some(serial), Some(threaded)) = (at_shape("serial"), at_shape("threaded")) else {
                failures.push(format!(
                    "kernels parallel-speedup: gemm {kind} {m}x{n}x{k} lacks a serial/threaded \
                     entry pair in the fresh run"
                ));
                continue;
            };
            let (s_ms, t_ms) = (f(serial, "best_ms"), f(threaded, "best_ms"));
            let speedup = s_ms / t_ms;
            let verdict =
                if speedup.is_nan() || speedup < args.min_parallel_speedup { "FAIL" } else { "ok" };
            if verdict == "FAIL" {
                // Named on stdout (and via the table in the step summary)
                // so the offending shape is visible without digging through
                // stderr logs.
                println!(
                    "parallel-speedup FAIL: gemm {kind} {m}x{n}x{k}: threaded best_ms {t_ms:.3} \
                     vs serial {s_ms:.3} (×{speedup:.2} < ×{})",
                    args.min_parallel_speedup
                );
                failures.push(format!(
                    "kernels parallel-speedup: gemm {kind} {m}x{n}x{k} threaded ×{speedup:.2} \
                     < required ×{} (serial {s_ms:.3} ms, threaded {t_ms:.3} ms)",
                    args.min_parallel_speedup
                ));
            }
            writeln!(
                table,
                "| kernels parallel | gemm {kind} {m}x{n}x{k} speedup | serial {s_ms:.3} ms | \
                 threaded {t_ms:.3} ms | ×{speedup:.2} | {verdict} |"
            )
            .unwrap();
        }
    } else {
        println!(
            "parallel-speedup check skipped: fresh report ran with available_parallelism = \
             {avail} (single-core host cannot beat serial with threads)"
        );
        writeln!(
            table,
            "| kernels parallel | all kinds | — | — | — | skipped (available_parallelism = \
             {avail}) |"
        )
        .unwrap();
    }

    // --- e2e step bench ---
    let fresh_doc = load(&args.e2e);
    let fresh = index_results(&fresh_doc, &args.e2e, &["threads"]);
    let base = index_results(&load(&args.e2e_baseline), &args.e2e_baseline, &["threads"]);
    compare_keys(&fresh, &base, "e2e", &mut failures);
    for (key, b) in &base {
        let Some(n) = fresh.get(key) else { continue };
        let (b_ms, n_ms) = (f(b, "step_ms"), f(n, "step_ms"));
        let ratio = n_ms / b_ms;
        let mut verdict = "ok";
        if ratio.is_nan() || ratio > args.max_step_slowdown {
            verdict = "FAIL";
            failures.push(format!(
                "e2e {key}: step_ms {n_ms:.3} vs baseline {b_ms:.3} (×{ratio:.2} > ×{})",
                args.max_step_slowdown
            ));
        }
        writeln!(table, "| e2e | {key} | {b_ms:.3} ms | {n_ms:.3} ms | ×{ratio:.2} | {verdict} |")
            .unwrap();
    }

    // --- elastic recovery MTTR ---
    let fresh_recovery = index_results(&load(&args.recovery), &args.recovery, &["scenario"]);
    let base_recovery =
        index_results(&load(&args.recovery_baseline), &args.recovery_baseline, &["scenario"]);
    compare_keys(&fresh_recovery, &base_recovery, "recovery", &mut failures);
    for (key, b) in &base_recovery {
        let Some(n) = fresh_recovery.get(key) else { continue };
        let (b_ms, n_ms) = (f(b, "mttr_ms"), f(n, "mttr_ms"));
        let ratio = n_ms / b_ms;
        let mut verdict = "ok";
        if ratio.is_nan() || ratio > args.max_mttr_slowdown {
            verdict = "FAIL";
            failures.push(format!(
                "recovery {key}: mttr_ms {n_ms:.3} vs baseline {b_ms:.3} (×{ratio:.2} > ×{})",
                args.max_mttr_slowdown
            ));
        }
        // The scenario must keep its shape, or the timing compares apples
        // to oranges.
        for field in ["reforms", "final_degree"] {
            if n[field] != b[field] {
                verdict = "FAIL";
                failures.push(format!(
                    "recovery {key}: {field} changed {} -> {} (scenario shape drifted)",
                    b[field], n[field]
                ));
            }
        }
        // Bit identity is the headline invariant: a fast recovery that
        // perturbs training is not a win.
        if n["bit_identical"] != Value::Bool(true) {
            verdict = "FAIL";
            failures.push(format!(
                "recovery {key}: recovered run is not bit-identical to its planned-resize control"
            ));
        }
        writeln!(
            table,
            "| recovery | {key} mttr | {b_ms:.3} ms | {n_ms:.3} ms | ×{ratio:.2} | {verdict} |"
        )
        .unwrap();
    }

    // --- mt-sync facade overhead ---
    // The baseline predates the facade (raw parking_lot/crossbeam
    // rendezvous), so this ratio is the facade's real-build cost.
    let fresh_sync = index_results(&load(&args.sync), &args.sync, &["scenario", "ranks", "rounds"]);
    let base_sync = index_results(
        &load(&args.sync_baseline),
        &args.sync_baseline,
        &["scenario", "ranks", "rounds"],
    );
    compare_keys(&fresh_sync, &base_sync, "sync", &mut failures);
    for (key, b) in &base_sync {
        let Some(n) = fresh_sync.get(key) else { continue };
        let (b_ms, n_ms) = (f(b, "best_ms"), f(n, "best_ms"));
        let ratio = n_ms / b_ms;
        let mut verdict = "ok";
        if ratio.is_nan() || ratio > args.max_sync_slowdown {
            verdict = "FAIL";
            failures.push(format!(
                "sync {key}: best_ms {n_ms:.3} vs pre-facade baseline {b_ms:.3} \
                 (×{ratio:.2} > ×{} — the mt-sync facade is no longer free)",
                args.max_sync_slowdown
            ));
        }
        writeln!(table, "| sync | {key} | {b_ms:.3} ms | {n_ms:.3} ms | ×{ratio:.2} | {verdict} |")
            .unwrap();
    }

    // On failure, explain the regression: diff the fresh attribution
    // profile against the checked-in baseline and name the category that
    // moved, instead of leaving CI with a bare ratio.
    let mut diff_text = String::new();
    if !failures.is_empty() {
        diff_text = attribution_diff(&args.profile_baseline, &args.profile);
    }

    println!("{table}");
    if !diff_text.is_empty() {
        println!("attribution diff (baseline → fresh):\n{diff_text}");
    }
    if let Ok(summary) = std::env::var("GITHUB_STEP_SUMMARY") {
        use std::io::Write;
        if let Ok(mut file) = std::fs::OpenOptions::new().create(true).append(true).open(summary) {
            let _ = writeln!(file, "## bench gate\n\n{table}");
            if !diff_text.is_empty() {
                let _ = writeln!(file, "### attribution diff\n\n```\n{diff_text}```");
            }
        }
    }
    if failures.is_empty() {
        println!("bench_gate: all checks passed");
    } else {
        eprintln!("bench_gate: {} failure(s):", failures.len());
        for failure in &failures {
            eprintln!("  {failure}");
        }
        std::process::exit(1);
    }
}

/// Per-category profile-diff narrative for the failure path. Missing or
/// malformed profile files degrade to an explanatory note — the gate has
/// already failed; this only affects how much context the failure carries.
fn attribution_diff(baseline_path: &str, fresh_path: &str) -> String {
    let base = match mt_profile::load_profiles(baseline_path) {
        Ok(p) => p,
        Err(e) => return format!("(no baseline attribution profile: {e})\n"),
    };
    let fresh = match mt_profile::load_profiles(fresh_path) {
        Ok(p) => p,
        Err(e) => return format!("(no fresh attribution profile: {e})\n"),
    };
    mt_profile::diff_documents(&base, &fresh)
}

/// Both directions of key coverage: a benchmark that disappears (or a
/// baseline that was never regenerated) is itself a failure.
fn compare_keys(
    fresh: &BTreeMap<String, Value>,
    base: &BTreeMap<String, Value>,
    what: &str,
    failures: &mut Vec<String>,
) {
    for key in base.keys() {
        if !fresh.contains_key(key) {
            failures.push(format!("{what}: baseline key {key} missing from fresh run"));
        }
    }
    for key in fresh.keys() {
        if !base.contains_key(key) {
            failures.push(format!("{what}: fresh key {key} missing from baseline (regenerate it)"));
        }
    }
}
