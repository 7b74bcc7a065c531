//! End-to-end step benchmark of one TP+SP transformer layer, written to
//! `reports/BENCH_e2e.json`.
//!
//! ```text
//! e2e_step_bench [--smoke] [--profile] [--threads N]
//! ```
//!
//! With `--profile`, the best rep is traced and profiled with
//! `mt-profile`: the step-time attribution, cross-rank critical path, and
//! latency histograms land in `reports/PROFILE_e2e.json`, and the run
//! asserts the three-way identities — profiled span args == `StepTiming`
//! ledger == the `exposed_comm_ms` / `exposed_recompute_ms` written to
//! `reports/BENCH_e2e.json` — exactly.
//!
//! Runs one TP+SP transformer layer (forward + backward with selective
//! recompute) on a 2-rank [`World`] with a simulated interconnect
//! ([`World::set_link_cost`]: every collective sleeps its α–β ring time,
//! concurrently on all ranks, exactly as a DMA engine would occupy the
//! wire) and measures:
//!
//! * `step_ms` — best-of-N wall time for the whole step,
//! * `comm_ms` — time spent inside collectives,
//! * `exposed_comm_ms` — the portion on the critical path (all of it: every
//!   collective blocks its rank thread),
//! * `recompute_ms` — time spent replaying checkpointed activations,
//! * `exposed_recompute_ms` — the replay time serialized into the backward
//!   (all of it: every replay runs inline).

use mt_collectives::cost::CommCostModel;
use mt_collectives::World;
use mt_kernels::{set_default_backend, Backend};
use mt_memory::Recompute;
use mt_model::weights::LayerWeights;
use mt_model::{
    take_step_timing, ActivationLedger, ExecMode, StepTiming, TransformerConfig, TransformerLayer,
};
use mt_perf::GpuSpec;
use mt_profile::{analyze, AnalyzeOptions, ExpectedTiming, ProfileDocument, ProfileReport};
use mt_tensor::rng::{CounterRng, SplitMix64};
use mt_tensor::Tensor;
use mt_trace::{TraceEvent, Tracer};
use std::collections::BTreeMap;
use std::time::Instant;

/// v2: adds the `recompute_ms` / `exposed_recompute_ms` columns.
const SCHEMA_VERSION: u64 = 2;
const T: usize = 2;

/// The measured step: best-of-`reps` step time plus the step ledger of
/// the best rep (max over ranks — the critical path).
struct Measured {
    step_ms: f64,
    comm_ms: f64,
    exposed_comm_ms: f64,
    recompute_ms: f64,
    exposed_recompute_ms: f64,
    /// Per-rank `StepTiming` of the selected rep (for `--profile`).
    timings: Vec<StepTiming>,
    /// Trace of the selected rep; empty unless `--profile`.
    events: Vec<TraceEvent>,
}

fn run_step(
    cfg: TransformerConfig,
    threads: usize,
    reps: usize,
    link: CommCostModel,
    profile: bool,
) -> Measured {
    set_default_backend(Backend::Threaded { threads });
    let mut rng = SplitMix64::new(17);
    let full = LayerWeights::init(&cfg, &mut rng);
    let x = Tensor::rand_uniform(&[cfg.tokens(), cfg.hidden], -1.0, 1.0, &mut rng);
    let dy = Tensor::rand_uniform(&[cfg.tokens(), cfg.hidden], -1.0, 1.0, &mut rng);
    let mut best: Option<Measured> = None;
    for _ in 0..reps {
        let mut world = World::new(T);
        world.set_link_cost(link);
        let tracer = profile.then(Tracer::enabled);
        if let Some(t) = &tracer {
            world.set_tracer(t.clone());
        }
        let per_rank = world.run_fallible(|comm| {
            let layer = TransformerLayer::new(
                cfg,
                full.shard(T, comm.rank()),
                0,
                Recompute::Selective,
                CounterRng::new(5),
            );
            let mode = ExecMode::TensorSequenceParallel(&comm);
            let x_local = x.chunk_axis0(T).unwrap()[comm.rank()].clone();
            let dy_local = dy.chunk_axis0(T).unwrap()[comm.rank()].clone();
            let _ = take_step_timing(); // reset this rank thread's ledger
            let t0 = Instant::now();
            let mut ledger = ActivationLedger::new();
            let (_, state) = layer.forward(&x_local, 0, mode, &mut ledger);
            let _ = layer.backward(&dy_local, state, mode);
            let step_us = t0.elapsed().as_secs_f64() * 1e6;
            Ok((step_us, take_step_timing()))
        });
        let per_rank: Vec<_> =
            per_rank.into_iter().map(|r| r.expect("bench step failed")).collect();
        let max_ms = |f: &dyn Fn(&StepTiming) -> u64| {
            per_rank.iter().map(|(_, t)| f(t) as f64).fold(0.0, f64::max) / 1e3
        };
        let step_ms = per_rank.iter().map(|(us, _)| *us).fold(0.0, f64::max) / 1e3;
        let comm_ms = max_ms(&|t| t.comm_us);
        let exposed_ms = max_ms(&|t| t.exposed_us);
        let recompute_ms = max_ms(&|t| t.recompute_us);
        let exposed_recompute_ms = max_ms(&|t| t.exposed_recompute_us);
        let timings: Vec<StepTiming> = per_rank.iter().map(|(_, t)| *t).collect();
        // Select by the gated metric — total exposure (comm + recompute),
        // not the rep that happened to have the fastest wall clock
        // (scheduler noise on an oversubscribed host makes those different
        // reps).
        let exposure = exposed_ms + exposed_recompute_ms;
        if best.as_ref().is_none_or(|b| exposure < b.exposed_comm_ms + b.exposed_recompute_ms) {
            best = Some(Measured {
                step_ms,
                comm_ms,
                exposed_comm_ms: exposed_ms,
                recompute_ms,
                exposed_recompute_ms,
                timings,
                events: tracer.map(|t| t.events()).unwrap_or_default(),
            });
        }
    }
    best.expect("at least one rep")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let profile = args.iter().any(|a| a == "--profile");
    // Two kernel workers per rank by default: the harness already runs
    // `T = 2` rank threads, so higher worker counts oversubscribe small CI
    // hosts badly enough that rendezvous skew — each rank thread waiting
    // to be rescheduled among the other rank's workers — dominates the
    // step.
    let mut threads = 2usize;
    if let Some(i) = args.iter().position(|a| a == "--threads") {
        threads = args.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("--threads requires a positive integer");
            std::process::exit(2);
        });
    }
    if let Some(bad) = args
        .iter()
        .enumerate()
        .find(|(i, a)| {
            a.as_str() != "--smoke"
                && a.as_str() != "--profile"
                && a.as_str() != "--threads"
                && !(*i > 0 && args[i - 1] == "--threads")
        })
        .map(|(_, a)| a)
    {
        eprintln!(
            "unknown argument {bad}\nusage: e2e_step_bench [--smoke] [--profile] [--threads N]"
        );
        std::process::exit(2);
    }

    let reps = 5usize;
    // Sized so the TP GEMMs that consume each gathered activation run for
    // ~15–20 ms with the packed SIMD microkernel, the same order as the
    // link time of the gather that feeds them.
    let cfg = if smoke {
        TransformerConfig {
            hidden: 512,
            heads: 8,
            seq: 512,
            micro_batch: 2,
            layers: 1,
            vocab: 64,
            dropout_p: 0.1,
            causal: true,
        }
    } else {
        TransformerConfig {
            hidden: 640,
            heads: 10,
            seq: 640,
            micro_batch: 2,
            layers: 1,
            vocab: 64,
            dropout_p: 0.1,
            causal: true,
        }
    };
    // A deliberately slow link so each gather's wire time is the same
    // order as the GEMM that consumes it (a 2 MB gather at 100 MB/s ≈
    // 20 ms, against ~16–21 ms consuming GEMMs): communication is a
    // visible share of the step.
    let link = CommCostModel { alpha_s: 5e-6, beta_bytes_per_s: 100e6 };

    println!(
        "e2e_step_bench: {} mode, t={T}, threads={threads}, best of {reps}, \
         link α={}s β={} B/s",
        if smoke { "smoke" } else { "full" },
        link.alpha_s,
        link.beta_bytes_per_s,
    );

    let m = run_step(cfg, threads, reps, link, profile);
    println!(
        "  exposed step {:>9.3} ms  comm {:>9.3} ms  exposed {:>9.3} ms  \
         recompute {:>9.3} ms  exposed recompute {:>9.3} ms",
        m.step_ms, m.comm_ms, m.exposed_comm_ms, m.recompute_ms, m.exposed_recompute_ms
    );
    let result = serde_json::json!({
        "policy": "exposed",
        "chunks": 1,
        "threads": threads,
        "reps": reps,
        "step_ms": m.step_ms,
        "comm_ms": m.comm_ms,
        "exposed_comm_ms": m.exposed_comm_ms,
        "recompute_ms": m.recompute_ms,
        "exposed_recompute_ms": m.exposed_recompute_ms,
    });

    let mut profiles: BTreeMap<String, ProfileReport> = BTreeMap::new();
    if profile {
        // Profile the exact rep the benchmark reports: the analysis
        // enforces attribution==wall, ledger equality, and the
        // critical-path telescope; on top, assert the three-way identities
        // — trace span args == StepTiming ledger == the exposed_comm_ms /
        // exposed_recompute_ms written to BENCH_e2e.json. The kernels run
        // on this CPU, so the divergence section prices them with the
        // reference CPU spec.
        let opts = AnalyzeOptions {
            label: "exposed".to_string(),
            link: Some(link),
            gpu: Some(GpuSpec::reference_cpu()),
            hidden: cfg.hidden as u64,
            expected_ledger: m
                .timings
                .iter()
                .enumerate()
                .map(|(rank, t)| {
                    (
                        rank as u32,
                        ExpectedTiming {
                            comm_us: t.comm_us,
                            exposed_us: t.exposed_us,
                            recompute_us: t.recompute_us,
                            exposed_recompute_us: t.exposed_recompute_us,
                        },
                    )
                })
                .collect(),
        };
        let report = analyze(&m.events, &opts).expect("profile analysis of the best rep");
        assert_eq!(
            report.max_wrapped_exposed_us() as f64 / 1e3,
            m.exposed_comm_ms,
            "profiled exposed comm must equal the benched exposed_comm_ms"
        );
        assert_eq!(
            report.max_wrapped_comm_us() as f64 / 1e3,
            m.comm_ms,
            "profiled total comm must equal the benched comm_ms"
        );
        assert_eq!(
            report.max_wrapped_recompute_us() as f64 / 1e3,
            m.recompute_ms,
            "profiled recompute must equal the benched recompute_ms"
        );
        assert_eq!(
            report.max_wrapped_exposed_recompute_us() as f64 / 1e3,
            m.exposed_recompute_ms,
            "profiled exposed recompute must equal the benched exposed_recompute_ms"
        );
        profiles.insert("exposed".to_string(), report);
    }

    let doc = serde_json::json!({
        "schema_version": SCHEMA_VERSION,
        "generated_by": "e2e_step_bench",
        "smoke": smoke,
        "t": T,
        "threads": threads,
        "hidden": cfg.hidden,
        "seq": cfg.seq,
        "micro_batch": cfg.micro_batch,
        "link_alpha_s": link.alpha_s,
        "link_beta_bytes_per_s": link.beta_bytes_per_s,
        "available_parallelism": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "results": [result],
    });
    std::fs::create_dir_all("reports").expect("create reports/");
    std::fs::write(
        "reports/BENCH_e2e.json",
        serde_json::to_string_pretty(&doc).expect("serialize"),
    )
    .expect("write reports/BENCH_e2e.json");
    println!("\nwrote reports/BENCH_e2e.json");

    if profile {
        let doc = ProfileDocument::new(profiles);
        std::fs::write("reports/PROFILE_e2e.json", doc.to_json())
            .expect("write reports/PROFILE_e2e.json");
        println!(
            "wrote reports/PROFILE_e2e.json ({} profiles, exposed-comm identity checked)",
            doc.profiles.len()
        );
    }
}
