//! `profile-report`: the `mt-profile` driver.
//!
//! ```text
//! profile-report [--smoke] [--out DIR]   # trace a TP+SP step and profile it
//! profile-report --check <PROFILE.json>  # re-verify every exact invariant
//! profile-report --diff <base> <fresh>   # per-category delta narrative
//! ```
//!
//! The default (`--smoke`) mode runs one traced 2-rank trainer step
//! (forward, backward with selective recompute, optimizer) over a
//! simulated α–β link, profiles it, and hard-asserts the exact invariants
//! before writing anything:
//!
//! * per rank, category nanoseconds sum to the step wall time;
//! * the trace's wrapped-comm and wrapped-recompute close-args equal the
//!   rank's `StepTiming` ledger integer for integer;
//! * the cross-rank critical path telescopes to the step wall exactly;
//! * the profile shows nonzero exposed comm, exposed recompute and
//!   optimizer time — the categories the paper's accounting turns on.
//!
//! Outputs `DIR/PROFILE_step.json` (schema in [`ProfileDocument`]) and
//! `DIR/PROFILE_step.txt` (the ASCII rendering, also printed to stdout).
//! `--check` is the CI smoke gate: it deserializes a document and re-runs
//! [`mt_profile::verify`] on every profile. `--diff` prints the
//! [`mt_profile::narrative`] comparison `bench_gate` shows on failure.

use mt_collectives::cost::CommCostModel;
use mt_collectives::World;
use mt_kernels::{set_default_backend, Backend};
use mt_memory::Recompute;
use mt_model::gpt::Gpt;
use mt_model::trainer::{Trainer, TrainerConfig};
use mt_model::{ExecMode, StepTiming, TransformerConfig};
use mt_perf::GpuSpec;
use mt_profile::{
    analyze, diff_documents, load_profiles, render_ascii, verify, AnalyzeOptions, ProfileDocument,
    ProfileReport,
};
use mt_tensor::rng::SplitMix64;
use mt_trace::Tracer;
use std::collections::BTreeMap;
use std::path::Path;

const T: usize = 2;
const SEED: u64 = 1234;

/// The tiny-GPT config the repo's traced examples train for real.
fn config() -> TransformerConfig {
    TransformerConfig {
        hidden: 32,
        heads: 4,
        seq: 16,
        micro_batch: 2,
        layers: 2,
        vocab: 64,
        dropout_p: 0.1,
        causal: true,
    }
}

fn data(cfg: &TransformerConfig) -> (Vec<usize>, Vec<usize>) {
    let mut rng = SplitMix64::new(99);
    let n = cfg.tokens();
    let tokens: Vec<usize> = (0..n).map(|_| (rng.next_u64() as usize) % cfg.vocab).collect();
    let mut targets = tokens.clone();
    targets.rotate_left(cfg.micro_batch);
    (tokens, targets)
}

/// One traced trainer step (forward + selective-recompute backward +
/// optimizer) on a 2-rank TP+SP world over a slow link. The kernels run on
/// this CPU, so the divergence section prices them with the reference CPU
/// spec.
fn profile_trainer_step(label: &str, link: CommCostModel) -> ProfileReport {
    let cfg = config();
    let policy = Recompute::Selective;
    let tracer = Tracer::enabled();
    let template = Gpt::init(cfg, policy, SEED);
    let (tokens, targets) = data(&cfg);
    let mut world = World::new(T);
    world.set_link_cost(link);
    world.set_tracer(tracer.clone());
    let per_rank = world.run_fallible(|comm| {
        let mut trainer =
            Trainer::new(template.shard(T, comm.rank(), policy), TrainerConfig::default());
        let mode = ExecMode::TensorSequenceParallel(&comm);
        let (_, _, timing) = trainer.step_with_ledger(&tokens, &targets, mode);
        Ok(timing)
    });
    let timings: Vec<StepTiming> =
        per_rank.into_iter().map(|r| r.expect("trainer step failed")).collect();
    let opts = AnalyzeOptions {
        label: label.to_string(),
        link: Some(link),
        gpu: Some(GpuSpec::reference_cpu()),
        hidden: cfg.hidden as u64,
        expected_ledger: (0..).zip(timings).collect(),
    };
    analyze(&tracer.events(), &opts).expect("trainer-step profile analysis")
}

fn smoke(out_dir: &str) {
    set_default_backend(Backend::Threaded { threads: 4 });
    // The e2e bench's deliberately slow link: communication and compute the
    // same order of magnitude, so every category is visibly populated.
    let link = CommCostModel { alpha_s: 5e-6, beta_bytes_per_s: 8e6 };

    println!(
        "profile-report: tiny GPT (h=32 a=4 s=16 b=2 L=2 v=64), t={T}, \
         link α={}s β={} B/s\n",
        link.alpha_s, link.beta_bytes_per_s
    );

    let trainer = profile_trainer_step("trainer_step_exposed", link);

    // `analyze` already enforced attribution==wall, ledger equality, and
    // critical-path telescoping; assert the workload actually exercised
    // the categories the smoke exists to cover.
    let cats = trainer.max_categories();
    assert!(cats.exposed_recompute > 0, "trainer profile must show exposed recompute: {cats:?}");
    assert!(cats.optimizer > 0, "trainer profile must show optimizer time: {cats:?}");
    assert!(cats.exposed_comm > 0, "trainer profile must show exposed comm: {cats:?}");
    assert!(
        trainer.max_wrapped_recompute_us() > 0,
        "selective recompute must mirror a nonzero recompute ledger"
    );
    assert!(trainer.max_wrapped_comm_us() > 0, "TP+SP must mirror a nonzero comm ledger");

    let mut text = render_ascii(&trainer);
    text.push('\n');
    print!("{text}");
    let profiles = BTreeMap::from([(trainer.label.clone(), trainer)]);

    let doc = ProfileDocument::new(profiles);
    std::fs::create_dir_all(out_dir).expect("create reports dir");
    let json_path = Path::new(out_dir).join("PROFILE_step.json");
    let txt_path = Path::new(out_dir).join("PROFILE_step.txt");
    std::fs::write(&json_path, doc.to_json()).expect("write profile json");
    std::fs::write(&txt_path, &text).expect("write profile text");
    println!("wrote {} and {}", json_path.display(), txt_path.display());
}

fn check(path: &str) {
    let profiles = match load_profiles(path) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("profile-report --check: {e}");
            std::process::exit(1);
        }
    };
    if profiles.is_empty() {
        eprintln!("profile-report --check: {path} contains no profiles");
        std::process::exit(1);
    }
    for (label, report) in &profiles {
        if let Err(e) = verify(report) {
            eprintln!("profile-report --check: {path} profile {label:?}: {e}");
            std::process::exit(1);
        }
        println!(
            "{label}: {} rank(s), step {:.3} ms, attribution exact, critical path exact ✓",
            report.ranks.len(),
            report.step_wall_ns as f64 / 1e6
        );
    }
    println!("{path}: all {} profile(s) verified", profiles.len());
}

fn diff(base_path: &str, fresh_path: &str) {
    let base = load_profiles(base_path).unwrap_or_else(|e| {
        eprintln!("profile-report --diff: {e}");
        std::process::exit(1);
    });
    let fresh = load_profiles(fresh_path).unwrap_or_else(|e| {
        eprintln!("profile-report --diff: {e}");
        std::process::exit(1);
    });
    print!("{}", diff_documents(&base, &fresh));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--check") => {
            let Some(path) = args.get(1) else {
                eprintln!("usage: profile-report --check <PROFILE.json>");
                std::process::exit(2);
            };
            check(path);
        }
        Some("--diff") => {
            let (Some(base), Some(fresh)) = (args.get(1), args.get(2)) else {
                eprintln!("usage: profile-report --diff <base.json> <fresh.json>");
                std::process::exit(2);
            };
            diff(base, fresh);
        }
        None | Some("--smoke") => {
            let mut out_dir = "reports".to_string();
            if let Some(i) = args.iter().position(|a| a == "--out") {
                out_dir = args.get(i + 1).cloned().unwrap_or_else(|| {
                    eprintln!("--out requires a directory");
                    std::process::exit(2);
                });
            }
            smoke(&out_dir);
        }
        Some(other) => {
            eprintln!(
                "unknown argument {other}\n\
                 usage: profile-report [--smoke] [--out DIR] | --check <json> | --diff <a> <b>"
            );
            std::process::exit(2);
        }
    }
}
