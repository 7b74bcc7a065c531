//! End-to-end exactness contract of `mt-profile` on a real traced TP+SP
//! step: category nanoseconds sum to the wall time, the wrapped-comm and
//! wrapped-recompute span args reproduce the `StepTiming` ledger integer
//! for integer, the cross-rank critical path telescopes to the step wall,
//! and the report survives a JSON round trip with `verify` still passing.

use mt_collectives::World;
use mt_memory::Recompute;
use mt_model::weights::LayerWeights;
use mt_model::{
    take_step_timing, ActivationLedger, ExecMode, StepTiming, TransformerConfig, TransformerLayer,
};
use mt_profile::{analyze, verify, AnalyzeOptions, ExpectedTiming, ProfileDocument, ProfileReport};
use mt_tensor::rng::{CounterRng, SplitMix64};
use mt_tensor::Tensor;
use mt_trace::Tracer;
use std::collections::BTreeMap;

const T: usize = 2;

fn config() -> TransformerConfig {
    TransformerConfig {
        hidden: 32,
        heads: 4,
        seq: 16,
        micro_batch: 2,
        layers: 1,
        vocab: 64,
        dropout_p: 0.0,
        causal: true,
    }
}

/// Runs one traced layer forward+backward and returns the events plus each
/// rank's `StepTiming` ledger.
fn traced_step() -> (Vec<mt_trace::TraceEvent>, Vec<StepTiming>) {
    let cfg = config();
    let tracer = Tracer::enabled();
    let mut rng = SplitMix64::new(17);
    let full = LayerWeights::init(&cfg, &mut rng);
    let x = Tensor::rand_uniform(&[cfg.tokens(), cfg.hidden], -1.0, 1.0, &mut rng);
    let dy = Tensor::rand_uniform(&[cfg.tokens(), cfg.hidden], -1.0, 1.0, &mut rng);
    let mut world = World::new(T);
    world.set_tracer(tracer.clone());
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
        let _ = take_step_timing();
        let mut ledger = ActivationLedger::new();
        let (_y, state) = layer.forward(&x_local, 0, mode, &mut ledger);
        let _ = layer.backward(&dy_local, state, mode);
        Ok(take_step_timing())
    });
    let timings = per_rank.into_iter().map(|r| r.expect("step failed")).collect();
    (tracer.events(), timings)
}

fn ledger_map(timings: &[StepTiming]) -> BTreeMap<u32, ExpectedTiming> {
    timings
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
        .collect()
}

fn analyze_with_ledger(
    events: &[mt_trace::TraceEvent],
    timings: &[StepTiming],
    label: &str,
) -> ProfileReport {
    let opts = AnalyzeOptions {
        label: label.to_string(),
        expected_ledger: ledger_map(timings),
        ..Default::default()
    };
    analyze(events, &opts).expect("analysis upholds every exact invariant")
}

#[test]
fn exposed_step_attribution_is_exact_and_matches_the_ledger() {
    let (events, timings) = traced_step();
    let report = analyze_with_ledger(&events, &timings, "exposed");

    assert_eq!(report.ranks.len(), T);
    for (rank, profile) in report.ranks.values().enumerate() {
        // analyze() already errored if these failed; restate the contract.
        assert_eq!(profile.categories.total(), report.step_wall_ns);
        assert_eq!(profile.wrapped_comm_us, timings[rank].comm_us);
        assert_eq!(profile.wrapped_exposed_us, timings[rank].exposed_us);
        assert_eq!(profile.wrapped_recompute_us, timings[rank].recompute_us);
        assert_eq!(profile.wrapped_exposed_recompute_us, timings[rank].exposed_recompute_us);
        assert!(profile.categories.exposed_comm > 0, "TP+SP step must expose comm");
        assert!(profile.categories.exposed_recompute > 0, "selective recompute must show up");
        // Every collective and replay blocks the rank: nothing is hidden.
        assert_eq!(timings[rank].exposed_us, timings[rank].comm_us);
        assert_eq!(timings[rank].exposed_recompute_us, timings[rank].recompute_us);
    }
    assert_eq!(report.critical_path.total_ns, report.step_wall_ns, "path telescopes");
    assert_eq!(
        report.critical_path.categories.total(),
        report.step_wall_ns,
        "path attribution is exact too"
    );
}

#[test]
fn a_doctored_ledger_fails_analysis() {
    let (events, timings) = traced_step();
    let mut ledger = ledger_map(&timings);
    ledger.get_mut(&0).unwrap().exposed_us += 1; // one microsecond of drift
    let opts = AnalyzeOptions {
        label: "doctored".to_string(),
        expected_ledger: ledger,
        ..Default::default()
    };
    let err = analyze(&events, &opts).unwrap_err();
    assert!(err.contains("ledger check failed"), "wrong error: {err}");
}

#[test]
fn report_survives_a_json_round_trip_and_verify_catches_corruption() {
    let (events, timings) = traced_step();
    let report = analyze_with_ledger(&events, &timings, "roundtrip");

    let doc = ProfileDocument::new(BTreeMap::from([(report.label.clone(), report.clone())]));
    let back: ProfileDocument = serde_json::from_str(&doc.to_json()).expect("document round-trips");
    let restored = &back.profiles["roundtrip"];
    assert_eq!(restored.step_wall_ns, report.step_wall_ns);
    assert_eq!(restored.ranks, report.ranks);
    verify(restored).expect("restored report still verifies");

    let mut corrupted = restored.clone();
    corrupted.ranks.get_mut("0").unwrap().categories.gemm += 1;
    let err = verify(&corrupted).unwrap_err();
    assert!(err.contains("categories sum"), "wrong error: {err}");
}
