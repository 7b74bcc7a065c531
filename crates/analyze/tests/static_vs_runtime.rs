//! The analyzer's core soundness claim: on every configuration small enough
//! to *execute*, the static programs agree with the running system —
//! activation ledger, communication stats, and iteration peak — and both
//! sides agree on what is broken (a mistagged collective is flagged
//! statically and fails at runtime as `SpmdMismatch`).
//!
//! At paper scale, where nothing can run, `analyze-zoo` checks the same
//! static quantities against the Table 2 closed forms instead; these tests
//! are what entitles it to speak for the runtime.

use mt_analyze::{
    analyze_liveness, analyze_rank_liveness, check_schedule, layer_forward_program, layer_program,
    pipeline_1f1b_program, rank_comm_stats, GroupId, Program, RankProgram, ScheduleFault,
    ScheduleOp,
};
use mt_collectives::{run_grid, CallTag, CollectiveError, CollectiveKind, CommStats, World};
use mt_memory::{ActivationMemoryModel, Recompute, Strategy};
use mt_model::gpt::Gpt;
use mt_model::pipeline_exec::{run_1f1b_iteration, StageModel};
use mt_model::weights::LayerWeights;
use mt_model::{ActivationLedger, Category, ExecMode, TransformerConfig, TransformerLayer};
use mt_tensor::rng::{CounterRng, SplitMix64};
use mt_tensor::Tensor;
use proptest::prelude::*;
use std::time::Duration;

const POLICIES: [Recompute; 3] = [Recompute::None, Recompute::Selective, Recompute::Full];

/// Runs one layer forward + backward on `t` ranks and returns each rank's
/// (cumulative ledger, comm stats).
fn runtime_layer(
    cfg: TransformerConfig,
    t: usize,
    sp: bool,
    policy: Recompute,
) -> Vec<(ActivationLedger, CommStats)> {
    let mut rng = SplitMix64::new(7);
    let full = LayerWeights::init(&cfg, &mut rng);
    let x = Tensor::rand_uniform(&[cfg.tokens(), cfg.hidden], -1.0, 1.0, &mut rng);
    if t == 1 {
        let layer = TransformerLayer::new(cfg, full, 0, policy, CounterRng::new(3));
        let mut ledger = ActivationLedger::new();
        let (y, state) = layer.forward(&x, 0, ExecMode::Serial, &mut ledger);
        let _ = layer.backward(&y, state, ExecMode::Serial);
        vec![(ledger, CommStats::new())]
    } else {
        World::run(t, |comm| {
            let layer = TransformerLayer::new(
                cfg,
                full.shard(t, comm.rank()),
                0,
                policy,
                CounterRng::new(3),
            );
            let mode = if sp {
                ExecMode::TensorSequenceParallel(&comm)
            } else {
                ExecMode::TensorParallel(&comm)
            };
            let x_local =
                if sp { x.chunk_axis0(t).unwrap()[comm.rank()].clone() } else { x.clone() };
            let mut ledger = ActivationLedger::new();
            let (y, state) = layer.forward(&x_local, 0, mode, &mut ledger);
            let _ = layer.backward(&y, state, mode);
            (ledger, comm.stats())
        })
    }
}

/// Per-category element counts, for comparing a record-only runtime ledger
/// with the static cumulative ledger (their live sets differ by design:
/// the static replay frees what the backward consumes).
fn elements(ledger: &ActivationLedger) -> Vec<(Category, u64)> {
    ledger.iter().filter(|(_, e)| *e > 0).collect()
}

/// One config × mode × policy cell of the agreement matrix.
fn assert_layer_agreement(cfg: TransformerConfig, t: usize, sp: bool, policy: Recompute) {
    let what = format!("cfg {cfg:?} t={t} sp={sp} policy={policy:?}");
    let prog = layer_program(&cfg, t, sp, policy);
    assert_eq!(check_schedule(&prog), Ok(()), "{what}: static matching");
    let runtime = runtime_layer(cfg, t, sp, policy);
    for (rank, (rt_ledger, rt_stats)) in runtime.iter().enumerate() {
        let report = analyze_rank_liveness(&prog.ranks[rank]).expect("static liveness");
        // Same stored tensors, category by category.
        assert_eq!(elements(&report.ledger), elements(rt_ledger), "{what}: rank {rank} ledger");
        // Same peak: the runtime ledger is record-only, so its high water is
        // its cumulative total — which the static replay (allocs first, all
        // frees at the end) reproduces exactly.
        assert_eq!(report.peak_bytes, rt_ledger.high_water(), "{what}: rank {rank} peak");
        assert_eq!(report.live_end_bytes, 0, "{what}: rank {rank} leak-free");
        // Same communication, call for call and byte for byte.
        assert_eq!(
            &rank_comm_stats(&prog.ranks[rank], &prog),
            rt_stats,
            "{what}: rank {rank} comm stats"
        );
        // And the paper's closed form agrees with both.
        let analytical =
            ActivationMemoryModel::new(cfg.to_shape(), cfg.micro_batch as u64, t as u64)
                .per_layer_bytes(Strategy { sequence_parallel: sp, recompute: policy });
        assert_eq!(report.ledger.paper_bytes() as f64, analytical, "{what}: Table 2");
    }
}

#[test]
fn layer_static_matches_runtime_across_the_matrix() {
    let configs = [
        TransformerConfig::tiny(),
        TransformerConfig {
            hidden: 48,
            heads: 6,
            seq: 6,
            micro_batch: 3,
            layers: 1,
            vocab: 32,
            dropout_p: 0.0,
            causal: false,
        },
    ];
    for cfg in configs {
        for t in [1usize, 2, 4] {
            if cfg.heads % t != 0 || cfg.seq % t != 0 {
                continue;
            }
            for sp in [false, true] {
                if sp && t == 1 {
                    continue;
                }
                for policy in POLICIES {
                    assert_layer_agreement(cfg, t, sp, policy);
                }
            }
        }
    }
}

/// A dropped collective is caught by both detectors. Statically: removing
/// one rank's final reduce-scatter from the TP+SP forward program leaves
/// the peer blocked in that round — a [`ScheduleFault::Deadlock`]. At
/// runtime: a rank that skips its last collective (but stays alive)
/// strands the peer until its rendezvous deadline fires as
/// [`CollectiveError::Timeout`].
#[test]
fn dropped_collective_deadlocks_statically_and_times_out_at_runtime() {
    let cfg = TransformerConfig::tiny();
    let mut prog = layer_forward_program(&cfg, 2, true, Recompute::None);
    assert_eq!(check_schedule(&prog), Ok(()), "intact program is deadlock-free");
    let ops = &mut prog.ranks[1].ops;
    let last = ops
        .iter()
        .rposition(|op| matches!(op, ScheduleOp::Collective { .. }))
        .expect("program has collectives");
    ops.remove(last);
    match check_schedule(&prog) {
        Err(ScheduleFault::Deadlock { blocked }) => {
            assert_eq!(blocked.len(), 1, "only the stranded peer blocks");
            assert_eq!(blocked[0].0, 0);
            assert!(
                blocked[0].1.contains("reduce_scatter"),
                "wait description names the round: {}",
                blocked[0].1
            );
        }
        other => panic!("expected Deadlock, got {other:?}"),
    }

    // Runtime counterpart: rank 1 gathers once then silently skips the
    // second gather, outliving rank 0's deadline so the failure is a
    // Timeout (not RankDead).
    let mut world = World::new(2);
    world.set_collective_timeout(Duration::from_millis(100));
    let results = world.run_fallible(|c| {
        let shard = Tensor::full(&[4, 2], (c.rank() + 1) as f32);
        c.try_all_gather(&shard)?;
        if c.rank() == 1 {
            std::thread::sleep(Duration::from_millis(400));
            return Ok(());
        }
        c.try_all_gather(&shard)?;
        Ok(())
    });
    assert!(results[1].is_ok(), "the dropping rank itself exits cleanly");
    match &results[0] {
        Err(CollectiveError::Timeout { rank: 0, op: "all_gather", .. }) => {}
        other => panic!("expected Timeout on rank 0, got {other:?}"),
    }
}

fn micro_data(c: &TransformerConfig, n: usize) -> Vec<(Vec<usize>, Vec<usize>)> {
    let mut rng = SplitMix64::new(500);
    (0..n)
        .map(|_| {
            let toks = (0..c.tokens()).map(|_| (rng.next_u64() as usize) % c.vocab).collect();
            let tgts = (0..c.tokens()).map(|_| (rng.next_u64() as usize) % c.vocab).collect();
            (toks, tgts)
        })
        .collect()
}

/// End-to-end 1F1B: the executor's measured per-rank activation peak equals
/// the analyzer's static liveness peak for the identical schedule.
#[test]
fn pipeline_peak_matches_runtime_1f1b() {
    let cfg = TransformerConfig {
        hidden: 32,
        heads: 4,
        seq: 8,
        micro_batch: 1,
        layers: 4,
        vocab: 32,
        dropout_p: 0.1,
        causal: true,
    };
    let (tp, pp, n) = (2usize, 2usize, 3usize);
    let data = micro_data(&cfg, n);
    for sp in [false, true] {
        for policy in POLICIES {
            let gpt = Gpt::init(cfg, policy, 11);
            let measured = run_grid(tp, pp, |g| {
                let model = StageModel::from_gpt(&gpt, pp, g.stage, tp, g.tp_rank, policy);
                run_1f1b_iteration(&model, &g, sp, &data, 0).peak_activation_bytes
            });
            let prog = pipeline_1f1b_program(&cfg, tp, pp, sp, policy, n);
            assert_eq!(check_schedule(&prog), Ok(()), "sp={sp} {policy:?}: matching");
            let reports = analyze_liveness(&prog).expect("static liveness");
            for (rank, peak) in measured.iter().enumerate() {
                assert_eq!(reports[rank].peak_bytes, *peak, "sp={sp} {policy:?}: rank {rank} peak");
                assert_eq!(reports[rank].live_end_bytes, 0, "rank {rank} leak");
            }
        }
    }
}

proptest! {
    /// Random small layer configurations: the static program, the running
    /// system, and the Table 2 closed form agree on every rank.
    #[test]
    fn random_layer_configs_agree(
        head_dim in 1usize..5,
        seq_mult in 1usize..4,
        micro_batch in 1usize..3,
        t_sel in 0usize..2,
        sp_sel in 0usize..2,
        policy_sel in 0usize..3,
        dropout_sel in 0usize..2,
    ) {
        let t = [1usize, 2][t_sel];
        let sp = sp_sel == 1 && t > 1;
        let cfg = TransformerConfig {
            hidden: 4 * head_dim * 4,
            heads: 4,
            seq: 2 * seq_mult * t,
            micro_batch,
            layers: 1,
            vocab: 16,
            dropout_p: if dropout_sel == 1 { 0.1 } else { 0.0 },
            causal: true,
        };
        assert_layer_agreement(cfg, t, sp, POLICIES[policy_sel]);
    }

    /// A corrupted collective is caught by **both** detectors: the static
    /// matcher flags the program, and the runtime fails the exchange with
    /// `CollectiveError::SpmdMismatch` — while the uncorrupted program is
    /// green on both sides.
    #[test]
    fn mistagged_collective_flagged_statically_and_at_runtime(
        base in 2usize..6,
        corrupt_sel in 0usize..2,
    ) {
        let corrupt = corrupt_sel == 1;
        let shape_for = |rank: usize| {
            if corrupt && rank == 1 { vec![base + 1] } else { vec![base] }
        };

        // Static side: two ranks all-reducing, rank 1 possibly mistagged.
        let program = Program {
            tp: 2,
            pp: 1,
            ranks: (0..2)
                .map(|rank| {
                    let shape = shape_for(rank);
                    let elems = shape[0] as u64;
                    RankProgram {
                        rank,
                        ops: vec![ScheduleOp::Collective {
                            group: GroupId::Tp { stage: 0 },
                            kind: CollectiveKind::AllReduce,
                            tag: CallTag { op: "all_reduce", shape, root: None, epoch: 0 },
                            payload_elems: elems,
                        }],
                    }
                })
                .collect(),
        };
        let static_verdict = check_schedule(&program);

        // Runtime side: the same two ranks, the same tensors.
        let mut world = World::new(2);
        world.set_collective_timeout(Duration::from_secs(10));
        let runtime = world.run_fallible(|c| {
            let x = Tensor::full(&shape_for(c.rank()), 1.0);
            c.try_all_reduce(&x).map(|_| ())
        });

        if corrupt {
            prop_assert!(
                matches!(static_verdict, Err(ScheduleFault::SpmdMismatch { .. })),
                "static verdict: {static_verdict:?}"
            );
            for r in &runtime {
                prop_assert!(
                    matches!(r, Err(CollectiveError::SpmdMismatch { .. })),
                    "runtime verdict: {r:?}"
                );
            }
        } else {
            prop_assert_eq!(&static_verdict, &Ok(()));
            for r in &runtime {
                prop_assert!(r.is_ok(), "clean run failed: {r:?}");
            }
        }
    }
}
