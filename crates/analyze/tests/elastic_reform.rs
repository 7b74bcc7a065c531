//! The static half of the elastic re-formation proof: the schedule a
//! re-formed world runs at epoch `e+1` is tag-for-tag identical to a fresh
//! world of the same degree — only the epoch coordinate of each tag
//! differs — and a straggler still replaying the old epoch is caught
//! statically as an `SpmdMismatch`, the same fault the runtime raises.
//!
//! Together with `crates/elastic/tests/elastic.rs` (which proves the
//! *numerics* of a recovered run bit-identical to a planned-resize
//! control), this pins the claim that re-formation changes a schedule's
//! identity coordinate and nothing else.

use mt_analyze::{
    check_schedule, layer_program, layer_program_at_epoch, Program, ScheduleFault, ScheduleOp,
};
use mt_memory::Recompute;
use mt_model::TransformerConfig;

fn cfg() -> TransformerConfig {
    TransformerConfig {
        hidden: 16,
        heads: 4,
        seq: 8,
        micro_batch: 2,
        layers: 2,
        vocab: 24,
        dropout_p: 0.1,
        causal: true,
    }
}

/// Strips the epoch coordinate from every collective tag, leaving the
/// structural schedule.
fn at_epoch_zero(mut p: Program) -> Program {
    for rank in &mut p.ranks {
        for op in &mut rank.ops {
            if let ScheduleOp::Collective { tag, .. } = op {
                tag.epoch = 0;
            }
        }
    }
    p
}

/// The re-formed world's program is the fresh program with every tag's
/// epoch rewritten — op for op, across the degrees and policies a reform
/// can land on.
#[test]
fn reformed_schedule_is_a_fresh_schedule_with_the_epoch_rewritten() {
    let c = cfg();
    for t in [1usize, 2, 4] {
        for sp in [false, true] {
            for policy in [Recompute::None, Recompute::Selective, Recompute::Full] {
                let fresh = layer_program(&c, t, sp, policy);
                let reformed = layer_program_at_epoch(&c, t, sp, policy, 3);
                // Every collective carries the new formation's epoch…
                for rank in &reformed.ranks {
                    for op in &rank.ops {
                        if let ScheduleOp::Collective { tag, .. } = op {
                            assert_eq!(
                                tag.epoch, 3,
                                "t={t} sp={sp}: a reformed op kept a stale epoch"
                            );
                        }
                    }
                }
                // …and removing that coordinate recovers the fresh program
                // exactly, op for op.
                assert_eq!(
                    at_epoch_zero(reformed),
                    fresh,
                    "t={t} sp={sp} {policy:?}: reform changed schedule structure"
                );
            }
        }
    }
}

/// A re-formed schedule is self-consistent: every rank of the new
/// formation agrees on every round, so the static matcher passes it just
/// as it passes a fresh one.
#[test]
fn reformed_schedule_passes_the_static_matcher() {
    let c = cfg();
    for epoch in [1u64, 2, 7] {
        let prog = layer_program_at_epoch(&c, 2, true, Recompute::Selective, epoch);
        check_schedule(&prog).expect("re-formed schedule is SPMD-consistent");
    }
}

/// A straggler that re-joins while still replaying the *old* epoch is a
/// static `SpmdMismatch` whose tags differ only in the epoch coordinate —
/// the analyzer's image of the runtime fence that keeps cross-epoch
/// rendezvous from deadlocking or mixing data.
#[test]
fn cross_epoch_straggler_is_a_static_spmd_mismatch() {
    let c = cfg();
    let new = layer_program_at_epoch(&c, 2, true, Recompute::Selective, 2);
    let old = layer_program_at_epoch(&c, 2, true, Recompute::Selective, 1);

    let mut mixed = new.clone();
    mixed.ranks[1] = old.ranks[1].clone();
    let fault = check_schedule(&mixed).expect_err("stale-epoch rank must be fenced out");
    match fault {
        ScheduleFault::SpmdMismatch { expected, found, .. } => {
            assert_ne!(expected.epoch, found.epoch, "the mismatch is the epoch itself");
            assert_eq!(expected.op, found.op, "same op either side — only the epoch diverged");
        }
        other => panic!("expected SpmdMismatch, got {other:?}"),
    }
}
