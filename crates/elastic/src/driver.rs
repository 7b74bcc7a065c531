//! The elastic training driver: run checkpoint-delimited segments under
//! [`World::run_fallible`], restoring the last committed checkpoint and
//! replaying on any failure. When a rank *dies* (rather than failing
//! transiently), re-form the world at a smaller tensor-parallel degree
//! with the survivors instead of retrying at the original width.
//!
//! The recovery sequence after a death is:
//!
//! 1. **detect** — the failed attempt's [`World::run_fallible`] returns;
//!    dead ranks are read off the [`CollectiveError::RankDead`] errors.
//! 2. **consensus** — a fresh world at `epoch + 1` and the survivor
//!    degree runs [`epoch_consensus`] as its first collective, agreeing
//!    on the resume step and fencing out stale-epoch stragglers.
//! 3. **reshard** — [`reshard_checkpoints`] gathers the `t` checkpoint
//!    shards and re-splits them for `t′` ranks, bit-exactly.
//! 4. **replay** — the failed segment re-runs at the new degree from the
//!    re-sharded checkpoints.
//!
//! Transient failures ([`CollectiveError::InjectedTransient`], timeouts
//! with no death behind them) replay at the *same* degree and epoch. The
//! fault plan is installed on training worlds only; the consensus round
//! is recovery control plane and runs unfaulted.

use crate::mttr::{clock, MttrBreakdown};
use crate::reform::{epoch_consensus, survivor_degree, ConsensusError};
use crate::reshard::{reshard_checkpoints, ReshardError};
use mt_collectives::{CollectiveError, World, DEFAULT_COLLECTIVE_TIMEOUT};
use mt_fault::{FaultAction, FaultPlan};
use mt_memory::Recompute;
use mt_model::gpt::Gpt;
use mt_model::trainer::{StepStats, Trainer, TrainerCheckpoint, TrainerConfig};
use mt_model::ExecMode;
use mt_trace::ArgValue;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// A voluntary degree change: when training reaches committed step
/// `at_step`, the world re-forms at `degree` through the *same*
/// consensus + re-shard path a rank death triggers — just without a
/// death. A fault-free run with the planned resizes matching a recovered
/// run's reforms is the bit-identity control for that recovery: if the
/// recovery machinery adds any numerical perturbation at all, the two
/// runs diverge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedResize {
    /// Committed step (a segment boundary) the resize happens at.
    pub at_step: u64,
    /// Tensor-parallel degree to re-form at (may grow or shrink).
    pub degree: usize,
}

/// Knobs for [`train_elastic`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElasticConfig {
    /// Total training steps to complete.
    pub total_steps: u64,
    /// Steps between checkpoints (segment length).
    pub checkpoint_every: u64,
    /// Failed segment attempts tolerated — reforms and same-degree
    /// retries both draw from this budget — before giving up.
    pub max_failures: u32,
    /// Rendezvous deadline installed on each attempt's world. This is
    /// also the detection latency bound: a peer of a dead rank learns of
    /// the death no later than its next rendezvous deadline.
    pub collective_timeout: Duration,
    /// Voluntary degree changes, sorted by step; entries sharing a step
    /// apply in order. Each `at_step` must be a multiple of
    /// `checkpoint_every` (resizes happen at checkpoint boundaries, where
    /// a consistent state exists to re-shard).
    pub planned: Vec<PlannedResize>,
}

impl ElasticConfig {
    /// A config for `total_steps` with checkpoints every 4 steps, 4
    /// tolerated failures, the default collective timeout, and no planned
    /// resizes.
    pub fn new(total_steps: u64) -> Self {
        ElasticConfig {
            total_steps,
            checkpoint_every: 4,
            max_failures: 4,
            collective_timeout: DEFAULT_COLLECTIVE_TIMEOUT,
            planned: Vec::new(),
        }
    }
}

/// One world re-formation: who died, what the world shrank to, and what
/// the recovery cost, phase by phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReformRecord {
    /// Epoch of the *new* formation (old epoch + 1).
    pub epoch: u64,
    /// Tensor-parallel degree before the death.
    pub from_degree: usize,
    /// Survivor degree the world re-formed at.
    pub to_degree: usize,
    /// Ranks (in the old formation's numbering) that died. Empty for a
    /// [`PlannedResize`] — the reform was voluntary.
    pub dead_ranks: Vec<usize>,
    /// Committed step the survivors resumed from.
    pub resume_step: u64,
    /// Wall-clock cost of this recovery. `replay` is filled in when the
    /// re-formed world commits its first segment; if further faults land
    /// during replay, it covers the attempt that finally committed.
    pub mttr: MttrBreakdown,
}

/// What happened across an elastic run.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticReport {
    /// Per-step diagnostics from rank 0 of whichever formation committed
    /// the step, for all `total_steps` steps.
    pub stats: Vec<StepStats>,
    /// Every world re-formation, in order.
    pub reforms: Vec<ReformRecord>,
    /// Same-degree replays of transient failures (no death involved).
    pub retries: u32,
    /// Human-readable description of each recovered failure.
    pub failures: Vec<String>,
    /// Tensor-parallel degree the run finished at.
    pub final_degree: usize,
    /// Epoch the run finished at (`reforms.len()` as u64).
    pub final_epoch: u64,
}

/// Terminal failure of [`train_elastic`].
#[derive(Debug, Clone, PartialEq)]
pub enum ElasticError {
    /// The failure budget ran out.
    Exhausted {
        /// Descriptions of every failed attempt, in order.
        failures: Vec<String>,
    },
    /// Every rank died — there is no degree left to re-form at.
    NoSurvivors {
        /// Descriptions of every failed attempt, in order.
        failures: Vec<String>,
    },
    /// The survivors could not agree on where to resume.
    Consensus(String),
    /// The checkpoints could not be re-sharded to the survivor degree.
    Reshard(ReshardError),
}

impl fmt::Display for ElasticError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElasticError::Exhausted { failures } => {
                write!(f, "failure budget exhausted after {} failures", failures.len())?;
                match failures.last() {
                    Some(last) => write!(f, ": {last}"),
                    None => Ok(()),
                }
            }
            ElasticError::NoSurvivors { failures } => {
                write!(f, "no survivors to re-form with after {} failures", failures.len())
            }
            ElasticError::Consensus(msg) => write!(f, "epoch consensus failed: {msg}"),
            ElasticError::Reshard(e) => write!(f, "checkpoint re-shard failed: {e}"),
        }
    }
}

impl std::error::Error for ElasticError {}

/// Trains `init` for `ec.total_steps` steps starting at `tp` tensor-
/// parallel ranks, shrinking the world to the survivors whenever a rank
/// dies. Returns the per-rank trained shards at the **final** degree
/// (the full model when that degree is 1) and a report of every reform.
///
/// `data(step)` must be a pure function of the step number so a replayed
/// segment — possibly at a different degree — sees identical batches.
/// Because checkpoints capture training state bit-exactly, re-sharding
/// is copy-only, and the math is degree-invariant, the recovered run's
/// losses and final unsharded weights are `to_bits`-identical to a
/// fault-free run of the same total steps (see `tests/elastic.rs`).
///
/// # Errors
///
/// [`ElasticError::Exhausted`] once `ec.max_failures` failed attempts
/// are spent, [`ElasticError::NoSurvivors`] when every rank has died,
/// and [`ElasticError::Consensus`] / [`ElasticError::Reshard`] when a
/// re-formation itself fails.
///
/// # Panics
///
/// Panics if `tp == 0`, `ec.checkpoint_every == 0`, or the model/config
/// are invalid for `tp`-way sharding.
pub fn train_elastic<F>(
    init: &Gpt,
    tp: usize,
    policy: Recompute,
    cfg: TrainerConfig,
    ec: &ElasticConfig,
    plan: Arc<FaultPlan>,
    data: F,
) -> Result<(Vec<Gpt>, ElasticReport), ElasticError>
where
    F: Fn(u64) -> (Vec<usize>, Vec<usize>) + Sync,
{
    assert!(tp > 0, "tensor-parallel degree must be at least 1");
    assert!(ec.checkpoint_every > 0, "checkpoint_every must be at least 1");
    let model_cfg = init.config();
    for (i, p) in ec.planned.iter().enumerate() {
        assert!(
            p.at_step % ec.checkpoint_every == 0 && p.at_step < ec.total_steps,
            "planned resize at step {} is not a reachable checkpoint boundary",
            p.at_step
        );
        assert!(
            i == 0 || ec.planned[i - 1].at_step <= p.at_step,
            "planned resizes must be sorted by step"
        );
        model_cfg.validate(p.degree);
    }
    let mut degree = tp;
    let mut epoch = 0u64;
    let mut ckpts: Vec<TrainerCheckpoint> = (0..tp)
        .map(|rank| {
            let model = if tp == 1 { init.clone() } else { init.shard(tp, rank, policy) };
            Trainer::new(model, cfg).save_checkpoint()
        })
        .collect();
    let mut report = ElasticReport {
        stats: Vec::new(),
        reforms: Vec::new(),
        retries: 0,
        failures: Vec::new(),
        final_degree: tp,
        final_epoch: 0,
    };
    // Index into `report.reforms` whose replay clock is still open.
    let mut pending_replay: Option<usize> = None;
    let mut next_planned = 0usize;
    let mut done = 0u64;
    while done < ec.total_steps {
        // Voluntary resizes scheduled at this boundary go through the
        // exact reform path a death takes (consensus at epoch+1, then
        // re-shard) — there is just nothing to detect or replay.
        while next_planned < ec.planned.len() && ec.planned[next_planned].at_step == done {
            let target = ec.planned[next_planned].degree;
            next_planned += 1;
            if target == degree {
                continue;
            }
            let (new_ckpts, record) = perform_reform(
                &ckpts,
                Vec::new(),
                degree,
                target,
                done,
                Duration::ZERO,
                epoch,
                ec,
            )?;
            ckpts = new_ckpts;
            report.reforms.push(record);
            degree = target;
            epoch += 1;
        }
        let seg_end = (done + ec.checkpoint_every).min(ec.total_steps);
        let attempt_start = clock();
        let mut world = World::new(degree);
        world.set_epoch(epoch);
        world.set_collective_timeout(ec.collective_timeout);
        world.set_fault_plan(Arc::clone(&plan));
        let ckpts_ref = &ckpts;
        let plan_ref = &plan;
        let data_ref = &data;
        let t = degree;
        let results = world.run_fallible(|comm| {
            let rank = comm.rank();
            let mut trainer = Trainer::resume_from(ckpts_ref[rank].clone())
                .expect("in-memory checkpoint is valid");
            let mut seg_stats = Vec::with_capacity((seg_end - done) as usize);
            for step in done..seg_end {
                gate_step(plan_ref, rank, step)?;
                let (tokens, targets) = data_ref(step);
                let stats = if t == 1 {
                    trainer.step(&tokens, &targets, ExecMode::Serial)
                } else {
                    trainer.step(&tokens, &targets, ExecMode::TensorParallel(&comm))
                };
                seg_stats.push(stats);
            }
            Ok((trainer.save_checkpoint(), seg_stats))
        });

        if results.iter().all(Result::is_ok) {
            for (rank, r) in results.into_iter().enumerate() {
                let (ckpt, seg_stats) = r.expect("checked ok");
                if rank == 0 {
                    report.stats.extend(seg_stats);
                }
                ckpts[rank] = ckpt;
            }
            done = seg_end;
            if let Some(idx) = pending_replay.take() {
                report.reforms[idx].mttr.replay = attempt_start.elapsed();
            }
            continue;
        }

        // The attempt failed: the interval from launch to here is the
        // detection phase (it includes the attempt's wasted compute,
        // which is genuinely part of what the fault cost).
        let detect = attempt_start.elapsed();
        let errs: Vec<String> = results
            .iter()
            .enumerate()
            .filter_map(|(rank, r)| r.as_ref().err().map(|e| format!("rank {rank}: {e}")))
            .collect();
        report.failures.push(format!("segment [{done}, {seg_end}): {}", errs.join("; ")));
        if report.failures.len() as u32 > ec.max_failures {
            return Err(ElasticError::Exhausted { failures: report.failures });
        }

        // A rank is dead iff its *own* slot names itself dead (its thread
        // panicked and will never rejoin). Peers blame the dead rank with
        // `RankDead` too, but a peer that merely *observed* a death — or
        // failed transiently, which also makes peers see `RankDead` since
        // it bails out of the rendezvous — is alive and re-formable.
        let dead: Vec<usize> = results
            .iter()
            .enumerate()
            .filter_map(|(rank, r)| match r {
                Err(CollectiveError::RankDead { dead_rank, .. }) if *dead_rank == rank => {
                    Some(rank)
                }
                _ => None,
            })
            .collect();
        if dead.is_empty() {
            // Transient failure: replay the segment at the same degree
            // and epoch.
            report.retries += 1;
            continue;
        }

        let tracer = mt_trace::current();
        for &d in &dead {
            tracer.instant_args("rank_dead", || {
                vec![
                    ("rank", ArgValue::U64(d as u64)),
                    ("epoch", ArgValue::U64(epoch)),
                    ("step", ArgValue::U64(done)),
                ]
            });
        }
        let survivors = degree - dead.len();
        let Some(t_new) = survivor_degree(&model_cfg, survivors) else {
            return Err(ElasticError::NoSurvivors { failures: report.failures });
        };
        let (new_ckpts, record) =
            perform_reform(&ckpts, dead, degree, t_new, done, detect, epoch, ec)?;
        ckpts = new_ckpts;
        report.reforms.push(record);
        pending_replay = Some(report.reforms.len() - 1);
        degree = t_new;
        epoch += 1;
    }
    report.final_degree = degree;
    report.final_epoch = epoch;
    let models = ckpts
        .into_iter()
        .map(|c| Trainer::resume_from(c).expect("in-memory checkpoint is valid").into_model())
        .collect();
    Ok((models, report))
}

/// Applies the fault plan's step-granularity decision for `(rank, step)`:
/// panic, stall, fail the attempt, or note a recovery, each marked by a
/// `fault_injected` / `fault_recovered` trace instant.
fn gate_step(plan: &FaultPlan, rank: usize, step: u64) -> Result<(), CollectiveError> {
    let emit = |name: &'static str, kind: &'static str| {
        mt_trace::current().instant_args(name, || {
            vec![
                ("site", ArgValue::Str("step".to_string())),
                ("kind", ArgValue::Str(kind.to_string())),
                ("rank", ArgValue::U64(rank as u64)),
                ("step", ArgValue::U64(step)),
            ]
        });
    };
    match plan.poll_step(rank, step) {
        Some(FaultAction::Panic) => {
            emit("fault_injected", "panic");
            panic!("mt-fault: injected panic on rank {rank} at step {step}");
        }
        Some(FaultAction::Delay { micros }) => {
            emit("fault_injected", "delay");
            std::thread::sleep(Duration::from_micros(micros));
        }
        Some(FaultAction::Fail) => {
            emit("fault_injected", "transient");
            return Err(CollectiveError::InjectedTransient { rank, seq: step });
        }
        Some(FaultAction::Recovered) => emit("fault_recovered", "replay"),
        None => {}
    }
    Ok(())
}

/// The reform sequence shared by death recovery and planned resizes:
/// epoch-consensus barrier on a fresh world at `old_epoch + 1`, then
/// bit-exact checkpoint re-sharding to `to_degree`. The consensus world
/// carries no fault plan — it is recovery control plane. Returns the
/// re-sharded checkpoints and the reform's record (replay clock zeroed;
/// the caller fills it when the re-formed world commits).
#[allow(clippy::too_many_arguments)]
fn perform_reform(
    ckpts: &[TrainerCheckpoint],
    dead: Vec<usize>,
    from_degree: usize,
    to_degree: usize,
    resume_step: u64,
    detect: Duration,
    old_epoch: u64,
    ec: &ElasticConfig,
) -> Result<(Vec<TrainerCheckpoint>, ReformRecord), ElasticError> {
    let tracer = mt_trace::current();
    let epoch = old_epoch + 1;
    let reform_span = tracer.span_args("epoch_reform", || {
        vec![
            ("epoch", ArgValue::U64(epoch)),
            ("from_degree", ArgValue::U64(from_degree as u64)),
            ("to_degree", ArgValue::U64(to_degree as u64)),
            ("resume_step", ArgValue::U64(resume_step)),
        ]
    });

    // Consensus: the first collective of the new formation, at the bumped
    // epoch — it agrees on the resume point and fences out stragglers.
    let consensus_start = clock();
    let mut consensus_world = World::new(to_degree);
    consensus_world.set_epoch(epoch);
    consensus_world.set_collective_timeout(ec.collective_timeout);
    let votes =
        consensus_world.run_fallible(|comm| match epoch_consensus(&comm, epoch, resume_step) {
            Ok(c) => Ok(Ok(c)),
            Err(ConsensusError::Collective(e)) => Err(e),
            Err(diverged) => Ok(Err(diverged.to_string())),
        });
    for vote in votes {
        match vote {
            Ok(Ok(_)) => {}
            Ok(Err(msg)) => return Err(ElasticError::Consensus(msg)),
            Err(e) => return Err(ElasticError::Consensus(e.to_string())),
        }
    }
    let consensus = consensus_start.elapsed();

    // Re-shard the last committed checkpoints for the new formation.
    let reshard_start = clock();
    let reshard_span = tracer.span_args("reshard", || {
        vec![
            ("from_degree", ArgValue::U64(from_degree as u64)),
            ("to_degree", ArgValue::U64(to_degree as u64)),
        ]
    });
    let new_ckpts = reshard_checkpoints(ckpts, to_degree).map_err(ElasticError::Reshard)?;
    drop(reshard_span);
    let reshard = reshard_start.elapsed();
    drop(reform_span);

    let record = ReformRecord {
        epoch,
        from_degree,
        to_degree,
        dead_ranks: dead,
        resume_step,
        mttr: MttrBreakdown { detect, consensus, reshard, replay: Duration::ZERO },
    };
    Ok((new_ckpts, record))
}
