//! Whole `Trainer::step`s: forward, backward with recomputation,
//! global-norm clip and AdamW, on one rank or on a TP+SP group.

use crate::session::{RankRecord, Session, StepRecord, DRIVER_TRACK};
use crate::workload::{Batches, Layout, Spec};
use mt_collectives::World;
use mt_kernels::{set_default_backend, Backend};
use mt_model::gpt::Gpt;
use mt_model::trainer::{LrSchedule, Trainer, TrainerConfig};
use mt_model::ExecMode;
use mt_trace::Tracer;
use std::sync::Mutex;
use std::time::Instant;

/// Hyperparameters shared by every workload: a four-step warmup to a peak
/// the synthetic stream learns quickly at, global clip at 1. A one-step
/// warmup made `long_seq_serial` overshoot into single-step loss spikes
/// above `ln v` around its sixth step on some seeds.
pub fn trainer_config() -> TrainerConfig {
    TrainerConfig::builder()
        .schedule(LrSchedule { base_lr: 1e-3, warmup_steps: 4, decay_steps: 200, min_lr: 2e-4 })
        .weight_decay(0.01)
        .clip_norm(Some(1.0))
        .build()
}

/// A model, sharded per rank, with its optimizer state and data stream.
pub struct TrainerSession {
    spec: Spec,
    /// One trainer per tensor rank (a single one off tensor parallelism).
    trainers: Vec<Mutex<Trainer>>,
    batches: Batches,
}

impl TrainerSession {
    /// Initializes the model from `seed`, shards it, and builds the data
    /// stream. Also selects the workload's kernel backend.
    pub fn new(spec: Spec, seed: u64) -> Self {
        let gpt = Gpt::init(spec.cfg, spec.recompute, seed);
        let trainers = match spec.layout {
            Layout::TensorSequenceParallel { t, .. } => {
                set_default_backend(Backend::Serial);
                (0..t)
                    .map(|r| {
                        Mutex::new(Trainer::new(gpt.shard(t, r, spec.recompute), trainer_config()))
                    })
                    .collect()
            }
            Layout::Serial { workers } => {
                set_default_backend(Backend::Threaded { threads: workers });
                vec![Mutex::new(Trainer::new(gpt, trainer_config()))]
            }
            Layout::Pipeline { .. } => panic!("{} is a pipeline workload", spec.name),
        };
        TrainerSession { spec, trainers, batches: Batches::new(seed, &spec.cfg) }
    }
}

impl Session for TrainerSession {
    fn step(&mut self, tracer: &Tracer) -> StepRecord {
        let (tokens, targets) = {
            let _batch = tracer.with_track(DRIVER_TRACK).span("bench.batch");
            self.batches.next_microbatch()
        };
        let trainers = &self.trainers;
        let t0 = Instant::now();
        let ranks: Vec<Result<RankRecord, String>> = match self.spec.layout {
            Layout::TensorSequenceParallel { t, link } => {
                let mut world = World::new(t);
                world.set_link_cost(link);
                world.set_tracer(tracer.clone());
                world
                    .run_fallible(|comm| {
                        let mut trainer = trainers[comm.rank()].lock().expect("trainer lock");
                        let (stats, ledger, timing) = trainer.step_with_ledger(
                            &tokens,
                            &targets,
                            ExecMode::TensorSequenceParallel(&comm),
                        );
                        Ok(RankRecord {
                            loss: stats.loss,
                            activation_bytes: ledger.high_water(),
                            live_states: 1,
                            timing,
                            comm: comm.stats(),
                        })
                    })
                    .into_iter()
                    .map(|r| r.map_err(|e| e.to_string()))
                    .collect()
            }
            _ => {
                let _installed = mt_trace::install(tracer.with_track(0));
                let mut trainer = trainers[0].lock().expect("trainer lock");
                let (stats, ledger, timing) =
                    trainer.step_with_ledger(&tokens, &targets, ExecMode::Serial);
                vec![Ok(RankRecord {
                    loss: stats.loss,
                    activation_bytes: ledger.high_water(),
                    live_states: 1,
                    timing,
                    comm: Default::default(),
                })]
            }
        };
        StepRecord { wall_s: t0.elapsed().as_secs_f64(), ranks }
    }
}
