//! 1F1B pipeline iterations plus a per-stage global-norm clip and AdamW
//! update, on one rank thread per stage.
//!
//! The grid is built here rather than through `mt_collectives::run_grid`
//! (which takes no tracer) so the stage-spanning world can carry one.

use crate::session::{RankRecord, Session, StepRecord, DRIVER_TRACK};
use crate::trainer::trainer_config;
use crate::workload::{Batches, Layout, Spec};
use mt_collectives::{GridComm, World};
use mt_kernels::{set_default_backend, Backend};
use mt_model::gpt::Gpt;
use mt_model::optim::AdamW;
use mt_model::pipeline_exec::{try_run_1f1b_iteration, StageGrads, StageModel};
use mt_model::take_step_timing;
use mt_model::trainer::TrainerConfig;
use mt_tensor::Tensor;
use mt_trace::Tracer;
use std::time::Instant;

/// One stage's model and optimizer.
struct Stage {
    model: StageModel,
    opt: AdamW,
}

/// A model split into pipeline stages, with per-stage optimizer state and
/// the data stream.
pub struct PipelineSession {
    pp: usize,
    micro: usize,
    cfg: TrainerConfig,
    stages: Vec<Stage>,
    batches: Batches,
    step: u64,
}

impl PipelineSession {
    /// Initializes the model from `seed`, splits it into stages, and builds
    /// the data stream. Also selects the serial kernel backend.
    pub fn new(spec: Spec, seed: u64) -> Self {
        let Layout::Pipeline { pp, micro } = spec.layout else {
            panic!("{} is not a pipeline workload", spec.name)
        };
        set_default_backend(Backend::Serial);
        let cfg = trainer_config();
        let gpt = Gpt::init(spec.cfg, spec.recompute, seed);
        let stages = (0..pp)
            .map(|stage| Stage {
                model: StageModel::from_gpt(&gpt, pp, stage, 1, 0, spec.recompute),
                opt: AdamW::new(cfg.schedule.lr_at(0), cfg.weight_decay),
            })
            .collect();
        PipelineSession { pp, micro, cfg, stages, batches: Batches::new(seed, &spec.cfg), step: 0 }
    }
}

impl Session for PipelineSession {
    fn step(&mut self, tracer: &Tracer) -> StepRecord {
        let micro_data: Vec<(Vec<usize>, Vec<usize>)> = {
            let _batch = tracer.with_track(DRIVER_TRACK).span("bench.batch");
            (0..self.micro).map(|_| self.batches.next_microbatch()).collect()
        };
        let t0 = Instant::now();
        let mut grid = World::new(self.pp);
        grid.set_tracer(tracer.clone());
        let comms: Vec<GridComm> = (0..self.pp)
            .map(|stage| GridComm {
                stage,
                tp_rank: 0,
                tp: World::new(1).communicator(0),
                grid: grid.communicator(stage),
            })
            .collect();
        let (step, cfg, micro_data) = (self.step, self.cfg, &micro_data);
        let ranks = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .stages
                .iter_mut()
                .zip(comms)
                .map(|(stage, g)| scope.spawn(move || stage_step(stage, &g, micro_data, step, cfg)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("stage thread panicked".into())))
                .collect()
        });
        self.step += 1;
        StepRecord { wall_s: t0.elapsed().as_secs_f64(), ranks }
    }
}

/// One stage's share of a step: the 1F1B iteration, the clip, the update.
fn stage_step(
    stage: &mut Stage,
    g: &GridComm,
    micro_data: &[(Vec<usize>, Vec<usize>)],
    step: u64,
    cfg: TrainerConfig,
) -> Result<RankRecord, String> {
    let _installed = mt_trace::install(g.grid.tracer().clone());
    let tracer = mt_trace::current();
    let _step_span = tracer.span("bench.step");
    let _stale = take_step_timing();
    let iteration = tracer.span("bench.iteration");
    let out = try_run_1f1b_iteration(&stage.model, g, false, micro_data, step)
        .map_err(|e| e.to_string())?;
    drop(iteration);
    let mut grads = out.grads;
    let clip = tracer.span("bench.clip");
    if let Some(max) = cfg.clip_norm {
        clip_global(g, &mut grads, max).map_err(|e| e.to_string())?;
    }
    drop(clip);
    let optimizer = tracer.span("bench.optimizer");
    stage.opt.set_lr(cfg.schedule.lr_at(step));
    let grads = grad_tensors(&mut grads);
    let grads: Vec<&Tensor> = grads.into_iter().map(|t| &*t).collect();
    stage.opt.update(param_tensors(&mut stage.model), &grads);
    drop(optimizer);
    Ok(RankRecord {
        loss: out.mean_loss,
        activation_bytes: out.peak_activation_bytes,
        live_states: out.peak_live_states,
        timing: take_step_timing(),
        comm: g.grid.stats(),
    })
}

/// Scales the stage's gradients by `min(1, max / ‖g‖)` with the norm taken
/// over the whole model. Stages trade their squared sums over
/// point-to-point sends and add them in stage order, so every stage
/// computes the identical norm; the last stage's copy of the tied
/// embedding gradient equals stage 0's and is counted once.
fn clip_global(
    g: &GridComm,
    grads: &mut StageGrads,
    max: f32,
) -> Result<f32, mt_collectives::CollectiveError> {
    let pp = g.pp();
    let tied_copy = pp > 1 && g.stage == pp - 1;
    let tensors = grad_tensors(grads);
    let counted = if tied_copy { tensors.len() - 1 } else { tensors.len() };
    let local: f64 = tensors[..counted]
        .iter()
        .flat_map(|t| t.data())
        .map(|&v| f64::from(v) * f64::from(v))
        .sum();
    let mine = Tensor::full(&[1], local as f32);
    for other in (0..pp).filter(|&s| s != g.stage) {
        g.grid.try_send(g.peer_on_stage(other), &mine)?;
    }
    let mut sq = 0.0f64;
    for s in 0..pp {
        sq += f64::from(if s == g.stage {
            local as f32
        } else {
            g.grid.try_recv(g.peer_on_stage(s))?.data()[0]
        });
    }
    let norm = sq.sqrt() as f32;
    if norm > max && norm > 0.0 {
        let scale = max / norm;
        for t in tensors {
            for v in t.data_mut() {
                *v *= scale;
            }
        }
    }
    Ok(norm)
}

/// The stage's parameters: embedding, layers, head (the head's tied table
/// last), matching [`grad_tensors`].
fn param_tensors(m: &mut StageModel) -> Vec<&mut Tensor> {
    let mut out = Vec::new();
    if let Some(e) = m.embedding.as_mut() {
        out.extend([&mut e.table, &mut e.positions]);
    }
    for layer in &mut m.layers {
        out.extend(layer.weights_mut().tensors_mut());
    }
    if let Some(h) = m.head.as_mut() {
        out.extend([&mut h.final_ln_gamma, &mut h.final_ln_beta, &mut h.table]);
    }
    out
}

/// The stage's gradients in [`param_tensors`] order.
fn grad_tensors(g: &mut StageGrads) -> Vec<&mut Tensor> {
    let mut out = Vec::new();
    if let Some((table, positions)) = g.embedding.as_mut() {
        out.extend([table, positions]);
    }
    for layer in &mut g.layers {
        out.extend(layer.tensors_mut());
    }
    if let Some((gamma, beta, table)) = g.head.as_mut() {
        out.extend([gamma, beta, table]);
    }
    out
}
