//! Golden numerics: the exact bits two trainer steps produce, pinned for a
//! serial config and a tensor+sequence-parallel (t = 2) selective-recompute
//! config. Any change to the execution path that moves a single bit of the
//! loss or of a gradient fails here, so refactors of the layer, the
//! collectives or the kernels can prove they left the numerics alone.

use megatron_repro::collectives::World;
use megatron_repro::memory::Recompute;
use megatron_repro::model::gpt::Gpt;
use megatron_repro::model::trainer::{LrSchedule, Trainer, TrainerConfig};
use megatron_repro::model::{ActivationLedger, ExecMode, TransformerConfig};
use megatron_repro::tensor::rng::SplitMix64;

fn cfg() -> TransformerConfig {
    TransformerConfig {
        hidden: 16,
        heads: 2,
        seq: 8,
        micro_batch: 2,
        layers: 2,
        vocab: 24,
        dropout_p: 0.1,
        causal: true,
    }
}

fn batch(c: &TransformerConfig, seed: u64) -> (Vec<usize>, Vec<usize>) {
    let mut rng = SplitMix64::new(seed);
    let n = c.tokens();
    let tokens = (0..n).map(|_| (rng.next_u64() as usize) % c.vocab).collect();
    let targets = (0..n).map(|_| (rng.next_u64() as usize) % c.vocab).collect();
    (tokens, targets)
}

fn trainer(gpt: Gpt) -> Trainer {
    Trainer::new(
        gpt,
        TrainerConfig::builder().schedule(LrSchedule::constant(5e-3)).weight_decay(0.01).build(),
    )
}

/// Bits of `[step-0 loss, step-1 loss]` and of the f64 sum of the first
/// layer's QKV weight gradient taken on the trained model at micro id 2.
fn run(trainer: &mut Trainer, mode: ExecMode<'_>) -> ([u32; 2], u64) {
    let c = cfg();
    let mut losses = [0u32; 2];
    for (step, loss) in losses.iter_mut().enumerate() {
        let (tokens, targets) = batch(&c, 100 + step as u64);
        *loss = trainer.step(&tokens, &targets, mode).loss.to_bits();
    }
    let (tokens, targets) = batch(&c, 102);
    let mut ledger = ActivationLedger::new();
    let (_, grads) = trainer.model().loss_and_grads(&tokens, &targets, 2, mode, &mut ledger);
    let checksum: f64 = grads.layers[0].w_qkv.data().iter().map(|&v| f64::from(v)).sum();
    (losses, checksum.to_bits())
}

#[test]
fn serial_selective_steps_are_bit_stable() {
    let mut t = trainer(Gpt::init(cfg(), Recompute::Selective, 41));
    let got = run(&mut t, ExecMode::Serial);
    assert_eq!(got, ([1078575412, 1078612015], 4568871737974128640));
}

#[test]
fn tensor_sequence_parallel_selective_steps_are_bit_stable() {
    let template = Gpt::init(cfg(), Recompute::Selective, 41);
    let per_rank = World::run(2, |comm| {
        let mut t = trainer(template.shard(2, comm.rank(), Recompute::Selective));
        run(&mut t, ExecMode::TensorSequenceParallel(&comm))
    });
    assert_eq!(
        per_rank,
        vec![
            ([1078575412, 1078612015], 4560025459732512768),
            ([1078575412, 1078612015], 4567150129896620032),
        ]
    );
}
