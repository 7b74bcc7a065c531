//! The determinism contract end to end: a TP+SP transformer layer with
//! selective recomputation produces outputs, input gradients, and weight
//! gradients **bit-identical** on the threaded kernel backend at any thread
//! count to the serial backend. Ragged `(seq, batch, hidden)` shapes put
//! band boundaries mid-shard, and dropout masks are exercised.
//!
//! Kept as the only test in this binary: it flips the process-wide default
//! backend, which would race with any sibling test.

use mt_collectives::World;
use mt_kernels::{set_default_backend, Backend};
use mt_memory::Recompute;
use mt_model::weights::{LayerGrads, LayerWeights};
use mt_model::{ActivationLedger, ExecMode, TransformerConfig, TransformerLayer};
use mt_tensor::rng::{CounterRng, SplitMix64};
use mt_tensor::Tensor;
use proptest::prelude::*;

const T: usize = 2;

/// One TP+SP forward/backward on `T` ranks under `backend`; returns each
/// rank's (output bits, input-gradient bits, weight grads).
fn run_step(cfg: TransformerConfig, backend: Backend) -> Vec<(Vec<u32>, Vec<u32>, LayerGrads)> {
    set_default_backend(backend);
    let mut rng = SplitMix64::new(41);
    let full = LayerWeights::init(&cfg, &mut rng);
    let x = Tensor::rand_uniform(&[cfg.tokens(), cfg.hidden], -1.0, 1.0, &mut rng);
    let dy = Tensor::rand_uniform(&[cfg.tokens(), cfg.hidden], -1.0, 1.0, &mut rng);
    World::run(T, |comm| {
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
        let mut ledger = ActivationLedger::new();
        let (y, state) = layer.forward(&x_local, 0, mode, &mut ledger);
        let (dx, grads) = layer.backward(&dy_local, state, mode);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        (bits(&y), bits(&dx), grads)
    })
}

proptest! {
    #[test]
    fn threaded_tp_sp_layer_is_bit_identical_to_serial(
        seq_half in 1usize..7,     // seq = 2·seq_half, ragged vs TILE_M
        micro_batch in 1usize..3,
        head_dim in 2usize..5,     // hidden = 2 heads · head_dim
        threads in 1usize..9,
    ) {
        let cfg = TransformerConfig {
            hidden: 2 * head_dim,
            heads: 2,
            seq: 2 * seq_half,
            micro_batch,
            layers: 1,
            vocab: 16,
            dropout_p: 0.1,
            causal: true,
        };
        let serial = run_step(cfg, Backend::Serial);
        let threaded = run_step(cfg, Backend::Threaded { threads });
        for rank in 0..T {
            prop_assert_eq!(
                &serial[rank].0, &threaded[rank].0,
                "rank {} output bits differ (threads={})", rank, threads
            );
            prop_assert_eq!(
                &serial[rank].1, &threaded[rank].1,
                "rank {} input-grad bits differ (threads={})", rank, threads
            );
            prop_assert_eq!(
                &serial[rank].2, &threaded[rank].2,
                "rank {} weight grads differ (threads={})", rank, threads
            );
        }
    }
}
