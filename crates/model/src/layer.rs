//! One transformer layer, executable serially, tensor-parallel (Figure 4),
//! or tensor+sequence-parallel (Figure 5), under any of the three
//! recomputation policies.
//!
//! A single implementation covers all modes; the mode only decides
//!
//! * how activations are sharded (`[s·b, h]` replicated vs `[s·b/t, h]`
//!   sequence shards),
//! * which collective implements each conjugate pair:
//!   `f`/`f̄` (identity / all-reduce) for tensor parallelism,
//!   `g`/`ḡ` (all-gather / reduce-scatter) for tensor+sequence parallelism.
//!
//! Sequence parallelism also applies the paper's extra memory trick: the
//! gathered LayerNorm outputs `Y` are *not* kept for the backward pass —
//! only the local shard `Yᵢˢ` is, and the backward pass re-all-gathers it
//! (Section 4.2.2, last paragraph).

use crate::attention::{
    attention_backward, attention_forward, attention_recompute, AttnParams, AttnSaved,
};
use crate::config::TransformerConfig;
use crate::ledger::{ActivationLedger, Category};
use crate::streams::{element_offset, stream_id, DropoutSite};
use crate::timing::{timed_exposed, timed_recompute};
use crate::weights::{LayerGrads, LayerWeights};
use mt_collectives::Communicator;
use mt_memory::Recompute;
use mt_tensor::ops;
use mt_tensor::ops::LayerNormSaved;
use mt_tensor::rng::CounterRng;
use mt_tensor::Tensor;
use std::borrow::Cow;

/// How a layer executes: serially or on one rank of a parallel group.
#[derive(Clone, Copy)]
pub enum ExecMode<'a> {
    /// Single process, no sharding — the reference (Figure 2).
    Serial,
    /// Megatron tensor parallelism: activations inside the attention/MLP
    /// blocks are sharded, LayerNorms and dropouts replicated (Figure 4).
    TensorParallel(&'a Communicator),
    /// Tensor + sequence parallelism: the LayerNorm/dropout regions operate
    /// on sequence shards (Figure 5).
    TensorSequenceParallel(&'a Communicator),
}

impl std::fmt::Debug for ExecMode<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecMode::Serial => write!(f, "Serial"),
            ExecMode::TensorParallel(c) => write!(f, "TensorParallel(t={})", c.size()),
            ExecMode::TensorSequenceParallel(c) => {
                write!(f, "TensorSequenceParallel(t={})", c.size())
            }
        }
    }
}

impl<'a> ExecMode<'a> {
    /// Tensor-parallel group size `t` (1 for serial).
    pub fn t(&self) -> usize {
        match self {
            ExecMode::Serial => 1,
            ExecMode::TensorParallel(c) | ExecMode::TensorSequenceParallel(c) => c.size(),
        }
    }

    /// This rank's index (0 for serial).
    pub fn rank(&self) -> usize {
        match self {
            ExecMode::Serial => 0,
            ExecMode::TensorParallel(c) | ExecMode::TensorSequenceParallel(c) => c.rank(),
        }
    }

    /// Whether sequence parallelism is active.
    pub fn sequence_parallel(&self) -> bool {
        matches!(self, ExecMode::TensorSequenceParallel(_))
    }

    /// The tensor-parallel communicator, when one is active (`None` for
    /// serial execution).
    pub fn comm(&self) -> Option<&'a Communicator> {
        match self {
            ExecMode::Serial => None,
            ExecMode::TensorParallel(c) | ExecMode::TensorSequenceParallel(c) => Some(c),
        }
    }
}

/// Everything a non-recomputing backward pass needs. Field names follow the
/// forward dataflow of Figure 2.
#[derive(Debug, Clone)]
pub struct StoredState {
    micro: u64,
    /// Layer input (= first LayerNorm input); sequence shard under SP.
    x: Tensor,
    ln1_saved: LayerNormSaved,
    /// The QKV GEMM input. Under SP only the local shard `Yᵢˢ` is kept and
    /// the backward pass re-gathers (the paper's extra all-gather).
    y1: Tensor,
    q: Tensor,
    k: Tensor,
    v: Tensor,
    /// Softmax/dropout products; `None` under selective recomputation.
    attn: Option<AttnSaved>,
    /// Projection GEMM input.
    ctx: Tensor,
    /// Second LayerNorm input (first residual sum); shard under SP.
    r1: Tensor,
    ln2_saved: LayerNormSaved,
    /// MLP first GEMM input (shard under SP).
    y2: Tensor,
    /// GeLU input.
    m1: Tensor,
    /// MLP second GEMM input (GeLU output).
    g_act: Tensor,
}

/// Per-layer saved state, shaped by the recomputation policy.
#[derive(Debug, Clone)]
pub enum LayerState {
    /// Policies `None` and `Selective` (the latter with `attn` dropped).
    Stored(Box<StoredState>),
    /// Policy `Full`: only the layer input survives.
    Checkpoint {
        /// The checkpointed layer input.
        x: Tensor,
        /// Microbatch id, needed to replay dropout masks.
        micro: u64,
    },
}

/// One transformer layer.
#[derive(Debug, Clone)]
pub struct TransformerLayer {
    cfg: TransformerConfig,
    weights: LayerWeights,
    layer_idx: usize,
    policy: Recompute,
    rng: CounterRng,
}

impl TransformerLayer {
    /// Creates a layer.
    ///
    /// `weights` must be full-shape for serial execution or the rank's shard
    /// (see [`LayerWeights::shard`]) for parallel execution. `rng` seeds the
    /// replayable dropout masks and must be identical on all ranks.
    pub fn new(
        cfg: TransformerConfig,
        weights: LayerWeights,
        layer_idx: usize,
        policy: Recompute,
        rng: CounterRng,
    ) -> Self {
        TransformerLayer { cfg, weights, layer_idx, policy, rng }
    }

    /// The layer's weights (shard-shaped in parallel execution).
    pub fn weights(&self) -> &LayerWeights {
        &self.weights
    }

    /// Mutable access for optimizers.
    pub fn weights_mut(&mut self) -> &mut LayerWeights {
        &mut self.weights
    }

    /// The recomputation policy this layer runs.
    pub fn policy(&self) -> Recompute {
        self.policy
    }

    fn attn_params(&self, mode: &ExecMode<'_>, micro: u64) -> AttnParams {
        let t = mode.t();
        AttnParams {
            seq: self.cfg.seq,
            micro_batch: self.cfg.micro_batch,
            heads: self.cfg.heads,
            head_dim: self.cfg.head_dim(),
            head_offset: mode.rank() * (self.cfg.heads / t),
            local_heads: self.cfg.heads / t,
            causal: self.cfg.causal,
            dropout_p: self.cfg.dropout_p,
            layer: self.layer_idx,
            micro,
        }
    }

    /// Rows held locally in the LayerNorm/dropout regions.
    fn local_rows(&self, mode: &ExecMode<'_>) -> usize {
        if mode.sequence_parallel() {
            self.cfg.tokens() / mode.t()
        } else {
            self.cfg.tokens()
        }
    }

    /// Regenerates a row-region dropout mask addressed by global rows, so
    /// shards and the serial model draw identical bits.
    fn region_mask(
        &self,
        site: DropoutSite,
        micro: u64,
        mode: &ExecMode<'_>,
        rows: usize,
    ) -> Vec<u8> {
        let stream = stream_id(site, self.layer_idx, micro);
        let h = self.cfg.hidden;
        let row0 = if mode.sequence_parallel() { mode.rank() * rows } else { 0 };
        let mut mask = Vec::with_capacity(rows * h);
        for r in 0..rows {
            for c in 0..h {
                let off = element_offset(row0 + r, c, h);
                mask.push(u8::from(self.rng.uniform(stream, off) >= self.cfg.dropout_p));
            }
        }
        mask
    }

    /// `g` forward / `ḡ` backward, and the backward re-gather of a stored
    /// LayerNorm-output shard (the paper's extra all-gather): one blocking
    /// all-gather of the sequence shard under SP. Outside SP the region is
    /// already replicated (`f` forward / `f̄` backward are the identity),
    /// so the input is borrowed as is.
    fn gather<'t>(&self, mode: &ExecMode<'_>, shard: &'t Tensor) -> Cow<'t, Tensor> {
        match mode {
            ExecMode::TensorSequenceParallel(c) => {
                Cow::Owned(timed_exposed(|| c.all_gather(shard)))
            }
            _ => Cow::Borrowed(shard),
        }
    }

    /// `f̄`/`ḡ` forward and `f`/`g` backward: combine the per-rank partial
    /// sums onto the LayerNorm/dropout region's layout.
    fn combine_region(&self, mode: &ExecMode<'_>, partial: Tensor) -> Tensor {
        match mode {
            ExecMode::Serial => partial,
            ExecMode::TensorParallel(c) => timed_exposed(|| c.all_reduce(&partial)),
            ExecMode::TensorSequenceParallel(c) => timed_exposed(|| c.reduce_scatter(&partial)),
        }
    }

    /// Full forward pass producing the complete stored state; records
    /// nothing. The policy-aware [`TransformerLayer::forward`] wraps this.
    fn forward_full(&self, x: &Tensor, micro: u64, mode: &ExecMode<'_>) -> (Tensor, StoredState) {
        let rows = self.local_rows(mode);
        assert_eq!(
            x.shape(),
            &[rows, self.cfg.hidden],
            "layer {} forward: input shape mismatch for {mode:?}",
            self.layer_idx
        );
        let w = &self.weights;

        // The LayerNorm outputs y1/y2 are stored as held locally: the whole
        // tensor outside SP, only the shard `Yᵢˢ` under SP (the paper's
        // trick) — the gathered copy lives for the one GEMM that needs it.

        // --- attention half ---
        let (y1, ln1_saved) = ops::layer_norm(x, &w.ln1_gamma, &w.ln1_beta);
        let qkv_raw = ops::Gemm::NN.apply(&self.gather(mode, &y1), &w.w_qkv); // g / f
        let qkv = ops::add_bias(&qkv_raw, &w.b_qkv);
        let blocks = qkv.chunk_last_axis(3).expect("qkv packs 3 blocks");
        let (q, k, v) = (blocks[0].clone(), blocks[1].clone(), blocks[2].clone());
        let ap = self.attn_params(mode, micro);
        let (ctx, attn_saved) = attention_forward(&ap, &self.rng, &q, &k, &v);
        let o_partial = ops::Gemm::NN.apply(&ctx, &w.w_o);
        let o = ops::add_bias(&self.combine_region(mode, o_partial), &w.b_o); // f̄ / ḡ
        let mask_attn = self.region_mask(DropoutSite::AttentionOutput, micro, mode, rows);
        let od = ops::dropout(&o, &mask_attn, self.cfg.dropout_p);
        let r1 = ops::residual_add(x, &od);

        // --- MLP half ---
        let (y2, ln2_saved) = ops::layer_norm(&r1, &w.ln2_gamma, &w.ln2_beta);
        let m1_raw = ops::Gemm::NN.apply(&self.gather(mode, &y2), &w.w1);
        let m1 = ops::add_bias(&m1_raw, &w.b1);
        let g_act = ops::gelu(&m1);
        let m2_partial = ops::Gemm::NN.apply(&g_act, &w.w2);
        let m2 = ops::add_bias(&self.combine_region(mode, m2_partial), &w.b2);
        let mask_mlp = self.region_mask(DropoutSite::MlpOutput, micro, mode, rows);
        let md = ops::dropout(&m2, &mask_mlp, self.cfg.dropout_p);
        let out = ops::residual_add(&r1, &md);

        let state = StoredState {
            micro,
            x: x.clone(),
            ln1_saved,
            y1,
            q,
            k,
            v,
            attn: Some(attn_saved),
            ctx,
            r1,
            ln2_saved,
            y2,
            m1,
            g_act,
        };
        (out, state)
    }

    /// Records what `state` stores into the ledger, per the active policy.
    fn record_stored(&self, st: &StoredState, ledger: &mut ActivationLedger) {
        ledger.record(Category::LayerNormInput, st.x.numel() as u64);
        ledger.record(Category::SmallStatistics, 2 * st.x.rows() as u64);
        ledger.record(Category::QkvInput, st.y1.numel() as u64);
        ledger.record(Category::QueryKey, (st.q.numel() + st.k.numel()) as u64);
        ledger.record(Category::Value, st.v.numel() as u64);
        if let Some(attn) = &st.attn {
            let probs_elems: u64 = attn.probs.iter().map(|t| t.numel() as u64).sum();
            let dropped_elems: u64 = attn.probs_dropped.iter().map(|t| t.numel() as u64).sum();
            ledger.record(Category::SoftmaxOutput, probs_elems);
            ledger.record(Category::SoftmaxDropoutMask, probs_elems);
            ledger.record(Category::SoftmaxDropoutOutput, dropped_elems);
        }
        ledger.record(Category::ProjectionInput, st.ctx.numel() as u64);
        ledger.record(Category::AttentionDropoutMask, st.r1.numel() as u64);
        ledger.record(Category::LayerNormInput, st.r1.numel() as u64);
        ledger.record(Category::SmallStatistics, 2 * st.r1.rows() as u64);
        ledger.record(Category::MlpFirstInput, st.y2.numel() as u64);
        ledger.record(Category::GeluInput, st.m1.numel() as u64);
        ledger.record(Category::MlpSecondInput, st.g_act.numel() as u64);
        ledger.record(Category::MlpDropoutMask, st.r1.numel() as u64);
    }

    /// Forward pass under this layer's recomputation policy. Saved
    /// activations are recorded in `ledger` (byte-exact, paper accounting).
    pub fn forward(
        &self,
        x: &Tensor,
        micro: u64,
        mode: ExecMode<'_>,
        ledger: &mut ActivationLedger,
    ) -> (Tensor, LayerState) {
        let (out, mut st) = self.forward_full(x, micro, &mode);
        match self.policy {
            Recompute::Full => {
                // Only the checkpointed input is stored.
                ledger.record(Category::LayerNormInput, x.numel() as u64);
                (out, LayerState::Checkpoint { x: st.x, micro })
            }
            Recompute::Selective => {
                st.attn = None; // the Figure 3 red region is dropped
                self.record_stored(&st, ledger);
                (out, LayerState::Stored(Box::new(st)))
            }
            Recompute::None => {
                self.record_stored(&st, ledger);
                (out, LayerState::Stored(Box::new(st)))
            }
        }
    }

    /// Backward pass: consumes the saved state (recomputing whatever the
    /// policy dropped) and returns the input gradient and parameter
    /// gradients (shard-shaped in parallel execution, fully reduced so each
    /// rank holds exact gradients for its shard and replicated parameters).
    pub fn backward(
        &self,
        dy: &Tensor,
        state: LayerState,
        mode: ExecMode<'_>,
    ) -> (Tensor, LayerGrads) {
        let st = match state {
            LayerState::Stored(mut st) => {
                if st.attn.is_none() {
                    // Selective recomputation: replay the attention core from
                    // the stored Q and K (Section 5).
                    let ap = self.attn_params(&mode, st.micro);
                    st.attn = Some(timed_recompute("recompute_attention", || {
                        attention_recompute(&ap, &self.rng, &st.q, &st.k)
                    }));
                }
                st
            }
            LayerState::Checkpoint { x, micro } => {
                // Full recomputation: one extra forward pass (the 30-40%
                // overhead the paper eliminates).
                timed_recompute("recompute_layer", || {
                    Box::new(self.forward_full(&x, micro, &mode).1)
                })
            }
        };
        self.backward_stored(dy, &st, &mode)
    }

    fn backward_stored(
        &self,
        dy: &Tensor,
        st: &StoredState,
        mode: &ExecMode<'_>,
    ) -> (Tensor, LayerGrads) {
        let mut grads = self.weights.zeros_like();
        let d_r1 = self.backward_mlp_half(dy, st, mode, &mut grads);
        let d_x = self.backward_attn_half(&d_r1, st, mode, &mut grads);
        self.reduce_replicated_grads(mode, &mut grads);
        (d_x, grads)
    }

    /// The MLP half of the backward pass: from the layer output gradient
    /// down to `d_r1`, the gradient at the second LayerNorm's input. A
    /// function of its own so its `[s·b, 4h/t]` temporaries are freed
    /// before the attention half allocates its score gradients.
    fn backward_mlp_half(
        &self,
        dy: &Tensor,
        st: &StoredState,
        mode: &ExecMode<'_>,
        grads: &mut LayerGrads,
    ) -> Tensor {
        let rows = self.local_rows(mode);
        assert_eq!(
            dy.shape(),
            &[rows, self.cfg.hidden],
            "layer {} backward: gradient shape mismatch",
            self.layer_idx
        );
        let w = &self.weights;

        // out = r1 + dropout(m2)
        let mask_mlp = self.region_mask(DropoutSite::MlpOutput, st.micro, mode, rows);
        let d_m2 = ops::dropout_backward(dy, &mask_mlp, self.cfg.dropout_p);
        grads.b2 = ops::bias_grad(&d_m2);
        // ḡ backward (all-gather; f̄ backward: identity); the assembled
        // gradient feeds both the d_g GEMM and the w2 gradient.
        // m2_partial = g_act · w2
        let d_m2_full = self.gather(mode, &d_m2);
        let d_g = ops::Gemm::NT.apply(&d_m2_full, &w.w2);
        grads.w2 = ops::Gemm::TN.apply(&st.g_act, &d_m2_full);
        drop(d_m2_full);
        let d_m1 = ops::gelu_backward(&st.m1, &d_g);
        grads.b1 = ops::bias_grad(&d_m1);
        // m1 = y2_full · w1. Under SP, y2 was kept as a shard: re-gather
        // (the extra all-gather the paper overlaps with the dW computation).
        grads.w1 = ops::Gemm::TN.apply(&self.gather(mode, &st.y2), &d_m1);
        let d_y2_full = ops::Gemm::NT.apply(&d_m1, &w.w1);
        // g backward: reduce-scatter; f backward: all-reduce.
        let d_y_ln2 = self.combine_region(mode, d_y2_full);
        let (d_r1_ln, d_ln2_gamma, d_ln2_beta) =
            ops::layer_norm_backward(&st.r1, &w.ln2_gamma, &st.ln2_saved, &d_y_ln2);
        grads.ln2_gamma = d_ln2_gamma;
        grads.ln2_beta = d_ln2_beta;
        dy.add(&d_r1_ln)
    }

    /// The attention half of the backward pass: from `d_r1` down to the
    /// layer-input gradient.
    fn backward_attn_half(
        &self,
        d_r1: &Tensor,
        st: &StoredState,
        mode: &ExecMode<'_>,
        grads: &mut LayerGrads,
    ) -> Tensor {
        let rows = self.local_rows(mode);
        let w = &self.weights;

        // r1 = x + dropout(o)
        let mask_attn = self.region_mask(DropoutSite::AttentionOutput, st.micro, mode, rows);
        let d_o = ops::dropout_backward(d_r1, &mask_attn, self.cfg.dropout_p);
        grads.b_o = ops::bias_grad(&d_o);
        // o_partial = ctx · w_o
        let d_o_full = self.gather(mode, &d_o);
        let d_ctx = ops::Gemm::NT.apply(&d_o_full, &w.w_o);
        grads.w_o = ops::Gemm::TN.apply(&st.ctx, &d_o_full);
        drop(d_o_full);
        // attention core
        let attn = st.attn.as_ref().expect("attention state present after recompute");
        let ap = self.attn_params(mode, st.micro);
        let (d_q, d_k, d_v) = attention_backward(&ap, &self.rng, &st.q, &st.k, &st.v, attn, &d_ctx);
        let d_qkv = Tensor::concat_last_axis(&[d_q, d_k, d_v]);
        grads.b_qkv = ops::bias_grad(&d_qkv);
        grads.w_qkv = ops::Gemm::TN.apply(&self.gather(mode, &st.y1), &d_qkv);
        let d_y1_full = ops::Gemm::NT.apply(&d_qkv, &w.w_qkv);
        let d_y_ln1 = self.combine_region(mode, d_y1_full);
        let (d_x_ln, d_ln1_gamma, d_ln1_beta) =
            ops::layer_norm_backward(&st.x, &w.ln1_gamma, &st.ln1_saved, &d_y_ln1);
        grads.ln1_gamma = d_ln1_gamma;
        grads.ln1_beta = d_ln1_beta;
        d_r1.add(&d_x_ln)
    }

    /// Sequence parallelism computes replicated-parameter gradients from
    /// sequence shards; sum them so every rank holds exact gradients
    /// (Megatron's gradient sync for SP).
    fn reduce_replicated_grads(&self, mode: &ExecMode<'_>, grads: &mut LayerGrads) {
        if let (true, Some(comm)) = (mode.sequence_parallel(), mode.comm()) {
            grads.ln1_gamma = timed_exposed(|| comm.all_reduce(&grads.ln1_gamma));
            grads.ln1_beta = timed_exposed(|| comm.all_reduce(&grads.ln1_beta));
            grads.ln2_gamma = timed_exposed(|| comm.all_reduce(&grads.ln2_gamma));
            grads.ln2_beta = timed_exposed(|| comm.all_reduce(&grads.ln2_beta));
            grads.b_o = timed_exposed(|| comm.all_reduce(&grads.b_o));
            grads.b2 = timed_exposed(|| comm.all_reduce(&grads.b2));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt_tensor::rng::SplitMix64;

    fn cfg() -> TransformerConfig {
        TransformerConfig {
            hidden: 16,
            heads: 2,
            seq: 4,
            micro_batch: 2,
            layers: 1,
            vocab: 32,
            dropout_p: 0.0,
            causal: true,
        }
    }

    fn make_layer(policy: Recompute, dropout_p: f32) -> TransformerLayer {
        let mut c = cfg();
        c.dropout_p = dropout_p;
        let mut rng = SplitMix64::new(31);
        let w = LayerWeights::init(&c, &mut rng);
        TransformerLayer::new(c, w, 0, policy, CounterRng::new(7))
    }

    fn rand_input(c: &TransformerConfig, seed: u64) -> Tensor {
        let mut rng = SplitMix64::new(seed);
        Tensor::rand_uniform(&[c.tokens(), c.hidden], -1.0, 1.0, &mut rng)
    }

    #[test]
    fn output_shape_matches_input() {
        let layer = make_layer(Recompute::None, 0.0);
        let x = rand_input(&cfg(), 1);
        let mut ledger = ActivationLedger::new();
        let (y, _) = layer.forward(&x, 0, ExecMode::Serial, &mut ledger);
        assert_eq!(y.shape(), x.shape());
    }

    #[test]
    fn all_policies_produce_identical_outputs_and_gradients() {
        // Recomputation must be numerically invisible: with replayable
        // dropout masks the three policies are bit-identical.
        let x = rand_input(&cfg(), 2);
        let dy = rand_input(&cfg(), 3);
        let mut results = Vec::new();
        for policy in [Recompute::None, Recompute::Selective, Recompute::Full] {
            let layer = make_layer(policy, 0.1);
            let mut ledger = ActivationLedger::new();
            let (y, st) = layer.forward(&x, 0, ExecMode::Serial, &mut ledger);
            let (dx, grads) = layer.backward(&dy, st, ExecMode::Serial);
            results.push((y, dx, grads));
        }
        for other in &results[1..] {
            assert_eq!(results[0].0, other.0, "outputs differ across policies");
            assert_eq!(results[0].1, other.1, "input grads differ across policies");
            assert_eq!(results[0].2, other.2, "weight grads differ across policies");
        }
    }

    #[test]
    fn ledger_matches_equation_1_for_serial_no_recompute() {
        let c = cfg();
        let layer = make_layer(Recompute::None, 0.1);
        let x = rand_input(&c, 4);
        let mut ledger = ActivationLedger::new();
        let _ = layer.forward(&x, 0, ExecMode::Serial, &mut ledger);
        let sbh = c.sbh();
        let as2b = c.as2b();
        let expect = 34 * sbh + 5 * as2b; // Equation 1, exact bytes
        assert_eq!(ledger.paper_bytes(), expect);
    }

    #[test]
    fn ledger_selective_drops_exactly_the_attention_core() {
        let c = cfg();
        let layer = make_layer(Recompute::Selective, 0.1);
        let x = rand_input(&c, 5);
        let mut ledger = ActivationLedger::new();
        let _ = layer.forward(&x, 0, ExecMode::Serial, &mut ledger);
        assert_eq!(ledger.paper_bytes(), 34 * c.sbh()); // Table 2, t=1
        assert_eq!(ledger.elements(Category::SoftmaxOutput), 0);
        assert_eq!(ledger.elements(Category::SoftmaxDropoutMask), 0);
        assert_eq!(ledger.elements(Category::SoftmaxDropoutOutput), 0);
    }

    #[test]
    fn ledger_full_recompute_stores_only_the_input() {
        let c = cfg();
        let layer = make_layer(Recompute::Full, 0.1);
        let x = rand_input(&c, 6);
        let mut ledger = ActivationLedger::new();
        let _ = layer.forward(&x, 0, ExecMode::Serial, &mut ledger);
        assert_eq!(ledger.paper_bytes(), 2 * c.sbh()); // Table 2, last row
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let c = cfg();
        let layer = make_layer(Recompute::None, 0.0);
        let x = rand_input(&c, 7);
        let mut wrng = SplitMix64::new(8);
        let wsum = Tensor::rand_uniform(&[c.tokens(), c.hidden], -1.0, 1.0, &mut wrng);
        let loss = |t: &Tensor| {
            let mut ledger = ActivationLedger::new();
            layer
                .forward(t, 0, ExecMode::Serial, &mut ledger)
                .0
                .data()
                .iter()
                .zip(wsum.data())
                .map(|(a, b)| a * b)
                .sum::<f32>()
        };
        let mut ledger = ActivationLedger::new();
        let (_, st) = layer.forward(&x, 0, ExecMode::Serial, &mut ledger);
        let (dx, _) = layer.backward(&wsum, st, ExecMode::Serial);
        let fd = mt_tensor::check::finite_diff(&x, loss);
        assert!(mt_tensor::check::grads_close(&dx, &fd));
    }

    #[test]
    fn weight_gradients_match_finite_difference() {
        // Spot-check two parameter tensors (a LayerNorm scale and a bias)
        // end-to-end through the layer.
        let c = cfg();
        let x = rand_input(&c, 9);
        let base = make_layer(Recompute::None, 0.0);
        let loss_with = |weights: LayerWeights| {
            let layer = TransformerLayer::new(c, weights, 0, Recompute::None, CounterRng::new(7));
            let mut ledger = ActivationLedger::new();
            layer.forward(&x, 0, ExecMode::Serial, &mut ledger).0.sum()
        };
        let mut ledger = ActivationLedger::new();
        let (_, st) = base.forward(&x, 0, ExecMode::Serial, &mut ledger);
        let ones = Tensor::full(&[c.tokens(), c.hidden], 1.0);
        let (_, grads) = base.backward(&ones, st, ExecMode::Serial);

        let fd_gamma = mt_tensor::check::finite_diff(&base.weights().ln1_gamma, |t| {
            let mut w = base.weights().clone();
            w.ln1_gamma = t.clone();
            loss_with(w)
        });
        assert!(mt_tensor::check::grads_close(&grads.ln1_gamma, &fd_gamma), "ln1_gamma");

        let fd_bo = mt_tensor::check::finite_diff(&base.weights().b_o, |t| {
            let mut w = base.weights().clone();
            w.b_o = t.clone();
            loss_with(w)
        });
        assert!(mt_tensor::check::grads_close(&grads.b_o, &fd_bo), "b_o");
    }

    #[test]
    #[should_panic(expected = "input shape mismatch")]
    fn forward_rejects_bad_shape() {
        let layer = make_layer(Recompute::None, 0.0);
        let mut ledger = ActivationLedger::new();
        let bad = Tensor::zeros(&[3, 16]);
        let _ = layer.forward(&bad, 0, ExecMode::Serial, &mut ledger);
    }
}
