//! The full GPT model: embedding → L transformer layers → final LayerNorm →
//! tied logits head → cross-entropy loss.
//!
//! Like [`crate::TransformerLayer`], the model runs in any
//! [`ExecMode`]: serial, tensor-parallel, or tensor+sequence-parallel. The
//! embedding and the loss head are *replicated* across the tensor-parallel
//! group (every rank computes them identically) — the paper's Megatron
//! implementation shards the vocabulary dimension too, but replication is
//! numerically equivalent and keeps the focus on the transformer-layer
//! techniques the paper is about. The Section 4.3 input/output extras
//! (embedding dropout mask, final LayerNorm input, head input, fp32 logits)
//! are still placed on the activation ledger.

use crate::config::TransformerConfig;
use crate::layer::{ExecMode, TransformerLayer};
use crate::ledger::{ActivationLedger, Category};
use crate::streams::{element_offset, stream_id, DropoutSite};
use crate::weights::{EmbeddingWeights, LayerGrads, LayerWeights};
use mt_memory::Recompute;
use mt_tensor::ops;
use mt_tensor::rng::{CounterRng, SplitMix64};
use mt_tensor::Tensor;

/// Gradients of every GPT parameter, shaped like the owning model (layer
/// gradients are shard-shaped under parallel execution).
#[derive(Debug, Clone, PartialEq)]
pub struct GptGrads {
    /// Word-embedding table gradient `[v, h]` (embedding + tied head).
    pub table: Tensor,
    /// Positional-embedding gradient `[s, h]`.
    pub positions: Tensor,
    /// Final LayerNorm scale gradient.
    pub final_ln_gamma: Tensor,
    /// Final LayerNorm shift gradient.
    pub final_ln_beta: Tensor,
    /// Per-layer gradients.
    pub layers: Vec<LayerGrads>,
}

impl GptGrads {
    /// Gradient tensors in the order matching
    /// [`Gpt::param_tensors_mut`].
    pub fn tensors(&self) -> Vec<&Tensor> {
        let mut out = vec![&self.table, &self.positions, &self.final_ln_gamma, &self.final_ln_beta];
        for l in &self.layers {
            out.extend([
                &l.ln1_gamma,
                &l.ln1_beta,
                &l.w_qkv,
                &l.b_qkv,
                &l.w_o,
                &l.b_o,
                &l.ln2_gamma,
                &l.ln2_beta,
                &l.w1,
                &l.b1,
                &l.w2,
                &l.b2,
            ]);
        }
        out
    }

    /// Mutable gradient tensors in the same order as
    /// [`GptGrads::tensors`] — for in-place transforms such as
    /// [`clip_grad_norm`](crate::optim::clip_grad_norm).
    pub fn tensors_mut(&mut self) -> Vec<&mut Tensor> {
        let mut out: Vec<&mut Tensor> = vec![
            &mut self.table,
            &mut self.positions,
            &mut self.final_ln_gamma,
            &mut self.final_ln_beta,
        ];
        for l in &mut self.layers {
            out.extend(l.tensors_mut());
        }
        out
    }

    /// Splits the mutable gradient tensors by tensor-parallel locality:
    /// `(replicated, sharded)`. Replicated gradients (embedding, LayerNorm
    /// scales/shifts, row-parallel biases) hold identical values on every
    /// rank; sharded gradients (QKV/MLP weights, column-parallel biases)
    /// each hold one rank's shard. The split is what lets
    /// [`clip_grad_norm_tp`](crate::optim::clip_grad_norm_tp) count every
    /// parameter exactly once in the global norm.
    pub fn tensors_mut_by_locality(&mut self) -> (Vec<&mut Tensor>, Vec<&mut Tensor>) {
        let mut replicated: Vec<&mut Tensor> = vec![
            &mut self.table,
            &mut self.positions,
            &mut self.final_ln_gamma,
            &mut self.final_ln_beta,
        ];
        let mut sharded: Vec<&mut Tensor> = Vec::new();
        for l in &mut self.layers {
            replicated.push(&mut l.ln1_gamma);
            replicated.push(&mut l.ln1_beta);
            sharded.push(&mut l.w_qkv);
            sharded.push(&mut l.b_qkv);
            sharded.push(&mut l.w_o);
            replicated.push(&mut l.b_o);
            replicated.push(&mut l.ln2_gamma);
            replicated.push(&mut l.ln2_beta);
            sharded.push(&mut l.w1);
            sharded.push(&mut l.b1);
            sharded.push(&mut l.w2);
            replicated.push(&mut l.b2);
        }
        (replicated, sharded)
    }

    /// Accumulates another gradient set (microbatch accumulation).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn accumulate(&mut self, other: &GptGrads) {
        self.table.add_assign(&other.table);
        self.positions.add_assign(&other.positions);
        self.final_ln_gamma.add_assign(&other.final_ln_gamma);
        self.final_ln_beta.add_assign(&other.final_ln_beta);
        assert_eq!(self.layers.len(), other.layers.len(), "layer count mismatch");
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            a.accumulate(b);
        }
    }
}

/// A runnable GPT model.
#[derive(Debug, Clone)]
pub struct Gpt {
    cfg: TransformerConfig,
    /// Embedding weights (replicated under parallelism).
    pub embedding: EmbeddingWeights,
    /// Transformer layers (shard-shaped under parallelism).
    pub layers: Vec<TransformerLayer>,
    /// Final LayerNorm scale.
    pub final_ln_gamma: Tensor,
    /// Final LayerNorm shift.
    pub final_ln_beta: Tensor,
    rng: CounterRng,
}

impl Gpt {
    /// Initializes a full (unsharded) model. All randomness derives from
    /// `seed`, so two calls with equal arguments build identical models.
    pub fn init(cfg: TransformerConfig, policy: Recompute, seed: u64) -> Self {
        Self::init_with_policies(cfg, &vec![policy; cfg.layers], seed)
    }

    /// Initializes a model with a per-layer recomputation policy — the
    /// "checkpoint some of the transformer layers" scheme of Section 5.
    /// Weight initialization depends only on `cfg` and `seed`, so models
    /// differing only in `policies` are numerically identical.
    ///
    /// # Panics
    ///
    /// Panics if `policies.len() != cfg.layers`.
    pub fn init_with_policies(cfg: TransformerConfig, policies: &[Recompute], seed: u64) -> Self {
        cfg.validate(1);
        assert_eq!(policies.len(), cfg.layers, "one policy per layer");
        let mut rng = SplitMix64::new(seed);
        let embedding = EmbeddingWeights::init(&cfg, &mut rng);
        let dropout_rng = CounterRng::new(rng.next_u64());
        let layers = policies
            .iter()
            .enumerate()
            .map(|(i, &policy)| {
                let w = LayerWeights::init(&cfg, &mut rng);
                TransformerLayer::new(cfg, w, i, policy, dropout_rng)
            })
            .collect();
        Gpt {
            cfg,
            embedding,
            layers,
            final_ln_gamma: Tensor::full(&[cfg.hidden], 1.0),
            final_ln_beta: Tensor::zeros(&[cfg.hidden]),
            rng: dropout_rng,
        }
    }

    /// Builds rank `rank`'s shard of this model for `t`-way tensor
    /// parallelism. Embedding, final LayerNorm, and the dropout RNG are
    /// shared; layer weights are Megatron-sharded.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not divide by `t`.
    pub fn shard(&self, t: usize, rank: usize, policy: Recompute) -> Gpt {
        self.cfg.validate(t);
        let layers = self
            .layers
            .iter()
            .enumerate()
            .map(|(i, l)| {
                TransformerLayer::new(self.cfg, l.weights().shard(t, rank), i, policy, self.rng)
            })
            .collect();
        Gpt {
            cfg: self.cfg,
            embedding: self.embedding.clone(),
            layers,
            final_ln_gamma: self.final_ln_gamma.clone(),
            final_ln_beta: self.final_ln_beta.clone(),
            rng: self.rng,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> TransformerConfig {
        self.cfg
    }

    /// The counter RNG seeding this model's dropout streams; stage models
    /// built from this template must share it so replayed masks agree.
    pub fn dropout_rng(&self) -> CounterRng {
        self.rng
    }

    /// Parameter tensors in a stable order matching [`GptGrads::tensors`].
    pub fn param_tensors_mut(&mut self) -> Vec<&mut Tensor> {
        let mut out: Vec<&mut Tensor> = vec![
            &mut self.embedding.table,
            &mut self.embedding.positions,
            &mut self.final_ln_gamma,
            &mut self.final_ln_beta,
        ];
        for l in &mut self.layers {
            out.extend(l.weights_mut().tensors_mut());
        }
        out
    }

    fn embedding_mask(&self, micro: u64, row0: usize, rows: usize) -> Vec<u8> {
        let stream = stream_id(DropoutSite::Embedding, 0, micro);
        let h = self.cfg.hidden;
        let mut mask = Vec::with_capacity(rows * h);
        for r in 0..rows {
            for c in 0..h {
                mask.push(u8::from(
                    self.rng.uniform(stream, element_offset(row0 + r, c, h)) >= self.cfg.dropout_p,
                ));
            }
        }
        mask
    }

    /// Runs one microbatch forward **and** backward, returning the mean
    /// cross-entropy loss and all parameter gradients.
    ///
    /// `tokens` and `targets` are `s·b` token ids in the model's s-major row
    /// order (`row = seq_index · b + batch_index`); every rank passes the
    /// full arrays. Saved activations land on `ledger`. Each layer runs
    /// under its own recomputation policy.
    ///
    /// # Panics
    ///
    /// Panics if `tokens`/`targets` lengths differ from `s·b` or the mode's
    /// group size does not divide the configuration.
    pub fn loss_and_grads(
        &self,
        tokens: &[usize],
        targets: &[usize],
        micro: u64,
        mode: ExecMode<'_>,
        ledger: &mut ActivationLedger,
    ) -> (f32, GptGrads) {
        let cfg = &self.cfg;
        assert_eq!(tokens.len(), cfg.tokens(), "tokens length must be s*b");
        assert_eq!(targets.len(), cfg.tokens(), "targets length must be s*b");
        cfg.validate(mode.t());
        let sp = mode.sequence_parallel();
        let t = mode.t();
        let rows = if sp { cfg.tokens() / t } else { cfg.tokens() };
        let row0 = if sp { mode.rank() * rows } else { 0 };
        let ids_local = &tokens[row0..row0 + rows];

        let tracer = mt_trace::current();
        let fwd_span =
            tracer.span_args("forward", || vec![("micro", mt_trace::ArgValue::U64(micro))]);

        // --- forward: embedding ---
        let mut x = ops::embedding(ids_local, &self.embedding.table);
        for r in 0..rows {
            let si = (row0 + r) / cfg.micro_batch;
            let h = cfg.hidden;
            let pos = &self.embedding.positions.data()[si * h..(si + 1) * h];
            for (xv, &pv) in x.data_mut()[r * h..(r + 1) * h].iter_mut().zip(pos) {
                *xv += pv;
            }
        }
        let emb_mask = self.embedding_mask(micro, row0, rows);
        let mut act = ops::dropout(&x, &emb_mask, cfg.dropout_p);
        ledger.record(Category::EmbeddingDropoutMask, act.numel() as u64);

        // --- forward: layers ---
        let mut states = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let (y, st) = layer.forward(&act, micro, mode, ledger);
            states.push(st);
            act = y;
        }

        // --- forward: head ---
        let y_full = match mode {
            ExecMode::TensorSequenceParallel(c) => c.all_gather(&act),
            _ => act.clone(),
        };
        let (y_ln, ln_saved) = ops::layer_norm(&y_full, &self.final_ln_gamma, &self.final_ln_beta);
        ledger.record(Category::LayerNormInput, y_full.numel() as u64);
        ledger.record(Category::SmallStatistics, 2 * y_full.rows() as u64);
        let logits = ops::Gemm::NT.apply(&y_ln, &self.embedding.table);
        ledger.record(Category::ProjectionInput, y_ln.numel() as u64);
        ledger.record(Category::Logits, logits.numel() as u64);
        let ce = ops::cross_entropy(&logits, targets);
        drop(fwd_span);
        let bwd_span =
            tracer.span_args("backward", || vec![("micro", mt_trace::ArgValue::U64(micro))]);

        // --- backward: head ---
        let d_y_ln = ops::Gemm::NN.apply(&ce.dlogits, &self.embedding.table);
        let d_table_head = ops::Gemm::TN.apply(&ce.dlogits, &y_ln);
        let (d_y_full, d_fg, d_fb) =
            ops::layer_norm_backward(&y_full, &self.final_ln_gamma, &ln_saved, &d_y_ln);
        // The head is replicated redundant compute: the shard gradient is a
        // plain slice, not a reduction.
        let mut d_act = if sp {
            d_y_full.chunk_axis0(t).expect("rows divide by t")[mode.rank()].clone()
        } else {
            d_y_full
        };

        // --- backward: layers ---
        let mut layer_grads = Vec::with_capacity(self.layers.len());
        for (layer, st) in self.layers.iter().zip(states).rev() {
            let (dx, lg) = layer.backward(&d_act, st, mode);
            layer_grads.push(lg);
            d_act = dx;
        }
        layer_grads.reverse();

        // --- backward: embedding ---
        let d_emb = ops::dropout_backward(&d_act, &emb_mask, cfg.dropout_p);
        let mut d_positions = Tensor::zeros(&[cfg.seq, cfg.hidden]);
        for r in 0..rows {
            let si = (row0 + r) / cfg.micro_batch;
            let h = cfg.hidden;
            let src = &d_emb.data()[r * h..(r + 1) * h];
            let dst = &mut d_positions.data_mut()[si * h..(si + 1) * h];
            for (d, &s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        }
        let mut d_table_embed = ops::embedding_backward(ids_local, &d_emb, cfg.vocab);
        if let ExecMode::TensorSequenceParallel(c) = mode {
            // Each rank embedded only its sequence shard.
            d_table_embed = c.all_reduce(&d_table_embed);
            d_positions = c.all_reduce(&d_positions);
        }
        let d_table = d_table_embed.add(&d_table_head);
        drop(bwd_span);

        (
            ce.loss,
            GptGrads {
                table: d_table,
                positions: d_positions,
                final_ln_gamma: d_fg,
                final_ln_beta: d_fb,
                layers: layer_grads,
            },
        )
    }
}

impl Gpt {
    /// An inference copy of this model: identical weights, dropout disabled.
    pub fn eval(&self) -> Gpt {
        let mut ckpt = self.to_checkpoint();
        ckpt.cfg.dropout_p = 0.0;
        Gpt::from_checkpoint(ckpt)
    }

    /// Serial forward pass producing the `[s·b, v]` logits (no loss, no
    /// gradients, nothing saved). Dropout still applies if the model's
    /// `dropout_p` is nonzero — call on [`Gpt::eval`] for inference.
    ///
    /// # Panics
    ///
    /// Panics if `tokens.len() != s·b`.
    pub fn logits(&self, tokens: &[usize], micro: u64) -> Tensor {
        let cfg = &self.cfg;
        assert_eq!(tokens.len(), cfg.tokens(), "tokens length must be s*b");
        let rows = cfg.tokens();
        let mut x = ops::embedding(tokens, &self.embedding.table);
        for r in 0..rows {
            let si = r / cfg.micro_batch;
            let h = cfg.hidden;
            let pos = &self.embedding.positions.data()[si * h..(si + 1) * h];
            for (xv, &pv) in x.data_mut()[r * h..(r + 1) * h].iter_mut().zip(pos) {
                *xv += pv;
            }
        }
        let mask = self.embedding_mask(micro, 0, rows);
        let mut act = ops::dropout(&x, &mask, cfg.dropout_p);
        let mut scratch = ActivationLedger::new();
        for layer in &self.layers {
            let (y, _) = layer.forward(&act, micro, ExecMode::Serial, &mut scratch);
            act = y;
        }
        let (y_ln, _) = ops::layer_norm(&act, &self.final_ln_gamma, &self.final_ln_beta);
        ops::Gemm::NT.apply(&y_ln, &self.embedding.table)
    }

    /// Greedy autoregressive generation: appends `n_new` tokens to `prompt`
    /// and returns the full sequence. Dropout is disabled internally.
    ///
    /// The model's context is its fixed `s`; shorter contexts are padded on
    /// the right (harmless under the causal mask), longer histories keep
    /// their last `s` tokens.
    ///
    /// # Panics
    ///
    /// Panics if the model's microbatch size is not 1, the prompt is empty,
    /// or a prompt token is out of vocabulary range.
    pub fn generate(&self, prompt: &[usize], n_new: usize) -> Vec<usize> {
        assert_eq!(self.cfg.micro_batch, 1, "generation requires micro_batch == 1");
        assert!(!prompt.is_empty(), "empty prompt");
        let model = self.eval();
        let s = self.cfg.seq;
        let mut seq: Vec<usize> = prompt.to_vec();
        for _ in 0..n_new {
            let ctx_start = seq.len().saturating_sub(s);
            let ctx = &seq[ctx_start..];
            let mut window = vec![0usize; s];
            window[..ctx.len()].copy_from_slice(ctx);
            let logits = model.logits(&window, 0);
            let row = ctx.len() - 1;
            let v = self.cfg.vocab;
            let scores = &logits.data()[row * v..(row + 1) * v];
            let next = scores
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                .map(|(i, _)| i)
                .expect("nonempty vocabulary");
            seq.push(next);
        }
        seq
    }
}

/// A serializable snapshot of a full (unsharded) model — weights, dropout
/// seed, and per-layer recomputation policies. Round-trips through
/// [`Gpt::to_checkpoint`] / [`Gpt::from_checkpoint`] reproduce the model
/// bit-for-bit, including its future dropout draws.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GptCheckpoint {
    /// Model configuration.
    pub cfg: TransformerConfig,
    /// Embedding weights.
    pub embedding: EmbeddingWeights,
    /// Per-layer weights.
    pub layer_weights: Vec<LayerWeights>,
    /// Per-layer recomputation policies.
    pub policies: Vec<Recompute>,
    /// Final LayerNorm scale.
    pub final_ln_gamma: Tensor,
    /// Final LayerNorm shift.
    pub final_ln_beta: Tensor,
    /// The counter RNG driving dropout-mask replay.
    pub dropout_rng: CounterRng,
}

impl Gpt {
    /// Captures a checkpoint of this model.
    pub fn to_checkpoint(&self) -> GptCheckpoint {
        GptCheckpoint {
            cfg: self.cfg,
            embedding: self.embedding.clone(),
            layer_weights: self.layers.iter().map(|l| l.weights().clone()).collect(),
            policies: self.layers.iter().map(|l| l.policy()).collect(),
            final_ln_gamma: self.final_ln_gamma.clone(),
            final_ln_beta: self.final_ln_beta.clone(),
            dropout_rng: self.rng,
        }
    }

    /// Restores a model from a checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's layer count disagrees with its config.
    pub fn from_checkpoint(ckpt: GptCheckpoint) -> Gpt {
        assert_eq!(ckpt.layer_weights.len(), ckpt.cfg.layers, "layer count mismatch");
        assert_eq!(ckpt.policies.len(), ckpt.cfg.layers, "policy count mismatch");
        let layers = ckpt
            .layer_weights
            .into_iter()
            .zip(&ckpt.policies)
            .enumerate()
            .map(|(i, (w, &policy))| {
                TransformerLayer::new(ckpt.cfg, w, i, policy, ckpt.dropout_rng)
            })
            .collect();
        Gpt {
            cfg: ckpt.cfg,
            embedding: ckpt.embedding,
            layers,
            final_ln_gamma: ckpt.final_ln_gamma,
            final_ln_beta: ckpt.final_ln_beta,
            rng: ckpt.dropout_rng,
        }
    }

    /// Serializes the model as JSON to a writer.
    ///
    /// # Errors
    ///
    /// Returns any I/O or serialization error.
    pub fn save_json<W: std::io::Write>(&self, writer: W) -> Result<(), serde_json::Error> {
        serde_json::to_writer(writer, &self.to_checkpoint())
    }

    /// Deserializes a model from JSON. The reader can be a `&mut` reference
    /// (see `std::io::Read`'s blanket impl) if it is needed afterwards.
    ///
    /// # Errors
    ///
    /// Returns any I/O or deserialization error.
    pub fn load_json<R: std::io::Read>(reader: R) -> Result<Gpt, serde_json::Error> {
        serde_json::from_reader(reader).map(Gpt::from_checkpoint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;

    fn cfg() -> TransformerConfig {
        TransformerConfig {
            hidden: 16,
            heads: 2,
            seq: 8,
            micro_batch: 2,
            layers: 2,
            vocab: 24,
            dropout_p: 0.0,
            causal: true,
        }
    }

    fn data(c: &TransformerConfig, seed: u64) -> (Vec<usize>, Vec<usize>) {
        let mut rng = SplitMix64::new(seed);
        let n = c.tokens();
        let tokens: Vec<usize> = (0..n).map(|_| (rng.next_u64() as usize) % c.vocab).collect();
        let targets: Vec<usize> = (0..n).map(|_| (rng.next_u64() as usize) % c.vocab).collect();
        (tokens, targets)
    }

    #[test]
    fn initial_loss_is_near_uniform() {
        let c = cfg();
        let gpt = Gpt::init(c, Recompute::None, 11);
        let (tokens, targets) = data(&c, 1);
        let mut ledger = ActivationLedger::new();
        let (loss, _) = gpt.loss_and_grads(&tokens, &targets, 0, ExecMode::Serial, &mut ledger);
        let uniform = (c.vocab as f32).ln();
        assert!((loss - uniform).abs() < 0.5, "loss {loss} vs ln(v) {uniform}");
    }

    #[test]
    fn adam_training_reduces_loss() {
        let c = cfg();
        let mut gpt = Gpt::init(c, Recompute::Selective, 12);
        let (tokens, targets) = data(&c, 2);
        let mut adam = Adam::new(3e-3);
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..60 {
            let mut ledger = ActivationLedger::new();
            let (loss, grads) =
                gpt.loss_and_grads(&tokens, &targets, 0, ExecMode::Serial, &mut ledger);
            if step == 0 {
                first = loss;
            }
            last = loss;
            adam.update(gpt.param_tensors_mut(), &grads.tensors());
        }
        assert!(last < first * 0.5, "loss failed to drop: {first} -> {last}");
    }

    #[test]
    fn policies_are_loss_and_gradient_identical() {
        let c = cfg();
        let (tokens, targets) = data(&c, 3);
        let mut outs = Vec::new();
        for policy in [Recompute::None, Recompute::Selective, Recompute::Full] {
            let gpt = Gpt::init(TransformerConfig { dropout_p: 0.1, ..c }, policy, 13);
            let mut ledger = ActivationLedger::new();
            outs.push(gpt.loss_and_grads(&tokens, &targets, 0, ExecMode::Serial, &mut ledger));
        }
        for (loss, grads) in &outs[1..] {
            assert_eq!(*loss, outs[0].0);
            assert_eq!(*grads, outs[0].1);
        }
    }

    #[test]
    fn mixed_layer_policies_are_numerically_invisible() {
        // Checkpointing layer 0 and running layer 1 store-all (Section 5's
        // coarse scheme) must not change loss or gradients, while its ledger
        // is the per-layer sum of the Table 2 entries.
        let c = TransformerConfig { dropout_p: 0.1, ..cfg() };
        let (tokens, targets) = data(&c, 6);
        let uniform = Gpt::init(c, Recompute::None, 16);
        let mixed = Gpt::init_with_policies(c, &[Recompute::Full, Recompute::None], 16);
        let mut l_uniform = ActivationLedger::new();
        let mut l_mixed = ActivationLedger::new();
        let (loss_u, grads_u) =
            uniform.loss_and_grads(&tokens, &targets, 0, ExecMode::Serial, &mut l_uniform);
        let (loss_m, grads_m) =
            mixed.loss_and_grads(&tokens, &targets, 0, ExecMode::Serial, &mut l_mixed);
        assert_eq!(loss_u, loss_m);
        assert_eq!(grads_u, grads_m);
        // Layer 0 stores 2sbh; layer 1 stores the full Equation 1 amount.
        let per_layer_full = 34 * c.sbh() + 5 * c.as2b();
        assert_eq!(l_mixed.paper_bytes(), l_uniform.paper_bytes() - per_layer_full + 2 * c.sbh());
    }

    #[test]
    fn ledger_records_section_4_3_extras() {
        // Serial, p = 1, t = 1: extras = sbh (embedding mask) + 2sbh (final
        // LayerNorm input) + 2sbh (head input) + 4sbv (fp32 logits).
        let c = cfg();
        let gpt = Gpt::init(c, Recompute::None, 14);
        let (tokens, targets) = data(&c, 4);
        let mut ledger = ActivationLedger::new();
        let _ = gpt.loss_and_grads(&tokens, &targets, 0, ExecMode::Serial, &mut ledger);
        let sbh = c.sbh();
        let sbv = (c.seq * c.micro_batch * c.vocab) as u64;
        assert_eq!(ledger.bytes(Category::EmbeddingDropoutMask), sbh);
        assert_eq!(ledger.bytes(Category::Logits), 4 * sbv);
        // Per-layer LayerNormInput is 4sbh · L; the head adds 2sbh more.
        assert_eq!(ledger.bytes(Category::LayerNormInput), 4 * sbh * c.layers as u64 + 2 * sbh);
    }

    #[test]
    fn logits_match_the_training_forward() {
        // With dropout off, logits() must agree with the loss path: the
        // mean loss recomputed from logits equals loss_and_grads' loss.
        let c = cfg();
        let gpt = Gpt::init(c, Recompute::None, 19);
        let (tokens, targets) = data(&c, 8);
        let logits = gpt.logits(&tokens, 0);
        let ce = mt_tensor::ops::cross_entropy(&logits, &targets);
        let mut ledger = ActivationLedger::new();
        let (loss, _) = gpt.loss_and_grads(&tokens, &targets, 0, ExecMode::Serial, &mut ledger);
        assert!((ce.loss - loss).abs() < 1e-6);
    }

    #[test]
    fn eval_disables_dropout_deterministically() {
        let c = TransformerConfig { dropout_p: 0.3, ..cfg() };
        let gpt = Gpt::init(c, Recompute::None, 20);
        let (tokens, _) = data(&c, 9);
        let e = gpt.eval();
        // Different "microbatch ids" draw different masks in train mode but
        // must not matter in eval mode.
        assert_ne!(gpt.logits(&tokens, 0), gpt.logits(&tokens, 1));
        assert_eq!(e.logits(&tokens, 0), e.logits(&tokens, 1));
    }

    #[test]
    fn generation_extends_the_prompt() {
        let c = TransformerConfig { micro_batch: 1, ..cfg() };
        let gpt = Gpt::init(c, Recompute::None, 21);
        let prompt = vec![1, 2, 3];
        let out = gpt.generate(&prompt, 5);
        assert_eq!(out.len(), 8);
        assert_eq!(&out[..3], &prompt[..]);
        assert!(out.iter().all(|&t| t < c.vocab));
        // Greedy decoding is deterministic.
        assert_eq!(out, gpt.generate(&prompt, 5));
    }

    #[test]
    fn checkpoint_roundtrip_is_bit_exact() {
        let c = TransformerConfig { dropout_p: 0.1, ..cfg() };
        let gpt = Gpt::init_with_policies(c, &[Recompute::Selective, Recompute::Full], 17);
        let mut buf = Vec::new();
        gpt.save_json(&mut buf).expect("serialize");
        let restored = Gpt::load_json(buf.as_slice()).expect("deserialize");
        // Same weights, same policies, same dropout stream ⇒ identical
        // losses and gradients, mask replay included.
        let (tokens, targets) = data(&c, 7);
        let mut l1 = ActivationLedger::new();
        let mut l2 = ActivationLedger::new();
        let a = gpt.loss_and_grads(&tokens, &targets, 3, ExecMode::Serial, &mut l1);
        let b = restored.loss_and_grads(&tokens, &targets, 3, ExecMode::Serial, &mut l2);
        assert_eq!(a, b);
        assert_eq!(l1, l2);
    }

    #[test]
    fn checkpoint_rejects_inconsistent_layer_count() {
        let c = cfg();
        let gpt = Gpt::init(c, Recompute::None, 18);
        let mut ckpt = gpt.to_checkpoint();
        ckpt.layer_weights.pop();
        let result = std::panic::catch_unwind(|| Gpt::from_checkpoint(ckpt));
        assert!(result.is_err());
    }

    #[test]
    fn different_microbatches_draw_different_dropout() {
        let c = TransformerConfig { dropout_p: 0.2, ..cfg() };
        let gpt = Gpt::init(c, Recompute::None, 15);
        let (tokens, targets) = data(&c, 5);
        let mut l1 = ActivationLedger::new();
        let mut l2 = ActivationLedger::new();
        let (loss_a, _) = gpt.loss_and_grads(&tokens, &targets, 0, ExecMode::Serial, &mut l1);
        let (loss_b, _) = gpt.loss_and_grads(&tokens, &targets, 1, ExecMode::Serial, &mut l2);
        assert_ne!(loss_a, loss_b, "microbatch id must vary the dropout masks");
    }
}
