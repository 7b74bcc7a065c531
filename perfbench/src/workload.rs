//! The three workloads and the seeded token stream they train on.
//!
//! Each workload fixes a model shape, a parallel layout and a recompute
//! policy; the seed only chooses the weights, the token stream and the
//! sampling order. The program under test receives nothing but the
//! generated tokens.

use mt_collectives::cost::CommCostModel;
use mt_data::{MicrobatchSampler, PackedDataset};
use mt_memory::{ActivationMemoryModel, Parallelism, Recompute, Strategy};
use mt_model::TransformerConfig;
use mt_tensor::rng::SplitMix64;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["tp_sp_selective", "long_seq_serial", "pp_full_recompute"];

/// How the ranks and kernel workers are laid out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Layout {
    /// Tensor + sequence parallelism over `t` rank threads, one kernel
    /// worker each, collectives over a simulated link.
    TensorSequenceParallel {
        /// Tensor-parallel size.
        t: usize,
        /// Simulated interconnect every collective sleeps on.
        link: CommCostModel,
    },
    /// One rank, kernels fanned out over `workers` threads.
    Serial {
        /// Kernel worker threads.
        workers: usize,
    },
    /// A 1F1B pipeline of `pp` stages (tensor-parallel size 1), `micro`
    /// microbatches per iteration.
    Pipeline {
        /// Pipeline depth.
        pp: usize,
        /// Microbatches per iteration.
        micro: usize,
    },
}

/// One workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Model shape (micro-batch size included).
    pub cfg: TransformerConfig,
    /// Recompute policy of every layer.
    pub recompute: Recompute,
    /// Rank layout.
    pub layout: Layout,
}

/// The workload called `name`, if there is one.
pub fn spec(name: &str) -> Option<Spec> {
    let gpt = |hidden, heads, seq, micro_batch, layers| TransformerConfig {
        hidden,
        heads,
        seq,
        micro_batch,
        layers,
        vocab: 2048,
        dropout_p: 0.1,
        causal: true,
    };
    let s = match name {
        // The paper's recommended configuration at s/6h ≈ 0.17: GEMMs and
        // TP+SP collectives do most of the work.
        "tp_sp_selective" => Spec {
            name: "tp_sp_selective",
            cfg: gpt(512, 8, 512, 2, 4),
            recompute: Recompute::Selective,
            layout: Layout::TensorSequenceParallel {
                t: 2,
                link: CommCostModel { alpha_s: 5e-6, beta_bytes_per_s: 100e6 },
            },
        },
        // s/6h ≈ 0.67: the attention core (the 5as/h term) dominates, on
        // one rank whose kernels fan out over two workers.
        "long_seq_serial" => Spec {
            name: "long_seq_serial",
            cfg: gpt(256, 16, 1024, 2, 2),
            recompute: Recompute::Selective,
            layout: Layout::Serial { workers: 2 },
        },
        // 1F1B scheduling, stage-boundary send/recv, the (p−1)/m bubble and
        // whole-layer replay.
        "pp_full_recompute" => Spec {
            name: "pp_full_recompute",
            cfg: gpt(384, 6, 256, 1, 4),
            recompute: Recompute::Full,
            layout: Layout::Pipeline { pp: 2, micro: 8 },
        },
        _ => return None,
    };
    Some(s)
}

impl Spec {
    /// Tokens one step trains on.
    pub fn tokens_per_step(&self) -> usize {
        match self.layout {
            Layout::Pipeline { micro, .. } => self.cfg.tokens() * micro,
            _ => self.cfg.tokens(),
        }
    }

    /// Busy threads the layout runs (rank threads × kernel workers), the
    /// multiplier of the per-thread probe peak in MFU/HFU.
    pub fn workers(&self) -> usize {
        match self.layout {
            Layout::TensorSequenceParallel { t, .. } => t,
            Layout::Serial { workers } => workers,
            Layout::Pipeline { pp, .. } => pp,
        }
    }

    /// Number of rank threads.
    pub fn ranks(&self) -> usize {
        match self.layout {
            Layout::TensorSequenceParallel { t, .. } => t,
            Layout::Serial { .. } => 1,
            Layout::Pipeline { pp, .. } => pp,
        }
    }

    /// Peak activation bytes (paper accounting) one rank of a trainer step
    /// must hold, from the `mt-memory` closed forms: `L` layers of Table 2
    /// plus the Section 4.3 extras. The executor computes the head (final
    /// LayerNorm, logits projection, fp32 logits) replicated on every
    /// tensor rank, so the head extras are the `t = 1` ones; the embedding
    /// dropout mask is sequence-sharded. `None` for the pipeline, whose
    /// check is the in-flight microbatch count instead.
    pub fn predicted_activation_bytes(&self) -> Option<u64> {
        let (t, sp) = match self.layout {
            Layout::TensorSequenceParallel { t, .. } => (t, true),
            Layout::Serial { .. } => (1, false),
            Layout::Pipeline { .. } => return None,
        };
        let shape = self.cfg.to_shape();
        let b = self.cfg.micro_batch as u64;
        let strategy = Strategy { sequence_parallel: sp, recompute: self.recompute };
        let layers = ActivationMemoryModel::new(shape, b, t as u64).per_layer_bytes(strategy)
            * self.cfg.layers as f64;
        let serial = ActivationMemoryModel::new(shape, b, 1);
        let p1 = Parallelism { tensor: 1, pipeline: 1, interleave: None };
        let unsharded_mask = serial.sbh();
        let extras =
            serial.input_output_extra_bytes(p1) - unsharded_mask + unsharded_mask / t as f64;
        Some((layers + extras) as u64)
    }
}

/// Successor candidates per token in the synthetic stream.
const SUCCESSORS: usize = 4;
/// Distinct tokens the synthetic stream uses (at most the vocabulary).
const ACTIVE: usize = 64;

/// A seeded token stream with learnable structure. It uses only a seeded
/// set of [`ACTIVE`] tokens, and within that set it is a sparse
/// first-order Markov chain: each token is followed by one of its
/// [`SUCCESSORS`] candidates nine times in ten, and by a uniform active
/// token otherwise. The skewed marginal alone takes the loss from `ln v`
/// to at most `ln ACTIVE`, and an output layer learns it within a few
/// steps, so the loss falls early whatever the seed; the transition table
/// takes it lower on longer runs.
pub fn token_stream(seed: u64, vocab: usize, len: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed);
    let mut below = |n: usize| (rng.next_u64() % n as u64) as usize;
    // A partial Fisher–Yates shuffle picks the active tokens.
    let mut ids: Vec<usize> = (0..vocab).collect();
    let active = ACTIVE.min(vocab);
    for i in 0..active {
        let j = i + below(vocab - i);
        ids.swap(i, j);
    }
    let table: Vec<[usize; SUCCESSORS]> =
        (0..active).map(|_| std::array::from_fn(|_| below(active))).collect();
    let mut cur = below(active);
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(ids[cur]);
        let r = below(10 * SUCCESSORS * active);
        cur = if r % 10 < 9 { table[cur][(r / 10) % SUCCESSORS] } else { (r / 10) % active };
    }
    out
}

/// Windows per microbatch slot the generated stream provides, so a run
/// rarely revisits a window.
const WINDOWS_PER_SLOT: usize = 64;

/// The seeded stream packed through `mt-data`: a [`PackedDataset`] of
/// `seq`-token windows and a [`MicrobatchSampler`] over it.
#[derive(Debug, Clone)]
pub struct Batches {
    dataset: PackedDataset,
    sampler: MicrobatchSampler,
}

impl Batches {
    /// Generates and packs the stream for `cfg` from `seed`.
    pub fn new(seed: u64, cfg: &TransformerConfig) -> Self {
        let len = cfg.seq * cfg.micro_batch * WINDOWS_PER_SLOT + cfg.seq + 1;
        let dataset = PackedDataset::new(token_stream(seed, cfg.vocab, len), cfg.seq);
        let sampler = MicrobatchSampler::new(&dataset, cfg.micro_batch, seed ^ 0x5eed_5eed);
        Batches { dataset, sampler }
    }

    /// The next microbatch `(tokens, targets)` in the model's s-major
    /// layout.
    pub fn next_microbatch(&mut self) -> (Vec<usize>, Vec<usize>) {
        self.dataset.microbatch(&self.sampler.next_indices())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a = token_stream(7, 2048, 4096);
        assert_eq!(a, token_stream(7, 2048, 4096));
        assert_ne!(a, token_stream(8, 2048, 4096));
        assert!(a.iter().all(|&t| t < 2048));
    }

    #[test]
    fn same_seed_same_microbatches() {
        let cfg = spec("pp_full_recompute").unwrap().cfg;
        let (mut a, mut b, mut c) =
            (Batches::new(3, &cfg), Batches::new(3, &cfg), Batches::new(4, &cfg));
        for _ in 0..5 {
            let x = a.next_microbatch();
            assert_eq!(x, b.next_microbatch());
            assert_ne!(x, c.next_microbatch());
            assert_eq!(x.0.len(), cfg.tokens());
        }
    }

    #[test]
    fn stream_is_mostly_predictable() {
        // The stream stays inside ACTIVE tokens of the vocabulary, and nine
        // in ten transitions follow the seeded table, so the empirical
        // successor set of a token is far smaller than the active set.
        let s = token_stream(1, 2048, 20_000);
        let used: std::collections::BTreeSet<usize> = s.iter().copied().collect();
        assert_eq!(used.len(), ACTIVE);
        let mut seen =
            std::collections::BTreeMap::<usize, std::collections::BTreeSet<usize>>::new();
        for w in s.windows(2) {
            seen.entry(w[0]).or_default().insert(w[1]);
        }
        let mean_successors =
            seen.values().map(|x| x.len()).sum::<usize>() as f64 / seen.len() as f64;
        assert!(mean_successors < 40.0, "{mean_successors}");
        // A vocabulary smaller than ACTIVE is used whole.
        let small: std::collections::BTreeSet<usize> =
            token_stream(1, 16, 2_000).into_iter().collect();
        assert_eq!(small.len(), 16);
    }

    #[test]
    fn every_workload_resolves() {
        for name in NAMES {
            let s = spec(name).unwrap();
            assert_eq!(s.name, name);
            s.cfg.validate(match s.layout {
                Layout::TensorSequenceParallel { t, .. } => t,
                _ => 1,
            });
        }
        assert!(spec("nope").is_none());
    }

    #[test]
    fn activation_prediction_is_the_table2_sum_plus_extras() {
        // Serial, selective: L·34sbh + sbh (mask) + 4sbh + 4sbv.
        let s = spec("long_seq_serial").unwrap();
        let c = s.cfg;
        let (sbh, sbv) = (c.sbh(), (c.seq * c.micro_batch * c.vocab) as u64);
        assert_eq!(
            s.predicted_activation_bytes(),
            Some(c.layers as u64 * 34 * sbh + sbh + 4 * sbh + 4 * sbv)
        );
        // TP+SP t=2: the layers and the mask shard, the head does not.
        let s = spec("tp_sp_selective").unwrap();
        let c = s.cfg;
        let (sbh, sbv) = (c.sbh(), (c.seq * c.micro_batch * c.vocab) as u64);
        assert_eq!(
            s.predicted_activation_bytes(),
            Some(c.layers as u64 * 17 * sbh + sbh / 2 + 4 * sbh + 4 * sbv)
        );
        assert_eq!(spec("pp_full_recompute").unwrap().predicted_activation_bytes(), None);
    }
}
