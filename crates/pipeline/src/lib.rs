//! # mt-pipeline
//!
//! A discrete-event simulator of pipeline-parallel training schedules for
//! the reproduction of *"Reducing Activation Recomputation in Large
//! Transformer Models"*.
//!
//! * **1F1B (PipeDream-flush)** — simulated exactly: per-stage op order
//!   (warmup forwards, steady 1F1B pairs, cooldown backwards), cross-stage
//!   dependencies with point-to-point transfer lag, per-stage busy/bubble
//!   accounting, and the peak number of in-flight microbatches per stage —
//!   which the simulation itself shows to be `min(p − stage, n)`, the
//!   assumption behind the paper's Equation 5 and Figure 9.
//! * **Interleaved schedule** — priced with Megatron's analytic bubble
//!   `(p−1)/m` microbatch slots (Narayanan et al.), as used by the paper's
//!   175B/530B runs.
//! * **Microbatch-level activation recomputation (Appendix C)** — a
//!   per-stage storage budget of `k` microbatches: the first `k` in flight
//!   skip recomputation entirely; the rest checkpoint and pay the
//!   recompute time in their backward step. Budget 0 is the classic
//!   always-recompute execution; budget ≥ p disables recomputation.
//!
//! ## Example
//!
//! ```
//! use mt_pipeline::{PipelineSim, StageCosts};
//!
//! let sim = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.0), 4, 8, 0.0);
//! let result = sim.simulate_1f1b(None);
//! // 1F1B with uniform stages: (n + p - 1) · (f + b).
//! assert!((result.makespan_ms - (8.0 + 3.0) * 3.0).abs() < 1e-9);
//! assert_eq!(result.peak_in_flight, vec![4, 3, 2, 1]);
//! ```

#![warn(missing_docs)]

mod ascii;
mod interleaved;
mod memory_replay;

pub use ascii::{render_schedule, render_timeline};
pub use interleaved::InterleavedSim;
pub use memory_replay::{live_bytes_series, replay_stage_memory, ReplayConfig, ReplayReport};

use serde::{Deserialize, Serialize};

/// Per-microbatch compute cost of one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageCosts {
    /// Forward milliseconds per microbatch.
    pub forward_ms: f64,
    /// Backward milliseconds per microbatch, *excluding* recomputation.
    pub backward_ms: f64,
    /// Recompute milliseconds a checkpointed microbatch adds to its
    /// backward step.
    pub recompute_ms: f64,
}

impl StageCosts {
    /// Creates stage costs.
    pub fn new(forward_ms: f64, backward_ms: f64, recompute_ms: f64) -> Self {
        StageCosts { forward_ms, backward_ms, recompute_ms }
    }
}

/// Result of a schedule simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// End-to-end iteration milliseconds (makespan of all ops).
    pub makespan_ms: f64,
    /// Compute-busy milliseconds per stage.
    pub stage_busy_ms: Vec<f64>,
    /// Peak number of microbatches whose activations were alive
    /// simultaneously, per stage.
    pub peak_in_flight: Vec<u64>,
    /// Microbatches per stage that were stored in full (skipped
    /// recomputation) under an Appendix C budget.
    pub stored_full: Vec<u64>,
}

impl SimResult {
    /// Fraction of total stage-time spent idle (the pipeline bubble).
    pub fn bubble_fraction(&self) -> f64 {
        let p = self.stage_busy_ms.len() as f64;
        let busy: f64 = self.stage_busy_ms.iter().sum();
        1.0 - busy / (p * self.makespan_ms)
    }
}

/// A pipeline of `p` stages processing `n` microbatches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineSim {
    /// Per-stage costs (`stages.len()` = pipeline size `p`).
    pub stages: Vec<StageCosts>,
    /// Stage-boundary transfer milliseconds.
    pub p2p_ms: f64,
    /// Microbatches per iteration.
    pub num_micro: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Fwd(usize),
    Bwd(usize),
}

/// One executed schedule op, for timeline visualization.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Pipeline stage.
    pub stage: usize,
    /// Microbatch index.
    pub micro: usize,
    /// `true` for a forward step, `false` for backward (+recompute).
    pub forward: bool,
    /// Whether this backward step included recomputation.
    pub recomputed: bool,
    /// Start time, milliseconds.
    pub start_ms: f64,
    /// End time, milliseconds.
    pub end_ms: f64,
}

impl PipelineSim {
    /// Creates a pipeline with identical costs on every stage.
    pub fn uniform(costs: StageCosts, p: usize, num_micro: u64, p2p_ms: f64) -> Self {
        PipelineSim { stages: vec![costs; p], p2p_ms, num_micro }
    }

    /// Number of pipeline stages.
    pub fn p(&self) -> usize {
        self.stages.len()
    }

    /// The 1F1B op order for one stage: `w = min(p−1−stage, n)` warmup
    /// forwards, then (F, B) pairs, then the cooldown backwards.
    fn stage_ops(&self, stage: usize) -> Vec<Op> {
        let n = self.num_micro as usize;
        let w = (self.p() - 1 - stage).min(n);
        let mut ops = Vec::with_capacity(2 * n);
        for m in 0..w {
            ops.push(Op::Fwd(m));
        }
        for j in 0..(n - w) {
            ops.push(Op::Fwd(w + j));
            ops.push(Op::Bwd(j));
        }
        for m in (n - w)..n {
            ops.push(Op::Bwd(m));
        }
        ops
    }

    /// The GPipe op order for one stage: all forwards, then all backwards in
    /// reverse microbatch order. Every stage must therefore hold *all* `n`
    /// microbatches' activations at the flush point — the memory pressure
    /// 1F1B exists to avoid (Section 1).
    fn stage_ops_gpipe(&self) -> Vec<Op> {
        let n = self.num_micro as usize;
        let mut ops: Vec<Op> = (0..n).map(Op::Fwd).collect();
        ops.extend((0..n).rev().map(Op::Bwd));
        ops
    }

    /// Simulates the 1F1B schedule.
    ///
    /// `store_budget`, if provided, gives each stage's Appendix C capacity:
    /// how many in-flight microbatches may keep *all* activations (and so
    /// skip `recompute_ms` in their backward). `None` means every microbatch
    /// pays `recompute_ms` — pass stages with `recompute_ms = 0` for the
    /// no-recompute case.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline is empty, `num_micro == 0`, or
    /// `store_budget.len() != p`.
    pub fn simulate_1f1b(&self, store_budget: Option<&[u64]>) -> SimResult {
        let ops: Vec<Vec<Op>> = (0..self.p()).map(|s| self.stage_ops(s)).collect();
        self.simulate_with_ops(ops, store_budget, None)
    }

    /// Like [`PipelineSim::simulate_1f1b`], additionally returning the
    /// executed timeline.
    pub fn trace_1f1b(&self, store_budget: Option<&[u64]>) -> (SimResult, Vec<TraceEvent>) {
        let ops: Vec<Vec<Op>> = (0..self.p()).map(|s| self.stage_ops(s)).collect();
        let mut events = Vec::new();
        let result = self.simulate_with_ops(ops, store_budget, Some(&mut events));
        (result, events)
    }

    /// Like [`PipelineSim::simulate_1f1b`], recording every executed step
    /// into `tracer` as a complete span on its stage's track — `F{m}` for a
    /// forward, `B{m}` for a backward, `R+B{m}` for a backward that
    /// recomputed — so [`mt_trace::export::chrome_trace_string`] renders
    /// the schedule the paper's Figure 10 sketches. The sim itself is
    /// unchanged by tracing.
    pub fn simulate_1f1b_traced(
        &self,
        store_budget: Option<&[u64]>,
        tracer: &mt_trace::Tracer,
    ) -> SimResult {
        let (result, events) = self.trace_1f1b(store_budget);
        for e in events {
            let name = match (e.forward, e.recomputed) {
                (true, _) => format!("F{}", e.micro),
                (false, true) => format!("R+B{}", e.micro),
                (false, false) => format!("B{}", e.micro),
            };
            let args = vec![
                ("micro", mt_trace::ArgValue::U64(e.micro as u64)),
                ("recomputed", mt_trace::ArgValue::Bool(e.recomputed)),
            ];
            tracer.complete_at(
                name,
                e.stage as u32,
                e.start_ms * 1_000.0,
                (e.end_ms - e.start_ms) * 1_000.0,
                args,
            );
        }
        result
    }

    /// Simulates the GPipe schedule (all-forward then all-backward with a
    /// flush). Compared with 1F1B at equal costs, the makespan is similar
    /// but every stage's peak in-flight count is `n` instead of
    /// `min(p − stage, n)`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`PipelineSim::simulate_1f1b`].
    pub fn simulate_gpipe(&self, store_budget: Option<&[u64]>) -> SimResult {
        let ops: Vec<Vec<Op>> = (0..self.p()).map(|_| self.stage_ops_gpipe()).collect();
        self.simulate_with_ops(ops, store_budget, None)
    }

    /// Event-driven engine shared by the schedules: executes each stage's op
    /// list in order, honouring cross-stage dependencies (`F` needs the
    /// previous stage's `F` + transfer; `B` needs the next stage's `B` +
    /// transfer, or the local `F` on the last stage).
    fn simulate_with_ops(
        &self,
        ops: Vec<Vec<Op>>,
        store_budget: Option<&[u64]>,
        mut trace: Option<&mut Vec<TraceEvent>>,
    ) -> SimResult {
        let p = self.p();
        let n = self.num_micro as usize;
        assert!(p > 0, "pipeline needs at least one stage");
        assert!(n > 0, "need at least one microbatch");
        if let Some(b) = store_budget {
            assert_eq!(b.len(), p, "store_budget must have one entry per stage");
        }
        let mut next_op = vec![0usize; p];
        let mut clock = vec![0.0_f64; p];
        let mut busy = vec![0.0_f64; p];
        let mut f_end = vec![vec![f64::NAN; n]; p];
        let mut b_end = vec![vec![f64::NAN; n]; p];
        // Appendix C state: how many stored-full microbatches are currently
        // in flight per stage, and which microbatches were stored.
        let mut stored_now = vec![0u64; p];
        let mut stored = vec![vec![false; n]; p];
        let mut stored_total = vec![0u64; p];

        let mut remaining: usize = ops.iter().map(|o| o.len()).sum();
        while remaining > 0 {
            let mut progressed = false;
            for s in 0..p {
                while next_op[s] < ops[s].len() {
                    let op = ops[s][next_op[s]];
                    // Dependency ready time, or None if not yet satisfied.
                    let ready = match op {
                        Op::Fwd(m) => {
                            if s == 0 {
                                Some(0.0)
                            } else if f_end[s - 1][m].is_nan() {
                                None
                            } else {
                                Some(f_end[s - 1][m] + self.p2p_ms)
                            }
                        }
                        Op::Bwd(m) => {
                            if s == p - 1 {
                                if f_end[s][m].is_nan() {
                                    None
                                } else {
                                    Some(f_end[s][m])
                                }
                            } else if b_end[s + 1][m].is_nan() {
                                None
                            } else {
                                Some(b_end[s + 1][m] + self.p2p_ms)
                            }
                        }
                    };
                    let Some(ready) = ready else { break };
                    let start = clock[s].max(ready);
                    let mut recomputed = false;
                    let dur = match op {
                        Op::Fwd(m) => {
                            if let Some(budget) = store_budget {
                                if stored_now[s] < budget[s] {
                                    stored_now[s] += 1;
                                    stored[s][m] = true;
                                    stored_total[s] += 1;
                                }
                            }
                            self.stages[s].forward_ms
                        }
                        Op::Bwd(m) => {
                            let skip = store_budget.is_some() && stored[s][m];
                            if skip {
                                stored_now[s] -= 1;
                                self.stages[s].backward_ms
                            } else {
                                recomputed = self.stages[s].recompute_ms > 0.0;
                                self.stages[s].backward_ms + self.stages[s].recompute_ms
                            }
                        }
                    };
                    clock[s] = start + dur;
                    busy[s] += dur;
                    match op {
                        Op::Fwd(m) => f_end[s][m] = clock[s],
                        Op::Bwd(m) => b_end[s][m] = clock[s],
                    }
                    if let Some(events) = trace.as_deref_mut() {
                        let (forward, micro) = match op {
                            Op::Fwd(m) => (true, m),
                            Op::Bwd(m) => (false, m),
                        };
                        events.push(TraceEvent {
                            stage: s,
                            micro,
                            forward,
                            recomputed,
                            start_ms: start,
                            end_ms: clock[s],
                        });
                    }
                    next_op[s] += 1;
                    remaining -= 1;
                    progressed = true;
                }
            }
            assert!(progressed, "1F1B schedule deadlocked (internal error)");
        }

        let makespan = clock.iter().fold(0.0_f64, |a, &b| a.max(b));
        // Peak in-flight microbatches per stage: sweep F-completion (+1) and
        // B-completion (−1) events in time order.
        let peak_in_flight = (0..p)
            .map(|s| {
                let mut events: Vec<(f64, i64)> = (0..n)
                    .map(|m| (f_end[s][m], 1i64))
                    .chain((0..n).map(|m| (b_end[s][m], -1i64)))
                    .collect();
                events.sort_by(|a, b| {
                    a.0.partial_cmp(&b.0).expect("finite times").then(a.1.cmp(&b.1))
                });
                let mut cur = 0i64;
                let mut peak = 0i64;
                for (_, delta) in events {
                    cur += delta;
                    peak = peak.max(cur);
                }
                peak as u64
            })
            .collect();

        SimResult {
            makespan_ms: makespan,
            stage_busy_ms: busy,
            peak_in_flight,
            stored_full: stored_total,
        }
    }

    /// Iteration milliseconds under the interleaved schedule with `m` model
    /// chunks per device (Narayanan et al.): bubble shrinks to
    /// `(p−1)/m` microbatch slots. Uses the mean per-stage cost plus the
    /// pipeline-depth point-to-point lag.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn interleaved_ms(&self, m: u64) -> f64 {
        assert!(m > 0, "interleave chunks must be positive");
        let p = self.p() as f64;
        let n = self.num_micro as f64;
        let mean_f: f64 = self.stages.iter().map(|s| s.forward_ms).sum::<f64>() / p;
        let mean_b: f64 =
            self.stages.iter().map(|s| s.backward_ms + s.recompute_ms).sum::<f64>() / p;
        let slots = n + (p - 1.0) / m as f64;
        slots * (mean_f + mean_b) + 2.0 * (p - 1.0) * self.p2p_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_stage_is_sequential() {
        let sim = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.0), 1, 5, 0.0);
        let r = sim.simulate_1f1b(None);
        assert!((r.makespan_ms - 15.0).abs() < 1e-9);
        assert_eq!(r.peak_in_flight, vec![1]);
        assert!(r.bubble_fraction().abs() < 1e-9);
    }

    #[test]
    fn uniform_1f1b_matches_closed_form() {
        // With uniform stages and no transfer lag, 1F1B's makespan is
        // (n + p − 1)(f + b).
        for (p, n) in [(2usize, 4u64), (4, 8), (8, 8), (4, 1)] {
            let f = 1.0;
            let b = 2.0;
            let sim = PipelineSim::uniform(StageCosts::new(f, b, 0.0), p, n, 0.0);
            let r = sim.simulate_1f1b(None);
            let expect = (n as f64 + p as f64 - 1.0) * (f + b);
            assert!(
                (r.makespan_ms - expect).abs() < 1e-9,
                "p={p} n={n}: {} vs {expect}",
                r.makespan_ms
            );
        }
    }

    #[test]
    fn peak_in_flight_is_p_minus_stage() {
        // The Appendix B memory assumption, produced by the simulator
        // itself: stage i holds min(p − i, n) microbatches at peak.
        let sim = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.0), 4, 8, 0.1);
        let r = sim.simulate_1f1b(None);
        assert_eq!(r.peak_in_flight, vec![4, 3, 2, 1]);
        // And with fewer microbatches than stages, n caps it.
        let sim = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.0), 4, 2, 0.1);
        let r = sim.simulate_1f1b(None);
        assert_eq!(r.peak_in_flight, vec![2, 2, 2, 1]);
    }

    #[test]
    fn bubble_fraction_shrinks_with_more_microbatches() {
        let costs = StageCosts::new(1.0, 2.0, 0.0);
        let few = PipelineSim::uniform(costs, 4, 4, 0.0).simulate_1f1b(None);
        let many = PipelineSim::uniform(costs, 4, 32, 0.0).simulate_1f1b(None);
        assert!(many.bubble_fraction() < few.bubble_fraction());
        // (p-1)/(n+p-1) closed form for uniform stages.
        let expect = 3.0 / (32.0 + 3.0);
        assert!((many.bubble_fraction() - expect).abs() < 1e-9);
    }

    #[test]
    fn recompute_lengthens_iteration() {
        let none = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.0), 4, 8, 0.0);
        let full = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 1.0), 4, 8, 0.0);
        assert!(full.simulate_1f1b(None).makespan_ms > none.simulate_1f1b(None).makespan_ms);
    }

    #[test]
    fn interleaving_reduces_bubble() {
        let sim = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.0), 8, 8, 0.0);
        let plain = sim.simulate_1f1b(None).makespan_ms;
        let inter = sim.interleaved_ms(3);
        assert!(inter < plain, "interleaved {inter} vs plain {plain}");
        // m = 1 interleaved equals the plain closed form for uniform costs.
        assert!((sim.interleaved_ms(1) - plain).abs() < 1e-9);
    }

    #[test]
    fn appendix_c_budget_skips_recomputation() {
        // Store budget ≥ peak in-flight ⇒ no microbatch recomputes and the
        // makespan matches a recompute-free pipeline.
        let with = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.5), 4, 8, 0.0);
        let without = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.0), 4, 8, 0.0);
        let budget = vec![8u64; 4];
        let r = with.simulate_1f1b(Some(&budget));
        assert!((r.makespan_ms - without.simulate_1f1b(None).makespan_ms).abs() < 1e-9);
        assert_eq!(r.stored_full, vec![8, 8, 8, 8]);
    }

    #[test]
    fn appendix_c_partial_budget_interpolates() {
        // Figure 10b: storing some microbatches lands between the classic
        // and no-recompute extremes.
        let sim = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.8), 4, 12, 0.0);
        let classic = sim.simulate_1f1b(Some(&[0, 0, 0, 0])).makespan_ms;
        let partial = sim.simulate_1f1b(Some(&[1, 1, 1, 1]));
        let free = sim.simulate_1f1b(Some(&[12, 12, 12, 12])).makespan_ms;
        assert!(partial.makespan_ms < classic, "{} < {classic}", partial.makespan_ms);
        assert!(partial.makespan_ms > free, "{} > {free}", partial.makespan_ms);
        // The moving window reuses freed slots: more than 1 microbatch per
        // stage ends up stored over the iteration.
        assert!(partial.stored_full.iter().all(|&s| s > 1));
    }

    #[test]
    fn classic_budget_zero_equals_unbudgeted() {
        let sim = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.7), 4, 8, 0.2);
        let a = sim.simulate_1f1b(None).makespan_ms;
        let b = sim.simulate_1f1b(Some(&[0; 4])).makespan_ms;
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn gpipe_stores_all_microbatches_on_every_stage() {
        // The contrast motivating 1F1B: GPipe's flush forces peak in-flight
        // of n everywhere, versus 1F1B's min(p − stage, n).
        let sim = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.0), 4, 8, 0.0);
        let gpipe = sim.simulate_gpipe(None);
        assert_eq!(gpipe.peak_in_flight, vec![8, 8, 8, 8]);
        let f1b = sim.simulate_1f1b(None);
        assert_eq!(f1b.peak_in_flight, vec![4, 3, 2, 1]);
    }

    #[test]
    fn gpipe_makespan_matches_closed_form() {
        // GPipe with uniform stages: (n + p − 1)·f + (n + p − 1)·b.
        let (p, n, f, b) = (4usize, 8u64, 1.0, 2.0);
        let sim = PipelineSim::uniform(StageCosts::new(f, b, 0.0), p, n, 0.0);
        let r = sim.simulate_gpipe(None);
        let expect = (n as f64 + p as f64 - 1.0) * (f + b);
        assert!((r.makespan_ms - expect).abs() < 1e-9, "{} vs {expect}", r.makespan_ms);
    }

    #[test]
    fn gpipe_and_1f1b_have_similar_makespan_at_uniform_costs() {
        // With equal per-microbatch costs and no memory constraint, the two
        // schedules differ in *memory*, not throughput (transfer-lag edge
        // effects aside).
        let sim = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.3), 6, 12, 0.1);
        let a = sim.simulate_1f1b(None).makespan_ms;
        let b = sim.simulate_gpipe(None).makespan_ms;
        assert!((a - b).abs() / a < 0.05, "1F1B {a} vs GPipe {b}");
        // And exactly equal without transfer lag.
        let dry = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.3), 6, 12, 0.0);
        let a0 = dry.simulate_1f1b(None).makespan_ms;
        let b0 = dry.simulate_gpipe(None).makespan_ms;
        assert!((a0 - b0).abs() < 1e-9, "1F1B {a0} vs GPipe {b0}");
    }

    #[test]
    fn gpipe_storage_budget_applies_too() {
        let sim = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.5), 4, 8, 0.0);
        let classic = sim.simulate_gpipe(Some(&[0; 4])).makespan_ms;
        let free = sim.simulate_gpipe(Some(&[8; 4])).makespan_ms;
        assert!(free < classic);
    }

    #[test]
    fn p2p_lag_increases_makespan() {
        let costs = StageCosts::new(1.0, 2.0, 0.0);
        let fast = PipelineSim::uniform(costs, 4, 8, 0.0).simulate_1f1b(None);
        let slow = PipelineSim::uniform(costs, 4, 8, 0.5).simulate_1f1b(None);
        assert!(slow.makespan_ms > fast.makespan_ms);
    }

    #[test]
    fn trace_covers_every_op_and_matches_makespan() {
        let sim = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.5), 4, 6, 0.1);
        let (result, events) = sim.trace_1f1b(Some(&[1, 1, 1, 1]));
        assert_eq!(events.len(), 2 * 4 * 6, "one event per op");
        let max_end = events.iter().fold(0.0_f64, |m, e| m.max(e.end_ms));
        assert!((max_end - result.makespan_ms).abs() < 1e-9);
        // Events on one stage never overlap.
        for s in 0..4 {
            let mut stage_events: Vec<_> = events.iter().filter(|e| e.stage == s).collect();
            stage_events.sort_by(|a, b| a.start_ms.partial_cmp(&b.start_ms).unwrap());
            for w in stage_events.windows(2) {
                assert!(w[1].start_ms >= w[0].end_ms - 1e-9, "overlap on stage {s}");
            }
        }
        // Stored microbatches show as plain backwards, others as recomputed.
        assert!(events.iter().any(|e| !e.forward && e.recomputed));
        assert!(events.iter().any(|e| !e.forward && !e.recomputed));
    }

    #[test]
    fn traced_1f1b_exports_a_valid_chrome_trace() {
        let sim = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.0), 2, 3, 0.0);
        let tracer = mt_trace::Tracer::enabled();
        let result = sim.simulate_1f1b_traced(None, &tracer);
        assert_eq!(result, sim.simulate_1f1b(None), "tracing must not change the sim");
        let (_, events) = sim.trace_1f1b(None);
        let json = mt_trace::export::chrome_trace_string(&tracer.events());
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        mt_trace::export::validate_chrome_trace(&parsed).expect("well-formed trace");
        assert_eq!(parsed.as_array().unwrap().len(), events.len());
        assert_eq!(parsed[0]["ph"], "X");
        assert_eq!(parsed[0]["name"], "F0");
    }

    #[test]
    fn heterogeneous_stages_are_supported() {
        // A slow last stage (the logits head) dominates.
        let mut sim = PipelineSim::uniform(StageCosts::new(1.0, 2.0, 0.0), 4, 8, 0.0);
        sim.stages[3] = StageCosts::new(2.0, 4.0, 0.0);
        let r = sim.simulate_1f1b(None);
        // Lower bound: the slow stage's own busy time.
        assert!(r.makespan_ms >= 8.0 * 6.0);
        assert!(r.stage_busy_ms[3] > r.stage_busy_ms[0]);
    }
}
