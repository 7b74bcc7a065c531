//! Per-layer metrics of a traced pass, read from the spans the program
//! already records (`step`, `forward`, `backward`, `optimizer`,
//! `recompute_*`, `kernel_*`, collective spans, `recv`), the benchmark's
//! own `bench.*` spans, and the exact counts every step returns.

use crate::host::Host;
use crate::session::{StepRecord, DRIVER_TRACK};
use crate::stats::{self_time, Interval};
use crate::workload::{Layout, Spec};
use mt_collectives::CollectiveKind;
use mt_flops::FlopsModel;
use mt_pipeline::{PipelineSim, StageCosts};
use mt_trace::{ArgValue, EventKind, TraceEvent};

/// A named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Every per-layer metric, in output order, with its unit.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("kernels.gemm_ms", "ms"),
    ("kernels.gemm_calls", "count"),
    ("kernels.gemm_gflops", "GFLOP/s"),
    ("kernels.gemm_packing_ms", "ms"),
    ("kernels.softmax_ms", "ms"),
    ("kernels.gelu_ms", "ms"),
    ("kernels.layer_norm_ms", "ms"),
    ("kernels.workers_mean", "threads"),
    ("model.forward_ms", "ms"),
    ("model.backward_ms", "ms"),
    ("model.recompute_ms", "ms"),
    ("model.recompute_share", "ratio"),
    ("model.optimizer_ms", "ms"),
    ("model.other_ms", "ms"),
    ("model.mfu", "ratio"),
    ("model.hfu", "ratio"),
    ("comm.all_gather.calls", "count"),
    ("comm.reduce_scatter.calls", "count"),
    ("comm.all_reduce.calls", "count"),
    ("comm.send_recv.calls", "count"),
    ("comm.wire_bytes", "B"),
    ("comm.ms", "ms"),
    ("comm.exposed_ms", "ms"),
    ("pipeline.idle_share", "ratio"),
    ("pipeline.idle_share_sim", "ratio"),
    ("pipeline.peak_live_states", "count"),
    ("data.batch_ms", "ms"),
    ("host.gemm_probe_gflops", "GFLOP/s"),
    ("host.barrier_probe_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// Collective span names, as `mt-collectives` records them.
const COLLECTIVES: [&str; 6] =
    ["all_reduce", "all_gather", "reduce_scatter", "broadcast", "send_recv", "barrier"];

/// A closed span.
#[derive(Debug, Clone)]
struct Span<'a> {
    name: &'a str,
    track: u32,
    at: Interval,
    args: &'a [(&'static str, ArgValue)],
}

impl Span<'_> {
    fn ms(&self) -> f64 {
        (self.at.1 - self.at.0) / 1e3
    }

    fn arg(&self, key: &str) -> f64 {
        match self.args.iter().find(|(k, _)| *k == key).map(|(_, v)| v) {
            Some(ArgValue::U64(v)) => *v as f64,
            Some(ArgValue::I64(v)) => *v as f64,
            Some(ArgValue::F64(v)) => *v,
            _ => 0.0,
        }
    }

    /// Whether the span lies inside `outer`, up to the rounding of the
    /// `ts + dur` sums both ends come from.
    fn within(&self, outer: Interval) -> bool {
        const SLACK_US: f64 = 1e-3;
        self.at.0 >= outer.0 - SLACK_US && self.at.1 <= outer.1 + SLACK_US
    }

    fn is_kernel(&self) -> bool {
        self.name.starts_with("kernel_")
    }

    fn is_recompute(&self) -> bool {
        // `recompute_wait` nests inside `recompute_overlapped`.
        self.name.starts_with("recompute_") && self.name != "recompute_wait"
    }

    /// Spans whose time is accounted to a named layer; the rest of the step
    /// is `model.other_ms`.
    fn is_accounted(&self) -> bool {
        self.is_kernel()
            || COLLECTIVES.contains(&self.name)
            || matches!(self.name, "recv" | "optimizer" | "bench.optimizer")
    }
}

fn spans(events: &[TraceEvent]) -> Vec<Span<'_>> {
    events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Complete { dur_us } => Some(Span {
                name: &e.name,
                track: e.track,
                at: (e.ts_us, e.ts_us + dur_us),
                args: &e.args,
            }),
            _ => None,
        })
        .collect()
}

/// Inputs besides the trace.
pub struct Context<'a> {
    /// The workload.
    pub spec: &'a Spec,
    /// Traced steps, in order.
    pub steps: &'a [StepRecord],
    /// Host fingerprint and probes.
    pub host: &'a Host,
    /// Median step wall of the untraced steps of the same run, seconds.
    pub untraced_p50_s: f64,
    /// Median step wall of the traced steps, seconds.
    pub traced_p50_s: f64,
}

/// Every [`PER_LAYER`] metric, from the traced steps' `events`.
pub fn per_layer(events: &[TraceEvent], cx: &Context<'_>) -> Vec<Metric> {
    let spans = spans(events);
    let n = cx.steps.len().max(1) as f64;
    let pipeline = matches!(cx.spec.layout, Layout::Pipeline { .. });
    let step_name = if pipeline { "bench.step" } else { "step" };
    let on = |track: u32, name: &'static str| -> Vec<&Span<'_>> {
        spans.iter().filter(|s| s.track == track && s.name == name).collect()
    };

    // The critical rank: the one whose steps took longest in total.
    let critical = (0..cx.spec.ranks() as u32)
        .max_by(|&a, &b| {
            let total = |r| on(r, step_name).iter().map(|s| s.ms()).sum::<f64>();
            total(a).total_cmp(&total(b))
        })
        .unwrap_or(0);
    let step_spans = on(critical, step_name);
    let inside: Vec<&Span<'_>> = spans
        .iter()
        .filter(|s| s.track == critical && step_spans.iter().any(|st| s.within(st.at)))
        .collect();
    let sum_ms = |pred: &dyn Fn(&Span<'_>) -> bool| -> f64 {
        inside.iter().filter(|s| pred(s)).map(|s| s.ms()).sum::<f64>() / n
    };
    let gemms: Vec<&&Span<'_>> = inside.iter().filter(|s| s.name == "kernel_gemm").collect();
    let gemm_ms = gemms.iter().map(|s| s.ms()).sum::<f64>();
    let gemm_flops: f64 =
        gemms.iter().map(|s| 2.0 * s.arg("m") * s.arg("n") * s.arg("k")).sum::<f64>();
    let kernels: Vec<&&Span<'_>> = inside.iter().filter(|s| s.is_kernel()).collect();
    let workers_mean =
        kernels.iter().map(|s| s.arg("threads")).sum::<f64>() / kernels.len().max(1) as f64;
    let accounted: Vec<Interval> =
        inside.iter().filter(|s| s.is_accounted()).map(|s| s.at).collect();
    let other_ms = step_spans.iter().map(|st| self_time(st.at, &accounted)).sum::<f64>() / 1e3 / n;
    let step_ms = step_spans.iter().map(|s| s.ms()).sum::<f64>() / n;
    let recompute_ms = sum_ms(&|s| s.is_recompute());

    // Exact per-step counts: the worst rank, averaged over the steps.
    let per_step = |f: &dyn Fn(&crate::session::RankRecord) -> f64| -> f64 {
        cx.steps.iter().map(|st| st.ranks.iter().flatten().map(f).fold(0.0, f64::max)).sum::<f64>()
            / n
    };
    let calls = |kind: CollectiveKind| per_step(&|r| r.comm.kind(kind).calls as f64);
    let tp_wire = per_step(&|r| {
        [CollectiveKind::AllGather, CollectiveKind::ReduceScatter, CollectiveKind::AllReduce]
            .iter()
            .map(|&k| r.comm.kind(k).wire_bytes as f64)
            .sum::<f64>()
    });

    let (idle_share, idle_share_sim, peak_live) = match cx.spec.layout {
        Layout::Pipeline { pp, micro } => {
            let costs: Vec<(f64, f64, StageCosts)> = (0..pp as u32)
                .map(|stage| {
                    let iters = on(stage, "bench.iteration");
                    let wall: f64 = iters.iter().map(|s| s.ms()).sum::<f64>();
                    let in_iter = |pred: &dyn Fn(&Span<'_>) -> bool| -> f64 {
                        spans
                            .iter()
                            .filter(|s| {
                                s.track == stage
                                    && pred(s)
                                    && iters.iter().any(|it| s.within(it.at))
                            })
                            .map(|s| s.ms())
                            .sum::<f64>()
                    };
                    let recv = in_iter(&|s| s.name == "recv");
                    let recompute = in_iter(&|s| s.is_recompute());
                    // Busy time per microbatch, split forward : backward =
                    // 1 : 2 (the backward does twice the forward's FLOPs)
                    // after taking out the measured replay.
                    let per_micro = (wall - recv) / n / micro as f64;
                    let replay = recompute / n / micro as f64;
                    let fwd = (per_micro - replay).max(0.0) / 3.0;
                    (recv, wall, StageCosts::new(fwd, 2.0 * fwd, replay))
                })
                .collect();
            let idle = costs
                .iter()
                .map(|(recv, wall, _)| recv / wall.max(f64::MIN_POSITIVE))
                .fold(0.0, f64::max);
            let sim = PipelineSim {
                stages: costs.iter().map(|(_, _, c)| *c).collect(),
                p2p_ms: 0.0,
                num_micro: micro as u64,
            }
            .simulate_1f1b(None)
            .bubble_fraction();
            let live = cx.steps.last().map_or(0.0, |st| {
                st.ranks.iter().flatten().map(|r| r.live_states as f64).fold(0.0, f64::max)
            });
            (idle, sim, live)
        }
        _ => (0.0, 0.0, 0.0),
    };

    let shape = cx.spec.cfg.to_shape();
    let flops = FlopsModel::new(shape, (cx.spec.tokens_per_step() / cx.spec.cfg.seq) as u64);
    let peak = cx.host.gemm_probe_gflops * 1e9;
    let workers = cx.spec.workers() as u64;
    let batch_ms = on(DRIVER_TRACK, "bench.batch").iter().map(|s| s.ms()).sum::<f64>() / n;

    let values = [
        gemm_ms / n,
        gemms.len() as f64 / n,
        gemm_flops / (gemm_ms / 1e3).max(f64::MIN_POSITIVE) / 1e9,
        gemms.iter().map(|s| s.arg("packing_us")).sum::<f64>() / 1e3 / n,
        sum_ms(&|s| s.name.starts_with("kernel_softmax")),
        sum_ms(&|s| s.name.starts_with("kernel_gelu")),
        sum_ms(&|s| s.name.starts_with("kernel_layer_norm")),
        workers_mean,
        sum_ms(&|s| s.name == "forward"),
        sum_ms(&|s| s.name == "backward"),
        recompute_ms,
        recompute_ms / step_ms.max(f64::MIN_POSITIVE),
        sum_ms(&|s| matches!(s.name, "optimizer" | "bench.optimizer")),
        other_ms,
        flops.mfu(cx.untraced_p50_s, workers, peak),
        flops.hfu(cx.spec.recompute, cx.untraced_p50_s, workers, peak),
        calls(CollectiveKind::AllGather),
        calls(CollectiveKind::ReduceScatter),
        calls(CollectiveKind::AllReduce),
        calls(CollectiveKind::SendRecv),
        tp_wire,
        per_step(&|r| r.timing.comm_us as f64 / 1e3),
        per_step(&|r| r.timing.exposed_us as f64 / 1e3),
        idle_share,
        idle_share_sim,
        peak_live,
        batch_ms,
        cx.host.gemm_probe_gflops,
        cx.host.barrier_probe_us,
        (cx.traced_p50_s / cx.untraced_p50_s - 1.0) * 100.0,
    ];
    PER_LAYER
        .iter()
        .zip(values)
        // `+ 0.0` turns the -0.0 an empty float sum yields into 0.0.
        .map(|(&(name, unit), value)| Metric { name, value: value + 0.0, unit })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn ev(
        name: &'static str,
        track: u32,
        ts: f64,
        dur: f64,
        args: Vec<(&'static str, ArgValue)>,
    ) -> TraceEvent {
        TraceEvent {
            name: Cow::Borrowed(name),
            track,
            ts_us: ts,
            kind: EventKind::Complete { dur_us: dur },
            args,
        }
    }

    #[test]
    fn other_time_is_step_self_time_over_accounted_spans() {
        let spec = crate::workload::spec("long_seq_serial").unwrap();
        let host = Host {
            cpu: "test".into(),
            simd: "scalar",
            parallelism: 2,
            gemm_probe_gflops: 10.0,
            barrier_probe_us: 5.0,
        };
        let gemm_args = vec![
            ("m", ArgValue::U64(100)),
            ("n", ArgValue::U64(100)),
            ("k", ArgValue::U64(100)),
            ("threads", ArgValue::U64(2)),
            ("packing_us", ArgValue::U64(100)),
        ];
        // A 10 ms step: forward [0, 4) ms holding a 2 ms GEMM, backward
        // [4, 9) ms holding a 1 ms softmax nested in a 2 ms replay, and a
        // 1 ms optimizer. Accounted: GEMM 2 + softmax 1 + optimizer 1.
        let events = vec![
            ev("kernel_gemm", 0, 1000.0, 2000.0, gemm_args),
            ev("forward", 0, 0.0, 4000.0, vec![]),
            ev("kernel_softmax_backward", 0, 5000.0, 1000.0, vec![("threads", ArgValue::U64(1))]),
            ev("recompute_attention", 0, 4500.0, 2000.0, vec![]),
            ev("backward", 0, 4000.0, 5000.0, vec![]),
            ev("optimizer", 0, 9000.0, 1000.0, vec![]),
            ev("step", 0, 0.0, 10_000.0, vec![]),
            // Outside the step: ignored.
            ev("kernel_gemm", 0, 20_000.0, 5000.0, vec![]),
            ev("bench.batch", DRIVER_TRACK, 30_000.0, 500.0, vec![]),
        ];
        let steps = [StepRecord { wall_s: 0.01, ranks: vec![] }];
        let cx = Context {
            spec: &spec,
            steps: &steps,
            host: &host,
            untraced_p50_s: 0.01,
            traced_p50_s: 0.011,
        };
        let m = per_layer(&events, &cx);
        let get = |name: &str| m.iter().find(|x| x.name == name).unwrap().value;
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(get("kernels.gemm_ms"), 2.0);
        assert_eq!(get("kernels.gemm_calls"), 1.0);
        assert!((get("kernels.gemm_gflops") - 2e6 / 2e-3 / 1e9).abs() < 1e-12);
        assert_eq!(get("kernels.gemm_packing_ms"), 0.1);
        assert_eq!(get("kernels.softmax_ms"), 1.0);
        assert_eq!(get("kernels.workers_mean"), 1.5);
        assert_eq!(get("model.forward_ms"), 4.0);
        assert_eq!(get("model.backward_ms"), 5.0);
        assert_eq!(get("model.recompute_ms"), 2.0);
        assert_eq!(get("model.recompute_share"), 0.2);
        assert_eq!(get("model.optimizer_ms"), 1.0);
        assert_eq!(get("model.other_ms"), 6.0);
        assert_eq!(get("data.batch_ms"), 0.5);
        assert!((get("trace.overhead_pct") - 10.0).abs() < 1e-9);
        assert_eq!(get("pipeline.idle_share"), 0.0);
    }
}
