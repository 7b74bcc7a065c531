//! Trainer-step benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--compare <result.json>]
//! ```
//!
//! `--trace 0` sets the workload up several times (reporting the median
//! set-up time), then runs untraced steps for `--seconds` and reports the
//! end-to-end metrics. `--trace 1` runs untraced then traced steps for half
//! the time each and reports the per-layer metrics. Every step's outputs
//! are checked; the last line of standard output is the result object.
//! See `README.md` next to this crate for the workloads and metrics.

mod host;
mod layers;
mod pipeline;
mod session;
mod stats;
mod trainer;
mod workload;

use host::Host;
use layers::Metric;
use serde_json::Value;
use session::{Expect, Session, StepRecord};
use stats::{median, percentile, tail_percentile, Failures};
use std::path::PathBuf;
use std::time::Instant;
use workload::{Layout, Spec};

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Untimed steps each set-up ends with.
const WARMUP_STEPS: usize = 1;
/// Timed steps a `--trace 0` run makes however short `--seconds` is.
const MIN_TIMED_STEPS: usize = 5;
/// Timed steps whose mean loss is `final_loss`: a fixed window, so the
/// value depends on the seed only, not on how many steps fit in the time.
const LOSS_WINDOW: std::ops::Range<usize> = 2..5;
/// Steps each half of a `--trace 1` run makes at least.
const MIN_TRACE_PHASE_STEPS: usize = 3;
/// Where result documents go, relative to the working directory.
const OUT_DIR: &str = "perfbench-out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    compare: Option<PathBuf>,
}

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     [--compare <result.json>]";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == flag)?;
        Some(argv.get(i + 1).cloned().unwrap_or_default())
    };
    let workload = get("--workload").ok_or("missing --workload")?;
    let seed = get("--seed").ok_or("missing --seed")?;
    let seed = seed.parse::<u64>().map_err(|_| format!("--seed needs an integer, got `{seed}`"))?;
    let seconds = get("--seconds").ok_or("missing --seconds")?;
    let seconds =
        seconds.parse::<f64>().map_err(|_| format!("--seconds needs a number, got `{seconds}`"))?;
    let trace = match get("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace needs 0 or 1, got `{other}`")),
    };
    let compare = get("--compare").map(PathBuf::from);
    let known = ["--workload", "--seed", "--seconds", "--trace", "--compare"];
    if let Some(bad) = argv.iter().step_by(2).find(|a| !known.contains(&a.as_str())) {
        return Err(format!("unknown argument `{bad}`"));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, seed, seconds, trace, compare })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let Some(spec) = workload::spec(&args.workload) else {
        eprintln!("perfbench: unknown workload `{}` (one of {:?})", args.workload, workload::NAMES);
        std::process::exit(2);
    };
    let host = Host::probe();
    println!("perfbench: workload {} seed {} trace {}", spec.name, args.seed, u8::from(args.trace));
    println!("host: {}", host.fingerprint());
    let mut bench = Bench::new(spec, args.seed);
    let metrics =
        if args.trace { bench.traced(&host, args.seconds) } else { bench.untraced(args.seconds) };
    for m in &metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "checks: {} of {} operations failed ({:.1}%)",
        bench.failures.failed,
        bench.failures.attempted,
        100.0 * bench.failures.share()
    );
    let doc = result_doc(&spec, &args, &host, &metrics);
    save_and_compare(&doc, &args);
    println!("{}", result_line(&bench.failures, &metrics));
}

/// A workload, its checks and the failure tally of one run.
struct Bench {
    spec: Spec,
    seed: u64,
    expect: Expect,
    failures: Failures,
    /// Loss of the latest set-up's first step.
    first_loss: Option<f32>,
}

impl Bench {
    fn new(spec: Spec, seed: u64) -> Self {
        let expect = Expect {
            activation_bytes: spec.predicted_activation_bytes(),
            live_states: match spec.layout {
                Layout::Pipeline { pp, micro } => {
                    Some((0..pp).map(|stage| (pp - stage).min(micro)).collect())
                }
                _ => None,
            },
        };
        Bench { spec, seed, expect, failures: Failures::default(), first_loss: None }
    }

    /// Builds a session and runs its warm-up steps.
    fn setup(&mut self) -> Box<dyn Session> {
        let mut session: Box<dyn Session> = match self.spec.layout {
            Layout::Pipeline { .. } => {
                Box::new(pipeline::PipelineSession::new(self.spec, self.seed))
            }
            _ => Box::new(trainer::TrainerSession::new(self.spec, self.seed)),
        };
        for i in 0..WARMUP_STEPS {
            let record = self.step(session.as_mut(), &mt_trace::Tracer::disabled());
            if i == 0 {
                self.first_loss = record.loss();
            }
        }
        session
    }

    /// Runs and checks one step, counting it as attempted (and failed if a
    /// check fails).
    fn step(&mut self, session: &mut dyn Session, tracer: &mt_trace::Tracer) -> StepRecord {
        let record = session.step(tracer);
        let verdict = record.check(&self.expect);
        if let Err(why) = &verdict {
            eprintln!("perfbench: step failed its check: {why}");
        }
        self.failures.record(verdict.is_ok());
        record
    }

    /// Steps until `seconds` have passed and at least `min_steps` ran.
    fn timed(
        &mut self,
        session: &mut dyn Session,
        tracer: &mt_trace::Tracer,
        seconds: f64,
        min_steps: usize,
    ) -> Vec<StepRecord> {
        let t0 = Instant::now();
        let mut steps = Vec::new();
        while steps.len() < min_steps || t0.elapsed().as_secs_f64() < seconds {
            steps.push(self.step(session, tracer));
        }
        steps
    }

    /// The end-to-end pass: repeated set-ups, then untraced timed steps.
    fn untraced(&mut self, seconds: f64) -> Vec<Metric> {
        let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
        let mut session = None;
        for _ in 0..SETUP_REPEATS {
            drop(session.take());
            let t0 = Instant::now();
            session = Some(self.setup());
            setup_s.push(t0.elapsed().as_secs_f64());
        }
        let mut session = session.expect("at least one set-up");
        let steps =
            self.timed(session.as_mut(), &mt_trace::Tracer::disabled(), seconds, MIN_TIMED_STEPS);
        drop(session);

        let walls: Vec<f64> = steps.iter().map(|s| s.wall_s).collect();
        let p50_ms = median(&walls) * 1e3;
        println!("step_ms: p50 {p50_ms:.3} ms over {} steps", walls.len());
        match tail_percentile(walls.len()) {
            Some(q) => println!("step_ms: p{q} {:.3} ms", percentile(&walls, q) * 1e3),
            None => println!("step_ms: no tail percentile (none has ten samples beyond it)"),
        }
        println!("setup_s: {setup_s:?}");
        let losses: Vec<f32> = steps.iter().filter_map(StepRecord::loss).collect();
        println!("loss: first step {:?}, timed steps {losses:?}", self.first_loss);
        let window: Vec<f64> =
            steps[LOSS_WINDOW].iter().filter_map(|s| s.loss()).map(f64::from).collect();
        let final_loss = window.iter().sum::<f64>() / window.len().max(1) as f64;
        // One more operation: training must lower the loss below the
        // fresh model's (the last set-up's warm-up step).
        let learned = self.first_loss.is_some_and(|first| final_loss < f64::from(first));
        if !learned {
            eprintln!(
                "perfbench: final loss {final_loss} not below the first step's {:?}",
                self.first_loss
            );
        }
        self.failures.record(learned);
        let tokens = (self.spec.tokens_per_step() * steps.len()) as f64;
        vec![
            Metric { name: "tokens_per_s", value: tokens / walls.iter().sum::<f64>(), unit: "1/s" },
            Metric { name: "step_ms.p50", value: p50_ms, unit: "ms" },
            Metric {
                name: "activation_bytes",
                value: steps.iter().map(|s| s.activation_bytes()).max().unwrap_or(0) as f64,
                unit: "B",
            },
            Metric {
                name: "peak_rss_mib",
                value: host::peak_rss_mib().unwrap_or(0.0),
                unit: "MiB",
            },
            Metric { name: "final_loss", value: final_loss, unit: "nats" },
            Metric { name: "setup_s", value: median(&setup_s), unit: "s" },
        ]
    }

    /// The per-layer pass: one set-up, untraced steps, then traced steps.
    fn traced(&mut self, host: &Host, seconds: f64) -> Vec<Metric> {
        let mut session = self.setup();
        let off = mt_trace::Tracer::disabled();
        let untraced = self.timed(session.as_mut(), &off, seconds / 2.0, MIN_TRACE_PHASE_STEPS);
        let tracer = mt_trace::Tracer::enabled();
        let traced = self.timed(session.as_mut(), &tracer, seconds / 2.0, MIN_TRACE_PHASE_STEPS);
        drop(session);
        let p50 =
            |steps: &[StepRecord]| median(&steps.iter().map(|s| s.wall_s).collect::<Vec<_>>());
        println!(
            "step_ms: untraced p50 over {} steps, traced p50 over {} steps",
            untraced.len(),
            traced.len()
        );
        if let Layout::Pipeline { pp, micro } = self.spec.layout {
            println!("pipeline: (p - 1)/m = {}", (pp - 1) as f64 / micro as f64);
        }
        let cx = layers::Context {
            spec: &self.spec,
            steps: &traced,
            host,
            untraced_p50_s: p50(&untraced),
            traced_p50_s: p50(&traced),
        };
        layers::per_layer(&tracer.events(), &cx)
    }
}

fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                let v = Value::Object(vec![
                    ("value".into(), Value::Float(m.value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]);
                (m.name.to_string(), v)
            })
            .collect(),
    )
}

/// The result object the last line of output carries.
fn result_line(failures: &Failures, metrics: &[Metric]) -> String {
    let doc = Value::Object(vec![
        ("correct".into(), Value::Bool(failures.failed == 0)),
        ("attempted".into(), Value::UInt(failures.attempted)),
        ("failed".into(), Value::UInt(failures.failed)),
        ("metrics".into(), metrics_json(metrics)),
    ]);
    serde_json::to_string(&doc).expect("result serializes")
}

/// The full result document: workload, seed, host fingerprint and probes,
/// and the metrics.
fn result_doc(spec: &Spec, args: &Args, host: &Host, metrics: &[Metric]) -> Value {
    Value::Object(vec![
        ("workload".into(), Value::Str(spec.name.into())),
        ("seed".into(), Value::UInt(args.seed)),
        ("trace".into(), Value::Bool(args.trace)),
        ("host".into(), host.to_json()),
        ("fingerprint".into(), Value::Str(host.fingerprint())),
        ("metrics".into(), metrics_json(metrics)),
    ])
}

/// Writes the result document under [`OUT_DIR`] and, with `--compare`,
/// prints how it compares with an earlier one.
fn save_and_compare(doc: &Value, args: &Args) {
    let path = PathBuf::from(OUT_DIR).join(format!(
        "{}.seed{}.trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let text = serde_json::to_string_pretty(doc).expect("document serializes");
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    let Some(base_path) = &args.compare else { return };
    let base = std::fs::read_to_string(base_path)
        .map_err(|e| e.to_string())
        .and_then(|s| serde_json::parse(&s).map_err(|e| e.to_string()));
    match base {
        Ok(base) => compare(doc, &base).iter().for_each(|line| println!("compare: {line}")),
        Err(e) => println!("compare: cannot read {}: {e}", base_path.display()),
    }
}

/// Each metric of `doc` as a ratio to the same metric of `base` — only
/// when both documents come from the same host fingerprint. Otherwise one
/// line that flags the difference, and no ratios.
fn compare(doc: &Value, base: &Value) -> Vec<String> {
    let fingerprint = |v: &Value| v.get("fingerprint").and_then(Value::as_str).map(str::to_string);
    if fingerprint(base) != fingerprint(doc) {
        return vec![format!(
            "HOST DIFFERS ({:?} vs {:?}); not comparing across hosts",
            fingerprint(base),
            fingerprint(doc)
        )];
    }
    let value = |v: &Value, name: &str| v.get("metrics")?.get(name)?.get("value")?.as_f64();
    let Some(Value::Object(metrics)) = doc.get("metrics") else { return Vec::new() };
    metrics
        .iter()
        .filter_map(|(name, _)| {
            let (now, then) = (value(doc, name)?, value(base, name)?);
            Some(format!("{name:<28} {then:>14.6} -> {now:>14.6}  x{:.4}", now / then))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut f = Failures::default();
        f.record(true);
        f.record(false);
        let line = result_line(&f, &[Metric { name: "setup_s", value: 1.25, unit: "s" }]);
        assert_eq!(
            line,
            r#"{"correct":false,"attempted":2,"failed":1,"metrics":{"setup_s":{"value":1.25,"unit":"s"}}}"#
        );
    }

    #[test]
    fn comparisons_only_within_one_host() {
        let host = |cpu: &str| Host {
            cpu: cpu.into(),
            simd: "avx2",
            parallelism: 2,
            gemm_probe_gflops: 50.0,
            barrier_probe_us: 5.0,
        };
        let spec = workload::spec("tp_sp_selective").unwrap();
        let args = |trace| Args {
            workload: spec.name.into(),
            seed: 1,
            seconds: 1.0,
            trace,
            compare: None,
        };
        let metric = |value| [Metric { name: "setup_s", value, unit: "s" }];
        let base = result_doc(&spec, &args(false), &host("a"), &metric(2.0));
        let same = result_doc(&spec, &args(false), &host("a"), &metric(3.0));
        let other = result_doc(&spec, &args(false), &host("b"), &metric(3.0));
        let lines = compare(&same, &base);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("setup_s") && lines[0].ends_with("x1.5000"), "{lines:?}");
        let lines = compare(&other, &base);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("HOST DIFFERS"), "{lines:?}");
    }

    #[test]
    fn benchmark_json_lists_what_the_code_prints() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = serde_json::parse(text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            match doc.get(key) {
                Some(Value::Array(items)) => items
                    .iter()
                    .map(|m| m.get("name").and_then(|n| n.as_str()).unwrap().to_string())
                    .collect(),
                _ => panic!("{key} missing"),
            }
        };
        let per_layer: Vec<String> = layers::PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names("per_layer"), per_layer);
        assert_eq!(
            names("end_to_end"),
            [
                "tokens_per_s",
                "step_ms.p50",
                "activation_bytes",
                "peak_rss_mib",
                "final_loss",
                "setup_s"
            ]
        );
        assert_eq!(names("workloads"), workload::NAMES);
    }
}
