//! Regenerates the paper's tables and figures.
//!
//! ```text
//! report [--table2] [--table4] [--table5] [--figure1] [--figure7]
//!        [--figure8] [--figure9] [--flops] [--selective] [--appendixc]
//!        [--all] [--json PATH]
//! ```
//!
//! With no flags, `--all` is assumed. `--json PATH` additionally writes the
//! machine-readable record used to refresh EXPERIMENTS.md, and
//! `--trace PATH` writes a Chrome-tracing timeline of the 1T model's 1F1B
//! schedule (open in `chrome://tracing` or Perfetto).

use mt_bench::reports;
use mt_core::ModelZoo;
use std::process::ExitCode;

const USAGE: &str = "usage: report [--table2|--table4|--table5|--figure1|--figure7|--figure8|--figure9|--flops|--selective|--appendixc|--ablation|--sweeps|--fragmentation|--relief|--breakdown|--relatedwork|--all]* [--json PATH] [--trace PATH]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut sections: Vec<&str> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => match iter.next() {
                Some(path) => json_path = Some(path.clone()),
                None => {
                    eprintln!("--json requires a path\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--trace" => match iter.next() {
                Some(path) => trace_path = Some(path.clone()),
                None => {
                    eprintln!("--trace requires a path\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--all" => sections.push("all"),
            "--table2" | "--table4" | "--table5" | "--figure1" | "--figure7" | "--figure8"
            | "--figure9" | "--flops" | "--selective" | "--appendixc" | "--ablation"
            | "--sweeps" | "--fragmentation" | "--relief" | "--breakdown" | "--relatedwork" => {
                sections.push(Box::leak(arg.trim_start_matches("--").to_owned().into_boxed_str()))
            }
            other => {
                eprintln!("unknown argument {other}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    if sections.is_empty() {
        sections.push("all");
    }
    let want = |name: &str| sections.iter().any(|s| *s == name || *s == "all");

    println!("Reducing Activation Recomputation in Large Transformer Models — reproduction report");
    println!(
        "====================================================================================\n"
    );
    if want("table2") {
        println!("{}", reports::render_table2(&ModelZoo::gpt_22b()));
    }
    if want("figure1") {
        println!("{}", reports::render_figure1());
    }
    if want("figure7") {
        println!("{}", reports::render_figure7());
    }
    if want("table4") {
        println!("{}", reports::render_table4());
    }
    if want("figure8") {
        println!("{}", reports::render_figure8());
    }
    if want("table5") {
        println!("{}", reports::render_table5());
    }
    if want("figure9") {
        println!("{}", reports::render_figure9());
    }
    if want("flops") {
        println!("{}", reports::render_flops());
    }
    if want("selective") {
        println!("{}", reports::render_selective());
    }
    if want("appendixc") {
        println!("{}", reports::render_appendix_c());
    }
    if want("ablation") {
        println!("{}", reports::render_ablation());
    }
    if want("sweeps") {
        println!("{}", reports::render_sweeps());
    }
    if want("fragmentation") {
        println!("{}", reports::render_fragmentation());
    }
    if want("relief") {
        println!("{}", reports::render_relief());
    }
    if want("breakdown") {
        println!("{}", reports::render_breakdown());
    }
    if want("relatedwork") {
        println!("{}", reports::render_related_work());
    }
    if let Some(path) = trace_path {
        use mt_core::{Estimator, ModelZoo};
        use mt_memory::Strategy;
        let est = Estimator::for_paper_model(&ModelZoo::gpt_1t());
        let sim = est.pipeline_sim(Strategy::tp_sp_selective());
        let tracer = mt_trace::Tracer::enabled();
        sim.simulate_1f1b_traced(None, &tracer);
        let trace = mt_trace::export::chrome_trace(&tracer.events());
        if let Err(e) = mt_trace::export::validate_chrome_trace(&trace) {
            eprintln!("1F1B trace failed validation: {e}");
            return ExitCode::FAILURE;
        }
        let json = serde_json::to_string_pretty(&trace).expect("trace serializes");
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("Chrome trace of the 1T 1F1B schedule written to {path}");
    }
    if let Some(path) = json_path {
        let json =
            serde_json::to_string_pretty(&reports::all_reports_json()).expect("reports serialize");
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("machine-readable record written to {path}");
    }
    ExitCode::SUCCESS
}
