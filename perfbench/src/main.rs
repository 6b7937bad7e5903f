//! `perfbench --workload <serve_fleet|tts_bon|kernels> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints report lines, then one JSON result line:
//! `{"correct", "attempted", "failed", "metrics"}`. An untraced run
//! reports the end-to-end metrics, a traced run the per-layer ones and
//! writes its spans as Chrome trace-event JSON under `perfbench/out/`.
//! Exits non-zero, printing no result, when the run cannot complete.

use std::process::ExitCode;

use perfbench::kernels::Kernels;
use perfbench::serve_fleet::ServeFleet;
use perfbench::tts_bon::TtsBon;
use perfbench::{result_json, run, Config, Outcome};

fn parse() -> Result<(String, Config), String> {
    let mut workload = None;
    let mut cfg = Config {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, cfg))
}

fn execute(workload: &str, cfg: Config) -> Result<Outcome, String> {
    match workload {
        "serve_fleet" => run::<ServeFleet>(cfg),
        "tts_bon" => run::<TtsBon>(cfg),
        "kernels" => run::<Kernels>(cfg),
        other => Err(format!(
            "unknown workload {other:?} (serve_fleet, tts_bon, kernels)"
        )),
    }
}

fn main() -> ExitCode {
    let outcome = parse().and_then(|(workload, cfg)| {
        let outcome = execute(&workload, cfg)?;
        if let Some(json) = &outcome.trace_json {
            let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
            let path = format!("{dir}/trace-{workload}-seed{}.json", cfg.seed);
            std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, json))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!(
                "trace written to perfbench/out/trace-{workload}-seed{}.json",
                cfg.seed
            );
        }
        Ok(outcome)
    });
    match outcome {
        Ok(o) => {
            for line in &o.notes {
                println!("{line}");
            }
            println!("{}", result_json(&o));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
