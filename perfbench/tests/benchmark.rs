//! The benchmark's own checks. Run them optimized:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::kernels::Kernels;
use perfbench::serve_fleet::ServeFleet;
use perfbench::tts_bon::TtsBon;
use perfbench::{run, valid_name, Config, Outcome, Workload, END_TO_END, PER_LAYER};

fn cfg(seed: u64, trace: bool) -> Config {
    Config {
        seed,
        // Shorter than any repetition: every run makes its minimum.
        seconds: 0.01,
        trace,
    }
}

fn run_ok<W: Workload>(c: Config) -> Outcome {
    run::<W>(c).expect("the workload runs")
}

/// Names listed under `section` in the repository's `BENCHMARK.json`.
fn listed(json: &str, section: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn metric_names_and_units_are_well_formed() {
    let mut seen = std::collections::BTreeSet::new();
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(seen.insert(name), "metric {name} is listed twice");
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {unit:?} of {name}"
        );
    }
    assert!(!valid_name("a b") && !valid_name("_x") && !valid_name(""));
    assert!(valid_name("serve.worker.8G2-streamed.steps"));
}

#[test]
fn benchmark_json_lists_exactly_these_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside perfbench/");
    let names = |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(listed(&json, "end_to_end"), names(END_TO_END));
    assert_eq!(listed(&json, "per_layer"), names(PER_LAYER));
    assert_eq!(
        listed(&json, "workloads"),
        ["serve_fleet", "tts_bon", "kernels"]
    );
}

#[test]
fn traced_run_reports_every_per_layer_metric() {
    let o = run_ok::<TtsBon>(cfg(5, true));
    let names: Vec<&str> = o.metrics.iter().map(|m| m.0).collect();
    let want: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    assert_eq!(names, want);
    let json = o.trace_json.expect("a traced run keeps its spans");
    assert!(json.contains("\"name\":\"edgellm.step\""));
    let spans = o.metrics.iter().find(|m| m.0 == "trace.spans").unwrap().1;
    assert_eq!(json.matches("\"ph\":\"X\"").count() as f64, spans);
}

/// A seed that was not used while the benchmark was built.
const HELD_OUT_SEED: u64 = 4_242_424;

/// Runs the held-out seed twice in process: both runs must be clean and
/// give identical modeled numbers. Returns the first.
fn held_out<W: Workload>() -> Outcome {
    let a = run_ok::<W>(cfg(HELD_OUT_SEED, false));
    let b = run_ok::<W>(cfg(HELD_OUT_SEED, false));
    assert!(a.correct && a.failed == 0, "{:?}", a.notes);
    assert!(b.correct && b.failed == 0, "{:?}", b.notes);
    assert_eq!(a.modeled, b.modeled, "modeled numbers differ between runs");
    assert_eq!(a.fingerprint, b.fingerprint);
    a
}

fn value(o: &Outcome, name: &str) -> f64 {
    *o.modeled
        .get(name)
        .unwrap_or_else(|| panic!("no modeled {name}"))
}

#[test]
fn serve_fleet_repeats_and_queues_preempts_and_throttles() {
    let o = held_out::<ServeFleet>();
    assert!(value(&o, "serve.peak_queue_depth") >= 1.0);
    assert!(value(&o, "serve.preemptions") >= 1.0);
    assert!(value(&o, "thermal.throttled_steps") >= 1.0);
}

#[test]
fn tts_bon_repeats_and_retires_samples_early() {
    let o = held_out::<TtsBon>();
    assert!(value(&o, "edgellm.batch_occupancy") < 1.0);
}

#[test]
fn kernels_repeat_and_pass_every_reference_check() {
    let o = held_out::<Kernels>();
    assert_eq!(o.attempted, 18);
    assert!(value(&o, "htpops.gemm_speedup_x") > 1.0);
}
