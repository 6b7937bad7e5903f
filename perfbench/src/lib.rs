//! The repository benchmark: three seeded workloads driven through the
//! stack's public entry points, measured on both of the simulator's
//! clocks.
//!
//! - *Modeled device time* is what the simulator predicts for a phone.
//!   It is deterministic: one seed gives bit-identical modeled numbers,
//!   and every run prints their fingerprint.
//! - *Host time* is what the simulator costs to run. It is taken as CPU
//!   time of this process ([`probe`]), the steadier of the host clocks.
//!
//! Each workload builds its stack ([`Workload::setup`], timed several
//! times, median reported as `setup_s`), then repeats one fixed seeded
//! job ([`Workload::run`]) until the run's time is up. Every repetition
//! must reproduce the first bit for bit. A traced run (`--trace 1`) adds
//! one repetition with spans around each layer call ([`trace`]) and
//! reports the per-layer metrics instead of the end-to-end ones.

pub mod kernels;
pub mod probe;
pub mod serve_fleet;
pub mod stats;
pub mod trace;
pub mod tts_bon;

use std::collections::BTreeMap;
use std::time::Instant;

use probe::{CpuClock, Stopwatch};
use trace::{Tracer, NO_ID};

/// Every end-to-end metric: `(name, unit)`. Printed by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("step_latency_s", "s"),
];

/// Every per-layer metric: `(name, unit)`. Printed by traced runs; a
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Host CPU seconds per simulated second. Printed by every run; not an
    // end-to-end metric because on a shared 2-core VM its run-to-run spread
    // (0.04 to 0.29 of the median over ten seeds) reaches the largest
    // bound the benchmark may set.
    ("host_s_per_sim_s", "s/s"),
    ("failed_frac", "frac"),
    ("trace.overhead_s_per_sim_s", "s/s"),
    ("trace.spans", "count"),
    // hexsim
    ("hexsim.engine_s.hvx", "s"),
    ("hexsim.engine_s.hmx", "s"),
    ("hexsim.engine_s.dma", "s"),
    ("hexsim.engine_s.cpu", "s"),
    ("hexsim.counters.hvx_instructions", "count"),
    ("hexsim.counters.vgathers", "count"),
    ("hexsim.counters.vluts", "count"),
    ("hexsim.counters.hmx_tile_ops", "count"),
    ("hexsim.counters.dma_bytes", "bytes"),
    ("hexsim.counters.tcm_bytes", "bytes"),
    // tilequant
    ("tilequant.quantize_host_s", "s"),
    ("tilequant.rmse", "1"),
    // htpops
    ("htpops.gemm.ours.host_ms", "ms"),
    ("htpops.gemm.ours.modeled_us", "us"),
    ("htpops.gemm.ours.rel_err", "1"),
    ("htpops.gemm.baseline.host_ms", "ms"),
    ("htpops.gemm.baseline.modeled_us", "us"),
    ("htpops.gemm.baseline.rel_err", "1"),
    ("htpops.softmax.lut16.host_ms", "ms"),
    ("htpops.softmax.lut16.modeled_us", "us"),
    ("htpops.softmax.lut16.rel_err", "1"),
    ("htpops.softmax.f32poly.host_ms", "ms"),
    ("htpops.softmax.f32poly.modeled_us", "us"),
    ("htpops.softmax.f32poly.rel_err", "1"),
    ("htpops.attention.host_ms", "ms"),
    ("htpops.attention.modeled_us", "us"),
    ("htpops.attention.rel_err", "1"),
    ("htpops.gemm_speedup_x", "x"),
    ("htpops.softmax_speedup_x", "x"),
    // edgellm
    ("edgellm.step_host_ms_p50", "ms"),
    ("edgellm.step_host_ms_tail", "ms"),
    ("edgellm.model_new_host_ms", "ms"),
    ("edgellm.session_new_host_ms", "ms"),
    ("edgellm.host_ms_per_step", "ms"),
    ("edgellm.steps", "count"),
    ("edgellm.batch_occupancy", "frac"),
    ("edgellm.cost.gemm_s", "s"),
    ("edgellm.cost.attn_s", "s"),
    ("edgellm.cost.misc_s", "s"),
    ("edgellm.cost.cpu_s", "s"),
    ("edgellm.overlap_gain", "x"),
    ("edgellm.decode_tok_s", "tok/s"),
    ("edgellm.tokens_per_joule", "tok/J"),
    // ttscale
    ("ttscale.bon_host_ms", "ms"),
    ("ttscale.mean_sample_tokens", "tokens"),
    ("ttscale.max_sample_tokens", "tokens"),
    ("ttscale.pass_at_n_pct", "%"),
    ("ttscale.accuracy_pct", "%"),
    ("ttscale.task_latency_p50_s", "s"),
    // npuscale
    ("npuscale.plan_worker_host_s", "s"),
    ("npuscale.worker.8G4.decode_step_s", "s"),
    ("npuscale.worker.8G3.decode_step_s", "s"),
    ("npuscale.worker.8G2-streamed.decode_step_s", "s"),
    // serve
    ("serve.ttft_p50_s", "s"),
    ("serve.ttft_p99_s", "s"),
    ("serve.tbt_p50_s", "s"),
    ("serve.tbt_p99_s", "s"),
    ("serve.goodput_rps", "1/s"),
    ("serve.decode_tok_s", "tok/s"),
    ("serve.queue_wait_p50_s", "s"),
    ("serve.queue_wait_p99_s", "s"),
    ("serve.peak_queue_depth", "count"),
    ("serve.preemptions", "count"),
    ("serve.jain_fairness", "1"),
    ("serve.worker.8G4.steps", "count"),
    ("serve.worker.8G4.busy_s", "s"),
    ("serve.worker.8G4.utilization", "frac"),
    ("serve.worker.8G4.npu_lane_utilization", "frac"),
    ("serve.worker.8G3.steps", "count"),
    ("serve.worker.8G3.busy_s", "s"),
    ("serve.worker.8G3.utilization", "frac"),
    ("serve.worker.8G3.npu_lane_utilization", "frac"),
    ("serve.worker.8G2-streamed.steps", "count"),
    ("serve.worker.8G2-streamed.busy_s", "s"),
    ("serve.worker.8G2-streamed.utilization", "frac"),
    ("serve.worker.8G2-streamed.npu_lane_utilization", "frac"),
    // thermal
    ("thermal.throttled_steps", "count"),
    ("thermal.peak_temp_c", "degC"),
];

/// Set-up samples per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// CPU seconds one set-up sample covers at least.
pub const SETUP_SAMPLE_MIN_S: f64 = 0.25;

/// Builds one set-up sample makes at most.
pub const SETUP_SAMPLE_MAX_BUILDS: u32 = 1000;

/// Result of one repetition of a workload's job.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Simulated device seconds the job covers: the denominator of
    /// `host_s_per_sim_s`.
    pub sim_secs: f64,
    /// Operations attempted (requests, tasks or kernel calls).
    pub attempted: u64,
    /// Operations that failed or failed a check.
    pub failed: u64,
    /// Every modeled number, by metric name.
    pub modeled: BTreeMap<String, f64>,
    /// Digest of the job's outputs, equal across repetitions.
    pub digest: u64,
    /// Lines describing the repetition.
    pub notes: Vec<String>,
}

impl Rep {
    /// Records a modeled number.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.modeled.insert(name.into(), value);
    }

    /// Fingerprint over every modeled number.
    pub fn fingerprint(&self) -> u64 {
        stats::fingerprint(self.modeled.iter().map(|(k, v)| (k.as_str(), *v)))
    }
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Builds the stack and the seeded inputs.
    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String>;

    /// Runs the job once. Cheap output checks run here and count into
    /// [`Rep::failed`].
    fn run(&mut self, tr: &mut Tracer) -> Result<Rep, String>;

    /// Output checks too costly to time, run once after the first
    /// repetition: they may add modeled numbers (error sizes) and
    /// failures to its `rep`.
    fn verify(&mut self, _rep: &mut Rep) -> Result<(), String> {
        Ok(())
    }

    /// Per-layer host metrics read off a traced repetition's spans.
    /// `setup` holds the spans of one set-up.
    fn host_layers(setup: &Tracer, timed: &Tracer, rep: &Rep) -> Vec<(&'static str, f64)>;
}

/// Run settings.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Workload seed.
    pub seed: u64,
    /// Target length of the timed phase in wall seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// What one benchmark run found.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted in one repetition.
    pub attempted: u64,
    /// Operations failed in one repetition (plus untimed check failures).
    pub failed: u64,
    /// `(name, value, unit)` in declaration order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The first repetition's modeled numbers.
    pub modeled: BTreeMap<String, f64>,
    /// Fingerprint of the modeled numbers.
    pub fingerprint: u64,
    /// Report lines.
    pub notes: Vec<String>,
    /// Chrome trace-event JSON of the traced run.
    pub trace_json: Option<String>,
}

/// Runs a workload per `cfg`.
pub fn run<W: Workload>(cfg: Config) -> Result<Outcome, String> {
    let mut cpu = CpuClock::open()?;
    let wall0 = Instant::now();
    let mut notes = vec![format!(
        "host: nproc {}; host metrics are CPU time from /proc/thread-self/schedstat, wall time is reported beside them",
        probe::nproc()
    )];

    // Set-up, several times; the last one is kept. A cheap set-up repeats
    // within one sample until the sample covers SETUP_SAMPLE_MIN_S of CPU
    // time, because schedstat advances in scheduler ticks (a few ms).
    let mut setup_tr = Tracer::off();
    let mut setup_cpu = Vec::with_capacity(SETUP_REPEATS);
    let mut builds = 0;
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        let sw = Stopwatch::start(&mut cpu)?;
        let mut count = 0;
        let cpu_secs = loop {
            drop(workload.take());
            setup_tr = if cfg.trace {
                Tracer::on()?
            } else {
                Tracer::off()
            };
            workload = Some(W::setup(cfg.seed, &mut setup_tr)?);
            count += 1;
            let (c, _) = sw.lap(&mut cpu)?;
            if c >= SETUP_SAMPLE_MIN_S || count == SETUP_SAMPLE_MAX_BUILDS {
                break c;
            }
        };
        builds += count;
        setup_cpu.push(cpu_secs / f64::from(count));
    }
    let mut workload = workload.expect("SETUP_REPEATS >= 1");
    let setup_s = stats::median(&setup_cpu);
    notes.push(format!(
        "setup: {setup_s} cpu s (median of {SETUP_REPEATS} samples {setup_cpu:?}, {builds} builds)"
    ));

    // Timed phase: untraced repetitions until the time is up. An untraced
    // run makes at least two, so the second can be checked against the
    // first; a traced run keeps room for its traced repetition.
    let min_untraced = if cfg.trace { 1 } else { 2 };
    let timed0 = Instant::now();
    let mut rep_cpu = Vec::new();
    let mut rep_wall = Vec::new();
    let mut first: Option<Rep> = None;
    let mut first_key = (0, 0, 0);
    let mut correct = true;
    loop {
        let sw = Stopwatch::start(&mut cpu)?;
        let rep = workload.run(&mut Tracer::off())?;
        let (c, w) = sw.lap(&mut cpu)?;
        rep_cpu.push(c);
        rep_wall.push(w);
        match &first {
            None => {
                first_key = rep_key(&rep);
                let mut rep = rep;
                workload.verify(&mut rep)?;
                first = Some(rep);
            }
            Some(_) => {
                if rep_key(&rep) != first_key {
                    correct = false;
                    notes.push(format!(
                        "CHECK FAILED: repetition {} differs from the first",
                        rep_cpu.len()
                    ));
                }
            }
        }
        let elapsed = timed0.elapsed().as_secs_f64();
        let next = stats::median(&rep_wall);
        let reserve = if cfg.trace { next } else { 0.0 };
        if rep_cpu.len() >= min_untraced && elapsed + next + reserve > cfg.seconds {
            break;
        }
    }
    let first = first.expect("at least one repetition");
    let sim_secs = first.sim_secs;
    let host_s_per_sim_s = stats::median(&rep_cpu) / sim_secs;
    notes.push(format!(
        "timed: {} repetitions, cpu {:?} s, wall {:?} s, simulated {} s each; \
         host_s_per_sim_s {host_s_per_sim_s}",
        rep_cpu.len(),
        rep_cpu,
        rep_wall,
        sim_secs
    ));
    notes.extend(first.notes.iter().cloned());

    let mut metrics = Vec::new();
    let mut trace_json = None;
    if cfg.trace {
        let mut tr = Tracer::on()?;
        let sw = Stopwatch::start(&mut cpu)?;
        let open = tr.begin("timed", NO_ID);
        let rep = workload.run(&mut tr)?;
        tr.end(open);
        let (traced_cpu, _) = sw.lap(&mut cpu)?;
        if rep_key(&rep) != first_key {
            correct = false;
            notes.push("CHECK FAILED: the traced repetition differs from the first".into());
        }
        let overhead = traced_cpu / sim_secs - host_s_per_sim_s;
        let self_sum: f64 = tr.self_times().values().sum();
        notes.push(format!(
            "trace: {} spans; self times sum to {self_sum} s against {traced_cpu} s timed \
             (difference {} s); overhead {overhead} host s per simulated s \
             (traced minus untraced median)",
            tr.spans().len(),
            traced_cpu - self_sum
        ));
        for (name, secs) in tr.self_times() {
            notes.push(format!("  self time {name}: {secs} s"));
        }
        let mut host: BTreeMap<&str, f64> =
            W::host_layers(&setup_tr, &tr, &first).into_iter().collect();
        host.insert("host_s_per_sim_s", host_s_per_sim_s);
        host.insert("trace.overhead_s_per_sim_s", overhead);
        host.insert("trace.spans", tr.spans().len() as f64);
        host.insert(
            "failed_frac",
            first.failed as f64 / first.attempted.max(1) as f64,
        );
        for &(name, unit) in PER_LAYER {
            let value = first
                .modeled
                .get(name)
                .or_else(|| host.get(name))
                .copied()
                .unwrap_or(0.0);
            metrics.push((name, value, unit));
        }
        trace_json = Some(tr.chrome_json());
    } else {
        let step_latency = *first
            .modeled
            .get("step_latency_s")
            .ok_or("workload reported no step_latency_s")?;
        for &(name, unit) in END_TO_END {
            let value = match name {
                "setup_s" => setup_s,
                "peak_rss_mb" => probe::peak_rss_mb()?,
                "step_latency_s" => step_latency,
                _ => unreachable!("every end-to-end metric is handled"),
            };
            metrics.push((name, value, unit));
        }
    }
    if first.failed > 0 {
        correct = false;
    }
    if let Some((name, value, _)) = metrics.iter().find(|m| !m.1.is_finite()) {
        return Err(format!("metric {name} is not finite: {value}"));
    }
    let fingerprint = first.fingerprint();
    notes.push(format!(
        "modeled fingerprint {fingerprint:016x} over {} modeled numbers",
        first.modeled.len()
    ));
    notes.push(format!("total wall {} s", wall0.elapsed().as_secs_f64()));
    Ok(Outcome {
        correct,
        attempted: first.attempted,
        failed: first.failed,
        metrics,
        modeled: first.modeled,
        fingerprint,
        notes,
        trace_json,
    })
}

/// What two repetitions must agree on: every output bit, every modeled
/// number and the failures found.
fn rep_key(rep: &Rep) -> (u64, u64, u64) {
    (rep.digest, rep.fingerprint(), rep.failed)
}

/// Renders the result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// A finite value as a JSON number with every digit (shortest round-trip
/// form).
fn json_num(v: f64) -> String {
    format!("{v:?}")
}

/// Replaces every character outside `[A-Za-z0-9_.-]` with `-`, so labels
/// such as `8G2 streamed` can sit inside metric names.
pub fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-') {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// Whether a metric name is made only of `[A-Za-z0-9_.-]`, starts with a
/// letter or digit, and has at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && sanitize(name) == name
}

/// Median wall duration of the spans named `name`, in milliseconds.
pub fn median_ms(tr: &Tracer, name: &str) -> f64 {
    stats::median(&tr.durations(name)) * 1e3
}
