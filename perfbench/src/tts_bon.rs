//! `tts_bon`: the paper's scenario, Best-of-N on one phone, as a closed
//! loop. One user sends the next seeded GSM8K-like task once the previous
//! one is answered.
//!
//! `ttscale::best_of_n` (the calibrated Qwen-1.5B policy and the simulated
//! outcome reward model) picks the answer and gives each sample's length.
//! A cost-only `edgellm::DecodeSession` on Qwen-1.5B on the 8 Gen 3 (V75),
//! with overlapped dispatch, prices the work: one shared prompt prefill,
//! then the N samples decoded as one batch, each retiring at its own
//! length. There is no gateway and no thermal loop here.

use edgellm::config::ModelId;
use edgellm::decode_session::DecodeSession;
use edgellm::model::Model;
use edgellm::overlap::DispatchMode;
use edgellm::tokenizer::Tokenizer;
use hexsim::cost::{CostModel, Engine, NUM_ENGINES};
use hexsim::prelude::*;
use htpops::gemm::DequantVariant;
use mathsynth::mathgen::{DatasetKind, MathTask, TaskGenerator};
use npuscale::power::PowerModel;
use ttscale::{best_of_n, CalibratedPolicy, SimOrm};

use crate::stats::{self, fingerprint};
use crate::trace::Tracer;
use crate::{median_ms, Rep, Workload};

/// Samples per task (the Best-of-N budget).
pub const N: usize = 16;
/// Tasks per repetition of the full job.
const TASKS: usize = 5;
/// Worked examples ahead of each question (the usual 8-shot GSM8K
/// prompt), which makes the context long.
const SHOTS: usize = 8;

/// The model, the policy and the seeded task list.
pub struct TtsBon {
    ctx: NpuContext,
    model: Model,
    policy: CalibratedPolicy,
    orm: SimOrm,
    tokenizer: Tokenizer,
    tasks: Vec<MathTask>,
    /// The few-shot prefix every prompt starts with.
    shots: String,
    seed: u64,
}

impl Workload for TtsBon {
    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::CostOnly);
        let mut model = tr
            .span("edgellm.model_new", 0, |_| {
                Model::new(
                    &mut ctx,
                    ModelId::Qwen1_5B,
                    DequantVariant::CoalescedLut,
                    seed,
                )
            })
            .map_err(|e| format!("model build failed: {e}"))?;
        model.set_dispatch_mode(DispatchMode::Overlapped);
        Ok(TtsBon {
            ctx,
            model,
            policy: CalibratedPolicy::new(ModelId::Qwen1_5B, DatasetKind::Gsm8kLike),
            orm: SimOrm::default(),
            tokenizer: Tokenizer::new(),
            tasks: TaskGenerator::new(DatasetKind::Gsm8kLike, seed).take(TASKS),
            shots: TaskGenerator::new(DatasetKind::Gsm8kLike, !seed)
                .take(SHOTS)
                .iter()
                .map(|t| format!("Q: {}\nA: {}\n\n", t.statement, t.answer))
                .collect(),
            seed,
        })
    }

    fn run(&mut self, tr: &mut Tracer) -> Result<Rep, String> {
        // Start every repetition from a zeroed cost model so the modeled
        // numbers (engine-time deltas included) repeat bit for bit.
        self.ctx.cost.reset();
        let power = PowerModel::new(self.ctx.device().clone());
        let mut acc = Acc::default();
        let mut rep = Rep::default();
        for (i, task) in self.tasks.iter().enumerate() {
            let id = i as u64;
            rep.attempted += 1;
            let bon = tr.span("ttscale.best_of_n", id, |_| {
                best_of_n(&self.policy, &self.orm, task, N, self.seed ^ task.id)
            });
            let prompt = self
                .tokenizer
                .encode_with_bos(&format!("{}Q: {}\nA:", self.shots, task.statement));
            let longest = *bon.sample_tokens.iter().max().expect("N >= 1");
            let busy0 = engine_secs(&self.ctx);
            let mut session = tr
                .span("edgellm.session_new", id, |_| {
                    DecodeSession::new(
                        &mut self.ctx,
                        &self.model,
                        &prompt,
                        N,
                        N * (prompt.len() + longest + 1),
                    )
                })
                .map_err(|e| format!("task {id}: session open failed: {e}"))?;
            for &len in &bon.sample_tokens {
                session
                    .admit(0, len)
                    .map_err(|e| format!("task {id}: admit failed: {e}"))?;
            }
            let mut rows = 0;
            while session.active_count() > 0 {
                rows += session.active_count();
                let before = session.decode_cost().overlapped_secs;
                tr.span("edgellm.step", id, |_| {
                    session.step(&mut self.ctx, |_, _| 0)
                })
                .map_err(|e| format!("task {id}: decode step failed: {e}"))?;
                acc.step_secs
                    .push(session.decode_cost().overlapped_secs - before);
            }
            let prefill = session.prefill_cost();
            let decode = session.decode_cost();
            let steps = session.steps();
            let decoded = session.decoded_tokens();
            let finished = session.into_finished(&mut self.ctx);
            // Every sample retires at exactly its best_of_n length.
            let retired_right = finished.len() == N
                && finished
                    .iter()
                    .zip(&bon.sample_tokens)
                    .all(|(f, &len)| f.tokens.len() == len);
            if !retired_right {
                rep.failed += 1;
            }

            let latency = prefill.overlapped_secs + decode.overlapped_secs;
            let busy1 = engine_secs(&self.ctx);
            let util: [f64; NUM_ENGINES] = std::array::from_fn(|e| (busy1[e] - busy0[e]) / latency);
            acc.energy_j += power.power_from_utilization(&util) * latency;
            acc.latencies.push(latency);
            acc.prompt_tokens.push(prompt.len());
            acc.steps += steps;
            acc.rows += rows;
            acc.decoded += decoded;
            acc.tokens += bon.sample_tokens.iter().sum::<usize>();
            acc.decode_serial += decode.wall_secs();
            acc.decode_overlapped += decode.overlapped_secs;
            acc.gemm += decode.gemm_secs;
            acc.attn += decode.attn_secs;
            acc.misc += decode.misc_secs;
            acc.cpu += decode.cpu_secs;
            acc.correct += usize::from(bon.correct);
            acc.any_correct += usize::from(bon.any_correct);
            acc.mean_sample += bon.mean_tokens;
            acc.max_sample = acc.max_sample.max(longest);
            acc.digest ^= fingerprint([(task.statement.as_str(), latency)]).rotate_left(i as u32);
        }
        set_engines_and_counters(&mut rep, &self.ctx.cost, acc.steps as f64);
        acc.finish(&mut rep);
        Ok(rep)
    }

    fn host_layers(setup: &Tracer, timed: &Tracer, _rep: &Rep) -> Vec<(&'static str, f64)> {
        // Wall durations: one step is a few scheduler ticks of CPU time.
        let steps = timed.durations("edgellm.step");
        // The tail rule: the highest percentile with ten steps beyond it.
        let tail = stats::tail(&steps).map_or(0.0, |t| t.value);
        vec![
            ("edgellm.step_host_ms_p50", stats::median(&steps) * 1e3),
            ("edgellm.step_host_ms_tail", tail * 1e3),
            (
                "edgellm.session_new_host_ms",
                median_ms(timed, "edgellm.session_new"),
            ),
            ("ttscale.bon_host_ms", median_ms(timed, "ttscale.best_of_n")),
            (
                "edgellm.model_new_host_ms",
                median_ms(setup, "edgellm.model_new"),
            ),
        ]
    }
}

/// Busy seconds per engine so far.
fn engine_secs(ctx: &NpuContext) -> [f64; NUM_ENGINES] {
    Engine::ALL.map(|e| ctx.cost.engine_secs(e))
}

/// Records mean busy seconds per engine over `per` steps or calls, and
/// the activity counters, of a cost model zeroed at the start of the
/// repetition.
pub fn set_engines_and_counters(rep: &mut Rep, cost: &CostModel, per: f64) {
    for (e, label) in [
        (Engine::Hvx, "hvx"),
        (Engine::Hmx, "hmx"),
        (Engine::Dma, "dma"),
        (Engine::Cpu, "cpu"),
    ] {
        rep.set(
            format!("hexsim.engine_s.{label}"),
            cost.engine_secs(e) / per,
        );
    }
    let c = cost.counters();
    rep.set(
        "hexsim.counters.hvx_instructions",
        c.hvx_instructions as f64,
    );
    rep.set("hexsim.counters.vgathers", c.vgathers as f64);
    rep.set("hexsim.counters.vluts", c.vluts as f64);
    rep.set("hexsim.counters.hmx_tile_ops", c.hmx_tile_ops as f64);
    rep.set("hexsim.counters.dma_bytes", c.dma_bytes as f64);
    rep.set("hexsim.counters.tcm_bytes", c.tcm_bytes as f64);
}

/// Running totals over the tasks of one repetition.
#[derive(Default)]
struct Acc {
    latencies: Vec<f64>,
    /// Overlapped critical-path time of every decode step.
    step_secs: Vec<f64>,
    prompt_tokens: Vec<usize>,
    energy_j: f64,
    steps: usize,
    rows: usize,
    decoded: usize,
    tokens: usize,
    decode_serial: f64,
    decode_overlapped: f64,
    gemm: f64,
    attn: f64,
    misc: f64,
    cpu: f64,
    correct: usize,
    any_correct: usize,
    mean_sample: f64,
    max_sample: usize,
    digest: u64,
}

impl Acc {
    fn finish(self, rep: &mut Rep) {
        let tasks = self.latencies.len() as f64;
        let steps = self.steps as f64;
        rep.sim_secs = self.latencies.iter().sum();
        rep.digest = self.digest;
        let p50 = stats::median(&self.latencies);
        // The decode step every sample waits on. Its median is pinned by
        // the full-batch step, so the mean is reported: it also moves with
        // retire-driven batching.
        let step_mean = self.step_secs.iter().sum::<f64>() / steps;
        let tbt = stats::median(&self.step_secs);
        rep.set("step_latency_s", step_mean);
        rep.set("ttscale.task_latency_p50_s", p50);
        let tail = stats::tail(&self.latencies);
        rep.set("ttscale.accuracy_pct", self.correct as f64 / tasks * 100.0);
        rep.set(
            "ttscale.pass_at_n_pct",
            self.any_correct as f64 / tasks * 100.0,
        );
        rep.set("ttscale.mean_sample_tokens", self.mean_sample / tasks);
        rep.set("ttscale.max_sample_tokens", self.max_sample as f64);
        rep.set("edgellm.steps", steps);
        rep.set(
            "edgellm.batch_occupancy",
            self.rows as f64 / (steps * N as f64),
        );
        rep.set("edgellm.cost.gemm_s", self.gemm);
        rep.set("edgellm.cost.attn_s", self.attn);
        rep.set("edgellm.cost.misc_s", self.misc);
        rep.set("edgellm.cost.cpu_s", self.cpu);
        rep.set(
            "edgellm.overlap_gain",
            self.decode_serial / self.decode_overlapped,
        );
        rep.set(
            "edgellm.decode_tok_s",
            self.decoded as f64 / self.decode_overlapped,
        );
        rep.set(
            "edgellm.tokens_per_joule",
            self.tokens as f64 / self.energy_j,
        );
        rep.notes.push(format!(
            "tts_bon: {} tasks of Best-of-{N}, prompts of {} to {} tokens; decode step mean {step_mean} s, p50 {tbt} s over {} steps; \
             task latency p50 {p50} s, {}; accuracy {} %, \
             pass@{N} {} %; batch occupancy {}; {} tokens per joule",
            self.latencies.len(),
            self.prompt_tokens.iter().min().copied().unwrap_or(0),
            self.prompt_tokens.iter().max().copied().unwrap_or(0),
            self.step_secs.len(),
            match tail {
                Some(t) => format!("p{} {} s over {} tasks", t.pct, t.value, t.samples),
                None => format!(
                    "no tail: {} tasks leave fewer than {} beyond the median",
                    self.latencies.len(),
                    stats::TAIL_MIN_BEYOND
                ),
            },
            self.correct as f64 / tasks * 100.0,
            self.any_correct as f64 / tasks * 100.0,
            self.rows as f64 / (steps * N as f64),
            self.tokens as f64 / self.energy_j,
        ));
    }
}
