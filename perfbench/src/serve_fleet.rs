//! `serve_fleet`: an open-loop arrival trace served by the heterogeneous
//! Qwen-1.5B fleet through `npuscale::serve`.
//!
//! The seed builds a Poisson `batch` tenant merged with a bursty
//! interactive `chat` tenant. The gateway runs chunked prefill, mid-stream
//! preemption and thermal-aware dispatch, so this is the workload that
//! exercises admission, dispatch, preemption and the thermal/DVFS loop.
//! Latency counts from each request's scheduled arrival; arrivals are
//! simulated, so the generator is never late.

use edgellm::config::ModelId;
use npuscale::serve::{
    bursty_trace, merge_traces, poisson_trace, BurstSpec, FleetGateway, FleetSpec, GatewayConfig,
    PreemptionPolicy, PrefillMode, Request, ServingReport, TenantSpec, ThermalPolicy,
};

use crate::stats::fingerprint;
use crate::trace::{Tracer, NO_ID};
use crate::{median_ms, sanitize, Rep, Workload};

/// Batch-tenant requests in the full trace.
const BATCH_REQUESTS: usize = 20;
/// Batch-tenant Poisson rate, requests per simulated second.
const BATCH_RPS: f64 = 8.0;
/// Chat-tenant requests in the full trace.
const CHAT_REQUESTS: usize = 20;

/// Ambient temperature of the fleet's phones: a phone that has been in
/// use, so throttling shows within a short trace.
const AMBIENT_C: f64 = 35.0;

/// The long-prompt, long-output tenant whose decodes fill the fleet.
fn batch_tenant() -> TenantSpec {
    TenantSpec {
        output_lens: (48, 160),
        ..TenantSpec::batch("batch")
    }
}

/// On/off bursts of interactive requests that collide with a full fleet.
fn chat_bursts() -> BurstSpec {
    BurstSpec {
        base_rps: 2.0,
        burst_rps: 12.0,
        mean_quiet_secs: 2.0,
        mean_burst_secs: 1.5,
        diurnal_period_secs: 30.0,
        diurnal_depth: 0.3,
    }
}

/// The heterogeneous Qwen-1.5B fleet, its phones already warm.
fn warm_fleet() -> FleetSpec {
    let mut fleet = FleetSpec::heterogeneous(ModelId::Qwen1_5B);
    for w in &mut fleet.workers {
        w.device.ambient_temp_c = AMBIENT_C;
    }
    fleet
}

/// The gateway under test: chunked prefill, preemption, thermal-aware
/// dispatch and a queue deep enough that nothing is shed.
fn gateway_config() -> GatewayConfig {
    GatewayConfig {
        queue_capacity: 256,
        prefill: PrefillMode::Chunked { chunk_tokens: 32 },
        thermal: ThermalPolicy::Aware,
        preemption: PreemptionPolicy::Enabled,
        ..GatewayConfig::default()
    }
}

/// The seeded arrival trace.
pub fn arrival_trace(seed: u64) -> Vec<Request> {
    merge_traces(&[
        poisson_trace(&[batch_tenant()], BATCH_RPS, BATCH_REQUESTS, seed),
        bursty_trace(
            &[TenantSpec::interactive("chat")],
            &chat_bursts(),
            CHAT_REQUESTS,
            seed ^ 0x5EED_C4A7,
        ),
    ])
}

/// The fleet gateway and its seeded trace.
pub struct ServeFleet {
    gateway: FleetGateway,
    trace: Vec<Request>,
}

impl Workload for ServeFleet {
    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let trace = arrival_trace(seed);
        let gateway = tr
            .span("npuscale.fleet_new", NO_ID, |_| {
                FleetGateway::new(warm_fleet(), gateway_config())
            })
            .map_err(|e| format!("fleet planning failed: {e}"))?;
        Ok(ServeFleet { gateway, trace })
    }

    fn run(&mut self, tr: &mut Tracer) -> Result<Rep, String> {
        let report = tr
            .span("npuscale.serve_trace", NO_ID, |_| {
                self.gateway.serve_trace(&self.trace)
            })
            .map_err(|e| format!("serve_trace failed: {e}"))?;
        Ok(rep_from(&self.gateway, &report))
    }

    fn host_layers(setup: &Tracer, timed: &Tracer, rep: &Rep) -> Vec<(&'static str, f64)> {
        let workers = rep.modeled.get("serve.workers").copied().unwrap_or(1.0);
        let steps = rep.modeled.get("serve.total_steps").copied().unwrap_or(1.0);
        vec![
            (
                "npuscale.plan_worker_host_s",
                median_ms(setup, "npuscale.fleet_new") * 1e-3 / workers,
            ),
            (
                "edgellm.host_ms_per_step",
                median_ms(timed, "npuscale.serve_trace") / steps,
            ),
        ]
    }
}

/// Every modeled number of one served trace, plus its checks.
fn rep_from(gateway: &FleetGateway, r: &ServingReport) -> Rep {
    // Host cost is counted per simulated second of worker work: idle
    // gaps between arrivals cost the simulator nothing, so the makespan
    // would measure the trace's load rather than the simulator.
    let busy_secs: f64 = r.workers.iter().map(|w| w.busy_secs).sum();
    let mut rep = Rep {
        sim_secs: busy_secs,
        attempted: r.requests as u64,
        ..Rep::default()
    };
    // Conservation: every request either completes or is rejected, and
    // the benchmark's queue is deep enough that none is rejected.
    let conserved = r.completed + r.rejected == r.requests;
    rep.failed = r.rejected as u64 + u64::from(!conserved);
    // One decode step as a streaming user sees it: the median time
    // between tokens. (TTFT p50 swings with where the median falls between
    // the two tenants, so it is a per-layer number.)
    rep.set("step_latency_s", r.tbt_p50_secs);
    rep.set("serve.ttft_p50_s", r.ttft_p50_secs);
    rep.set("serve.ttft_p99_s", r.ttft_p99_secs);
    rep.set("serve.tbt_p50_s", r.tbt_p50_secs);
    rep.set("serve.tbt_p99_s", r.tbt_p99_secs);
    rep.set("serve.goodput_rps", r.goodput_rps);
    rep.set("serve.decode_tok_s", r.tokens_per_sec);
    rep.set("serve.queue_wait_p50_s", r.queue_wait_p50_secs);
    rep.set("serve.queue_wait_p99_s", r.queue_wait_p99_secs);
    rep.set("serve.peak_queue_depth", r.peak_queue_depth as f64);
    rep.set("serve.preemptions", r.preemptions as f64);
    rep.set("serve.jain_fairness", r.jain_fairness);
    rep.set("serve.completed", r.completed as f64);
    rep.set("serve.makespan_s", r.makespan_secs);
    rep.set("serve.workers", r.workers.len() as f64);
    let mut steps = 0;
    let mut throttled = 0;
    let mut peak_temp = f64::MIN;
    for w in &r.workers {
        let label = sanitize(&w.name);
        rep.set(format!("serve.worker.{label}.steps"), w.steps as f64);
        rep.set(format!("serve.worker.{label}.busy_s"), w.busy_secs);
        rep.set(format!("serve.worker.{label}.utilization"), w.utilization);
        rep.set(
            format!("serve.worker.{label}.npu_lane_utilization"),
            w.npu_lane_utilization,
        );
        rep.set(
            format!("serve.worker.{label}.throttled_steps"),
            w.throttled_steps as f64,
        );
        steps += w.steps;
        throttled += w.throttled_steps;
        peak_temp = peak_temp.max(w.peak_temp_c);
    }
    for o in gateway.oracles() {
        rep.set(
            format!("npuscale.worker.{}.decode_step_s", sanitize(&o.name)),
            o.decode_step_secs,
        );
    }
    rep.set("serve.total_steps", steps as f64);
    rep.set("thermal.throttled_steps", throttled as f64);
    rep.set("thermal.peak_temp_c", peak_temp);
    // Every repetition serves the same trace on the same gateway, so
    // equal digests across repetitions check that two `serve_trace` calls
    // return identical reports.
    rep.digest = fingerprint([(format!("{r:?}").as_str(), 0.0)]);
    rep.notes.push(format!(
        "serve_fleet: {} requests ({} completed, {} rejected) over {} simulated s; \
         {} busy worker-s, {} worker steps; peak queue {}, {} preemptions, {} throttled steps, peak {} C; \
         ttft p50 {} s, p99 {} s (the report exposes p50/p99; {} requests leave {} beyond p99); \
         tbt p50 {} s, p99 {} s; goodput {} rps; generator lateness 0 s (simulated arrivals)",
        r.requests,
        r.completed,
        r.rejected,
        r.makespan_secs,
        busy_secs,
        steps,
        r.peak_queue_depth,
        r.preemptions,
        throttled,
        peak_temp,
        r.ttft_p50_secs,
        r.ttft_p99_secs,
        r.requests,
        r.requests / 100,
        r.tbt_p50_secs,
        r.tbt_p99_secs,
        r.goodput_rps,
    ));
    rep
}
