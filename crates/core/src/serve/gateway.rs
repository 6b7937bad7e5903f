//! The fleet gateway: a deterministic discrete-event serving simulator.
//!
//! [`FleetGateway::serve_trace`] drives a request trace through a fleet
//! of simulated NPU workers. Each worker is a real
//! [`DecodeSession`] over a cost-only model built exactly the way
//! [`crate::pipeline`] builds its measurement deployments (shard plan,
//! streamed weight hierarchy, overlap-aware dispatch), so every charged
//! duration comes from the same calibrated cost model as the paper
//! figures:
//!
//! - a **decode step** costs the steady-state critical path of its
//!   recorded stages ([`steady_state_step_secs`]);
//! - a **chunked prefill** rides the decode walk: the chunk's stages are
//!   fused with the decode step's via [`StepStages::merged`] and the
//!   combined walk is charged once — per-walk overheads (dispatch ring,
//!   session switches, weight fetches) are shared, row-proportional
//!   compute adds;
//! - a **monolithic prefill** is a standalone pass
//!   ([`single_pass_secs`]) during which the worker's decode batch emits
//!   nothing — the head-of-line stall chunking exists to avoid;
//! - EOS-driven early finish goes through [`DecodeSession::retire`],
//!   freeing the KV slot the moment a request's realized output length
//!   is reached, and the dispatcher immediately re-admits from the
//!   queue.
//!
//! The loop is event-driven over two event kinds — request arrivals and
//! worker step completions — with all ties broken deterministically, so
//! a `(fleet, config, trace)` triple always produces the identical
//! [`ServingReport`] (the CI regression gate pins its numbers).

use edgellm::config::ModelConfig;
use edgellm::model::Model;
use edgellm::overlap::{
    lane, single_pass_secs, steady_state_lane_utilization, steady_state_step_secs, DispatchMode,
    StepStages,
};
use hexsim::prelude::*;
use htpops::gemm::DequantVariant;

use crate::serve::arrivals::Request;
use crate::serve::metrics::{jain_index, percentile};
use crate::serve::scheduler::{
    plan_worker, predicted_completion_secs, predicted_completion_secs_thermal, strict_before,
    wfq_before, AdmissionQueue, FleetSpec, GatewayConfig, PreemptionPolicy, PrefillMode,
    QueueEntry, SchedulingPolicy, ThermalPolicy, WfqState, WorkerOracle,
};
use crate::session::{DecodeSession, PreemptedSeq, SeqId, ShardPlan};
use crate::thermal::{DvfsGovernor, ThermalState};

/// Per-worker outcome of a serving run.
#[derive(Clone, Debug)]
pub struct WorkerReport {
    /// Worker label (SoC plus deployment variant).
    pub name: String,
    /// NPU sessions the worker's deployment spans.
    pub sessions: usize,
    /// Requests that finished on this worker.
    pub served: usize,
    /// Interleaved decode/prefill steps executed.
    pub steps: usize,
    /// Simulated seconds the worker spent stepping.
    pub busy_secs: f64,
    /// Busy fraction of the fleet makespan.
    pub utilization: f64,
    /// Step-duration-weighted average of the NPU lane's busy fraction
    /// across every step the worker executed (accelerator utilization
    /// *within* its steps, not just the last schedule).
    pub npu_lane_utilization: f64,
    /// Tokens emitted by decode steps on this worker.
    pub decoded_tokens: usize,
    /// Hottest die temperature reached (ambient when thermals are
    /// disabled).
    pub peak_temp_c: f64,
    /// Steps executed at the sustained (throttled) clock point.
    pub throttled_steps: usize,
}

/// Per-tenant outcome of a serving run.
#[derive(Clone, Debug)]
pub struct TenantReport {
    /// Tenant label.
    pub name: String,
    /// Requests the trace contained for this tenant.
    pub requests: usize,
    /// Requests that completed.
    pub completed: usize,
    /// Requests rejected by admission control.
    pub rejected: usize,
    /// Completed requests that met the SLO.
    pub slo_good: usize,
    /// Tokens (prompt + generated) the fleet served to this tenant.
    pub served_tokens: u64,
    /// This tenant's fraction of all served tokens (0 when nothing was
    /// served fleet-wide).
    pub token_share: f64,
    /// 99th-percentile time-to-first-token across this tenant's
    /// requests that produced a first token.
    pub ttft_p99_secs: f64,
}

/// The gateway's SLO scorecard for one trace.
#[derive(Clone, Debug)]
pub struct ServingReport {
    /// Requests in the trace.
    pub requests: usize,
    /// Requests that ran to completion.
    pub completed: usize,
    /// Requests rejected by the bounded admission queue (or unplaceable
    /// on any worker).
    pub rejected: usize,
    /// Simulated seconds from first arrival to last worker going idle.
    pub makespan_secs: f64,
    /// Median time-to-first-token (queue wait + prefill).
    pub ttft_p50_secs: f64,
    /// 99th-percentile time-to-first-token.
    pub ttft_p99_secs: f64,
    /// Median time-between-tokens across every decode emission.
    pub tbt_p50_secs: f64,
    /// 99th-percentile time-between-tokens.
    pub tbt_p99_secs: f64,
    /// Median admission-queue wait.
    pub queue_wait_p50_secs: f64,
    /// 99th-percentile admission-queue wait.
    pub queue_wait_p99_secs: f64,
    /// Deepest the admission queue got.
    pub peak_queue_depth: usize,
    /// Completed requests that met the SLO.
    pub slo_good: usize,
    /// SLO-good requests per simulated second.
    pub goodput_rps: f64,
    /// Tokens emitted by decode steps fleet-wide.
    pub decoded_tokens: usize,
    /// Decode tokens per simulated second.
    pub tokens_per_sec: f64,
    /// Jain fairness index over per-tenant served tokens: 1.0 when every
    /// tenant got an equal token count, `1/n` when one tenant
    /// monopolized the fleet.
    pub jain_fairness: f64,
    /// Mid-stream preemptions the dispatcher performed (0 unless
    /// [`PreemptionPolicy::Enabled`]).
    pub preemptions: usize,
    /// Per-worker breakdown, in fleet order.
    pub workers: Vec<WorkerReport>,
    /// Per-tenant breakdown, in first-appearance order.
    pub tenants: Vec<TenantReport>,
}

/// One request's lifecycle while (and after) it is in flight.
#[derive(Clone, Debug, Default)]
struct ReqRecord {
    ttft: Option<f64>,
    finished: Option<f64>,
    max_tbt: f64,
    rejected: bool,
}

/// A sequence the gateway is tracking on one worker.
struct SeqTrack {
    seq: SeqId,
    /// Index into the trace.
    req: usize,
    /// Tokens emitted so far (first token included once prefill lands).
    emitted: usize,
    /// Simulated time of the last emission (admission time before it).
    last_token: f64,
}

/// A decode the dispatcher paused mid-stream. The KV snapshot lives in
/// `paused`; the request resumes only on the worker that holds its
/// history (KV cannot migrate), competing for a slot alongside queued
/// requests under the active scheduling discipline.
struct PreemptedTrack {
    /// Worker the sequence ran (and must resume) on.
    worker: usize,
    /// The session-layer pause: KV snapshot plus decode cursor.
    paused: PreemptedSeq,
    /// Index into the trace.
    req: usize,
    /// Tokens emitted before the pause.
    emitted: usize,
    /// Simulated time of the last pre-pause emission.
    last_token: f64,
}

/// Mutable per-worker simulation state.
struct WorkerState {
    clock: f64,
    busy_secs: f64,
    steps: usize,
    served: usize,
    seqs: Vec<SeqTrack>,
    /// Die temperature (lumped RC model; stays at ambient when the
    /// thermal policy is [`ThermalPolicy::Disabled`]).
    thermal: ThermalState,
    /// Simulated time `thermal` is integrated up to.
    temp_at: f64,
    /// Per-worker DVFS governor.
    governor: DvfsGovernor,
    throttled_steps: usize,
    peak_temp_c: f64,
    /// Integral of (NPU-lane busy fraction × step duration) — the
    /// numerator of the duration-weighted lane utilization.
    npu_util_x_secs: f64,
}

/// Everything the event handlers mutate, minus the borrow-sensitive
/// session/context pair (passed alongside).
struct SimState<'t> {
    prefill: PrefillMode,
    thermal: ThermalPolicy,
    scheduling: SchedulingPolicy,
    preemption: PreemptionPolicy,
    oracles: &'t [WorkerOracle],
    trace: &'t [Request],
    states: Vec<WorkerState>,
    records: Vec<ReqRecord>,
    /// Tenant index (first-appearance order) of each trace entry.
    tenant_of: Vec<usize>,
    /// Per-tenant served-token accounting; doubles as the WFQ virtual
    /// clock when [`SchedulingPolicy::Wfq`] is active.
    wfq: WfqState,
    /// Per-tenant queued-or-in-flight request count, for the WFQ
    /// idle-tenant wake re-floor.
    outstanding: Vec<usize>,
    /// Decodes paused mid-stream, awaiting a slot on their worker.
    preempted: Vec<PreemptedTrack>,
    preemptions: usize,
    ttfts: Vec<f64>,
    tbts: Vec<f64>,
    queue_waits: Vec<f64>,
    rejected: usize,
}

/// The serving gateway: admission control in front of a heterogeneous
/// worker fleet. Construction probes every worker through
/// [`crate::backend::Backend::fits`] and fails if any worker cannot hold
/// the model at its configured capacity.
pub struct FleetGateway {
    fleet: FleetSpec,
    config: GatewayConfig,
    oracles: Vec<WorkerOracle>,
}

impl FleetGateway {
    /// Validates the fleet (every worker must pass the `fits` gate) and
    /// measures the dispatch oracle for each worker.
    ///
    /// # Errors
    ///
    /// [`SimError::Unsupported`] for an empty fleet or a chunked prefill
    /// of zero tokens per chunk; any error from planning a worker.
    pub fn new(fleet: FleetSpec, config: GatewayConfig) -> SimResult<Self> {
        if fleet.workers.is_empty() {
            return Err(SimError::Unsupported {
                reason: "fleet needs at least one worker".into(),
            });
        }
        if config.prefill == (PrefillMode::Chunked { chunk_tokens: 0 }) {
            return Err(SimError::Unsupported {
                reason: "prefill chunks carry at least one token".into(),
            });
        }
        let oracles = fleet
            .workers
            .iter()
            .map(|w| plan_worker(fleet.model, w))
            .collect::<SimResult<Vec<_>>>()?;
        Ok(FleetGateway {
            fleet,
            config,
            oracles,
        })
    }

    /// The measured per-worker dispatch oracles, in fleet order.
    pub fn oracles(&self) -> &[WorkerOracle] {
        &self.oracles
    }

    /// Serves a trace to completion and reports SLO metrics. The trace
    /// need not be sorted; requests are processed in arrival order (ties
    /// by id). Deterministic: identical inputs produce an identical
    /// report.
    ///
    /// # Errors
    ///
    /// [`SimError::Unsupported`] if two requests share an id; any error
    /// from building or stepping a worker.
    pub fn serve_trace(&self, trace: &[Request]) -> SimResult<ServingReport> {
        // Duplicate ids would corrupt every deterministic tie-break in
        // the queue and dispatcher — reject the trace outright (compose
        // traces with `merge_traces`/`replay_trace_from`).
        let mut ids: Vec<u64> = trace.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
            return Err(SimError::Unsupported {
                reason: format!(
                    "serve_trace requires unique request ids (id {} repeats); compose \
                     traces with merge_traces or replay_trace_from instead of concatenating",
                    w[0]
                ),
            });
        }

        let n = self.fleet.workers.len();
        // Build each worker's runtime exactly like the measurement
        // pipeline: shard plan -> sharded cost-only context -> streamed
        // model under overlap-aware dispatch -> decode session.
        let cfg = ModelConfig::for_id(self.fleet.model);
        let mut ctxs: Vec<NpuContext> = Vec::with_capacity(n);
        let mut models: Vec<Model> = Vec::with_capacity(n);
        let mut plan_sessions = Vec::with_capacity(n);
        for w in &self.fleet.workers {
            let plan = if w.streaming {
                ShardPlan::build_streaming(&cfg, w.device.session_va_bytes, w.max_batch, w.max_ctx)?
            } else {
                ShardPlan::build(&cfg, w.device.session_va_bytes, w.max_batch, w.max_ctx)?
            };
            let mut ctx =
                NpuContext::new_sharded(w.device.clone(), ExecMode::CostOnly, plan.sessions());
            let schedule = plan.schedule();
            let mut model = Model::new_streamed(
                &mut ctx,
                self.fleet.model,
                DequantVariant::CoalescedLut,
                1,
                &schedule.streamed,
            )?;
            model.set_layer_schedule(schedule);
            model.set_dispatch_mode(DispatchMode::Overlapped);
            plan_sessions.push(plan.sessions());
            ctxs.push(ctx);
            models.push(model);
        }
        let mut sessions: Vec<DecodeSession<'_>> = Vec::with_capacity(n);
        for (i, model) in models.iter().enumerate() {
            let w = &self.fleet.workers[i];
            let budget = w.max_batch * (w.max_ctx + 2);
            sessions.push(DecodeSession::new(
                &mut ctxs[i],
                model,
                &[0],
                w.max_batch,
                budget,
            )?);
        }

        // Tenant table in first-appearance (trace index) order — the
        // order TenantReport rows use — with each tenant's fair-share
        // weight for the WFQ virtual clock.
        let mut tenant_names: Vec<&str> = Vec::new();
        let mut tenant_weights: Vec<f64> = Vec::new();
        let mut tenant_of: Vec<usize> = Vec::with_capacity(trace.len());
        for r in trace {
            let t = match tenant_names.iter().position(|n| *n == r.tenant) {
                Some(t) => t,
                None => {
                    tenant_names.push(&r.tenant);
                    tenant_weights.push(r.weight);
                    tenant_names.len() - 1
                }
            };
            tenant_of.push(t);
        }

        let mut order: Vec<usize> = (0..trace.len()).collect();
        order.sort_by(|&a, &b| {
            trace[a]
                .arrival_secs
                .total_cmp(&trace[b].arrival_secs)
                .then(trace[a].id.cmp(&trace[b].id))
        });
        let mut sim = SimState {
            prefill: self.config.prefill,
            thermal: self.config.thermal,
            scheduling: self.config.scheduling,
            preemption: self.config.preemption,
            oracles: &self.oracles,
            trace,
            states: self
                .fleet
                .workers
                .iter()
                .map(|w| WorkerState {
                    clock: 0.0,
                    busy_secs: 0.0,
                    steps: 0,
                    served: 0,
                    seqs: Vec::new(),
                    thermal: ThermalState::ambient(&w.device),
                    temp_at: 0.0,
                    governor: DvfsGovernor::new(),
                    throttled_steps: 0,
                    peak_temp_c: w.device.ambient_temp_c,
                    npu_util_x_secs: 0.0,
                })
                .collect(),
            records: vec![ReqRecord::default(); trace.len()],
            tenant_of,
            outstanding: vec![0; tenant_names.len()],
            wfq: WfqState::new(&tenant_weights),
            preempted: Vec::new(),
            preemptions: 0,
            ttfts: Vec::new(),
            tbts: Vec::new(),
            queue_waits: Vec::new(),
            rejected: 0,
        };
        let mut queue = AdmissionQueue::new(self.config.queue_capacity);
        let mut next_arrival = 0usize;

        loop {
            let arrival = order.get(next_arrival).map(|&ri| trace[ri].arrival_secs);
            let busy_worker = (0..n)
                .filter(|&i| sessions[i].active_count() + sessions[i].prefilling_count() > 0)
                .min_by(|&a, &b| {
                    sim.states[a]
                        .clock
                        .total_cmp(&sim.states[b].clock)
                        .then(a.cmp(&b))
                });
            let take_arrival = match (arrival, busy_worker) {
                (Some(ta), Some(w)) => ta <= sim.states[w].clock,
                (Some(_), None) => true,
                (None, _) => false,
            };
            let now = if take_arrival {
                let ri = order[next_arrival];
                next_arrival += 1;
                let r = &trace[ri];
                let t = sim.tenant_of[ri];
                if sim.scheduling == SchedulingPolicy::Wfq && sim.outstanding[t] == 0 {
                    // The tenant went idle: re-floor its virtual time so
                    // it cannot spend banked credit starving the others.
                    sim.wfq.wake(t);
                }
                sim.outstanding[t] += 1;
                let entry = QueueEntry {
                    req: ri,
                    priority: r.priority,
                    arrival_secs: r.arrival_secs,
                    id: r.id,
                    tenant: t,
                };
                let rej = match sim.scheduling {
                    SchedulingPolicy::StrictPriority => queue.offer(entry, &strict_before),
                    SchedulingPolicy::Wfq => {
                        let vt = sim.wfq.vtimes().to_vec();
                        queue.offer(entry, &|a, b| wfq_before(&vt, a, b))
                    }
                };
                if let Some(rej) = rej {
                    sim.records[rej].rejected = true;
                    sim.rejected += 1;
                    sim.outstanding[sim.tenant_of[rej]] -= 1;
                    // Evicted requests leave their wait in the record —
                    // a request that waited seconds and got shed must
                    // show up in queue_wait_p99.
                    sim.queue_waits
                        .push(r.arrival_secs - trace[rej].arrival_secs);
                }
                r.arrival_secs
            } else if let Some(w) = busy_worker {
                sim.step_worker(w, &mut sessions[w], &mut ctxs[w])?
            } else {
                // No arrivals left, every worker idle: anything still
                // queued was never placeable (dispatch rejects those
                // eagerly, but guard against a stall regardless). Paused
                // decodes cannot be stranded here — an idle worker has a
                // free slot, so the dispatch after its last step resumed
                // them.
                debug_assert!(sim.preempted.is_empty(), "paused decode stranded at drain");
                let drain_at = sim.states.iter().map(|s| s.clock).fold(0.0f64, f64::max);
                while let Some(ri) = queue.pop(&strict_before) {
                    sim.records[ri].rejected = true;
                    sim.rejected += 1;
                    sim.outstanding[sim.tenant_of[ri]] -= 1;
                    sim.queue_waits.push(drain_at - trace[ri].arrival_secs);
                }
                break;
            };
            sim.try_dispatch(now, &mut queue, &mut sessions, &self.fleet)?;
        }

        let report = self.build_report(&sim, &queue, &sessions, &plan_sessions);
        for (sess, ctx) in sessions.into_iter().zip(ctxs.iter_mut()) {
            sess.release(ctx);
        }
        Ok(report)
    }

    fn build_report(
        &self,
        sim: &SimState<'_>,
        queue: &AdmissionQueue,
        sessions: &[DecodeSession<'_>],
        plan_sessions: &[usize],
    ) -> ServingReport {
        let trace = sim.trace;
        let makespan_secs = sim.states.iter().map(|s| s.clock).fold(0.0f64, f64::max);
        let completed = sim.records.iter().filter(|r| r.finished.is_some()).count();
        let mut slo_good = 0usize;
        let mut tenants: Vec<TenantReport> = Vec::new();
        let mut tenant_ttfts: Vec<Vec<f64>> = Vec::new();
        for (i, req) in trace.iter().enumerate() {
            let rec = &sim.records[i];
            let good = rec.finished.is_some()
                && rec
                    .ttft
                    .map(|t| self.config.slo.met(t, rec.max_tbt))
                    .unwrap_or(false);
            slo_good += usize::from(good);
            let t = sim.tenant_of[i];
            if t == tenants.len() {
                tenants.push(TenantReport {
                    name: req.tenant.clone(),
                    requests: 0,
                    completed: 0,
                    rejected: 0,
                    slo_good: 0,
                    served_tokens: 0,
                    token_share: 0.0,
                    ttft_p99_secs: 0.0,
                });
                tenant_ttfts.push(Vec::new());
            }
            let entry = &mut tenants[t];
            entry.requests += 1;
            entry.completed += usize::from(rec.finished.is_some());
            entry.rejected += usize::from(rec.rejected);
            entry.slo_good += usize::from(good);
            if let Some(ttft) = rec.ttft {
                tenant_ttfts[t].push(ttft);
            }
        }
        let total_served: u64 = (0..tenants.len()).map(|t| sim.wfq.served_tokens(t)).sum();
        for (t, entry) in tenants.iter_mut().enumerate() {
            entry.served_tokens = sim.wfq.served_tokens(t);
            entry.token_share = if total_served > 0 {
                entry.served_tokens as f64 / total_served as f64
            } else {
                0.0
            };
            entry.ttft_p99_secs = percentile(&tenant_ttfts[t], 99.0);
        }
        let shares: Vec<f64> = (0..tenants.len())
            .map(|t| sim.wfq.served_tokens(t) as f64)
            .collect();
        let decoded_tokens: usize = sessions.iter().map(|s| s.decoded_tokens()).sum();
        let workers = (0..sessions.len())
            .map(|i| {
                let st = &sim.states[i];
                WorkerReport {
                    name: self.oracles[i].name.clone(),
                    sessions: plan_sessions[i],
                    served: st.served,
                    steps: st.steps,
                    busy_secs: st.busy_secs,
                    utilization: if makespan_secs > 0.0 {
                        st.busy_secs / makespan_secs
                    } else {
                        0.0
                    },
                    npu_lane_utilization: if st.busy_secs > 0.0 {
                        st.npu_util_x_secs / st.busy_secs
                    } else {
                        0.0
                    },
                    decoded_tokens: sessions[i].decoded_tokens(),
                    peak_temp_c: st.peak_temp_c,
                    throttled_steps: st.throttled_steps,
                }
            })
            .collect();
        ServingReport {
            requests: trace.len(),
            completed,
            rejected: sim.rejected,
            makespan_secs,
            ttft_p50_secs: percentile(&sim.ttfts, 50.0),
            ttft_p99_secs: percentile(&sim.ttfts, 99.0),
            tbt_p50_secs: percentile(&sim.tbts, 50.0),
            tbt_p99_secs: percentile(&sim.tbts, 99.0),
            queue_wait_p50_secs: percentile(&sim.queue_waits, 50.0),
            queue_wait_p99_secs: percentile(&sim.queue_waits, 99.0),
            peak_queue_depth: queue.peak_depth(),
            slo_good,
            goodput_rps: if makespan_secs > 0.0 {
                slo_good as f64 / makespan_secs
            } else {
                0.0
            },
            decoded_tokens,
            tokens_per_sec: if makespan_secs > 0.0 {
                decoded_tokens as f64 / makespan_secs
            } else {
                0.0
            },
            jain_fairness: jain_index(&shares),
            preemptions: sim.preemptions,
            workers,
            tenants,
        }
    }
}

impl SimState<'_> {
    /// Advances worker `w` by one event: a monolithic prefill pass, an
    /// interleaved decode+chunk step, or a plain decode step. Returns
    /// the simulated time the event finished at.
    fn step_worker(
        &mut self,
        w: usize,
        sess: &mut DecodeSession<'_>,
        ctx: &mut NpuContext,
    ) -> SimResult<f64> {
        let t0 = self.states[w].clock;
        // Settle the DVFS governor on the pre-step die temperature and
        // pick this step's clock multiplier.
        let mult = if self.thermal == ThermalPolicy::Disabled {
            1.0
        } else {
            let device = &self.oracles[w].device;
            let st = &mut self.states[w];
            st.governor.observe(device, st.thermal.temp_c);
            st.governor.clock_mult(device)
        };
        // Throttled steps run the same recorded schedule with every stage
        // dilated by 1/mult except fixed session switches — the exact
        // repricing `StepStages::at_clock` defines. At burst clocks the
        // schedule passes through untouched.
        let throttle = |s: &StepStages| {
            if mult < 1.0 {
                s.at_clock(mult)
            } else {
                s.clone()
            }
        };
        let has_active = sess.active_count() > 0;
        let has_prefill = sess.prefilling_count() > 0;
        let mut emitted: Vec<(SeqId, u32)> = Vec::new();
        let mut chunk_done: Option<SeqId> = None;
        let (dur, charged) = match self.prefill {
            PrefillMode::Monolithic if has_prefill => {
                // The whole prompt was registered as one chunk: this
                // pass completes it while every active decode stalls.
                let chunk = sess.prefill_step(ctx, |_| 0)?.expect("prefilling");
                debug_assert!(chunk.completed, "monolithic prompts land in one pass");
                if chunk.completed {
                    chunk_done = Some(chunk.id);
                }
                let s = throttle(&chunk.stages);
                (single_pass_secs(&s), s)
            }
            _ => {
                let decode_stages: Option<StepStages> = if has_active {
                    emitted = sess.step(ctx, |_, _| 0)?;
                    sess.last_step_stages().cloned()
                } else {
                    None
                };
                let chunk = if matches!(self.prefill, PrefillMode::Chunked { .. }) && has_prefill {
                    sess.prefill_step(ctx, |_| 0)?
                } else {
                    None
                };
                if let Some(c) = &chunk {
                    if c.completed {
                        chunk_done = Some(c.id);
                    }
                }
                match (&decode_stages, &chunk) {
                    // Chunk rides the decode walk: one fused schedule.
                    (Some(d), Some(c)) => {
                        let s = throttle(&d.merged(&c.stages));
                        (steady_state_step_secs(&s), s)
                    }
                    (Some(d), None) => {
                        let s = throttle(d);
                        (steady_state_step_secs(&s), s)
                    }
                    (None, Some(c)) => {
                        let s = throttle(&c.stages);
                        (single_pass_secs(&s), s)
                    }
                    (None, None) => unreachable!("stepped an idle worker"),
                }
            }
        };
        let t_end = t0 + dur;
        let state = &mut self.states[w];
        state.clock = t_end;
        state.busy_secs += dur;
        state.steps += 1;
        // Duration-weighted lane utilization: every executed schedule
        // counts for as long as it ran, not just the last one.
        state.npu_util_x_secs += steady_state_lane_utilization(&charged, lane::NPU) * dur;
        if self.thermal != ThermalPolicy::Disabled {
            // The step's joules flow into the die at the operating point
            // the governor chose for it.
            let oracle = &self.oracles[w];
            let throttled = state.governor.is_throttled();
            let power_w = if throttled {
                oracle.sustained_power_w
            } else {
                oracle.burst_power_w
            };
            state.thermal.step(&oracle.device, power_w, dur);
            state.temp_at = t_end;
            state.peak_temp_c = state.peak_temp_c.max(state.thermal.temp_c);
            state.throttled_steps += usize::from(throttled);
        }

        // First token of a request whose prompt just completed.
        if let Some(sid) = chunk_done {
            let k = state
                .seqs
                .iter()
                .position(|s| s.seq == sid)
                .expect("prefilling sequence is tracked");
            let req_i = state.seqs[k].req;
            let r = &self.trace[req_i];
            state.seqs[k].emitted = 1;
            state.seqs[k].last_token = t_end;
            let ttft = t_end - r.arrival_secs;
            self.records[req_i].ttft = Some(ttft);
            self.ttfts.push(ttft);
            // The tenant's prompt tokens land with its first token —
            // prefill work is what the fleet just spent on it.
            self.wfq
                .charge(self.tenant_of[req_i], r.prompt_len as u64 + 1);
            if r.output_len.min(r.max_new) <= 1 {
                // The first token is the whole output. A budget of one
                // already finished inside the session; otherwise the
                // EOS retires the freshly activated sequence.
                if r.max_new > 1 {
                    sess.retire(sid)?;
                }
                state.seqs.remove(k);
                self.records[req_i].finished = Some(t_end);
                state.served += 1;
                self.outstanding[self.tenant_of[req_i]] -= 1;
            }
        }

        // Decode emissions: TBT samples, EOS-driven retirement.
        for (sid, _token) in &emitted {
            let k = state
                .seqs
                .iter()
                .position(|s| s.seq == *sid)
                .expect("decoding sequence is tracked");
            let (req_i, finished_now, tbt) = {
                let tr = &mut state.seqs[k];
                tr.emitted += 1;
                let tbt = t_end - tr.last_token;
                tr.last_token = t_end;
                let r = &self.trace[tr.req];
                (tr.req, tr.emitted >= r.output_len.min(r.max_new), tbt)
            };
            self.tbts.push(tbt);
            self.wfq.charge(self.tenant_of[req_i], 1);
            let rec = &mut self.records[req_i];
            if tbt > rec.max_tbt {
                rec.max_tbt = tbt;
            }
            if finished_now {
                let tr = state.seqs.remove(k);
                // EOS before the budget: retire explicitly, freeing the
                // KV slot now. At the budget the session auto-retired.
                if tr.emitted < self.trace[req_i].max_new {
                    sess.retire(tr.seq)?;
                }
                rec.finished = Some(t_end);
                state.served += 1;
                self.outstanding[self.tenant_of[req_i]] -= 1;
            }
        }
        Ok(t_end)
    }

    /// Die temperature worker `w` would have at time `t`: the last
    /// integrated temperature, cooled in closed form (zero-power RC
    /// decay) over any idle gap since.
    fn projected_temp(&self, w: usize, t: f64) -> f64 {
        let st = &self.states[w];
        let d = &self.oracles[w].device;
        let gap = t - st.temp_at;
        if gap <= 0.0 {
            return st.thermal.temp_c;
        }
        d.ambient_temp_c
            + (st.thermal.temp_c - d.ambient_temp_c) * (-gap / d.thermal_time_constant_secs()).exp()
    }

    /// The dispatcher's completion prediction for placing `r` on worker
    /// `w` at time `now`, under the configured thermal policy.
    fn predict(&self, w: usize, now: f64, r: &Request) -> f64 {
        let free = self.states[w].clock.max(now);
        match self.thermal {
            ThermalPolicy::Aware => {
                let temp = self.projected_temp(w, free);
                let mut governor = self.states[w].governor.clone();
                governor.observe(&self.oracles[w].device, temp);
                predicted_completion_secs_thermal(
                    &self.oracles[w],
                    free,
                    temp,
                    governor.is_throttled(),
                    r,
                )
            }
            _ => predicted_completion_secs(&self.oracles[w], free, r),
        }
    }

    /// Jumps an idle worker's clock forward to `now`, relaxing its die
    /// toward ambient over the gap when thermal physics is on.
    fn touch_idle_worker(&mut self, w: usize, now: f64) {
        let jump = self.states[w].clock.max(now);
        if self.thermal != ThermalPolicy::Disabled {
            // The worker sat idle until now: its die relaxed toward
            // ambient over the gap.
            let cooled = self.projected_temp(w, jump);
            let st = &mut self.states[w];
            st.thermal.temp_c = cooled;
            st.temp_at = jump;
        }
        self.states[w].clock = jump;
    }

    /// The best preemption victim for `cand` among `workers`: an active
    /// decode of *strictly lower* priority that also orders after the
    /// candidate under the live discipline (under WFQ that second check
    /// is what makes a pause/resume ping-pong impossible — the resumed
    /// tenant's virtual time is ahead, so it cannot be re-preempted by
    /// the tenant it displaced). Deterministic tie-breaks: lowest
    /// priority, then fewest emitted tokens (longest remaining slot
    /// hold), then lowest worker index, then lowest id. Returns the
    /// `(worker, seq-track index)` pair.
    fn find_victim(
        &self,
        workers: &[usize],
        cand: &QueueEntry,
        before: &dyn Fn(&QueueEntry, &QueueEntry) -> bool,
    ) -> Option<(usize, usize)> {
        type VictimKey = (u8, usize, usize, u64);
        let mut best: Option<(VictimKey, (usize, usize))> = None;
        for &w in workers {
            for (k, s) in self.states[w].seqs.iter().enumerate() {
                if s.emitted == 0 {
                    // Still prefilling: no decode stream to pause.
                    continue;
                }
                let r = &self.trace[s.req];
                if r.priority >= cand.priority {
                    continue;
                }
                let ventry = QueueEntry {
                    req: s.req,
                    priority: r.priority,
                    arrival_secs: r.arrival_secs,
                    id: r.id,
                    tenant: self.tenant_of[s.req],
                };
                if !before(cand, &ventry) {
                    continue;
                }
                let key = (r.priority, s.emitted, w, r.id);
                if best.as_ref().is_none_or(|(bk, _)| key < *bk) {
                    best = Some((key, (w, k)));
                }
            }
        }
        best.map(|(_, wk)| wk)
    }

    /// Admits waiting work while fleet capacity exists.
    ///
    /// Each scan orders every candidate — queued requests plus paused
    /// decodes (resumable only on the worker holding their KV) — under
    /// the configured discipline and walks it front to back, skipping
    /// any tenant whose best candidate is blocked so a stuck head of
    /// line cannot idle a worker another tenant could use (per-tenant
    /// order is preserved; cross-tenant order is not sacrificed to it).
    /// The first actionable candidate is admitted, resumed, rejected
    /// (infeasible on every worker — the per-request half of the `fits`
    /// gate), or unblocked by preempting a strictly-lower-priority
    /// active decode; the scan then restarts against the new fleet
    /// state until nothing is actionable.
    fn try_dispatch(
        &mut self,
        now: f64,
        queue: &mut AdmissionQueue,
        sessions: &mut [DecodeSession<'_>],
        fleet: &FleetSpec,
    ) -> SimResult<()> {
        enum Action {
            Admit { req: usize, worker: usize },
            Resume { idx: usize },
            Reject { req: usize },
            Preempt { worker: usize, track: usize },
        }
        loop {
            let vt = self.wfq.vtimes().to_vec();
            let use_wfq = self.scheduling == SchedulingPolicy::Wfq;
            let before = |a: &QueueEntry, b: &QueueEntry| {
                if use_wfq {
                    wfq_before(&vt, a, b)
                } else {
                    strict_before(a, b)
                }
            };
            // Queued entries carry no paused index; paused decodes join
            // the scan with their original request's ordering keys.
            let mut cands: Vec<(QueueEntry, Option<usize>)> =
                queue.entries().iter().map(|e| (*e, None)).collect();
            for (pi, p) in self.preempted.iter().enumerate() {
                let r = &self.trace[p.req];
                cands.push((
                    QueueEntry {
                        req: p.req,
                        priority: r.priority,
                        arrival_secs: r.arrival_secs,
                        id: r.id,
                        tenant: self.tenant_of[p.req],
                    },
                    Some(pi),
                ));
            }
            // Ids are unique, so `before` is a strict total order.
            cands.sort_by(|(a, _), (b, _)| {
                if before(a, b) {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Greater
                }
            });
            let mut blocked = vec![false; self.outstanding.len()];
            let mut action: Option<Action> = None;
            for (e, paused_idx) in &cands {
                if blocked[e.tenant] {
                    continue;
                }
                match paused_idx {
                    Some(pi) => {
                        let w = self.preempted[*pi].worker;
                        if sessions[w].has_free_slot() {
                            action = Some(Action::Resume { idx: *pi });
                            break;
                        }
                        if self.preemption == PreemptionPolicy::Enabled {
                            if let Some((vw, vk)) = self.find_victim(&[w], e, &before) {
                                action = Some(Action::Preempt {
                                    worker: vw,
                                    track: vk,
                                });
                                break;
                            }
                        }
                        blocked[e.tenant] = true;
                    }
                    None => {
                        let r = &self.trace[e.req];
                        let feasible: Vec<usize> = (0..fleet.workers.len())
                            .filter(|&w| r.prompt_len + r.max_new <= fleet.workers[w].max_ctx)
                            .collect();
                        if feasible.is_empty() {
                            action = Some(Action::Reject { req: e.req });
                            break;
                        }
                        let open = feasible
                            .iter()
                            .copied()
                            .filter(|&w| sessions[w].has_free_slot())
                            .min_by(|&a, &b| {
                                let pa = self.predict(a, now, r);
                                let pb = self.predict(b, now, r);
                                pa.total_cmp(&pb).then(a.cmp(&b))
                            });
                        if let Some(best) = open {
                            action = Some(Action::Admit {
                                req: e.req,
                                worker: best,
                            });
                            break;
                        }
                        if self.preemption == PreemptionPolicy::Enabled {
                            if let Some((vw, vk)) = self.find_victim(&feasible, e, &before) {
                                action = Some(Action::Preempt {
                                    worker: vw,
                                    track: vk,
                                });
                                break;
                            }
                        }
                        blocked[e.tenant] = true;
                    }
                }
            }
            match action {
                None => return Ok(()),
                Some(Action::Reject { req }) => {
                    queue.remove(req).expect("rejected request was queued");
                    self.records[req].rejected = true;
                    self.rejected += 1;
                    self.outstanding[self.tenant_of[req]] -= 1;
                    self.queue_waits.push(now - self.trace[req].arrival_secs);
                }
                Some(Action::Admit { req, worker }) => {
                    queue.remove(req).expect("admitted request was queued");
                    let r = &self.trace[req];
                    let chunk = match self.prefill {
                        PrefillMode::Chunked { chunk_tokens } => chunk_tokens,
                        PrefillMode::Monolithic => r.prompt_len,
                    };
                    let was_idle =
                        sessions[worker].active_count() + sessions[worker].prefilling_count() == 0;
                    // Cost-only prompts: token values never matter,
                    // length does.
                    let sid = sessions[worker].admit_prompt(
                        &vec![0u32; r.prompt_len],
                        r.max_new,
                        chunk,
                    )?;
                    if was_idle {
                        self.touch_idle_worker(worker, now);
                    }
                    self.states[worker].seqs.push(SeqTrack {
                        seq: sid,
                        req,
                        emitted: 0,
                        last_token: now,
                    });
                    self.queue_waits.push(now - r.arrival_secs);
                }
                Some(Action::Resume { idx }) => {
                    let p = self.preempted.swap_remove(idx);
                    let w = p.worker;
                    let was_idle = sessions[w].active_count() + sessions[w].prefilling_count() == 0;
                    let sid = sessions[w].resume(&p.paused)?;
                    if was_idle {
                        self.touch_idle_worker(w, now);
                    }
                    self.states[w].seqs.push(SeqTrack {
                        seq: sid,
                        req: p.req,
                        emitted: p.emitted,
                        last_token: p.last_token,
                    });
                }
                Some(Action::Preempt { worker, track }) => {
                    let tr = self.states[worker].seqs.remove(track);
                    let paused = sessions[worker].preempt(tr.seq)?;
                    self.preempted.push(PreemptedTrack {
                        worker,
                        paused,
                        req: tr.req,
                        emitted: tr.emitted,
                        last_token: tr.last_token,
                    });
                    self.preemptions += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::arrivals::{merge_traces, poisson_trace, replay_trace, TenantSpec};
    use crate::serve::metrics::SloConfig;
    use crate::serve::scheduler::WorkerSpec;
    use edgellm::config::ModelId;

    fn tenants() -> [TenantSpec; 2] {
        [TenantSpec::interactive("chat"), TenantSpec::batch("batch")]
    }

    #[test]
    fn serve_trace_is_deterministic_and_conserves_requests() {
        let trace = poisson_trace(&tenants(), 4.0, 12, 3);
        let fleet = FleetSpec::single(ModelId::Qwen1_5B, DeviceProfile::v75(), false);
        let gw = FleetGateway::new(fleet, GatewayConfig::default()).unwrap();
        let a = gw.serve_trace(&trace).unwrap();
        let b = gw.serve_trace(&trace).unwrap();
        assert_eq!(a.completed + a.rejected, 12);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.makespan_secs, b.makespan_secs);
        assert_eq!(a.ttft_p99_secs, b.ttft_p99_secs);
        assert_eq!(a.tbt_p99_secs, b.tbt_p99_secs);
        assert!(a.ttft_p50_secs > 0.0);
        assert!(a.makespan_secs >= trace.last().unwrap().arrival_secs);
        // Tenant rows partition the trace.
        let by_tenant: usize = a.tenants.iter().map(|t| t.requests).sum();
        assert_eq!(by_tenant, 12);
    }

    #[test]
    fn chunked_prefill_bounds_tbt_against_monolithic_stalls() {
        // A steady interactive stream plus mid-run long-prompt arrivals:
        // monolithic prefill stalls the decode batch for the whole
        // prompt pass, chunked prefill keeps p99 TBT near the
        // no-arrivals steady state (the acceptance gate pins 2x).
        let interactive = TenantSpec {
            output_lens: (24, 32),
            ..TenantSpec::interactive("chat")
        };
        let chat = replay_trace(
            &interactive,
            &[(0.0, 64, 28), (0.0, 64, 30), (0.0, 64, 32), (0.0, 64, 32)],
        );
        let long = replay_trace(
            &TenantSpec::batch("ingest"),
            &[(0.4, 512, 8), (0.8, 448, 8)],
        );
        let trace = merge_traces(&[chat, long]);
        let fleet = FleetSpec::single(ModelId::Qwen1_5B, DeviceProfile::v75(), false);
        let chunked = FleetGateway::new(fleet.clone(), GatewayConfig::default()).unwrap();
        let mono = FleetGateway::new(
            fleet,
            GatewayConfig {
                prefill: PrefillMode::Monolithic,
                ..GatewayConfig::default()
            },
        )
        .unwrap();
        let rc = chunked.serve_trace(&trace).unwrap();
        let rm = mono.serve_trace(&trace).unwrap();
        assert_eq!(rc.completed, trace.len());
        assert_eq!(rm.completed, trace.len());
        // No-arrivals steady state: the oracle's full-batch step time.
        let steady = chunked.oracles()[0].decode_step_secs;
        assert!(
            rc.tbt_p99_secs <= 2.0 * steady,
            "chunked p99 TBT {} vs steady {steady}",
            rc.tbt_p99_secs
        );
        assert!(
            rm.tbt_p99_secs > rc.tbt_p99_secs,
            "monolithic p99 {} must exceed chunked {}",
            rm.tbt_p99_secs,
            rc.tbt_p99_secs
        );
    }

    #[test]
    fn bounded_queue_rejects_under_overload_and_fleet_absorbs_it() {
        let trace = poisson_trace(&tenants(), 12.0, 24, 9);
        let config = GatewayConfig {
            queue_capacity: 4,
            ..GatewayConfig::default()
        };
        let single = FleetGateway::new(
            FleetSpec::single(ModelId::Qwen1_5B, DeviceProfile::v73(), true),
            config,
        )
        .unwrap();
        let rs = single.serve_trace(&trace).unwrap();
        let fleet = FleetGateway::new(FleetSpec::heterogeneous(ModelId::Qwen1_5B), config).unwrap();
        let rf = fleet.serve_trace(&trace).unwrap();
        assert!(
            rs.rejected > 0,
            "overloaded single device must shed load, got {rs:?}"
        );
        assert!(
            rf.rejected < rs.rejected,
            "fleet rejections {} vs single {}",
            rf.rejected,
            rs.rejected
        );
        assert!(rf.completed > rs.completed);
        // The streamed V73 exists in the fleet and did real work.
        let v73 = rf.workers.iter().find(|w| w.name.contains("8G2")).unwrap();
        assert!(v73.name.contains("streamed"));
    }

    #[test]
    fn unplaceable_prompts_are_rejected_not_stuck() {
        let t = TenantSpec {
            prompt_lens: (4096, 4096),
            ..TenantSpec::batch("huge")
        };
        let trace = replay_trace(&t, &[(0.0, 4096, 8)]);
        let gw = FleetGateway::new(
            FleetSpec::single(ModelId::Qwen1_5B, DeviceProfile::v75(), false),
            GatewayConfig::default(),
        )
        .unwrap();
        let r = gw.serve_trace(&trace).unwrap();
        assert_eq!(r.rejected, 1);
        assert_eq!(r.completed, 0);
    }

    #[test]
    fn thermal_physics_is_inert_below_the_throttle_cap() {
        use crate::serve::scheduler::ThermalPolicy;
        // A short trace never fills the thermal capacitance: with physics
        // on (Blind) the dies warm but never throttle, so every latency
        // number matches the Disabled gateway bit-for-bit — the
        // "thermals change nothing until they must" guarantee.
        let trace = poisson_trace(&tenants(), 4.0, 10, 11);
        let fleet = FleetSpec::single(ModelId::Qwen1_5B, DeviceProfile::v75(), false);
        let disabled = FleetGateway::new(fleet.clone(), GatewayConfig::default()).unwrap();
        let blind = FleetGateway::new(
            fleet,
            GatewayConfig {
                thermal: ThermalPolicy::Blind,
                ..GatewayConfig::default()
            },
        )
        .unwrap();
        let rd = disabled.serve_trace(&trace).unwrap();
        let rb = blind.serve_trace(&trace).unwrap();
        assert_eq!(rd.makespan_secs, rb.makespan_secs);
        assert_eq!(rd.ttft_p99_secs, rb.ttft_p99_secs);
        assert_eq!(rd.tbt_p99_secs, rb.tbt_p99_secs);
        assert_eq!(rd.completed, rb.completed);
        assert_eq!(rb.workers[0].throttled_steps, 0);
        // Physics ran in one and not the other.
        let ambient = DeviceProfile::v75().ambient_temp_c;
        assert_eq!(rd.workers[0].peak_temp_c, ambient);
        assert!(rb.workers[0].peak_temp_c > ambient);
        assert!(rb.workers[0].peak_temp_c < DeviceProfile::v75().throttle_temp_c);
    }

    #[test]
    fn aware_dispatch_is_deterministic_and_projects_cooling() {
        use crate::serve::scheduler::ThermalPolicy;
        let trace = poisson_trace(&tenants(), 6.0, 16, 13);
        let config = GatewayConfig {
            thermal: ThermalPolicy::Aware,
            ..GatewayConfig::default()
        };
        let gw = FleetGateway::new(FleetSpec::heterogeneous(ModelId::Qwen1_5B), config).unwrap();
        let a = gw.serve_trace(&trace).unwrap();
        let b = gw.serve_trace(&trace).unwrap();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.makespan_secs, b.makespan_secs);
        assert_eq!(a.tbt_p99_secs, b.tbt_p99_secs);
        for (wa, wb) in a.workers.iter().zip(&b.workers) {
            assert_eq!(wa.peak_temp_c, wb.peak_temp_c);
            assert_eq!(wa.throttled_steps, wb.throttled_steps);
        }
    }

    fn assert_unsupported<T>(result: SimResult<T>, needle: &str) {
        match result {
            Err(SimError::Unsupported { reason }) => {
                assert!(reason.contains(needle), "unexpected reason: {reason}")
            }
            Err(e) => panic!("expected Unsupported({needle}), got {e}"),
            Ok(_) => panic!("expected Unsupported({needle}), got Ok"),
        }
    }

    #[test]
    fn serve_trace_rejects_duplicate_ids() {
        let t = TenantSpec::interactive("chat");
        let mut trace = replay_trace(&t, &[(0.0, 32, 4)]);
        trace.extend(replay_trace(&t, &[(0.5, 32, 4)]));
        let gw = FleetGateway::new(
            FleetSpec::single(ModelId::Qwen1_5B, DeviceProfile::v75(), false),
            GatewayConfig::default(),
        )
        .unwrap();
        assert_unsupported(gw.serve_trace(&trace), "unique request ids");
    }

    #[test]
    fn gateway_rejects_an_empty_fleet() {
        let fleet = FleetSpec {
            model: ModelId::Qwen1_5B,
            workers: Vec::new(),
        };
        assert_unsupported(
            FleetGateway::new(fleet, GatewayConfig::default()),
            "at least one worker",
        );
    }

    #[test]
    fn gateway_rejects_zero_token_prefill_chunks() {
        let config = GatewayConfig {
            prefill: PrefillMode::Chunked { chunk_tokens: 0 },
            ..GatewayConfig::default()
        };
        assert_unsupported(
            FleetGateway::new(
                FleetSpec::single(ModelId::Qwen1_5B, DeviceProfile::v75(), false),
                config,
            ),
            "at least one token",
        );
    }

    #[test]
    fn defaults_are_strict_priority_without_preemption() {
        let cfg = GatewayConfig::default();
        assert_eq!(cfg.scheduling, SchedulingPolicy::StrictPriority);
        assert_eq!(cfg.preemption, PreemptionPolicy::Disabled);
    }

    #[test]
    fn dispatch_scans_past_a_blocked_head_of_line() {
        // Regression for the head-of-line dispatch stall: a long-context
        // high-priority request that only the big-context worker can run
        // is stuck behind that worker's single busy slot. The old
        // dispatcher `break`ed there, idling the small-context worker
        // even though every queued short request fits it.
        let big_tenant = TenantSpec {
            name: "ingest".into(),
            priority: 3,
            weight: 1.0,
            prompt_lens: (512, 512),
            output_lens: (64, 64),
        };
        let small_tenant = TenantSpec {
            name: "chat".into(),
            priority: 1,
            weight: 1.0,
            prompt_lens: (32, 32),
            output_lens: (8, 16),
        };
        let trace = merge_traces(&[
            replay_trace(&big_tenant, &[(0.0, 512, 64), (0.01, 512, 64)]),
            replay_trace(
                &small_tenant,
                &[(0.02, 32, 8), (0.03, 32, 8), (0.04, 32, 8), (0.05, 32, 8)],
            ),
        ]);
        let fleet = FleetSpec {
            model: ModelId::Qwen1_5B,
            workers: vec![
                WorkerSpec {
                    device: DeviceProfile::v75(),
                    streaming: false,
                    max_batch: 1,
                    max_ctx: 1024,
                },
                WorkerSpec {
                    device: DeviceProfile::v75(),
                    streaming: false,
                    max_batch: 4,
                    max_ctx: 128,
                },
            ],
        };
        let gw = FleetGateway::new(fleet, GatewayConfig::default()).unwrap();
        let rep = gw.serve_trace(&trace).unwrap();
        assert_eq!(rep.completed, 6, "everything eventually runs: {rep:?}");
        // The stalled dispatcher would hold the shorts until the first
        // long decode retires (its full token budget at the batch-1 step
        // rate); the skip-scan runs them on the idle small worker
        // immediately.
        let long_decode_secs = 64.0 * gw.oracles()[0].decode_step_secs;
        let chat = rep.tenants.iter().find(|t| t.name == "chat").unwrap();
        assert!(
            chat.ttft_p99_secs < 0.5 * long_decode_secs,
            "chat p99 TTFT {} vs blocked-head stall {}",
            chat.ttft_p99_secs,
            long_decode_secs
        );
        // The blocked head itself still waited for its worker.
        let ingest = rep.tenants.iter().find(|t| t.name == "ingest").unwrap();
        assert!(ingest.ttft_p99_secs > chat.ttft_p99_secs);
        // The small worker did the short work.
        assert!(rep.workers[1].served >= 4, "small worker idle: {rep:?}");
    }

    fn preemption_scenario() -> (Vec<Request>, FleetSpec) {
        let batch = TenantSpec {
            name: "batch".into(),
            priority: 1,
            weight: 1.0,
            prompt_lens: (64, 64),
            output_lens: (64, 64),
        };
        let chat = TenantSpec {
            name: "chat".into(),
            priority: 2,
            weight: 3.0,
            prompt_lens: (32, 32),
            output_lens: (8, 8),
        };
        let batch_points: Vec<(f64, usize, usize)> =
            (0..8).map(|i| (i as f64 * 0.001, 64, 64)).collect();
        let chat_points: Vec<(f64, usize, usize)> =
            (0..4).map(|i| (1.0 + i as f64 * 0.01, 32, 8)).collect();
        let trace = merge_traces(&[
            replay_trace(&batch, &batch_points),
            replay_trace(&chat, &chat_points),
        ]);
        let fleet = FleetSpec::single(ModelId::Qwen1_5B, DeviceProfile::v75(), false);
        (trace, fleet)
    }

    #[test]
    fn preemption_cuts_interactive_ttft_without_losing_batch_completions() {
        // Burst over batch: eight long low-priority decodes saturate the
        // worker's slots, then an interactive burst arrives. Without
        // preemption the burst waits for a natural retirement; with it,
        // the dispatcher pauses batch decodes (KV snapshot), serves the
        // burst, and resumes the victims — same completions, far lower
        // interactive TTFT.
        let (trace, fleet) = preemption_scenario();
        let plain = FleetGateway::new(fleet.clone(), GatewayConfig::default()).unwrap();
        let preempting = FleetGateway::new(
            fleet,
            GatewayConfig {
                preemption: PreemptionPolicy::Enabled,
                ..GatewayConfig::default()
            },
        )
        .unwrap();
        let rp = plain.serve_trace(&trace).unwrap();
        let rq = preempting.serve_trace(&trace).unwrap();
        assert_eq!(rp.completed, trace.len());
        assert_eq!(
            rq.completed,
            trace.len(),
            "preemption lost requests: {rq:?}"
        );
        assert_eq!(rp.preemptions, 0);
        assert!(rq.preemptions > 0, "no preemption happened: {rq:?}");
        let chat_plain = rp.tenants.iter().find(|t| t.name == "chat").unwrap();
        let chat_pre = rq.tenants.iter().find(|t| t.name == "chat").unwrap();
        assert!(
            chat_pre.ttft_p99_secs * 1.3 <= chat_plain.ttft_p99_secs,
            "preemption p99 TTFT {} vs plain {}",
            chat_pre.ttft_p99_secs,
            chat_plain.ttft_p99_secs
        );
        // Paused-and-resumed batch decodes still emit their full budget.
        let batch_pre = rq.tenants.iter().find(|t| t.name == "batch").unwrap();
        assert_eq!(batch_pre.completed, 8);
        assert_eq!(rp.decoded_tokens, rq.decoded_tokens);
        // Deterministic under preemption.
        let rq2 = preempting.serve_trace(&trace).unwrap();
        assert_eq!(rq.makespan_secs, rq2.makespan_secs);
        assert_eq!(rq.preemptions, rq2.preemptions);
        assert_eq!(rq.ttft_p99_secs, rq2.ttft_p99_secs);
    }

    #[test]
    fn wfq_preserves_the_starved_tenant_share_under_overload() {
        // A high-priority interactive flood against a trickle of batch
        // requests on a capacity-starved worker. Strict priority plus
        // bounded-queue eviction shuts the batch tenant out almost
        // entirely; WFQ orders (and evicts) by weighted virtual time, so
        // the batch tenant keeps a bounded token share.
        let chat = TenantSpec {
            name: "chat".into(),
            priority: 2,
            weight: 3.0,
            prompt_lens: (32, 32),
            output_lens: (8, 8),
        };
        let batch = TenantSpec {
            name: "batch".into(),
            priority: 1,
            weight: 1.0,
            prompt_lens: (128, 128),
            output_lens: (16, 16),
        };
        let chat_points: Vec<(f64, usize, usize)> =
            (0..60).map(|i| (i as f64 * 0.05, 32, 8)).collect();
        let batch_points: Vec<(f64, usize, usize)> =
            (0..10).map(|i| (0.1 + i as f64 * 0.2, 128, 16)).collect();
        let trace = merge_traces(&[
            replay_trace(&chat, &chat_points),
            replay_trace(&batch, &batch_points),
        ]);
        let fleet = FleetSpec {
            model: ModelId::Qwen1_5B,
            workers: vec![WorkerSpec {
                device: DeviceProfile::v73(),
                streaming: true,
                max_batch: 2,
                max_ctx: 1024,
            }],
        };
        let config = GatewayConfig {
            queue_capacity: 2,
            ..GatewayConfig::default()
        };
        let strict = FleetGateway::new(fleet.clone(), config).unwrap();
        let wfq = FleetGateway::new(
            fleet,
            GatewayConfig {
                scheduling: SchedulingPolicy::Wfq,
                ..config
            },
        )
        .unwrap();
        let rs = strict.serve_trace(&trace).unwrap();
        let rw = wfq.serve_trace(&trace).unwrap();
        let share = |rep: &ServingReport| {
            rep.tenants
                .iter()
                .find(|t| t.name == "batch")
                .unwrap()
                .token_share
        };
        assert!(
            share(&rw) >= 2.0 * share(&rs),
            "WFQ batch share {} vs strict {}",
            share(&rw),
            share(&rs)
        );
        assert!(
            rw.jain_fairness > rs.jain_fairness,
            "WFQ Jain {} vs strict {}",
            rw.jain_fairness,
            rs.jain_fairness
        );
        // Fairness is not a free lunch: it comes out of the flood's
        // share, not out of thin air.
        let chat_w = rw.tenants.iter().find(|t| t.name == "chat").unwrap();
        let chat_s = rs.tenants.iter().find(|t| t.name == "chat").unwrap();
        assert!(chat_w.token_share <= chat_s.token_share);
        // Deterministic.
        let rw2 = wfq.serve_trace(&trace).unwrap();
        assert_eq!(rw.makespan_secs, rw2.makespan_secs);
        assert_eq!(rw.jain_fairness, rw2.jain_fairness);
    }

    #[test]
    fn evicted_requests_leave_queue_wait_samples() {
        // A request that waits and is then shed on overflow must appear
        // in the queue-wait record (it used to vanish without a sample).
        let slow = TenantSpec {
            name: "slow".into(),
            priority: 1,
            weight: 1.0,
            prompt_lens: (64, 64),
            output_lens: (64, 64),
        };
        let chat = TenantSpec {
            name: "chat".into(),
            priority: 2,
            weight: 1.0,
            prompt_lens: (32, 32),
            output_lens: (8, 8),
        };
        let trace = merge_traces(&[
            replay_trace(&slow, &[(0.0, 64, 64), (0.1, 64, 64)]),
            replay_trace(&chat, &[(0.6, 32, 8)]),
        ]);
        let fleet = FleetSpec {
            model: ModelId::Qwen1_5B,
            workers: vec![WorkerSpec {
                device: DeviceProfile::v75(),
                streaming: false,
                max_batch: 1,
                max_ctx: 1024,
            }],
        };
        let gw = FleetGateway::new(
            fleet,
            GatewayConfig {
                queue_capacity: 1,
                ..GatewayConfig::default()
            },
        )
        .unwrap();
        let rep = gw.serve_trace(&trace).unwrap();
        // The second slow request queued at 0.1 and was evicted by the
        // higher-priority chat arrival at 0.6: it waited 0.5 s.
        assert_eq!(rep.rejected, 1);
        assert!(
            rep.queue_wait_p99_secs >= 0.5,
            "eviction wait missing from queue-wait record: {rep:?}"
        );
    }

    #[test]
    fn slo_goodput_counts_only_fast_completions() {
        let trace = poisson_trace(&tenants(), 3.0, 8, 5);
        let strict = GatewayConfig {
            slo: SloConfig {
                ttft_secs: 1e-6,
                tbt_secs: 1e-6,
            },
            ..GatewayConfig::default()
        };
        let gw = FleetGateway::new(
            FleetSpec::single(ModelId::Qwen1_5B, DeviceProfile::v79(), false),
            strict,
        )
        .unwrap();
        let r = gw.serve_trace(&trace).unwrap();
        assert_eq!(r.slo_good, 0, "nothing meets a microsecond SLO");
        assert_eq!(r.goodput_rps, 0.0);
        let relaxed = FleetGateway::new(
            FleetSpec::single(ModelId::Qwen1_5B, DeviceProfile::v79(), false),
            GatewayConfig::default(),
        )
        .unwrap();
        let r2 = relaxed.serve_trace(&trace).unwrap();
        assert!(r2.slo_good > 0);
        assert!(r2.goodput_rps > 0.0);
    }
}
