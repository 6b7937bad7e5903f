//! `kernels`: a closed loop over paper-shape kernels in functional mode,
//! the one workload where `tilequant` and `htpops` move real bytes.
//!
//! One *layer* is the kernel work of a Qwen-1.5B decoder layer at the
//! Best-of-16 decode batch and a context `nkv` of 1024 or 4096 (Figure 14
//! lengths) plus a seeded 0, 128 or 256 tokens:
//!
//! - `gemm_mixed` on the Qwen-1.5B shapes of Figure 15 (1536x1536 Q4,
//!   1536x8960 Q4, 8960x1536 Q8), the coalesced-LUT arm against the
//!   baseline-scatter arm;
//! - `softmax_rows` over `16 x nkv`, LUT16 against F32-poly (Figure 14);
//! - FlashAttention decode for one GQA group (6 query heads, head
//!   dimension 128) over the `nkv`-token context.
//!
//! Every output is checked against `htpops::reference` with the error
//! bounds the `htpops` unit tests use.

use hexsim::prelude::*;
use htpops::attention::{AttnShape, FlashAttention};
use htpops::exp_lut::{ExpLut16, ExpMethod};
use htpops::gemm::{gemm_mixed, prepare_weights, DequantVariant, GemmConfig, PreparedWeights};
use htpops::reference::{attention_ref_f64, gemm_ref_f32, rmse, softmax_ref_f64};
use htpops::softmax::{softmax_host, SoftmaxConfig};
use tilequant::synth::{gaussian_matrix, uniform_vec};
use tilequant::{QuantError, QuantScheme, QuantizedMatrix};

use crate::stats::{self, fingerprint};
use crate::trace::Tracer;
use crate::tts_bon::set_engines_and_counters;
use crate::{median_ms, Rep, Workload};

/// The Qwen-1.5B weight shapes of Figure 15: `(k, n, scheme)`.
const SHAPES: [(usize, usize, QuantScheme); 3] = [
    (1536, 1536, QuantScheme::Q4_0),
    (1536, 8960, QuantScheme::Q4_0),
    (8960, 1536, QuantScheme::Q8_0),
];
/// Decode batch: the Best-of-16 batch of the paper's scenario.
const M: usize = 16;
/// Query heads per KV head in Qwen-1.5B.
const GQA_GROUP: usize = 6;
/// Attention head dimension.
const HEAD_DIM: usize = 128;
/// Base context of each layer: two of the KV lengths of Figure 14. Each
/// layer adds a seeded 0, 128 or 256 tokens.
const CONTEXTS: [usize; 2] = [1024, 4096];
/// Standard deviation of the synthetic weights, the scale of trained
/// transformer weights.
const WEIGHT_STD: f32 = 0.02;
/// Relative GEMM bound of the `htpops` GEMM tests: `|got - want| <=
/// 0.02 * max(|want|, 1)`.
const GEMM_TOL: f64 = 0.02;
/// Absolute softmax bound of the `htpops` softmax tests.
const SOFTMAX_TOL: f64 = 2e-3;
/// RMSE bound of the `htpops` FlashAttention tests.
const ATTN_TOL: f64 = 5e-3;

/// One weight matrix, quantized for both GEMM arms and resident in DDR.
struct Weights {
    k: usize,
    n: usize,
    scheme: QuantScheme,
    ours: QuantizedMatrix,
    baseline: QuantizedMatrix,
    ours_dev: PreparedWeights,
    baseline_dev: PreparedWeights,
}

/// Seeded inputs of one layer.
struct Layer {
    nkv: usize,
    /// Activations `[m, k]` per distinct `k` in [`SHAPES`].
    act: Vec<(usize, Vec<F16>)>,
    scores: Vec<f32>,
    q: Vec<F16>,
    k: Vec<F16>,
    v: Vec<F16>,
}

/// Outputs of one layer, kept for the reference check.
#[derive(Default)]
struct LayerOut {
    gemm_ours: Vec<Vec<F16>>,
    gemm_baseline: Vec<Vec<F16>>,
    softmax_lut: Vec<f32>,
    softmax_poly: Vec<f32>,
    attention: Vec<F16>,
}

/// The functional context, the quantized weights and the seeded layers.
pub struct Kernels {
    ctx: NpuContext,
    lut: ExpLut16,
    weights: Vec<Weights>,
    layers: Vec<Layer>,
    outputs: Vec<LayerOut>,
    /// Mean quantization RMSE of the coalesced-LUT matrices.
    quant_rmse: f64,
}

fn to_f16(v: &[f32]) -> Vec<F16> {
    v.iter().map(|&x| F16::from_f32(x)).collect()
}

fn to_f32(v: &[F16]) -> Vec<f32> {
    v.iter().map(|x| x.to_f32()).collect()
}

impl Workload for Kernels {
    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
        let lut = ExpLut16::build(&mut ctx).map_err(|e| e.to_string())?;
        let mut weights = Vec::new();
        let mut rmse_sum = 0.0;
        for (i, &(k, n, scheme)) in SHAPES.iter().enumerate() {
            let w = gaussian_matrix(k, n, seed ^ (i as u64 + 1), WEIGHT_STD, 0.0);
            let quantize = |layout| QuantizedMatrix::quantize(&w, k, n, scheme, layout);
            let (ours, baseline) = tr.span("tilequant.quantize", i as u64, |_| {
                (
                    quantize(DequantVariant::CoalescedLut.required_layout()),
                    quantize(DequantVariant::BaselineScatter.required_layout()),
                )
            });
            rmse_sum += QuantError::measure(&w, &ours.dequantize()).rmse;
            drop(w);
            let ours_dev = prepare_weights(&mut ctx, &ours, DequantVariant::CoalescedLut)
                .map_err(|e| e.to_string())?;
            let baseline_dev =
                prepare_weights(&mut ctx, &baseline, DequantVariant::BaselineScatter)
                    .map_err(|e| e.to_string())?;
            weights.push(Weights {
                k,
                n,
                scheme,
                ours,
                baseline,
                ours_dev,
                baseline_dev,
            });
        }
        let layers = CONTEXTS
            .iter()
            .enumerate()
            .map(|(l, &base)| {
                layer_inputs(base, seed.wrapping_mul(0x9E37_79B9).wrapping_add(l as u64))
            })
            .collect();
        Ok(Kernels {
            ctx,
            lut,
            weights,
            layers,
            outputs: Vec::new(),
            quant_rmse: rmse_sum / SHAPES.len() as f64,
        })
    }

    fn run(&mut self, tr: &mut Tracer) -> Result<Rep, String> {
        self.ctx.cost.reset();
        let mut rep = Rep::default();
        let mut arms: [Vec<f64>; 5] = Default::default();
        let mut gemm_speedups = Vec::new();
        let mut softmax_speedups = Vec::new();
        let mut layer_secs = Vec::new();
        let mut digest = 0u64;
        self.outputs.clear();
        for (li, layer) in self.layers.iter().enumerate() {
            let id = li as u64;
            let mut out = LayerOut::default();
            let mut ours_secs = 0.0;
            for w in &self.weights {
                let act = &layer
                    .act
                    .iter()
                    .find(|(k, _)| *k == w.k)
                    .expect("act per k")
                    .1;
                let call = |ctx: &mut NpuContext, dev: &PreparedWeights, variant| {
                    let cfg = GemmConfig {
                        m: M,
                        k: w.k,
                        n: w.n,
                        scheme: w.scheme,
                        variant,
                        threads: 6,
                    };
                    gemm_mixed(ctx, &cfg, dev, act)
                };
                let ours = tr.span("htpops.gemm.ours", id, |_| {
                    call(&mut self.ctx, &w.ours_dev, DequantVariant::CoalescedLut)
                });
                let base = tr.span("htpops.gemm.baseline", id, |_| {
                    call(
                        &mut self.ctx,
                        &w.baseline_dev,
                        DequantVariant::BaselineScatter,
                    )
                });
                arms[0].push(ours.cost.wall_secs);
                arms[1].push(base.cost.wall_secs);
                gemm_speedups.push(base.cost.wall_secs / ours.cost.wall_secs);
                ours_secs += ours.cost.wall_secs;
                out.gemm_ours.push(ours.out);
                out.gemm_baseline.push(base.out);
            }
            let softmax = |ctx: &mut NpuContext, lut: &ExpLut16, method| {
                let cfg = SoftmaxConfig {
                    rows: M,
                    cols: layer.nkv,
                    method,
                };
                softmax_host(ctx, lut, cfg, &layer.scores)
            };
            let (lut_out, lut_cost) = tr.span("htpops.softmax.lut16", id, |_| {
                softmax(&mut self.ctx, &self.lut, ExpMethod::Lut16)
            });
            let (poly_out, poly_cost) = tr.span("htpops.softmax.f32poly", id, |_| {
                softmax(&mut self.ctx, &self.lut, ExpMethod::F32Poly)
            });
            arms[2].push(lut_cost.wall_secs);
            arms[3].push(poly_cost.wall_secs);
            softmax_speedups.push(poly_cost.wall_secs / lut_cost.wall_secs);
            out.softmax_lut = lut_out;
            out.softmax_poly = poly_out;
            let shape = AttnShape {
                nq: M,
                nkv: layer.nkv,
                head_dim: HEAD_DIM,
            };
            let (attn_out, attn_cost) = tr.span("htpops.attention", id, |_| {
                FlashAttention::new(&self.lut, ExpMethod::Lut16, GQA_GROUP).run(
                    &mut self.ctx,
                    shape,
                    &layer.q,
                    &layer.k,
                    &layer.v,
                )
            });
            arms[4].push(attn_cost.total_wall());
            out.attention = attn_out;
            layer_secs.push(ours_secs + attn_cost.total_wall());
            digest ^= output_digest(&out).rotate_left(li as u32);
            self.outputs.push(out);
            // Two GEMM arms per shape, two softmax arms, one attention.
            rep.attempted += 2 * SHAPES.len() as u64 + 3;
        }

        rep.sim_secs = arms.iter().flatten().sum();
        rep.digest = digest;
        let calls: usize = arms.iter().map(Vec::len).sum();
        // The NPU kernel time of one decoder layer of a decode step.
        rep.set("step_latency_s", stats::median(&layer_secs));
        for (arm, name) in arms.iter().zip(ARMS) {
            rep.set(
                format!("htpops.{name}.modeled_us"),
                stats::median(arm) * 1e6,
            );
        }
        let gemm_x = stats::geomean(&gemm_speedups);
        let softmax_x = stats::geomean(&softmax_speedups);
        rep.set("htpops.gemm_speedup_x", gemm_x);
        rep.set("htpops.softmax_speedup_x", softmax_x);
        rep.set("tilequant.rmse", self.quant_rmse);
        set_engines_and_counters(&mut rep, &self.ctx.cost, calls as f64);
        rep.notes.push(format!(
            "kernels: {} layers at batch {M}, contexts {:?}; layer latency p50 {} s; \
             GEMM speedup geomean {gemm_x}x (max {}x) vs paper up to 19.0x (difference {}x); \
             softmax speedup geomean {softmax_x}x (max {}x) vs paper 2.2x (difference {}x); \
             the cost model is calibrated to the paper and not validated on held-out hardware",
            self.layers.len(),
            self.layers.iter().map(|l| l.nkv).collect::<Vec<_>>(),
            stats::median(&layer_secs),
            gemm_speedups.iter().copied().fold(0.0, f64::max),
            gemm_x - 19.0,
            softmax_speedups.iter().copied().fold(0.0, f64::max),
            softmax_x - 2.2,
        ));
        Ok(rep)
    }

    fn verify(&mut self, rep: &mut Rep) -> Result<(), String> {
        let mut worst = [0.0f64; 5];
        let mut failed = 0;
        for (j, w) in self.weights.iter().enumerate() {
            for (arm, qm) in [(0, &w.ours), (1, &w.baseline)] {
                let deq = qm.dequantize();
                for (layer, out) in self.layers.iter().zip(&self.outputs) {
                    let act = &layer.act.iter().find(|(k, _)| *k == w.k).expect("act").1;
                    let want = gemm_ref_f32(&to_f32(act), &deq, M, w.k, w.n);
                    let got = if arm == 0 {
                        &out.gemm_ours[j]
                    } else {
                        &out.gemm_baseline[j]
                    };
                    let err = got
                        .iter()
                        .zip(&want)
                        .map(|(g, &e)| {
                            (f64::from(g.to_f32()) - f64::from(e)).abs()
                                / f64::from(e.abs().max(1.0))
                        })
                        .fold(0.0, f64::max);
                    worst[arm] = worst[arm].max(err);
                    failed += u64::from(err > GEMM_TOL);
                }
            }
        }
        for (layer, out) in self.layers.iter().zip(&self.outputs) {
            for (arm, got) in [(2, &out.softmax_lut), (3, &out.softmax_poly)] {
                let mut err = 0.0f64;
                for (r, row) in layer.scores.chunks(layer.nkv).enumerate() {
                    let want = softmax_ref_f64(row);
                    for (g, e) in got[r * layer.nkv..(r + 1) * layer.nkv].iter().zip(&want) {
                        err = err.max((f64::from(*g) - e).abs());
                    }
                }
                worst[arm] = worst[arm].max(err);
                failed += u64::from(err > SOFTMAX_TOL);
            }
            let rows = GQA_GROUP * M;
            let want = attention_ref_f64(
                &to_f32(&layer.q),
                &to_f32(&layer.k),
                &to_f32(&layer.v),
                rows,
                layer.nkv,
                HEAD_DIM,
                1.0 / (HEAD_DIM as f64).sqrt(),
            );
            let err = rmse(&to_f32(&out.attention), &want);
            worst[4] = worst[4].max(err);
            failed += u64::from(err > ATTN_TOL);
        }
        for (err, name) in worst.iter().zip(ARMS) {
            rep.set(format!("htpops.{name}.rel_err"), *err);
        }
        rep.failed += failed;
        Ok(())
    }

    fn host_layers(setup: &Tracer, timed: &Tracer, _rep: &Rep) -> Vec<(&'static str, f64)> {
        let mut out = vec![(
            "tilequant.quantize_host_s",
            setup.durations("tilequant.quantize").iter().sum::<f64>(),
        )];
        for (span, metric) in ARMS.iter().zip(HOST_METRICS) {
            out.push((metric, median_ms(timed, &format!("htpops.{span}"))));
        }
        out
    }
}

/// The five kernel arms, in the order `run` collects them.
const ARMS: [&str; 5] = [
    "gemm.ours",
    "gemm.baseline",
    "softmax.lut16",
    "softmax.f32poly",
    "attention",
];

/// Host metric of each arm.
const HOST_METRICS: [&str; 5] = [
    "htpops.gemm.ours.host_ms",
    "htpops.gemm.baseline.host_ms",
    "htpops.softmax.lut16.host_ms",
    "htpops.softmax.f32poly.host_ms",
    "htpops.attention.host_ms",
];

/// Seeded inputs of one layer at context `base` plus a seeded jitter.
fn layer_inputs(base: usize, seed: u64) -> Layer {
    // The jitter draw is uniform enough for a benchmark and needs no RNG
    // crate.
    let mix = fingerprint([("layer", f64::from_bits(seed))]);
    let nkv = base + 128 * (mix % 3) as usize;
    let mut act = Vec::new();
    for &(k, _, _) in &SHAPES {
        if !act.iter().any(|(kk, _)| *kk == k) {
            act.push((k, to_f16(&uniform_vec(M * k, seed ^ k as u64, 1.0))));
        }
    }
    Layer {
        nkv,
        act,
        scores: uniform_vec(M * nkv, seed ^ 0x50F7, 4.8),
        q: to_f16(&uniform_vec(GQA_GROUP * M * HEAD_DIM, seed ^ 0x0051, 1.0)),
        k: to_f16(&uniform_vec(nkv * HEAD_DIM, seed ^ 0x00C4, 1.0)),
        v: to_f16(&uniform_vec(nkv * HEAD_DIM, seed ^ 0x0076, 1.0)),
    }
}

/// Bit-exact digest of one layer's outputs.
fn output_digest(out: &LayerOut) -> u64 {
    let halves = out
        .gemm_ours
        .iter()
        .chain(&out.gemm_baseline)
        .chain(std::iter::once(&out.attention))
        .flatten()
        .map(|h| ("", f64::from(h.0)));
    let floats = out
        .softmax_lut
        .iter()
        .chain(&out.softmax_poly)
        .map(|&x| ("", f64::from(x)));
    fingerprint(halves.chain(floats))
}
