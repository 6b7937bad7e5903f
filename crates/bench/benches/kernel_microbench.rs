//! Criterion microbenchmarks of the functional simulator kernels.
//!
//! Unlike the figure/table harnesses (which report *simulated device*
//! latencies), these measure the host-side execution speed of the
//! bit-exact functional paths, plus the cost-only forward pass that prices
//! every simulated serving step — useful when optimizing the simulator
//! itself and as a regression guard for the hot loops.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hexsim::f16::F16;
use hexsim::prelude::*;
use htpops::dequant::{dequant_super_q4_lut, DequantEnv};
use htpops::exp_lut::{ExpLut16, ExpMethod};
use htpops::softmax::{softmax_rows, SoftmaxConfig};
use tilequant::block::BlockQ4_0;
use tilequant::super_group::SuperBlockQ4;
use tilequant::synth::gaussian_matrix;
use tilequant::{QuantScheme, QuantizedMatrix, WeightLayout};

fn bench_f16_conversion(c: &mut Criterion) {
    let mut group = c.benchmark_group("f16");
    group.throughput(Throughput::Elements(4096));
    let values: Vec<f32> = (0..4096).map(|i| (i as f32) * 0.37 - 700.0).collect();
    group.bench_function("from_f32_rtne_4096", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for &v in &values {
                acc = acc.wrapping_add(F16::from_f32(std::hint::black_box(v)).0 as u32);
            }
            acc
        })
    });
    // The chunked SIMD-friendly slice converters (bit-identical results,
    // pinned by hexsim's exhaustive tests) against the scalar loops above
    // — the hot path of the CPU lm_head and embedding staging.
    let mut half = vec![F16::ZERO; 4096];
    group.bench_function("from_f32_slice_4096", |b| {
        b.iter(|| {
            F16::from_f32_slice(std::hint::black_box(&values), &mut half);
            half[0].0
        })
    });
    F16::from_f32_slice(&values, &mut half);
    group.bench_function("to_f32_scalar_4096", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for &h in &half {
                acc += std::hint::black_box(h).to_f32();
            }
            acc
        })
    });
    let mut floats = vec![0.0f32; 4096];
    group.bench_function("to_f32_slice_4096", |b| {
        b.iter(|| {
            F16::to_f32_slice(std::hint::black_box(&half), &mut floats);
            floats[0]
        })
    });
    group.finish();
}

fn bench_lut_dequant(c: &mut Criterion) {
    let mut group = c.benchmark_group("dequant");
    group.throughput(Throughput::Elements(256));
    let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
    let env = DequantEnv::new(&mut ctx);
    let blocks: [BlockQ4_0; 8] = std::array::from_fn(|g| {
        let vals: Vec<f32> = (0..32)
            .map(|i| ((g * 32 + i) as f32 * 0.11).sin())
            .collect();
        BlockQ4_0::quantize(&vals)
    });
    let sb = SuperBlockQ4::from_blocks(&blocks);
    let src = ctx.tcm_alloc(256, 128).unwrap();
    let dst = ctx.tcm_alloc(512, 128).unwrap();
    ctx.tcm_poke(src, &sb.to_bytes());
    group.bench_function("super_q4_lut_256_elems", |b| {
        b.iter(|| dequant_super_q4_lut(&mut ctx, &env, src, dst))
    });
    group.finish();
}

fn bench_weight_quant(c: &mut Criterion) {
    // Host weight preparation: the strip-walk `quantize` and `dequantize`
    // of one Qwen-1.5B-shape Q4 projection, in both layouts (the
    // `kernels` workload of perfbench quantizes every matrix both ways).
    let mut group = c.benchmark_group("weight_quant");
    let (k, n) = (1536usize, 1536usize);
    group.throughput(Throughput::Elements((k * n) as u64));
    let w = gaussian_matrix(k, n, 1, 0.02, 0.0);
    for layout in [WeightLayout::HmxTileGroups, WeightLayout::ColumnMajorGroups] {
        group.bench_function(format!("quantize_q4_1536x1536_{layout:?}"), |b| {
            b.iter(|| {
                QuantizedMatrix::quantize(std::hint::black_box(&w), k, n, QuantScheme::Q4_0, layout)
            })
        });
        let qm = QuantizedMatrix::quantize(&w, k, n, QuantScheme::Q4_0, layout);
        group.bench_function(format!("dequantize_q4_1536x1536_{layout:?}"), |b| {
            b.iter(|| std::hint::black_box(&qm).dequantize())
        });
    }
    group.finish();
}

fn bench_softmax(c: &mut Criterion) {
    let mut group = c.benchmark_group("softmax");
    group.throughput(Throughput::Elements(4 * 1024));
    let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
    let lut = ExpLut16::build(&mut ctx).unwrap();
    let data = ctx.tcm_alloc(4 * 1024 * 2, 128).unwrap();
    let mut bytes = vec![0u8; 4 * 1024 * 2];
    for i in 0..4 * 1024 {
        let v = F16::from_f32(-((i % 97) as f32) / 10.0);
        bytes[2 * i..2 * i + 2].copy_from_slice(&v.0.to_le_bytes());
    }
    ctx.tcm_poke(data, &bytes);
    for method in [ExpMethod::F32Poly, ExpMethod::F16Poly, ExpMethod::Lut16] {
        group.bench_function(format!("rows4_cols1024_{method:?}"), |b| {
            b.iter(|| {
                softmax_rows(
                    &mut ctx,
                    &lut,
                    SoftmaxConfig {
                        rows: 4,
                        cols: 1024,
                        method,
                    },
                    data,
                )
            })
        });
    }
    // The pass-2 host lane sum in isolation: per-lane scalar conversion
    // against the chunked slice converter now used by softmax_rows (both
    // bit-identical, pinned by the exhaustive htpops test) — the same
    // scalar-vs-chunked pin pattern as the f16 group above.
    let vecs: Vec<HvxVec> = (0..64)
        .map(|r| {
            let mut v = HvxVec::zero();
            for lane in 0..HVX_HALVES {
                v.set_hf(
                    lane,
                    F16::from_f32(-((r * HVX_HALVES + lane) as f32 % 97.0) / 10.0),
                );
            }
            v
        })
        .collect();
    group.bench_function("host_lane_sum_scalar_4096", |b| {
        b.iter(|| {
            let mut sum = 0.0f64;
            for v in std::hint::black_box(&vecs) {
                for lane in 0..HVX_HALVES {
                    sum += v.get_hf(lane).to_f32() as f64;
                }
            }
            sum
        })
    });
    group.bench_function("host_lane_sum_chunked_4096", |b| {
        b.iter(|| {
            let mut sum = 0.0f64;
            let mut lanes = [F16::ZERO; HVX_HALVES];
            let mut lanes_f32 = [0.0f32; HVX_HALVES];
            for v in std::hint::black_box(&vecs) {
                for (lane, slot) in lanes.iter_mut().enumerate() {
                    *slot = v.get_hf(lane);
                }
                F16::to_f32_slice(&lanes, &mut lanes_f32);
                for &x in &lanes_f32 {
                    sum += x as f64;
                }
            }
            sum
        })
    });
    group.finish();
}

fn bench_attention_host(c: &mut Criterion) {
    // The attention host-staging hot loops: per-element F16 conversion in
    // the QK^T / PV inner products against the chunked staged form the
    // functional flash kernel now uses (bit-identical, pinned by the
    // `staged_block_math_is_bit_identical_to_elementwise` sweep in
    // htpops). Shapes mirror one KV block of a decode step.
    let mut group = c.benchmark_group("attention_host");
    let (nq, cols, d) = (4usize, 128usize, 64usize);
    group.throughput(Throughput::Elements((nq * cols * d) as u64));
    let q: Vec<F16> = (0..nq * d)
        .map(|i| F16::from_f32(((i % 97) as f32) / 48.0 - 1.0))
        .collect();
    let k: Vec<F16> = (0..cols * d)
        .map(|i| F16::from_f32(((i % 89) as f32) / 44.0 - 1.0))
        .collect();
    group.bench_function("qk_block_scalar_4x128x64", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for i in 0..nq {
                for j in 0..cols {
                    let mut dot = 0.0f32;
                    for p in 0..d {
                        dot += std::hint::black_box(q[i * d + p]).to_f32() * k[j * d + p].to_f32();
                    }
                    acc += dot;
                }
            }
            acc
        })
    });
    group.bench_function("qk_block_staged_4x128x64", |b| {
        b.iter(|| {
            let qf = F16::vec_to_f32(std::hint::black_box(&q));
            let kf = F16::vec_to_f32(&k);
            let mut acc = 0.0f32;
            for i in 0..nq {
                for j in 0..cols {
                    let mut dot = 0.0f32;
                    for p in 0..d {
                        dot += qf[i * d + p] * kf[j * d + p];
                    }
                    acc += dot;
                }
            }
            acc
        })
    });
    group.finish();
}

fn bench_lm_head_row(c: &mut Criterion) {
    // One lm_head row: hidden state against a vocabulary slice — scalar
    // per-element conversion vs the hoisted chunked conversion the model
    // uses (convert the hidden state once, dot in f32; `to_f32` is exact
    // so both accumulate identically).
    let mut group = c.benchmark_group("lm_head");
    let (hidden, vocab) = (256usize, 512usize);
    group.throughput(Throughput::Elements((hidden * vocab) as u64));
    let x: Vec<F16> = (0..hidden)
        .map(|i| F16::from_f32(((i % 61) as f32) / 30.0 - 1.0))
        .collect();
    let w: Vec<f32> = (0..hidden * vocab)
        .map(|i| ((i % 103) as f32) / 51.0 - 1.0)
        .collect();
    group.bench_function("row_scalar_h256_v512", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for v in 0..vocab {
                let row = &w[v * hidden..(v + 1) * hidden];
                let mut dot = 0.0f32;
                for (h, wv) in std::hint::black_box(&x).iter().zip(row) {
                    dot += h.to_f32() * wv;
                }
                acc += dot;
            }
            acc
        })
    });
    group.bench_function("row_staged_h256_v512", |b| {
        b.iter(|| {
            let xf = F16::vec_to_f32(std::hint::black_box(&x));
            let mut acc = 0.0f32;
            for v in 0..vocab {
                let row = &w[v * hidden..(v + 1) * hidden];
                let mut dot = 0.0f32;
                for (h, wv) in xf.iter().zip(row) {
                    dot += h * wv;
                }
                acc += dot;
            }
            acc
        })
    });
    group.finish();
}

fn bench_verify_argmax(c: &mut Criterion) {
    // The speculative-decode verify host loop: one argmax per drafted row
    // over the full vocabulary. Scalar reference against the chunked
    // NEG_INFINITY-sentinel scan `ttscale::spec_decode::argmax` actually
    // uses (bit-identical tie-breaking, pinned by the elementwise
    // differential tests in spec_decode) — the same scalar-vs-chunked pin
    // pattern as the lm_head group above.
    use ttscale::spec_decode::{argmax, argmax_scalar};
    let mut group = c.benchmark_group("verify_argmax");
    let (rows, vocab) = (4usize, 8192usize);
    group.throughput(Throughput::Elements((rows * vocab) as u64));
    let logits: Vec<Vec<f32>> = (0..rows)
        .map(|r| {
            (0..vocab)
                .map(|i| (((r * vocab + i) % 211) as f32) / 7.0 - 15.0)
                .collect()
        })
        .collect();
    for row in &logits {
        assert_eq!(argmax(row), argmax_scalar(row));
    }
    group.bench_function("rows4_scalar_v8192", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for row in std::hint::black_box(&logits) {
                acc = acc.wrapping_add(argmax_scalar(row));
            }
            acc
        })
    });
    group.bench_function("rows4_chunked_v8192", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for row in std::hint::black_box(&logits) {
                acc = acc.wrapping_add(argmax(row));
            }
            acc
        })
    });
    group.finish();
}

fn bench_hmx_tile(c: &mut Criterion) {
    let mut group = c.benchmark_group("hmx");
    group.throughput(Throughput::Elements(32 * 32 * 32));
    let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::Functional);
    let act = ctx.tcm_alloc(2048, 2048).unwrap();
    let wgt = ctx.tcm_alloc(2048, 2048).unwrap();
    let mut tile = [[F16::ZERO; 32]; 32];
    for (r, row) in tile.iter_mut().enumerate() {
        for (cc, v) in row.iter_mut().enumerate() {
            *v = F16::from_f32(((r * 31 + cc) % 17) as f32 * 0.25 - 2.0);
        }
    }
    let packed = hexsim::hmx::pack_tile(&tile);
    ctx.tcm_poke(act, &packed);
    ctx.tcm_poke(wgt, &packed);
    group.bench_function("tile_matmul_32x32x32", |b| {
        b.iter(|| {
            let mut acc = hexsim::hmx::HmxAccumulator::new();
            ctx.hmx_matmul(&mut acc, act, wgt);
            acc.0[0][0]
        })
    });
    group.finish();
}

fn bench_cost_only_forward(c: &mut Criterion) {
    // Host cost of pricing one step in cost-only mode, the path every
    // serving, thermal and Best-of-N simulation takes per step: a
    // Qwen-1.5B batch-16 decode step at context 512 and a 512-token
    // prefill. Each iteration resets the KV lengths so the shapes repeat.
    use edgellm::{KvCache, Model, ModelId};
    use htpops::gemm::DequantVariant;
    let mut group = c.benchmark_group("cost_only_forward");
    let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::CostOnly);
    let model = Model::new(&mut ctx, ModelId::Qwen1_5B, DequantVariant::CoalescedLut, 1).unwrap();
    let (batch, ctx_len) = (16usize, 512usize);
    let mut cache = KvCache::new(&mut ctx, &model.cfg, batch, batch * (ctx_len + 1)).unwrap();
    let tokens = vec![0u32; batch];
    group.bench_function("qwen1_5b_decode_b16_ctx512", |b| {
        b.iter(|| {
            for seq in 0..batch {
                cache.fast_fill(seq, ctx_len);
            }
            let out = model.decode_step(&mut ctx, &mut cache, &tokens).unwrap();
            out.cost.wall_secs()
        })
    });
    cache.free(&mut ctx);
    let mut cache = KvCache::new(&mut ctx, &model.cfg, 1, 512).unwrap();
    let prompt = vec![0u32; 512];
    group.bench_function("qwen1_5b_prefill_512", |b| {
        b.iter(|| {
            cache.reset_seq(0);
            let out = model.prefill(&mut ctx, &mut cache, 0, &prompt).unwrap();
            out.cost.wall_secs()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).warm_up_time(std::time::Duration::from_millis(300)).measurement_time(std::time::Duration::from_secs(1));
    targets = bench_f16_conversion, bench_lut_dequant, bench_weight_quant, bench_softmax, bench_attention_host, bench_lm_head_row, bench_verify_argmax, bench_hmx_tile, bench_cost_only_forward
}
criterion_main!(benches);
