//! Mixed-precision GEMM/GEMV: streaming weight dequantization feeding the
//! HMX matrix engine (paper Sections 5.1-5.2, ablated in Figure 15).
//!
//! The pipeline per weight tile is: DMA the quantized bytes DDR -> TCM,
//! dequantize to FP16 on the HVX, multiply-accumulate on the HMX. DMA,
//! HVX and HMX run concurrently (double buffering), so the kernel's wall
//! time is the maximum of the three engine times — which is how the paper's
//! "no dequantization" arm becomes a DMA-bound upper bound that the
//! coalesced-LUT design approaches within ~27%.
//!
//! Four variants, matching Figure 15's arms:
//!
//! | Variant            | Weight layout      | Dequant path                |
//! |--------------------|--------------------|-----------------------------|
//! | `BaselineScatter`  | column-major groups| naive chain + `vscatter`    |
//! | `HmxLayoutNaive`   | HMX tile groups    | naive chain, contiguous st  |
//! | `CoalescedLut`     | HMX tile groups + super-blocks | `vlut16` path   |
//! | `NoDequantBound`   | HMX tile groups    | none (copy only; perf bound)|

use hexsim::f16::F16;
use hexsim::hmx::{pack_tile, unpack_tile, HmxAccumulator, TILE_BYTES, TILE_DIM};
use hexsim::prelude::*;
use tilequant::block::{BlockQ4_0, BlockQ8_0, Q4_0_BLOCK_BYTES, Q8_0_BLOCK_BYTES};
use tilequant::super_group::{coalesce, SUPER_Q4_BYTES, SUPER_Q8_BYTES};
use tilequant::{QuantScheme, QuantizedMatrix, WeightLayout};

use crate::dequant::{
    dequant_group_baseline_scatter, dequant_group_naive_q8_hmx, dequant_pairs_naive_hmx,
    dequant_super_q4_lut, dequant_super_q8_lut, DequantEnv,
};

/// Which dequantization arm of the Figure 15 ablation to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DequantVariant {
    /// Conventional layout; dequantize group-by-group and scatter into
    /// tiles ("baseline" in Figure 15).
    BaselineScatter,
    /// Offline HMX-layout rearrangement with tile-group quantization, but
    /// the naive conversion chain ("w/ HMX layout").
    HmxLayoutNaive,
    /// Full design: super-group coalescing + LUT dequantization ("ours").
    CoalescedLut,
    /// Copy quantized bytes on-chip without any dequantization — the
    /// performance upper bound ("no dequant.").
    NoDequantBound,
}

impl DequantVariant {
    /// Label as used in Figure 15.
    pub fn label(self) -> &'static str {
        match self {
            DequantVariant::BaselineScatter => "baseline",
            DequantVariant::HmxLayoutNaive => "w/ HMX layout",
            DequantVariant::CoalescedLut => "ours",
            DequantVariant::NoDequantBound => "no dequant.",
        }
    }

    /// The weight layout this variant requires.
    pub fn required_layout(self) -> WeightLayout {
        match self {
            DequantVariant::BaselineScatter => WeightLayout::ColumnMajorGroups,
            _ => WeightLayout::HmxTileGroups,
        }
    }
}

/// GEMM shape and execution configuration.
#[derive(Clone, Copy, Debug)]
pub struct GemmConfig {
    /// Rows of the activation matrix (decode batch size; 1 for GEMV).
    pub m: usize,
    /// Accumulation dimension (multiple of 32).
    pub k: usize,
    /// Output dimension (multiple of 32).
    pub n: usize,
    /// Block codec of the weights.
    pub scheme: QuantScheme,
    /// Dequantization arm.
    pub variant: DequantVariant,
    /// HVX threads the dequantizer spreads across.
    pub threads: u32,
}

/// GEMM output and cost.
#[derive(Clone, Debug)]
pub struct GemmResult {
    /// Row-major `[m, n]` FP16 output (empty in cost-only mode).
    pub out: Vec<F16>,
    /// Single overlapped-phase cost; wall = max over engines.
    pub cost: PhaseCost,
}

/// Weights prepared for the NPU: quantized bytes resident in DDR in the
/// order the chosen variant streams them.
#[derive(Debug)]
pub struct PreparedWeights {
    /// DDR residency of the streaming byte layout.
    pub buf: DdrBuffer,
    /// Matrix shape `[k, n]`.
    pub k: usize,
    /// Output dimension.
    pub n: usize,
    /// Codec.
    pub scheme: QuantScheme,
    /// Variant the bytes were packed for.
    pub variant: DequantVariant,
    /// Bytes per 32x32 weight tile in the stream.
    pub tile_bytes: usize,
    /// Total byte length.
    pub len: u64,
}

/// Bytes per 1024-element tile of quantized stream for a scheme/variant.
fn tile_stream_bytes(scheme: QuantScheme, variant: DequantVariant) -> usize {
    match (scheme, variant) {
        (QuantScheme::Q4_0, DequantVariant::CoalescedLut) => 4 * SUPER_Q4_BYTES,
        (QuantScheme::Q8_0, DequantVariant::CoalescedLut) => 4 * SUPER_Q8_BYTES,
        (QuantScheme::Q4_0, _) => 32 * Q4_0_BLOCK_BYTES,
        (QuantScheme::Q8_0, _) => 32 * Q8_0_BLOCK_BYTES,
    }
}

/// Uploads a quantized matrix into DDR in the byte order the variant
/// expects (coalescing super-groups for the LUT arm). Offline cost: free.
///
/// # Panics
///
/// Panics if the matrix layout does not match the variant's requirement.
pub fn prepare_weights(
    ctx: &mut NpuContext,
    qm: &QuantizedMatrix,
    variant: DequantVariant,
) -> SimResult<PreparedWeights> {
    assert_eq!(
        qm.layout,
        variant.required_layout(),
        "matrix layout does not match variant"
    );
    let tiles = (qm.k / TILE_DIM) * (qm.n / TILE_DIM);
    let len = (tiles * tile_stream_bytes(qm.scheme, variant)) as u64;
    let buf = if ctx.mode == ExecMode::Functional {
        let coalesced: Vec<u8>;
        let bytes: &[u8] = if variant == DequantVariant::CoalescedLut {
            coalesced = coalesce(qm);
            &coalesced
        } else {
            &qm.bytes
        };
        assert_eq!(bytes.len() as u64, len, "stream length mismatch");
        ctx.ddr_alloc_from(bytes)?
    } else {
        // Cost-only: the stream size is derived from the shape; no bytes
        // are materialized.
        ctx.ddr_alloc(len)?
    };
    Ok(PreparedWeights {
        buf,
        k: qm.k,
        n: qm.n,
        scheme: qm.scheme,
        variant,
        tile_bytes: tile_stream_bytes(qm.scheme, variant),
        len,
    })
}

/// Packs activation rows `[m, k]` into interleaved HMX tiles in TCM
/// (functional), charging the shuffle/store trace per tile.
#[allow(clippy::needless_range_loop)]
fn stage_activations(ctx: &mut NpuContext, act: &[F16], m: usize, k: usize, area: Option<TcmAddr>) {
    let m_tiles = m.div_ceil(TILE_DIM);
    let k_tiles = k / TILE_DIM;
    // Charges: per tile, 16 cross-lane shuffles plus a load+store sweep.
    let tiles = (m_tiles * k_tiles) as u64;
    ctx.cost.charge_dma((m * k * 2) as u64);
    ctx.cost.charge_hvx_packets(tiles * 16);
    ctx.cost.charge_tcm_bytes(tiles * 2 * TILE_BYTES as u64);
    let Some(area) = area else { return };
    for mt in 0..m_tiles {
        for kt in 0..k_tiles {
            let mut tile = [[F16::ZERO; TILE_DIM]; TILE_DIM];
            for r in 0..TILE_DIM {
                let row = mt * TILE_DIM + r;
                if row >= m {
                    break;
                }
                for c in 0..TILE_DIM {
                    tile[r][c] = act[row * k + kt * TILE_DIM + c];
                }
            }
            let off = ((mt * k_tiles + kt) * TILE_BYTES) as u32;
            let bytes = pack_tile(&tile);
            ctx.tcm_poke(area.offset(off), &bytes);
        }
    }
}

/// Dequantizes one staged weight tile into `wgt_tile` via the variant's
/// kernel. `staging` holds the tile's quantized bytes (already DMA'd).
fn dequant_tile(
    ctx: &mut NpuContext,
    env: &DequantEnv,
    cfg: &GemmConfig,
    staging: TcmAddr,
    wgt_tile: TcmAddr,
) {
    match (cfg.variant, cfg.scheme) {
        (DequantVariant::CoalescedLut, QuantScheme::Q4_0) => {
            for s in 0..4u32 {
                dequant_super_q4_lut(
                    ctx,
                    env,
                    staging.offset(s * SUPER_Q4_BYTES as u32),
                    wgt_tile.offset(s * 512),
                );
            }
        }
        (DequantVariant::CoalescedLut, QuantScheme::Q8_0) => {
            for s in 0..4u32 {
                dequant_super_q8_lut(
                    ctx,
                    env,
                    staging.offset(s * SUPER_Q8_BYTES as u32),
                    wgt_tile.offset(s * 512),
                );
            }
        }
        (DequantVariant::HmxLayoutNaive, QuantScheme::Q4_0) => {
            for p in 0..16u32 {
                dequant_pairs_naive_hmx(
                    ctx,
                    staging.offset(p * 2 * Q4_0_BLOCK_BYTES as u32),
                    wgt_tile.offset(p * 128),
                );
            }
        }
        (DequantVariant::HmxLayoutNaive, QuantScheme::Q8_0) => {
            for gi in 0..32u32 {
                dequant_group_naive_q8_hmx(
                    ctx,
                    staging.offset(gi * Q8_0_BLOCK_BYTES as u32),
                    wgt_tile.offset(gi * 64),
                );
            }
        }
        (DequantVariant::BaselineScatter, scheme) => {
            // Conventional layout: the staged bytes hold one group per
            // output column of this tile (32 groups).
            let block_bytes = scheme.block_bytes() as u32;
            for col in 0..32 {
                match scheme {
                    QuantScheme::Q4_0 => dequant_group_baseline_scatter(
                        ctx,
                        staging.offset(col as u32 * block_bytes),
                        wgt_tile,
                        col,
                    ),
                    QuantScheme::Q8_0 => {
                        // Q8 baseline: naive chain + the same scatter cost.
                        let src = staging.offset(col as u32 * block_bytes);
                        ctx.cost.charge_tcm_bytes(128);
                        let qf = 2 * ctx.device().qf16_convert_ops();
                        ctx.cost.charge_hvx_packets(7 + qf);
                        ctx.cost.charge_vgather(true);
                        let block = BlockQ8_0::from_bytes(ctx.tcm_peek(src, 34));
                        for (i, q) in block.quants.iter().enumerate() {
                            let vf = F16::from_f32(*q as f32).mul(block.scale);
                            let off = hexsim::hmx::tile_elem_offset(i, col) as u32;
                            let b = vf.0.to_le_bytes();
                            ctx.tcm_poke(wgt_tile.offset(off), &b);
                        }
                    }
                }
            }
        }
        (DequantVariant::NoDequantBound, scheme) => {
            // Copy quantized bytes on-chip without compute: the bandwidth
            // bound. Functionally we still produce correct FP16 tiles
            // (simulation-side, uncharged) so GEMM results stay checkable.
            let qbytes = tile_stream_bytes(scheme, DequantVariant::HmxLayoutNaive) as u64;
            ctx.cost.charge_tcm_bytes(qbytes * 2);
            if ctx.mode == ExecMode::Functional {
                let mut tile_bytes = vec![0u8; TILE_BYTES];
                match scheme {
                    QuantScheme::Q4_0 => {
                        for gi in 0..32 {
                            let src = staging.offset((gi * Q4_0_BLOCK_BYTES) as u32);
                            let block = BlockQ4_0::from_bytes(ctx.tcm_peek(src, Q4_0_BLOCK_BYTES));
                            for i in 0..32 {
                                let vf = block.dequantize_f16(i);
                                let o = (gi * 32 + i) * 2;
                                tile_bytes[o..o + 2].copy_from_slice(&vf.0.to_le_bytes());
                            }
                        }
                    }
                    QuantScheme::Q8_0 => {
                        for gi in 0..32 {
                            let src = staging.offset((gi * Q8_0_BLOCK_BYTES) as u32);
                            let block = BlockQ8_0::from_bytes(ctx.tcm_peek(src, Q8_0_BLOCK_BYTES));
                            for i in 0..32 {
                                let vf = F16::from_f32(block.quants[i] as f32).mul(block.scale);
                                let o = (gi * 32 + i) * 2;
                                tile_bytes[o..o + 2].copy_from_slice(&vf.0.to_le_bytes());
                            }
                        }
                    }
                }
                ctx.tcm_poke(wgt_tile, &tile_bytes);
            }
        }
    }
}

/// The accumulator cost-only writebacks pass: `hmx_store_acc` reads no
/// accumulator in cost-only mode, so one shared zero tile stands in for
/// every m-tile's.
static ZERO_ACC: HmxAccumulator = HmxAccumulator::new();

/// Runs the mixed-precision GEMM `Y[m, n] = X[m, k] x W[k, n]`.
///
/// (The output writeback loop indexes rows and columns directly — the
/// 2-D index arithmetic is clearer than iterator chains here.)
///
/// `act` is row-major `[m, k]` FP16 (may be empty in cost-only mode).
/// Returns the output and the overlapped-phase cost.
///
/// # Panics
///
/// Panics if shapes are inconsistent with `weights`, or if functional mode
/// is used with a workload whose staging exceeds TCM.
#[allow(clippy::needless_range_loop)]
pub fn gemm_mixed(
    ctx: &mut NpuContext,
    cfg: &GemmConfig,
    weights: &PreparedWeights,
    act: &[F16],
) -> GemmResult {
    assert_eq!(weights.k, cfg.k);
    assert_eq!(weights.n, cfg.n);
    assert_eq!(weights.scheme, cfg.scheme);
    assert_eq!(weights.variant, cfg.variant);
    let functional = ctx.mode == ExecMode::Functional;
    if functional {
        assert_eq!(act.len(), cfg.m * cfg.k);
    }

    let m_tiles = cfg.m.div_ceil(TILE_DIM);
    let k_tiles = cfg.k / TILE_DIM;
    let n_tiles = cfg.n / TILE_DIM;
    let mark = ctx.tcm_mark();

    // TCM areas (functional only for the big activation array).
    let act_area = if functional {
        Some(
            ctx.tcm_alloc((m_tiles * k_tiles * TILE_BYTES) as u32, 2048)
                .expect("activation tiles must fit TCM in functional mode"),
        )
    } else {
        None
    };
    let staging = ctx
        .tcm_alloc((weights.tile_bytes + 128) as u32, 128)
        .expect("weight staging fits");
    let wgt_tile = ctx
        .tcm_alloc(TILE_BYTES as u32, 2048)
        .expect("wgt tile fits");
    let out_area = ctx
        .tcm_alloc((m_tiles * TILE_BYTES) as u32, 2048)
        .expect("output tiles fit");

    let mut out = if functional {
        vec![F16::ZERO; cfg.m * cfg.n]
    } else {
        Vec::new()
    };

    let prev = ctx.cost.set_hvx_parallelism(cfg.threads);
    let env = DequantEnv::new(ctx);
    let (_, cost) = ctx.phase("gemm", |ctx| {
        stage_activations(ctx, act, cfg.m, cfg.k, act_area);
        // One FP32 accumulator per m-tile, functional only: cost-only
        // charges the same tile-ops and writebacks but reads no MAC result.
        let mut accs: Vec<HmxAccumulator> = if functional {
            (0..m_tiles).map(|_| HmxAccumulator::new()).collect()
        } else {
            Vec::new()
        };
        let tiles = (n_tiles * k_tiles) as u64;
        ctx.replay_indexed(tiles, |ctx, idx| {
            let nt = (idx as usize) / k_tiles;
            let kt = (idx as usize) % k_tiles;
            if kt == 0 {
                for acc in accs.iter_mut() {
                    acc.clear();
                }
            }
            // Stream this tile's quantized bytes from DDR.
            let tile_idx = match cfg.variant {
                // Column-major tile stream for HMX layouts; the baseline's
                // conventional stream interleaves per-column groups, which
                // the DMA gathers with a 2D descriptor.
                DequantVariant::BaselineScatter => nt * k_tiles + kt,
                _ => nt * k_tiles + kt,
            };
            if cfg.variant == DequantVariant::BaselineScatter {
                // 2D DMA: 32 groups, one per column, strided by k/32 blocks.
                let block_bytes = cfg.scheme.block_bytes() as u64;
                let col_stride = k_tiles as u64 * block_bytes;
                let base = (nt * 32) as u64 * col_stride + kt as u64 * block_bytes;
                ctx.dma_h2t_2d(
                    weights.buf,
                    base,
                    col_stride,
                    staging,
                    cfg.scheme.block_bytes() as u32,
                    32,
                )
                .expect("baseline weight DMA");
            } else {
                ctx.dma_h2t(
                    weights.buf,
                    (tile_idx * weights.tile_bytes) as u64,
                    staging,
                    weights.tile_bytes as u32,
                );
            }
            dequant_tile(ctx, &env, cfg, staging, wgt_tile);
            // Multiply-accumulate every activation row-tile against this
            // weight tile.
            for mt in 0..m_tiles {
                match act_area {
                    Some(area) => {
                        let act_tile = area.offset(((mt * k_tiles + kt) * TILE_BYTES) as u32);
                        ctx.hmx_matmul(&mut accs[mt], act_tile, wgt_tile);
                    }
                    None => ctx.hmx_charge(1),
                }
            }
            if kt == k_tiles - 1 {
                // Write back this output tile column.
                for mt in 0..m_tiles {
                    let out_tile = out_area.offset((mt * TILE_BYTES) as u32);
                    let acc = accs.get(mt).unwrap_or(&ZERO_ACC);
                    ctx.hmx_store_acc(acc, out_tile, None, None);
                    ctx.cost.charge_dma(TILE_BYTES as u64);
                    if functional {
                        let tile = unpack_tile(ctx.tcm_peek(out_tile, TILE_BYTES));
                        for r in 0..TILE_DIM {
                            let row = mt * TILE_DIM + r;
                            if row >= cfg.m {
                                break;
                            }
                            for c in 0..TILE_DIM {
                                out[row * cfg.n + nt * TILE_DIM + c] = tile[r][c];
                            }
                        }
                    }
                }
            }
        });
    });
    ctx.cost.restore_hvx_parallelism(prev);
    ctx.tcm_release(mark);
    GemmResult { out, cost }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::gemm_ref_f32;
    use hexsim::cost::Engine;
    use tilequant::synth::gaussian_matrix;

    fn ctx() -> NpuContext {
        NpuContext::new(DeviceProfile::v75(), ExecMode::Functional)
    }

    fn act_f16(m: usize, k: usize, seed: u64) -> Vec<F16> {
        (0..m * k)
            .map(|i| F16::from_f32((((i as u64 * (seed + 3)) % 41) as f32) / 20.0 - 1.0))
            .collect()
    }

    fn run_variant(
        variant: DequantVariant,
        scheme: QuantScheme,
        m: usize,
        k: usize,
        n: usize,
    ) -> (Vec<F16>, Vec<f32>, PhaseCost) {
        let mut c = ctx();
        let _lut_area = c.tcm_alloc(64 * 1024, 128).unwrap(); // Mimic resident LUT.
        let w = gaussian_matrix(k, n, 77, 0.7, 0.0);
        let qm = QuantizedMatrix::quantize(&w, k, n, scheme, variant.required_layout());
        let deq = qm.dequantize();
        let prepared = prepare_weights(&mut c, &qm, variant).unwrap();
        let act = act_f16(m, k, 5);
        let cfg = GemmConfig {
            m,
            k,
            n,
            scheme,
            variant,
            threads: 4,
        };
        let result = gemm_mixed(&mut c, &cfg, &prepared, &act);
        let act_f32: Vec<f32> = act.iter().map(|v| v.to_f32()).collect();
        let reference = gemm_ref_f32(&act_f32, &deq, m, k, n);
        (result.out, reference, result.cost)
    }

    fn check_close(got: &[F16], expect: &[f32], tol: f32, label: &str) {
        for (i, (g, e)) in got.iter().zip(expect).enumerate() {
            let diff = (g.to_f32() - e).abs();
            let bound = tol * e.abs().max(1.0);
            assert!(diff <= bound, "{label}[{i}]: {} vs {}", g.to_f32(), e);
        }
    }

    #[test]
    fn coalesced_lut_gemv_matches_reference() {
        let (out, reference, _) =
            run_variant(DequantVariant::CoalescedLut, QuantScheme::Q4_0, 1, 64, 64);
        check_close(&out, &reference, 0.02, "lut");
    }

    #[test]
    fn all_variants_agree_functionally() {
        let (lut, reference, _) =
            run_variant(DequantVariant::CoalescedLut, QuantScheme::Q4_0, 2, 64, 96);
        check_close(&lut, &reference, 0.02, "lut");
        let (naive, reference2, _) =
            run_variant(DequantVariant::HmxLayoutNaive, QuantScheme::Q4_0, 2, 64, 96);
        check_close(&naive, &reference2, 0.02, "naive");
        let (nodeq, reference4, _) =
            run_variant(DequantVariant::NoDequantBound, QuantScheme::Q4_0, 2, 64, 96);
        check_close(&nodeq, &reference4, 0.02, "nodeq");
        // LUT and naive share the tile-group quantization, so they must be
        // bit-identical, not merely close.
        assert_eq!(lut, naive);
        assert_eq!(lut, nodeq);
    }

    #[test]
    fn baseline_scatter_matches_its_own_reference() {
        // The baseline uses conventional grouping, so its quantized values
        // differ slightly from the tile-group ones; compare against its own
        // dequantized reference.
        let (out, reference, _) = run_variant(
            DequantVariant::BaselineScatter,
            QuantScheme::Q4_0,
            1,
            64,
            64,
        );
        check_close(&out, &reference, 0.02, "baseline");
    }

    #[test]
    fn q8_gemv_is_tighter_than_q4() {
        let (out8, ref8, _) =
            run_variant(DequantVariant::CoalescedLut, QuantScheme::Q8_0, 1, 64, 64);
        let rmse8: f32 = out8
            .iter()
            .zip(&ref8)
            .map(|(a, b)| (a.to_f32() - b) * (a.to_f32() - b))
            .sum::<f32>()
            .sqrt();
        assert!(rmse8 < 0.05, "q8 rmse {rmse8}");
    }

    #[test]
    fn gemv_speedups_match_figure_15_ranges() {
        // Cost-only at a paper shape: 2048x2048 Q4 GEMV on V75 with the
        // device's full thread pool.
        let mut c = NpuContext::new(DeviceProfile::v75(), ExecMode::CostOnly);
        let wall = |c: &mut NpuContext, variant: DequantVariant, scheme| {
            let (k, n) = (2048, 2048);
            let w = vec![0.0f32; 1]; // Shape-only: no real weights needed.
            let _ = w;
            let qm = QuantizedMatrix {
                k,
                n,
                scheme,
                layout: variant.required_layout(),
                bytes: Vec::new(),
            };
            let prepared = prepare_weights(c, &qm, variant).unwrap();
            let cfg = GemmConfig {
                m: 1,
                k,
                n,
                scheme,
                variant,
                threads: 6,
            };
            let r = gemm_mixed(c, &cfg, &prepared, &[]);
            c.ddr_free(prepared.buf);
            r.cost.wall_secs
        };
        let t_base = wall(&mut c, DequantVariant::BaselineScatter, QuantScheme::Q4_0);
        let t_hmx = wall(&mut c, DequantVariant::HmxLayoutNaive, QuantScheme::Q4_0);
        let t_ours = wall(&mut c, DequantVariant::CoalescedLut, QuantScheme::Q4_0);
        let t_bound = wall(&mut c, DequantVariant::NoDequantBound, QuantScheme::Q4_0);

        let speedup_vs_baseline = t_base / t_ours;
        let speedup_vs_hmx = t_hmx / t_ours;
        let slowdown_vs_bound = t_ours / t_bound;
        // Paper: 9.65-19.04x vs baseline; 1.82-3.45x vs HMX-layout-only;
        // ~27% slower than the no-dequant bound on average.
        assert!(
            (8.0..21.0).contains(&speedup_vs_baseline),
            "vs baseline {speedup_vs_baseline}"
        );
        assert!(
            (1.5..4.0).contains(&speedup_vs_hmx),
            "vs hmx layout {speedup_vs_hmx}"
        );
        assert!(
            (1.05..2.2).contains(&slowdown_vs_bound),
            "vs bound {slowdown_vs_bound}"
        );
    }

    #[test]
    fn gemm_latency_nearly_flat_in_batch() {
        // The free-compute insight (Section 3.2): batch 16 GEMM costs about
        // the same as batch 1 because the HMX tile count is unchanged and
        // dequantization dominates.
        let mut c = NpuContext::new(DeviceProfile::v75(), ExecMode::CostOnly);
        let wall = |c: &mut NpuContext, m: usize| {
            let (k, n) = (2048, 2048);
            let qm = QuantizedMatrix {
                k,
                n,
                scheme: QuantScheme::Q4_0,
                layout: WeightLayout::HmxTileGroups,
                bytes: Vec::new(),
            };
            let prepared = prepare_weights(c, &qm, DequantVariant::CoalescedLut).unwrap();
            let cfg = GemmConfig {
                m,
                k,
                n,
                scheme: QuantScheme::Q4_0,
                variant: DequantVariant::CoalescedLut,
                threads: 6,
            };
            let r = gemm_mixed(c, &cfg, &prepared, &[]);
            c.ddr_free(prepared.buf);
            r.cost.wall_secs
        };
        let t1 = wall(&mut c, 1);
        let t16 = wall(&mut c, 16);
        let ratio = t16 / t1;
        assert!(ratio < 1.25, "batch-16 GEMM should be nearly free: {ratio}");
    }

    #[test]
    fn engine_breakdown_shows_dma_bound_for_no_dequant() {
        let mut c = NpuContext::new(DeviceProfile::v75(), ExecMode::CostOnly);
        let qm = QuantizedMatrix {
            k: 2048,
            n: 2048,
            scheme: QuantScheme::Q4_0,
            layout: WeightLayout::HmxTileGroups,
            bytes: Vec::new(),
        };
        let prepared = prepare_weights(&mut c, &qm, DequantVariant::NoDequantBound).unwrap();
        let cfg = GemmConfig {
            m: 1,
            k: 2048,
            n: 2048,
            scheme: QuantScheme::Q4_0,
            variant: DequantVariant::NoDequantBound,
            threads: 6,
        };
        let r = gemm_mixed(&mut c, &cfg, &prepared, &[]);
        assert!(r.cost.engine(Engine::Dma) > r.cost.engine(Engine::Hvx));
        assert!((r.cost.wall_secs - r.cost.engine(Engine::Dma)).abs() < 1e-12);
    }
}
