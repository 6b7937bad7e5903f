//! The NPU execution context: storage + datapath + cost accounting.
//!
//! [`NpuContext`] is the single handle kernels program against. Every method
//! that corresponds to an NPU instruction or engine transfer both *executes*
//! it functionally (bytes really move, lanes really compute) and *charges*
//! its cost, so the latency figures reported by the benchmark harness are
//! derived from the same code path the correctness tests exercise. In
//! [`ExecMode::CostOnly`] the charges are identical but the pure lane
//! operations compute nothing: their result registers read as zero. A
//! cost-only context also holds no TCM bytes: TCM reads return zeros,
//! writes store nothing, and every TCM bounds check panics exactly where
//! it panics in functional mode. Kernels and forward passes built on a
//! cost-only context hold no host activation bytes either, so pricing a
//! step costs the same host memory whatever its number of rows.
//!
//! Cost conventions (see `crates/hexsim/src/cost.rs`):
//! - compute instructions charge packets (1 vector-clock cycle each, except
//!   `vgather`, which charges the device's published 24-48 packets);
//! - memory operations charge bytes at the engine's calibrated bandwidth
//!   (TCM path, DDR core path, DMA, or `l2fetch`) and no packets — on real
//!   silicon loads dual-issue with compute, so bandwidth is the binding
//!   constraint.

use crate::cost::{CostModel, PhaseCost};
use crate::device::DeviceProfile;
use crate::error::{SimError, SimResult};
use crate::f16::F16;
use crate::hmx::{self, HmxAccumulator, TILE_BYTES, TILE_DIM};
use crate::hvx::{self, HvxVec, HVX_BYTES, HVX_HALVES};
use crate::mem::{DdrBuffer, DdrHeap, TcmAddr};

/// How the context executes kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Full functional simulation: DDR buffers are materialized and all data
    /// paths compute real bytes. Use for correctness tests and small models.
    Functional,
    /// Shape-level simulation: DDR buffers track sizes only and
    /// [`NpuContext::replay`] extrapolates one representative block's cost.
    /// Use for paper-scale latency sweeps.
    ///
    /// Cost-only mode prices shapes, not values. It computes no lane
    /// values: every pure lane operation charges exactly as in
    /// [`ExecMode::Functional`] and returns all-zero registers, and DDR
    /// reads return zeros. Kernel control flow and charges must therefore
    /// never depend on a lane value.
    ///
    /// Cost-only TCM holds no bytes either: TCM reads (`tcm_peek`,
    /// `vmem_ld_tcm`, `vgather_h`, HMX tile reads, `dma_t2h`) return zeros,
    /// TCM writes (`tcm_poke`, `vmem_st_tcm`, `vscatter_h`, `dma_h2t`,
    /// `hmx_store_acc`) store nothing, and bounds are checked exactly as in
    /// functional mode, so an out-of-TCM access panics in both modes.
    ///
    /// The kernels and the model forward pass above hold no host bytes
    /// that cost-only never reads: no activation or attention-output
    /// buffers, no per-m-tile HMX accumulators or softmax running state,
    /// and no per-kernel dummy rows (the replayed misc kernels of one
    /// forward share one scratch row). A cost-only forward's host memory
    /// does not grow with its rows (`edgellm`'s `cost_only_alloc` test).
    CostOnly,
}

/// All-zero bytes backing cost-only TCM reads. Covers the 8 MiB TCM of
/// every shipped device profile (a cost-only read of more bytes than this
/// panics); it lives in zero-initialized static memory, so it costs no
/// resident pages until read.
static ZERO_TCM: [u8; 8 * 1024 * 1024] = [0; 8 * 1024 * 1024];

/// Saved TCM allocator position, for stack-discipline scratch reuse.
#[derive(Clone, Copy, Debug)]
pub struct TcmMark(u32);

/// The simulated NPU: TCM, DDR heap, HVX/HMX datapaths and the cost model.
pub struct NpuContext {
    device: DeviceProfile,
    /// Execution mode (functional vs shape-level). Fixed at construction:
    /// the TCM backing store is sized for it.
    pub mode: ExecMode,
    /// Cost accounting for everything this context executed.
    pub cost: CostModel,
    /// TCM bytes: `tcm_bytes` of them in functional mode, none in
    /// cost-only mode (reads see `ZERO_TCM`).
    tcm: Vec<u8>,
    tcm_top: u32,
    ddr: DdrHeap,
    /// When set, DDR allocations land in the CPU-owned staging region
    /// instead of session VA (see [`NpuContext::set_ddr_staging`]).
    ddr_staging: bool,
}

impl NpuContext {
    /// Creates a context for a device in the given mode, with a single
    /// NPU session's virtual address space.
    pub fn new(device: DeviceProfile, mode: ExecMode) -> Self {
        Self::new_sharded(device, mode, 1)
    }

    /// Creates a context backed by up to `max_sessions` NPU sessions, each
    /// with its own `session_va_bytes` of virtual address space — the
    /// paper's Section 8 workaround for models whose weights exceed one
    /// 32-bit session. The DDR heap enforces the sessions' aggregate VA
    /// envelope (no buffer larger than one session, no total beyond
    /// `max_sessions` sessions); bin-level placement belongs to the shard
    /// planner upstairs. Everything else (TCM, datapaths, cost model) is
    /// shared, because the Hexagon hardware behind every session is the
    /// same physical NPU.
    pub fn new_sharded(device: DeviceProfile, mode: ExecMode, max_sessions: usize) -> Self {
        let tcm = match mode {
            ExecMode::Functional => vec![0u8; device.tcm_bytes as usize],
            ExecMode::CostOnly => Vec::new(),
        };
        let ddr = DdrHeap::with_sessions(device.session_va_bytes, max_sessions);
        let cost = CostModel::new(device.clone());
        NpuContext {
            device,
            mode,
            cost,
            tcm,
            tcm_top: 0,
            ddr,
            ddr_staging: false,
        }
    }

    /// The device profile this context simulates.
    pub fn device(&self) -> &DeviceProfile {
        &self.device
    }

    // ------------------------------------------------------------------
    // TCM management.
    // ------------------------------------------------------------------

    /// Allocates `bytes` of TCM with the given alignment (bump allocator).
    pub fn tcm_alloc(&mut self, bytes: u32, align: u32) -> SimResult<TcmAddr> {
        let align = align.max(1);
        let base = self.tcm_top.div_ceil(align) * align;
        if base + bytes > self.device.tcm_bytes {
            return Err(SimError::TcmExhausted {
                capacity: self.device.tcm_bytes,
                requested: bytes,
            });
        }
        self.tcm_top = base + bytes;
        Ok(TcmAddr(base))
    }

    /// Saves the allocator position; restore with [`NpuContext::tcm_release`].
    pub fn tcm_mark(&self) -> TcmMark {
        TcmMark(self.tcm_top)
    }

    /// Restores the allocator to a previous mark, freeing everything
    /// allocated since (stack discipline).
    pub fn tcm_release(&mut self, mark: TcmMark) {
        self.tcm_top = mark.0;
    }

    /// Bytes of TCM currently allocated.
    pub fn tcm_used(&self) -> u32 {
        self.tcm_top
    }

    /// Simulation-side helper: reads TCM bytes without charging cost (used
    /// by tests and by host-side staging that is charged separately).
    /// Returns zeros in cost-only mode.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds TCM.
    #[inline]
    pub fn tcm_peek(&self, addr: TcmAddr, len: usize) -> &[u8] {
        let range = addr.0 as usize..addr.0 as usize + len;
        match self.mode {
            ExecMode::Functional => &self.tcm[range],
            ExecMode::CostOnly => {
                self.assert_tcm_range(range);
                &ZERO_TCM[..len]
            }
        }
    }

    /// Simulation-side helper: writes TCM bytes without charging cost.
    /// Stores nothing in cost-only mode.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds TCM.
    #[inline]
    pub fn tcm_poke(&mut self, addr: TcmAddr, bytes: &[u8]) {
        let range = addr.0 as usize..addr.0 as usize + bytes.len();
        match self.mode {
            ExecMode::Functional => self.tcm[range].copy_from_slice(bytes),
            ExecMode::CostOnly => self.assert_tcm_range(range),
        }
    }

    /// The bounds check a functional TCM slice makes, for cost-only
    /// accesses that have no bytes to slice.
    fn assert_tcm_range(&self, range: std::ops::Range<usize>) {
        assert!(
            range.end <= self.device.tcm_bytes as usize,
            "TCM range {range:?} outside {} bytes of TCM",
            self.device.tcm_bytes
        );
    }

    // ------------------------------------------------------------------
    // DDR heap and DMA.
    // ------------------------------------------------------------------

    /// Allocates a DDR buffer (zeroed when materialized). In
    /// [`ExecMode::CostOnly`] only the size is tracked.
    ///
    /// While [`NpuContext::set_ddr_staging`] is on, the buffer lands in the
    /// CPU-owned staging region instead of session VA: it consumes no
    /// session space (and cannot fail the VA envelope), but the NPU only
    /// sees its contents after an explicit streamed copy into a
    /// session-resident window.
    pub fn ddr_alloc(&mut self, bytes: u64) -> SimResult<DdrBuffer> {
        let materialize = self.mode == ExecMode::Functional;
        if self.ddr_staging {
            Ok(self.ddr.alloc_staged(bytes, materialize))
        } else {
            self.ddr.alloc(bytes, materialize)
        }
    }

    /// Allocates a DDR buffer initialized with `data` (functional mode) or
    /// of equal size (cost-only mode).
    pub fn ddr_alloc_from(&mut self, data: &[u8]) -> SimResult<DdrBuffer> {
        let buf = self.ddr_alloc(data.len() as u64)?;
        if self.mode == ExecMode::Functional {
            self.ddr.get_mut(buf).data.as_mut().unwrap()[..data.len()].copy_from_slice(data);
        }
        Ok(buf)
    }

    /// Frees a DDR buffer, returning its VA space to the session.
    pub fn ddr_free(&mut self, buf: DdrBuffer) {
        self.ddr.free(buf);
    }

    /// Routes subsequent [`NpuContext::ddr_alloc`] /
    /// [`NpuContext::ddr_alloc_from`] calls to the CPU-owned DDR staging
    /// region (`true`) or back to session VA (`false`). The weight loader
    /// flips this around cold-layer builds so streamed weights never count
    /// against the session envelope.
    pub fn set_ddr_staging(&mut self, staging: bool) {
        self.ddr_staging = staging;
    }

    /// Bytes currently mapped across all session VA spaces.
    pub fn ddr_mapped_bytes(&self) -> u64 {
        self.ddr.mapped_bytes
    }

    /// Bytes currently parked in the CPU-owned DDR staging region.
    pub fn ddr_staged_bytes(&self) -> u64 {
        self.ddr.staged_bytes
    }

    /// Number of NPU sessions currently open (1 unless the context was
    /// created with [`NpuContext::new_sharded`] and an allocation spilled
    /// past the first session's VA space).
    pub fn ddr_sessions(&self) -> usize {
        self.ddr.sessions()
    }

    /// Host-side write into DDR (no NPU cost; the host produced the data).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the buffer.
    pub fn ddr_write(&mut self, buf: DdrBuffer, offset: u64, bytes: &[u8]) {
        let state = self.ddr.get_mut(buf);
        assert!(offset + bytes.len() as u64 <= state.size, "ddr_write OOB");
        if let Some(data) = state.data.as_mut() {
            data[offset as usize..offset as usize + bytes.len()].copy_from_slice(bytes);
        }
    }

    /// Host-side read from DDR (no NPU cost). Returns zeros in cost-only
    /// mode.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the buffer.
    pub fn ddr_read(&self, buf: DdrBuffer, offset: u64, len: usize) -> Vec<u8> {
        let state = self.ddr.get(buf);
        assert!(offset + len as u64 <= state.size, "ddr_read OOB");
        match &state.data {
            Some(data) => data[offset as usize..offset as usize + len].to_vec(),
            None => vec![0u8; len],
        }
    }

    /// DMA transfer DDR -> TCM (1D). Charges the DMA engine. Stores
    /// nothing in cost-only mode, where DDR holds no bytes either.
    ///
    /// # Panics
    ///
    /// Panics if either range is out of bounds.
    pub fn dma_h2t(&mut self, src: DdrBuffer, src_off: u64, dst: TcmAddr, len: u32) {
        self.cost.charge_dma(len as u64);
        let state = self.ddr.get(src);
        assert!(src_off + len as u64 <= state.size, "dma_h2t source OOB");
        assert!(
            dst.0 + len <= self.device.tcm_bytes,
            "dma_h2t destination OOB"
        );
        if let Some(data) = &state.data {
            let src_slice = data[src_off as usize..(src_off + len as u64) as usize].to_vec();
            self.tcm[dst.0 as usize..(dst.0 + len) as usize].copy_from_slice(&src_slice);
        }
    }

    /// DMA transfer TCM -> DDR (1D). Charges the DMA engine. Reads no TCM
    /// bytes in cost-only mode, where DDR holds none to write.
    ///
    /// # Panics
    ///
    /// Panics if either range is out of bounds.
    pub fn dma_t2h(&mut self, src: TcmAddr, dst: DdrBuffer, dst_off: u64, len: u32) {
        self.cost.charge_dma(len as u64);
        assert!(src.0 + len <= self.device.tcm_bytes, "dma_t2h source OOB");
        let state = self.ddr.get_mut(dst);
        assert!(
            dst_off + len as u64 <= state.size,
            "dma_t2h destination OOB"
        );
        if let Some(data) = state.data.as_mut() {
            data[dst_off as usize..dst_off as usize + len as usize]
                .copy_from_slice(&self.tcm[src.0 as usize..(src.0 + len) as usize]);
        }
    }

    /// 2D DMA: `rows` rows of `row_bytes` each, with `src_stride` bytes
    /// between DDR row starts, packed densely into TCM. The DMA engine
    /// supports exactly this 1D/2D regular pattern (paper Section 3.1.2).
    pub fn dma_h2t_2d(
        &mut self,
        src: DdrBuffer,
        src_off: u64,
        src_stride: u64,
        dst: TcmAddr,
        row_bytes: u32,
        rows: u32,
    ) -> SimResult<()> {
        if rows == 0 || row_bytes == 0 {
            return Err(SimError::BadDma {
                reason: "zero-sized 2D transfer".to_string(),
            });
        }
        if src_stride < row_bytes as u64 {
            return Err(SimError::BadDma {
                reason: format!("stride {src_stride} < row width {row_bytes}"),
            });
        }
        for r in 0..rows {
            self.dma_h2t(
                src,
                src_off + r as u64 * src_stride,
                dst.offset(r * row_bytes),
                row_bytes,
            );
        }
        Ok(())
    }

    /// Issues an `l2fetch` prefetch hint for `len` DDR bytes. Charges the
    /// prefetch engine; subsequent core-path loads of the data are modelled
    /// as overlapping within the same phase.
    pub fn l2fetch(&mut self, len: u64) {
        self.cost.charge_l2fetch(len);
    }

    // ------------------------------------------------------------------
    // Vector memory operations.
    // ------------------------------------------------------------------

    /// Vector load of one 128-byte register from TCM (zeros in cost-only
    /// mode).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds TCM.
    pub fn vmem_ld_tcm(&mut self, addr: TcmAddr) -> HvxVec {
        self.cost.charge_tcm_bytes(HVX_BYTES as u64);
        HvxVec::from_bytes(self.tcm_peek(addr, HVX_BYTES))
    }

    /// Vector store of one 128-byte register to TCM (nothing is stored in
    /// cost-only mode).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds TCM.
    pub fn vmem_st_tcm(&mut self, addr: TcmAddr, v: &HvxVec) {
        self.cost.charge_tcm_bytes(HVX_BYTES as u64);
        let bytes = v.0;
        self.tcm_poke(addr, &bytes);
    }

    /// Vector load over the slow core path from DDR/L2 (Table 2: 26 GB/s on
    /// V75). Returns zeros in cost-only mode.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the buffer.
    pub fn vmem_ld_ddr(&mut self, buf: DdrBuffer, offset: u64) -> HvxVec {
        self.cost.charge_hvx_ddr_bytes(HVX_BYTES as u64);
        let bytes = self.ddr_read(buf, offset, HVX_BYTES);
        HvxVec::from_bytes(&bytes)
    }

    /// `vgather`: gathers 64 halfwords from TCM at `base + offset[i]` for
    /// the 64 halfword offsets in `offsets`. Offsets are byte offsets, max
    /// 65535 (the constraint that forces the paper's 64 KiB exp LUT).
    ///
    /// `pipelined` selects the lower-bound packet charge (multiple gathers
    /// in flight), versus the midpoint for a dependent standalone gather.
    /// Returns zeros in cost-only mode.
    ///
    /// # Panics
    ///
    /// Panics if any gathered element is outside TCM.
    pub fn vgather_h(&mut self, base: TcmAddr, offsets: &HvxVec, pipelined: bool) -> HvxVec {
        self.cost.charge_vgather(pipelined);
        let mut out = HvxVec::zero();
        if self.mode == ExecMode::CostOnly {
            self.assert_lanes_in_tcm(base, offsets, "vgather");
            return out;
        }
        for i in 0..HVX_HALVES {
            let off = offsets.get_h(i) as u32;
            let addr = base.0 + off;
            assert!(
                addr + 2 <= self.device.tcm_bytes,
                "vgather element outside TCM"
            );
            let lo = self.tcm[addr as usize];
            let hi = self.tcm[addr as usize + 1];
            out.set_h(i, u16::from_le_bytes([lo, hi]));
        }
        out
    }

    /// `vscatter`: scatters 64 halfword lanes of `v` to TCM at
    /// `base + offsets[i]`. Costs like a gather (same scatter/gather engine).
    /// Stores nothing in cost-only mode.
    ///
    /// # Panics
    ///
    /// Panics if any scattered element is outside TCM.
    pub fn vscatter_h(&mut self, base: TcmAddr, offsets: &HvxVec, v: &HvxVec, pipelined: bool) {
        self.cost.charge_vgather(pipelined);
        if self.mode == ExecMode::CostOnly {
            self.assert_lanes_in_tcm(base, offsets, "vscatter");
            return;
        }
        for i in 0..HVX_HALVES {
            let off = offsets.get_h(i) as u32;
            let addr = base.0 + off;
            assert!(
                addr + 2 <= self.device.tcm_bytes,
                "vscatter element outside TCM"
            );
            let bytes = v.get_h(i).to_le_bytes();
            self.tcm[addr as usize] = bytes[0];
            self.tcm[addr as usize + 1] = bytes[1];
        }
    }

    /// The per-lane bounds check of a functional gather or scatter, for
    /// cost-only accesses that touch no bytes.
    fn assert_lanes_in_tcm(&self, base: TcmAddr, offsets: &HvxVec, op: &str) {
        for i in 0..HVX_HALVES {
            let addr = base.0 + offsets.get_h(i) as u32;
            assert!(
                addr + 2 <= self.device.tcm_bytes,
                "{op} element outside TCM"
            );
        }
    }

    // ------------------------------------------------------------------
    // Vector compute operations (each charges 1 packet unless noted).
    // ------------------------------------------------------------------

    /// Evaluates a pure lane result `f` in functional mode. Cost-only mode
    /// never reads lane values, so it skips `f` and yields zero registers.
    fn lanes<T: Default>(&self, f: impl FnOnce() -> T) -> T {
        match self.mode {
            ExecMode::Functional => f(),
            ExecMode::CostOnly => T::default(),
        }
    }

    /// Broadcast an FP16 scalar to all 64 half-float lanes.
    pub fn vsplat_hf(&mut self, v: F16) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        HvxVec::splat_h(v.0)
    }

    /// Broadcast a byte to all 128 lanes.
    pub fn vsplat_b(&mut self, v: u8) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        HvxVec::splat_b(v)
    }

    /// Elementwise FP16 add. Pre-V79 the result is in qfloat format; call
    /// [`NpuContext::vconv_qf16`] before storing or bit-reinterpreting.
    pub fn vadd_hf(&mut self, a: &HvxVec, b: &HvxVec) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::map2_hf(a, b, |x, y| x.add(y)))
    }

    /// Elementwise FP16 subtract (qfloat result pre-V79).
    pub fn vsub_hf(&mut self, a: &HvxVec, b: &HvxVec) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::map2_hf(a, b, |x, y| x.sub(y)))
    }

    /// Elementwise FP16 multiply (qfloat result pre-V79).
    pub fn vmpy_hf(&mut self, a: &HvxVec, b: &HvxVec) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::map2_hf(a, b, |x, y| x.mul(y)))
    }

    /// Elementwise FP16 max (IEEE semantics, NaN loses).
    pub fn vmax_hf(&mut self, a: &HvxVec, b: &HvxVec) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::map2_hf(a, b, |x, y| x.max(y)))
    }

    /// Elementwise FP16 min.
    pub fn vmin_hf(&mut self, a: &HvxVec, b: &HvxVec) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::map2_hf(a, b, |x, y| x.min(y)))
    }

    /// Converts a qfloat-format register to IEEE FP16. Charges the
    /// conversion instruction on pre-V79 devices and nothing on V79+
    /// (paper Section 5.2.2: the LUT path exists to avoid these).
    pub fn vconv_qf16(&mut self, v: HvxVec) -> HvxVec {
        let ops = self.device.qf16_convert_ops();
        if ops > 0 {
            self.cost.charge_hvx_packets(ops);
        }
        v
    }

    /// Elementwise FP32 add over 32 word lanes.
    pub fn vadd_sf(&mut self, a: &HvxVec, b: &HvxVec) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::map2_sf(a, b, |x, y| x + y))
    }

    /// Elementwise FP32 multiply over 32 word lanes.
    pub fn vmpy_sf(&mut self, a: &HvxVec, b: &HvxVec) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::map2_sf(a, b, |x, y| x * y))
    }

    /// Widens 64 FP16 lanes to an FP32 register pair.
    pub fn vcvt_hf_sf(&mut self, v: &HvxVec) -> (HvxVec, HvxVec) {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::vcvt_hf_sf(v))
    }

    /// Narrows an FP32 register pair to 64 FP16 lanes (RTNE).
    pub fn vcvt_sf_hf(&mut self, lo: &HvxVec, hi: &HvxVec) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::vcvt_sf_hf(lo, hi))
    }

    /// Converts signed 16-bit integer lanes to FP16 (qfloat pre-V79).
    pub fn vcvt_h_hf(&mut self, v: &HvxVec) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::vcvt_h_hf(v))
    }

    /// Sign-extends byte lanes to halfword lanes (register pair).
    pub fn vunpack_b_h(&mut self, v: &HvxVec) -> (HvxVec, HvxVec) {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::vunpack_b_h(v))
    }

    /// Zero-extends byte lanes to halfword lanes (register pair).
    pub fn vunpack_ub_h(&mut self, v: &HvxVec) -> (HvxVec, HvxVec) {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::vunpack_ub_h(v))
    }

    /// Bitwise AND of byte lanes.
    pub fn vand_b(&mut self, a: &HvxVec, b: &HvxVec) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::map2_b(a, b, |x, y| x & y))
    }

    /// Bitwise OR of byte lanes.
    pub fn vor_b(&mut self, a: &HvxVec, b: &HvxVec) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::map2_b(a, b, |x, y| x | y))
    }

    /// Byte-lane subtract with wrapping (used for the INT4 bias of 8).
    pub fn vsub_b(&mut self, a: &HvxVec, b: &HvxVec) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::map2_b(a, b, |x, y| x.wrapping_sub(y)))
    }

    /// Logical shift right of byte lanes.
    pub fn vshr_b(&mut self, v: &HvxVec, n: u32) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::vshr_b(v, n))
    }

    /// Logical shift right of halfword lanes.
    pub fn vshr_h(&mut self, v: &HvxVec, n: u32) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::vshr_h(v, n))
    }

    /// Logical shift left of halfword lanes.
    pub fn vshl_h(&mut self, v: &HvxVec, n: u32) -> HvxVec {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::vshl_h(v, n))
    }

    /// Interleaves halfword lanes of two registers (cross-lane shuffle used
    /// for the HMX two-row layout, paper Figure 4a).
    pub fn vshuff_h(&mut self, a: &HvxVec, b: &HvxVec) -> (HvxVec, HvxVec) {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::vshuff_h(a, b))
    }

    /// Deinterleaves halfword lanes (inverse of [`NpuContext::vshuff_h`]).
    pub fn vdeal_h(&mut self, lo: &HvxVec, hi: &HvxVec) -> (HvxVec, HvxVec) {
        self.cost.charge_hvx_packets(1);
        self.lanes(|| hvx::vdeal_h(lo, hi))
    }

    /// `vlut16` with an FP16 table: 128 byte indices -> 128 FP16 lanes as a
    /// register pair. One instruction (paper Figure 9) and the results are
    /// IEEE FP16 directly — no qfloat conversion needed.
    pub fn vlut16_hf(&mut self, idx: &HvxVec, table: &[F16; 16]) -> (HvxVec, HvxVec) {
        self.cost.charge_vlut16();
        self.lanes(|| {
            let raw: [u16; 16] = std::array::from_fn(|i| table[i].0);
            hvx::vlut16(idx, &raw)
        })
    }

    /// Charges explicit pipeline-stall cycles (used to model the sequential
    /// dependency chains of polynomial evaluation under VLIW, Section 5.2.1).
    pub fn stall(&mut self, cycles: u64) {
        self.cost.charge_hvx_packets(cycles);
    }

    // ------------------------------------------------------------------
    // HMX operations.
    // ------------------------------------------------------------------

    /// HMX tile multiply-accumulate: reads a 32x32 FP16 activation tile and
    /// weight tile (both in interleaved layout, both in TCM) and accumulates
    /// `act x wgt` into `acc`. Charges one tile-op. In cost-only mode both
    /// tiles read as zero, so `acc` is left as it is.
    ///
    /// # Panics
    ///
    /// Panics if a tile range exceeds TCM or is not 2-byte aligned.
    pub fn hmx_matmul(&mut self, acc: &mut HmxAccumulator, act: TcmAddr, wgt: TcmAddr) {
        self.cost.charge_hmx_tile_ops(1);
        assert!(
            act.0.is_multiple_of(2) && wgt.0.is_multiple_of(2),
            "tiles must be aligned"
        );
        let act_bytes = self.tcm_peek(act, TILE_BYTES);
        let wgt_bytes = self.tcm_peek(wgt, TILE_BYTES);
        if self.mode == ExecMode::Functional {
            acc.mac(&hmx::unpack_tile(act_bytes), &hmx::unpack_tile(wgt_bytes));
        }
    }

    /// Shape-level HMX charge: `n` tile-ops without data movement. Used by
    /// kernels inside [`NpuContext::replay`] blocks where the MAC work is
    /// proportional to a dimension that the block does not iterate.
    pub fn hmx_charge(&mut self, tile_ops: u64) {
        self.cost.charge_hmx_tile_ops(tile_ops);
    }

    /// Writes the accumulator to TCM as an interleaved FP16 tile, applying
    /// optional per-column scale/bias (HMX writeback path). Cost-only mode
    /// builds no tile and stores nothing.
    ///
    /// # Panics
    ///
    /// Panics if the output range exceeds TCM.
    pub fn hmx_store_acc(
        &mut self,
        acc: &HmxAccumulator,
        out: TcmAddr,
        scale: Option<&[f32; TILE_DIM]>,
        bias: Option<&[f32; TILE_DIM]>,
    ) {
        // Writeback is part of the tile-op pipeline; charge token cost.
        self.cost.charge_hmx_tile_ops(0);
        match self.mode {
            ExecMode::Functional => {
                let tile = acc.to_tile(scale, bias);
                let bytes = hmx::pack_tile(&tile);
                self.tcm_poke(out, &bytes);
            }
            ExecMode::CostOnly => {
                let start = out.0 as usize;
                self.assert_tcm_range(start..start + TILE_BYTES);
            }
        }
    }

    // ------------------------------------------------------------------
    // Phases and replay.
    // ------------------------------------------------------------------

    /// Runs `f` inside a named cost phase and returns the phase breakdown.
    pub fn phase<R>(&mut self, label: &str, f: impl FnOnce(&mut Self) -> R) -> (R, PhaseCost) {
        self.cost.begin_phase(label);
        let r = f(self);
        let p = self.cost.end_phase();
        (r, p)
    }

    /// Executes `f` once and scales its cost by `times` in cost-only mode,
    /// or executes it `times` times in functional mode.
    ///
    /// The closure must be cost-deterministic (identical charges on every
    /// invocation) — true for the data-independent kernels in this project.
    /// In cost-only mode the block computes no lane values (registers read
    /// as zero), so its control flow and charges must not depend on lane
    /// values either.
    pub fn replay(&mut self, times: u64, mut f: impl FnMut(&mut Self)) {
        self.replay_indexed(times, |ctx, _| f(ctx));
    }

    /// Like [`NpuContext::replay`] but passes the block index to the
    /// closure. Functional mode iterates `0..times`; cost-only mode executes
    /// block 0 once and multiplies the cost delta.
    pub fn replay_indexed(&mut self, times: u64, mut f: impl FnMut(&mut Self, u64)) {
        if times == 0 {
            return;
        }
        match self.mode {
            ExecMode::Functional => {
                for i in 0..times {
                    f(self, i);
                }
            }
            ExecMode::CostOnly => {
                let snap = self.cost.snapshot();
                f(self, 0);
                self.cost.scale_since(&snap, times);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Engine;

    fn ctx() -> NpuContext {
        NpuContext::new(DeviceProfile::v75(), ExecMode::Functional)
    }

    #[test]
    fn tcm_alloc_alignment_and_exhaustion() {
        let mut c = ctx();
        let a = c.tcm_alloc(100, 1).unwrap();
        assert_eq!(a, TcmAddr(0));
        let b = c.tcm_alloc(64, 128).unwrap();
        assert_eq!(b.0 % 128, 0);
        let err = c.tcm_alloc(9 * 1024 * 1024, 1).unwrap_err();
        assert!(matches!(err, SimError::TcmExhausted { .. }));
    }

    #[test]
    fn tcm_mark_release() {
        let mut c = ctx();
        let _keep = c.tcm_alloc(256, 1).unwrap();
        let mark = c.tcm_mark();
        c.tcm_alloc(1024, 1).unwrap();
        assert_eq!(c.tcm_used(), 256 + 1024);
        c.tcm_release(mark);
        assert_eq!(c.tcm_used(), 256);
    }

    #[test]
    fn dma_moves_bytes_and_charges() {
        let mut c = ctx();
        let buf = c.ddr_alloc_from(&[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let t = c.tcm_alloc(8, 8).unwrap();
        c.dma_h2t(buf, 0, t, 8);
        assert_eq!(c.tcm_peek(t, 8), &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(c.cost.counters().dma_bytes, 8);
        // Round trip back to DDR.
        let out = c.ddr_alloc(8).unwrap();
        c.dma_t2h(t, out, 0, 8);
        assert_eq!(c.ddr_read(out, 0, 8), vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn dma_2d_packs_rows() {
        let mut c = ctx();
        // DDR layout: two rows of 4 bytes at stride 8.
        let mut src = vec![0u8; 16];
        src[0..4].copy_from_slice(&[1, 2, 3, 4]);
        src[8..12].copy_from_slice(&[5, 6, 7, 8]);
        let buf = c.ddr_alloc_from(&src).unwrap();
        let t = c.tcm_alloc(8, 8).unwrap();
        c.dma_h2t_2d(buf, 0, 8, t, 4, 2).unwrap();
        assert_eq!(c.tcm_peek(t, 8), &[1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn dma_2d_rejects_bad_stride() {
        let mut c = ctx();
        let buf = c.ddr_alloc(64).unwrap();
        let t = c.tcm_alloc(64, 8).unwrap();
        let err = c.dma_h2t_2d(buf, 0, 2, t, 4, 2).unwrap_err();
        assert!(matches!(err, SimError::BadDma { .. }));
    }

    #[test]
    fn vector_tcm_roundtrip() {
        let mut c = ctx();
        let t = c.tcm_alloc(128, 128).unwrap();
        let v = HvxVec::splat_h(0xABCD);
        c.vmem_st_tcm(t, &v);
        let back = c.vmem_ld_tcm(t);
        assert_eq!(v, back);
        assert_eq!(c.cost.counters().tcm_bytes, 256);
    }

    #[test]
    fn vgather_collects_offsets() {
        let mut c = ctx();
        let t = c.tcm_alloc(1024, 128).unwrap();
        for i in 0..512u32 {
            let val = (i as u16).to_le_bytes();
            c.tcm_poke(t.offset(i * 2), &val);
        }
        let mut offs = HvxVec::zero();
        for i in 0..HVX_HALVES {
            offs.set_h(i, (i as u16) * 4); // Every other halfword.
        }
        let v = c.vgather_h(t, &offs, true);
        for i in 0..HVX_HALVES {
            assert_eq!(v.get_h(i), (i as u16) * 2);
        }
        assert_eq!(c.cost.counters().vgathers, 1);
    }

    #[test]
    fn vscatter_then_gather_roundtrip() {
        let mut c = ctx();
        let t = c.tcm_alloc(4096, 128).unwrap();
        let mut offs = HvxVec::zero();
        for i in 0..HVX_HALVES {
            offs.set_h(i, (i as u16) * 64);
        }
        let mut vals = HvxVec::zero();
        for i in 0..HVX_HALVES {
            vals.set_h(i, 0x100 + i as u16);
        }
        c.vscatter_h(t, &offs, &vals, false);
        let back = c.vgather_h(t, &offs, false);
        assert_eq!(vals, back);
    }

    #[test]
    fn hmx_matmul_identity() {
        let mut c = ctx();
        let act = c.tcm_alloc(TILE_BYTES as u32, 2048).unwrap();
        let wgt = c.tcm_alloc(TILE_BYTES as u32, 2048).unwrap();
        let out = c.tcm_alloc(TILE_BYTES as u32, 2048).unwrap();
        // Activation: arbitrary; weight: identity.
        let mut a = [[F16::ZERO; TILE_DIM]; TILE_DIM];
        let mut w = [[F16::ZERO; TILE_DIM]; TILE_DIM];
        for (i, row) in a.iter_mut().enumerate() {
            w[i][i] = F16::ONE;
            for (j, v) in row.iter_mut().enumerate() {
                *v = F16::from_f32(((i * 31 + j * 17) % 11) as f32 - 5.0);
            }
        }
        let ab = hmx::pack_tile(&a);
        let wb = hmx::pack_tile(&w);
        c.tcm_poke(act, &ab);
        c.tcm_poke(wgt, &wb);
        let mut acc = HmxAccumulator::new();
        c.hmx_matmul(&mut acc, act, wgt);
        c.hmx_store_acc(&acc, out, None, None);
        let result = hmx::unpack_tile(c.tcm_peek(out, TILE_BYTES));
        for i in 0..TILE_DIM {
            for j in 0..TILE_DIM {
                assert_eq!(result[i][j], a[i][j], "({i},{j})");
            }
        }
        assert_eq!(c.cost.counters().hmx_tile_ops, 1);
    }

    #[test]
    fn replay_scales_cost_only() {
        let mut c = NpuContext::new(DeviceProfile::v75(), ExecMode::CostOnly);
        c.replay(10, |c| {
            c.cost.charge_hvx_packets(5);
        });
        assert_eq!(c.cost.counters().hvx_instructions, 50);

        let mut f = ctx();
        let mut runs = 0;
        f.replay(10, |c| {
            runs += 1;
            c.cost.charge_hvx_packets(5);
        });
        assert_eq!(runs, 10);
        assert_eq!(f.cost.counters().hvx_instructions, 50);
    }

    #[test]
    fn cost_only_ddr_is_shape_only() {
        let mut c = NpuContext::new(DeviceProfile::v75(), ExecMode::CostOnly);
        // 3 GiB fits in the V75 session VA without materializing memory.
        let buf = c.ddr_alloc(3 * 1024 * 1024 * 1024).unwrap();
        assert_eq!(c.ddr_read(buf, 0, 4), vec![0, 0, 0, 0]);
        let t = c.tcm_alloc(128, 128).unwrap();
        c.dma_h2t(buf, 1 << 30, t, 128);
        assert_eq!(c.cost.counters().dma_bytes, 128);
    }

    #[test]
    fn va_limit_blocks_large_models_on_v73() {
        let mut c = NpuContext::new(DeviceProfile::v73(), ExecMode::CostOnly);
        // A 3B-parameter Q4 model is ~1.7 GiB of weights plus KV; two of
        // these mappings exceed the 2 GiB session space.
        c.ddr_alloc(1_700_000_000).unwrap();
        let err = c.ddr_alloc(1_000_000_000).unwrap_err();
        assert!(matches!(err, SimError::VaSpaceExceeded { .. }));
    }

    #[test]
    fn sharded_context_spills_into_a_second_session() {
        // The same pair of mappings that overflows one V73 session maps
        // fine on a two-session context (paper Section 8).
        let mut c = NpuContext::new_sharded(DeviceProfile::v73(), ExecMode::CostOnly, 2);
        c.ddr_alloc(1_700_000_000).unwrap();
        assert_eq!(c.ddr_sessions(), 1);
        c.ddr_alloc(1_000_000_000).unwrap();
        assert_eq!(c.ddr_sessions(), 2);
        // The cap still holds: a third large mapping has nowhere to go.
        let err = c.ddr_alloc(1_500_000_000).unwrap_err();
        assert!(matches!(err, SimError::VaSpaceExceeded { .. }));
    }

    #[test]
    fn staging_toggle_routes_allocations_outside_session_va() {
        let mut c = NpuContext::new(DeviceProfile::v73(), ExecMode::CostOnly);
        c.ddr_alloc(1_700_000_000).unwrap();
        // The same second mapping that overflows the session above maps
        // fine as staging, and the functional data path still works.
        c.set_ddr_staging(true);
        let staged = c.ddr_alloc(1_000_000_000).unwrap();
        c.set_ddr_staging(false);
        assert_eq!(c.ddr_staged_bytes(), 1_000_000_000);
        assert_eq!(c.ddr_mapped_bytes(), 1_700_000_000);
        c.ddr_free(staged);
        assert_eq!(c.ddr_staged_bytes(), 0);

        let mut f = ctx();
        f.set_ddr_staging(true);
        let buf = f.ddr_alloc_from(&[9, 8, 7, 6]).unwrap();
        f.set_ddr_staging(false);
        assert_eq!(f.ddr_read(buf, 0, 4), vec![9, 8, 7, 6]);
        assert_eq!(f.ddr_mapped_bytes(), 0);
    }

    #[test]
    fn qf16_conversion_free_on_v79() {
        let mut c75 = ctx();
        let v = HvxVec::splat_h(0x3c00);
        let _ = c75.vconv_qf16(v);
        assert_eq!(c75.cost.counters().hvx_instructions, 1);

        let mut c79 = NpuContext::new(DeviceProfile::v79(), ExecMode::Functional);
        let _ = c79.vconv_qf16(v);
        assert_eq!(c79.cost.counters().hvx_instructions, 0);
    }

    /// One pure lane wrapper applied to operands `(a, b, idx)`, returning
    /// every result register.
    type LaneOp = fn(&mut NpuContext, &HvxVec, &HvxVec, &HvxVec) -> Vec<HvxVec>;

    fn lane_ops() -> Vec<(&'static str, LaneOp)> {
        vec![
            ("vadd_hf", |c, a, b, _| vec![c.vadd_hf(a, b)]),
            ("vsub_hf", |c, a, b, _| vec![c.vsub_hf(a, b)]),
            ("vmpy_hf", |c, a, b, _| vec![c.vmpy_hf(a, b)]),
            ("vmax_hf", |c, a, b, _| vec![c.vmax_hf(a, b)]),
            ("vmin_hf", |c, a, b, _| vec![c.vmin_hf(a, b)]),
            ("vadd_sf", |c, a, b, _| vec![c.vadd_sf(a, b)]),
            ("vmpy_sf", |c, a, b, _| vec![c.vmpy_sf(a, b)]),
            ("vcvt_hf_sf", |c, a, _, _| {
                let (lo, hi) = c.vcvt_hf_sf(a);
                vec![lo, hi]
            }),
            ("vcvt_sf_hf", |c, a, b, _| vec![c.vcvt_sf_hf(a, b)]),
            ("vcvt_h_hf", |c, _, _, i| vec![c.vcvt_h_hf(i)]),
            ("vunpack_b_h", |c, _, _, i| {
                let (lo, hi) = c.vunpack_b_h(i);
                vec![lo, hi]
            }),
            ("vunpack_ub_h", |c, _, _, i| {
                let (lo, hi) = c.vunpack_ub_h(i);
                vec![lo, hi]
            }),
            ("vand_b", |c, a, b, _| vec![c.vand_b(a, b)]),
            ("vor_b", |c, a, b, _| vec![c.vor_b(a, b)]),
            ("vsub_b", |c, a, b, _| vec![c.vsub_b(a, b)]),
            ("vshr_b", |c, a, _, _| vec![c.vshr_b(a, 3)]),
            ("vshr_h", |c, a, _, _| vec![c.vshr_h(a, 5)]),
            ("vshl_h", |c, a, _, _| vec![c.vshl_h(a, 2)]),
            ("vshuff_h", |c, a, b, _| {
                let (lo, hi) = c.vshuff_h(a, b);
                vec![lo, hi]
            }),
            ("vdeal_h", |c, a, b, _| {
                let (lo, hi) = c.vdeal_h(a, b);
                vec![lo, hi]
            }),
            ("vlut16_hf", |c, _, _, i| {
                let table: [F16; 16] = std::array::from_fn(|k| F16::from_f32(k as f32 - 7.5));
                let (lo, hi) = c.vlut16_hf(i, &table);
                vec![lo, hi]
            }),
        ]
    }

    #[test]
    fn cost_only_lane_ops_charge_like_functional_and_compute_nothing() {
        let ops = lane_ops();
        assert_eq!(ops.len(), 21);
        let a = HvxVec::from_hf_slice(
            &(0..HVX_HALVES)
                .map(|i| F16::from_f32(i as f32 * 0.25 - 5.0))
                .collect::<Vec<_>>(),
        );
        let b = HvxVec::from_hf_slice(
            &(0..HVX_HALVES)
                .map(|i| F16::from_f32(3.0 - i as f32 * 0.125))
                .collect::<Vec<_>>(),
        );
        let idx = HvxVec::from_bytes(&(0..HVX_BYTES as u8).collect::<Vec<_>>());
        for device in [DeviceProfile::v75(), DeviceProfile::v79()] {
            for (name, op) in &ops {
                let mut f = NpuContext::new(device.clone(), ExecMode::Functional);
                let mut c = NpuContext::new(device.clone(), ExecMode::CostOnly);
                let functional = op(&mut f, &a, &b, &idx);
                let cost_only = op(&mut c, &a, &b, &idx);
                assert_eq!(c.cost.counters(), f.cost.counters(), "{name}");
                for e in Engine::ALL {
                    assert_eq!(c.cost.engine_secs(e), f.cost.engine_secs(e), "{name} {e:?}");
                }
                assert!(c.cost.counters().hvx_instructions > 0, "{name} charges");
                assert_eq!(cost_only.len(), functional.len(), "{name}");
                assert!(
                    cost_only.iter().all(|v| *v == HvxVec::zero()),
                    "{name}: cost-only registers must read as zero"
                );
                assert!(
                    functional.iter().any(|v| *v != HvxVec::zero()),
                    "{name}: functional mode computes lanes"
                );
            }
        }
    }

    /// One TCM data path: `span` bytes of TCM from `addr` on are touched.
    /// Read paths return the bytes they read; write paths store a non-zero
    /// pattern and return nothing.
    struct TcmPath {
        name: &'static str,
        span: u32,
        op: fn(&mut NpuContext, TcmAddr) -> Vec<u8>,
    }

    /// Non-zero bytes `1, 2, ...` (wrapping past 255 to 1).
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 255) as u8 + 1).collect()
    }

    /// Offsets of every other halfword: lanes span 254 bytes of TCM.
    fn strided_offsets() -> HvxVec {
        let mut offs = HvxVec::zero();
        for i in 0..HVX_HALVES {
            offs.set_h(i, (i as u16) * 4);
        }
        offs
    }

    fn pattern_tile() -> [[F16; TILE_DIM]; TILE_DIM] {
        std::array::from_fn(|i| std::array::from_fn(|j| F16::from_f32((i + 2 * j) as f32 / 64.0)))
    }

    fn tcm_paths() -> Vec<TcmPath> {
        vec![
            TcmPath {
                name: "tcm_peek",
                span: 256,
                op: |c, a| c.tcm_peek(a, 256).to_vec(),
            },
            TcmPath {
                name: "tcm_poke",
                span: 256,
                op: |c, a| {
                    c.tcm_poke(a, &pattern(256));
                    Vec::new()
                },
            },
            TcmPath {
                name: "dma_h2t",
                span: 256,
                op: |c, a| {
                    let buf = c.ddr_alloc_from(&pattern(256)).unwrap();
                    c.dma_h2t(buf, 0, a, 256);
                    Vec::new()
                },
            },
            TcmPath {
                name: "dma_t2h",
                span: 256,
                op: |c, a| {
                    let buf = c.ddr_alloc(256).unwrap();
                    c.dma_t2h(a, buf, 0, 256);
                    c.ddr_read(buf, 0, 256)
                },
            },
            TcmPath {
                name: "vmem_ld_tcm",
                span: HVX_BYTES as u32,
                op: |c, a| c.vmem_ld_tcm(a).0.to_vec(),
            },
            TcmPath {
                name: "vmem_st_tcm",
                span: HVX_BYTES as u32,
                op: |c, a| {
                    c.vmem_st_tcm(a, &HvxVec::from_bytes(&pattern(HVX_BYTES)));
                    Vec::new()
                },
            },
            TcmPath {
                name: "vgather_h",
                span: 254,
                op: |c, a| c.vgather_h(a, &strided_offsets(), true).0.to_vec(),
            },
            TcmPath {
                name: "vscatter_h",
                span: 254,
                op: |c, a| {
                    let v = HvxVec::from_bytes(&pattern(HVX_BYTES));
                    c.vscatter_h(a, &strided_offsets(), &v, false);
                    Vec::new()
                },
            },
            TcmPath {
                name: "hmx_matmul",
                span: TILE_BYTES as u32,
                op: |c, a| {
                    let mut acc = HmxAccumulator::new();
                    c.hmx_matmul(&mut acc, a, a);
                    hmx::pack_tile(&acc.to_tile(None, None)).to_vec()
                },
            },
            TcmPath {
                name: "hmx_store_acc",
                span: TILE_BYTES as u32,
                op: |c, a| {
                    let mut acc = HmxAccumulator::new();
                    acc.mac(&pattern_tile(), &pattern_tile());
                    c.hmx_store_acc(&acc, a, None, None);
                    Vec::new()
                },
            },
        ]
    }

    #[test]
    fn cost_only_tcm_holds_no_bytes_and_checks_bounds_like_functional() {
        let device = DeviceProfile::v75();
        let end = device.tcm_bytes;
        let functional = NpuContext::new(device.clone(), ExecMode::Functional);
        assert_eq!(functional.tcm.len(), end as usize);
        let cost_only = NpuContext::new(device.clone(), ExecMode::CostOnly);
        assert_eq!(cost_only.tcm.capacity(), 0, "cost-only TCM has no backing");
        assert!(cost_only
            .tcm_peek(TcmAddr(0), end as usize)
            .iter()
            .all(|&b| b == 0));

        for path in tcm_paths() {
            let name = path.name;
            let span = path.span as usize;
            let [(f, f_seen), (c, c_seen)] =
                [ExecMode::Functional, ExecMode::CostOnly].map(|mode| {
                    let mut ctx = NpuContext::new(device.clone(), mode);
                    let t = ctx.tcm_alloc(4 * TILE_BYTES as u32, 2048).unwrap();
                    // Write first, then run the path, then read its span back:
                    // a read path sees the pattern, a write path overwrites it.
                    ctx.tcm_poke(t, &pattern(span));
                    let mut seen = (path.op)(&mut ctx, t);
                    seen.extend_from_slice(ctx.tcm_peek(t, span));
                    (ctx, seen)
                });
            assert_eq!(c.cost.counters(), f.cost.counters(), "{name}");
            for e in Engine::ALL {
                assert_eq!(c.cost.engine_secs(e), f.cost.engine_secs(e), "{name} {e:?}");
            }
            assert_eq!(c_seen.len(), f_seen.len(), "{name}");
            assert!(
                f_seen.iter().any(|&b| b != 0),
                "{name}: functional moves bytes"
            );
            assert!(
                c_seen.iter().all(|&b| b == 0),
                "{name}: cost-only reads zeros"
            );

            // The last in-bounds start succeeds and the next even one panics,
            // in both modes.
            for mode in [ExecMode::Functional, ExecMode::CostOnly] {
                let mut ctx = NpuContext::new(device.clone(), mode);
                let run = |ctx: &mut NpuContext, addr: u32| {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        (path.op)(ctx, TcmAddr(addr));
                    }))
                };
                let last = end - path.span;
                assert!(run(&mut ctx, last).is_ok(), "{name} {mode:?}: last start");
                assert!(
                    run(&mut ctx, last + 2).is_err(),
                    "{name} {mode:?}: past TCM"
                );
            }
        }
    }

    #[test]
    fn phase_helper_records_breakdown() {
        let mut c = ctx();
        let (_, p) = c.phase("load", |c| {
            c.cost.charge_dma(60_000); // 1 us at 60 GB/s.
        });
        assert_eq!(p.label, "load");
        assert!((p.engine(Engine::Dma) - 1e-6).abs() < 1e-12);
        assert_eq!(c.cost.phases().len(), 1);
    }
}
