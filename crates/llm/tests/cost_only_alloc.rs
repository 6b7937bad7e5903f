//! Cost-only forward passes hold O(1) host memory.
//!
//! `ExecMode::CostOnly` prices a step from shapes alone, so nothing it
//! allocates may grow with the number of rows: no activation buffers, no
//! per-m-tile HMX accumulators, no per-row softmax state, no per-kernel
//! dummy rows. A counting global allocator measures the host bytes of one
//! cost-only Qwen-1.5B forward at a small and a large row count and
//! requires the same peak live bytes and the same total allocated bytes.

// The counting allocator wraps `System` through the `GlobalAlloc` trait,
// whose methods are `unsafe fn`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use edgellm::{KvCache, Model, ModelId};
use hexsim::prelude::*;
use htpops::gemm::DequantVariant;

/// Counts this thread's heap traffic (tests run on parallel threads, so
/// the counters are per thread).
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
    static TOTAL: Cell<usize> = const { Cell::new(0) };
}

fn on_alloc(size: usize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + size as isize);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
    let _ = TOTAL.try_with(|total| total.set(total.get() + size));
}

fn on_dealloc(size: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get() - size as isize));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_dealloc(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_dealloc(layout.size());
        on_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Host heap use of one measured call, on the calling thread.
#[derive(Debug)]
struct Usage {
    /// Highest live bytes above the level at entry.
    peak: isize,
    /// Bytes allocated in total (reallocations count their new size).
    total: usize,
}

fn measure<R>(f: impl FnOnce() -> R) -> (R, Usage) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let total0 = TOTAL.with(Cell::get);
    let r = f();
    let usage = Usage {
        peak: PEAK.with(Cell::get) - base,
        total: TOTAL.with(Cell::get) - total0,
    };
    (r, usage)
}

/// Slack for what a forward legitimately keeps per row: `decode_step`
/// builds three small index vectors (slots, a sorted copy for the
/// uniqueness check, positions), 8 bytes per row each.
const SLACK_BYTES: usize = 1024;

fn assert_flat(label: &str, small: &Usage, large: &Usage) {
    let peak_gap = large.peak.abs_diff(small.peak);
    let total_gap = large.total.abs_diff(small.total);
    assert!(
        peak_gap <= SLACK_BYTES && total_gap <= SLACK_BYTES,
        "{label}: cost-only host memory grows with rows: {small:?} -> {large:?}"
    );
}

fn cost_only_qwen() -> (NpuContext, Model) {
    let mut ctx = NpuContext::new(DeviceProfile::v75(), ExecMode::CostOnly);
    let model = Model::new(&mut ctx, ModelId::Qwen1_5B, DequantVariant::CoalescedLut, 1).unwrap();
    (ctx, model)
}

#[test]
fn cost_only_prefill_memory_does_not_grow_with_prompt_length() {
    let (mut ctx, model) = cost_only_qwen();
    let mut prefill = |tokens: usize| {
        let mut cache = KvCache::new(&mut ctx, &model.cfg, 1, 4096).unwrap();
        let prompt = vec![0u32; tokens];
        let (out, usage) = measure(|| model.prefill(&mut ctx, &mut cache, 0, &prompt).unwrap());
        cache.free(&mut ctx);
        assert!(out.logits.is_empty() && out.cost.wall_secs() > 0.0);
        usage
    };
    // The first forward grows the model's command-ring completion list and
    // the context's recorded-phase list once; measure from the second on.
    prefill(32);
    let short = prefill(32);
    let long = prefill(2048);
    assert_flat("prefill 32 -> 2048 tokens", &short, &long);
}

#[test]
fn cost_only_decode_memory_does_not_grow_with_batch() {
    let (mut ctx, model) = cost_only_qwen();
    let mut decode = |batch: usize| {
        let mut cache = KvCache::new(&mut ctx, &model.cfg, batch, batch * 512).unwrap();
        for seq in 0..batch {
            cache.fast_fill(seq, 256);
        }
        let tokens = vec![0u32; batch];
        let (out, usage) = measure(|| model.decode_step(&mut ctx, &mut cache, &tokens).unwrap());
        cache.free(&mut ctx);
        assert!(out.logits.is_empty() && out.cost.wall_secs() > 0.0);
        usage
    };
    decode(1);
    let b1 = decode(1);
    let b16 = decode(16);
    assert_flat("decode b1 -> b16", &b1, &b16);
}
