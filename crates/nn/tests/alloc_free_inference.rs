//! Counting-allocator proof of the zero-allocation steady state: after a
//! warm-up pass, repeated `SavedModel::infer_with` calls through one
//! `InferWorkspace` perform **no** heap allocation in the activation path.
//!
//! The counter is a `#[global_allocator]` that tallies allocations *on the
//! calling thread only* (const-initialized thread-locals, so the bookkeeping
//! itself never allocates), which makes the counts immune to the test
//! harness's other threads.

use hpacml_nn::spec::{Activation, LayerSpec, ModelSpec};
use hpacml_nn::{ForwardWorkspace, InferWorkspace};
use hpacml_tensor::Tensor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static TL_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static TL_TRACKING: Cell<bool> = const { Cell::new(false) };
}

fn count_if_tracking() {
    // `try_with` so allocations during thread teardown (TLS destructors)
    // never panic inside the allocator.
    let _ = TL_TRACKING.try_with(|t| {
        if t.get() {
            let _ = TL_ALLOCS.try_with(|c| c.set(c.get() + 1));
        }
    });
}

// SAFETY: a pass-through `GlobalAlloc`: every method delegates to `System`
// under the caller's own contract, and the thread-local counting on the side
// never allocates (const-initialized cells) and never touches the layout.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same layout contract as `System.alloc`, to which this delegates.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_tracking();
        // SAFETY: `layout` is forwarded unchanged from our caller.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same ptr/layout contract as `System.dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` via the method above.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same contract as `System.realloc`, to which this delegates.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_tracking();
        // SAFETY: `ptr`/`layout`/`new_size` are forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Count heap allocations performed by the current thread while running `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = TL_ALLOCS.with(|c| c.get());
    TL_TRACKING.with(|t| t.set(true));
    f();
    TL_TRACKING.with(|t| t.set(false));
    let after = TL_ALLOCS.with(|c| c.get());
    after - before
}

const ITERS: u64 = 1000;

#[test]
fn mlp_inference_steady_state_is_allocation_free() {
    // Small model so the matmuls stay on the inline (non-pool) path.
    let spec = ModelSpec::mlp(4, &[16, 8], 2, Activation::Tanh, 0.1);
    let model = spec.build(3).unwrap();
    let saved = hpacml_nn::SavedModel {
        spec,
        model,
        in_norm: None,
        out_norm: None,
        precision: hpacml_tensor::Precision::F32,
    };
    let x = Tensor::from_shape_fn([8, 4], |ix| (ix[0] * 4 + ix[1]) as f32 * 0.01);
    let mut ws = InferWorkspace::new();
    // Warm-up: grows the arenas once.
    let reference = saved.infer_with(&mut ws, &x).unwrap().clone();
    let allocs = allocations_during(|| {
        for _ in 0..ITERS {
            let y = saved.infer_with(&mut ws, &x).unwrap();
            assert_eq!(y.data()[0], reference.data()[0]);
        }
    });
    assert!(
        allocs < ITERS,
        "steady-state inference allocated {allocs} times over {ITERS} iterations \
         (>= 1 per call) — the activation path must reuse the workspace arenas"
    );
    // In practice the count is exactly zero; record that stronger fact too
    // so an intentional relaxation has to touch this test.
    assert_eq!(allocs, 0, "expected exactly zero steady-state allocations");
}

#[test]
fn forward_workspace_reuses_arenas_across_batch_sizes() {
    let spec = ModelSpec::mlp(6, &[32], 1, Activation::ReLU, 0.0);
    let model = spec.build(5).unwrap();
    let mut ws = ForwardWorkspace::new();
    let big = Tensor::full([16, 6], 0.4f32);
    let small = Tensor::full([4, 6], 0.4f32);
    // Warm with the largest shape; smaller and equal shapes then fit.
    ws.forward(&model, &big).unwrap();
    let allocs = allocations_during(|| {
        for _ in 0..ITERS {
            ws.forward(&model, &small).unwrap();
            ws.forward(&model, &big).unwrap();
        }
    });
    assert_eq!(allocs, 0, "alternating batch sizes must still reuse arenas");
}

#[test]
fn normalized_inference_is_also_allocation_free() {
    let spec = ModelSpec::mlp(3, &[8], 1, Activation::Sigmoid, 0.0);
    let model = spec.build(11).unwrap();
    let norm = |len: usize| hpacml_nn::Normalizer {
        axis: hpacml_nn::data::NormAxis::PerFeature,
        mean: vec![0.5; len],
        std: vec![2.0; len],
    };
    let saved = hpacml_nn::SavedModel {
        spec,
        model,
        in_norm: Some(norm(3)),
        out_norm: Some(norm(1)),
        precision: hpacml_tensor::Precision::F32,
    };
    let x = Tensor::full([6, 3], 0.7f32);
    let mut ws = InferWorkspace::new();
    saved.infer_with(&mut ws, &x).unwrap();
    let allocs = allocations_during(|| {
        for _ in 0..ITERS {
            saved.infer_with(&mut ws, &x).unwrap();
        }
    });
    assert_eq!(allocs, 0, "normalization staging must reuse its buffer");
}

/// CNN layers route through `conv2d_fused_into`/`maxpool2d_into`; a small
/// stride-1 convolution (bias first) is allocation-free too.
#[test]
fn cnn_stride1_inference_is_allocation_free() {
    let spec = ModelSpec::new(
        vec![2, 8, 8],
        vec![
            LayerSpec::Conv2d {
                in_ch: 2,
                out_ch: 3,
                kernel: 3,
                stride: 1,
                pad: 1,
            },
            LayerSpec::ReLU,
            LayerSpec::MaxPool2d {
                kernel: 2,
                stride: 2,
            },
            LayerSpec::Flatten,
            LayerSpec::Linear {
                in_features: 3 * 4 * 4,
                out_features: 2,
            },
        ],
    );
    let model = spec.build(7).unwrap();
    let x = Tensor::full([1, 2, 8, 8], 0.3f32);
    let mut ws = ForwardWorkspace::new();
    ws.forward(&model, &x).unwrap();
    let allocs = allocations_during(|| {
        for _ in 0..200 {
            ws.forward(&model, &x).unwrap();
        }
    });
    assert_eq!(allocs, 0, "stride-1 CNN forward must not allocate");
}
