//! Counting-allocator proof that the **compiled** inference path — fused
//! activations, pre-packed weight panels, im2col-through-GEMM convolution —
//! keeps the zero-allocation steady state, with the packing buffers owned
//! by the model and the per-thread scratch (never the forward pass).
//!
//! Same thread-local counting `#[global_allocator]` technique as
//! `alloc_free_inference.rs`, which continues to cover the *uncompiled*
//! fallback paths untouched.

use hpacml_nn::spec::{Activation, LayerSpec, ModelSpec};
use hpacml_nn::ForwardWorkspace;
use hpacml_tensor::Tensor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static TL_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static TL_TRACKING: Cell<bool> = const { Cell::new(false) };
}

fn count_if_tracking() {
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

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = TL_ALLOCS.with(|c| c.get());
    TL_TRACKING.with(|t| t.set(true));
    f();
    TL_TRACKING.with(|t| t.set(false));
    let after = TL_ALLOCS.with(|c| c.get());
    after - before
}

#[test]
fn compiled_mlp_with_packed_weights_is_allocation_free() {
    let spec = ModelSpec::mlp(6, &[32, 16], 2, Activation::Tanh, 0.2);
    let mut model = spec.build(3).unwrap();
    let info = hpacml_nn::compile_for_inference(&mut model);
    assert!(info.packed_layers >= 3 && info.fused_activations >= 2);
    let x = Tensor::from_shape_fn([16, 6], |ix| (ix[0] * 3 + ix[1]) as f32 * 0.01);
    let mut ws = ForwardWorkspace::new();
    ws.forward(&model, &x).unwrap(); // warm-up grows the arenas once
    let allocs = allocations_during(|| {
        for _ in 0..500 {
            ws.forward(&model, &x).unwrap();
        }
    });
    assert_eq!(
        allocs, 0,
        "compiled forward must reuse packed weights and arenas"
    );
}

/// The conv route stages im2col panels in this thread's grow-only scratch;
/// after `ForwardWorkspace::reserve`, even the *first* forward on this
/// thread is allocation-free — including the strided convolution that used
/// to allocate its column matrix per sample, and small convolutions whose
/// bias starts each chain. (Pool workers drafted
/// into larger batches warm their own scratch once; the counting allocator
/// here tracks the calling thread, which is also the only executor at
/// batch 1.)
#[test]
fn compiled_cnn_gemm_route_is_allocation_free_after_reserve() {
    let spec = ModelSpec::new(
        vec![4, 24, 48],
        vec![
            LayerSpec::Conv2d {
                in_ch: 4,
                out_ch: 4,
                kernel: 3,
                stride: 1,
                pad: 1,
            },
            LayerSpec::Tanh,
            LayerSpec::Conv2d {
                in_ch: 4,
                out_ch: 4,
                kernel: 3,
                stride: 2,
                pad: 1,
            },
            LayerSpec::ReLU,
        ],
    );
    let mut model = spec.build(5).unwrap();
    let info = hpacml_nn::compile_for_inference(&mut model);
    assert_eq!(info.fused_activations, 2);
    let x = Tensor::full([1usize, 4, 24, 48], 0.2f32);
    let mut ws = ForwardWorkspace::new();
    ws.reserve(&model, x.dims()).unwrap(); // sizes arenas *and* im2col scratch
    hpacml_par::pool::global(); // process-wide pool init is not per-forward cost
    let allocs = allocations_during(|| {
        for _ in 0..100 {
            ws.forward(&model, &x).unwrap();
        }
    });
    assert_eq!(
        allocs, 0,
        "conv im2col/GEMM route must reuse the thread scratch from the first pass"
    );

    // Convolutions below `conv_gemm_worthwhile` (the bias starts each chain)
    // stage the same panels and padded sample: a stride-1 and a strided one,
    // on a fresh thread so that only the reserve can have sized its scratch.
    let small = ModelSpec::new(
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
            LayerSpec::Conv2d {
                in_ch: 3,
                out_ch: 2,
                kernel: 3,
                stride: 2,
                pad: 1,
            },
            LayerSpec::Tanh,
        ],
    );
    let mut model = small.build(6).unwrap();
    hpacml_nn::compile_for_inference(&mut model);
    let allocs = std::thread::spawn(move || {
        let x = Tensor::full([1usize, 2, 8, 8], 0.2f32);
        let mut ws = ForwardWorkspace::new();
        ws.reserve(&model, x.dims()).unwrap();
        allocations_during(|| {
            for _ in 0..100 {
                ws.forward(&model, &x).unwrap();
            }
        })
    })
    .join()
    .unwrap();
    assert_eq!(allocs, 0, "small convs must reuse the reserved scratch");
}

/// Compiled and uncompiled forwards are bit-identical — fusion and packing
/// are pure layout/schedule changes, never numeric ones.
#[test]
fn compiled_forward_matches_uncompiled_bitwise() {
    let spec = ModelSpec::new(
        vec![2, 10, 10],
        vec![
            LayerSpec::Conv2d {
                in_ch: 2,
                out_ch: 3,
                kernel: 3,
                stride: 1,
                pad: 1,
            },
            LayerSpec::Sigmoid,
            LayerSpec::Flatten,
            LayerSpec::Linear {
                in_features: 3 * 10 * 10,
                out_features: 4,
            },
            LayerSpec::ReLU,
            LayerSpec::Dropout { p: 0.3 },
            LayerSpec::Linear {
                in_features: 4,
                out_features: 1,
            },
        ],
    );
    let reference = spec.build(11).unwrap();
    let mut compiled = spec.build(11).unwrap();
    hpacml_nn::compile_for_inference(&mut compiled);
    for batch in [1usize, 2, 7] {
        let x = Tensor::from_shape_fn([batch, 2, 10, 10], |ix| {
            ((ix[0] + 1) * (ix[2] * 10 + ix[3])) as f32 * 0.004 - 0.3
        });
        assert_eq!(
            reference.forward(&x).unwrap().data(),
            compiled.forward(&x).unwrap().data(),
            "batch {batch}"
        );
    }
}
