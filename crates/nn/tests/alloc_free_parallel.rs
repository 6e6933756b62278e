//! Counting-allocator proof that the **parallel** forward path — the
//! work-stealing dispatch, per-thread pack/im2col scratch, and both conv
//! parallel routes — keeps the zero-allocation steady state.
//!
//! Unlike `alloc_free_compiled.rs` (thread-local counter, calling thread
//! only), the counter here is **process-global**: an allocation on any
//! pool worker while tracking is on fails the test. That is the point —
//! the dispatcher publishes jobs into preallocated slots and every
//! participant's scratch is warmed by the broadcast reserve, so after
//! warm-up no thread anywhere allocates.

use hpacml_nn::spec::{Activation, LayerSpec, ModelSpec};
use hpacml_nn::ForwardWorkspace;
use hpacml_par::{with_pool, Pool};
use hpacml_tensor::Tensor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static TRACKING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: a pass-through `GlobalAlloc`: every method delegates to `System`
// under the caller's own contract; the side counters are lock-free statics
// that never allocate and never touch the layout.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same layout contract as `System.alloc`, to which this delegates.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
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
        if TRACKING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr`/`layout`/`new_size` are forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One tracking window at a time: the counter is process-global, and the
/// harness runs this file's tests on parallel threads — without this lock
/// one test's window counts another test's model build and warm-up.
static WINDOW: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

/// Count allocations performed **anywhere in the process** during `f`.
fn global_allocations_during(f: impl FnOnce()) -> u64 {
    // Thread start-up allocates, and a warm-up forward fast enough for the
    // caller to finish it alone proves nothing about workers that have not
    // run yet; a kernel on an override pool's worker also asks the
    // process-wide pool for its width (`current_parallelism`), building that
    // pool on first use. Run one job on every participant of both pools
    // before the window opens: one-time set-up is not the steady state this
    // file pins (release builds failed here most runs without it).
    hpacml_par::broadcast(|_| {});
    hpacml_par::global().broadcast(|_| {});
    let before = ALLOCS.load(Ordering::Relaxed);
    TRACKING.store(true, Ordering::SeqCst);
    f();
    TRACKING.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::Relaxed) - before
}

/// The bench MLP (w128 at batch 1024), forwarded on a 7-worker pool: the
/// row-parallel GEMM dispatch must be allocation-free on every thread.
#[test]
fn parallel_mlp_forward_is_globally_allocation_free() {
    let _window = WINDOW.lock();
    let spec = ModelSpec::mlp(6, &[128, 64], 1, Activation::ReLU, 0.0);
    let mut model = spec.build(3).unwrap();
    hpacml_nn::compile_for_inference(&mut model);
    let x = Tensor::from_shape_fn([1024, 6], |ix| (ix[0] * 7 + ix[1]) as f32 * 0.001 - 0.5);
    let pool = Pool::new(7);
    with_pool(&pool, || {
        let mut ws = ForwardWorkspace::new();
        // Warm-up: arenas + broadcast scratch reserve + one full forward
        // (first dispatch touches every worker's thread-locals).
        ws.reserve(&model, x.dims()).unwrap();
        ws.forward(&model, &x).unwrap();
        let allocs = global_allocations_during(|| {
            for _ in 0..20 {
                ws.forward(&model, &x).unwrap();
            }
        });
        assert_eq!(
            allocs, 0,
            "parallel MLP steady state must not allocate on any thread"
        );
    });
    let stats = pool.stats();
    assert!(stats.jobs > 0, "the forward must actually have dispatched");
}

fn cnn_spec() -> ModelSpec {
    ModelSpec::new(
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
    )
}

/// Batch 8 on a 7-worker pool saturates it → the sample-parallel conv
/// route, where every worker stages im2col in its own scratch. The
/// broadcast reserve must have warmed all of them.
#[test]
fn conv_sample_parallel_route_is_globally_allocation_free() {
    let _window = WINDOW.lock();
    let mut model = cnn_spec().build(5).unwrap();
    hpacml_nn::compile_for_inference(&mut model);
    let x = Tensor::from_shape_fn([8, 4, 24, 48], |ix| {
        ((ix[0] + 1) * (ix[2] * 48 + ix[3])) as f32 * 0.002 - 0.4
    });
    let pool = Pool::new(7);
    with_pool(&pool, || {
        let mut ws = ForwardWorkspace::new();
        ws.reserve(&model, x.dims()).unwrap();
        ws.forward(&model, &x).unwrap();
        let allocs = global_allocations_during(|| {
            for _ in 0..10 {
                ws.forward(&model, &x).unwrap();
            }
        });
        assert_eq!(
            allocs, 0,
            "sample-parallel conv steady state must not allocate on any thread"
        );
    });
}

/// Batch 2 on a 7-worker pool starves the sample axis → the intra-sample
/// route (parallel im2col fill + row-parallel GEMM). Run it *uncompiled*
/// so the weight also packs into the per-thread A scratch each forward —
/// the most allocation-prone variant of the new route.
#[test]
fn conv_intra_sample_route_is_globally_allocation_free() {
    let _window = WINDOW.lock();
    let model = cnn_spec().build(7).unwrap(); // uncompiled: packs per forward
    let x = Tensor::from_shape_fn([2, 4, 24, 48], |ix| {
        ((ix[1] + 1) * (ix[2] * 48 + ix[3])) as f32 * 0.003 - 0.2
    });
    let pool = Pool::new(7);
    with_pool(&pool, || {
        let mut ws = ForwardWorkspace::new();
        ws.reserve(&model, x.dims()).unwrap();
        ws.forward(&model, &x).unwrap();
        let allocs = global_allocations_during(|| {
            for _ in 0..10 {
                ws.forward(&model, &x).unwrap();
            }
        });
        assert_eq!(
            allocs, 0,
            "intra-sample conv steady state must not allocate on any thread"
        );
    });
}
