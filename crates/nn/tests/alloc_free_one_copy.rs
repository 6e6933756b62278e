//! One pass, one copy — pinned without a clock. For a 1 M-parameter MLP,
//! a byte-counting `#[global_allocator]` shows that `save_model` never holds
//! more than 2 MiB beyond the model it is saving (no weight snapshot, no
//! whole-file staging buffer), and that the most `load_model` ever holds is
//! the model it returns plus 2 MiB (no whole-file read, no decoded copy, no
//! random initialization to overwrite). The model it returns holds each
//! weight matrix once, as the packed panels the kernels read, and
//! quantizing it never peaks more than 2 MiB above what it ends with.
//!
//! One test function: the counters are process-wide, and a second test on
//! another thread would be counted into this one's peaks.

use hpacml_nn::serialize::{load_model, save_model};
use hpacml_nn::spec::{Activation, LayerSpec, ModelSpec};
use hpacml_tensor::{PackedB, Precision};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    PEAK.fetch_max(
        LIVE.fetch_add(by, Ordering::Relaxed) + by,
        Ordering::Relaxed,
    );
}

struct CountingAlloc;

// SAFETY: a pass-through `GlobalAlloc`: every method delegates to `System`
// under the caller's own contract; the counters on the side are plain
// atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same layout contract as `System.alloc`, to which this delegates.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: `layout` is forwarded unchanged from our caller.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same layout contract as `System.alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: `layout` is forwarded unchanged from our caller.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: same ptr/layout contract as `System.dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` via the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same contract as `System.realloc`, to which this delegates.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as the new block beside the old one, as a moving realloc
        // would hold them.
        grew(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr`/`layout`/`new_size` are forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Live bytes now, and the peak from here on starts from them.
fn mark() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

const SLACK: usize = 2 << 20;

#[test]
fn save_and_load_hold_one_copy_of_the_weights() {
    let spec = ModelSpec::mlp(64, &[1000, 900], 36, Activation::ReLU, 0.0);
    assert!(spec.param_count() > 990_000, "{}", spec.param_count());
    let model = spec.build(17).unwrap();
    let dir = std::env::temp_dir().join("hpacml-nn-one-copy");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("m.hml");

    let before = mark();
    save_model(&path, &spec, &model, None, None).unwrap();
    let rise = PEAK.load(Ordering::Relaxed) - before;
    assert!(rise <= SLACK, "save held {rise} bytes beyond the model");
    let want = model.export_weights();
    drop(model);

    let before = mark();
    let saved = load_model(&path).unwrap();
    let (peak, own) = (
        PEAK.load(Ordering::Relaxed) - before,
        LIVE.load(Ordering::Relaxed) - before,
    );
    assert!(own >= 4 * spec.param_count(), "model heap {own}");
    assert!(
        peak <= own + SLACK,
        "load peaked at {peak} bytes for a model that keeps {own}"
    );
    assert_eq!(saved.model.export_weights(), want);

    // The weights are held once, as the panels the kernels read: no
    // row-major copy and no gradient beside them.
    let panels: usize = spec
        .layers
        .iter()
        .filter_map(|l| match *l {
            LayerSpec::Linear {
                in_features: k,
                out_features: n,
            } => Some(4 * (PackedB::<f32>::packed_elems(k, n) + n)),
            _ => None,
        })
        .sum();
    assert!(
        own <= panels + (64 << 10),
        "the loaded model keeps {own} bytes for {panels} of panels and biases"
    );
    drop(saved);

    // Quantizing a loaded model builds the rungs from those panels and
    // never holds much more than what it ends with.
    let before = mark();
    let mut saved = load_model(&path).unwrap();
    saved.quantize(Precision::Int8);
    let (peak, end) = (
        PEAK.load(Ordering::Relaxed) - before,
        LIVE.load(Ordering::Relaxed) - before,
    );
    assert!(
        peak <= end + SLACK,
        "load + quantize peaked at {peak} bytes for a model that keeps {end}"
    );
}
