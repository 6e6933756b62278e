//! An int8 model holds f32 + int8, pinned without a clock. For a
//! 2048 × 2048 `Linear` loaded and quantized for int8, a byte-counting
//! `#[global_allocator]` shows that the model holds its f32 panels and its
//! int8 pack and nothing weight-sized besides (no bf16 rung); that the
//! first bf16 forwards — four threads at once — add the bf16 pack once,
//! with no second copy on the way; and that later bf16, int8 and f32
//! forwards allocate nothing.
//!
//! One test function: the counters are process-wide, and a second test on
//! another thread would be counted into this one's.

use hpacml_nn::serialize::{load_model, save_model};
use hpacml_nn::spec::{Activation, ModelSpec};
use hpacml_nn::InferWorkspace;
use hpacml_par::{with_pool, Pool};
use hpacml_tensor::{PackedB, Precision, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
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

const SLACK: usize = 256 << 10;
const N: usize = 2048;

#[test]
fn an_int8_model_holds_f32_and_int8_and_encodes_bf16_once_when_served() {
    let spec = ModelSpec::mlp(N, &[], N, Activation::ReLU, 0.0);
    let dir = std::env::temp_dir().join("hpacml-nn-alloc-free-rungs");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("m.hml");
    save_model(&path, &spec, &spec.build(41).unwrap(), None, None).unwrap();
    let elems = PackedB::<f32>::packed_elems(N, N);
    let (f32_bytes, bf16_bytes, int8_bytes) = (4 * elems, 2 * elems, elems);
    let serial = Pool::new(0);

    let before = mark();
    let mut m = load_model(&path).unwrap();
    m.quantize(Precision::Int8);
    let own = LIVE.load(Ordering::Relaxed) - before;
    assert!(own >= f32_bytes + int8_bytes, "model heap {own}");
    assert!(
        own <= f32_bytes + int8_bytes + SLACK,
        "an int8 model keeps {own} bytes for {f32_bytes} of panels and \
         {int8_bytes} of int8 pack"
    );

    let x = Tensor::from_shape_fn([1, N], |ix| (ix[1] % 13) as f32 * 0.07 - 0.4);
    let bits = |ws: &mut InferWorkspace, prec| {
        let y = m.infer_with_at(ws, &x, prec).unwrap().data()[0];
        y.to_bits()
    };

    // Four threads serve bf16 for the first time at once: one encode.
    let pools: Vec<Pool> = (0..4).map(|_| Pool::new(0)).collect();
    let start = Barrier::new(pools.len());
    let before = mark();
    let firsts: Vec<u32> = std::thread::scope(|s| {
        let threads: Vec<_> = pools
            .iter()
            .map(|pool| {
                s.spawn(|| {
                    with_pool(pool, || {
                        let mut ws = InferWorkspace::new();
                        start.wait();
                        bits(&mut ws, Precision::Bf16)
                    })
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    let (peak, added) = (
        PEAK.load(Ordering::Relaxed) - before,
        LIVE.load(Ordering::Relaxed) - before,
    );
    assert!(
        (bf16_bytes..=bf16_bytes + SLACK).contains(&added),
        "the first bf16 forwards added {added} bytes for a {bf16_bytes}-byte rung"
    );
    assert!(
        peak <= bf16_bytes + SLACK,
        "they peaked at {peak} bytes: more than one encode"
    );
    assert!(firsts.iter().all(|&y| y == firsts[0]));

    with_pool(&serial, || {
        let mut ws = InferWorkspace::new();
        // Size the arenas.
        bits(&mut ws, Precision::F32);
        let allocs = ALLOCS.load(Ordering::Relaxed);
        for _ in 0..3 {
            for prec in [Precision::Bf16, Precision::Int8, Precision::F32] {
                let y = bits(&mut ws, prec);
                assert!(prec != Precision::Bf16 || y == firsts[0]);
            }
        }
        let more = ALLOCS.load(Ordering::Relaxed) - allocs;
        assert_eq!(more, 0, "warm forwards allocated {more} times");
    });
    let _ = std::fs::remove_file(&path);
}
