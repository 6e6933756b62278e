//! Crafted model files: the adversarial property beside `prop_corrupt`'s
//! accidental one. `prop_corrupt` damages a valid file, so a checksum
//! catches it; here the file is *written* with a lie in one or two numeric
//! fields (rank, dims, layer count, layer geometry, normalizer length,
//! tensor count, element counts, frame lengths, a weight frame's place) and
//! every checksum is computed over the lie, so the loader's own bounds
//! checks are all that stands: `load_model` never panics, never overflows
//! (the suite runs with overflow checks on), never asks the allocator for
//! more than the file's own size plus 64 KiB in one request, and returns a
//! typed error or a model that runs.
//!
//! The writer below is the test's own (an independent pin of the v3
//! layout). The allocation bound is measured by a `#[global_allocator]`
//! that records the largest request made on the calling thread — the
//! pattern of `store/tests/alloc_free_crafted.rs`.

use hpacml_nn::serialize::load_model;
use hpacml_nn::{LayerSpec, ModelSpec, NnError};
use hpacml_store::frame::fnv1a64_words;
use hpacml_tensor::Tensor;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct PeakAlloc;

thread_local! {
    static TL_LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = TL_LARGEST.try_with(|c| c.set(c.get().max(size)));
}

// SAFETY: a pass-through `GlobalAlloc`: every method delegates to `System`
// under the caller's own contract; the thread-local bookkeeping on the side
// never allocates (const-initialized cell) and never touches the layout.
unsafe impl GlobalAlloc for PeakAlloc {
    // SAFETY: same layout contract as `System.alloc`, to which this delegates.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: `layout` is forwarded unchanged from our caller.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same layout contract as `System.alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: `layout` is forwarded unchanged from our caller.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: same ptr/layout contract as `System.dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same contract as `System.realloc`, to which this delegates.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr`/`layout`/`new_size` are forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// Numbers every numeric field as it is written and replaces the chosen
/// ones.
struct Lies {
    next: usize,
    at: [(usize, u64); 2],
}

impl Lies {
    fn field(&mut self, honest: u64) -> u64 {
        let n = self.next;
        self.next += 1;
        self.at
            .iter()
            .find(|(at, _)| *at == n)
            .map_or(honest, |&(_, lie)| lie)
    }
    fn u32(&mut self, out: &mut Vec<u8>, honest: u32) {
        out.extend((self.field(u64::from(honest)) as u32).to_le_bytes());
    }
    fn u64(&mut self, out: &mut Vec<u8>, honest: u64) {
        out.extend(self.field(honest).to_le_bytes());
    }
}

/// The model every crafted file claims to hold: `[2,4,4]` → Conv2d(2→2, k3,
/// s1, p1) → ReLU → MaxPool2d(2, 2) → Flatten → Dropout → Linear(8→2), a
/// per-channel input normalizer, and these four parameter tensors.
const TENSORS: [usize; 4] = [36, 2, 16, 2];

fn weights(tensor: usize) -> Vec<f32> {
    (0..TENSORS[tensor])
        .map(|i| ((tensor * 40 + i) as f32 * 0.37).sin())
        .collect()
}

fn f32s(out: &mut Vec<u8>, values: &[f32]) {
    out.extend(values.iter().flat_map(|v| v.to_le_bytes()));
}

/// Precision byte, spec and both normalizers — fields 0.. in file order.
fn header(l: &mut Lies, out: &mut Vec<u8>) {
    out.push(0);
    l.u32(out, 3);
    for dim in [2, 4, 4] {
        l.u64(out, dim);
    }
    l.u32(out, 6);
    out.push(6);
    for v in [2, 2, 3, 1, 1] {
        l.u64(out, v);
    }
    out.push(1);
    out.push(7);
    l.u64(out, 2);
    l.u64(out, 2);
    out.push(5);
    out.push(4);
    f32s(out, &[0.25]);
    out.push(0);
    l.u64(out, 8);
    l.u64(out, 2);
    out.extend([1, 1]);
    l.u32(out, 2);
    f32s(out, &[0.5, -0.5, 2.0, 4.0]);
    out.push(0);
}

/// v3: a header frame, the first tensor in two weight frames and the rest in
/// one each, an end frame.
fn v3(l: &mut Lies) -> Vec<u8> {
    fn frame(l: &mut Lies, out: &mut Vec<u8>, body: &[u8]) {
        let mut len = Vec::new();
        l.u64(&mut len, body.len() as u64);
        out.extend(fnv1a64_words(&[&len, body]).to_le_bytes());
        out.extend(len);
        out.extend(body);
    }
    let mut out = b"HMLMODEL\x03".to_vec();
    let mut body = vec![0u8];
    header(l, &mut body);
    l.u32(&mut body, TENSORS.len() as u32);
    for numel in TENSORS {
        l.u64(&mut body, numel as u64);
    }
    frame(l, &mut out, &body);
    for tensor in 0..TENSORS.len() {
        let values = weights(tensor);
        let cut = if tensor == 0 { 20 } else { values.len() };
        for (first, part) in [(0, &values[..cut]), (cut, &values[cut..])] {
            if part.is_empty() {
                continue;
            }
            let mut body = vec![1u8];
            l.u32(&mut body, tensor as u32);
            l.u64(&mut body, first as u64);
            l.u64(&mut body, part.len() as u64);
            f32s(&mut body, part);
            frame(l, &mut out, &body);
        }
    }
    frame(l, &mut out, &[2]);
    out
}

fn craft(at: [(usize, u64); 2]) -> (Vec<u8>, usize) {
    let mut l = Lies { next: 0, at };
    let bytes = v3(&mut l);
    (bytes, l.next)
}

/// The values worth lying with: the edges, neighbours of the truth, and
/// sizes whose products overflow or wrap (`2^32 * 2^32`, `2^40 * 2^40`,
/// `(2^62 + 1) * 4`).
fn lie(kind: u32, small: u64, noise: u64) -> u64 {
    match kind {
        0 => 0,
        1 => 1,
        2 => small,
        3 => 65,
        4 => 1 << 20,
        5 => 1 << 32,
        6 => 1 << 40,
        7 => (1 << 62) + 1,
        8 => u64::MAX,
        9 => u64::MAX / 3,
        10 => noise % 4096,
        _ => noise,
    }
}

/// Load `bytes`; return the largest single allocation the load asked for.
/// Whatever loads must also run.
fn load_crafted(bytes: &[u8], tag: &str) -> (Result<ModelSpec, NnError>, usize) {
    let dir = std::env::temp_dir().join("hpacml-nn-crafted");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.hml"));
    std::fs::write(&path, bytes).unwrap();
    TL_LARGEST.with(|c| c.set(0));
    let loaded = load_model(&path);
    let largest = TL_LARGEST.with(|c| c.get());
    let _ = std::fs::remove_file(&path);
    let spec = loaded.map(|saved| {
        let numel = saved
            .spec
            .input_shape
            .iter()
            .try_fold(2usize, |n, d| n.checked_mul(*d).filter(|n| *n <= 4096));
        if let Some(numel) = numel {
            let dims = [&[2], &saved.spec.input_shape[..]].concat();
            let x = Tensor::from_vec(vec![0.5f32; numel], dims).unwrap();
            let _ = saved.infer(&x); // typed either way
        }
        saved.spec
    });
    (spec, largest)
}

/// Largest request a load may make beyond the file's own size: the frame or
/// prefix buffer is bounded by the file, the rest is bookkeeping.
const ALLOC_SLACK: usize = 64 << 10;

#[test]
fn honest_files_load_to_the_model_within_the_bound() {
    let (bytes, fields) = craft([(usize::MAX, 0); 2]);
    assert!(fields >= 20, "the file numbers {fields} fields");
    let path = std::env::temp_dir().join("hpacml-nn-crafted-honest.hml");
    std::fs::write(&path, &bytes).unwrap();
    let saved = load_model(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(saved.spec.layers.len(), 6);
    assert_eq!(
        saved.spec.layers[5],
        LayerSpec::Linear {
            in_features: 8,
            out_features: 2
        }
    );
    assert_eq!(saved.in_norm.as_ref().unwrap().std, [2.0, 4.0]);
    let want: Vec<Vec<f32>> = (0..TENSORS.len()).map(weights).collect();
    assert_eq!(saved.model.export_weights(), want);
    let (spec, largest) = load_crafted(&bytes, "honest");
    assert_eq!(spec.unwrap(), saved.spec);
    assert!(largest <= bytes.len() + ALLOC_SLACK, "{largest}");
}

#[test]
fn the_lies_the_old_loader_fell_for_are_typed_errors() {
    // Fields in the order `header`/`v3` write them: 4 = layer count, 12/13
    // = Linear in/out features, 14 = normalizer length, 15 = tensor count,
    // 16 = the first tensor's element count in the header, 23 = the element
    // count of its first `Weights` frame (20 honest).
    let cases: [(&str, [(usize, u64); 2]); 6] = [
        ("layer count", [(4, u64::from(u32::MAX)), (usize::MAX, 0)]),
        ("Linear 2^40 x 2^40", [(12, 1 << 40), (13, 1 << 40)]),
        (
            "normalizer length",
            [(14, u64::from(u32::MAX)), (usize::MAX, 0)],
        ),
        ("tensor count", [(15, u64::from(u32::MAX)), (usize::MAX, 0)]),
        (
            "header numel 2^62 + 36",
            [(16, (1 << 62) + 36), (usize::MAX, 0)],
        ),
        (
            "count * 4 wraps to 80",
            [(23, (1 << 62) + 20), (usize::MAX, 0)],
        ),
    ];
    for (what, at) in cases {
        let (bytes, _) = craft(at);
        let (out, largest) = load_crafted(&bytes, "old-lies");
        assert!(matches!(out, Err(NnError::Serialize(_))), "{what}: {out:?}");
        assert!(largest <= bytes.len() + ALLOC_SLACK, "{what}: {largest}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    #[test]
    fn crafted_fields_never_panic_or_over_allocate(
        (first, second) in (0usize..4096, 0usize..4096),
        (kind_a, kind_b) in (0u32..12, 0u32..14),
        (near, noise) in (0u64..40, any::<u64>()),
    ) {
        let (_, fields) = craft([(usize::MAX, 0); 2]);
        // `kind_b` past the table leaves the second field honest.
        let second = if kind_b < 12 { second % fields } else { usize::MAX };
        let at = [
            (first % fields, lie(kind_a, near, noise)),
            (second, lie(kind_b, near + 1, noise.rotate_left(17))),
        ];
        let (bytes, _) = craft(at);
        let (_, largest) = load_crafted(&bytes, &format!("{first}-{second}-{kind_a}-{kind_b}"));
        prop_assert!(
            largest <= bytes.len() + ALLOC_SLACK,
            "fields {at:?}: load asked for {largest} bytes of a {}-byte file",
            bytes.len()
        );
    }
}

/// Every field, every lie in the table: the exhaustive single-field sweep
/// the random pairs above cannot promise.
#[test]
fn every_field_under_every_lie_is_survived() {
    let (_, fields) = craft([(usize::MAX, 0); 2]);
    for field in 0..fields {
        for kind in 0..10 {
            let (bytes, _) = craft([(field, lie(kind, 3, 0)), (usize::MAX, 0)]);
            let (_, largest) = load_crafted(&bytes, "sweep");
            assert!(
                largest <= bytes.len() + ALLOC_SLACK,
                "field {field} lie {kind}: {largest} bytes"
            );
        }
    }
}
