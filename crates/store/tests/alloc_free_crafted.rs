//! Crafted headers: the adversarial property beside `prop_corrupt`'s
//! accidental ones. `prop_corrupt` damages a valid file, so a checksum
//! catches it; here the file is *written* with a lie in one or two numeric
//! header fields (rank, dims, rows, first-row, payload/string/frame
//! lengths, counts) and every checksum is computed over the lie, so the
//! decoder's own bounds checks are all that stands: `H5File::open` never
//! panics, never overflows, never asks the allocator for more than a small
//! multiple of the file's size, and returns a typed error or a tree whose
//! every dataset reads back whole.
//!
//! The writer below is the test's own (an independent pin of the log
//! layout). The allocation bound is measured by a `#[global_allocator]`
//! that records the largest request made on the calling thread.

use hpacml_store::frame::fnv1a64_words;
use hpacml_store::{DType, Group, H5File};
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

/// Numbers every numeric header field as it is written and replaces the
/// chosen ones.
struct Lies<'a> {
    next: usize,
    at: &'a [(usize, u64)],
}

impl Lies<'_> {
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
    fn str(&mut self, out: &mut Vec<u8>, s: &str) {
        self.u32(out, s.len() as u32);
        out.extend(s.as_bytes());
    }
}

/// The tree every crafted file claims to hold: `g/{t: f64[2], x: f32[2,2,3]}`
/// and one integer attribute.
struct Ds {
    name: &'static str,
    dtype: u8,
    dims: &'static [u64],
    payload: Vec<u8>,
}

fn datasets() -> [Ds; 2] {
    let t: Vec<u8> = [100.0f64, 110.0]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    let x: Vec<u8> = (0..12).flat_map(|i| (i as f32).to_le_bytes()).collect();
    [
        Ds {
            name: "t",
            dtype: 1,
            dims: &[],
            payload: t,
        },
        Ds {
            name: "x",
            dtype: 0,
            dims: &[2, 3],
            payload: x,
        },
    ]
}

fn shape(l: &mut Lies, out: &mut Vec<u8>, d: &Ds) {
    out.push(d.dtype);
    l.u32(out, d.dims.len() as u32);
    for &dim in d.dims {
        l.u64(out, dim);
    }
}

fn attrs(l: &mut Lies, out: &mut Vec<u8>) {
    l.u32(out, 1);
    l.str(out, "steps");
    out.push(0);
    out.extend(2i64.to_le_bytes());
}

/// v3: two generations, one row of each dataset per generation.
fn v3(l: &mut Lies) -> Vec<u8> {
    fn frame(l: &mut Lies, out: &mut Vec<u8>, body: &[u8]) {
        let mut len = Vec::new();
        l.u64(&mut len, body.len() as u64);
        out.extend(fnv1a64_words(&[&len, body]).to_le_bytes());
        out.extend(len);
        out.extend(body);
    }
    let mut out = Vec::from(*b"H5LITE03");
    for generation in 0..2u64 {
        for d in datasets() {
            let mut body = vec![0u8];
            l.u32(&mut body, 2);
            l.str(&mut body, "g");
            l.str(&mut body, d.name);
            shape(l, &mut body, &d);
            l.u64(&mut body, generation);
            l.u64(&mut body, 1);
            let half = d.payload.len() / 2;
            body.extend(&d.payload[generation as usize * half..][..half]);
            frame(l, &mut out, &body);
        }
        let mut body = vec![1u8];
        attrs(l, &mut body);
        l.u32(&mut body, 1);
        l.str(&mut body, "g");
        body.push(0);
        l.u32(&mut body, 0);
        l.u32(&mut body, 2);
        for d in datasets() {
            l.str(&mut body, d.name);
            body.push(1);
            shape(l, &mut body, &d);
            l.u64(&mut body, generation + 1);
        }
        frame(l, &mut out, &body);
    }
    out
}

fn craft(at: &[(usize, u64)]) -> (Vec<u8>, usize) {
    let mut l = Lies { next: 0, at };
    let bytes = v3(&mut l);
    (bytes, l.next)
}

/// The values worth lying with: the edges, neighbours of the truth (every
/// honest count here is under 8), and sizes whose products overflow or wrap (`2^32 * 2^32`, `2^40 * 2^40`).
fn lie(kind: u32, small: u64, noise: u64) -> u64 {
    match kind {
        0 => 0,
        1 => 1,
        2 => small,
        3 => 65,
        4 => 1 << 20,
        5 => 1 << 32,
        6 => 1 << 40,
        7 => (1 << 61) + 1,
        8 => u64::MAX,
        9 => u64::MAX / 3,
        10 => noise % 4096,
        _ => noise,
    }
}

fn assert_consistent(g: &Group) {
    for name in g.child_names() {
        if let Ok(child) = g.group(name) {
            assert_consistent(child);
        } else {
            let d = g.dataset(name).unwrap();
            let numel = match d.dtype() {
                DType::F32 => d.read_f32().unwrap().len(),
                DType::F64 => d.read_f64().unwrap().len(),
                DType::I64 => d.read_i64().unwrap().len(),
            };
            assert_eq!(
                numel,
                d.rows() * d.entry_numel(),
                "dataset `{name}` is not whole"
            );
        }
    }
}

/// Open `bytes` and return the largest single allocation it asked for.
fn open_crafted(bytes: &[u8], tag: &str) -> usize {
    let dir = std::env::temp_dir().join("hpacml-store-crafted");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.h5lite"));
    std::fs::write(&path, bytes).unwrap();
    TL_LARGEST.with(|c| c.set(0));
    let opened = H5File::open(&path);
    let largest = TL_LARGEST.with(|c| c.get());
    if let Ok(mut f) = opened {
        assert_consistent(f.root());
        // Whatever it opened to must also flush and reopen as itself.
        f.flush().unwrap();
        assert_eq!(H5File::open(&path).unwrap().root(), f.root());
    }
    let _ = std::fs::remove_file(&path);
    largest
}

/// Largest request `open` may make for these ~0.5 KiB files: the read
/// buffer and a stderr line, nothing sized by a header field.
const ALLOC_BOUND: usize = 64 << 10;

#[test]
fn honest_files_open_to_the_tree_within_the_bound() {
    let (bytes, fields) = craft(&[]);
    assert!(fields >= 16, "the log numbers {fields} fields");
    let path = std::env::temp_dir().join("hpacml-store-crafted-honest");
    std::fs::write(&path, &bytes).unwrap();
    let f = H5File::open(&path).unwrap();
    assert!(f.recovery().is_none());
    let g = f.root().group("g").unwrap();
    assert_eq!(g.dataset("t").unwrap().read_f64().unwrap(), [100.0, 110.0]);
    assert_eq!(g.dataset("x").unwrap().shape(), [2, 2, 3]);
    drop(f);
    let _ = std::fs::remove_file(&path);
    assert!(open_crafted(&bytes, "honest") <= ALLOC_BOUND);
}

#[test]
fn wrapping_dims_are_a_typed_error() {
    // Dims whose product overflows, and dims whose product wraps to 0 so
    // that a 4-byte payload would be *accepted* as the dataset. The lie is
    // told consistently, every checksum computed over it: x's two inner
    // dims in both of its Rows frames (fields 11/12 and 42/43, in the
    // order `v3` writes them) and in both Commits (27/28 and 58/59).
    for dim in [1u64 << 40, 1 << 32] {
        let at = [11, 12, 27, 28, 42, 43, 58, 59].map(|field| (field, dim));
        let (bytes, _) = craft(&at);
        let path = std::env::temp_dir().join(format!("hpacml-store-crafted-wrap-{dim}"));
        std::fs::write(&path, &bytes).unwrap();
        let err = H5File::open(&path).unwrap_err();
        assert!(format!("{err}").contains("corrupt"), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn crafted_headers_never_panic_or_over_allocate(
        (first, second) in (0usize..4096, 0usize..4096),
        (kind_a, kind_b) in (0u32..12, 0u32..14),
        (near, noise) in (0u64..8, any::<u64>()),
    ) {
        let (_, fields) = craft(&[]);
        // `kind_b` past the table leaves the second field honest.
        let second = if kind_b < 12 { second % fields } else { usize::MAX };
        let at = [
            (first % fields, lie(kind_a, near, noise)),
            (second, lie(kind_b, near + 1, noise.rotate_left(17))),
        ];
        let (bytes, _) = craft(&at);
        let largest = open_crafted(&bytes, &format!("{first}-{second}-{kind_a}-{kind_b}"));
        prop_assert!(
            largest <= ALLOC_BOUND,
            "fields {at:?}: open asked for {largest} bytes of a {}-byte file",
            bytes.len()
        );
    }
}
