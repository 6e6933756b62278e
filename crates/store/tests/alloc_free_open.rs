//! `H5File::open` holds an opened db once: each `Rows` payload is read
//! straight into its dataset, so the peak live heap of an open is the
//! payload plus a bounded read buffer, not a copy of the file beside the
//! tree. Counted, not timed: a `#[global_allocator]` keeps the live bytes
//! and their peak for the calling thread (an open allocates on no other).

use hpacml_store::{DType, H5File};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};

struct CountingAlloc;

thread_local! {
    static TL_LIVE: Cell<isize> = const { Cell::new(0) };
    static TL_PEAK: Cell<isize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    let _ = TL_LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = TL_PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: a pass-through `GlobalAlloc`: every method delegates to `System`
// under the caller's own contract; the thread-local bookkeeping on the side
// never allocates (const-initialized cells) and never touches the layout.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same layout contract as `System.alloc`, to which this delegates.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        // SAFETY: `layout` is forwarded unchanged from our caller.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same layout contract as `System.alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        // SAFETY: `layout` is forwarded unchanged from our caller.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: same ptr/layout contract as `System.dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System` via the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same contract as `System.realloc`, to which this delegates.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as isize - layout.size() as isize);
        // SAFETY: `ptr`/`layout`/`new_size` are forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The peak live heap `body` reaches on this thread above what was live
/// when it began.
fn peak_above_start<T>(body: impl FnOnce() -> T) -> (T, usize) {
    let start = TL_LIVE.with(Cell::get);
    TL_PEAK.with(|peak| peak.set(start));
    let out = body();
    (out, (TL_PEAK.with(Cell::get) - start) as usize)
}

/// Room for the read buffer, the `Commit` body, the tree's nodes and
/// names, and the stderr line of a damaged file.
const SLACK: usize = 256 << 10;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hpacml-store-alloc-free-open");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// `collect_stencil`'s db after one cycle: `[256, 256, 5]` inputs and
/// `[256, 256, 1]` outputs per step plus an f64 time, 16 steps (~25 MB).
/// Returns the payload bytes.
fn stencil_db(path: &Path) -> usize {
    let mut f = H5File::create(path);
    let g = f.root_mut().group_mut("collect_stencil");
    for k in 0..16 {
        let row = |len: usize| -> Vec<f32> { (0..len).map(|i| (i + k) as f32).collect() };
        let inputs = g
            .group_mut("inputs")
            .dataset_mut("t", DType::F32, &[256, 256, 5]);
        inputs.unwrap().append_f32(&row(256 * 256 * 5)).unwrap();
        let outputs = g
            .group_mut("outputs")
            .dataset_mut("tnew", DType::F32, &[256, 256, 1]);
        outputs.unwrap().append_f32(&row(256 * 256)).unwrap();
        let time = g.dataset_mut("region_time_ns", DType::F64, &[]).unwrap();
        time.append_f64(&[1e6 + k as f64]).unwrap();
    }
    f.flush().unwrap();
    f.size_bytes()
}

#[test]
fn an_open_holds_the_db_once() {
    let path = tmp("once.h5lite");
    let payload = stencil_db(&path);
    assert!(payload > 25_000_000, "{payload} bytes");
    let (opened, peak) = peak_above_start(|| H5File::open(&path).unwrap());
    assert!(opened.recovery().is_none());
    assert_eq!(opened.size_bytes(), payload);
    assert!(
        peak <= payload + SLACK,
        "open peaked {peak} bytes above its start for a {payload}-byte payload"
    );
    drop(opened);
    let _ = std::fs::remove_file(&path);
}

/// The training loaders' pattern: open, then read the inputs out as f32.
/// The tree and the one copy the caller asked for, nothing more.
#[test]
fn an_open_then_a_read_holds_at_most_two_copies() {
    let path = tmp("twice.h5lite");
    let payload = stencil_db(&path);
    let (inputs, peak) = peak_above_start(|| {
        let f = H5File::open(&path).unwrap();
        let g = f.root().group("collect_stencil").unwrap();
        g.group("inputs")
            .unwrap()
            .dataset("t")
            .unwrap()
            .read_f32()
            .unwrap()
    });
    assert_eq!(inputs.len(), 16 * 256 * 256 * 5);
    assert!(
        peak <= 2 * payload + SLACK,
        "open + read_f32 peaked {peak} bytes above its start for a {payload}-byte payload"
    );
    let _ = std::fs::remove_file(&path);
}
