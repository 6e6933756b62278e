//! Counting-allocator proof of the batched zero-allocation steady state:
//! after a session's per-thread buffers are warm, `invoke_batch(n)` performs
//! **no** heap allocation on the surrogate path — gather, assembly, forward
//! pass, scatter and stats included — for *any* `n` up to `max_batch`
//! (buffers are sized to `max_batch` once, so varying `n` between calls
//! stays allocation-free too).
//!
//! The counter is a `#[global_allocator]` that tallies allocations on the
//! calling thread only (const-initialized thread-locals, so the bookkeeping
//! itself never allocates), which keeps the counts immune to other threads.

use hpacml_core::Region;
use hpacml_directive::sema::Bindings;
use hpacml_nn::spec::{Activation, ModelSpec};
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

/// Count heap allocations performed by the current thread while running `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = TL_ALLOCS.with(|c| c.get());
    TL_TRACKING.with(|t| t.set(true));
    f();
    TL_TRACKING.with(|t| t.set(false));
    let after = TL_ALLOCS.with(|c| c.get());
    after - before
}

#[test]
fn steady_state_batched_invocation_is_allocation_free() {
    let dir = std::env::temp_dir().join("hpacml-alloc-free-batch");
    std::fs::create_dir_all(&dir).unwrap();
    let model_path = dir.join("m.hml");
    let spec = ModelSpec::mlp(2, &[16], 1, Activation::ReLU, 0.0);
    let model = spec.build(7).unwrap();
    hpacml_nn::serialize::save_model(&model_path, &spec, &model, None, None).unwrap();

    let region = Region::from_source(
        "alloc-free-batch",
        &format!(
            r#"
            #pragma approx tensor functor(rows: [i, 0:2] = ([2*i : 2*i+2]))
            #pragma approx tensor functor(single: [i, 0:1] = ([i]))
            #pragma approx tensor map(to: rows(x[0:N]))
            #pragma approx ml(infer) in(x) out(single(y[0:N])) model("{}")
            "#,
            model_path.display()
        ),
    )
    .unwrap();

    const MAX_BATCH: usize = 64;
    let binds = Bindings::new().with("N", 1);
    let session = region
        .session(&binds, &[("x", &[2]), ("y", &[1])], MAX_BATCH)
        .unwrap();

    let x: Vec<f32> = (0..MAX_BATCH * 2)
        .map(|k| (k as f32 * 0.11).sin())
        .collect();
    let mut y = vec![0.0f32; MAX_BATCH];

    let run_batch = |n: usize, y: &mut [f32]| {
        let mut out = session
            .invoke_batch(n)
            .unwrap()
            .input("x", &x[..n * 2])
            .unwrap()
            .run(|| unreachable!())
            .unwrap();
        out.output("y", &mut y[..n]).unwrap();
        out.finish().unwrap();
    };

    // Warm-up: resolves the model, sizes every buffer for MAX_BATCH, lazily
    // initializes thread-locals and the global inference engine.
    run_batch(MAX_BATCH, &mut y);
    run_batch(3, &mut y);

    // Steady state: zero heap allocations per batched invocation, with the
    // runtime batch size varying call to call.
    const ITERS: u64 = 200;
    let sizes = [MAX_BATCH, 1, 17, 64, 5, 33];
    let allocs = allocations_during(|| {
        for i in 0..ITERS {
            run_batch(sizes[(i as usize) % sizes.len()], &mut y);
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state batched invocation allocated {allocs} times over {ITERS} iterations \
         (gather, assembly, forward, scatter and stats must all reuse warmed buffers)"
    );

    // The results are still right (guards against a silent no-op).
    run_batch(2, &mut y);
    let mut y1 = [0.0f32; 1];
    let mut out = session
        .invoke()
        .input("x", &x[..2])
        .unwrap()
        .run(|| unreachable!())
        .unwrap();
    out.output("y", &mut y1).unwrap();
    out.finish().unwrap();
    assert_eq!(y[0], y1[0]);
}

/// The paper's Fig. 2 region as the benchmark's `stencil_step` runs it: a
/// batch-1 session over a 258×258 grid, 5-point stencil in, MLP 5→8→1,
/// interior out, each step feeding the next. The fused gather walk, both
/// narrow-N GEMM tiles and the scatter must all run out of warmed buffers.
#[test]
fn steady_state_stencil_step_is_allocation_free() {
    const GRID: usize = 258;
    let dir = std::env::temp_dir().join("hpacml-alloc-free-stencil");
    std::fs::create_dir_all(&dir).unwrap();
    let model_path = dir.join("m.hml");
    let spec = ModelSpec::mlp(5, &[8], 1, Activation::ReLU, 0.0);
    let model = spec.build(12).unwrap();
    hpacml_nn::serialize::save_model(&model_path, &spec, &model, None, None).unwrap();

    let region = Region::from_source(
        "alloc-free-stencil",
        &format!(
            r#"
            #pragma approx tensor functor(ifnctr: [i, j, 0:5] = (([i-1, j], [i+1, j], [i, j-1:j+2])))
            #pragma approx tensor functor(ofnctr: [i, j, 0:1] = ([i, j]))
            #pragma approx tensor map(to: ifnctr(t[1:N-1, 1:M-1]))
            #pragma approx tensor map(from: ofnctr(tnew[1:N-1, 1:M-1]))
            #pragma approx ml(infer) in(t) out(tnew) model("{}")
            "#,
            model_path.display()
        ),
    )
    .unwrap();
    let binds = Bindings::new()
        .with("N", GRID as i64)
        .with("M", GRID as i64);
    let session = region
        .session(&binds, &[("t", &[GRID, GRID]), ("tnew", &[GRID, GRID])], 1)
        .unwrap();

    let mut t: Vec<f32> = (0..GRID * GRID).map(|k| (k as f32 * 0.013).sin()).collect();
    let mut tnew = t.clone();
    let step = |t: &mut Vec<f32>, tnew: &mut Vec<f32>| {
        let mut out = session
            .invoke()
            .input("t", t)
            .unwrap()
            .run(|| unreachable!())
            .unwrap();
        out.output("tnew", tnew).unwrap();
        out.finish().unwrap();
        std::mem::swap(t, tnew);
    };

    step(&mut t, &mut tnew);
    step(&mut t, &mut tnew);
    let before = t.clone();
    const STEPS: u64 = 20;
    let allocs = allocations_during(|| {
        for _ in 0..STEPS {
            step(&mut t, &mut tnew);
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state stencil step allocated {allocs} times over {STEPS} steps"
    );
    // Guards against a silent no-op: the interior moved, the halo did not.
    assert_ne!(t[GRID + 1..2 * GRID - 1], before[GRID + 1..2 * GRID - 1]);
    assert_eq!(t[..GRID], before[..GRID]);
}

/// A thread reserves its inference workspace once per session core and
/// `max_batch`, on the core's first surrogate run. That record used to key
/// on the core's address, so a session built where a dropped session's core
/// had been — same thread, same `max_batch` — skipped the reservation for
/// its own, wider model, and its forward passes then grew the arenas. Its
/// first invocation (a single sample, which resolves the model) may
/// allocate; every batch after it, up to `max_batch`, must not.
#[test]
fn a_session_built_after_a_dropped_one_reserves_its_own_workspace() {
    const MAX_BATCH: usize = 64;
    let dir = std::env::temp_dir().join("hpacml-alloc-free-after-drop");
    std::fs::create_dir_all(&dir).unwrap();
    let region_of = |name: &str, hidden: usize| {
        let path = dir.join(format!("{name}.hml"));
        let spec = ModelSpec::mlp(2, &[hidden], 1, Activation::ReLU, 0.0);
        let model = spec.build(hidden as u64).unwrap();
        hpacml_nn::serialize::save_model(&path, &spec, &model, None, None).unwrap();
        Region::from_source(
            name,
            &format!(
                r#"
                #pragma approx tensor functor(rows: [i, 0:2] = ([2*i : 2*i+2]))
                #pragma approx tensor functor(single: [i, 0:1] = ([i]))
                #pragma approx tensor map(to: rows(x[0:N]))
                #pragma approx ml(infer) in(x) out(single(y[0:N])) model("{}")
                "#,
                path.display()
            ),
        )
        .unwrap()
    };
    let (narrow, wide) = (region_of("narrow", 4), region_of("wide", 512));
    let binds = Bindings::new().with("N", 1);
    let x: Vec<f32> = (0..MAX_BATCH * 2)
        .map(|k| (k as f32 * 0.07).cos())
        .collect();
    // Build a session of `region`, invoke it at `first`, then count the
    // allocations of one batch of `MAX_BATCH`; drops the session.
    let run = |region: &Region, first: usize| {
        let session = region
            .session(&binds, &[("x", &[2]), ("y", &[1])], MAX_BATCH)
            .unwrap();
        let mut y = vec![0.0f32; MAX_BATCH];
        let invoke = |n: usize, y: &mut [f32]| {
            let mut out = session
                .invoke_batch(n)
                .unwrap()
                .input("x", &x[..n * 2])
                .unwrap()
                .run(|| unreachable!())
                .unwrap();
            out.output("y", &mut y[..n]).unwrap();
            out.finish().unwrap();
        };
        invoke(first, &mut y);
        let allocs = allocations_during(|| invoke(MAX_BATCH, &mut y));
        // The batch ran (guards against a silent no-op): its first sample
        // equals a single-sample invocation's, bit for bit.
        let mut y1 = [0.0f32; 1];
        invoke(1, &mut y1);
        assert_eq!(y[0].to_bits(), y1[0].to_bits());
        allocs
    };

    // Process-wide lazy state (the pool a batch's forward fans out to, the
    // wide model's load) is set up from another thread, so this thread's
    // scratch has only ever seen the narrow model.
    std::thread::scope(|s| s.spawn(|| run(&wide, MAX_BATCH)).join().unwrap());
    // Warm this thread on the narrow model at `MAX_BATCH`; its session is
    // dropped before the wide one is built.
    run(&narrow, MAX_BATCH);
    let allocs = run(&wide, 1);
    assert_eq!(
        allocs, 0,
        "a batch of {MAX_BATCH} on a session built after a dropped one allocated {allocs} times"
    );
}

/// A stencil session that reads its input in place (the implicit gather:
/// `to_tensor_ns` stays 0) at the bf16 rung, batches of 1 to 3 grids whose
/// inner extent (35) leaves blocks that cross grid rows and a ragged tail:
/// the padded blocks, the column runs and the in-place forward all run on
/// the stack and the warmed arenas.
#[test]
fn steady_state_in_place_stencil_is_allocation_free() {
    const ROWS: usize = 24;
    const COLS: usize = 37;
    const MAX_BATCH: usize = 3;
    let dir = std::env::temp_dir().join("hpacml-alloc-free-in-place");
    std::fs::create_dir_all(&dir).unwrap();
    let model_path = dir.join("m.hml");
    let spec = ModelSpec::mlp(5, &[8, 4], 1, Activation::Tanh, 0.0);
    let model = spec.build(21).unwrap();
    hpacml_nn::serialize::save_model(&model_path, &spec, &model, None, None).unwrap();

    let region = Region::from_source(
        "alloc-free-in-place",
        &format!(
            r#"
            #pragma approx tensor functor(ifnctr: [i, j, 0:5] = (([i-1, j], [i+1, j], [i, j-1:j+2])))
            #pragma approx tensor functor(ofnctr: [i, j, 0:1] = ([i, j]))
            #pragma approx tensor map(to: ifnctr(t[1:N-1, 1:M-1]))
            #pragma approx tensor map(from: ofnctr(tnew[1:N-1, 1:M-1]))
            #pragma approx ml(infer) in(t) out(tnew) model("{}")
            "#,
            model_path.display()
        ),
    )
    .unwrap();
    region
        .set_precision_policy(&hpacml_core::PrecisionPolicy::at(
            hpacml_core::Precision::Bf16,
        ))
        .unwrap();
    let binds = Bindings::new()
        .with("N", ROWS as i64)
        .with("M", COLS as i64);
    let grid: &[usize] = &[ROWS, COLS];
    let session = region
        .session(&binds, &[("t", grid), ("tnew", grid)], MAX_BATCH)
        .unwrap();

    let t: Vec<f32> = (0..MAX_BATCH * ROWS * COLS)
        .map(|k| (k as f32 * 0.017).sin())
        .collect();
    let mut tnew = vec![0.0f32; MAX_BATCH * ROWS * COLS];
    let step = |n: usize, tnew: &mut [f32]| {
        let cells = n * ROWS * COLS;
        let mut out = session
            .invoke_batch(n)
            .unwrap()
            .input("t", &t[..cells])
            .unwrap()
            .run(|| unreachable!())
            .unwrap();
        out.output("tnew", &mut tnew[..cells]).unwrap();
        out.finish().unwrap();
    };

    step(MAX_BATCH, &mut tnew);
    step(1, &mut tnew);
    region.reset_stats();
    const STEPS: usize = 30;
    let allocs = allocations_during(|| {
        for s in 0..STEPS {
            step(1 + s % MAX_BATCH, &mut tnew);
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state in-place stencil step allocated {allocs} times over {STEPS} steps"
    );
    let stats = region.stats();
    assert_eq!(stats.surrogate_invocations, 60);
    assert_eq!(stats.to_tensor_ns, 0, "every step read its grid in place");
    // Guards against a silent no-op: the interior was written.
    assert!(tnew[COLS + 1..2 * COLS - 1].iter().all(|v| *v != 0.0));
}
