//! Persistent worker pool with chunked self-scheduling and work stealing.
//!
//! # Dispatch model
//!
//! A job splits `0..len` into `grain`-sized chunks, and the chunk index
//! space is partitioned evenly into one bounded queue per *participant*
//! (every worker thread plus the caller, which always works too). Each
//! queue is a single atomic cursor: the owner claims chunks from the
//! front of its own span, and a participant whose span is exhausted
//! *steals* by claiming from another participant's cursor — owner and
//! thief use the identical compare-exchange, so a chunk index is handed
//! out exactly once no matter who asks. Long chunks therefore cannot
//! strand work behind a busy participant the way a static even partition
//! can, and idle participants self-balance without any coordination
//! beyond the per-queue cursor.
//!
//! # Zero-allocation dispatch
//!
//! The queues, completion counter and per-participant statistics are all
//! allocated once when the pool is built; dispatching a job only writes
//! the preallocated slot. This keeps `parallel_for` on the steady-state
//! inference path allocation-free (proven by the counting-allocator
//! harnesses in `hpacml-nn`). Because the slot is reused, every cursor is
//! tagged with the job's sequence number: a worker that raced past the
//! end of an old job can never claim a chunk of a newer one (its
//! compare-exchange fails on the tag), which is what makes slot reuse
//! sound without a per-job allocation.
//!
//! # Determinism
//!
//! Stealing changes *which thread* runs a chunk and *when*, never what
//! the chunk computes: tasks own disjoint output ranges and each output
//! element keeps its one fixed accumulation order (see
//! `hpacml-tensor::gemm`). Results are therefore bitwise identical across
//! worker counts, steal schedules and repeated runs — pinned by the
//! `gemm_determinism` integration suite.

use parking_lot::{Condvar, Mutex};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Lifetime-erased pointer to the task closure of an in-flight job.
///
/// # Safety
///
/// The pointee is a `dyn Fn(Range<usize>) + Sync` borrowed from the caller's
/// stack. It is only dereferenced while the job it belongs to is live, and the
/// caller of [`Pool::parallel_for`] blocks until the job's completion barrier
/// trips (`remaining == 0`), so the borrow is never outlived. A participant
/// holding a *stale* descriptor cannot reach the pointer at all: its chunk
/// claims fail on the job sequence tag before any dereference. `Sync` on the
/// closure makes concurrent invocation sound; the raw pointer itself is made
/// `Send + Sync` here because those invariants are upheld by construction.
#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn(Range<usize>) + Sync));
// SAFETY: see the type-level safety contract above — the pointee outlives
// every job that dereferences it (completion barrier), so sending the
// pointer to worker threads is sound.
unsafe impl Send for TaskPtr {}
// SAFETY: the pointee is `Sync`, so shared `&TaskPtr` access (concurrent
// invocation from many workers) is sound; see the contract above.
unsafe impl Sync for TaskPtr {}

/// Everything a participant needs to work on the current job. Published
/// under the state mutex (fresh workers copy it after observing a new
/// epoch) and kept by value while draining, so the reusable dispatch slot
/// can be rewritten for the next job without tearing anyone's view.
#[derive(Clone, Copy)]
struct JobDesc {
    task: TaskPtr,
    /// One past the last index of the iteration space.
    len: usize,
    /// Chunk size handed to each claim.
    grain: usize,
    /// Total chunks: `len.div_ceil(grain)`.
    chunks: u32,
    /// Job sequence number; every cursor claim is tagged with it so a
    /// stale participant can never claim chunks of a newer job.
    seq: u32,
    /// `false` for [`Pool::broadcast`] jobs: each participant runs only
    /// its own queue, guaranteeing per-thread execution (used for
    /// per-worker scratch warm-up).
    steal: bool,
}

impl JobDesc {
    /// Chunk-index span `[base, limit)` owned by participant `p` of `n`:
    /// the even partition the stealing then rebalances.
    #[inline]
    fn span(&self, p: usize, n: usize) -> (u32, u32) {
        let c = self.chunks as usize;
        ((p * c / n) as u32, ((p + 1) * c / n) as u32)
    }
}

struct DispatchState {
    /// Descriptor of the in-flight job, if any.
    desc: Option<JobDesc>,
    /// Bumped on every dispatch (and on shutdown) to wake parked workers.
    epoch: u64,
    /// Next job sequence number for cursor tagging.
    next_seq: u32,
    shutdown: bool,
}

/// Lifetime per-participant counters (index 0 aggregates caller threads,
/// index `i + 1` is worker `i`).
#[derive(Default)]
struct ParticipantStat {
    /// Chunks this participant executed.
    chunks: AtomicU64,
    /// Chunks claimed from another participant's queue.
    steals: AtomicU64,
    /// Jobs in which this participant executed at least one chunk — the
    /// numerator of the occupancy diagnostic.
    jobs: AtomicU64,
}

struct Shared {
    state: Mutex<DispatchState>,
    /// Workers park here waiting for a new epoch.
    work_cv: Condvar,
    /// Serializes dispatchers: the job slot below is reused in place, so at
    /// most one job may be in flight. Acquired with `try_lock` only — a
    /// caller that loses the race runs its job inline (liveness, and no
    /// queueing allocation).
    dispatch: Mutex<()>,
    /// One claim cursor per participant: `(job_seq << 32) | next_chunk`.
    /// Preallocated at pool build; rewritten per job under dispatch
    /// exclusivity (see [`Pool::run_job`]).
    queues: Vec<AtomicU64>,
    /// Chunks of the current job not yet completed; the completion barrier.
    remaining: AtomicUsize,
    /// Set if any chunk of the current job panicked.
    panicked: AtomicBool,
    jobs_dispatched: AtomicU64,
    stats: Vec<ParticipantStat>,
}

/// Claim one chunk from `cursor` if it still belongs to job `seq` and its
/// span has room. Owner and thief call this identically — the
/// compare-exchange is what makes "hand out each chunk exactly once" hold
/// under any interleaving.
#[inline]
fn claim(cursor: &AtomicU64, seq: u32, limit: u32) -> Option<u32> {
    let mut cur = cursor.load(Ordering::Acquire);
    loop {
        if (cur >> 32) as u32 != seq {
            return None; // a newer job owns this queue now
        }
        let next = cur as u32;
        if next >= limit {
            return None;
        }
        match cursor.compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return Some(next),
            Err(actual) => cur = actual,
        }
    }
}

/// Run one claimed chunk and tick the completion barrier.
fn run_chunk(shared: &Shared, desc: &JobDesc, chunk: u32) {
    let start = chunk as usize * desc.grain;
    let stop = (start + desc.grain).min(desc.len);
    // SAFETY: the pointee is live for the whole job — the caller of
    // `parallel_for` blocks on the completion barrier (`remaining == 0`)
    // before its frame (which owns the closure) can end, and a chunk of
    // this job can only be claimed while the job is in flight (sequence
    // tag check in `claim`).
    let task = unsafe { &*desc.task.0 };
    if catch_unwind(AssertUnwindSafe(|| task(start..stop))).is_err() {
        shared.panicked.store(true, Ordering::Relaxed);
    }
    shared.remaining.fetch_sub(1, Ordering::Release);
}

/// Work on the current job as participant `me`: drain the own queue
/// front-to-back, then sweep the other queues cyclically and steal.
/// Cursors only move forward, so one sweep suffices — a queue observed
/// empty stays empty for this job.
fn drain(shared: &Shared, desc: &JobDesc, me: usize) {
    let n = shared.queues.len();
    let mut executed = 0u64;
    let mut stolen = 0u64;
    let sweep = if desc.steal { n } else { 1 };
    for off in 0..sweep {
        let victim = (me + off) % n;
        let (_, limit) = desc.span(victim, n);
        while let Some(chunk) = claim(&shared.queues[victim], desc.seq, limit) {
            run_chunk(shared, desc, chunk);
            executed += 1;
            if off > 0 {
                stolen += 1;
            }
        }
    }
    let st = &shared.stats[me];
    if executed > 0 {
        st.chunks.fetch_add(executed, Ordering::Relaxed);
        st.jobs.fetch_add(1, Ordering::Relaxed);
    }
    if stolen > 0 {
        st.steals.fetch_add(stolen, Ordering::Relaxed);
    }
}

thread_local! {
    /// True while this thread is executing inside a pool task (worker or
    /// participating caller); nested `parallel_for` calls then run
    /// sequentially inline.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// RAII in-worker flag: restored even if the task unwinds, so a panicking
/// inline task cannot leave the thread permanently marked as a worker.
struct InWorkerGuard {
    was: bool,
}

impl InWorkerGuard {
    fn set() -> Self {
        InWorkerGuard {
            was: IN_WORKER.with(|f| f.replace(true)),
        }
    }
}

impl Drop for InWorkerGuard {
    fn drop(&mut self) {
        let was = self.was;
        IN_WORKER.with(|f| f.set(was));
    }
}

/// Run a job inline on the calling thread, preserving the grain-multiple
/// chunking (callers like `par_chunks_mut` rely on every range starting
/// at a multiple of `grain` with length <= grain). The thread is flagged
/// in-worker for the duration, exactly as it would be when participating
/// in a dispatched job, so the nesting rule is uniform: task bodies never
/// re-dispatch.
fn run_inline(len: usize, grain: usize, task: &(dyn Fn(Range<usize>) + Sync)) {
    let _guard = InWorkerGuard::set();
    let mut s = 0;
    while s < len {
        let e = (s + grain).min(len);
        task(s..e);
        s = e;
    }
}

/// Best-effort thread pinning for persistent worker affinity.
mod affinity {
    /// Pin the calling thread to `cpu` (modulo the mask width). Returns
    /// whether the kernel accepted the mask; failure (sandboxes, exotic
    /// platforms) is harmless — the thread simply stays unpinned.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    pub(crate) fn pin_current_thread(cpu: usize) -> bool {
        const WORDS: usize = 16; // 1024-bit CPU mask
        let mut mask = [0usize; WORDS];
        mask[(cpu / 64) % WORDS] |= 1usize << (cpu % 64);
        let ret: isize;
        // SAFETY: raw `sched_setaffinity(0, sizeof(mask), &mask)` syscall
        // (number 203 on x86_64). pid 0 targets the calling thread; the
        // kernel only reads `WORDS * 8` bytes from the mask, which is a
        // live stack array for the duration of the call. `syscall`
        // clobbers rcx/r11 per the ABI, declared below.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") 203isize => ret,
                in("rdi") 0,
                in("rsi") WORDS * 8,
                in("rdx") mask.as_ptr(),
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret == 0
    }

    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    pub(crate) fn pin_current_thread(_cpu: usize) -> bool {
        false
    }
}

/// A persistent pool of worker threads.
///
/// All parallel work in the workspace — accurate benchmark kernels, NN
/// matmul/conv kernels, data-bridge sweeps — is dispatched through one of
/// these (normally the [`global`] pool).
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    workers: usize,
}

impl Pool {
    /// Create a pool with `workers` worker threads (callers participate too,
    /// so total parallelism is `workers + 1`). Workers are not pinned; the
    /// [`global`] pool uses `Pool::with_affinity`.
    pub fn new(workers: usize) -> Self {
        Self::with_affinity(workers, false)
    }

    /// [`Pool::new`] with optional persistent worker affinity: worker `i`
    /// pins itself to CPU `(i + 1) % ncpus` (the caller keeps CPU 0's
    /// share), giving a stable worker→CPU mapping where the platform
    /// allows (`sched_setaffinity`; silently skipped elsewhere or on a
    /// single-CPU host).
    pub(crate) fn with_affinity(workers: usize, pin: bool) -> Self {
        let participants = workers + 1;
        let ncpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(DispatchState {
                desc: None,
                epoch: 0,
                next_seq: 1,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            dispatch: Mutex::new(()),
            queues: (0..participants).map(|_| AtomicU64::new(0)).collect(),
            remaining: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            jobs_dispatched: AtomicU64::new(0),
            stats: (0..participants)
                .map(|_| ParticipantStat::default())
                .collect(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let cpu = (pin && ncpus > 1).then_some((i + 1) % ncpus);
                std::thread::Builder::new()
                    .name(format!("hpacml-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i + 1, cpu))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Pool {
            shared,
            handles,
            workers,
        }
    }

    /// Number of worker threads (not counting the caller).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Statistics snapshot (see [`crate::PoolStats`] for the derived
    /// steal-ratio and occupancy diagnostics).
    pub fn stats(&self) -> crate::PoolStats {
        let s = &self.shared;
        let participant_chunks: Vec<u64> = s
            .stats
            .iter()
            .map(|p| p.chunks.load(Ordering::Relaxed))
            .collect();
        let participant_jobs: Vec<u64> = s
            .stats
            .iter()
            .map(|p| p.jobs.load(Ordering::Relaxed))
            .collect();
        crate::PoolStats {
            jobs: s.jobs_dispatched.load(Ordering::Relaxed),
            workers: self.workers,
            chunks: participant_chunks.iter().sum(),
            steals: s
                .stats
                .iter()
                .map(|p| p.steals.load(Ordering::Relaxed))
                .sum(),
            participant_chunks,
            participant_jobs,
        }
    }

    /// Run `task` over `0..len` in parallel, handing out `grain`-sized chunks.
    ///
    /// The caller participates in the work and returns only after every chunk
    /// has completed. Panics in any chunk are re-raised on the caller after
    /// the barrier (so the pool itself never deadlocks on a panicked task).
    /// Dispatch is allocation-free: the job slot is preallocated, and a
    /// second caller arriving while a job is in flight runs its own job
    /// inline instead of queueing.
    pub fn parallel_for<F>(&self, len: usize, grain: usize, task: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        if len == 0 {
            return;
        }
        let grain = grain.max(1);
        // Sequential fast paths: tiny jobs and nested calls.
        let nested = IN_WORKER.with(|f| f.get());
        if nested || self.workers == 0 || len <= grain {
            run_inline(len, grain, &task);
            return;
        }
        // One dispatch at a time per pool: the slot is reused in place, so a
        // concurrent caller (another session thread) runs inline rather than
        // blocking — full liveness, no allocation, no cross-job interference.
        // The guard is held across the whole job (released on unwind too).
        let Some(_dispatch) = self.shared.dispatch.try_lock() else {
            run_inline(len, grain, &task);
            return;
        };
        self.run_job(len, grain, &task, true);
    }

    /// Run `f(participant)` exactly once on every participant — each worker
    /// thread and the caller. Stealing is disabled for the job, so each
    /// participant is guaranteed to execute its own (single-chunk) queue.
    /// Used to warm per-thread resources (GEMM scratch, workspaces) so the
    /// parallel forward path is allocation-free from the first dispatch.
    ///
    /// Best-effort from nested contexts or when another dispatch is in
    /// flight: `f(0)` then runs once on the calling thread only (workers
    /// warm lazily on their first real task instead).
    pub fn broadcast<F>(&self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let run_local = || {
            let _guard = InWorkerGuard::set();
            f(0);
        };
        if IN_WORKER.with(|g| g.get()) || self.workers == 0 {
            run_local();
            return;
        }
        let Some(_dispatch) = self.shared.dispatch.try_lock() else {
            run_local();
            return;
        };
        let task = |r: Range<usize>| {
            for i in r {
                f(i);
            }
        };
        self.run_job(self.workers + 1, 1, &task, false);
    }

    /// Publish a job into the preallocated slot, participate, and block on
    /// the completion barrier. Caller must hold the `dispatch` lock.
    fn run_job(&self, len: usize, grain: usize, task: &(dyn Fn(Range<usize>) + Sync), steal: bool) {
        let shared = &*self.shared;
        let chunks = len.div_ceil(grain);
        assert!(
            chunks <= u32::MAX as usize,
            "parallel_for: more than 2^32 chunks"
        );
        // SAFETY: erase the closure's lifetime. The completion barrier below
        // guarantees every participant is done with `task` before this frame
        // ends, and stale descriptors cannot claim chunks (sequence tag).
        let erased: &'static (dyn Fn(Range<usize>) + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn(Range<usize>) + Sync), _>(task) };
        let participants = shared.queues.len();
        let desc = {
            let mut st = self.shared.state.lock();
            let seq = st.next_seq;
            st.next_seq = st.next_seq.wrapping_add(1);
            let desc = JobDesc {
                task: TaskPtr(erased as *const _),
                len,
                grain,
                chunks: chunks as u32,
                seq,
                steal,
            };
            // The previous job fully completed (dispatch exclusivity +
            // barrier), so the slot fields are quiescent and safe to rewrite.
            shared.remaining.store(chunks, Ordering::Relaxed);
            shared.panicked.store(false, Ordering::Relaxed);
            for (p, q) in shared.queues.iter().enumerate() {
                let (base, _) = desc.span(p, participants);
                q.store(((seq as u64) << 32) | base as u64, Ordering::Release);
            }
            st.desc = Some(desc);
            st.epoch += 1;
            shared.jobs_dispatched.fetch_add(1, Ordering::Relaxed);
            desc
        };
        self.shared.work_cv.notify_all();

        // The caller works too — flagged as in-worker for the duration so a
        // nested `parallel_for` issued from inside its chunks runs inline
        // (the documented nesting rule).
        {
            let _guard = InWorkerGuard::set();
            drain(shared, &desc, 0);
        }

        // Completion barrier: spin briefly, then yield. Chunks are sized so
        // that the tail wait is short; yielding avoids burning a core when a
        // single long chunk straggles.
        let mut spins = 0u32;
        while shared.remaining.load(Ordering::Acquire) != 0 {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }

        // Retire the job so late-waking workers see an empty slot and park.
        {
            let mut st = self.shared.state.lock();
            st.desc = None;
        }

        if shared.panicked.load(Ordering::Relaxed) {
            panic!("hpacml-par: a parallel_for task panicked");
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
            st.epoch += 1;
        }
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, me: usize, pin_cpu: Option<usize>) {
    if let Some(cpu) = pin_cpu {
        affinity::pin_current_thread(cpu);
    }
    IN_WORKER.with(|f| f.set(true));
    let mut seen_epoch = 0u64;
    loop {
        let desc = {
            let mut st = shared.state.lock();
            while st.epoch == seen_epoch && !st.shutdown {
                shared.work_cv.wait(&mut st);
            }
            if st.shutdown {
                return;
            }
            seen_epoch = st.epoch;
            st.desc
        };
        if let Some(desc) = desc {
            drain(shared, &desc, me);
        }
    }
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

/// The `HPACML_THREADS` contract: total thread count (workers + caller).
///
/// * unset, empty, or unparseable → `available_parallelism()` (auto);
/// * `0` or `1` → 1 total thread (caller-only pool, no workers; `0` is
///   clamped so it cannot mean "no threads at all");
/// * `N ≥ 2` → `N - 1` workers plus the participating caller.
pub(crate) fn total_threads_from_env(raw: Option<&str>) -> usize {
    match raw
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .and_then(|s| s.parse::<usize>().ok())
    {
        Some(n) => n.max(1),
        None => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
    }
}

/// The process-wide pool, built on first use with
/// `total_threads_from_env` (`HPACML_THREADS`) and persistent worker
/// affinity.
pub fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| {
        let total = total_threads_from_env(std::env::var("HPACML_THREADS").ok().as_deref());
        Pool::with_affinity(total - 1, true)
    })
}

thread_local! {
    /// Innermost `with_pool` override for this thread, if any.
    static CURRENT_POOL: std::cell::Cell<Option<*const Pool>> =
        const { std::cell::Cell::new(None) };
}

/// Run `f` with `pool` as this thread's dispatch target for the free
/// functions ([`parallel_for`], [`crate::par_chunks_mut`], …) instead of
/// the global pool. Restores the previous target on exit, including on
/// unwind. This is how benches and tests compare thread counts within one
/// process — the global pool's count is fixed by the environment at first
/// use, but an override pool can have any worker count.
pub fn with_pool<R>(pool: &Pool, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<*const Pool>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0;
            CURRENT_POOL.with(|c| c.set(prev));
        }
    }
    let prev = CURRENT_POOL.with(|c| c.replace(Some(pool as *const Pool)));
    let _restore = Restore(prev);
    f()
}

/// Dispatch target for the free functions: the innermost [`with_pool`]
/// override, else the global pool.
fn with_current<R>(f: impl FnOnce(&Pool) -> R) -> R {
    match CURRENT_POOL.with(|c| c.get()) {
        // SAFETY: the pointer was created from a live `&Pool` in
        // `with_pool`, whose scope both outlives this call (it is still on
        // the stack of this same thread) and restores the previous value
        // on exit, so the pointee is alive.
        Some(p) => f(unsafe { &*p }),
        None => f(global()),
    }
}

/// Total threads the current dispatch target brings to bear (workers of
/// the innermost [`with_pool`] override or the global pool, plus the
/// caller). The "cores in use" heuristics in `hpacml-tensor` are pure
/// functions of shapes and this number.
pub fn current_parallelism() -> usize {
    with_current(|p| p.workers() + 1)
}

/// Convenience: `parallel_for` on the current pool (see [`with_pool`]).
pub fn parallel_for<F>(len: usize, grain: usize, task: F)
where
    F: Fn(Range<usize>) + Sync,
{
    with_current(|p| p.parallel_for(len, grain, task))
}

/// Convenience: `broadcast` on the current pool.
pub fn broadcast<F>(f: F)
where
    F: Fn(usize) + Sync,
{
    with_current(|p| p.broadcast(f))
}

/// Run two independent closures, potentially in parallel, returning both
/// results. Routed through the pool (a two-chunk job — no ad-hoc thread
/// spawn); runs sequentially inside pool workers or on a workerless pool.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let fa = Mutex::new(Some(a));
    let fb = Mutex::new(Some(b));
    let ra: Mutex<Option<RA>> = Mutex::new(None);
    let rb: Mutex<Option<RB>> = Mutex::new(None);
    with_current(|p| {
        p.parallel_for(2, 1, |r| {
            for i in r {
                if i == 0 {
                    let f = fa.lock().take().expect("join: side A claimed twice");
                    *ra.lock() = Some(f());
                } else {
                    let f = fb.lock().take().expect("join: side B claimed twice");
                    *rb.lock() = Some(f());
                }
            }
        })
    });
    (
        ra.into_inner().expect("join: side A never ran"),
        rb.into_inner().expect("join: side B never ran"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn parallel_for_covers_every_index_exactly_once() {
        let pool = Pool::new(3);
        let n = 10_001;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(n, 64, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn zero_len_and_tiny_jobs_run_inline() {
        let pool = Pool::new(2);
        pool.parallel_for(0, 16, |_| panic!("must not run"));
        let count = AtomicU64::new(0);
        pool.parallel_for(3, 16, |r| {
            count.fetch_add(r.len() as u64, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn nested_calls_run_sequentially_without_deadlock() {
        let pool = Pool::new(2);
        let count = AtomicU64::new(0);
        pool.parallel_for(8, 1, |outer| {
            for _ in outer {
                // Nested dispatch inside a task must not deadlock.
                crate::pool::global().parallel_for(100, 10, |inner| {
                    count.fetch_add(inner.len() as u64, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 800);
    }

    #[test]
    fn pool_is_reusable_across_many_jobs() {
        let pool = Pool::new(3);
        for round in 1..50usize {
            let acc = AtomicUsize::new(0);
            pool.parallel_for(round * 37, 8, |r| {
                acc.fetch_add(r.len(), Ordering::Relaxed);
            });
            assert_eq!(acc.load(Ordering::Relaxed), round * 37);
        }
        let stats = pool.stats();
        assert!(stats.jobs > 0);
        // Every chunk executed is attributed to exactly one participant.
        assert_eq!(
            stats.chunks,
            stats.participant_chunks.iter().sum::<u64>(),
            "chunk attribution must be exhaustive"
        );
        assert!(stats.steals <= stats.chunks);
    }

    #[test]
    #[should_panic(expected = "parallel_for task panicked")]
    fn task_panic_propagates_to_caller() {
        let pool = Pool::new(2);
        pool.parallel_for(1000, 10, |r| {
            if r.start == 500 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn pool_survives_a_panicked_job() {
        let pool = Pool::new(2);
        let res = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for(100, 5, |r| {
                if r.start == 50 {
                    panic!("boom");
                }
            });
        }));
        assert!(res.is_err());
        // The slot must be clean: subsequent jobs complete normally.
        let acc = AtomicUsize::new(0);
        pool.parallel_for(1000, 16, |r| {
            acc.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(acc.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn join_runs_both_and_returns_results() {
        let (a, b) = join(|| 2 + 2, || "ok".to_string());
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn broadcast_reaches_every_participant() {
        let workers = 3;
        let pool = Pool::new(workers);
        let seen: Vec<AtomicUsize> = (0..workers + 1).map(|_| AtomicUsize::new(0)).collect();
        pool.broadcast(|p| {
            seen[p].fetch_add(1, Ordering::Relaxed);
        });
        for (p, s) in seen.iter().enumerate() {
            assert_eq!(
                s.load(Ordering::Relaxed),
                1,
                "participant {p} must run the broadcast exactly once"
            );
        }
    }

    #[test]
    fn broadcast_runs_inline_when_nested_or_workerless() {
        let pool = Pool::new(0);
        let count = AtomicUsize::new(0);
        pool.broadcast(|p| {
            assert_eq!(p, 0);
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);

        let pool = Pool::new(2);
        let count = AtomicUsize::new(0);
        pool.parallel_for(2, 1, |_| {
            pool.broadcast(|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 2); // once per outer chunk
    }

    #[test]
    fn with_pool_overrides_free_functions() {
        let pool = Pool::new(2);
        let before = pool.stats().jobs;
        with_pool(&pool, || {
            crate::parallel_for(10_000, 16, |_| {});
        });
        assert!(
            pool.stats().jobs > before,
            "free parallel_for must dispatch on the override pool"
        );
        assert_eq!(with_pool(&pool, crate::current_parallelism), 3);
    }

    #[test]
    fn env_thread_count_contract() {
        // 0 clamps to 1 (caller-only), 1 is caller-only, N is N.
        assert_eq!(total_threads_from_env(Some("0")), 1);
        assert_eq!(total_threads_from_env(Some("1")), 1);
        assert_eq!(total_threads_from_env(Some("8")), 8);
        assert_eq!(total_threads_from_env(Some(" 2 ")), 2);
        // Garbage, empty and unset fall back to auto-detection.
        let auto = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        assert_eq!(total_threads_from_env(Some("garbage")), auto);
        assert_eq!(total_threads_from_env(Some("")), auto);
        assert_eq!(total_threads_from_env(Some("-3")), auto);
        assert_eq!(total_threads_from_env(None), auto);
    }

    #[test]
    fn dropping_pool_joins_workers() {
        let pool = Pool::new(4);
        pool.parallel_for(100, 10, |_| {});
        drop(pool); // must not hang
    }
}
