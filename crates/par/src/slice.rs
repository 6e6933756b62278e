//! Safe slice-oriented parallel helpers built on the pool.
//!
//! The soundness argument for the `unsafe` below is the classic disjoint-
//! chunks one: each task receives a sub-slice reconstructed from the base
//! pointer over a range that no other task overlaps (chunk indices are handed
//! out exactly once by the pool's per-participant claim cursors, in `grain`
//! multiples, whether claimed by the owner or stolen), and the caller of
//! `parallel_for` does not return until every task has finished, so no task
//! outlives the `&mut [T]` borrow.
//!
//! These helpers dispatch on the *current* pool — the innermost
//! [`crate::with_pool`] override if one is active, else the global pool.

/// Process `data` in parallel, `chunk`-elements at a time. The closure
/// receives the chunk's starting element index and the mutable chunk.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let len = data.len();
    if len == 0 {
        return;
    }
    let chunk = chunk.max(1);
    let base = data.as_mut_ptr() as usize;
    crate::pool::parallel_for(len, chunk, |r| {
        // SAFETY: `r` ranges handed out by the pool are disjoint and within
        // `0..len`; the borrow of `data` outlives the job (completion barrier).
        let sub = unsafe { std::slice::from_raw_parts_mut((base as *mut T).add(r.start), r.len()) };
        f(r.start, sub);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_chunks_mut_writes_every_element() {
        let mut v = vec![0usize; 5000];
        par_chunks_mut(&mut v, 37, |start, sub| {
            for (k, x) in sub.iter_mut().enumerate() {
                *x = start + k;
            }
        });
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i);
        }
    }

    #[test]
    fn empty_slice_is_fine() {
        let mut v: Vec<u8> = vec![];
        par_chunks_mut(&mut v, 8, |_, _| panic!("must not run"));
    }
}
