//! The compiled-plan cache: compile once, execute many.
//!
//! A bridge plan is a pure function of `(array, direction, array shape,
//! integer bindings)`. AI-coupled workflows invoke the same region millions
//! of times with the same shapes, so re-deriving the plan per invocation is
//! pure overhead. [`PlanCache`] memoizes [`compile`] results behind a typed
//! key and counts hits/misses so the caching claim is observable (the Fig. 6
//! harness surfaces the counters).

use crate::plan::{compile, CompiledMap};
use crate::Result;
use hpacml_directive::ast::{Direction, MapDirective};
use hpacml_directive::sema::{Bindings, FunctorInfo};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cache key: everything a plan's compilation depends on. `Ord` because the
/// cache is a `BTreeMap` — bridge-layer data structures keep deterministic
/// walk order (hpacml-lint `no-hash-collections`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlanKey {
    pub array: String,
    pub direction: Direction,
    pub dims: Vec<usize>,
    /// `(name, value)` pairs in sorted order (as [`Bindings::iter`] yields).
    pub binds: Vec<(String, i64)>,
}

impl PlanKey {
    pub fn new(array: &str, direction: Direction, dims: &[usize], binds: &Bindings) -> Self {
        PlanKey {
            array: array.to_string(),
            direction,
            dims: dims.to_vec(),
            binds: binds.iter().map(|(n, v)| (n.to_string(), v)).collect(),
        }
    }
}

/// Thread-safe memoization of [`compile`] with hit/miss accounting.
#[derive(Debug, Default)]
pub struct PlanCache {
    plans: RwLock<BTreeMap<PlanKey, Arc<CompiledMap>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Fetch the plan for `key`, compiling (and caching) it on first use.
    /// Returns the plan and whether this call was a cache hit.
    pub fn get_or_compile(
        &self,
        key: PlanKey,
        info: &FunctorInfo,
        map: &MapDirective,
    ) -> Result<(Arc<CompiledMap>, bool)> {
        if let Some(plan) = self.plans.read().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(plan), true));
        }
        // Compile outside any lock, then double-check under the write lock so
        // two racing threads agree on a single cached plan.
        let compiled = Arc::new(compile(info, map, &key.dims, &bindings_of(&key.binds))?);
        let mut guard = self.plans.write();
        let plan = guard
            .entry(key)
            .or_insert_with(|| Arc::clone(&compiled))
            .clone();
        drop(guard);
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok((plan, false))
    }

    /// Plans compiled and retained.
    pub fn len(&self) -> usize {
        self.plans.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to compile.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

fn bindings_of(pairs: &[(String, i64)]) -> Bindings {
    let mut b = Bindings::new();
    for (name, value) in pairs {
        b.set(name.clone(), *value);
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpacml_directive::parse::parse_directive;
    use hpacml_directive::sema::analyze;
    use hpacml_directive::Directive;

    fn functor_info(src: &str) -> FunctorInfo {
        match parse_directive(src).unwrap() {
            Directive::Functor(f) => analyze(&f).unwrap(),
            other => panic!("{other:?}"),
        }
    }

    fn map_dir(src: &str) -> MapDirective {
        match parse_directive(src).unwrap() {
            Directive::Map(m) => m,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn second_lookup_hits_and_shares_the_plan() {
        let cache = PlanCache::new();
        let info = functor_info("tensor functor(id: [i, 0:1] = ([i]))");
        let map = map_dir("tensor map(to: id(x[0:N]))");
        let binds = Bindings::new().with("N", 4);
        let key = PlanKey::new("x", Direction::To, &[4], &binds);
        let (p1, hit1) = cache.get_or_compile(key.clone(), &info, &map).unwrap();
        let (p2, hit2) = cache.get_or_compile(key, &info, &map).unwrap();
        assert!(!hit1 && hit2);
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_dims_or_binds_are_distinct_entries() {
        let cache = PlanCache::new();
        let info = functor_info("tensor functor(id: [i, 0:1] = ([i]))");
        let map = map_dir("tensor map(to: id(x[0:N]))");
        for n in [4i64, 8, 4] {
            let binds = Bindings::new().with("N", n);
            let key = PlanKey::new("x", Direction::To, &[n as usize], &binds);
            cache.get_or_compile(key, &info, &map).unwrap();
        }
        assert_eq!(cache.len(), 2);
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn cached_plan_results_are_bit_identical_to_fresh() {
        let cache = PlanCache::new();
        let info =
            functor_info("tensor functor(st: [i, j, 0:5] = (([i-1, j], [i+1, j], [i, j-1:j+2])))");
        let map = map_dir("tensor map(to: st(t[1:N-1, 1:M-1]))");
        let binds = Bindings::new().with("N", 6).with("M", 7);
        let key = PlanKey::new("t", Direction::To, &[6, 7], &binds);
        let (cached, _) = cache.get_or_compile(key.clone(), &info, &map).unwrap();
        let (cached2, hit) = cache.get_or_compile(key, &info, &map).unwrap();
        assert!(hit);
        let fresh = compile(&info, &map, &[6, 7], &binds).unwrap();
        let grid: Vec<f32> = (0..42).map(|k| (k * 3) as f32).collect();
        let a = cached.gather(&grid).unwrap();
        let b = cached2.gather(&grid).unwrap();
        let c = fresh.gather(&grid).unwrap();
        assert_eq!(a.data(), c.data());
        assert_eq!(b.data(), c.data());
    }
}
