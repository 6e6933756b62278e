//! The inference engine: lazy model loading with a per-path cache.
//!
//! §IV-B of the paper: "the backend loads the model file if it has not
//! already been loaded", then runs inference through Torch. This is that
//! backend. The global engine is shared by every approx region in the
//! process; loads are counted so tests (and the Fig. 6 harness) can verify
//! caching behaviour.

use crate::serialize::{load_model, SavedModel};
use crate::Result;
use hpacml_faults::fault_point;
use hpacml_faults::retry::RetryPolicy;
use hpacml_tensor::Tensor;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Model cache + inference entry point.
pub struct InferenceEngine {
    // BTreeMap, not HashMap: kernel-layer crates keep every data structure's
    // walk order deterministic (hpacml-lint `no-hash-collections`), and a
    // path-keyed model cache is lookup-dominated anyway.
    cache: RwLock<BTreeMap<PathBuf, Arc<SavedModel>>>,
    loads: AtomicU64,
    /// Transient-failure budget for the disk load (deterministic tick
    /// backoff; see `hpacml_faults::retry`).
    retry: RetryPolicy,
}

impl InferenceEngine {
    pub fn new() -> Self {
        Self::with_retry(RetryPolicy::default())
    }

    /// An engine with an explicit retry budget for model loads.
    pub fn with_retry(retry: RetryPolicy) -> Self {
        InferenceEngine {
            cache: RwLock::new(BTreeMap::new()),
            loads: AtomicU64::new(0),
            retry,
        }
    }

    /// The process-wide engine.
    pub fn global() -> &'static InferenceEngine {
        static GLOBAL: OnceLock<InferenceEngine> = OnceLock::new();
        GLOBAL.get_or_init(InferenceEngine::new)
    }

    /// Fetch a model, loading and caching it on first use.
    ///
    /// Concurrent callers racing on the same path observe exactly one load:
    /// the miss path re-checks under the write lock before touching disk.
    /// A load that fails transiently (I/O flake) is retried under the
    /// engine's [`RetryPolicy`]; only an exhausted budget surfaces the
    /// error.
    pub fn load(&self, path: impl AsRef<Path>) -> Result<Arc<SavedModel>> {
        let path = path.as_ref();
        if let Some(m) = self.cache.read().get(path) {
            return Ok(Arc::clone(m));
        }
        let mut cache = self.cache.write();
        if let Some(m) = cache.get(path) {
            return Ok(Arc::clone(m));
        }
        let out = self.retry.run(|_| -> Result<SavedModel> {
            fault_point!("nn.load");
            load_model(path)
        });
        let loaded = Arc::new(out.result?);
        self.loads.fetch_add(1, Ordering::Relaxed);
        cache.insert(path.to_path_buf(), Arc::clone(&loaded));
        Ok(loaded)
    }

    /// Run end-to-end inference (normalization included) with the model at
    /// `path` on a batch `x`.
    pub fn infer(&self, path: impl AsRef<Path>, x: &Tensor) -> Result<Tensor> {
        self.load(path)?.infer(x)
    }

    /// Number of distinct model loads performed (cache misses).
    pub fn load_count(&self) -> u64 {
        self.loads.load(Ordering::Relaxed)
    }

    /// Drop a cached model (e.g. after retraining in a workflow loop).
    pub fn evict(&self, path: impl AsRef<Path>) {
        self.cache.write().remove(path.as_ref());
    }

    /// Drop every cached model.
    pub fn clear(&self) {
        self.cache.write().clear();
    }
}

impl Default for InferenceEngine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::save_model;
    use crate::spec::{Activation, ModelSpec};

    fn write_model(name: &str, seed: u64) -> PathBuf {
        let dir = std::env::temp_dir().join("hpacml-engine-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let spec = ModelSpec::mlp(2, &[4], 1, Activation::Tanh, 0.0);
        let model = spec.build(seed).unwrap();
        save_model(&path, &spec, &model, None, None).unwrap();
        path
    }

    #[test]
    fn loads_once_and_caches() {
        let engine = InferenceEngine::new();
        let path = write_model("cached.hml", 1);
        let x = Tensor::full([3, 2], 0.1f32);
        let a = engine.infer(&path, &x).unwrap();
        let b = engine.infer(&path, &x).unwrap();
        assert_eq!(a.data(), b.data());
        assert_eq!(engine.load_count(), 1);
        engine.evict(&path);
        let _ = engine.infer(&path, &x).unwrap();
        assert_eq!(engine.load_count(), 2);
    }

    #[test]
    fn distinct_paths_are_distinct_models() {
        let engine = InferenceEngine::new();
        let p1 = write_model("m1.hml", 1);
        let p2 = write_model("m2.hml", 2);
        let x = Tensor::full([1, 2], 0.7f32);
        let y1 = engine.infer(&p1, &x).unwrap();
        let y2 = engine.infer(&p2, &x).unwrap();
        assert_ne!(y1.data(), y2.data());
        assert_eq!(engine.load_count(), 2);
        engine.clear();
        let _ = engine.infer(&p1, &x).unwrap();
        assert_eq!(engine.load_count(), 3);
    }

    #[test]
    fn missing_file_is_an_error() {
        let engine = InferenceEngine::new();
        assert!(engine.load("/definitely/not/here.hml").is_err());
    }

    #[test]
    fn global_engine_is_singleton() {
        let a = InferenceEngine::global() as *const _;
        let b = InferenceEngine::global() as *const _;
        assert_eq!(a, b);
    }
}
