//! N threads racing `InferenceEngine::global()` on the same model path must
//! observe exactly one load (the engine re-checks under the write lock), and
//! every thread must see the same model instance.
//!
//! This file holds only this test so the global engine's load counter is not
//! perturbed by unrelated tests in the same process.

use hpacml_nn::spec::{Activation, ModelSpec};
use hpacml_nn::InferenceEngine;
use hpacml_tensor::Tensor;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[test]
fn global_engine_loads_same_path_exactly_once_across_threads() {
    let dir = std::env::temp_dir().join("hpacml-engine-concurrency");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("race.hml");
    let spec = ModelSpec::mlp(3, &[8], 2, Activation::Tanh, 0.0);
    let model = spec.build(99).unwrap();
    hpacml_nn::serialize::save_model(&path, &spec, &model, None, None).unwrap();

    let engine = InferenceEngine::global();
    engine.clear(); // drop anything earlier code in this process cached
    let loads_before = engine.load_count();

    let threads = 16;
    let go = Arc::new(AtomicBool::new(false));
    let x = Tensor::full([4, 3], 0.2f32);
    let outputs: Vec<Vec<f32>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let go = Arc::clone(&go);
                let path = path.clone();
                let x = x.clone();
                scope.spawn(move || {
                    // Spin so every thread hits `load` as simultaneously as
                    // the scheduler allows.
                    while !go.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                    let model = InferenceEngine::global().load(&path).unwrap();
                    model.infer(&x).unwrap().data().to_vec()
                })
            })
            .collect();
        go.store(true, Ordering::Release);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(
        engine.load_count() - loads_before,
        1,
        "racing threads must observe exactly one model load"
    );
    for out in &outputs[1..] {
        assert_eq!(out, &outputs[0], "all threads must see the same weights");
    }
}
