//! Training is one bit pattern at every pool width: the same seeds give
//! the same `.hml` bytes whether the GEMMs, convolutions and their weight
//! gradients run on one thread or split across several. Three models of
//! the paper's kinds each train for two epochs at pool widths 1, 2 and 3:
//! an MLP, ParticleFilter's default CNN (conv + max-pool + FC head) and a
//! MiniWeather spatial-preserving conv stack. Data are small so a debug
//! run stays short; the batches are still large enough that the parallel
//! kernels split them.

use hpacml_nn::serialize::save_model;
use hpacml_nn::spec::Activation;
use hpacml_nn::{train, InMemoryDataset, LayerSpec, ModelSpec, TrainConfig};
use hpacml_par::{with_pool, Pool};
use hpacml_tensor::Tensor;
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("hpacml-train-determinism")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Deterministic values in `[-1, 1)` for a tensor of shape `dims`.
fn values(dims: &[usize], seed: u64) -> Tensor {
    let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    Tensor::from_shape_fn(dims, |_| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
    })
}

/// ParticleFilter's default CNN (`particlefilter.rs`, `default_spec`) on an
/// `h × w` frame: conv 6×6 stride 3 + ReLU, 2×2 max-pool, FC 64 + ReLU, 2.
fn pf_cnn(h: usize, w: usize) -> ModelSpec {
    let (oh, ow) = ((h - 6) / 3 + 1, (w - 6) / 3 + 1);
    let (ph, pw) = ((oh - 2) / 2 + 1, (ow - 2) / 2 + 1);
    ModelSpec::new(
        vec![1, h, w],
        vec![
            LayerSpec::Conv2d {
                in_ch: 1,
                out_ch: 6,
                kernel: 6,
                stride: 3,
                pad: 0,
            },
            LayerSpec::ReLU,
            LayerSpec::MaxPool2d {
                kernel: 2,
                stride: 2,
            },
            LayerSpec::Flatten,
            LayerSpec::Linear {
                in_features: 6 * ph * pw,
                out_features: 64,
            },
            LayerSpec::ReLU,
            LayerSpec::Linear {
                in_features: 64,
                out_features: 2,
            },
        ],
    )
}

/// MiniWeather's CNN (`MiniWeather::cnn_spec`): four state variables on an
/// `nz × nx` grid through a padded `k × k` conv to `hidden` channels, Tanh,
/// and a padded conv back to four.
fn miniweather_cnn(nz: usize, nx: usize, hidden: usize, k: usize) -> ModelSpec {
    ModelSpec::new(
        vec![4, nz, nx],
        vec![
            LayerSpec::Conv2d {
                in_ch: 4,
                out_ch: hidden,
                kernel: k,
                stride: 1,
                pad: k / 2,
            },
            LayerSpec::Tanh,
            LayerSpec::Conv2d {
                in_ch: hidden,
                out_ch: 4,
                kernel: k,
                stride: 1,
                pad: k / 2,
            },
        ],
    )
}

/// Train `spec` (built from seed 5) for two epochs on `data` at a pool of
/// `threads` threads and return the saved `.hml` bytes.
fn trained_bytes(name: &str, spec: &ModelSpec, data: &InMemoryDataset, threads: usize) -> Vec<u8> {
    let mut model = spec.build(5).unwrap();
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 32,
        seed: 9,
        ..TrainConfig::default()
    };
    with_pool(&Pool::new(threads - 1), || {
        train(&mut model, data, None, &cfg).unwrap();
    });
    let path = tmpdir(&format!("{name}-{threads}")).join("m.hml");
    save_model(&path, spec, &model, None, None).unwrap();
    std::fs::read(&path).unwrap()
}

fn assert_same_at_every_width(name: &str, spec: &ModelSpec, data: &InMemoryDataset) {
    let one = trained_bytes(name, spec, data, 1);
    for threads in [2, 3] {
        let got = trained_bytes(name, spec, data, threads);
        assert!(
            got == one,
            "{name}: the model trained on {threads} threads differs from the 1-thread one"
        );
    }
}

#[test]
fn mlp_trains_to_the_same_bytes_at_every_pool_width() {
    let spec = ModelSpec::mlp(6, &[128, 64], 1, Activation::ReLU, 0.0);
    let data = InMemoryDataset::new(values(&[256, 6], 1), values(&[256, 1], 2)).unwrap();
    assert_same_at_every_width("mlp", &spec, &data);
}

#[test]
fn particlefilter_cnn_trains_to_the_same_bytes_at_every_pool_width() {
    let spec = pf_cnn(30, 30);
    let data = InMemoryDataset::new(values(&[64, 1, 30, 30], 3), values(&[64, 2], 4)).unwrap();
    assert_same_at_every_width("pf-cnn", &spec, &data);
}

#[test]
fn miniweather_cnn_trains_to_the_same_bytes_at_every_pool_width() {
    let spec = miniweather_cnn(12, 24, 8, 3);
    let data =
        InMemoryDataset::new(values(&[64, 4, 12, 24], 5), values(&[64, 4, 12, 24], 6)).unwrap();
    assert_same_at_every_width("miniweather-cnn", &spec, &data);
}
