//! Accidental damage to a `.hml` v3 model: **every** truncation and
//! **every** single-bit flip of a small valid file is a typed
//! `NnError::Serialize` (or `Io`) — never a `SavedModel`, so a flipped
//! weight bit can no longer load cleanly and serve. Plus: arbitrary bytes
//! behind a valid magic and any known version never panic the loader.
//! (`alloc_free_crafted.rs` is the adversarial side: lies written under a
//! matching checksum.)

use hpacml_nn::data::{NormAxis, Normalizer};
use hpacml_nn::serialize::{load_model, save_model};
use hpacml_nn::spec::{Activation, ModelSpec};
use hpacml_nn::{NnError, SavedModel};
use proptest::prelude::*;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hpacml-nn-prop-corrupt");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn load_bytes(bytes: &[u8], tag: &str) -> Result<SavedModel, NnError> {
    let path = tmp(tag);
    std::fs::write(&path, bytes).unwrap();
    load_model(&path)
}

/// A valid v3 file of a few hundred bytes: header, four weight frames, end.
fn clean_bytes(tag: &str) -> Vec<u8> {
    let spec = ModelSpec::mlp(2, &[3], 1, Activation::Tanh, 0.0);
    let model = spec.build(11).unwrap();
    let norm = Normalizer {
        axis: NormAxis::PerFeature,
        mean: vec![0.5, -0.5],
        std: vec![2.0, 4.0],
    };
    let path = tmp(tag);
    save_model(&path, &spec, &model, Some(&norm), None).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(bytes[..9], *b"HMLMODEL\x03");
    assert!(
        bytes.len() < 512,
        "{} bytes: keep the sweep small",
        bytes.len()
    );
    load_bytes(&bytes, tag).expect("the clean file loads");
    bytes
}

fn assert_refused(out: Result<SavedModel, NnError>, what: &str) {
    match out {
        Err(NnError::Serialize(_) | NnError::Io(_)) => {}
        Err(other) => panic!("{what}: wrong error type: {other}"),
        Ok(m) => panic!("{what}: loaded as {m:?}"),
    }
}

#[test]
fn every_truncation_is_refused() {
    let bytes = clean_bytes("trunc.hml");
    for len in 0..bytes.len() {
        assert_refused(
            load_bytes(&bytes[..len], "trunc.hml"),
            &format!("cut at {len}"),
        );
    }
}

#[test]
fn every_single_bit_flip_is_refused() {
    let bytes = clean_bytes("flip.hml");
    for at in 0..bytes.len() {
        for bit in 0..8 {
            let mut bad = bytes.clone();
            bad[at] ^= 1 << bit;
            assert_refused(
                load_bytes(&bad, "flip.hml"),
                &format!("byte {at} bit {bit}"),
            );
        }
    }
}

#[test]
fn bytes_after_the_end_frame_are_refused() {
    let mut bytes = clean_bytes("tail.hml");
    bytes.push(0);
    assert_refused(load_bytes(&bytes, "tail.hml"), "one byte appended");
    // A second, perfectly valid copy of the frames is still not this model.
    let clean = clean_bytes("tail.hml");
    let twice = [&clean[..], &clean[9..]].concat();
    assert_refused(load_bytes(&twice, "tail.hml"), "frames repeated");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_bytes_behind_a_valid_magic_never_panic(
        version in 1u8..=3,
        body in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let mut bytes = b"HMLMODEL".to_vec();
        bytes.push(version);
        bytes.extend(body);
        // Noise is overwhelmingly refused; all that is asserted is that the
        // loader returns.
        let _ = load_bytes(&bytes, "noise.hml");
    }
}
