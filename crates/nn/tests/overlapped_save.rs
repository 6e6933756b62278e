//! `.hml` saves go through the store's frame writer, which hashes each
//! frame beside its payload write on the pool and writes the header last.
//!
//! `a_save_writes_the_sequential_bytes_at_every_pool_width` saves a
//! 64-4096-4096-1 MLP (68 MB) under a serial pool and a pool of width 3,
//! and writes the same model through a test-local copy of the sequential
//! loop the save had before (encode a frame's weights, hash the frame,
//! write header then payload through `Write`). The three files must be
//! equal byte for byte. In the release build it prints the p50 of 7
//! alternating saves of each writer; run it with
//! `--nocapture --test-threads=1` to read them. It asserts the bytes, not
//! the times.

use hpacml_nn::serialize::{load_model, save_model};
use hpacml_nn::spec::{Activation, ModelSpec};
use hpacml_nn::NnError;
use hpacml_par::{with_pool, Pool};
use hpacml_store::frame::{fnv1a64_words, rename_synced, Frame, FrameReader};
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Values per `Weights` frame, as the format defines it.
const FRAME_ELEMS: usize = 1 << 18;
/// Alternating saves per writer. Unoptimized, one round checks the bytes.
const ROUNDS: usize = if cfg!(debug_assertions) { 1 } else { 7 };

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hpacml-nn-overlapped-save");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// The frame writer saves used before frames were written in place.
fn sequential_frame(f: &mut impl Write, head: &[u8], payload: &[u8]) -> io::Result<()> {
    let len = ((head.len() + payload.len()) as u64).to_le_bytes();
    let cksum = fnv1a64_words(&[&len, head, payload]).to_le_bytes();
    f.write_all(&[&cksum, &len[..], head].concat())?;
    f.write_all(payload)
}

/// The body of the `Header` frame of the `.hml` at `path`.
fn header_body(path: &Path) -> Vec<u8> {
    let mut f = File::open(path).unwrap();
    let left = f.metadata().unwrap().len() - 9;
    f.read_exact(&mut [0; 9]).unwrap();
    let mut frames = FrameReader::new(f, left);
    let frame = frames.next_frame().unwrap().unwrap();
    assert!(frame.sound);
    frame.body.to_vec()
}

/// The save the sequential way: magic and version, `header`, each
/// parameter tensor in `Weights` frames of at most `FRAME_ELEMS` values
/// through one reused buffer, `End`; `fsync`, rename.
fn sequential_save(path: &Path, header: &[u8], params: &[&[f32]]) {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut f = File::create(&tmp).unwrap();
    f.write_all(b"HMLMODEL\x03").unwrap();
    sequential_frame(&mut f, header, &[]).unwrap();
    let mut buf = Vec::new();
    for (tensor, values) in params.iter().enumerate() {
        for (k, values) in values.chunks(FRAME_ELEMS).enumerate() {
            let mut head = vec![1u8];
            head.extend((tensor as u32).to_le_bytes());
            head.extend(((k * FRAME_ELEMS) as u64).to_le_bytes());
            head.extend((values.len() as u64).to_le_bytes());
            buf.clear();
            buf.extend(values.iter().flat_map(|v| v.to_le_bytes()));
            sequential_frame(&mut f, &head, &buf).unwrap();
        }
    }
    sequential_frame(&mut f, &[2], &[]).unwrap();
    f.sync_all().unwrap();
    rename_synced(tmp.as_ref(), path).unwrap();
}

/// Whether two files hold the same bytes, read 1 MiB at a time.
fn same_bytes(a: &Path, b: &Path) -> bool {
    let (mut a, mut b) = (File::open(a).unwrap(), File::open(b).unwrap());
    if a.metadata().unwrap().len() != b.metadata().unwrap().len() {
        return false;
    }
    let (mut x, mut y) = (vec![0; 1 << 20], vec![0; 1 << 20]);
    loop {
        let n = a.read(&mut x).unwrap();
        if n == 0 {
            return true;
        }
        b.read_exact(&mut y[..n]).unwrap();
        if x[..n] != y[..n] {
            return false;
        }
    }
}

fn p50_ms(mut ms: Vec<f64>) -> f64 {
    ms.sort_by(f64::total_cmp);
    ms[ms.len() / 2]
}

#[test]
fn a_save_writes_the_sequential_bytes_at_every_pool_width() {
    let spec = ModelSpec::mlp(64, &[4096, 4096], 1, Activation::ReLU, 0.0);
    let model = spec.build(11).unwrap();
    let weights = model.export_weights();
    let params: Vec<&[f32]> = weights.iter().map(Vec::as_slice).collect();
    let pools = [("width 1", Pool::new(0)), ("width 3", Pool::new(2))];
    let paths: Vec<PathBuf> = ["w1", "w3", "sequential"]
        .iter()
        .map(|name| tmp(&format!("{name}.hml")))
        .collect();
    let mut ms = [Vec::new(), Vec::new(), Vec::new()];
    for round in 0..ROUNDS {
        for (i, (_, pool)) in pools.iter().enumerate() {
            let t0 = Instant::now();
            with_pool(pool, || save_model(&paths[i], &spec, &model, None, None)).unwrap();
            ms[i].push(t0.elapsed().as_secs_f64() * 1e3);
        }
        let header = header_body(&paths[0]);
        let t0 = Instant::now();
        sequential_save(&paths[2], &header, &params);
        ms[2].push(t0.elapsed().as_secs_f64() * 1e3);
        for (path, (name, _)) in paths.iter().zip(&pools) {
            assert!(
                same_bytes(path, &paths[2]),
                "round {round}: {name} differs from the sequential file"
            );
        }
    }
    let mb = std::fs::metadata(&paths[2]).unwrap().len() as f64 / 1e6;
    if ROUNDS > 1 {
        for (name, ms) in ["width 1", "width 3", "sequential"].iter().zip(ms) {
            eprintln!(
                "save of a {mb:.1} MB model, {name}: p50 {:.2} ms over {ROUNDS}",
                p50_ms(ms)
            );
        }
    }
    let loaded = load_model(&paths[1]).unwrap();
    let got = loaded.model.export_weights();
    assert!(got == params, "the saved weights load back");
    paths.iter().for_each(|p| std::fs::remove_file(p).unwrap());
}

/// A save writes each frame's payload before its header. Cut after the
/// payload of the last `Weights` frame, that frame's header is still zeros
/// (a hole), and the file must be refused, not read as a shorter model.
#[test]
fn a_weights_frame_whose_header_is_still_zero_is_refused() {
    let spec = ModelSpec::mlp(3, &[8], 1, Activation::Tanh, 0.0);
    let model = spec.build(5).unwrap();
    let path = tmp("zero-header.hml");
    save_model(&path, &spec, &model, None, None).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let mut starts = Vec::new();
    let mut rest = &bytes[9..];
    while let Some((frame, after)) = Frame::split(rest) {
        assert!(frame.sound);
        starts.push((bytes.len() - rest.len(), frame.body[0]));
        rest = after;
    }
    assert!(rest.is_empty());
    let kinds: Vec<u8> = starts.iter().map(|s| s.1).collect();
    assert_eq!(kinds, [0, 1, 1, 1, 1, 2], "Header, four tensors, End");
    let last_weights = starts[starts.len() - 2].0;
    bytes[last_weights..last_weights + 16].fill(0);
    // With the End frame (a save that got further) and without it (the
    // file as it stood right after the payload write).
    let end = starts[starts.len() - 1].0;
    for len in [bytes.len(), end] {
        std::fs::write(&path, &bytes[..len]).unwrap();
        match load_model(&path) {
            Err(NnError::Serialize(_)) => {}
            other => panic!(
                "{len} bytes: expected Serialize, got {:?}",
                other.map(|_| ())
            ),
        }
    }
}
