//! A flush hashes each frame beside its payload write on the pool. Its
//! file must be what the sequential writer it replaced wrote, byte for
//! byte, at any pool width.
//!
//! The tree has `collect_stencil`'s shape: `[256, 256, 5]` and
//! `[256, 256, 1]` f32 rows plus an f64 time per step, 16 steps (~25 MB).
//! It is flushed three ways: under a serial pool, under a pool of width 3,
//! and through a test-local copy of the sequential loop (hash the frame,
//! then write header and payload through `Write`). The three files are
//! compared byte for byte after the first flush (a rewrite) and after a
//! second one (an append of 16 more steps). The sequential side encodes the
//! bodies itself, from the layout in `file.rs`'s module docs, so the format
//! is pinned too. The p50 of 7 alternating first flushes of each writer is
//! printed. Run it in the release build with
//! `--nocapture --test-threads=1` to read the times; it asserts the bytes,
//! not the times.

use hpacml_par::{with_pool, Pool};
use hpacml_store::frame::fnv1a64_words;
use hpacml_store::{Attr, DType, Group, H5File};
use std::fs::File;
use std::io::{self, Write};
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::time::Instant;

const STEPS: usize = 16;
const INPUT: [usize; 3] = [256, 256, 5];
const OUTPUT: [usize; 3] = [256, 256, 1];

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hpacml-store-overlapped-flush");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// The values of step `k`'s row of `len` elements.
fn row(k: usize, len: usize, salt: f32) -> Vec<f32> {
    (0..len)
        .map(|i| (i as f32 * 0.001 + k as f32 + salt).sin())
        .collect()
}

/// One dataset as the sequential writer sees it: its path, its dtype tag
/// and inner dims, and the little-endian bytes of every row so far.
struct Raw {
    path: [&'static str; 2],
    dtype: u8,
    inner: Vec<usize>,
    row_bytes: usize,
    bytes: Vec<u8>,
}

impl Raw {
    fn rows(&self) -> usize {
        self.bytes.len() / self.row_bytes
    }
}

/// `tree` grown by steps `from..from + STEPS`, and `raw`, if given, by the
/// same values.
fn grow(tree: &mut Group, mut raw: Option<&mut [Raw; 3]>, from: usize) {
    let numel = |dims: &[usize]| dims.iter().product::<usize>();
    let g = tree.group_mut("collect_stencil");
    g.set_attr("steps", Attr::Int((from + STEPS) as i64));
    for k in from..from + STEPS {
        let (x, y, t) = (
            row(k, numel(&INPUT), 0.25),
            row(k, numel(&OUTPUT), 0.5),
            1e6 + k as f64,
        );
        g.group_mut("inputs")
            .dataset_mut("t", DType::F32, &INPUT)
            .unwrap()
            .append_f32(&x)
            .unwrap();
        g.group_mut("outputs")
            .dataset_mut("tnew", DType::F32, &OUTPUT)
            .unwrap()
            .append_f32(&y)
            .unwrap();
        g.dataset_mut("region_time_ns", DType::F64, &[])
            .unwrap()
            .append_f64(&[t])
            .unwrap();
        if let Some(raw) = raw.as_deref_mut() {
            raw[0].bytes.extend(x.iter().flat_map(|v| v.to_le_bytes()));
            raw[1].bytes.extend(y.iter().flat_map(|v| v.to_le_bytes()));
            raw[2].bytes.extend(t.to_le_bytes());
        }
    }
}

/// The datasets in tree order: `inputs/t`, `outputs/tnew`, `region_time_ns`.
fn empty_raw() -> [Raw; 3] {
    let raw = |path, dtype, inner: &[usize], size: usize| Raw {
        path,
        dtype,
        inner: inner.to_vec(),
        row_bytes: inner.iter().product::<usize>() * size,
        bytes: Vec::new(),
    };
    [
        raw(["inputs", "t"], 0, &INPUT, 4),
        raw(["outputs", "tnew"], 0, &OUTPUT, 4),
        raw(["region_time_ns", ""], 1, &[], 8),
    ]
}

/// The frame writer flushes used before frames were written in place.
fn sequential_frame(f: &mut impl Write, head: &[u8], payload: &[u8]) -> io::Result<()> {
    let len = ((head.len() + payload.len()) as u64).to_le_bytes();
    let cksum = fnv1a64_words(&[&len, head, payload]).to_le_bytes();
    f.write_all(&[&cksum, &len[..], head].concat())?;
    f.write_all(payload)
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend((s.len() as u32).to_le_bytes());
    buf.extend(s.as_bytes());
}

fn put_shape(buf: &mut Vec<u8>, d: &Raw) {
    buf.push(d.dtype);
    buf.extend((d.inner.len() as u32).to_le_bytes());
    d.inner
        .iter()
        .for_each(|dim| buf.extend((*dim as u64).to_le_bytes()));
}

/// One generation the sequential way: a `Rows` frame per dataset for its
/// rows past `first[i]`, then the `Commit`, then `fsync`.
fn sequential_generation(f: &mut File, raw: &[Raw; 3], first: [usize; 3], steps: i64) {
    for (d, first) in raw.iter().zip(first) {
        let names: Vec<&str> = d.path.iter().copied().filter(|p| !p.is_empty()).collect();
        let mut head = vec![0u8];
        head.extend((names.len() as u32 + 1).to_le_bytes());
        put_str(&mut head, "collect_stencil");
        names.iter().for_each(|p| put_str(&mut head, p));
        put_shape(&mut head, d);
        head.extend((first as u64).to_le_bytes());
        head.extend(((d.rows() - first) as u64).to_le_bytes());
        sequential_frame(f, &head, &d.bytes[first * d.row_bytes..]).unwrap();
    }
    // Commit: the root (no attributes, one group), then `collect_stencil`
    // (one attribute; two groups of one dataset each, then a dataset).
    let mut commit = vec![1u8];
    commit.extend(0u32.to_le_bytes());
    commit.extend(1u32.to_le_bytes());
    put_str(&mut commit, "collect_stencil");
    commit.push(0);
    commit.extend(1u32.to_le_bytes());
    put_str(&mut commit, "steps");
    commit.push(0);
    commit.extend(steps.to_le_bytes());
    commit.extend(3u32.to_le_bytes());
    for d in raw {
        put_str(&mut commit, d.path[0]);
        if !d.path[1].is_empty() {
            commit.push(0);
            commit.extend([0u32, 1].iter().flat_map(|n| n.to_le_bytes()));
            put_str(&mut commit, d.path[1]);
        }
        commit.push(1);
        put_shape(&mut commit, d);
        commit.extend((d.rows() as u64).to_le_bytes());
    }
    sequential_frame(f, &commit, &[]).unwrap();
    f.sync_all().unwrap();
}

/// A new file's first flush the sequential way: magic, one generation,
/// `fsync`, rename into place.
fn sequential_flush(path: &Path, raw: &[Raw; 3], steps: i64) {
    let tmp = path.with_extension("h5lite.tmp");
    let mut f = File::create(&tmp).unwrap();
    f.write_all(b"H5LITE03").unwrap();
    sequential_generation(&mut f, raw, [0; 3], steps);
    std::fs::rename(&tmp, path).unwrap();
}

fn p50_ms(mut ms: Vec<f64>) -> f64 {
    ms.sort_by(f64::total_cmp);
    ms[ms.len() / 2]
}

#[test]
fn overlapped_flush_writes_the_sequential_bytes_at_every_pool_width() {
    let (mut tree, mut raw) = (Group::new(), empty_raw());
    grow(&mut tree, Some(&mut raw), 0);
    let pools = [("width 1", Pool::new(0)), ("width 3", Pool::new(2))];
    let paths: Vec<PathBuf> = ["w1", "w3", "sequential"]
        .iter()
        .map(|name| tmp(&format!("{name}.h5lite")))
        .collect();

    // Seven alternating first flushes per writer; the last round's handles
    // and file stay for the append below.
    let mut ms = [Vec::new(), Vec::new(), Vec::new()];
    let mut handles = Vec::new();
    for round in 0..7 {
        handles.clear();
        for (i, (_, pool)) in pools.iter().enumerate() {
            let mut f = H5File::create(&paths[i]);
            *f.root_mut() = tree.clone();
            let t0 = Instant::now();
            with_pool(pool, || f.flush()).unwrap();
            ms[i].push(t0.elapsed().as_secs_f64() * 1e3);
            handles.push(f);
        }
        let t0 = Instant::now();
        sequential_flush(&paths[2], &raw, STEPS as i64);
        ms[2].push(t0.elapsed().as_secs_f64() * 1e3);
        let want = std::fs::read(&paths[2]).unwrap();
        assert!(want.len() > 25_000_000, "{} bytes", want.len());
        for (path, (name, _)) in paths.iter().zip(&pools) {
            let got = std::fs::read(path).unwrap();
            assert!(
                got == want,
                "round {round}: {name} differs from the sequential file"
            );
        }
    }
    for (name, ms) in ["width 1", "width 3", "sequential"].iter().zip(ms) {
        eprintln!(
            "first flush of {:.1} MB, {name}: p50 {:.2} ms over 7",
            raw.iter().map(|d| d.bytes.len()).sum::<usize>() as f64 / 1e6,
            p50_ms(ms)
        );
    }

    // The second flush of each handle appends in place from the committed
    // length; the sequential side appends through `O_APPEND`.
    let first = [0, 1, 2].map(|i| raw[i].rows());
    grow(&mut tree, Some(&mut raw), STEPS);
    for ((f, path), (name, pool)) in handles.iter_mut().zip(&paths).zip(&pools) {
        let inode = std::fs::metadata(path).unwrap().ino();
        grow(f.root_mut(), None, STEPS);
        with_pool(pool, || f.flush()).unwrap();
        let after = std::fs::metadata(path).unwrap().ino();
        assert_eq!(after, inode, "{name}: an append must not rename");
    }
    let mut log = File::options().append(true).open(&paths[2]).unwrap();
    sequential_generation(&mut log, &raw, first, 2 * STEPS as i64);
    let want = std::fs::read(&paths[2]).unwrap();
    for (path, (name, _)) in paths.iter().zip(&pools) {
        let got = std::fs::read(path).unwrap();
        assert!(
            got == want,
            "append: {name} differs from the sequential file"
        );
    }
    drop(handles);
    let reopened = H5File::open(&paths[0]).unwrap();
    assert!(reopened.recovery().is_none());
    assert_eq!(reopened.root(), &tree);
    paths.iter().for_each(|p| std::fs::remove_file(p).unwrap());
}
