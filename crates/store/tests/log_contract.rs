//! The v3 log's contract, deterministically: what every prefix of a
//! three-generation file opens to, what media damage in each generation
//! costs, that a flush writes O(new rows) in place, and that a flush with
//! nothing new writes nothing.

use hpacml_store::{Attr, DType, Group, H5File, StoreError};
use std::os::unix::fs::MetadataExt;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hpacml-store-log-contract");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// Grow `root` by one generation (1, 2 or 3): new rows in some datasets, a
/// changed attribute, and in the third a dataset the log has not seen.
fn grow(root: &mut Group, generation: i64) {
    root.set_attr("generation", Attr::Int(generation));
    let r = root.group_mut("r");
    r.set_attr("mean", Attr::Float(0.5 * generation as f64));
    let base = 10.0 * generation as f32;
    r.dataset_mut("x", DType::F32, &[2])
        .unwrap()
        .append_f32(&[base, base + 1.0, base + 2.0, base + 3.0])
        .unwrap();
    r.dataset_mut("t", DType::F64, &[])
        .unwrap()
        .append_f64(&[f64::from(base)])
        .unwrap();
    if generation != 2 {
        root.dataset_mut("ids", DType::I64, &[])
            .unwrap()
            .append_i64(&[generation, -generation])
            .unwrap();
    }
    if generation == 3 {
        root.group_mut("r")
            .dataset_mut("late", DType::F32, &[])
            .unwrap()
            .append_f32(&[7.5])
            .unwrap();
    }
}

/// Three flushes through one handle. Returns the file's bytes, its length
/// after each flush and the tree each flush committed.
fn three_generations(name: &str) -> (PathBuf, Vec<u8>, Vec<usize>, Vec<Group>) {
    let path = tmp(name);
    let mut f = H5File::create(&path);
    let (mut lens, mut trees) = (Vec::new(), Vec::new());
    for generation in 1..=3 {
        grow(f.root_mut(), generation);
        f.flush().unwrap();
        lens.push(std::fs::metadata(&path).unwrap().len() as usize);
        trees.push(f.root().clone());
    }
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(bytes.len(), lens[2]);
    (path, bytes, lens, trees)
}

/// `(start, end)` of every frame: `cksum:u64, len:u64, body`.
fn frames(bytes: &[u8]) -> Vec<(usize, usize)> {
    let (mut out, mut at) = (Vec::new(), 8);
    while at < bytes.len() {
        let len = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap());
        out.push((at, at + 16 + len as usize));
        at += 16 + len as usize;
    }
    assert_eq!(at, bytes.len());
    out
}

#[test]
fn every_prefix_opens_to_a_generation_or_the_salvage_rule() {
    let (path, bytes, lens, trees) = three_generations("prefix.h5lite");
    let frames = frames(&bytes);
    // Generation 1 in tree order: ids, r/t, r/x, then its Commit.
    assert_eq!(frames[3].1, lens[0]);
    for cut in 0..=bytes.len() {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let opened = H5File::open(&path);
        if cut < 8 {
            assert!(matches!(opened, Err(StoreError::BadMagic)), "cut {cut}");
            continue;
        }
        let f = opened.unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        match lens.iter().rposition(|&len| len <= cut) {
            Some(k) => {
                assert_eq!(f.root(), &trees[k], "cut {cut} is generation {}", k + 1);
                match f.recovery() {
                    None => assert_eq!(cut, lens[k], "cut {cut}: bytes follow unreported"),
                    Some(r) => {
                        assert!(cut > lens[k] && r.truncated && r.dropped.is_empty());
                    }
                }
            }
            None => {
                // No whole Commit: each dataset whose Rows frame lies wholly
                // inside the prefix, bit-exact; nothing partial.
                let mut want = Group::new();
                let g1 = &trees[0];
                if frames[0].1 <= cut {
                    want.dataset_mut("ids", DType::I64, &[])
                        .unwrap()
                        .append_i64(&g1.dataset("ids").unwrap().read_i64().unwrap())
                        .unwrap();
                }
                let r1 = g1.group("r").unwrap();
                if frames[1].1 <= cut {
                    want.group_mut("r")
                        .dataset_mut("t", DType::F64, &[])
                        .unwrap()
                        .append_f64(&r1.dataset("t").unwrap().read_f64().unwrap())
                        .unwrap();
                }
                if frames[2].1 <= cut {
                    want.group_mut("r")
                        .dataset_mut("x", DType::F32, &[2])
                        .unwrap()
                        .append_f32(&r1.dataset("x").unwrap().read_f32().unwrap())
                        .unwrap();
                }
                assert_eq!(f.root(), &want, "cut {cut} inside generation 1");
                assert!(f.recovery().is_some_and(|r| r.truncated));
            }
        }
    }
}

/// Flip one bit near the end of frame number `frame` (payload of a Rows
/// frame, body of a Commit) and reopen.
fn reopen_with_flip(name: &str, frame: usize) -> (H5File, Vec<Group>) {
    let (path, mut bytes, _, trees) = three_generations(name);
    let (_, end) = frames(&bytes)[frame];
    bytes[end - 2] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    (H5File::open(&path).unwrap(), trees)
}

#[test]
fn media_damage_costs_one_dataset_its_rows_from_that_frame_on() {
    // Frames: gen 1 = ids, r/t, r/x, Commit (0..=3); gen 2 = r/t, r/x,
    // Commit (4..=6); gen 3 = ids, r/late, r/t, r/x, Commit (7..=11).
    // Damage in generation 2's r/x frame: fsynced long before generation 3
    // was appended, so it is media damage. r/x keeps generation 1's rows
    // (generation 3's frame for it follows a gap), everything else is
    // generation 3.
    let (f, trees) = reopen_with_flip("media-gen2.h5lite", 5);
    let report = f.recovery().unwrap();
    assert_eq!(report.dropped, vec!["r/x".to_string()]);
    assert!(!report.truncated);
    let (got, g1, g3) = (
        f.root().group("r").unwrap(),
        trees[0].group("r").unwrap(),
        trees[2].group("r").unwrap(),
    );
    assert_eq!(got.dataset("x").unwrap(), g1.dataset("x").unwrap());
    assert_eq!(got.dataset("t").unwrap(), g3.dataset("t").unwrap());
    assert_eq!(got.dataset("late").unwrap(), g3.dataset("late").unwrap());
    assert_eq!(
        f.root().dataset("ids").unwrap(),
        trees[2].dataset("ids").unwrap()
    );
    assert_eq!(f.root().attr("generation"), Some(&Attr::Int(3)));

    // The same damage in generation 1: r/x loses every row, keeps its place.
    let (f, trees) = reopen_with_flip("media-gen1.h5lite", 2);
    assert_eq!(f.recovery().unwrap().dropped, vec!["r/x".to_string()]);
    let got = f.root().group("r").unwrap();
    assert_eq!(got.dataset("x").unwrap().rows(), 0);
    let g3 = trees[2].group("r").unwrap();
    assert_eq!(got.dataset("t").unwrap(), g3.dataset("t").unwrap());
}

#[test]
fn a_bad_frame_in_the_last_generation_reads_as_a_torn_append() {
    // Nothing tells media damage in the newest generation from an append
    // whose Rows frame never reached the disk although its Commit did: the
    // reader returns the generation before it, whole.
    let (f, trees) = reopen_with_flip("torn-gen3.h5lite", 9);
    assert_eq!(f.root(), &trees[1]);
    let report = f.recovery().unwrap();
    assert!(report.truncated && report.dropped.is_empty());
    // A damaged last Commit is the plain case of the same answer.
    let (f, trees) = reopen_with_flip("torn-commit3.h5lite", 11);
    assert_eq!(f.root(), &trees[1]);
    assert!(f.recovery().unwrap().truncated);
}

/// Commit `rows` rows of two datasets, then append three more and flush;
/// returns how much the file grew.
fn growth_after(rows: usize) -> u64 {
    let path = tmp(&format!("growth-{rows}.h5lite"));
    let mut f = H5File::create(&path);
    let append = |root: &mut Group, n: usize| {
        let g = root.group_mut("g");
        g.set_attr("steps", Attr::Int(n as i64));
        g.dataset_mut("d", DType::F32, &[16])
            .unwrap()
            .append_f32(&vec![1.25; 16 * n])
            .unwrap();
        g.dataset_mut("t", DType::F64, &[])
            .unwrap()
            .append_f64(&vec![2.5; n])
            .unwrap();
    };
    append(f.root_mut(), rows);
    f.flush().unwrap();
    let (before, committed) = (
        std::fs::metadata(&path).unwrap(),
        std::fs::read(&path).unwrap(),
    );
    append(f.root_mut(), 3);
    f.flush().unwrap();
    let (after, bytes) = (
        std::fs::metadata(&path).unwrap(),
        std::fs::read(&path).unwrap(),
    );
    assert_eq!(after.ino(), before.ino(), "an append must not rename");
    assert_eq!(
        &bytes[..committed.len()],
        &committed[..],
        "prefix rewritten"
    );
    let reopened = H5File::open(&path).unwrap();
    assert!(reopened.recovery().is_none());
    assert_eq!(reopened.root(), f.root());
    after.len() - before.len()
}

#[test]
fn a_flush_costs_the_new_rows_not_the_db() {
    let new_payload = 3 * (16 * 4 + 8);
    let small = growth_after(8);
    // Two Rows heads and a Commit over four nodes: a few hundred bytes,
    // whatever the row count.
    assert!(small >= new_payload && small - new_payload < 400, "{small}");
    assert_eq!(
        growth_after(32),
        small,
        "growth must not depend on rows held"
    );
}

#[test]
fn nothing_new_nothing_written() {
    let path = tmp("clean.h5lite");
    let mut f = H5File::create(&path);
    grow(f.root_mut(), 1);
    f.flush().unwrap();
    let stat = |what: &str| {
        let m = std::fs::metadata(&path).unwrap_or_else(|e| panic!("{what}: {e}"));
        (m.ino(), m.len(), m.mtime(), m.mtime_nsec())
    };
    let (before, bytes) = (stat("first flush"), std::fs::read(&path).unwrap());
    // Were the second flush a rewrite, the inode would change; an append
    // would grow the file; any write at all moves the mtime.
    std::thread::sleep(std::time::Duration::from_millis(20));
    f.flush().unwrap();
    f.root_mut(); // access is not mutation
    f.flush().unwrap();
    drop(f);
    assert_eq!(stat("after clean flushes and drop"), before);
    // Nor does a reader write: open, look, drop.
    let reader = H5File::open(&path).unwrap();
    assert_eq!(reader.root().attr("generation"), Some(&Attr::Int(1)));
    drop(reader);
    assert_eq!(stat("after a read-only open"), before);
    assert_eq!(std::fs::read(&path).unwrap(), bytes);
    // With the file gone there is still nothing to write — but the next
    // real change must notice and rewrite rather than append to nothing.
    let mut f = H5File::open(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    f.flush().unwrap();
    assert!(!path.exists());
    grow(f.root_mut(), 2);
    f.flush().unwrap();
    assert_eq!(H5File::open(&path).unwrap().root(), f.root());
}

/// A flush writes each frame's payload before its header, and the next
/// frame only once that header is written. A crash mid-append can leave
/// the last `Rows` frame with its payload on disk and its 16-byte header
/// still zeros (a hole), or whole with no `Commit` after it. Whichever
/// frame of generation 2 it hits, `open` returns generation 1 bit for bit
/// and reports the tail.
#[test]
fn an_append_cut_after_a_payload_or_before_its_commit_reads_as_the_last_generation() {
    let (path, bytes, lens, trees) = three_generations("zero-header.h5lite");
    let frames = frames(&bytes);
    // Generation 2 is frames 4 (r/t), 5 (r/x) and 6 (its Commit).
    assert_eq!((frames[3].1, frames[6].1), (lens[0], lens[1]));
    for (k, zero_header) in [(4, true), (5, true), (4, false), (5, false)] {
        let (start, end) = frames[k];
        let mut cut = bytes[..end].to_vec();
        if zero_header {
            cut[start..start + 16].fill(0);
        }
        std::fs::write(&path, &cut).unwrap();
        let f = H5File::open(&path).unwrap();
        assert_eq!(f.root(), &trees[0], "frame {k}, zero header {zero_header}");
        let report = f.recovery().expect("the tail is reported");
        assert!(report.truncated && report.dropped.is_empty(), "{report:?}");
    }
    // Were the Commit to reach the disk before an earlier header did, the
    // generation holds a bad frame: a torn append, and generation 1 again.
    let mut torn = bytes[..lens[1]].to_vec();
    torn[frames[5].0..frames[5].0 + 16].fill(0);
    std::fs::write(&path, &torn).unwrap();
    let f = H5File::open(&path).unwrap();
    assert_eq!(f.root(), &trees[0]);
    assert!(f.recovery().is_some_and(|r| r.truncated));
}
