//! `H5File::open` streams the log: a `Rows` payload goes from the file
//! straight into its dataset and is hashed as it lands. Its result must be
//! the whole-slice replay's: the same tree, the same `RecoveryReport`, the
//! same error kind.
//!
//! The reference below is the test's own. It reads the whole file into
//! memory and replays it as `file.rs`'s module docs describe: frames in
//! order, a failed frame stepped over by its length, a length that overruns
//! the file ending the replay, rows landing only as the next rows of their
//! dataset, the last `Commit`'s tree unless its generation holds a bad frame
//! and an earlier `Commit` exists, and with no `Commit` at all every dataset
//! whose frames verified. It builds its tree through the public API only.
//!
//! Random trees are flushed over 1–3 generations and then cut, flipped or
//! burst as `prop_corrupt` does. A 25 MB `collect_stencil`-shaped db is
//! also opened 7 times each way, alternating, and both p50s are printed.
//! Run that in the release build with `--nocapture --test-threads=1` to
//! read the times; it asserts the trees, not the times.

use hpacml_store::frame::fnv1a64_words;
use hpacml_store::{Attr, DType, Group, H5File, RecoveryReport, StoreError};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hpacml-store-streamed-open");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// The kind of error an open ended in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    BadMagic,
    Corrupt,
    Io,
    Other,
}

fn kind(e: &StoreError) -> Kind {
    match e {
        StoreError::BadMagic => Kind::BadMagic,
        StoreError::Corrupt(_) => Kind::Corrupt,
        StoreError::Io(_) => Kind::Io,
        _ => Kind::Other,
    }
}

/// What an open gives: the tree and the report of a damaged file, or the
/// kind of its error.
type Opened = Result<(Group, Option<RecoveryReport>), Kind>;

/// Checked little-endian reads; running past the end is `Corrupt`.
struct Rd<'a>(&'a [u8]);

impl<'a> Rd<'a> {
    fn take(&mut self, n: u64) -> Result<&'a [u8], Kind> {
        if n > self.0.len() as u64 {
            return Err(Kind::Corrupt);
        }
        let (head, rest) = self.0.split_at(n as usize);
        self.0 = rest;
        Ok(head)
    }
    fn u8(&mut self) -> Result<u8, Kind> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, Kind> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, Kind> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn str(&mut self) -> Result<String, Kind> {
        let n = self.u32()?;
        String::from_utf8(self.take(u64::from(n))?.to_vec()).map_err(|_| Kind::Corrupt)
    }
    fn shape(&mut self) -> Result<(DType, Vec<usize>), Kind> {
        let dtype = match self.u8()? {
            0 => DType::F32,
            1 => DType::F64,
            2 => DType::I64,
            _ => return Err(Kind::Corrupt),
        };
        let rank = self.u32()?;
        if rank > 64 {
            return Err(Kind::Corrupt);
        }
        let dims = (0..rank).map(|_| self.u64().map(|d| d as usize));
        Ok((dtype, dims.collect::<Result<_, _>>()?))
    }
}

fn row_bytes(dtype: DType, inner: &[usize]) -> Result<usize, Kind> {
    let numel = inner.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
    let bytes = numel.and_then(|n| n.max(1).checked_mul(dtype.size_bytes()));
    bytes.ok_or(Kind::Corrupt)
}

/// Put the whole rows of `data`, `at_most` of them, at `name` in `g`;
/// returns how many rows that is.
fn put_rows(
    g: &mut Group,
    name: &str,
    (dtype, inner): (DType, &[usize]),
    data: &[u8],
    at_most: u64,
) -> Result<u64, Kind> {
    let row = row_bytes(dtype, inner)?;
    let rows = ((data.len() / row) as u64).min(at_most);
    let data = &data[..rows as usize * row];
    let d = g.dataset_mut(name, dtype, inner).map_err(|e| kind(&e))?;
    match dtype {
        DType::F32 => d.append_f32(
            &data
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                .collect::<Vec<_>>(),
        ),
        DType::F64 => d.append_f64(
            &data
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                .collect::<Vec<_>>(),
        ),
        DType::I64 => d.append_i64(
            &data
                .chunks_exact(8)
                .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
                .collect::<Vec<_>>(),
        ),
    }
    .map_err(|e| kind(&e))?;
    Ok(rows)
}

type Staged = BTreeMap<Vec<String>, (DType, Vec<usize>, Vec<u8>)>;

/// A verified `Rows` body (after its kind byte): its rows land if they are
/// the next rows of their dataset. A head that does not parse stages
/// nothing.
fn stage(body: &[u8], staged: &mut Staged) {
    let mut rd = Rd(body);
    let mut head = || -> Result<_, Kind> {
        let path = (0..rd.u32()?)
            .map(|_| rd.str())
            .collect::<Result<Vec<_>, _>>()?;
        let (dtype, inner) = rd.shape()?;
        let (first, rows) = (rd.u64()?, rd.u64()?);
        let row = row_bytes(dtype, &inner)? as u64;
        Ok((path, dtype, inner, first, rows, row))
    };
    let Ok((path, dtype, inner, first, rows, row)) = head() else {
        return;
    };
    let (have_dtype, have_inner, data) = staged
        .entry(path)
        .or_insert_with(|| (dtype, inner.clone(), Vec::new()));
    if (*have_dtype, &*have_inner) == (dtype, &inner)
        && first.checked_mul(row) == Some(data.len() as u64)
        && rows.checked_mul(row) == Some(rd.0.len() as u64)
    {
        data.extend_from_slice(rd.0);
    }
}

/// The tree a `Commit` body describes, each dataset taking its committed
/// rows from `staged`; one with fewer is named in `dropped`.
fn commit_group(
    rd: &mut Rd,
    at: &mut Vec<String>,
    staged: &mut Staged,
    dropped: &mut Vec<String>,
) -> Result<Group, Kind> {
    if at.len() > 64 {
        return Err(Kind::Corrupt);
    }
    let mut g = Group::new();
    for _ in 0..rd.u32()? {
        let name = rd.str()?;
        let attr = match rd.u8()? {
            0 => Attr::Int(rd.u64()? as i64),
            1 => Attr::Float(f64::from_bits(rd.u64()?)),
            2 => Attr::Str(rd.str()?),
            _ => return Err(Kind::Corrupt),
        };
        g.set_attr(name, attr);
    }
    for _ in 0..rd.u32()? {
        at.push(rd.str()?);
        let name = at.last().unwrap().clone();
        match rd.u8()? {
            0 => *g.group_mut(&name) = commit_group(rd, at, staged, dropped)?,
            1 => {
                let (dtype, inner) = rd.shape()?;
                let committed = rd.u64()?;
                let data = match staged.remove(&*at) {
                    Some((dt, shape, data)) if (dt, &shape) == (dtype, &inner) => data,
                    _ => Vec::new(),
                };
                if put_rows(&mut g, &name, (dtype, &inner), &data, committed)? < committed {
                    dropped.push(at.join("/"));
                }
            }
            _ => return Err(Kind::Corrupt),
        }
        at.pop();
    }
    Ok(g)
}

/// The whole-slice replay of a file's bytes.
fn reference_open(bytes: &[u8]) -> Opened {
    if bytes.len() < 8 || &bytes[..8] != b"H5LITE03" {
        return Err(Kind::BadMagic);
    }
    let total = bytes.len() as u64;
    let mut rd = Rd(&bytes[8..]);
    let mut staged = Staged::new();
    let (mut last, mut prev, mut bad, mut torn) = (None, None, false, false);
    while rd.0.len() >= 16 {
        let cksum = rd.u64()?;
        let len = rd.u64()?;
        let Ok(body) = rd.take(len) else { break };
        if fnv1a64_words(&[&len.to_le_bytes(), body]) != cksum {
            bad = true;
            continue;
        }
        match body.split_first() {
            Some((1, body)) => {
                prev = last.replace((body, total - rd.0.len() as u64));
                (torn, bad) = (bad, false);
            }
            Some((0, body)) => stage(body, &mut staged),
            _ => {}
        }
    }
    let mut report = RecoveryReport::default();
    let root = match if torn && prev.is_some() { prev } else { last } {
        Some((body, end)) => {
            report.truncated = end < total;
            commit_group(
                &mut Rd(body),
                &mut Vec::new(),
                &mut staged,
                &mut report.dropped,
            )?
        }
        None => {
            report.truncated = true;
            let mut root = Group::new();
            for (path, (dtype, inner, data)) in staged {
                let Some((name, dirs)) = path.split_last() else {
                    report.dropped.push(String::new());
                    continue;
                };
                let mut g = Some(&mut root);
                for dir in dirs {
                    g = g.and_then(|g| g.try_group_mut(dir).ok());
                }
                match g {
                    Some(g) => _ = put_rows(g, name, (dtype, &inner), &data, u64::MAX)?,
                    None => report.dropped.push(path.join("/")),
                }
            }
            root
        }
    };
    let clean = report.dropped.is_empty() && !report.truncated;
    Ok((root, (!clean).then_some(report)))
}

/// Open `path` through `H5File::open`, in the same form.
fn streamed_open(path: &Path) -> Opened {
    match H5File::open(path) {
        Ok(f) => Ok((f.root().clone(), f.recovery().cloned())),
        Err(e) => Err(kind(&e)),
    }
}

// --- Random trees, as `prop_store` builds them ------------------------------

#[derive(Debug, Clone)]
enum Plan {
    F32 { inner: Vec<usize>, rows: usize },
    F64 { rows: usize },
    I64 { rows: usize },
}

fn plan() -> impl Strategy<Value = Plan> {
    prop_oneof![
        (proptest::collection::vec(1usize..4, 0..3), 0usize..5)
            .prop_map(|(inner, rows)| Plan::F32 { inner, rows }),
        (0usize..5).prop_map(|rows| Plan::F64 { rows }),
        (0usize..5).prop_map(|rows| Plan::I64 { rows }),
    ]
}

fn attr() -> impl Strategy<Value = Attr> {
    prop_oneof![
        any::<i64>().prop_map(Attr::Int),
        (-1e12f64..1e12).prop_map(Attr::Float),
        "[a-z0-9 _/.-]{0,24}".prop_map(Attr::Str),
    ]
}

/// Grow every planned dataset by its rows (at least one more from the
/// second generation on, so each generation has frames), every third one
/// under `nested`, with values that differ per generation.
fn grow(g: &mut Group, plans: &[(String, Plan)], generation: usize) {
    for (idx, (name, plan)) in plans.iter().enumerate() {
        let target = if idx % 3 == 0 {
            g.group_mut("nested")
        } else {
            &mut *g
        };
        let salt = generation as f64 * 10.0;
        match plan {
            Plan::F32 { inner, rows } => {
                let entry: usize = inner.iter().product::<usize>().max(1);
                let n = (rows + generation.min(1)) * entry;
                let values: Vec<f32> = (0..n).map(|i| i as f32 * 0.25 - salt as f32).collect();
                let d = target.dataset_mut(name, DType::F32, inner).unwrap();
                d.append_f32(&values).unwrap();
            }
            Plan::F64 { rows } => {
                let values: Vec<f64> = (0..rows + generation.min(1))
                    .map(|i| i as f64 * 1.5 + salt)
                    .collect();
                let d = target.dataset_mut(name, DType::F64, &[]).unwrap();
                d.append_f64(&values).unwrap();
            }
            Plan::I64 { rows } => {
                let values: Vec<i64> = (0..rows + generation.min(1))
                    .map(|i| i as i64 - generation as i64)
                    .collect();
                let d = target.dataset_mut(name, DType::I64, &[]).unwrap();
                d.append_i64(&values).unwrap();
            }
        }
    }
}

/// Damage as `prop_corrupt` does: 0 none, 1 a cut, 2 one byte flipped,
/// 3 a burst of flipped bytes.
fn damage(bytes: &mut Vec<u8>, how: u8, at_permille: u32, burst: usize, mask: u8) {
    let at = (bytes.len() as u64 * u64::from(at_permille) / 1000) as usize;
    let at = at.min(bytes.len() - 1);
    match how {
        1 => bytes.truncate(at),
        2 => bytes[at] ^= mask,
        3 => {
            let end = (at + burst).min(bytes.len());
            bytes[at..end].iter_mut().for_each(|b| *b ^= mask);
        }
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn streamed_open_is_the_whole_slice_replay(
        plans in proptest::collection::vec(("[a-z][a-z0-9]{0,8}", plan()), 0..6),
        attrs in proptest::collection::vec(("[a-z][a-z0-9]{0,8}", attr()), 0..4),
        (generations, reopen) in (1usize..=3, any::<bool>()),
        (how, at_permille, burst, mask) in (0u8..4, 0u32..1000, 1usize..48, 1u8..=255),
        file_tag in 0u32..1_000_000,
    ) {
        let mut seen = std::collections::BTreeSet::new();
        let plans: Vec<_> = plans
            .into_iter()
            .filter(|(n, _)| n != "nested" && seen.insert(n.clone()))
            .collect();
        let path = tmp(&format!("s{file_tag}.h5lite"));
        let mut f = H5File::create(&path);
        for generation in 0..generations {
            grow(f.root_mut(), &plans, generation);
            if let Some((name, a)) = attrs.get(generation) {
                f.root_mut().set_attr(name.clone(), a.clone());
            }
            f.flush().unwrap();
            if reopen {
                drop(f);
                f = H5File::open(&path).unwrap();
            }
        }
        drop(f);
        let mut bytes = std::fs::read(&path).unwrap();
        damage(&mut bytes, how, at_permille, burst, mask);
        std::fs::write(&path, &bytes).unwrap();
        let want = reference_open(&bytes);
        let got = streamed_open(&path);
        prop_assert_eq!(got, want, "damage {} at {}‰", how, at_permille);
        let _ = std::fs::remove_file(&path);
    }
}

/// An honest three-generation file cut at every frame boundary and one
/// byte either side of it: every torn-append shape. One dataset's name is
/// longer than the piece `open` reads a `Rows` head into, so its frames'
/// heads (and every `Commit`) span more than one piece.
#[test]
fn every_cut_of_a_three_generation_log_opens_as_the_reference() {
    let path = tmp("cuts.h5lite");
    let plans = [
        (
            "a".to_string(),
            Plan::F32 {
                inner: vec![2, 3],
                rows: 2,
            },
        ),
        ("b".to_string(), Plan::F64 { rows: 1 }),
        ("c".to_string(), Plan::I64 { rows: 1 }),
        (
            "d".to_string(),
            Plan::F32 {
                inner: vec![],
                rows: 3,
            },
        ),
        ("e".repeat(70_000), Plan::F64 { rows: 2 }),
    ];
    let mut f = H5File::create(&path);
    for generation in 0..3 {
        grow(f.root_mut(), &plans, generation);
        f.root_mut()
            .set_attr("generation", Attr::Int(generation as i64));
        f.flush().unwrap();
    }
    drop(f);
    let clean = std::fs::read(&path).unwrap();
    let mut ends = vec![8];
    while let Some(&at) = ends.last().filter(|&&at| at < clean.len()) {
        let len = u64::from_le_bytes(clean[at + 8..at + 16].try_into().unwrap());
        ends.push(at + 16 + len as usize);
    }
    assert_eq!(
        ends.len(),
        1 + 3 * 6,
        "five Rows frames and a Commit per generation"
    );
    assert_eq!(streamed_open(&path).unwrap().1, None);
    let cuts = ends.iter().flat_map(|&e| [e - 1, e, e + 1]);
    for cut in cuts.filter(|&c| c <= clean.len()) {
        std::fs::write(&path, &clean[..cut]).unwrap();
        assert_eq!(
            streamed_open(&path),
            reference_open(&clean[..cut]),
            "cut at {cut}"
        );
    }
}

const STEPS: usize = 16;
const INPUT: [usize; 3] = [256, 256, 5];
const OUTPUT: [usize; 3] = [256, 256, 1];

/// `collect_stencil`'s db after one cycle: `[256, 256, 5]` inputs and
/// `[256, 256, 1]` outputs per step plus an f64 time, 16 steps (~25 MB).
fn stencil_db(path: &Path) -> usize {
    let mut f = H5File::create(path);
    let g = f.root_mut().group_mut("collect_stencil");
    for k in 0..STEPS {
        let row = |len: usize, salt: f32| -> Vec<f32> {
            (0..len)
                .map(|i| (i as f32 * 0.001 + k as f32 + salt).sin())
                .collect()
        };
        let (x, y) = (
            row(INPUT.iter().product(), 0.25),
            row(OUTPUT.iter().product(), 0.5),
        );
        let inputs = g.group_mut("inputs").dataset_mut("t", DType::F32, &INPUT);
        inputs.unwrap().append_f32(&x).unwrap();
        let outputs = g
            .group_mut("outputs")
            .dataset_mut("tnew", DType::F32, &OUTPUT);
        outputs.unwrap().append_f32(&y).unwrap();
        let time = g.dataset_mut("region_time_ns", DType::F64, &[]).unwrap();
        time.append_f64(&[1e6 + k as f64]).unwrap();
    }
    f.flush().unwrap();
    f.size_bytes()
}

fn p50_ms(mut ms: Vec<f64>) -> f64 {
    ms.sort_by(f64::total_cmp);
    ms[ms.len() / 2]
}

#[test]
fn a_stencil_db_opens_to_the_reference_tree_and_both_are_timed() {
    let path = tmp("stencil.h5lite");
    let payload = stencil_db(&path);
    assert!(payload > 25_000_000, "{payload} bytes");
    let (mut streamed, mut reference) = (Vec::new(), Vec::new());
    for round in 0..7 {
        let t0 = Instant::now();
        let got = streamed_open(&path);
        streamed.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        let want = reference_open(&std::fs::read(&path).unwrap());
        reference.push(t0.elapsed().as_secs_f64() * 1e3);
        let (got, want) = (got.unwrap(), want.unwrap());
        assert!(got.1.is_none() && want.1.is_none(), "round {round}");
        assert!(got.0 == want.0, "round {round}: the trees differ");
    }
    eprintln!(
        "open of a {:.1} MB db, p50 over 7: streamed {:.2} ms, whole-slice reference {:.2} ms",
        payload as f64 / 1e6,
        p50_ms(streamed),
        p50_ms(reference)
    );
    let _ = std::fs::remove_file(&path);
}
