//! Single-file binary codec for an h5lite tree: since format v3 an
//! append-only log of self-checksummed frames, so a flush writes what is new
//! and nothing else.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! file   : magic b"H5LITE03", frame*
//! frame  : cksum:u64, len:u64, body (len bytes)
//! body   : kind:u8, then  0 = Rows   | 1 = Commit
//! Rows   : path (n:u32, str*), shape, first_row:u64, n_rows:u64,
//!          payload (n_rows entries, raw)
//! Commit : group
//! group  : n_attrs:u32, { name:str, tag:u8, value }*,
//!          n_children:u32, { name:str, 0, group | name:str, 1, shape, rows:u64 }*
//! shape  : dtype:u8, rank:u32, inner_dims:u64*
//! str    : len:u32, utf-8 bytes
//! ```
//!
//! The frame itself — its checksum, its writer, the reader that checks every
//! length before it allocates — is [`crate::frame`]'s, shared with `.hml`
//! model files; the bodies are this module's. A `Rows` frame carries rows
//! `first_row..first_row + n_rows` of one dataset and describes itself; a
//! `Commit` is the tree *without* payloads. One flush is one *generation*: a
//! `Rows` frame per dataset with unpersisted rows (the payload goes from the
//! dataset's buffer to the file uncopied and is hashed once), then one
//! `Commit`, then a single `fsync`.
//!
//! **Append or rewrite.** A handle whose file is the v3 log it wrote or
//! cleanly opened *appends* at its committed length: a flush costs the new
//! rows plus O(nodes). Everything else *rewrites* — the first flush of a new,
//! v1/v2 or repaired file, a tree that no longer extends what the log holds
//! (a dataset replaced, removed or moved: decided per dataset from a private
//! `(id, rows)` stamp the caller cannot forge by assignment), a file whose
//! length is not the committed length — with the same frame writer from row
//! 0 into `<path>.h5lite.tmp`, `fsync`, atomic rename, directory sync. A
//! flush with nothing new (same `Commit` body) makes no filesystem call.
//!
//! **Crash safety: old or new, never torn.** Committed rows are never
//! rewritten. A generation counts once its `Commit` verifies, and that is
//! written after every `Rows` frame of the generation, so a crash mid-append
//! leaves a tail without one: [`H5File::open`] returns the previous
//! generation exactly and reports `truncated`. A writer whose append fails
//! cuts its tail off (`set_len`) before returning the error. The fault seams
//! mean the same on both paths: `store.flush.write` before payload bytes,
//! `.sync` before the `fsync`, `.rename` before the step that makes the
//! generation visible — the rename, or the `Commit` frame of an append.
//! Single writer; a reader racing an append sees the last committed
//! generation.
//!
//! **Salvage.** `open` is one sequential replay. A frame that fails its
//! checksum is stepped over by its length; a length that overruns the file
//! ends the replay. The tree is the last `Commit`'s — but a last generation
//! holding a bad frame may be a torn append, so the generation before it
//! (whole on disk before that append began) is returned when there is one.
//! Under the chosen `Commit` a dataset that lost a `Rows` frame keeps its
//! rows up to that frame and is named in `dropped`; siblings are untouched.
//! Only a file with **no** verifying `Commit` (a single flush, tail cut) has
//! uncommitted rows resurrected: every dataset whose frames verify, without
//! attributes. Damage is reported — loudly — via [`RecoveryReport`], and the
//! next flush rewrites the file clean.
//!
//! v2 (`b"H5LITE02"`, nested blocks under byte-wise FNV-1a, lenient decoder)
//! and v1 (`b"H5LITE01"`, no checksums, strict decoder) files still open;
//! their first flush with something to write upgrades them.

use crate::codec::{get_str, put_str};
use crate::dataset::{DType, Dataset};
use crate::frame::{rename_synced, write_frame, Cursor, Frame};
use crate::group::{Attr, Group, Node};
use crate::{Result, StoreError};
use hpacml_faults::{fault_point, fnv1a64};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const MAGIC_V1: &[u8; 8] = b"H5LITE01";
const MAGIC_V2: &[u8; 8] = b"H5LITE02";
const MAGIC_V3: &[u8; 8] = b"H5LITE03";
const ROWS: u8 = 0;
const COMMIT: u8 = 1;

/// What [`H5File::open`] had to do to rescue a damaged file. Present only
/// when something was actually dropped or cut short; a clean open carries
/// no report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// `/`-joined paths of datasets that lost rows to a failed checksum: in
    /// a v3 log the rows from the damaged frame on, in a v2 file the whole
    /// child.
    pub dropped: Vec<String>,
    /// `/`-joined paths of v2 groups whose payload failed its checksum but
    /// were salvaged child-by-child (surviving children were kept).
    pub salvaged: Vec<String>,
    /// Bytes follow the last usable record (a torn flush, a cut tail);
    /// everything after it was lost.
    pub truncated: bool,
}

impl RecoveryReport {
    fn is_clean(&self) -> bool {
        self.dropped.is_empty() && self.salvaged.is_empty() && !self.truncated
    }
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "recovered (truncated tail: {}, dropped: [{}], salvaged groups: [{}])",
            if self.truncated { "yes" } else { "no" },
            self.dropped.join(", "),
            self.salvaged.join(", "),
        )
    }
}

/// A dataset's place in the tree, one component per nesting level (names
/// may contain `/`, so a joined string would be ambiguous).
type DsPath = Vec<String>;

/// What the file at `path` holds, as this handle wrote or cleanly read it.
#[derive(Debug)]
struct Disk {
    /// Committed length of the v3 log. 0 for a v1/v2 file: no file is that
    /// short, so it is never appended to.
    len: u64,
    /// Each dataset's `(id, committed rows)`: its `Dataset::persisted`
    /// stamp for as long as it extends the disk.
    rows: BTreeMap<DsPath, (u64, usize)>,
    /// Body of the last `Commit`.
    commit: Vec<u8>,
}

/// Stamp every dataset as persisted in full. Ids are unique per process, so
/// a stamp copied from another file, another path or an earlier flush never
/// matches this record.
fn stamp(datasets: Vec<(DsPath, &mut Dataset)>) -> BTreeMap<DsPath, (u64, usize)> {
    static NEXT_ID: AtomicU64 = AtomicU64::new(1);
    let one = |(path, d): (DsPath, &mut Dataset)| {
        d.persisted = (NEXT_ID.fetch_add(1, Ordering::Relaxed), d.rows());
        (path, d.persisted)
    };
    datasets.into_iter().map(one).collect()
}

/// An h5lite file: an in-memory group tree bound to a path, persisted on
/// [`H5File::flush`] (and on drop, best-effort).
#[derive(Debug)]
pub struct H5File {
    path: PathBuf,
    root: Group,
    recovery: Option<RecoveryReport>,
    /// `None` for a new file and after a repairing open: the next flush
    /// writes the whole tree, changed or not.
    disk: Option<Disk>,
}

impl H5File {
    /// Create a new, empty file (truncating any existing one on flush).
    pub fn create(path: impl Into<PathBuf>) -> Self {
        H5File {
            path: path.into(),
            root: Group::new(),
            recovery: None,
            disk: None,
        }
    }

    /// Open and parse an existing file.
    ///
    /// A damaged v2/v3 file does not fail the open: what cannot be trusted
    /// is dropped and the surviving generation or prefix is returned, with
    /// the damage described by [`H5File::recovery`] (and echoed to stderr
    /// so the rescue is never silent).
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        fault_point!("store.open");
        let path = path.as_ref();
        let mut raw = Vec::new();
        File::open(path)?.read_to_end(&mut raw)?;
        let Some((magic, rest)) = raw.split_first_chunk::<8>() else {
            return Err(StoreError::BadMagic);
        };
        let mut report = RecoveryReport::default();
        let (mut root, len) = match magic {
            MAGIC_V3 => replay_v3(rest, &mut report)?,
            MAGIC_V2 => (decode_root_v2(&mut Cursor::new(rest), &mut report), 0),
            MAGIC_V1 => (decode_group_v1(&mut Cursor::new(rest))?, 0),
            _ => return Err(StoreError::BadMagic),
        };
        // A repaired tree is not what is on disk: with no `disk` record the
        // repair is flushed (on drop at the latest), otherwise every later
        // `open` re-pays the recovery and re-reports the same damage.
        let (recovery, disk) = if report.is_clean() {
            let commit = encode_commit(&root);
            let rows = stamp(datasets_mut(&mut root));
            (None, Some(Disk { len, rows, commit }))
        } else {
            eprintln!("hpacml-store: {}: {report}", path.display());
            (Some(report), None)
        };
        Ok(H5File {
            path: path.to_path_buf(),
            root,
            recovery,
            disk,
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    pub fn root(&self) -> &Group {
        &self.root
    }

    pub fn root_mut(&mut self) -> &mut Group {
        &mut self.root
    }

    /// The recovery the last [`H5File::open`] had to perform, if any.
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Total dataset payload bytes (Table III's "Collected Data Size").
    pub fn size_bytes(&self) -> usize {
        self.root.size_bytes()
    }

    /// Persist what is new since the last flush: an append to the log this
    /// handle wrote or opened, else a crash-safe rewrite (see the module
    /// docs). With nothing new it makes no filesystem call.
    pub fn flush(&mut self) -> Result<()> {
        let commit = encode_commit(&self.root);
        let datasets = datasets_mut(&mut self.root);
        // The tree extends the disk when every dataset the log holds is
        // still at its path, stamped with exactly the rows the log holds.
        let extends = self.disk.as_ref().filter(|disk| {
            let kept = |(p, d): &&(DsPath, &mut Dataset)| disk.rows.get(p) == Some(&d.persisted);
            datasets.iter().filter(kept).count() == disk.rows.len()
        });
        if extends.is_some_and(|disk| disk.commit == commit) {
            return Ok(());
        }
        fault_point!("store.flush");
        // Append only to the very file the record describes: one that was
        // replaced, cut or grown behind the handle is rewritten.
        let log = extends.and_then(|disk| {
            let f = File::options().append(true).open(&self.path).ok()?;
            (f.metadata().ok()?.len() == disk.len).then_some((f, disk))
        });
        let len = match log {
            Some((mut f, disk)) => {
                let wrote = write_generation(&mut f, &datasets, &commit, Some(disk));
                if wrote.is_err() {
                    // Cut the failed attempt off so nothing is ever appended
                    // after garbage (if this fails too, the length check
                    // above turns the next flush into a rewrite).
                    let _ = f.set_len(disk.len);
                }
                disk.len + wrote?
            }
            None => {
                let tmp = self.path.with_extension("h5lite.tmp");
                let mut f = File::create(&tmp)?;
                f.write_all(MAGIC_V3)?;
                let n = write_generation(&mut f, &datasets, &commit, None)?;
                fault_point!("store.flush.rename");
                rename_synced(&tmp, &self.path)?;
                8 + n
            }
        };
        let rows = stamp(datasets);
        self.disk = Some(Disk { len, rows, commit });
        Ok(())
    }
}

impl Drop for H5File {
    fn drop(&mut self) {
        if self.flush().is_err() {
            // No Result channel out of drop; the owner (e.g. Region) counts
            // flush failures explicitly before dropping. Stay loud anyway.
            eprintln!(
                "hpacml-store: {}: flush on drop failed; latest appends lost",
                self.path.display()
            );
        }
    }
}

/// Every dataset under `root` with its path, in tree order.
fn datasets_mut(root: &mut Group) -> Vec<(DsPath, &mut Dataset)> {
    fn walk<'a>(g: &'a mut Group, at: &mut DsPath, out: &mut Vec<(DsPath, &'a mut Dataset)>) {
        for (name, node) in g.children_mut() {
            at.push(name.clone());
            match node {
                Node::Group(child) => walk(child, at, out),
                Node::Dataset(d) => out.push((at.clone(), d)),
            }
            at.pop();
        }
    }
    let mut out = Vec::new();
    walk(root, &mut Vec::new(), &mut out);
    out
}

/// Write one generation and `fsync`: a `Rows` frame for each dataset's rows
/// past those `log` holds (all of them for a rewrite, `None`), then the
/// `Commit`. Returns its length.
fn write_generation(
    f: &mut File,
    datasets: &[(DsPath, &mut Dataset)],
    commit: &[u8],
    log: Option<&Disk>,
) -> Result<u64> {
    fault_point!("store.flush.write");
    let mut n = 0;
    for (path, d) in datasets {
        let first = log.and_then(|l| l.rows.get(path)).map_or(0, |r| r.1);
        if d.rows() > first {
            let mut head = vec![ROWS];
            head.extend((path.len() as u32).to_le_bytes());
            path.iter().for_each(|part| put_str(&mut head, part));
            put_shape(&mut head, d);
            head.extend((first as u64).to_le_bytes());
            head.extend(((d.rows() - first) as u64).to_le_bytes());
            n += write_frame(f, &head, d.raw_from(first))?;
        }
    }
    if log.is_some() {
        fault_point!("store.flush.rename");
    }
    n += write_frame(f, commit, &[])?;
    fault_point!("store.flush.sync");
    f.sync_all()?;
    Ok(n)
}

fn encode_attr(buf: &mut Vec<u8>, attr: &Attr) {
    match attr {
        Attr::Int(v) => {
            buf.push(0);
            buf.extend(v.to_le_bytes());
        }
        Attr::Float(v) => {
            buf.push(1);
            buf.extend(v.to_le_bytes());
        }
        Attr::Str(s) => {
            buf.push(2);
            put_str(buf, s);
        }
    }
}

fn decode_attr(buf: &mut Cursor) -> Result<Attr> {
    match buf.u8()? {
        0 => Ok(Attr::Int(buf.i64()?)),
        1 => Ok(Attr::Float(buf.f64()?)),
        2 => Ok(Attr::Str(get_str(buf)?)),
        t => Err(StoreError::Corrupt(format!("bad attr tag {t}"))),
    }
}

fn put_shape(buf: &mut Vec<u8>, d: &Dataset) {
    buf.push(d.dtype().tag());
    buf.extend((d.inner_shape().len() as u32).to_le_bytes());
    for dim in d.inner_shape() {
        buf.extend((*dim as u64).to_le_bytes());
    }
}

fn decode_shape(buf: &mut Cursor) -> Result<(DType, Vec<usize>)> {
    let dtype = DType::from_tag(buf.u8()?)?;
    let rank = buf.u32()? as usize;
    if rank > 64 {
        return Err(StoreError::Corrupt(format!(
            "implausible dataset rank {rank}"
        )));
    }
    let mut inner = Vec::with_capacity(rank);
    for _ in 0..rank {
        inner.push(buf.u64()? as usize);
    }
    Ok((dtype, inner))
}

/// A `Commit` body: the tree without payloads.
fn encode_commit(root: &Group) -> Vec<u8> {
    fn group(buf: &mut Vec<u8>, g: &Group) {
        buf.extend((g.attrs_map().len() as u32).to_le_bytes());
        for (name, attr) in g.attrs_map() {
            put_str(buf, name);
            encode_attr(buf, attr);
        }
        buf.extend((g.children().len() as u32).to_le_bytes());
        for (name, node) in g.children() {
            put_str(buf, name);
            match node {
                Node::Group(child) => {
                    buf.push(0);
                    group(buf, child);
                }
                Node::Dataset(d) => {
                    buf.push(1);
                    put_shape(buf, d);
                    buf.extend((d.rows() as u64).to_le_bytes());
                }
            }
        }
    }
    let mut buf = vec![COMMIT];
    group(&mut buf, root);
    buf
}

/// Rows read from verified `Rows` frames, by dataset: shape and raw bytes.
type Staged = BTreeMap<DsPath, (DType, Vec<usize>, Vec<u8>)>;

/// Replay a v3 log (`rest` starts after the magic) to the tree of its last
/// trustworthy `Commit` and the file length that commit ends at; the module
/// docs say what is skipped, cut and reported.
fn replay_v3(mut rest: &[u8], report: &mut RecoveryReport) -> Result<(Group, u64)> {
    let total = rest.len() as u64 + 8;
    let mut staged = Staged::new();
    // Body and end offset of the last two commits. `bad`: a frame failed
    // since the last commit; `torn`: one failed between the last two.
    let (mut last, mut prev, mut bad, mut torn) = (None, None, false, false);
    while let Some((frame, after)) = Frame::split(rest) {
        rest = after;
        if !frame.sound {
            bad = true;
            continue;
        }
        match frame.body.split_first() {
            Some((&COMMIT, body)) => {
                prev = last.replace((body, total - rest.len() as u64));
                (torn, bad) = (bad, false);
            }
            // A verified frame that does not parse is not ours to read; the
            // commit accounts for whatever rows it should have brought.
            Some((&ROWS, body)) => _ = stage_rows(Cursor::new(body), &mut staged),
            _ => {}
        }
    }
    // A last generation with a bad frame in it may be a torn append; the
    // one before it was whole on disk before that append began.
    let Some((body, end)) = (if torn && prev.is_some() { prev } else { last }) else {
        // No commit at all: a single flush whose tail was cut. Keep every
        // dataset whose frames verified.
        report.truncated = true;
        let mut root = Group::new();
        for (path, (dtype, inner, data)) in staged {
            let d = dataset_of(dtype, inner, data, u64::MAX)?;
            if !insert_at(&mut root, &path, d) {
                report.dropped.push(path.join("/"));
            }
        }
        return Ok((root, 0));
    };
    report.truncated = end < total;
    let root = decode_commit(&mut Cursor::new(body), &mut Vec::new(), &mut staged, report)?;
    Ok((root, end))
}

/// Stage one `Rows` frame. Rows land only as the next rows of their
/// dataset: a frame that follows a lost one leaves the dataset cut at the
/// gap. Nothing is allocated beyond the frame's own (bounds-checked) bytes.
fn stage_rows(mut body: Cursor, staged: &mut Staged) -> Result<()> {
    let mut path = DsPath::new();
    for _ in 0..body.u32()? {
        path.push(get_str(&mut body)?);
    }
    let (dtype, inner) = decode_shape(&mut body)?;
    let (first, rows) = (body.u64()?, body.u64()?);
    let row_bytes = Dataset::row_bytes(dtype, &inner)? as u64;
    let new = || (dtype, inner.clone(), Vec::new());
    let (have_dtype, have_inner, data) = staged.entry(path).or_insert_with(new);
    if (*have_dtype, &*have_inner) == (dtype, &inner)
        && first.checked_mul(row_bytes) == Some(data.len() as u64)
        && rows.checked_mul(row_bytes) == Some(body.remaining() as u64)
    {
        data.extend_from_slice(body.take(body.remaining())?);
    }
    Ok(())
}

/// The whole rows of `data`, `at_most` of them, as a dataset.
fn dataset_of(dtype: DType, inner: Vec<usize>, mut data: Vec<u8>, at_most: u64) -> Result<Dataset> {
    let row_bytes = Dataset::row_bytes(dtype, &inner)?;
    let rows = ((data.len() / row_bytes) as u64).min(at_most) as usize;
    data.truncate(rows * row_bytes);
    Dataset::from_parts(dtype, inner, rows, data)
}

/// Rebuild the tree a `Commit` describes, moving each dataset's committed
/// rows out of `staged`; a dataset with fewer rows staged than committed
/// keeps what it has and is named in `report.dropped`.
fn decode_commit(
    buf: &mut Cursor,
    at: &mut DsPath,
    staged: &mut Staged,
    report: &mut RecoveryReport,
) -> Result<Group> {
    if at.len() > 64 {
        return Err(StoreError::Corrupt("implausible group nesting".into()));
    }
    let mut g = Group::new();
    for _ in 0..buf.u32()? {
        let name = get_str(buf)?;
        g.set_attr(name, decode_attr(buf)?);
    }
    for _ in 0..buf.u32()? {
        at.push(get_str(buf)?);
        let node = match buf.u8()? {
            0 => Node::Group(decode_commit(buf, at, staged, report)?),
            1 => {
                let (dtype, inner) = decode_shape(buf)?;
                let committed = buf.u64()?;
                let data = match staged.remove(at) {
                    Some((dt, shape, data)) if (dt, &shape) == (dtype, &inner) => data,
                    _ => Vec::new(),
                };
                let d = dataset_of(dtype, inner, data, committed)?;
                if (d.rows() as u64) < committed {
                    report.dropped.push(at.join("/"));
                }
                Node::Dataset(d)
            }
            t => return Err(StoreError::Corrupt(format!("bad node kind {t}"))),
        };
        g.insert_child(at.pop().expect("pushed above"), node);
    }
    Ok(g)
}

/// Put `d` at `path`, creating groups on the way; `false` if the path is
/// empty or runs through a dataset (only a crafted file can do that).
fn insert_at(root: &mut Group, path: &[String], d: Dataset) -> bool {
    let Some((name, dirs)) = path.split_last() else {
        return false;
    };
    let mut g = root;
    for dir in dirs {
        let node = g.children_mut().entry(dir.clone());
        g = match node.or_insert_with(|| Node::Group(Group::new())) {
            Node::Group(child) => child,
            Node::Dataset(_) => return false,
        };
    }
    g.insert_child(name.clone(), Node::Dataset(d));
    true
}

fn decode_dataset(buf: &mut Cursor) -> Result<Dataset> {
    let (dtype, inner) = decode_shape(buf)?;
    let rows = buf.u64()? as usize;
    let len = usize::try_from(buf.u64()?).unwrap_or(usize::MAX);
    let data = buf.take(len)?.to_vec();
    Dataset::from_parts(dtype, inner, rows, data)
}

fn child_path(path: &str, name: &str) -> String {
    if path.is_empty() {
        name.to_string()
    } else {
        format!("{path}/{name}")
    }
}

/// Decode the checksummed root block. The root itself is a block, so even
/// damage at the very top degrades to salvage, never to a parse error.
fn decode_root_v2(buf: &mut Cursor, report: &mut RecoveryReport) -> Group {
    let (Ok(len), Ok(cksum)) = (buf.u64(), buf.u64()) else {
        report.truncated = true;
        return Group::new();
    };
    let body = match buf.take(usize::try_from(len).unwrap_or(usize::MAX)) {
        Ok(body) => {
            if fnv1a64(body) != cksum {
                report.salvaged.push("/".to_string());
            }
            Cursor::new(body)
        }
        Err(_) => {
            report.truncated = true;
            buf.clone()
        }
    };
    decode_group_v2(body, "", report)
}

/// Lenient v2 group decoder: returns every child that survives its own
/// checksum, records the rest in `report`, and never fails. When the
/// enclosing block's checksum matched, this decodes the full group exactly
/// as written.
fn decode_group_v2(mut buf: Cursor, path: &str, report: &mut RecoveryReport) -> Group {
    let mut g = Group::new();
    let Ok(n_attrs) = buf.u32() else {
        report.truncated = true;
        return g;
    };
    for _ in 0..n_attrs {
        let parsed = get_str(&mut buf).and_then(|name| Ok((name, decode_attr(&mut buf)?)));
        match parsed {
            Ok((name, attr)) => g.set_attr(name, attr),
            Err(_) => {
                report.truncated = true;
                return g;
            }
        }
    }
    let Ok(n_children) = buf.u32() else {
        report.truncated = true;
        return g;
    };
    for _ in 0..n_children {
        let header = get_str(&mut buf).and_then(|name| {
            let kind = buf.u8()?;
            let len = usize::try_from(buf.u64()?).unwrap_or(usize::MAX);
            let cksum = buf.u64()?;
            Ok((name, kind, len, cksum))
        });
        let Ok((name, kind, len, cksum)) = header else {
            report.truncated = true;
            return g;
        };
        let full = child_path(path, &name);
        let Ok(body) = buf.take(len) else {
            // Truncated tail: salvage what the cut left of a group child;
            // a cut dataset payload cannot be trusted row-by-row, drop it.
            report.truncated = true;
            if kind == 0 {
                let child = decode_group_v2(buf, &full, report);
                g.insert_child(name, Node::Group(child));
            } else {
                report.dropped.push(full);
            }
            return g;
        };
        let sound = fnv1a64(body) == cksum;
        match kind {
            0 => {
                if !sound {
                    report.salvaged.push(full.clone());
                }
                let child = decode_group_v2(Cursor::new(body), &full, report);
                g.insert_child(name, Node::Group(child));
            }
            1 if sound => match decode_dataset(&mut Cursor::new(body)) {
                Ok(d) => {
                    g.insert_child(name, Node::Dataset(d));
                }
                Err(_) => report.dropped.push(full),
            },
            _ => report.dropped.push(full),
        }
    }
    g
}

/// Strict legacy decoder for v1 files (no per-block framing, no checksums).
fn decode_group_v1(buf: &mut Cursor) -> Result<Group> {
    let mut g = Group::new();
    let n_attrs = buf.u32()?;
    for _ in 0..n_attrs {
        let name = get_str(buf)?;
        let attr = decode_attr(buf)?;
        g.set_attr(name, attr);
    }
    let n_children = buf.u32()?;
    for _ in 0..n_children {
        let name = get_str(buf)?;
        match buf.u8()? {
            0 => {
                let child = decode_group_v1(buf)?;
                g.insert_child(name, Node::Group(child));
            }
            1 => {
                let d = decode_dataset(buf)?;
                g.insert_child(name, Node::Dataset(d));
            }
            t => return Err(StoreError::Corrupt(format!("bad node kind {t}"))),
        }
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("hpacml-store-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// The v2 writer as it shipped (PR 9): nested length-prefixed blocks
    /// under byte-wise FNV-1a. Test-only since v3, so the v2 decoder and its
    /// salvage rules keep real input. `framed = false` writes the v1 layout
    /// (same records, no blocks).
    fn encode_legacy(root: &Group, framed: bool) -> Vec<u8> {
        fn block(buf: &mut Vec<u8>, body: &[u8], framed: bool) {
            if framed {
                buf.extend((body.len() as u64).to_le_bytes());
                buf.extend(fnv1a64(body).to_le_bytes());
            }
            buf.extend(body);
        }
        fn group(buf: &mut Vec<u8>, g: &Group, framed: bool) {
            buf.extend((g.attrs_map().len() as u32).to_le_bytes());
            for (name, attr) in g.attrs_map() {
                put_str(buf, name);
                encode_attr(buf, attr);
            }
            buf.extend((g.children().len() as u32).to_le_bytes());
            for (name, node) in g.children() {
                put_str(buf, name);
                let mut body = Vec::new();
                match node {
                    Node::Group(child) => {
                        buf.push(0);
                        group(&mut body, child, framed);
                    }
                    Node::Dataset(d) => {
                        buf.push(1);
                        put_shape(&mut body, d);
                        body.extend((d.rows() as u64).to_le_bytes());
                        body.extend((d.size_bytes() as u64).to_le_bytes());
                        body.extend(d.raw_from(0));
                    }
                }
                block(buf, &body, framed);
            }
        }
        let mut body = Vec::new();
        group(&mut body, root, framed);
        let mut buf = Vec::from(if framed { *MAGIC_V2 } else { *MAGIC_V1 });
        block(&mut buf, &body, framed);
        buf
    }

    fn sample_tree() -> Group {
        let mut root = Group::new();
        root.set_attr("created_by", Attr::Str("hpacml".into()));
        let region = root.group_mut("stencil_region");
        region.set_attr("invocations", Attr::Int(3));
        region.set_attr("mean_time", Attr::Float(1.25));
        region
            .dataset_mut("inputs", DType::F32, &[2, 5])
            .unwrap()
            .append_f32(&(0..30).map(|i| i as f32).collect::<Vec<_>>())
            .unwrap();
        region
            .dataset_mut("outputs", DType::F32, &[2, 1])
            .unwrap()
            .append_f32(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
            .unwrap();
        region
            .dataset_mut("region_time_ns", DType::F64, &[])
            .unwrap()
            .append_f64(&[100.0, 110.0, 90.0])
            .unwrap();
        root
    }

    #[test]
    fn roundtrip_through_disk() {
        let path = tmp("roundtrip.h5lite");
        {
            let mut f = H5File::create(&path);
            *f.root_mut() = sample_tree();
            f.flush().unwrap();
        }
        let f = H5File::open(&path).unwrap();
        assert!(f.recovery().is_none());
        assert_eq!(f.root(), &sample_tree());
        let region = f.root().group("stencil_region").unwrap();
        assert_eq!(region.dataset("inputs").unwrap().rows(), 3);
        assert_eq!(region.dataset("inputs").unwrap().shape(), vec![3, 2, 5]);
        assert_eq!(
            region
                .dataset("region_time_ns")
                .unwrap()
                .read_f64()
                .unwrap(),
            vec![100.0, 110.0, 90.0]
        );
    }

    #[test]
    fn drop_flushes_dirty_file() {
        let path = tmp("dropflush.h5lite");
        {
            let mut f = H5File::create(&path);
            f.root_mut()
                .dataset_mut("d", DType::I64, &[])
                .unwrap()
                .append_i64(&[7])
                .unwrap();
            // no explicit flush
        }
        let f = H5File::open(&path).unwrap();
        assert_eq!(f.root().dataset("d").unwrap().read_i64().unwrap(), vec![7]);
    }

    #[test]
    fn bad_magic_rejected() {
        let path = tmp("badmagic.h5lite");
        std::fs::write(&path, b"NOTAFILE....").unwrap();
        assert!(matches!(H5File::open(&path), Err(StoreError::BadMagic)));
    }

    #[test]
    fn truncated_v1_file_rejected() {
        // Legacy files keep the strict contract: no checksums means no safe
        // recovery, so a cut v1 file is an error, not a guess.
        let path = tmp("trunc_v1.h5lite");
        let mut raw = Vec::from(*MAGIC_V1);
        raw.push(0x05); // truncated attr count
        std::fs::write(&path, &raw).unwrap();
        assert!(matches!(H5File::open(&path), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn truncated_tail_recovers_to_prefix() {
        let path = tmp("trunc.h5lite");
        let bytes = encode_legacy(&sample_tree(), true);
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        let f = H5File::open(&path).unwrap();
        let report = f.recovery().expect("cut file must report recovery");
        assert!(report.truncated);
        // The cut hits the tail of the region group: earlier datasets
        // survive bit-exactly, the damaged one is dropped and named.
        let region = f.root().group("stencil_region").unwrap();
        assert_eq!(
            region.dataset("inputs").unwrap().read_f32().unwrap(),
            (0..30).map(|i| i as f32).collect::<Vec<_>>()
        );
        assert!(report
            .dropped
            .iter()
            .any(|p| p.starts_with("stencil_region/")));
    }

    #[test]
    fn flipped_dataset_byte_drops_only_that_dataset() {
        let path = tmp("flip.h5lite");
        let clean = encode_legacy(&sample_tree(), true);
        // Locate the "inputs" payload (0.0, 1.0, 2.0 ... as f32 LE) and
        // flip a byte in the middle of it.
        let needle: Vec<u8> = [2.0f32, 3.0, 4.0]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let at = clean
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("payload present");
        let mut bytes = clean.clone();
        bytes[at + 2] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let f = H5File::open(&path).unwrap();
        let report = f.recovery().expect("flip must report recovery");
        assert!(report
            .dropped
            .contains(&"stencil_region/inputs".to_string()));
        assert!(!report.truncated);
        // Siblings after the damaged block still load bit-exactly.
        let region = f.root().group("stencil_region").unwrap();
        assert!(region.dataset("inputs").is_err());
        assert_eq!(
            region.dataset("outputs").unwrap().read_f32().unwrap(),
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        );
        assert_eq!(region.attrs_map().len(), 2);
    }

    #[test]
    fn recovered_file_reflushes_clean() {
        let path = tmp("reflush.h5lite");
        {
            let mut f = H5File::create(&path);
            *f.root_mut() = sample_tree();
            f.flush().unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        {
            let mut f = H5File::open(&path).unwrap();
            assert!(f.recovery().is_some());
            f.root_mut(); // dirty → drop reflushes the survivors
        }
        let f = H5File::open(&path).unwrap();
        assert!(f.recovery().is_none(), "re-flushed file must be clean");
    }

    #[test]
    fn recovery_persists_without_further_writes() {
        // Opening a damaged file repairs it in memory; that repair must be
        // flushed even if the caller never touches the tree, so the next
        // open does not re-pay recovery against the same corrupt tail.
        let path = tmp("recover_persist.h5lite");
        let bytes = encode_legacy(&sample_tree(), true);
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        {
            let f = H5File::open(&path).unwrap();
            assert!(f.recovery().is_some());
            // Dropped untouched: the recovery itself marks the file dirty.
        }
        let f = H5File::open(&path).unwrap();
        assert!(
            f.recovery().is_none(),
            "repair must persist on drop without explicit writes"
        );
        // Surviving rows are intact across the reflush.
        let region = f.root().group("stencil_region").unwrap();
        assert_eq!(
            region.dataset("inputs").unwrap().read_f32().unwrap(),
            (0..30).map(|i| i as f32).collect::<Vec<_>>()
        );
        assert_eq!(region.attr("invocations"), Some(&Attr::Int(3)));
    }

    /// `sample_tree()` flushed once as v3; returns the file's bytes.
    fn flushed_v3(path: &Path) -> Vec<u8> {
        let mut f = H5File::create(path);
        *f.root_mut() = sample_tree();
        f.flush().unwrap();
        let bytes = std::fs::read(path).unwrap();
        assert_eq!(&bytes[..8], MAGIC_V3);
        bytes
    }

    #[test]
    fn v3_truncated_tail_salvages_whole_frames_and_persists_the_repair() {
        // Counterpart of `truncated_tail_recovers_to_prefix` and
        // `recovery_persists_without_further_writes`: the cut takes the
        // single flush's Commit, so every dataset whose Rows frame is whole
        // comes back bit-exactly (without attributes) and the repair is
        // flushed by the drop.
        let path = tmp("trunc_v3.h5lite");
        let bytes = flushed_v3(&path);
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        {
            let f = H5File::open(&path).unwrap();
            let report = f.recovery().expect("cut file must report recovery");
            assert!(report.truncated && report.dropped.is_empty());
            let want = sample_tree();
            let (got, want) = (
                f.root().group("stencil_region").unwrap(),
                want.group("stencil_region").unwrap(),
            );
            for name in ["inputs", "outputs", "region_time_ns"] {
                assert_eq!(got.dataset(name).unwrap(), want.dataset(name).unwrap());
            }
            assert_eq!(got.attrs_map().len(), 0, "attributes live in the Commit");
        }
        let f = H5File::open(&path).unwrap();
        assert!(f.recovery().is_none(), "repair must persist on drop");
        let region = f.root().group("stencil_region").unwrap();
        assert_eq!(region.dataset("inputs").unwrap().rows(), 3);
        // A deeper cut, one byte into the last Rows frame's tail: that
        // dataset is gone whole, nothing partial survives.
        let mut ends = vec![8];
        while ends[ends.len() - 1] < bytes.len() {
            let at = ends[ends.len() - 1];
            let len = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap());
            ends.push(at + 16 + len as usize);
        }
        assert_eq!(ends.len(), 5, "three Rows frames and the Commit");
        std::fs::write(&path, &bytes[..ends[3] - 1]).unwrap();
        let f = H5File::open(&path).unwrap();
        let region = f.root().group("stencil_region").unwrap();
        assert_eq!(
            region.dataset("inputs").unwrap().read_f32().unwrap(),
            (0..30).map(|i| i as f32).collect::<Vec<_>>()
        );
        assert!(region.dataset("region_time_ns").is_err());
    }

    #[test]
    fn v3_flipped_payload_byte_costs_only_that_dataset_its_rows() {
        // Counterpart of `flipped_dataset_byte_drops_only_that_dataset`.
        let path = tmp("flip_v3.h5lite");
        let mut bytes = flushed_v3(&path);
        let needle: Vec<u8> = [2.0f32, 3.0, 4.0]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let at = bytes
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("payload present");
        bytes[at + 2] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let f = H5File::open(&path).unwrap();
        let report = f.recovery().expect("flip must report recovery");
        assert_eq!(report.dropped, vec!["stencil_region/inputs".to_string()]);
        assert!(!report.truncated);
        // The damaged frame was the dataset's first: it keeps its place in
        // the tree and no rows. Siblings, later frames and the Commit's
        // attributes are untouched.
        let region = f.root().group("stencil_region").unwrap();
        assert_eq!(region.dataset("inputs").unwrap().rows(), 0);
        assert_eq!(region.dataset("inputs").unwrap().inner_shape(), &[2, 5]);
        assert_eq!(
            region.dataset("outputs").unwrap().read_f32().unwrap(),
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        );
        assert_eq!(region.dataset("region_time_ns").unwrap().rows(), 3);
        assert_eq!(region.attrs_map().len(), 2);
        assert_eq!(
            f.root().attr("created_by"),
            Some(&Attr::Str("hpacml".into()))
        );
    }

    #[test]
    fn legacy_files_open_unchanged_and_upgrade_on_first_write() {
        // The helper is the parent's encoder: it reproduces, byte for byte,
        // a file the parent's `H5File::flush` wrote.
        let fixture: &[u8] = include_bytes!("../tests/fixtures/sample_v2.h5lite");
        assert_eq!(encode_legacy(&sample_tree(), true), fixture);
        for (name, bytes) in [
            ("legacy_v2.h5lite", fixture.to_vec()),
            ("legacy_v1.h5lite", encode_legacy(&sample_tree(), false)),
        ] {
            let path = tmp(name);
            std::fs::write(&path, &bytes).unwrap();
            {
                let mut f = H5File::open(&path).unwrap();
                assert!(f.recovery().is_none());
                assert_eq!(f.root(), &sample_tree());
                f.root_mut(); // access is not mutation
            }
            assert_eq!(
                std::fs::read(&path).unwrap(),
                bytes,
                "a read-only open wrote"
            );
            let mut want = sample_tree();
            let extend = |root: &mut Group| {
                root.group_mut("stencil_region")
                    .dataset_mut("region_time_ns", DType::F64, &[])
                    .unwrap()
                    .append_f64(&[95.0])
                    .unwrap();
            };
            extend(&mut want);
            {
                let mut f = H5File::open(&path).unwrap();
                extend(f.root_mut());
                f.flush().unwrap();
            }
            assert_eq!(&std::fs::read(&path).unwrap()[..8], MAGIC_V3);
            let f = H5File::open(&path).unwrap();
            assert!(f.recovery().is_none());
            assert_eq!(f.root(), &want);
        }
    }

    #[test]
    fn size_bytes_reports_payload() {
        let mut f = H5File::create(tmp("size.h5lite"));
        *f.root_mut() = sample_tree();
        assert_eq!(f.size_bytes(), 30 * 4 + 6 * 4 + 3 * 8);
        f.flush().unwrap();
    }

    #[test]
    fn empty_file_roundtrip() {
        let path = tmp("empty.h5lite");
        H5File::create(&path).flush().unwrap();
        let f = H5File::open(&path).unwrap();
        assert_eq!(f.root().child_names().count(), 0);
    }
}
