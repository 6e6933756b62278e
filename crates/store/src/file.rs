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
//! `Rows` frame per dataset with unpersisted rows, then one `Commit`, then a
//! single `fsync`. Each frame is written in place at its offset: its payload
//! goes from the dataset's buffer to the file uncopied while the pool hashes
//! it, and its header follows.
//!
//! **Append or rewrite.** A handle whose file is the v3 log it wrote or
//! cleanly opened *appends* at its committed length: a flush costs the new
//! rows plus O(nodes). Everything else *rewrites* — the first flush of a new
//! or repaired file, a tree that no longer extends what the log holds
//! (a dataset replaced, removed or moved: decided per dataset from a private
//! `(id, rows)` stamp the caller cannot forge by assignment), a file whose
//! length is not the committed length — with the same frame writer from row
//! 0 into `<path>.h5lite.tmp`, `fsync`, atomic rename, directory sync. A
//! flush with nothing new (same `Commit` body) makes no filesystem call.
//!
//! **Crash safety: old or new, never torn.** Committed rows are never
//! rewritten: an append writes only from the committed length on. A
//! generation counts once its `Commit` verifies, and that is written after
//! every `Rows` frame of the generation, header included. A crash mid-append
//! leaves a tail without a `Commit`, or whose last `Rows` frame has its
//! payload on disk and its header still zeros, which fails its checksum.
//! Either way [`H5File::open`] returns the previous generation exactly and
//! reports `truncated`. Until the `fsync`, pages may reach the disk in any
//! order. A `Commit` that lands before a `Rows` header of its generation
//! sits in a generation with a bad frame, which reads as a torn append (see
//! *Salvage*). A writer whose append fails cuts its tail off (`set_len`)
//! before returning the error. The fault seams
//! mean the same on both paths: `store.flush.write` before payload bytes,
//! `.sync` before the `fsync`, `.rename` before the step that makes the
//! generation visible — the rename, or the `Commit` frame of an append.
//! Single writer; a reader racing an append sees the last committed
//! generation.
//!
//! **Salvage.** `open` is one sequential replay, streamed from the file: the
//! whole file is never in memory. A `Rows` payload that is the next rows of
//! its dataset is read straight into that dataset's buffer and hashed as it
//! lands; any other body is hashed through one buffer of at most 64 KiB
//! (`Commit` bodies are kept whole). A frame that fails its checksum is
//! stepped over by its length: rows it landed are cut back off, and a
//! dataset it created is removed, so it leaves no trace. A length that
//! overruns the file ends the replay. The tree is the last `Commit`'s — but a last generation
//! holding a bad frame may be a torn append, so the generation before it
//! (whole on disk before that append began) is returned when there is one.
//! Under the chosen `Commit` a dataset that lost a `Rows` frame keeps its
//! rows up to that frame and is named in `dropped`; siblings are untouched.
//! Only a file with **no** verifying `Commit` (a single flush, tail cut) has
//! uncommitted rows resurrected: every dataset whose frames verify, without
//! attributes. Damage is reported — loudly — via [`RecoveryReport`], and the
//! next flush rewrites the file clean.
//!
//! The log is the only layout `open` reads. Any other magic — that of
//! the pre-log v1/v2 layouts (`H5LITE` then `01`/`02`) included — is
//! [`StoreError::BadMagic`], and the file is left as it is.

use crate::codec::{get_str, put_str};
use crate::dataset::{DType, Dataset};
use crate::frame::{read_onto, rename_synced, write_frame, Cursor, StreamedFrame, WordFnv};
use crate::group::{Attr, Group, Node};
use crate::{Result, StoreError};
use hpacml_faults::fault_point;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::Read;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const MAGIC: &[u8; 8] = b"H5LITE03";
const ROWS: u8 = 0;
const COMMIT: u8 = 1;

/// What [`H5File::open`] had to do to rescue a damaged file. Present only
/// when something was actually dropped or cut short; a clean open carries
/// no report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
// lint: allow(crate-local-pub) — returned by `H5File::recovery`
pub struct RecoveryReport {
    /// `/`-joined paths of datasets that lost rows to a failed checksum,
    /// from the damaged frame on.
    pub dropped: Vec<String>,
    /// Bytes follow the last usable record (a torn flush, a cut tail);
    /// everything after it was lost.
    pub truncated: bool,
}

impl RecoveryReport {
    fn is_clean(&self) -> bool {
        self.dropped.is_empty() && !self.truncated
    }
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "recovered (truncated tail: {}, dropped: [{}])",
            if self.truncated { "yes" } else { "no" },
            self.dropped.join(", "),
        )
    }
}

/// A dataset's place in the tree, one component per nesting level (names
/// may contain `/`, so a joined string would be ambiguous).
type DsPath = Vec<String>;

/// What the file at `path` holds, as this handle wrote or cleanly read it.
#[derive(Debug)]
struct Disk {
    /// Committed length of the log.
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

    /// Open and parse an existing file. The file is streamed: each `Rows`
    /// payload is read once, straight into its dataset, so the tree is the
    /// only copy of the rows an open holds.
    ///
    /// A damaged file does not fail the open: what cannot be trusted
    /// is dropped and the surviving generation or prefix is returned, with
    /// the damage described by [`H5File::recovery`] (and echoed to stderr
    /// so the rescue is never silent).
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        fault_point!("store.open");
        let path = path.as_ref();
        let mut f = File::open(path)?;
        let total = f.metadata()?.len();
        let mut magic = [0u8; 8];
        if total < 8 {
            return Err(StoreError::BadMagic);
        }
        f.read_exact(&mut magic)?;
        if magic != *MAGIC {
            return Err(StoreError::BadMagic);
        }
        let mut report = RecoveryReport::default();
        let (mut root, len) = replay(&mut f, total - 8, &mut report)?;
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
    // lint: allow(crate-local-pub) — what `open` dropped from a damaged db, for the operator; no caller outside the store's own tests yet
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
            let f = File::options().write(true).open(&self.path).ok()?;
            (f.metadata().ok()?.len() == disk.len).then_some((f, disk))
        });
        let len = match log {
            Some((f, disk)) => {
                let wrote = write_generation(&f, &datasets, &commit, Some(disk));
                if wrote.is_err() {
                    // Cut the failed attempt off so nothing is ever appended
                    // after garbage (if this fails too, the length check
                    // above turns the next flush into a rewrite).
                    let _ = f.set_len(disk.len);
                }
                disk.len + wrote?
            }
            None => {
                let tmp = rewrite_path(&self.path);
                let f = File::create(&tmp)?;
                f.write_all_at(MAGIC, 0)?;
                let n = write_generation(&f, &datasets, &commit, None)?;
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

/// Where a rewrite of `path` is written before its rename:
/// `<path>.h5lite.tmp`, the whole name kept, so files that differ only by
/// extension never share one.
fn rewrite_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".h5lite.tmp");
    tmp.into()
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
/// `Commit`, from the log's committed length (after the magic for a
/// rewrite). Returns its length.
fn write_generation(
    f: &File,
    datasets: &[(DsPath, &mut Dataset)],
    commit: &[u8],
    log: Option<&Disk>,
) -> Result<u64> {
    fault_point!("store.flush.write");
    let start = log.map_or(MAGIC.len() as u64, |l| l.len);
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
            n += write_frame(f, start + n, &head, d.raw_from(first))?;
        }
    }
    if log.is_some() {
        fault_point!("store.flush.rename");
    }
    n += write_frame(f, start + n, commit, &[])?;
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

/// The most of a frame body [`replay`] reads into its own buffer at once: a
/// `Rows` frame's head, any other body piece by piece. A `Rows` payload
/// that lands goes straight into its dataset instead.
const PIECE: u64 = 64 << 10;

/// Replay the log (`src` is just past the magic and holds `left` more
/// bytes) to the tree of its last trustworthy `Commit` and the file length
/// that commit ends at; the module docs say what is skipped, cut and
/// reported.
fn replay(src: &mut impl Read, mut left: u64, report: &mut RecoveryReport) -> Result<(Group, u64)> {
    let total = left + 8;
    let mut staged = Staged::new();
    let mut piece = Vec::new();
    // Body and end offset of the last two commits. `bad`: a frame failed
    // since the last commit; `torn`: one failed between the last two.
    let (mut last, mut prev, mut bad, mut torn) = (None, None, false, false);
    while let Some(mut frame) = StreamedFrame::head(src, left)? {
        left -= 16 + frame.len;
        piece.clear();
        read_onto(src, frame.len.min(PIECE), &mut piece, &mut frame.hash)?;
        let rest = frame.len - piece.len() as u64;
        match piece.first() {
            Some(&COMMIT) => {
                read_onto(src, rest, &mut piece, &mut frame.hash)?;
                if frame.sound() {
                    prev = last.replace((std::mem::take(&mut piece), total - left));
                    (torn, bad) = (bad, false);
                    continue;
                }
            }
            Some(&ROWS) => {
                if stage_rows(src, &mut frame, &mut piece, rest, &mut staged)? {
                    continue;
                }
            }
            _ => {
                skim(src, rest, &mut piece, &mut frame.hash)?;
                if frame.sound() {
                    continue;
                }
            }
        }
        bad = true;
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
    let mut body = Cursor::new(&body[1..]);
    let root = decode_commit(&mut body, &mut Vec::new(), &mut staged, report)?;
    Ok((root, end))
}

/// Feed the next `n` bytes of `src` to `hash` through `piece`, at most
/// [`PIECE`] at a time.
fn skim(src: &mut impl Read, mut n: u64, piece: &mut Vec<u8>, hash: &mut WordFnv) -> Result<()> {
    while n > 0 {
        let k = n.min(PIECE);
        piece.clear();
        read_onto(src, k, piece, hash)?;
        n -= k;
    }
    Ok(())
}

/// A `Rows` frame's head: dataset path, shape, first row and row count.
struct RowsHead {
    path: DsPath,
    dtype: DType,
    inner: Vec<usize>,
    first: u64,
    rows: u64,
    row_bytes: u64,
}

fn decode_rows_head(body: &mut Cursor) -> Result<RowsHead> {
    let mut path = DsPath::new();
    for _ in 0..body.u32()? {
        path.push(get_str(body)?);
    }
    let (dtype, inner) = decode_shape(body)?;
    let (first, rows) = (body.u64()?, body.u64()?);
    let row_bytes = Dataset::row_bytes(dtype, &inner)? as u64;
    Ok(RowsHead {
        path,
        dtype,
        inner,
        first,
        rows,
        row_bytes,
    })
}

/// Stage one `Rows` frame, whose body is `piece` and then `rest` more bytes
/// of `src`, and return whether it verified. Rows land only as the next
/// rows of their dataset: a frame that follows a lost one leaves the
/// dataset cut at the gap. A payload that lands is read from `src` straight
/// into the dataset's buffer, hashed as it goes; if the checksum then fails
/// it is cut back off, and a dataset the frame created is removed, so a
/// damaged frame leaves no trace. Nothing is allocated beyond the frame's
/// own (bounds-checked) bytes.
fn stage_rows(
    src: &mut impl Read,
    frame: &mut StreamedFrame,
    piece: &mut Vec<u8>,
    mut rest: u64,
    staged: &mut Staged,
) -> Result<bool> {
    let mut body = Cursor::new(&piece[1..]);
    let mut head = decode_rows_head(&mut body);
    if head.is_err() && rest > 0 {
        // Names are unbounded, so a head may be longer than a piece: read
        // the body whole, as only such a frame (or a damaged one) needs.
        read_onto(src, rest, piece, &mut frame.hash)?;
        rest = 0;
        body = Cursor::new(&piece[1..]);
        head = decode_rows_head(&mut body);
    }
    // A verified frame that does not parse is not ours to read; the commit
    // accounts for whatever rows it should have brought.
    let Ok(head) = head else {
        skim(src, rest, piece, &mut frame.hash)?;
        return Ok(frame.sound());
    };
    let in_piece = piece.len() - body.remaining();
    let payload = body.remaining() as u64 + rest;
    let created = !staged.contains_key(&head.path);
    let new = || (head.dtype, head.inner.clone(), Vec::new());
    let (dtype, inner, data) = staged.entry(head.path.clone()).or_insert_with(new);
    let lands = (*dtype, &*inner) == (head.dtype, &head.inner)
        && head.first.checked_mul(head.row_bytes) == Some(data.len() as u64)
        && head.rows.checked_mul(head.row_bytes) == Some(payload);
    let old = data.len();
    if lands {
        data.reserve_exact(payload as usize);
        data.extend_from_slice(&piece[in_piece..]);
        read_onto(src, rest, data, &mut frame.hash)?;
    } else {
        skim(src, rest, piece, &mut frame.hash)?;
    }
    let sound = frame.sound();
    if !sound {
        data.truncate(old);
        if created {
            staged.remove(&head.path);
        }
    }
    Ok(sound)
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

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("hpacml-store-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
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
    fn a_rewrite_goes_through_the_whole_name_plus_a_suffix() {
        for (path, tmp) in [
            ("dir/d", "dir/d.h5lite.tmp"),
            ("dir/d.h5", "dir/d.h5.h5lite.tmp"),
            ("d.hdf", "d.hdf.h5lite.tmp"),
        ] {
            assert_eq!(rewrite_path(Path::new(path)), Path::new(tmp));
        }
    }

    /// Two files whose names differ only by extension, each rewritten from
    /// its own thread round after round: each rename moves its own
    /// temporary file, so each reopens clean with its own rows.
    #[test]
    fn files_that_differ_by_extension_rewrite_side_by_side() {
        let dir = tmp("by-extension");
        std::fs::create_dir_all(&dir).unwrap();
        let paths = [dir.join("d.h5"), dir.join("d.hdf")];
        std::thread::scope(|s| {
            for (who, path) in paths.iter().enumerate() {
                s.spawn(move || {
                    for round in 0..50 {
                        let rows: Vec<i64> =
                            (0..64).map(|i| (who * 1000 + round) as i64 * i).collect();
                        let mut f = H5File::create(path);
                        let d = f.root_mut().dataset_mut("d", DType::I64, &[]).unwrap();
                        d.append_i64(&rows).unwrap();
                        f.flush().unwrap();
                        drop(f);
                        let f = H5File::open(path).unwrap();
                        assert!(f.recovery().is_none(), "{who} round {round}");
                        let got = f.root().dataset("d").unwrap().read_i64().unwrap();
                        assert_eq!(got, rows, "{who} round {round}");
                    }
                });
            }
        });
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
        // The pre-log layouts are no longer read: their files are refused
        // like any other, and left as they are.
        let path = tmp("badmagic.h5lite");
        let version = |v: u8| [&MAGIC[..7], &[b'0' + v]].concat();
        for head in [b"NOTAFILE".to_vec(), version(1), version(2)] {
            let bytes = [head, vec![0; 16]].concat();
            std::fs::write(&path, &bytes).unwrap();
            assert!(matches!(H5File::open(&path), Err(StoreError::BadMagic)));
            assert_eq!(std::fs::read(&path).unwrap(), bytes);
        }
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
        // open does not re-pay recovery against the same corrupt tail. The
        // damage is a torn append: the second generation lost its Commit,
        // so the first one survives whole, attributes included.
        let path = tmp("recover_persist.h5lite");
        let committed = {
            let mut f = H5File::create(&path);
            *f.root_mut() = sample_tree();
            f.flush().unwrap();
            let committed = std::fs::metadata(&path).unwrap().len() as usize;
            let region = f.root_mut().group_mut("stencil_region");
            region.set_attr("invocations", Attr::Int(4));
            region
                .dataset_mut("region_time_ns", DType::F64, &[])
                .unwrap()
                .append_f64(&[95.0])
                .unwrap();
            f.flush().unwrap();
            committed
        };
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.len() > committed + 10, "the second flush appended");
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        {
            let f = H5File::open(&path).unwrap();
            assert!(f.recovery().is_some_and(|r| r.truncated));
            // Dropped untouched: the recovery itself marks the file dirty.
        }
        let f = H5File::open(&path).unwrap();
        assert!(
            f.recovery().is_none(),
            "repair must persist on drop without explicit writes"
        );
        // The last whole generation is intact across the reflush: its rows
        // and its Commit's attributes.
        assert_eq!(f.root(), &sample_tree());
        let region = f.root().group("stencil_region").unwrap();
        assert_eq!(region.attr("invocations"), Some(&Attr::Int(3)));
        assert_eq!(region.attr("mean_time"), Some(&Attr::Float(1.25)));
    }

    /// `sample_tree()` flushed once; returns the file's bytes.
    fn flushed_v3(path: &Path) -> Vec<u8> {
        let mut f = H5File::create(path);
        *f.root_mut() = sample_tree();
        f.flush().unwrap();
        let bytes = std::fs::read(path).unwrap();
        assert_eq!(&bytes[..8], MAGIC);
        bytes
    }

    #[test]
    fn v3_truncated_tail_salvages_whole_frames_and_persists_the_repair() {
        // The cut takes the single flush's Commit, so every dataset whose Rows frame is whole
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
