//! The checksummed frame — the one byte path for everything this repo puts
//! in a file that a config can name: the rows of an h5lite v3 log
//! ([`crate::file`]) and the weights of an `.hml` v3 model.
//!
//! ```text
//! frame : cksum:u64, len:u64, body (len bytes)      (little-endian)
//! ```
//!
//! `cksum` is [`fnv1a64_words`] of the frame's bytes after the `cksum` field
//! (`len`, then the body) as one string. What a body means is its format's
//! business. This module is how one is written and how one is read back.
//!
//! **Written in place, hashed beside the write.** [`write_frame`] puts a
//! frame at a given offset of a file. The payload goes from the caller's
//! buffer to its place in the file uncopied. It is hashed on one pool
//! participant while another writes it, so the hash costs no time beside a
//! write that takes longer. The header (`cksum`, `len` and the format's own
//! head) goes in last. On a serial pool the two parts run one after the
//! other. The bytes are the same either way. Both formats write each frame
//! where their file ends, so until its header is written the frame starts
//! with zeros (a hole), and a reader sees a frame that fails its checksum.
//! Neither format
//! counts anything before its closing frame verifies: the `Commit` of an
//! h5lite generation, the `End` of an `.hml` (behind an `fsync` and
//! [`rename_synced`]).
//!
//! **Read from bytes nobody vouches for.** [`Frame::split`] works over
//! bytes held in memory and [`Cursor`] inside a body. A stream is read frame
//! by frame: `StreamedFrame::head` reads a header and checks its length,
//! and `read_onto` lands each part of the body where the caller wants it,
//! hashed as it lands, so a frame's soundness is known once its last byte
//! is in. [`FrameReader`] lands each body whole in one reusable buffer (an
//! `.hml` model); an h5lite open lands a `Rows` payload straight in its
//! dataset's own buffer. No length is believed before it has been checked
//! against the bytes that are really there, and nothing is allocated for a
//! length that has not been.

use std::fs::File;
use std::io::{self, Read};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::OnceLock;

// FNV-1a, 64-bit — the parameters of `hpacml_faults::fnv1a64`.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a's xor-multiply step over little-endian 64-bit words, then
/// byte-wise over the < 8-byte tail: one pass at memory speed where the
/// byte-serial loop is latency-bound. The bytes are hashed as one string
/// however they are cut into [`WordFnv::update`] calls. Each step is a
/// bijection of the state, so damage confined to one word of the string
/// (any single bit or byte flip) always changes the result.
#[derive(Debug, Clone)]
pub(crate) struct WordFnv {
    h: u64,
    /// Bytes of a word that straddles two parts (or the string's tail).
    carry: [u8; 8],
    n: usize,
}

impl Default for WordFnv {
    fn default() -> Self {
        WordFnv {
            h: FNV_OFFSET,
            carry: [0; 8],
            n: 0,
        }
    }
}

impl WordFnv {
    pub fn update(&mut self, mut part: &[u8]) {
        let step = |h: u64, word: u64| (h ^ word).wrapping_mul(FNV_PRIME);
        if self.n > 0 {
            let take = part.len().min(8 - self.n);
            self.carry[self.n..self.n + take].copy_from_slice(&part[..take]);
            (self.n, part) = (self.n + take, &part[take..]);
            if self.n < 8 {
                return;
            }
            self.h = step(self.h, u64::from_le_bytes(self.carry));
        }
        let mut words = part.chunks_exact(8);
        let mut h = self.h;
        for w in &mut words {
            let w = w.try_into().expect("chunks_exact(8)");
            h = step(h, u64::from_le_bytes(w));
        }
        self.h = h;
        self.n = words.remainder().len();
        self.carry[..self.n].copy_from_slice(words.remainder());
    }

    /// The hash of everything fed so far.
    pub fn finish(&self) -> u64 {
        let step = |h: u64, b: &u8| (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME);
        self.carry[..self.n].iter().fold(self.h, step)
    }
}

/// `WordFnv` over `parts` as one concatenated string — the frame checksum.
pub fn fnv1a64_words(parts: &[&[u8]]) -> u64 {
    let mut h = WordFnv::default();
    parts.iter().for_each(|part| h.update(part));
    h.finish()
}

/// Write one frame whose body is `head` then `payload` at offset `pos` of
/// `f`, and return the frame's length. Two parts run on the pool: one
/// hashes the frame, the other writes the payload straight from the
/// caller's buffer to its place. The header is written after both.
pub fn write_frame(f: &File, pos: u64, head: &[u8], payload: &[u8]) -> io::Result<u64> {
    let len = ((head.len() + payload.len()) as u64).to_le_bytes();
    let payload_at = pos + 16 + head.len() as u64;
    let (cksum, wrote) = (OnceLock::new(), OnceLock::new());
    hpacml_par::parallel_for(2, 1, |parts| {
        for part in parts {
            if part == 0 {
                _ = cksum.set(fnv1a64_words(&[&len, head, payload]));
            } else {
                _ = wrote.set(f.write_all_at(payload, payload_at));
            }
        }
    });
    wrote.into_inner().expect("both parts ran")?;
    let cksum = cksum.into_inner().expect("both parts ran").to_le_bytes();
    f.write_all_at(&[&cksum, &len[..], head].concat(), pos)?;
    Ok(16 + head.len() as u64 + payload.len() as u64)
}

/// Put the fully written and `fsync`ed `tmp` in `path`'s place: readers see
/// the old file or the new one, never a torn one.
pub fn rename_synced(tmp: &Path, path: &Path) -> io::Result<()> {
    std::fs::rename(tmp, path)?;
    // Directory sync makes the rename itself durable. Best-effort: some
    // filesystems refuse fsync on a directory handle, and the data file is
    // already safe either way.
    if let Ok(d) = std::fs::File::open(parent_dir(path)) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// The directory holding `path`: a bare file name's parent is `""`, which
/// names no directory, so it is the working directory `.`.
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    }
}

/// One frame as a reader found it.
#[derive(Debug)]
// lint: allow(crate-local-pub) — returned by `FrameReader::next_frame`, which the model loader reads without naming the type
pub struct Frame<'a> {
    /// The checksum matched. The body of a frame that is not sound is
    /// whatever the file holds there.
    pub sound: bool,
    pub body: &'a [u8],
}

impl<'a> Frame<'a> {
    /// The frame at the front of `bytes`, sound or not (a damaged one is
    /// stepped over by its length), and what follows it. `None` when `bytes`
    /// cannot hold a frame header or the frame its header claims.
    pub fn split(bytes: &'a [u8]) -> Option<(Frame<'a>, &'a [u8])> {
        let mut cur = Cursor(bytes);
        let (cksum, len) = (cur.u64().ok()?, cur.u64().ok()?);
        let body = cur.take(usize::try_from(len).ok()?).ok()?;
        let sound = fnv1a64_words(&[&len.to_le_bytes(), body]) == cksum;
        Some((Frame { sound, body }, cur.0))
    }
}

/// The header of a frame read from a stream, its length checked against
/// what the source holds. The caller reads the `len` body bytes that follow,
/// feeding every one of them to `hash` (see [`read_onto`]), then asks
/// [`StreamedFrame::sound`].
#[derive(Debug)]
pub(crate) struct StreamedFrame {
    cksum: u64,
    pub len: u64,
    /// The checksum so far: `len`, then whatever body the caller has fed.
    pub hash: WordFnv,
}

impl StreamedFrame {
    /// Read the header at the front of `src`, which has `left` bytes. `None`
    /// when `left` cannot hold a frame header or the body the header claims;
    /// the header is read either way.
    pub fn head(src: &mut impl Read, left: u64) -> io::Result<Option<Self>> {
        if left < 16 {
            return Ok(None);
        }
        let mut head = [0u8; 16];
        src.read_exact(&mut head)?;
        let (cksum, len) = head.split_at(8);
        let [cksum, len] = [cksum, len].map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")));
        if len > left - 16 || usize::try_from(len).is_err() {
            return Ok(None);
        }
        let mut hash = WordFnv::default();
        hash.update(&head[8..]);
        Ok(Some(StreamedFrame { cksum, len, hash }))
    }

    /// The body fed to `hash` matches the checksum.
    pub fn sound(&self) -> bool {
        self.hash.finish() == self.cksum
    }
}

/// Append exactly the next `n` bytes of `src` to `buf` and feed them to
/// `hash`. `n` must already be checked against the bytes `src` holds: it is
/// reserved up front, and the bytes land in it with no zero-fill. A source
/// that ends first is an I/O error.
pub(crate) fn read_onto(
    src: &mut impl Read,
    n: u64,
    buf: &mut Vec<u8>,
    hash: &mut WordFnv,
) -> io::Result<()> {
    let from = buf.len();
    buf.reserve_exact(n as usize);
    src.by_ref().take(n).read_to_end(buf)?;
    if (buf.len() - from) as u64 != n {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    hash.update(&buf[from..]);
    Ok(())
}

/// [`Frame::split`] for a source too large to hold in memory: one frame at
/// a time through one reusable buffer, grown to the largest frame met and
/// never past what the source still holds.
#[derive(Debug)]
pub struct FrameReader<R> {
    src: R,
    left: u64,
    buf: Vec<u8>,
}

impl<R: Read> FrameReader<R> {
    /// `left` is how many bytes `src` really has from its current position
    /// (a file's length minus what was already read from it): the bound
    /// every frame length is checked against before anything is allocated.
    pub fn new(src: R, left: u64) -> Self {
        FrameReader {
            src,
            left,
            buf: Vec::new(),
        }
    }

    /// Bytes of the source after the last frame returned.
    pub fn left(&self) -> u64 {
        self.left
    }

    /// The next frame, as [`Frame::split`] would give it. `None` when what
    /// is left cannot hold a frame header or the frame its header claims —
    /// [`FrameReader::left`] tells a clean end (0) from a cut one — and the
    /// reader is spent. A source that ends inside the frame is an I/O
    /// error.
    pub fn next_frame(&mut self) -> io::Result<Option<Frame<'_>>> {
        let Some(mut frame) = StreamedFrame::head(&mut self.src, self.left)? else {
            return Ok(None);
        };
        self.buf.clear();
        read_onto(&mut self.src, frame.len, &mut self.buf, &mut frame.hash)?;
        self.left -= 16 + frame.len;
        Ok(Some(Frame {
            sound: frame.sound(),
            body: &self.buf,
        }))
    }
}

/// A [`Cursor`] read ran past the end of its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated;

/// Checked little-endian reader over a byte slice: every read either fits
/// in what is left or is [`Truncated`]; nothing panics, nothing allocates.
#[derive(Debug, Clone)]
pub struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor(bytes)
    }

    pub fn remaining(&self) -> usize {
        self.0.len()
    }

    /// The next `n` bytes. Check a count against [`Cursor::remaining`] with
    /// `checked_mul` before turning it into an `n`.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        if n > self.0.len() {
            return Err(Truncated);
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], Truncated> {
        Ok(self.take(N)?.try_into().expect("take(N) is N bytes"))
    }
}

/// `Cursor::u32()` and friends: the next little-endian value of that type.
macro_rules! le_reads {
    ($($ty:ident)*) => {
        impl Cursor<'_> {$(
            pub fn $ty(&mut self) -> Result<$ty, Truncated> {
                self.array().map($ty::from_le_bytes)
            }
        )*}
    };
}
le_reads!(u8 u32 u64 i64 f32 f64);

#[cfg(test)]
mod tests {
    use super::*;
    use hpacml_faults::fnv1a64;

    #[test]
    fn a_rename_syncs_the_directory_that_holds_the_file() {
        for (path, dir) in [
            ("m.hml", "."),
            ("./m.hml", "."),
            ("models/m.hml", "models"),
            ("/m.hml", "/"),
        ] {
            assert_eq!(parent_dir(Path::new(path)), Path::new(dir), "{path}");
        }
        assert!(std::fs::File::open(parent_dir(Path::new("m.hml"))).is_ok());
    }

    #[test]
    fn word_checksum_sees_every_flip_and_ignores_slicing() {
        // Lengths on both sides of the word boundary, tail included.
        for len in [0usize, 1, 7, 8, 9, 16, 23, 64, 67] {
            let clean: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let want = fnv1a64_words(&[&clean]);
            // One string however it is cut, empty parts included.
            for a in 0..=len {
                for b in a..=len {
                    let parts = [&clean[..a], &clean[a..b], &[][..], &clean[b..]];
                    assert_eq!(fnv1a64_words(&parts), want, "len {len} cut {a}/{b}");
                }
            }
            // Every single-bit flip and every whole-byte change is seen.
            for at in 0..len {
                for mask in (0..8).map(|bit| 1u8 << bit).chain([0xff, 0x5a]) {
                    let mut bad = clean.clone();
                    bad[at] ^= mask;
                    assert_ne!(
                        fnv1a64_words(&[&bad]),
                        want,
                        "len {len} byte {at} ^ {mask:#x}"
                    );
                }
            }
        }
        // Under 8 bytes it is the byte-wise function; from 8 up it is not.
        assert_eq!(fnv1a64_words(&[b"h5lite"]), fnv1a64(b"h5lite"));
        assert_ne!(fnv1a64_words(&[b"h5lite03"]), fnv1a64(b"h5lite03"));
    }

    /// The definition, on the whole string at once.
    fn whole_string_hash(bytes: &[u8]) -> u64 {
        let step = |h: u64, word: u64| (h ^ word).wrapping_mul(FNV_PRIME);
        let words = bytes.chunks_exact(8);
        let tail = words.remainder();
        let h = words.fold(FNV_OFFSET, |h, w| {
            step(h, u64::from_le_bytes(w.try_into().unwrap()))
        });
        tail.iter().fold(h, |h, b| step(h, u64::from(*b)))
    }

    proptest::proptest! {
        #[test]
        fn any_chunking_hashes_like_the_whole_string(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..200),
            cuts in proptest::collection::vec(0usize..=200, 0..8),
        ) {
            // Sorted cut points: repeats make empty parts, most fall inside
            // a word.
            let mut cuts: Vec<usize> = cuts.iter().map(|c| *c.min(&bytes.len())).collect();
            cuts.sort_unstable();
            cuts.push(bytes.len());
            let (mut h, mut at, mut parts) = (WordFnv::default(), 0, Vec::new());
            for cut in cuts {
                h.update(&bytes[at..cut]);
                parts.push(&bytes[at..cut]);
                let _ = h.finish(); // reading the hash does not disturb it
                at = cut;
            }
            let want = whole_string_hash(&bytes);
            proptest::prop_assert_eq!(h.finish(), want);
            proptest::prop_assert_eq!(fnv1a64_words(&parts), want);
        }
    }

    /// The bytes of a file written frame by frame from offset 0.
    fn framed(name: &str, frames: &[(&[u8], &[u8])]) -> (Vec<u8>, Vec<u64>) {
        let dir = std::env::temp_dir().join("hpacml-store-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let f = File::create(&path).unwrap();
        let mut lens = Vec::new();
        for (head, payload) in frames {
            let at = lens.iter().sum();
            lens.push(write_frame(&f, at, head, payload).unwrap());
        }
        (std::fs::read(&path).unwrap(), lens)
    }

    #[test]
    fn frames_read_back_and_no_length_outruns_the_source() {
        let (file, lens) = framed("read_back.frames", &[(&[7, 1], &[2, 3, 4]), (&[], &[])]);
        assert_eq!((lens, file.len()), (vec![21, 16], 37));
        let (f, rest) = Frame::split(&file).unwrap();
        assert!(f.sound && f.body == [7, 1, 2, 3, 4] && rest.len() == 16);
        assert!(Frame::split(&file[..20]).is_none() && Frame::split(&file[..15]).is_none());
        let mut rd = FrameReader::new(&file[..], 37);
        let f = rd.next_frame().unwrap().unwrap();
        assert!(f.sound && f.body == [7, 1, 2, 3, 4]);
        assert_eq!(rd.left(), 16);
        let f = rd.next_frame().unwrap().unwrap();
        assert!(f.sound && f.body.is_empty());
        assert!(rd.next_frame().unwrap().is_none() && rd.left() == 0);

        // A damaged frame is stepped over by its length.
        let mut bad = file.clone();
        bad[20] ^= 1;
        let mut rd = FrameReader::new(&bad[..], 37);
        assert!(!rd.next_frame().unwrap().unwrap().sound);
        assert!(rd.next_frame().unwrap().unwrap().sound);

        // A length the source cannot hold ends the read with nothing
        // allocated for it; a source shorter than promised is an I/O error.
        bad[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut rd = FrameReader::new(&bad[..], 37);
        assert!(rd.next_frame().unwrap().is_none());
        assert_eq!((rd.left(), rd.buf.capacity()), (37, 0));
        let mut rd = FrameReader::new(&file[..30], 37);
        assert!(rd.next_frame().unwrap().is_some());
        assert!(rd.next_frame().is_err());
    }

    /// A streamed frame is read in parts and hashed as each part lands:
    /// however the body is cut, it is sound exactly when `Frame::split`
    /// says so, and the parts land whole, in order.
    #[test]
    fn a_frame_streamed_in_parts_is_sound_as_split_says() {
        let (file, _) = framed(
            "streamed.frames",
            &[(&[7, 1], &[2, 3, 4, 5, 6]), (&[], &[])],
        );
        let stream = |bytes: &[u8], cut: u64| {
            let mut src = bytes;
            let mut frame = StreamedFrame::head(&mut src, bytes.len() as u64)
                .unwrap()
                .unwrap();
            let mut body = Vec::new();
            read_onto(&mut src, cut, &mut body, &mut frame.hash).unwrap();
            read_onto(&mut src, frame.len - cut, &mut body, &mut frame.hash).unwrap();
            (frame.sound(), body)
        };
        for cut in 0..=7 {
            assert_eq!(stream(&file, cut), (true, vec![7, 1, 2, 3, 4, 5, 6]));
            let mut bad = file.clone();
            bad[16 + cut as usize % 7] ^= 0x10;
            assert!(!Frame::split(&bad).unwrap().0.sound);
            assert!(!stream(&bad, cut).0, "cut {cut}");
        }

        // A length the source cannot hold is no frame, and nothing is read
        // past the header; a source shorter than its `left` is an I/O error.
        let mut src = &file[..22];
        assert!(StreamedFrame::head(&mut src, 22).unwrap().is_none());
        assert!(StreamedFrame::head(&mut &file[..15], 15).unwrap().is_none());
        let mut src = &file[..20];
        let mut frame = StreamedFrame::head(&mut src, 23).unwrap().unwrap();
        let mut body = Vec::new();
        assert!(read_onto(&mut src, frame.len, &mut body, &mut frame.hash).is_err());
    }

    #[test]
    fn a_frame_is_the_same_bytes_at_every_pool_width() {
        // Payloads below and above a page, and one that is not a whole
        // number of words.
        let payloads: Vec<Vec<u8>> = [0usize, 5, 4096, 100_003]
            .iter()
            .map(|&n| (0..n).map(|i| (i * 131 + 7) as u8).collect())
            .collect();
        let frames: Vec<(&[u8], &[u8])> = payloads.iter().map(|p| (&b"head"[..], &p[..])).collect();
        let want: Vec<u8> = frames
            .iter()
            .flat_map(|(head, payload)| {
                let len = ((head.len() + payload.len()) as u64).to_le_bytes();
                let cksum = fnv1a64_words(&[&len, head, payload]).to_le_bytes();
                [&cksum[..], &len, head, payload].concat()
            })
            .collect();
        for workers in [0, 2] {
            let pool = hpacml_par::Pool::new(workers);
            let name = format!("width_{workers}.frames");
            let (got, _) = hpacml_par::with_pool(&pool, || framed(&name, &frames));
            assert!(got == want, "{workers} workers");
        }
    }

    #[test]
    fn cursor_reads_little_endian_and_never_past_the_end() {
        let mut buf = vec![9u8];
        buf.extend(42u32.to_le_bytes());
        buf.extend((1u64 << 40).to_le_bytes());
        buf.extend((-7i64).to_le_bytes());
        buf.extend(0.5f32.to_le_bytes());
        buf.extend(2.5f64.to_le_bytes());
        let mut rd = Cursor::new(&buf);
        assert_eq!(rd.u8(), Ok(9));
        assert_eq!(rd.u32(), Ok(42));
        assert_eq!(rd.u64(), Ok(1 << 40));
        assert_eq!(rd.i64(), Ok(-7));
        assert_eq!(rd.f32(), Ok(0.5));
        assert_eq!(rd.remaining(), 8);
        assert_eq!(rd.clone().u64().map(f64::from_bits), Ok(2.5));
        assert_eq!(rd.take(9), Err(Truncated));
        assert_eq!(rd.f64(), Ok(2.5));
        assert_eq!(
            (rd.u8(), rd.take(usize::MAX)),
            (Err(Truncated), Err(Truncated))
        );
        assert_eq!(rd.take(0), Ok(&[][..]));
    }
}
