//! The on-disk CSR shard formats and their mmap-backed readers.
//!
//! **v1** (`csr`) layout, all integers little-endian `u64`:
//!
//! ```text
//! offset  size            field
//! 0       8               magic  b"KRONCSR1"
//! 8       8               vertex_lo — first product vertex of the shard
//! 16      8               num_rows  — product vertices covered
//! 24      8               nnz       — adjacency entries in the shard
//! 32      8·(num_rows+1)  offsets   — local prefix sums, offsets[0] = 0
//! ...     8·nnz           cols      — column (neighbor) vertex ids
//! ```
//!
//! Row `r` (product vertex `vertex_lo + r`) owns
//! `cols[offsets[r]..offsets[r+1]]`, sorted ascending. The header starts
//! every section at an 8-byte boundary, so a page-aligned mapping exposes
//! both arrays as `&[u64]` without copying.
//!
//! **v2** (`csr2`) keeps the 32-byte header (magic `b"KRONCSR2"`) and the
//! `num_rows + 1` `u64` offset array, but the offsets are **byte**
//! positions into a varint delta-encoded column stream that follows:
//! row `r` owns stream bytes `[offsets[r], offsets[r+1])`, holding its
//! first column as an absolute LEB128 varint and every later column as
//! the LEB128 gap to its predecessor (rows are strictly ascending, so
//! gaps are small and most columns fit in 1–2 bytes instead of 8).
//! [`Csr2Reader::row`] decodes a row on demand; [`CsrMap`] dispatches on
//! the magic so every caller handles both formats through one
//! [`RowRef`]-returning API. v1 stays readable forever.

use crate::mmap::{as_u64s, Mmap};
use std::borrow::Cow;
use std::fs::File;
use std::io;
use std::io::Read;
use std::path::Path;
use std::sync::Arc;

/// File magic, also the format version.
pub const MAGIC: &[u8; 8] = b"KRONCSR1";

/// File magic of the varint delta-encoded v2 format.
pub const MAGIC2: &[u8; 8] = b"KRONCSR2";

/// Header size in bytes.
pub const HEADER: u64 = 32;

/// Exact file size of a shard with the given dimensions, or `None` if
/// the dimensions are corrupt enough to overflow (an attacker- or
/// corruption-supplied header must not panic the reader).
///
/// This is the **only** size computation for the format: there is
/// deliberately no panicking variant, so header-derived dimensions can
/// never wrap or abort no matter which call path reaches them.
pub fn file_size_checked(num_rows: u64, nnz: u64) -> Option<u64> {
    let offsets = num_rows.checked_add(1)?.checked_mul(8)?;
    let cols = nnz.checked_mul(8)?;
    HEADER.checked_add(offsets)?.checked_add(cols)
}

/// Exact file size of a v2 shard with the given dimensions and column
/// stream length, or `None` on overflow. Same contract as
/// [`file_size_checked`]: the only size computation for the format, with
/// no panicking variant.
pub fn file_size2_checked(num_rows: u64, stream_bytes: u64) -> Option<u64> {
    let offsets = num_rows.checked_add(1)?.checked_mul(8)?;
    HEADER.checked_add(offsets)?.checked_add(stream_bytes)
}

/// Append `x` as an LEB128 varint (7 value bits per byte, high bit set
/// on every byte but the last). At most 10 bytes for a `u64`.
#[inline]
pub fn varint_push(mut x: u64, out: &mut Vec<u8>) {
    while x >= 0x80 {
        out.push((x as u8 & 0x7f) | 0x80);
        x >>= 7;
    }
    out.push(x as u8);
}

/// Decode one LEB128 varint starting at `bytes[*pos]`, advancing `pos`
/// past it. `None` if the buffer ends mid-varint or the value overflows
/// a `u64` — corrupt input is reported, never a panic.
#[inline]
pub fn varint_read(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *bytes.get(*pos)?;
        *pos += 1;
        if shift >= 63 && b > 1 {
            return None; // would overflow the 64th bit
        }
        x |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some(x);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Encode a sorted row as the v2 column stream bytes: first column
/// absolute, every later column as the gap to its predecessor. This is
/// also the `GET /row` wire encoding (`enc=vd`).
pub fn encode_row_vd(row: &[u64], out: &mut Vec<u8>) {
    let mut prev = 0u64;
    for (i, &q) in row.iter().enumerate() {
        varint_push(if i == 0 { q } else { q - prev }, out);
        prev = q;
    }
}

/// Decode a v2 column stream back into columns. `false` if the bytes
/// are malformed — a truncated varint, an overflowing delta, or a gap of
/// 0 (rows are strictly ascending, so no writer emits one). `out` then
/// holds only the columns decoded before the defect and must not be
/// served as a row; every caller turns `false` into an error.
pub fn decode_row_vd(bytes: &[u8], out: &mut Vec<u64>) -> bool {
    let mut pos = 0usize;
    let mut prev = 0u64;
    let mut first = true;
    while pos < bytes.len() {
        let Some(delta) = varint_read(bytes, &mut pos) else {
            return false;
        };
        let q = prev.wrapping_add(delta);
        // past the first (absolute) column, `q <= prev` is a gap of 0
        // (equal) or a delta that overflowed (wrapped below)
        if q <= prev && !first {
            return false;
        }
        first = false;
        out.push(q);
        prev = q;
    }
    true
}

/// Zero-copy reader over an on-disk CSR shard.
///
/// Opening validates the header against the file length and the offset
/// array's structure; row access is then slicing into the mapping.
pub struct CsrReader {
    map: Mmap,
    vertex_lo: u64,
    num_rows: u64,
    nnz: u64,
}

impl CsrReader {
    /// Map and validate a CSR shard file.
    ///
    /// # Errors
    ///
    /// `InvalidData` for a bad magic, a header that contradicts the file
    /// size (with overflow-checked arithmetic), or non-monotone offsets;
    /// any I/O error from opening or mapping the file.
    pub fn open(path: &Path) -> io::Result<CsrReader> {
        let file = File::open(path)?;
        let map = Mmap::map_readonly(&file)?;
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        if map.len() < HEADER as usize {
            return Err(bad(format!("{}: truncated header", path.display())));
        }
        if &map[..8] != MAGIC {
            return Err(bad(format!(
                "{}: bad magic (not a KRONCSR1 file)",
                path.display()
            )));
        }
        let word = |i: usize| u64::from_le_bytes(map[8 * i..8 * i + 8].try_into().unwrap());
        let (vertex_lo, num_rows, nnz) = (word(1), word(2), word(3));
        let expect = file_size_checked(num_rows, nnz)
            .filter(|&sz| usize::try_from(sz).is_ok())
            .ok_or_else(|| {
                bad(format!(
                    "{}: header dimensions overflow ({num_rows} rows, {nnz} nnz)",
                    path.display()
                ))
            })?;
        if map.len() as u64 != expect {
            return Err(bad(format!(
                "{}: file is {} bytes, header implies {expect}",
                path.display(),
                map.len()
            )));
        }
        let reader = CsrReader {
            map,
            vertex_lo,
            num_rows,
            nnz,
        };
        let offsets = reader.offsets();
        if offsets[0] != 0 || offsets[num_rows as usize] != nnz {
            return Err(bad(format!(
                "{}: offset array endpoints corrupt",
                path.display()
            )));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(bad(format!("{}: offsets not monotone", path.display())));
        }
        Ok(reader)
    }

    /// First product vertex of the shard.
    pub fn vertex_lo(&self) -> u64 {
        self.vertex_lo
    }

    /// Product vertices covered.
    pub fn num_rows(&self) -> u64 {
        self.num_rows
    }

    /// Adjacency entries stored.
    pub fn nnz(&self) -> u64 {
        self.nnz
    }

    /// The local offset array (`num_rows + 1` entries), zero-copy.
    pub fn offsets(&self) -> &[u64] {
        let start = HEADER as usize;
        let end = start + 8 * (self.num_rows as usize + 1);
        as_u64s(&self.map[start..end])
    }

    /// The flat column array, zero-copy.
    pub fn cols(&self) -> &[u64] {
        let start = HEADER as usize + 8 * (self.num_rows as usize + 1);
        as_u64s(&self.map[start..])
    }

    /// The adjacency row of product vertex `p`, or `None` if `p` is
    /// outside the shard. Zero-copy slice into the mapping.
    pub fn row(&self, p: u64) -> Option<&[u64]> {
        let local = p.checked_sub(self.vertex_lo)?;
        if local >= self.num_rows {
            return None;
        }
        let offsets = self.offsets();
        let (lo, hi) = (
            offsets[local as usize] as usize,
            offsets[local as usize + 1] as usize,
        );
        Some(&self.cols()[lo..hi])
    }
}

/// Reader over a v2 (varint delta-encoded) CSR shard.
///
/// Opening validates the header, the byte-offset array's structure, and
/// the exact file length; [`Csr2Reader::row`] then decodes one row's
/// stream slice on demand and refuses a slice that does not decode.
/// Content integrity (row lengths, checksums) is the job of
/// `verify-shards` / checksum-verified opens, exactly as for v1.
pub struct Csr2Reader {
    map: Mmap,
    vertex_lo: u64,
    num_rows: u64,
    nnz: u64,
}

impl Csr2Reader {
    /// Map and validate a v2 CSR shard file.
    ///
    /// # Errors
    ///
    /// `InvalidData` for a bad magic, a header or offset array that
    /// contradicts the file size (overflow-checked), or non-monotone
    /// byte offsets; any I/O error from opening or mapping the file.
    pub fn open(path: &Path) -> io::Result<Csr2Reader> {
        let file = File::open(path)?;
        let map = Mmap::map_readonly(&file)?;
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        if map.len() < HEADER as usize {
            return Err(bad(format!("{}: truncated header", path.display())));
        }
        if &map[..8] != MAGIC2 {
            return Err(bad(format!(
                "{}: bad magic (not a KRONCSR2 file)",
                path.display()
            )));
        }
        let word = |i: usize| u64::from_le_bytes(map[8 * i..8 * i + 8].try_into().unwrap());
        let (vertex_lo, num_rows, nnz) = (word(1), word(2), word(3));
        let table_end = file_size2_checked(num_rows, 0)
            .filter(|&sz| usize::try_from(sz).is_ok())
            .ok_or_else(|| {
                bad(format!(
                    "{}: header dimensions overflow ({num_rows} rows, {nnz} nnz)",
                    path.display()
                ))
            })?;
        if (map.len() as u64) < table_end {
            return Err(bad(format!(
                "{}: file is {} bytes, too short for {num_rows} row offsets",
                path.display(),
                map.len()
            )));
        }
        let reader = Csr2Reader {
            map,
            vertex_lo,
            num_rows,
            nnz,
        };
        let offsets = reader.offsets();
        let stream_bytes = offsets[num_rows as usize];
        if offsets[0] != 0 {
            return Err(bad(format!(
                "{}: offset array endpoints corrupt",
                path.display()
            )));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(bad(format!("{}: offsets not monotone", path.display())));
        }
        let expect = file_size2_checked(num_rows, stream_bytes)
            .filter(|&sz| usize::try_from(sz).is_ok())
            .ok_or_else(|| {
                bad(format!(
                    "{}: offset array overflows ({num_rows} rows, {stream_bytes} stream bytes)",
                    path.display()
                ))
            })?;
        if reader.map.len() as u64 != expect {
            return Err(bad(format!(
                "{}: file is {} bytes, header implies {expect}",
                path.display(),
                reader.map.len()
            )));
        }
        // Each stored entry takes at least one stream byte, so a stream
        // shorter than nnz bytes cannot hold the claimed entries.
        if stream_bytes < nnz {
            return Err(bad(format!(
                "{}: {stream_bytes}-byte column stream cannot hold {nnz} entries",
                path.display()
            )));
        }
        Ok(reader)
    }

    /// First product vertex of the shard.
    pub fn vertex_lo(&self) -> u64 {
        self.vertex_lo
    }

    /// Product vertices covered.
    pub fn num_rows(&self) -> u64 {
        self.num_rows
    }

    /// Adjacency entries stored.
    pub fn nnz(&self) -> u64 {
        self.nnz
    }

    /// The byte-offset array (`num_rows + 1` entries), zero-copy.
    /// Offsets are relative to the column stream's start;
    /// `offsets[num_rows]` is the stream length.
    pub fn offsets(&self) -> &[u64] {
        let start = HEADER as usize;
        let end = start + 8 * (self.num_rows as usize + 1);
        as_u64s(&self.map[start..end])
    }

    /// The varint delta-encoded column stream, zero-copy.
    pub fn stream(&self) -> &[u8] {
        &self.map[HEADER as usize + 8 * (self.num_rows as usize + 1)..]
    }

    /// The still-encoded stream bytes of product vertex `p`'s row, or
    /// `None` if `p` is outside the shard. Zero-copy: this is what the
    /// `GET /row` `enc=vd` wire path serves without decoding.
    pub fn row_bytes(&self, p: u64) -> Option<&[u8]> {
        let local = p.checked_sub(self.vertex_lo)?;
        if local >= self.num_rows {
            return None;
        }
        let offsets = self.offsets();
        let (lo, hi) = (
            offsets[local as usize] as usize,
            offsets[local as usize + 1] as usize,
        );
        Some(&self.stream()[lo..hi])
    }

    /// The decoded adjacency row of product vertex `p`, or `None` if
    /// `p` is outside the shard **or its stream bytes are malformed**
    /// (see [`decode_row_vd`]) — a short row is never handed out.
    pub fn row(&self, p: u64) -> Option<Vec<u64>> {
        let bytes = self.row_bytes(p)?;
        // every varint ends in exactly one byte without the high bit, so
        // this is the row length: one allocation, never a regrowth
        let len = bytes.iter().filter(|&&b| b & 0x80 == 0).count();
        let mut out = Vec::with_capacity(len);
        decode_row_vd(bytes, &mut out).then_some(out)
    }
}

/// The one adjacency-row handle, `Deref`ing to `&[u64]`.
///
/// v1 rows are zero-copy slices of the mapping; v2 rows are decoded into
/// an owned buffer; rows out of a hot-row cache or fetched from a cluster
/// peer are shared. Every kernel above the reader is generic over
/// `Deref<Target = [u64]>`, so all three travel the same paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowRef<'a> {
    /// A zero-copy slice into a v1 mapping.
    Mapped(&'a [u64]),
    /// A row decoded out of a v2 column stream.
    Decoded(Vec<u64>),
    /// A shared row: out of the hot-row cache, or fetched from a peer.
    Shared(Arc<[u64]>),
}

impl RowRef<'_> {
    /// The row as a plain slice.
    pub fn as_slice(&self) -> &[u64] {
        self
    }
}

impl std::ops::Deref for RowRef<'_> {
    type Target = [u64];

    #[inline]
    fn deref(&self) -> &[u64] {
        match self {
            RowRef::Mapped(s) => s,
            RowRef::Decoded(v) => v,
            RowRef::Shared(a) => a,
        }
    }
}

impl From<RowRef<'_>> for Arc<[u64]> {
    fn from(row: RowRef<'_>) -> Arc<[u64]> {
        match row {
            RowRef::Mapped(s) => s.into(),
            RowRef::Decoded(v) => v.into(),
            RowRef::Shared(a) => a,
        }
    }
}

/// Borrowed for a mapped row, owned otherwise (a shared row is copied).
impl<'a> From<RowRef<'a>> for Cow<'a, [u64]> {
    fn from(row: RowRef<'a>) -> Cow<'a, [u64]> {
        match row {
            RowRef::Mapped(s) => Cow::Borrowed(s),
            RowRef::Decoded(v) => Cow::Owned(v),
            RowRef::Shared(a) => Cow::Owned(a.to_vec()),
        }
    }
}

impl From<RowRef<'_>> for Vec<u64> {
    fn from(row: RowRef<'_>) -> Vec<u64> {
        Cow::from(row).into_owned()
    }
}

/// A mapped CSR shard of either on-disk format, dispatching on the file
/// magic. Readers above this type ([`crate::ShardSet`], the serving
/// engine) see one [`RowRef`]-returning row API and never branch on the
/// format again.
pub enum CsrMap {
    /// v1: raw `u64` columns, zero-copy rows.
    V1(CsrReader),
    /// v2: varint delta-encoded columns, rows decoded on demand.
    V2(Csr2Reader),
}

impl CsrMap {
    /// Map and validate a CSR shard file of either format, sniffing the
    /// 8-byte magic to pick the reader.
    ///
    /// # Errors
    ///
    /// `InvalidData` for an unrecognized magic or any structural defect
    /// the format's reader rejects; any I/O error from opening the file.
    pub fn open(path: &Path) -> io::Result<CsrMap> {
        let mut magic = [0u8; 8];
        let n = File::open(path)?.read(&mut magic)?;
        match &magic[..n] {
            m if m == MAGIC => Ok(CsrMap::V1(CsrReader::open(path)?)),
            m if m == MAGIC2 => Ok(CsrMap::V2(Csr2Reader::open(path)?)),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{}: bad magic (not a KRONCSR1 or KRONCSR2 file)",
                    path.display()
                ),
            )),
        }
    }

    /// Whether this shard is the v2 (varint delta-encoded) format.
    pub fn is_v2(&self) -> bool {
        matches!(self, CsrMap::V2(_))
    }

    /// First product vertex of the shard.
    pub fn vertex_lo(&self) -> u64 {
        match self {
            CsrMap::V1(r) => r.vertex_lo(),
            CsrMap::V2(r) => r.vertex_lo(),
        }
    }

    /// Product vertices covered.
    pub fn num_rows(&self) -> u64 {
        match self {
            CsrMap::V1(r) => r.num_rows(),
            CsrMap::V2(r) => r.num_rows(),
        }
    }

    /// Adjacency entries stored.
    pub fn nnz(&self) -> u64 {
        match self {
            CsrMap::V1(r) => r.nnz(),
            CsrMap::V2(r) => r.nnz(),
        }
    }

    /// The adjacency row of product vertex `p`: zero-copy for v1,
    /// decoded for v2. `None` if `p` is outside the shard or (v2 only)
    /// its stream bytes do not decode — for a `p` the caller routed into
    /// this shard's range, `None` therefore means a corrupt artifact.
    // Every reader's per-row dispatch: without the hint the cross-crate
    // inliner skips it and each whole-graph kernel pays a call, a
    // memory round trip of the handle and ~20 ns per row.
    #[inline]
    pub fn row(&self, p: u64) -> Option<RowRef<'_>> {
        match self {
            CsrMap::V1(r) => r.row(p).map(RowRef::Mapped),
            CsrMap::V2(r) => r.row(p).map(RowRef::Decoded),
        }
    }

    /// An upper bound on the entry count of `p`'s row that costs two
    /// offset reads and no decode: exact for v1, the stream byte length
    /// for v2 (every entry is at least one byte). `None` if `p` is
    /// outside the shard.
    pub fn row_len_bound(&self, p: u64) -> Option<usize> {
        match self {
            CsrMap::V1(r) => r.row(p).map(<[u64]>::len),
            CsrMap::V2(r) => r.row_bytes(p).map(<[u8]>::len),
        }
    }

    /// Append `p`'s row in the `enc=vd` wire encoding to `out`: the
    /// stored stream bytes verbatim for v2 (no decode — the fetching
    /// side validates them), encoded on the fly for v1. `false`, with
    /// `out` untouched, if `p` is outside the shard.
    pub fn append_row_vd(&self, p: u64, out: &mut Vec<u8>) -> bool {
        match self {
            CsrMap::V1(r) => r.row(p).map(|row| encode_row_vd(row, out)),
            CsrMap::V2(r) => r.row_bytes(p).map(|b| out.extend_from_slice(b)),
        }
        .is_some()
    }

    /// [`CsrMap::row`] without the allocation, for a scan over many rows:
    /// a v1 row is the mapped slice, a v2 row is decoded into `buf`
    /// (cleared first) and borrowed from it. `None` exactly when
    /// [`CsrMap::row`] is.
    pub fn row_into<'a>(&'a self, p: u64, buf: &'a mut Vec<u64>) -> Option<&'a [u64]> {
        match self {
            CsrMap::V1(r) => r.row(p),
            CsrMap::V2(r) => {
                buf.clear();
                decode_row_vd(r.row_bytes(p)?, buf).then_some(&buf[..])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{Csr2Sink, CsrSink, EdgeSink};

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("kron_csr_test_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Every row of the shard in vertex order, read the way a scan does.
    fn rows_of(map: &CsrMap) -> Vec<(u64, Vec<u64>)> {
        let mut buf = Vec::new();
        (map.vertex_lo()..map.vertex_lo() + map.num_rows())
            .map(|p| (p, map.row_into(p, &mut buf).expect("row decodes").to_vec()))
            .collect()
    }

    #[test]
    fn write_then_mmap_roundtrip_bit_exact() {
        let dir = tmpdir("roundtrip");
        // rows: vertex 10: [3, 7]; vertex 11: []; vertex 12: [0]
        let lens = vec![2u64, 0, 1];
        let mut sink = CsrSink::create(&dir, "s.csr", 10, lens.into_iter()).unwrap();
        sink.push_run(10, &[3, 7]).unwrap();
        sink.push_run(12, &[0]).unwrap();
        let (name, bytes) = sink.finish().unwrap().unwrap();
        assert_eq!(name, "s.csr");
        assert_eq!(Some(bytes), file_size_checked(3, 3));
        let r = CsrReader::open(&dir.join("s.csr")).unwrap();
        assert_eq!(r.vertex_lo(), 10);
        assert_eq!(r.num_rows(), 3);
        assert_eq!(r.nnz(), 3);
        assert_eq!(r.row(10).unwrap(), &[3, 7]);
        assert_eq!(r.row(11).unwrap(), &[] as &[u64]);
        assert_eq!(r.row(12).unwrap(), &[0]);
        assert_eq!(r.row(13), None);
        assert_eq!(r.row(9), None);
        let rows: Vec<(u64, Vec<u64>)> = rows_of(&CsrMap::V1(r));
        assert_eq!(
            rows,
            vec![(10, vec![3, 7]), (11, vec![]), (12, vec![0])],
            "a scan must visit every vertex in order, empty rows included"
        );
    }

    /// Every admission rejection, for the sink `create` builds over the
    /// given row lengths (both formats share the cursor, so both must
    /// refuse the same runs).
    fn rejects_bad_runs<S: EdgeSink>(create: impl Fn(&str, Vec<u64>) -> S) {
        let bad = |sink: &mut S, p: u64, cols: &[u64], want: &str| {
            let err = sink.push_run(p, cols).unwrap_err().to_string();
            assert!(err.contains(want), "{p} {cols:?}: {err}");
        };
        let order = "out of row-major order or exceeds";
        // vertex outside the shard, below and above
        let mut sink = create("outside", vec![1, 1]);
        bad(&mut sink, 4, &[5], "outside shard");
        bad(&mut sink, 7, &[5], "outside shard");
        // a later row while the open one is short (a short row)
        bad(&mut sink, 6, &[5], order);
        // going back a row
        let mut sink = create("back", vec![1, 1]);
        sink.push_run(5, &[5]).unwrap();
        sink.push_run(6, &[6]).unwrap();
        bad(&mut sink, 5, &[7], order);
        // a run past the closed-form length: at once, and as a second run
        let mut sink = create("past", vec![2, 0, 3]);
        bad(&mut sink, 5, &[1, 2, 3], order);
        sink.push_run(5, &[1]).unwrap();
        bad(&mut sink, 5, &[2, 3], order);
        sink.push_run(5, &[2]).unwrap();
        bad(&mut sink, 5, &[3], order);
        // a run for an empty row
        bad(&mut create("empty", vec![0, 1]), 5, &[1], order);
        // finish with entries ≠ nnz
        let mut sink = create("underfull", vec![2, 0, 3]);
        sink.push_run(5, &[1, 2]).unwrap();
        sink.push_run(7, &[1, 2]).unwrap();
        let err = sink.finish().unwrap_err().to_string();
        assert!(err.contains("wrote 4 of 5 entries"), "{err}");
    }

    #[test]
    fn csr_sink_rejects_out_of_order_and_overflow() {
        let dir = tmpdir("order");
        rejects_bad_runs(|name, lens| {
            CsrSink::create(&dir, &format!("{name}.csr"), 5, lens.into_iter()).unwrap()
        });
        rejects_bad_runs(|name, lens| {
            Csr2Sink::create(&dir, &format!("{name}.csr2"), 5, lens.into_iter()).unwrap()
        });
        // failed sinks leave only .tmp files behind
        let left: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(left.len(), 10, "{left:?}");
        assert!(left.iter().all(|name| name.ends_with(".tmp")), "{left:?}");
    }

    #[test]
    fn reader_rejects_overflowing_header_without_panicking() {
        // 40-byte file whose header claims 2^61−1 rows: the naive size
        // computation 8·(rows+1) wraps; open must return an error.
        let dir = tmpdir("overflow");
        let path = dir.join("evil.csr");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&0u64.to_le_bytes()); // vertex_lo
        bytes.extend_from_slice(&((1u64 << 61) - 1).to_le_bytes()); // num_rows
        bytes.extend_from_slice(&1u64.to_le_bytes()); // nnz
        bytes.extend_from_slice(&0u64.to_le_bytes()); // filler
        std::fs::write(&path, &bytes).unwrap();
        let err = match CsrReader::open(&path) {
            Err(e) => e,
            Ok(_) => panic!("overflowing header must not open"),
        };
        assert!(err.to_string().contains("overflow"), "{err}");
        assert_eq!(file_size_checked(u64::MAX, 1), None);
    }

    #[test]
    fn varint_roundtrips_and_rejects_malformed() {
        let samples = [
            0u64,
            1,
            0x7f,
            0x80,
            300,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut buf = Vec::new();
        for &x in &samples {
            varint_push(x, &mut buf);
        }
        let mut pos = 0;
        for &x in &samples {
            assert_eq!(varint_read(&buf, &mut pos), Some(x));
        }
        assert_eq!(pos, buf.len());
        // truncated mid-varint
        let mut long = Vec::new();
        varint_push(u64::MAX, &mut long);
        let mut pos = 0;
        assert_eq!(varint_read(&long[..long.len() - 1], &mut pos), None);
        // 10 continuation bytes overflow a u64
        let mut pos = 0;
        assert_eq!(varint_read(&[0xff; 11], &mut pos), None);
        // a 10th byte above 1 overflows the 64th bit
        let mut evil = vec![0x80u8; 9];
        evil.push(0x02);
        let mut pos = 0;
        assert_eq!(varint_read(&evil, &mut pos), None);
    }

    #[test]
    fn row_vd_codec_roundtrips() {
        for row in [
            vec![],
            vec![0u64],
            vec![3, 7],
            vec![0, 1, 2, 3, 1_000_000],
            vec![5, 500, u64::MAX],
        ] {
            let mut bytes = Vec::new();
            encode_row_vd(&row, &mut bytes);
            let mut back = Vec::new();
            assert!(decode_row_vd(&bytes, &mut back));
            assert_eq!(back, row);
        }
        // truncated stream decodes the prefix and reports malformed
        let mut bytes = Vec::new();
        encode_row_vd(&[1, 300], &mut bytes);
        let mut back = Vec::new();
        assert!(!decode_row_vd(&bytes[..bytes.len() - 1], &mut back));
        assert_eq!(back, vec![1]);
        // a gap of 0 would repeat a column: rows are strictly ascending,
        // so it is malformed — but a first column of 0 is a value, not a gap
        assert!(!decode_row_vd(&[5, 0], &mut Vec::new()));
        assert!(!decode_row_vd(&[0, 0], &mut Vec::new()));
        assert!(decode_row_vd(&[0, 1], &mut Vec::new()));
    }

    #[test]
    fn csr2_reader_refuses_a_row_that_does_not_decode() {
        let dir = tmpdir("v2_undecodable");
        let mut sink = Csr2Sink::create(&dir, "z.csr2", 0, vec![2u64, 1].into_iter()).unwrap();
        sink.push_run(0, &[300, 301]).unwrap();
        sink.push_run(1, &[7]).unwrap();
        sink.finish().unwrap();
        let path = dir.join("z.csr2");
        let good = std::fs::read(&path).unwrap();
        let stream0 = 32 + 8 * 3; // header + 3 byte offsets
        assert_eq!(&good[stream0..], &[0xAC, 0x02, 0x01, 0x07]);
        // (a) the gap becomes 0; (b) row 0's last byte gains a continuation
        // bit, cutting its varint at the row boundary
        for (at, byte) in [(2, 0x00), (2, 0x81)] {
            let mut bad = good.clone();
            bad[stream0 + at] = byte;
            std::fs::write(&path, &bad).unwrap();
            let map = CsrMap::open(&path).expect("structure is intact");
            assert!(map.row(0).is_none(), "short row handed out");
            assert_eq!(map.row(1).as_deref(), Some(&[7u64][..]));
            let mut buf = Vec::new();
            assert!(map.row_into(0, &mut buf).is_none(), "short row handed out");
            assert_eq!(map.row_into(1, &mut buf), Some(&[7u64][..]));
        }
    }

    #[test]
    fn csr2_write_then_read_roundtrip() {
        let dir = tmpdir("v2_roundtrip");
        // rows: vertex 10: [3, 7]; vertex 11: []; vertex 12: [0]
        let lens = vec![2u64, 0, 1];
        let mut sink = Csr2Sink::create(&dir, "s.csr2", 10, lens.into_iter()).unwrap();
        sink.push_run(10, &[3]).unwrap();
        sink.push_run(10, &[7]).unwrap();
        sink.push_run(12, &[0]).unwrap();
        let (name, bytes) = sink.finish().unwrap().unwrap();
        assert_eq!(name, "s.csr2");
        // stream: row 10 = varint(3), varint(4); row 12 = varint(0) → 3 bytes
        assert_eq!(Some(bytes), file_size2_checked(3, 3));
        let r = Csr2Reader::open(&dir.join("s.csr2")).unwrap();
        assert_eq!(r.vertex_lo(), 10);
        assert_eq!(r.num_rows(), 3);
        assert_eq!(r.nnz(), 3);
        assert_eq!(r.offsets(), &[0, 2, 2, 3]);
        assert_eq!(r.row(10).unwrap(), vec![3, 7]);
        assert_eq!(r.row(11).unwrap(), Vec::<u64>::new());
        assert_eq!(r.row(12).unwrap(), vec![0]);
        assert_eq!(r.row(13), None);
        assert_eq!(r.row(9), None);
        assert_eq!(r.row_bytes(10).unwrap(), &[3u8, 4]);
        assert_eq!(
            rows_of(&CsrMap::V2(r)),
            vec![(10, vec![3, 7]), (11, vec![]), (12, vec![0])]
        );
    }

    #[test]
    fn csr_map_dispatches_on_magic_and_rows_agree() {
        let dir = tmpdir("map_dispatch");
        let lens = vec![2u64, 0, 1];
        let mut s1 = CsrSink::create(&dir, "a.csr", 10, lens.clone().into_iter()).unwrap();
        let mut s2 = Csr2Sink::create(&dir, "a.csr2", 10, lens.into_iter()).unwrap();
        for (p, cols) in [(10, &[3, 7][..]), (12, &[0])] {
            s1.push_run(p, cols).unwrap();
            s2.push_run(p, cols).unwrap();
        }
        s1.finish().unwrap();
        s2.finish().unwrap();
        let v1 = CsrMap::open(&dir.join("a.csr")).unwrap();
        let v2 = CsrMap::open(&dir.join("a.csr2")).unwrap();
        assert!(!v1.is_v2());
        assert!(v2.is_v2());
        for v in 9..=13u64 {
            match (v1.row(v), v2.row(v)) {
                (None, None) => {}
                (Some(a), Some(b)) => assert_eq!(a.as_slice(), b.as_slice(), "row {v}"),
                (a, b) => panic!("row {v} residency disagrees: {a:?} vs {b:?}"),
            }
        }
        assert_eq!(rows_of(&v1), rows_of(&v2));
        // one wire encoding whichever format stores the row; a vertex
        // outside the shard appends nothing
        for map in [&v1, &v2] {
            let mut wire = vec![0xEE];
            assert!(map.append_row_vd(10, &mut wire));
            assert_eq!(wire, [0xEE, 3, 4]);
            assert!(!map.append_row_vd(13, &mut wire));
            assert_eq!(wire.len(), 3);
        }
        // unknown magic is a named error
        std::fs::write(dir.join("x.csr"), b"NOTACSRX________").unwrap();
        let err = match CsrMap::open(&dir.join("x.csr")) {
            Err(e) => e,
            Ok(_) => panic!("unknown magic must not open"),
        };
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    #[test]
    fn csr2_sink_rejects_unsorted_columns_and_underfill() {
        let dir = tmpdir("v2_order");
        let create = |name: &str| Csr2Sink::create(&dir, name, 0, vec![3u64].into_iter()).unwrap();
        // within one run: a repeat and a descent
        for cols in [[5, 5, 6], [5, 4, 6]] {
            let err = create("bad.csr2").push_run(0, &cols).unwrap_err();
            assert!(err.to_string().contains("strictly ascending"), "{err}");
        }
        // across two runs of one row
        let mut sink = create("bad.csr2");
        sink.push_run(0, &[4, 5]).unwrap();
        let err = sink.push_run(0, &[5]).unwrap_err();
        assert!(err.to_string().contains("(5 after 5)"), "{err}");
        // …while a new row starts over
        let mut sink = Csr2Sink::create(&dir, "ok.csr2", 0, vec![1u64, 1].into_iter()).unwrap();
        sink.push_run(0, &[9]).unwrap();
        sink.push_run(1, &[2]).unwrap();
        sink.finish().unwrap();
        let mut sink2 = create("bad2.csr2");
        sink2.push_run(0, &[1]).unwrap();
        assert!(sink2.finish().is_err(), "underfull finish must fail");
        assert!(!dir.join("bad.csr2").exists());
        assert!(!dir.join("bad2.csr2").exists());
    }

    #[test]
    fn csr2_reader_rejects_overflow_and_corruption() {
        let dir = tmpdir("v2_corrupt");
        // overflowing header must not panic
        let path = dir.join("evil.csr2");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC2);
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&((1u64 << 61) - 1).to_le_bytes()); // num_rows
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = match Csr2Reader::open(&path) {
            Err(e) => e,
            Ok(_) => panic!("overflowing header must not open"),
        };
        assert!(err.to_string().contains("overflow"), "{err}");
        assert_eq!(file_size2_checked(u64::MAX, 1), None);

        let mut sink = Csr2Sink::create(&dir, "c.csr2", 0, vec![2u64].into_iter()).unwrap();
        sink.push_run(0, &[300, 301]).unwrap();
        sink.finish().unwrap();
        let path = dir.join("c.csr2");
        let good = std::fs::read(&path).unwrap();
        // v1 reader refuses a v2 file and vice versa
        assert!(CsrReader::open(&path).is_err());
        // bad magic
        let mut bad = good.clone();
        bad[7] = b'9';
        std::fs::write(&path, &bad).unwrap();
        assert!(Csr2Reader::open(&path).is_err());
        // truncated stream no longer matches the offset table
        std::fs::write(&path, &good[..good.len() - 1]).unwrap();
        assert!(Csr2Reader::open(&path).is_err());
        // stream shorter than nnz entries
        let mut bad = good.clone();
        bad[40..48].copy_from_slice(&1u64.to_le_bytes()); // offsets[1] = 1
        bad.truncate(good.len() - 2); // stream shrinks to 1 byte < nnz 2
        std::fs::write(&path, &bad).unwrap();
        let err = match Csr2Reader::open(&path) {
            Err(e) => e,
            Ok(_) => panic!("short stream must not open"),
        };
        assert!(err.to_string().contains("cannot hold"), "{err}");
        // non-monotone offsets
        let mut bad = good.clone();
        bad[32..40].copy_from_slice(&2u64.to_le_bytes()); // offsets[0] = 2
        std::fs::write(&path, &bad).unwrap();
        assert!(Csr2Reader::open(&path).is_err());
    }

    #[test]
    fn reader_rejects_corruption() {
        let dir = tmpdir("corrupt");
        let mut sink = CsrSink::create(&dir, "c.csr", 0, vec![1u64].into_iter()).unwrap();
        sink.push_run(0, &[9]).unwrap();
        sink.finish().unwrap();
        let path = dir.join("c.csr");
        let good = std::fs::read(&path).unwrap();
        // bad magic
        let mut bad = good.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        assert!(CsrReader::open(&path).is_err());
        // truncated
        std::fs::write(&path, &good[..good.len() - 8]).unwrap();
        assert!(CsrReader::open(&path).is_err());
        // offsets endpoint corrupt (nnz in header says 1, offsets say 2)
        let mut bad = good.clone();
        bad[40..48].copy_from_slice(&2u64.to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        assert!(CsrReader::open(&path).is_err());
    }
}
