//! The on-disk CSR shard formats and their one mmap-backed reader.
//!
//! Both formats share one layout, all integers little-endian `u64`:
//!
//! ```text
//! offset  size            field
//! 0       8               magic  b"KRONCSR1" (csr) or b"KRONCSR2" (csr2)
//! 8       8               vertex_lo — first product vertex of the shard
//! 16      8               num_rows  — product vertices covered
//! 24      8               nnz       — adjacency entries in the shard
//! 32      8·(num_rows+1)  offsets   — local prefix sums, offsets[0] = 0
//! ...                     body      — every row's columns, in the format's codec
//! ```
//!
//! Row `r` (product vertex `vertex_lo + r`) owns body units
//! `[offsets[r], offsets[r+1])`, its columns strictly ascending. The two
//! formats differ only in the row [`Codec`]:
//!
//! * [`Codec::Raw`] (v1, `csr`): one `u64` per column, so an offset counts
//!   entries and the body is `8·nnz` bytes. The header starts every
//!   section at an 8-byte boundary, so a page-aligned mapping exposes a
//!   row as `&[u64]` without copying.
//! * [`Codec::VarintDelta`] (v2, `csr2`): a row's first column as an
//!   absolute LEB128 varint and every later column as the LEB128 gap to
//!   its predecessor, so an offset counts bytes. Gaps are small on sorted
//!   rows, and most columns take 1–2 bytes instead of 8.
//!
//! [`CsrMap`] opens either, picking the codec by the magic, and hands
//! every row out as one `Cow<[u64]>`: borrowed from the mapping for v1,
//! owned and decoded for v2. v1 stays readable forever.

use crate::mmap::{as_u64s, Mmap};
use std::borrow::Cow;
use std::fs::File;
use std::io;
use std::path::Path;

/// File magic of the v1 (raw) format.
pub const MAGIC: &[u8; 8] = b"KRONCSR1";

/// File magic of the varint delta-encoded v2 format.
pub const MAGIC2: &[u8; 8] = b"KRONCSR2";

/// Header size in bytes.
pub const HEADER: u64 = 32;

/// Exact file size of a shard with `num_rows` rows and a `body_bytes`-byte
/// body (`8·nnz` for v1, the column stream for v2), or `None` if the
/// dimensions are corrupt enough to overflow (an attacker- or
/// corruption-supplied header must not panic the reader).
///
/// This is the **only** size computation for either format: there is
/// deliberately no panicking variant, so header-derived dimensions can
/// never wrap or abort no matter which call path reaches them.
pub fn file_size_checked(num_rows: u64, body_bytes: u64) -> Option<u64> {
    let offsets = num_rows.checked_add(1)?.checked_mul(8)?;
    HEADER.checked_add(offsets)?.checked_add(body_bytes)
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
/// also the wire encoding of a row in `GET /row` and `POST /rows`.
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

/// How a shard's body stores its columns: the one thing the two on-disk
/// formats disagree on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Codec {
    /// v1 (`csr`): raw little-endian `u64` columns; offsets count entries.
    Raw,
    /// v2 (`csr2`): LEB128 first column, then LEB128 gaps; offsets count
    /// bytes.
    VarintDelta,
}

impl Codec {
    /// The file magic naming this codec.
    pub(crate) fn magic(self) -> &'static [u8; 8] {
        match self {
            Codec::Raw => MAGIC,
            Codec::VarintDelta => MAGIC2,
        }
    }

    /// Body bytes per offset unit: an entry for v1, a byte for v2.
    #[inline]
    pub(crate) fn unit(self) -> u64 {
        match self {
            Codec::Raw => 8,
            Codec::VarintDelta => 1,
        }
    }

    /// Append the encoding of `cols`, the next columns of vertex `p`'s row,
    /// to `out`. `prev` is the row's last column written so far (`None` at
    /// the start of the row) and moves past `cols`. One dispatch per call,
    /// none per column.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when the row's columns are not strictly ascending —
    /// what every binary search above the reader relies on, and all that
    /// v2's gaps can encode.
    #[inline]
    pub(crate) fn encode(
        self,
        p: u64,
        cols: &[u64],
        prev: &mut Option<u64>,
        out: &mut Vec<u8>,
    ) -> io::Result<()> {
        match self {
            Codec::Raw => {
                for &q in cols {
                    next_gap(p, q, prev)?;
                    out.extend_from_slice(&q.to_le_bytes());
                }
            }
            Codec::VarintDelta => {
                for &q in cols {
                    varint_push(next_gap(p, q, prev)?, out);
                }
            }
        }
        Ok(())
    }
}

/// The gap from the row's previous column to `q` (`q` itself at the start
/// of the row), advancing `prev` to `q`.
#[inline]
fn next_gap(p: u64, q: u64, prev: &mut Option<u64>) -> io::Result<u64> {
    let gap = match *prev {
        None => q,
        Some(last) if q > last => q - last,
        Some(last) => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "columns of vertex {p} not strictly ascending ({q} after {last}); \
                     CSR rows must be sorted"
                ),
            ))
        }
    };
    *prev = Some(q);
    Ok(gap)
}

/// A [`Codec`] fixed by a type, so that each format's writer has a name of
/// its own ([`crate::CsrSink`], [`crate::Csr2Sink`]).
pub trait RowCodec {
    /// The codec this type stands for.
    const CODEC: Codec;
}

/// [`Codec::Raw`] as a type.
pub enum Raw {}

/// [`Codec::VarintDelta`] as a type.
pub enum VarintDelta {}

impl RowCodec for Raw {
    const CODEC: Codec = Codec::Raw;
}

impl RowCodec for VarintDelta {
    const CODEC: Codec = Codec::VarintDelta;
}

/// A mapped CSR shard of either on-disk format.
///
/// Opening validates the header and the offset table against the file
/// length once. A row is then a slice of the mapping (v1, zero-copy) or
/// one row's stream bytes decoded on demand (v2), and bytes that do not
/// decode are refused. Readers above this type ([`crate::ShardSet`], the
/// serving engine) see one `Cow<[u64]>`-returning row API and never
/// branch on the format. Content integrity (row lengths, checksums) is
/// the job of `verify-shards` and checksum-verified opens.
pub struct CsrMap {
    map: Mmap,
    codec: Codec,
    vertex_lo: u64,
    num_rows: u64,
    nnz: u64,
}

impl CsrMap {
    /// Map and validate a CSR shard file of either format, picking the
    /// codec by the 8-byte magic.
    ///
    /// # Errors
    ///
    /// `InvalidData` for an unrecognized magic, a header or offset table
    /// that contradicts the file size (with overflow-checked arithmetic),
    /// or non-monotone offsets; any I/O error from opening or mapping the
    /// file.
    pub fn open(path: &Path) -> io::Result<CsrMap> {
        let map = Mmap::map_readonly(&File::open(path)?)?;
        let bad = |msg: String| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {msg}", path.display()),
            )
        };
        let codec = match map.get(..8) {
            Some(m) if m == MAGIC => Codec::Raw,
            Some(m) if m == MAGIC2 => Codec::VarintDelta,
            _ => return Err(bad("bad magic (not a KRONCSR1 or KRONCSR2 file)".into())),
        };
        if map.len() < HEADER as usize {
            return Err(bad("truncated header".into()));
        }
        let word = |i: usize| u64::from_le_bytes(map[8 * i..8 * i + 8].try_into().unwrap());
        let (vertex_lo, num_rows, nnz) = (word(1), word(2), word(3));
        let overflow = || {
            bad(format!(
                "header dimensions overflow ({num_rows} rows, {nnz} nnz)"
            ))
        };
        let addressable = |size: &u64| usize::try_from(*size).is_ok();
        let table_end = file_size_checked(num_rows, 0)
            .filter(addressable)
            .ok_or_else(overflow)?;
        if (map.len() as u64) < table_end {
            return Err(bad(format!(
                "file is {} bytes, too short for {num_rows} row offsets",
                map.len()
            )));
        }
        let shard = CsrMap {
            map,
            codec,
            vertex_lo,
            num_rows,
            nnz,
        };
        let offsets = shard.offsets();
        let last = offsets[num_rows as usize];
        if offsets[0] != 0 {
            return Err(bad("offset array endpoints corrupt".into()));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(bad("offsets not monotone".into()));
        }
        // each codec's size rule
        let body = match codec {
            Codec::Raw if last != nnz => return Err(bad("offset array endpoints corrupt".into())),
            Codec::Raw => nnz.checked_mul(8),
            // every stored entry takes at least one stream byte
            Codec::VarintDelta if last < nnz => {
                return Err(bad(format!(
                    "{last}-byte column stream cannot hold {nnz} entries"
                )))
            }
            Codec::VarintDelta => Some(last),
        };
        let expect = body
            .and_then(|body| file_size_checked(num_rows, body))
            .filter(addressable)
            .ok_or_else(overflow)?;
        if shard.map.len() as u64 != expect {
            return Err(bad(format!(
                "file is {} bytes, header implies {expect}",
                shard.map.len()
            )));
        }
        Ok(shard)
    }

    /// Whether this shard is the v2 (varint delta-encoded) format.
    pub fn is_v2(&self) -> bool {
        self.codec == Codec::VarintDelta
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

    /// The offset table (`num_rows + 1` entries, in the codec's units),
    /// zero-copy.
    fn offsets(&self) -> &[u64] {
        let end = HEADER as usize + 8 * (self.num_rows as usize + 1);
        as_u64s(&self.map[HEADER as usize..end])
    }

    /// Everything past the offset table, zero-copy.
    fn body(&self) -> &[u8] {
        &self.map[HEADER as usize + 8 * (self.num_rows as usize + 1)..]
    }

    /// `p`'s row as `[lo, hi)` in the codec's units (entries for v1, bytes
    /// for v2), or `None` if `p` is outside the shard.
    #[inline]
    fn span(&self, p: u64) -> Option<(usize, usize)> {
        let local = p.checked_sub(self.vertex_lo)?;
        if local >= self.num_rows {
            return None;
        }
        let offsets = self.offsets();
        let local = local as usize;
        Some((offsets[local] as usize, offsets[local + 1] as usize))
    }

    /// A v1 row: a zero-copy slice of the mapping.
    fn raw_row(&self, p: u64) -> Option<&[u64]> {
        let (lo, hi) = self.span(p)?;
        Some(&as_u64s(self.body())[lo..hi])
    }

    /// A v2 row's still-encoded stream bytes, zero-copy.
    fn stream_bytes(&self, p: u64) -> Option<&[u8]> {
        let (lo, hi) = self.span(p)?;
        Some(&self.body()[lo..hi])
    }

    /// A v2 row, decoded; `None` also when its bytes do not decode.
    fn decoded_row(&self, p: u64) -> Option<Vec<u64>> {
        let bytes = self.stream_bytes(p)?;
        // every varint ends in exactly one byte without the high bit, so
        // this is the row length: one allocation, never a regrowth
        let len = bytes.iter().filter(|&&b| b & 0x80 == 0).count();
        let mut out = Vec::with_capacity(len);
        decode_row_vd(bytes, &mut out).then_some(out)
    }

    /// The adjacency row of product vertex `p`: zero-copy for v1,
    /// decoded for v2. `None` if `p` is outside the shard or (v2 only)
    /// its stream bytes do not decode (see [`decode_row_vd`]) — for a `p`
    /// the caller routed into this shard's range, `None` therefore means a
    /// corrupt artifact. A short row is never handed out.
    // Every reader's per-row dispatch: without the hint the cross-crate
    // inliner skips it and each whole-graph kernel pays a call, a
    // memory round trip of the handle and ~20 ns per row. Each codec's
    // body stays out of line so the dispatch stays small enough to inline.
    #[inline]
    pub fn row(&self, p: u64) -> Option<Cow<'_, [u64]>> {
        match self.codec {
            Codec::Raw => self.raw_row(p).map(Cow::Borrowed),
            Codec::VarintDelta => self.decoded_row(p).map(Cow::Owned),
        }
    }

    /// An upper bound on the entry count of `p`'s row that costs two
    /// offset reads and no decode: exact for v1, the stream byte length
    /// for v2 (every entry is at least one byte). `None` if `p` is
    /// outside the shard.
    pub fn row_len_bound(&self, p: u64) -> Option<usize> {
        self.span(p).map(|(lo, hi)| hi - lo)
    }

    /// Append `p`'s row in the `enc=vd` wire encoding to `out`: the
    /// stored stream bytes verbatim for v2 (no decode — the fetching
    /// side validates them), encoded on the fly for v1. `false`, with
    /// `out` untouched, if `p` is outside the shard.
    pub fn append_row_vd(&self, p: u64, out: &mut Vec<u8>) -> bool {
        match self.codec {
            Codec::Raw => self.raw_row(p).map(|row| encode_row_vd(row, out)),
            Codec::VarintDelta => self.stream_bytes(p).map(|b| out.extend_from_slice(b)),
        }
        .is_some()
    }

    /// [`CsrMap::row`] without the allocation, for a scan over many rows:
    /// a v1 row is the mapped slice, a v2 row is decoded into `buf`
    /// (cleared first) and borrowed from it. `None` exactly when
    /// [`CsrMap::row`] is.
    #[inline]
    pub fn row_into<'a>(&'a self, p: u64, buf: &'a mut Vec<u64>) -> Option<&'a [u64]> {
        match self.codec {
            Codec::Raw => self.raw_row(p),
            Codec::VarintDelta => {
                buf.clear();
                decode_row_vd(self.stream_bytes(p)?, buf).then_some(&buf[..])
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

    /// Why [`CsrMap::open`] refuses `path`.
    fn open_err(path: &Path) -> String {
        match CsrMap::open(path) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("{} must not open", path.display()),
        }
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
        assert_eq!(Some(bytes), file_size_checked(3, 8 * 3));
        let r = CsrMap::open(&dir.join("s.csr")).unwrap();
        assert!(!r.is_v2());
        assert_eq!(r.vertex_lo(), 10);
        assert_eq!(r.num_rows(), 3);
        assert_eq!(r.nnz(), 3);
        assert_eq!(r.offsets(), &[0, 2, 2, 3]);
        for (p, want) in [(10, &[3, 7][..]), (11, &[]), (12, &[0])] {
            let row = r.row(p);
            assert!(
                matches!(row, Some(Cow::Borrowed(s)) if s == want),
                "row {p}: {row:?}"
            );
        }
        assert_eq!(r.row(13), None);
        assert_eq!(r.row(9), None);
        assert_eq!(
            rows_of(&r),
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
        let err = open_err(&path);
        assert!(err.contains("overflow"), "{err}");
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
        assert_eq!(Some(bytes), file_size_checked(3, 3));
        let r = CsrMap::open(&dir.join("s.csr2")).unwrap();
        assert!(r.is_v2());
        assert_eq!(r.vertex_lo(), 10);
        assert_eq!(r.num_rows(), 3);
        assert_eq!(r.nnz(), 3);
        assert_eq!(r.offsets(), &[0, 2, 2, 3]);
        for (p, want) in [(10, &[3, 7][..]), (11, &[]), (12, &[0])] {
            let row = r.row(p);
            assert!(
                matches!(&row, Some(Cow::Owned(v)) if v == want),
                "row {p}: {row:?}"
            );
        }
        assert_eq!(r.row(13), None);
        assert_eq!(r.row(9), None);
        assert_eq!(r.stream_bytes(10).unwrap(), &[3u8, 4]);
        assert_eq!(
            rows_of(&r),
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
                (Some(a), Some(b)) => assert_eq!(*a, *b, "row {v}"),
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
        let err = open_err(&dir.join("x.csr"));
        assert!(err.contains("bad magic"), "{err}");
    }

    #[test]
    fn csr2_sink_rejects_unsorted_columns_and_underfill() {
        let dir = tmpdir("v2_order");
        let create = |name: &str| Csr2Sink::create(&dir, name, 0, vec![3u64].into_iter()).unwrap();
        // within one run: a repeat and a descent, for either codec
        for cols in [[5, 5, 6], [5, 4, 6]] {
            let err = create("bad.csr2").push_run(0, &cols).unwrap_err();
            assert!(err.to_string().contains("strictly ascending"), "{err}");
            let mut v1 = CsrSink::create(&dir, "bad.csr", 0, vec![3u64].into_iter()).unwrap();
            let err = v1.push_run(0, &cols).unwrap_err();
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
        assert!(!dir.join("bad.csr").exists());
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
        let err = open_err(&path);
        assert!(err.contains("overflow"), "{err}");

        let mut sink = Csr2Sink::create(&dir, "c.csr2", 0, vec![2u64].into_iter()).unwrap();
        sink.push_run(0, &[300, 301]).unwrap();
        sink.finish().unwrap();
        let path = dir.join("c.csr2");
        let good = std::fs::read(&path).unwrap();
        let refused = |bytes: &[u8], want: &str| {
            std::fs::write(&path, bytes).unwrap();
            let err = open_err(&path);
            assert!(err.contains(want), "{want}: {err}");
        };
        // relabelled KRONCSR1, its 3 stream bytes fail the v1 size rule
        // (offsets[last] must be nnz = 2)
        refused(&[&MAGIC[..], &good[8..]].concat(), "endpoints corrupt");
        // bad magic
        let mut bad = good.clone();
        bad[7] = b'9';
        refused(&bad, "bad magic");
        // truncated stream no longer matches the offset table
        refused(&good[..good.len() - 1], "header implies");
        // stream shorter than nnz entries
        let mut bad = good.clone();
        bad[40..48].copy_from_slice(&1u64.to_le_bytes()); // offsets[1] = 1
        bad.truncate(good.len() - 2); // stream shrinks to 1 byte < nnz 2
        refused(&bad, "cannot hold");
        // a first offset above 0
        let mut bad = good.clone();
        bad[32..40].copy_from_slice(&2u64.to_le_bytes()); // offsets[0] = 2
        refused(&bad, "endpoints corrupt");
    }

    #[test]
    fn reader_rejects_corruption() {
        let dir = tmpdir("corrupt");
        let mut sink = CsrSink::create(&dir, "c.csr", 0, vec![1u64, 1].into_iter()).unwrap();
        sink.push_run(0, &[9]).unwrap();
        sink.push_run(1, &[4]).unwrap();
        sink.finish().unwrap();
        let path = dir.join("c.csr");
        let good = std::fs::read(&path).unwrap();
        let refused = |bytes: &[u8], want: &str| {
            std::fs::write(&path, bytes).unwrap();
            let err = open_err(&path);
            assert!(err.contains(want), "{want}: {err}");
        };
        // bad magic
        let mut bad = good.clone();
        bad[0] = b'X';
        refused(&bad, "bad magic");
        // truncated: past the header, then into the offset table
        refused(&good[..good.len() - 8], "header implies");
        refused(&good[..40], "too short");
        refused(&good[..31], "truncated header");
        // offsets endpoint corrupt (nnz in header says 2, offsets say 3)
        let mut bad = good.clone();
        bad[48..56].copy_from_slice(&3u64.to_le_bytes());
        refused(&bad, "endpoints corrupt");
        // a middle offset past its successor
        let mut bad = good.clone();
        bad[40..48].copy_from_slice(&3u64.to_le_bytes());
        refused(&bad, "offsets not monotone");
    }
}
