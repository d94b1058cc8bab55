//! Edge sinks: where a shard's stream of adjacency entries goes.
//!
//! The driver pushes **runs** — slices of consecutive ascending columns
//! of one product row, in product row-major order, as produced by
//! [`kron::RowRuns`] — and a sink persists or counts them. A row arrives
//! as one run or, past [`RUN_CAPACITY`] entries, as several; an empty row
//! as none. Implementations:
//!
//! * [`CountSink`] — statistics only, no artifact (generation-rate
//!   benchmarking and manifest-only validation runs);
//! * [`CsrWriter`] — the one on-disk CSR writer, over either row codec:
//!   [`CsrSink`] writes v1 (raw `u64` columns), [`Csr2Sink`] v2 (varint
//!   delta-encoded). See [`crate::csr`] for the layout.
//!
//! The writer admits a run through one `RowCursor` check against the
//! closed-form row lengths, encodes it into a scratch buffer and hands the
//! file one `write_all`, while a second handle trails behind filling in
//! the offset table as each row closes. Whatever the run length, the
//! scratch holds at most [`RUN_CAPACITY`] entries at a time, so the
//! writer's memory is O(1) in the shard, the row, and the run.
//!
//! The writer works on `<name>.tmp` and renames on [`EdgeSink::finish`],
//! so a crashed run never leaves a plausible-looking partial artifact —
//! resume logic treats a missing final file as "redo".

use crate::csr::{file_size_checked, RowCodec, HEADER};
use kron::RUN_CAPACITY;
use std::fs::File;
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

/// Destination of one shard's adjacency-entry stream.
pub trait EdgeSink {
    /// Accept one run: `cols` are consecutive ascending columns of
    /// product row `p`. Runs arrive in product row-major order; a row
    /// may span several runs, each continuing where the last one ended.
    /// A sink that returned an error is dead: drop it.
    fn push_run(&mut self, p: u64, cols: &[u64]) -> io::Result<()>;

    /// Flush and durably finalize; returns `(file_name, bytes)` for
    /// file-backed sinks, `None` otherwise.
    fn finish(&mut self) -> io::Result<Option<(String, u64)>>;
}

/// Statistics-only sink: counts entries, persists nothing.
#[derive(Default)]
pub struct CountSink {
    /// Entries accepted so far.
    pub entries: u64,
}

impl EdgeSink for CountSink {
    fn push_run(&mut self, _p: u64, cols: &[u64]) -> io::Result<()> {
        self.entries += cols.len() as u64;
        Ok(())
    }

    fn finish(&mut self) -> io::Result<Option<(String, u64)>> {
        Ok(None)
    }
}

/// The file under a file-backed sink: `<dir>/<name>.tmp` while it is
/// written, `<dir>/<name>` once [`TmpFile::commit`] has made it durable.
struct TmpFile {
    dir: PathBuf,
    name: String,
    tmp: PathBuf,
    writer: BufWriter<File>,
}

impl TmpFile {
    fn create(dir: &Path, name: &str) -> io::Result<TmpFile> {
        let tmp = dir.join(format!("{name}.tmp"));
        let writer = BufWriter::with_capacity(1 << 20, File::create(&tmp)?);
        Ok(TmpFile {
            dir: dir.to_path_buf(),
            name: name.to_string(),
            tmp,
            writer,
        })
    }

    /// Flush, `sync_all` (the artifact's one fsync: it covers every byte
    /// of the inode, through whichever handle it was written) and rename
    /// to the final name, returning `(file_name, bytes)`.
    fn commit(&mut self) -> io::Result<(String, u64)> {
        self.writer.flush()?;
        self.writer.get_ref().sync_all()?;
        let final_path = self.dir.join(&self.name);
        std::fs::rename(&self.tmp, &final_path)?;
        Ok((self.name.clone(), std::fs::metadata(&final_path)?.len()))
    }
}

/// Row-major admission against the closed-form row lengths: which row of
/// the shard is open and how many more entries it takes, so "vertex in
/// shard, rows in order, no row past its length, all `nnz` entries at the
/// end" is decided in one place.
struct RowCursor<I> {
    vertex_lo: u64,
    num_rows: u64,
    nnz: u64,
    /// Entries admitted so far (must end at `nnz`).
    written: u64,
    /// Lengths of the rows after the current one.
    lengths: I,
    /// Row currently being filled (local index; meaningless when
    /// `num_rows == 0`).
    current_row: u64,
    /// Entries the current row still accepts.
    remaining: u64,
}

impl<I: Iterator<Item = u64>> RowCursor<I> {
    /// A cursor at the shard's first row; walks a clone of `row_lengths`
    /// once for the header totals.
    fn new(vertex_lo: u64, mut row_lengths: I) -> io::Result<Self>
    where
        I: Clone,
    {
        let (mut num_rows, mut nnz) = (0u64, 0u64);
        for len in row_lengths.clone() {
            num_rows += 1;
            nnz = nnz
                .checked_add(len)
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "shard nnz > u64"))?;
        }
        let remaining = row_lengths.next().unwrap_or(0);
        Ok(RowCursor {
            vertex_lo,
            num_rows,
            nnz,
            written: 0,
            lengths: row_lengths,
            current_row: 0,
            remaining,
        })
    }

    /// The 32-byte header both formats share: magic, `vertex_lo`,
    /// `num_rows`, `nnz`.
    fn write_header(&self, w: &mut impl Write, magic: &[u8; 8]) -> io::Result<()> {
        w.write_all(magic)?;
        for word in [self.vertex_lo, self.num_rows, self.nnz] {
            w.write_all(&word.to_le_bytes())?;
        }
        Ok(())
    }

    /// Admit `len` more entries of vertex `p`'s row, returning how many
    /// complete rows were closed on the way to it.
    fn admit(&mut self, p: u64, len: usize) -> io::Result<u64> {
        let local = p.checked_sub(self.vertex_lo).filter(|&l| l < self.num_rows);
        let local = local.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("vertex {p} outside shard starting at {}", self.vertex_lo),
            )
        })?;
        // advance over rows already complete (possibly empty rows)
        let mut closed = 0;
        while self.current_row < local && self.remaining == 0 {
            closed += 1;
            self.current_row += 1;
            self.remaining = self.lengths.next().unwrap_or(0);
        }
        let len = len as u64;
        if local != self.current_row || len > self.remaining {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "run for vertex {p} out of row-major order or exceeds its closed-form row length"
                ),
            ));
        }
        self.remaining -= len;
        self.written += len;
        Ok(closed)
    }

    /// Check that every entry arrived; returns how many rows are still
    /// to close (the open one and the empty ones after it).
    fn finish(&self) -> io::Result<u64> {
        if self.written != self.nnz {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "CSR shard incomplete: wrote {} of {} entries",
                    self.written, self.nnz
                ),
            ));
        }
        Ok(self.num_rows - self.current_row)
    }
}

/// The v1 (`csr`, raw `u64` columns) shard writer.
pub type CsrSink<I> = CsrWriter<crate::csr::Raw, I>;

/// The v2 (`csr2`, varint delta-encoded) shard writer.
pub type Csr2Sink<I> = CsrWriter<crate::csr::VarintDelta, I>;

/// Streaming on-disk CSR writer over the row codec `C`.
///
/// Construction writes the header and leaves room for the offset table,
/// sized from the *closed-form* row lengths
/// (`rowlen_C(i·n_B + k) = rowlen_A(i)·rowlen_B(k)` — no scan of the
/// product needed). The streaming pass appends each run, encoded, to the
/// main handle while a **second** handle, parked at the offset table,
/// fills in the real offsets as each row closes. Row grouping is checked
/// against a second walk of the same closed-form length iterator, so the
/// writer holds **O(1) memory** however many rows the shard has. Columns
/// within a row must arrive strictly ascending, within a run and from one
/// run of the row to the next; the generator's row-major sorted stream
/// satisfies this by construction.
pub struct CsrWriter<C, I: Iterator<Item = u64>> {
    /// Appends the body past the offset table.
    file: TmpFile,
    /// Trails behind, filling in the offset table.
    offsets: BufWriter<File>,
    cursor: RowCursor<I>,
    /// Body bytes emitted so far (the next row boundary).
    body_bytes: u64,
    /// Last column written to the current row, if any.
    prev_col: Option<u64>,
    /// One run piece as its body bytes.
    scratch: Vec<u8>,
    codec: PhantomData<C>,
}

impl<C: RowCodec, I: Iterator<Item = u64> + Clone> CsrWriter<C, I> {
    /// Write the header, skip past the offset table and open the trailing
    /// offset handle.
    ///
    /// `vertex_lo` is the first product vertex of the shard; `row_lengths`
    /// yields the adjacency-row length of each vertex in the shard, in
    /// order. The iterator is walked twice (totals, streaming validation)
    /// — closed-form generators make each walk cheap, and no per-row state
    /// is ever buffered in memory.
    pub fn create(dir: &Path, name: &str, vertex_lo: u64, row_lengths: I) -> io::Result<Self> {
        let mut file = TmpFile::create(dir, name)?;
        let cursor = RowCursor::new(vertex_lo, row_lengths)?;
        cursor.write_header(&mut file.writer, C::CODEC.magic())?;
        // The body starts past the offset table, which the trailing handle
        // fills in completely as rows close; until then the table is a
        // hole that reads as zeros. (The seek flushes the header first.)
        let table_end = file_size_checked(cursor.num_rows, 0).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "shard offset table > u64")
        })?;
        file.writer.seek(SeekFrom::Start(table_end))?;
        let mut offsets_file = std::fs::OpenOptions::new().write(true).open(&file.tmp)?;
        offsets_file.seek(SeekFrom::Start(HEADER))?;
        let mut offsets = BufWriter::with_capacity(1 << 16, offsets_file);
        offsets.write_all(&0u64.to_le_bytes())?; // offsets[0]
        Ok(CsrWriter {
            file,
            offsets,
            cursor,
            body_bytes: 0,
            prev_col: None,
            scratch: Vec::new(),
            codec: PhantomData,
        })
    }
}

impl<C: RowCodec, I: Iterator<Item = u64>> CsrWriter<C, I> {
    /// Record the current body position as the end of `rows` rows.
    fn close_rows(&mut self, rows: u64) -> io::Result<()> {
        let offset = self.body_bytes / C::CODEC.unit();
        for _ in 0..rows {
            self.offsets.write_all(&offset.to_le_bytes())?;
        }
        Ok(())
    }
}

impl<C: RowCodec, I: Iterator<Item = u64>> EdgeSink for CsrWriter<C, I> {
    fn push_run(&mut self, p: u64, cols: &[u64]) -> io::Result<()> {
        let closed = self.cursor.admit(p, cols.len())?;
        if closed > 0 {
            self.close_rows(closed)?;
            self.prev_col = None;
        }
        for piece in cols.chunks(RUN_CAPACITY) {
            self.scratch.clear();
            C::CODEC.encode(p, piece, &mut self.prev_col, &mut self.scratch)?;
            self.file.writer.write_all(&self.scratch)?;
            self.body_bytes += self.scratch.len() as u64;
        }
        Ok(())
    }

    fn finish(&mut self) -> io::Result<Option<(String, u64)>> {
        // close every remaining row (all empty once nnz entries landed)
        let open_rows = self.cursor.finish()?;
        self.close_rows(open_rows)?;
        // to the page cache only: `commit` syncs the inode once
        self.offsets.flush()?;
        let (name, bytes) = self.file.commit()?;
        debug_assert_eq!(
            Some(bytes),
            file_size_checked(self.cursor.num_rows, self.body_bytes)
        );
        Ok(Some((name, bytes)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kron::KronProduct;
    use kron_gen::deterministic::star;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("kron_sink_test_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Memory budget: however long the row, the generator holds one run
    /// of entries and the sink one run of encoded bytes (a varint is at
    /// most 10; `Vec` growth may round that up to 16).
    #[test]
    fn a_two_million_entry_hub_row_streams_through_run_sized_buffers() {
        let dir = tmpdir("hub");
        let c = KronProduct::new(star(1500), star(1500));
        assert!(c.row_len(0) > 2_000_000, "the hub row is the point");
        // the hub's row block, as the driver streams it
        let create = |name: &str, rows: std::ops::Range<u32>| {
            Csr2Sink::create(&dir, name, 0, c.row_lengths_in_rows(rows)).unwrap()
        };
        let mut sink = create("hub.csr2", 0..1);
        let mut runs = c.runs_in_rows(0..1);
        let mut pushed = 0u64;
        while let Some((p, cols)) = runs.next_run() {
            assert!(cols.len() <= RUN_CAPACITY);
            pushed += cols.len() as u64;
            sink.push_run(p, cols).unwrap();
        }
        sink.finish().unwrap();
        assert_eq!(u128::from(pushed), c.row_block_stats(0..1).nnz);
        assert!(runs.buffer_capacity() <= 2 * RUN_CAPACITY);
        assert!(sink.scratch.capacity() <= 16 * RUN_CAPACITY);

        // …and as one run: the whole row at once
        let hub_row = c.neighbors(0);
        let lengths = std::iter::once(hub_row.len() as u64);
        let mut sink = Csr2Sink::create(&dir, "row.csr2", 0, lengths.clone()).unwrap();
        sink.push_run(0, &hub_row).unwrap();
        sink.finish().unwrap();
        assert!(sink.scratch.capacity() <= 16 * RUN_CAPACITY);
        let mut sink = CsrSink::create(&dir, "row.csr", 0, lengths).unwrap();
        sink.push_run(0, &hub_row).unwrap();
        sink.finish().unwrap();
        assert!(sink.scratch.capacity() <= 16 * RUN_CAPACITY);
        let map = crate::CsrMap::open(&dir.join("row.csr2")).unwrap();
        assert_eq!(map.row(0).as_deref(), Some(&hub_row[..]));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Size budget: the format's reason to exist, at the unit level.
    #[test]
    fn csr2_spends_under_two_bytes_per_entry_on_a_web_like_product() {
        let dir = tmpdir("bytes_per_entry");
        let web = |seed| kron_gen::holme_kim(200, 3, 0.75, seed);
        let c = KronProduct::new(web(2018), web(2019));
        let mut sink =
            Csr2Sink::create(&dir, "web.csr2", 0, c.row_lengths_in_rows(0..200)).unwrap();
        let mut runs = c.runs_in_rows(0..200);
        while let Some((p, cols)) = runs.next_run() {
            sink.push_run(p, cols).unwrap();
        }
        let (_, file_bytes) = sink.finish().unwrap().unwrap();
        let per_entry = file_bytes as f64 / c.nnz() as f64;
        assert!(per_entry < 2.0, "{file_bytes} bytes / {} entries", c.nnz());
        std::fs::remove_dir_all(&dir).ok();
    }
}
