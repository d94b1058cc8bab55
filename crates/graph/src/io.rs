//! Plain-text edge-list I/O (SNAP-compatible).
//!
//! The paper's §VI uses the SNAP `web-NotreDame` graph; this reader accepts
//! that format (whitespace-separated endpoint pairs, `#` comment lines) so
//! the real dataset can be dropped in where the experiments default to a
//! synthetic stand-in (Holme–Kim, `kron_gen::holme_kim`).

use crate::{Graph, GraphBuilder};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Read an undirected graph from a whitespace-separated edge list.
///
/// Lines starting with `#` or `%` are comments; blank lines are skipped.
/// Vertex ids may be arbitrary `u64`s — they are compacted to `0..n` in
/// first-appearance order of the sorted id set. Directions are ignored
/// (the paper's experiment uses "the undirected version" of the input).
///
/// Exception: when the file starts with the header [`write_edge_list`]
/// emits (`# kron edge list: N vertices, ...`), the declared vertex count
/// is honored and ids are taken verbatim — so isolated vertices and the
/// exact numbering survive a write/read round trip (shard manifests and
/// product-vertex ids depend on factor numbering).
///
/// Returns the graph; self loops in the input are preserved (callers that
/// need the loop-free version apply [`Graph::without_self_loops`], matching
/// the paper's preprocessing).
pub fn read_edge_list<R: Read>(reader: R) -> std::io::Result<Graph> {
    let mut raw_edges: Vec<(u64, u64)> = Vec::new();
    let mut line = String::new();
    let mut r = BufReader::new(reader);
    let mut lineno = 0usize;
    let mut declared_n: Option<usize> = None;
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let s = line.trim();
        if s.is_empty() || s.starts_with('#') || s.starts_with('%') {
            if lineno == 1 {
                declared_n = parse_kron_header(s);
            }
            continue;
        }
        let mut it = s.split_whitespace();
        let parse = |tok: Option<&str>| -> std::io::Result<u64> {
            tok.and_then(|t| t.parse().ok()).ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("malformed edge on line {lineno}: {s:?}"),
                )
            })
        };
        let u = parse(it.next())?;
        let v = parse(it.next())?;
        raw_edges.push((u, v));
    }
    if let Some(n) = declared_n {
        // Header present: ids are authoritative, isolated vertices kept.
        if n > u32::MAX as usize {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("declared vertex count {n} exceeds the u32 id space"),
            ));
        }
        let mut b = GraphBuilder::with_capacity(n, raw_edges.len());
        for (u, v) in raw_edges {
            if u as usize >= n || v as usize >= n {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("edge ({u},{v}) exceeds declared vertex count {n}"),
                ));
            }
            b.add_edge(u as u32, v as u32);
        }
        return Ok(b.build());
    }
    // Compact ids.
    let mut ids: Vec<u64> = raw_edges.iter().flat_map(|&(u, v)| [u, v]).collect();
    ids.sort_unstable();
    ids.dedup();
    let index = |x: u64| ids.binary_search(&x).unwrap() as u32;
    let mut b = GraphBuilder::with_capacity(ids.len(), raw_edges.len());
    for (u, v) in raw_edges {
        b.add_edge(index(u), index(v));
    }
    Ok(b.build())
}

/// Recognize the [`write_edge_list`] header comment, returning the
/// declared vertex count.
fn parse_kron_header(s: &str) -> Option<usize> {
    let rest = s.strip_prefix("# kron edge list:")?.trim_start();
    let (count, tail) = rest.split_once(' ')?;
    if !tail.starts_with("vertices") {
        return None;
    }
    count.parse().ok()
}

/// [`read_edge_list`] from a filesystem path.
pub fn read_edge_list_path<P: AsRef<Path>>(path: P) -> std::io::Result<Graph> {
    read_edge_list(std::fs::File::open(path)?)
}

/// Write a graph as a tab-separated edge list (each undirected edge once,
/// loops as `v\tv`), with a header comment.
pub fn write_edge_list<W: Write>(g: &Graph, mut writer: W) -> std::io::Result<()> {
    writeln!(
        writer,
        "# kron edge list: {} vertices, {} edges, {} self loops",
        g.num_vertices(),
        g.num_edges(),
        g.num_self_loops()
    )?;
    for v in g.self_loops() {
        writeln!(writer, "{v}\t{v}")?;
    }
    for (u, v) in g.edges() {
        writeln!(writer, "{u}\t{v}")?;
    }
    Ok(())
}

/// [`write_edge_list`] to a filesystem path.
pub fn write_edge_list_path<P: AsRef<Path>>(g: &Graph, path: P) -> std::io::Result<()> {
    write_edge_list(g, std::io::BufWriter::new(std::fs::File::create(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (3, 3)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let h = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn header_roundtrip_keeps_isolated_vertices_and_numbering() {
        // vertices 0 and 4 isolated; 2↔3 edge must not be renumbered
        let g = Graph::from_edges(5, [(2, 3), (1, 1)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let h = read_edge_list(&buf[..]).unwrap();
        assert_eq!(h, g);
        assert_eq!(h.num_vertices(), 5);
        assert!(h.has_edge(2, 3));
        // header with an out-of-range edge is rejected
        let bad = "# kron edge list: 2 vertices, 1 edges, 0 self loops\n0 7\n";
        assert!(read_edge_list(bad.as_bytes()).is_err());
        // a declared count beyond the u32 id space is rejected rather
        // than silently truncating edge endpoints
        let huge = "# kron edge list: 4294967297 vertices, 1 edges, 0 self loops\n4294967296 0\n";
        assert!(read_edge_list(huge.as_bytes()).is_err());
        // a SNAP-style file without the header still compacts
        let snap = "# some other comment\n100 2000\n";
        assert_eq!(read_edge_list(snap.as_bytes()).unwrap().num_vertices(), 2);
    }

    #[test]
    fn comments_and_blank_lines() {
        let text = "# SNAP-style header\n% matrix-market style\n\n0 1\n1 2\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn sparse_ids_compacted() {
        let text = "100 2000\n2000 30\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        // sorted id order: 30 -> 0, 100 -> 1, 2000 -> 2
        assert!(g.has_edge(1, 2));
        assert!(g.has_edge(2, 0));
    }

    #[test]
    fn directed_duplicates_collapse() {
        let text = "0 1\n1 0\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn malformed_line_is_error() {
        assert!(read_edge_list("0 not-a-number\n".as_bytes()).is_err());
        assert!(read_edge_list("42\n".as_bytes()).is_err());
    }

    #[test]
    fn path_roundtrip() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let dir = std::env::temp_dir().join("kron_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.tsv");
        write_edge_list_path(&g, &path).unwrap();
        let h = read_edge_list_path(&path).unwrap();
        assert_eq!(g, h);
    }
}
