//! Whole-graph kernels vs. serial references and closed forms.
//!
//! Every kernel is checked three ways: against an independent serial
//! reference over the materialized product, for byte-identical output
//! across thread counts (the determinism contract the server job API
//! relies on), and — for the census — against the paper's closed forms
//! at every vertex and every edge, including the tampered-artifact
//! failure paths: a flipped column, a relabelled artifact that keeps
//! every total, a back entry no forward probe reads, and a forward list
//! out of order or with a column stored twice.

use kron::KronProduct;
use kron_analyze::{run_kernel, AnalyzeError, Kernel, KernelSpec};
use kron_gen::deterministic::{clique, cycle, hub_cycle, path};
use kron_gen::holme_kim;
use kron_graph::Graph;
use kron_stream::json::Json;
use kron_stream::{stream_product, OutputFormat, ShardSet, StreamConfig};
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kron_analyze_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn streamed(name: &str, c: &KronProduct, shards: usize) -> PathBuf {
    let dir = tmpdir(name);
    let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
    cfg.shards = shards;
    stream_product(c, &cfg).unwrap();
    dir
}

fn run(set: &ShardSet, spec: &KernelSpec) -> Result<Json, AnalyzeError> {
    run_kernel(set, spec, &AtomicBool::new(false))
}

fn num(doc: &Json, key: &str) -> u128 {
    doc.get(key)
        .and_then(Json::as_u128)
        .unwrap_or_else(|| panic!("{key} missing in {doc}"))
}

#[test]
fn bfs_matches_a_serial_reference() {
    let c = KronProduct::new(hub_cycle(), path(4));
    let dir = streamed("bfs", &c, 3);
    let set = ShardSet::open(&dir).unwrap();
    for source in [0, 5, c.num_vertices() - 1] {
        let mut spec = KernelSpec::new(Kernel::Bfs);
        spec.source = source;
        let doc = run(&set, &spec).unwrap();

        // serial reference
        let n = c.num_vertices();
        let mut depth = vec![u64::MAX; n as usize];
        depth[source as usize] = 0;
        let mut queue = VecDeque::from([source]);
        while let Some(v) = queue.pop_front() {
            for u in c.neighbors(v) {
                if depth[u as usize] == u64::MAX {
                    depth[u as usize] = depth[v as usize] + 1;
                    queue.push_back(u);
                }
            }
        }
        let reached = depth.iter().filter(|&&d| d != u64::MAX).count() as u128;
        let ecc = depth
            .iter()
            .filter(|&&d| d != u64::MAX)
            .max()
            .copied()
            .unwrap();
        let mut levels = vec![0u128; ecc as usize + 1];
        for &d in depth.iter().filter(|&&d| d != u64::MAX) {
            levels[d as usize] += 1;
        }

        assert_eq!(num(&doc, "reached"), reached, "source {source}");
        assert_eq!(num(&doc, "eccentricity"), ecc as u128);
        let got_levels: Vec<u128> = doc
            .get("levels")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|l| l.as_u128().unwrap())
            .collect();
        assert_eq!(got_levels, levels, "source {source}");
        assert_eq!(num(&doc, "reached") + num(&doc, "unreached"), n as u128);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bfs_depth_limit_truncates_levels() {
    let c = KronProduct::new(cycle(9), clique(2));
    let dir = streamed("khop", &c, 2);
    let set = ShardSet::open(&dir).unwrap();
    let full = run(&set, &KernelSpec::new(Kernel::Bfs)).unwrap();
    let mut spec = KernelSpec::new(Kernel::Bfs);
    spec.depth = Some(2);
    let capped = run(&set, &spec).unwrap();
    let levels = |d: &Json| d.get("levels").unwrap().as_arr().unwrap().len();
    assert!(levels(&full) > 3, "cycle(9) product is deeper than 2 hops");
    assert_eq!(levels(&capped), 3, "levels 0..=2 only");
    assert_eq!(capped.get("depth_limit").and_then(Json::as_u64), Some(2));
    assert!(num(&capped, "reached") < num(&full, "reached"));

    spec.source = c.num_vertices();
    assert!(matches!(run(&set, &spec), Err(AnalyzeError::Open(_))));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bfs_refuses_a_row_naming_a_vertex_past_the_product() {
    // An unverified open does not hash contents: the first column of
    // the first non-empty row of shard 0 becomes u64::MAX, and the push
    // round that reads it must fail naming it.
    let c = KronProduct::new(hub_cycle(), path(4));
    let dir = streamed("bfs_stray", &c, 2);
    let m = kron_stream::load_manifest(&dir, 0).unwrap();
    let file = dir.join(m.file.as_deref().unwrap());
    let mut bytes = std::fs::read(&file).unwrap();
    let col0 = 32 + 8 * (m.vertices.end - m.vertices.start + 1) as usize;
    bytes[col0..col0 + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    std::fs::write(&file, &bytes).unwrap();
    let victim = m.vertices.clone().find(|&v| c.degree(v) > 0).unwrap();

    let set = ShardSet::open(&dir).unwrap();
    let mut spec = KernelSpec::new(Kernel::Bfs);
    spec.source = victim;
    let err = run(&set, &spec).unwrap_err();
    let AnalyzeError::Corrupt(msg) = err else {
        panic!("a stray column is corruption, got {err}");
    };
    let n = c.num_vertices();
    assert_eq!(
        msg,
        format!(
            "row {victim} names vertex {}, but the product has only {n}",
            u64::MAX
        )
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cc_matches_a_serial_flood_fill() {
    // A factor with an isolated vertex makes whole product rows empty.
    let a = Graph::from_edges(5, [(0, 1), (1, 2), (3, 3)]);
    let c = KronProduct::new(a, clique(3));
    let dir = streamed("cc", &c, 4);
    let set = ShardSet::open(&dir).unwrap();
    let doc = run(&set, &KernelSpec::new(Kernel::Cc)).unwrap();

    let n = c.num_vertices();
    let mut label = vec![u64::MAX; n as usize];
    let mut sizes: BTreeMap<u64, u64> = BTreeMap::new();
    let mut isolated = 0u64;
    for s in 0..n {
        if c.neighbors(s).is_empty() {
            isolated += 1;
        }
        if label[s as usize] != u64::MAX {
            continue;
        }
        let mut size = 0u64;
        let mut queue = VecDeque::from([s]);
        label[s as usize] = s;
        while let Some(v) = queue.pop_front() {
            size += 1;
            for u in c.neighbors(v) {
                if label[u as usize] == u64::MAX {
                    label[u as usize] = s;
                    queue.push_back(u);
                }
            }
        }
        sizes.insert(s, size);
    }
    let largest = sizes.values().max().copied().unwrap();

    assert_eq!(num(&doc, "components"), sizes.len() as u128);
    assert_eq!(num(&doc, "largest"), largest as u128);
    assert_eq!(num(&doc, "isolated"), isolated as u128);
    let hist_total: u128 = doc
        .get("size_histogram")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|pair| {
            let p = pair.as_arr().unwrap();
            p[0].as_u128().unwrap() * p[1].as_u128().unwrap()
        })
        .sum();
    assert_eq!(hist_total, n as u128, "component sizes must tile the graph");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pagerank_matches_a_serial_reference_bit_for_bit() {
    let a = Graph::from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (4, 4)]);
    let c = KronProduct::new(a, clique(3));
    let dir = streamed("pagerank", &c, 3);
    let set = ShardSet::open(&dir).unwrap();
    let spec = KernelSpec::new(Kernel::Pagerank);
    let doc = run(&set, &spec).unwrap();

    // Serial reference with the exact same arithmetic.
    let n = c.num_vertices() as usize;
    let nf = n as f64;
    let d = 0.85f64;
    let rows: Vec<Vec<u64>> = (0..n as u64).map(|v| c.neighbors(v)).collect();
    let inv: Vec<f64> = rows
        .iter()
        .map(|r| {
            if r.is_empty() {
                0.0
            } else {
                1.0 / r.len() as f64
            }
        })
        .collect();
    let mut rank = vec![1.0 / nf; n];
    let mut iterations = 0u64;
    let mut residual = f64::INFINITY;
    while iterations < spec.max_iters && residual > spec.tol {
        let dangling: f64 = rank
            .iter()
            .zip(&inv)
            .filter(|&(_, &i)| i == 0.0)
            .map(|(&r, _)| r)
            .sum();
        let base = (1.0 - d) / nf + d * dangling / nf;
        let next: Vec<f64> = (0..n)
            .map(|v| {
                let mut s = 0.0;
                for &u in &rows[v] {
                    s += rank[u as usize] * inv[u as usize];
                }
                base + d * s
            })
            .collect();
        residual = rank.iter().zip(&next).map(|(&x, &y)| (x - y).abs()).sum();
        rank = next;
        iterations += 1;
    }

    assert_eq!(num(&doc, "iterations"), iterations as u128);
    assert!(doc.get("residual").unwrap().as_f64().unwrap() <= spec.tol);
    let sum = doc.get("sum").unwrap().as_f64().unwrap();
    assert!(
        (sum - 1.0).abs() < 1e-9,
        "rank mass must be conserved, got {sum}"
    );
    // top-k must agree with the reference ranking, values bit-for-bit
    let mut order: Vec<u64> = (0..n as u64).collect();
    order.sort_by(|&x, &y| {
        rank[y as usize]
            .total_cmp(&rank[x as usize])
            .then(x.cmp(&y))
    });
    for (slot, entry) in doc.get("top").unwrap().as_arr().unwrap().iter().enumerate() {
        let v = entry.get("vertex").unwrap().as_u64().unwrap();
        assert_eq!(v, order[slot], "top slot {slot}");
        assert_eq!(
            entry.get("rank").unwrap().as_f64().unwrap(),
            rank[v as usize],
            "rank of vertex {v} must be bit-identical to the reference"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn census_validates_a_clean_artifact_against_the_closed_forms() {
    let c = KronProduct::new(hub_cycle(), clique(3));
    let dir = streamed("census", &c, 3);
    let set = ShardSet::open(&dir).unwrap();
    let doc = run(&set, &KernelSpec::new(Kernel::TriCensus)).unwrap();

    assert_eq!(num(&doc, "entries"), c.nnz());
    assert_eq!(
        num(&doc, "total_triangle_participation"),
        c.total_triangle_participation()
    );
    assert_eq!(num(&doc, "triangles"), c.total_triangles());
    let validation = doc.get("validation").unwrap();
    assert_eq!(validation.get("ok").and_then(Json::as_bool), Some(true));
    // every vertex, every edge and every stored entry was compared
    for (name, checked) in [
        ("vertex_triangles", c.num_vertices() as u128),
        ("edge_triangles", c.num_edges()),
        ("entries_are_edges", c.nnz()),
    ] {
        let check = validation.get(name).unwrap();
        assert_eq!(num(check, "checked"), checked, "{name}");
        assert_eq!(num(check, "mismatches"), 0, "{name}");
        assert_eq!(check.get("first").unwrap().as_arr().unwrap().len(), 0);
    }

    // degree histogram, entry by entry, against the factor closed form
    let expected = kron::distributions::degree_histogram(&c);
    let got: BTreeMap<u64, u128> = doc
        .get("degree_histogram")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|pair| {
            let p = pair.as_arr().unwrap();
            (p[0].as_u64().unwrap(), p[1].as_u128().unwrap())
        })
        .collect();
    assert_eq!(got, expected);

    // the loaded product used for validation is the documented one
    let loaded = set.product();
    assert_eq!(loaded.num_vertices(), c.num_vertices());
    std::fs::remove_dir_all(&dir).ok();
}

/// Flip the last column word of the last shard to a different in-range
/// vertex: structurally valid, statistically wrong.
fn tamper_last_col(dir: &std::path::Path) {
    let mut shards: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "csr"))
        .collect();
    shards.sort();
    let path = shards.last().unwrap();
    let mut bytes = std::fs::read(path).unwrap();
    let at = bytes.len() - 8;
    let old = u64::from_le_bytes(bytes[at..].try_into().unwrap());
    bytes[at..].copy_from_slice(&(old ^ 1).to_le_bytes());
    std::fs::write(path, &bytes).unwrap();
}

#[test]
fn census_flags_a_tampered_shard_unless_validation_is_off() {
    let c = KronProduct::new(clique(3), clique(3));
    let dir = streamed("tamper", &c, 3);
    tamper_last_col(&dir);
    let set = ShardSet::open(&dir).unwrap();
    let err = run(&set, &KernelSpec::new(Kernel::TriCensus)).unwrap_err();
    let AnalyzeError::Validation(doc) = err else {
        panic!("tampered shard must fail validation, got {err}");
    };
    let validation = doc.get("validation").unwrap();
    assert_eq!(validation.get("ok").and_then(Json::as_bool), Some(false));

    // with validation off the recount completes and simply reports
    // whatever the (corrupt) artifact contains
    let mut spec = KernelSpec::new(Kernel::TriCensus);
    spec.validate = false;
    let doc = run(&set, &spec).unwrap();
    assert!(doc.get("validation").is_none());
    std::fs::remove_dir_all(&dir).ok();
}

/// Overwrite the rows of a single-shard v1 run with rows of the same
/// lengths, so the header and the offsets stand (see the layout in
/// `kron_stream::csr`).
fn rewrite_rows(dir: &std::path::Path, rows: &[Vec<u64>]) {
    let path = dir.join("shard_00000.csr");
    let mut bytes = std::fs::read(&path).unwrap();
    let mut at = 32 + 8 * (rows.len() + 1);
    for &u in rows.iter().flatten() {
        bytes[at..at + 8].copy_from_slice(&u.to_le_bytes());
        at += 8;
    }
    assert_eq!(at, bytes.len(), "row lengths must not change");
    std::fs::write(&path, bytes).unwrap();
}

/// A small stand-in for the benchmark's web crawl product.
fn web_product() -> KronProduct {
    KronProduct::new(holme_kim(14, 3, 0.75, 2018), holme_kim(12, 3, 0.75, 2019))
}

/// `v` under the transposition `x ↔ y`.
fn swapped(v: u64, x: u64, y: u64) -> u64 {
    match v {
        v if v == x => y,
        v if v == y => x,
        v => v,
    }
}

/// How many undirected edges of `c` land, under the swap `x ↔ y`, where
/// the closed-form `Δ` differs from the one they carry with them, and how
/// many stored entries land on a non-edge.
fn moved(c: &KronProduct, x: u64, y: u64) -> (u128, u128) {
    let swap = |v| swapped(v, x, y);
    let (mut edges, mut entries) = (0, 0);
    for (a, b) in c.adjacency_entries() {
        entries += u128::from(!c.has_edge(swap(a), swap(b)));
        edges += u128::from(a < b && c.edge_triangles(swap(a), swap(b)) != c.edge_triangles(a, b));
    }
    (edges, entries)
}

/// Stream [`web_product`], relabel it by swapping the first pair of
/// vertices `x < y` of equal row length that `pick` accepts — swap their
/// rows, rename every occurrence, re-sort — and run the validated census
/// over the result, which must refuse it. The relabelled graph is
/// isomorphic to the product: entry total, `Σ t`, degree histogram and
/// edge count are all unchanged.
fn census_of_relabelled(
    name: &str,
    pick: impl Fn(&KronProduct, u64, u64) -> bool,
) -> (KronProduct, u64, u64, Json) {
    let c = web_product();
    let n = c.num_vertices();
    let (x, y) = (0..n)
        .flat_map(|x| (x + 1..n).map(move |y| (x, y)))
        .find(|&(x, y)| c.row_len(x) == c.row_len(y) && pick(&c, x, y))
        .expect("the product has such a pair");
    let swap = |v| swapped(v, x, y);
    let rows: Vec<Vec<u64>> = (0..n)
        .map(|v| {
            let mut row: Vec<u64> = c.neighbors(swap(v)).into_iter().map(swap).collect();
            row.sort_unstable();
            row
        })
        .collect();
    let dir = streamed(name, &c, 1);
    rewrite_rows(&dir, &rows);
    let set = ShardSet::open(&dir).unwrap();
    let err = run(&set, &KernelSpec::new(Kernel::TriCensus)).unwrap_err();
    let AnalyzeError::Validation(doc) = err else {
        panic!("a relabelled artifact must fail validation, got {err}");
    };
    std::fs::remove_dir_all(&dir).ok();
    let validation = doc.get("validation").unwrap().clone();
    assert_eq!(validation.get("ok").and_then(Json::as_bool), Some(false));
    // everything the totals-only census compared still agrees
    for total in [
        "total_entries",
        "total_triangle_participation",
        "degree_histogram",
        "edges",
    ] {
        let ok = validation.get(total).unwrap().get("ok");
        assert_eq!(ok.and_then(Json::as_bool), Some(true), "{total}");
    }
    (c, x, y, validation)
}

#[test]
fn census_catches_a_relabelled_artifact_that_keeps_every_total() {
    let (c, x, y, validation) = census_of_relabelled("relabel", |c, x, y| {
        c.vertex_triangles(x) != c.vertex_triangles(y)
    });
    // t(v) travelled with the rows: exactly x and y disagree, and say so
    let vertices = validation.get("vertex_triangles").unwrap();
    assert_eq!(num(vertices, "checked"), c.num_vertices() as u128);
    assert_eq!(num(vertices, "mismatches"), 2);
    let first = vertices.get("first").unwrap().as_arr().unwrap();
    for (named, (v, carried)) in first.iter().zip([(x, y), (y, x)]) {
        assert_eq!(num(named, "vertex"), v as u128);
        assert_eq!(num(named, "expected"), c.vertex_triangles(v) as u128);
        assert_eq!(num(named, "actual"), c.vertex_triangles(carried) as u128);
    }
    let (edges, entries) = moved(&c, x, y);
    assert!(edges > 0 && entries > 0);
    let check = validation.get("edge_triangles").unwrap();
    assert_eq!(num(check, "checked"), c.num_edges());
    assert_eq!(num(check, "mismatches"), edges);
    let check = validation.get("entries_are_edges").unwrap();
    assert_eq!(num(check, "checked"), c.nnz());
    assert_eq!(num(check, "mismatches"), entries);
}

/// The cheaper twin: swap two vertices of equal degree **and equal
/// `t(v)`** whose edges carry different `Δ`. Every vertex still shows its
/// closed-form count, so a per-vertex check alone passes; the per-edge
/// check trips. (`entries_are_edges` trips with it, necessarily: it passes
/// an entry only in its place in the product's ascending row, so an
/// artifact that passes it with as many entries as the product has *is*
/// the product.)
#[test]
fn census_catches_a_relabelling_only_the_edges_can_see() {
    let (c, x, y, validation) = census_of_relabelled("twin", |c, x, y| {
        c.vertex_triangles(x) == c.vertex_triangles(y) && moved(c, x, y).0 > 0
    });
    let vertices = validation.get("vertex_triangles").unwrap();
    assert_eq!(vertices.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(num(vertices, "checked"), c.num_vertices() as u128);
    let (edges, entries) = moved(&c, x, y);
    let check = validation.get("edge_triangles").unwrap();
    assert_eq!(num(check, "mismatches"), edges);
    let named = &check.get("first").unwrap().as_arr().unwrap()[0];
    let edge = named.get("edge").unwrap().as_arr().unwrap();
    let (v, u) = (edge[0].as_u64().unwrap(), edge[1].as_u64().unwrap());
    assert!([v, u].contains(&x) || [v, u].contains(&y), "edge ({v},{u})");
    assert_ne!(
        named.get("expected").unwrap().as_u64(),
        named.get("actual").unwrap().as_u64()
    );
    let check = validation.get("entries_are_edges").unwrap();
    assert_eq!(num(check, "mismatches"), entries);
}

/// The forward probes read only the higher-ranked half of a row. Tamper
/// one column of the top-ranked hub's row — every entry there is a back
/// entry — and the recount is untouched: every `Δ`, every `t` and every
/// total still agree. Only the entry-is-edge check sees it, and it must
/// name exactly the column `tamper` wrote (which `tamper` returns).
fn census_of_tampered_hub(name: &str, tamper: impl FnOnce(&KronProduct, u64, &mut [u64]) -> u64) {
    let c = web_product();
    let n = c.num_vertices();
    let hub = (0..n).max_by_key(|&v| (c.row_len(v), v)).unwrap();
    let mut rows: Vec<Vec<u64>> = (0..n).map(|v| c.neighbors(v)).collect();
    let culprit = tamper(&c, hub, &mut rows[hub as usize]);

    let dir = streamed(name, &c, 1);
    rewrite_rows(&dir, &rows);
    let set = ShardSet::open(&dir).unwrap();
    let err = run(&set, &KernelSpec::new(Kernel::TriCensus)).unwrap_err();
    let AnalyzeError::Validation(doc) = err else {
        panic!("a tampered back entry must fail validation, got {err}");
    };
    let validation = doc.get("validation").unwrap();
    assert_eq!(validation.get("ok").and_then(Json::as_bool), Some(false));
    let Json::Obj(members) = validation else {
        panic!("validation is an object")
    };
    for (name, check) in members.iter().skip(1) {
        let ok = check.get("ok").and_then(Json::as_bool);
        assert_eq!(ok, Some(name != "entries_are_edges"), "{name}");
    }
    let check = validation.get("entries_are_edges").unwrap();
    assert_eq!(num(check, "mismatches"), 1);
    assert_eq!(
        check.get("first").unwrap().to_string(),
        format!("[[{hub},{culprit}]]")
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A replacement that keeps the row ascending and is no neighbour.
#[test]
fn census_flags_a_tampered_back_entry_no_merge_reads() {
    census_of_tampered_hub("back_entry", |c, hub, row| {
        let (at, stray) = (0..row.len() - 1)
            .map(|at| (at, row[at] + 1))
            .find(|&(at, stray)| stray < row[at + 1] && stray != hub && !c.has_edge(hub, stray))
            .expect("the hub's row has a gap");
        row[at] = stray;
        stray
    });
}

/// A replacement that *is* a neighbour: one entry overwritten with a copy
/// of the one before it. The artifact has lost the edge, every stored
/// entry is still an edge of the product, and row length, entry total and
/// degree histogram stand — only the order of the row gives it away, and
/// a plain `ShardSet::open` does not look at that.
#[test]
fn census_flags_a_back_entry_stored_twice() {
    census_of_tampered_hub("back_entry_twice", |_, _, row| {
        let at = row.len() / 2;
        row[at] = row[at - 1];
        row[at]
    });
}

/// The probes do read a low-ranked vertex's forward list, and find a
/// hit's slot there by binary search. Tamper the forward columns of the
/// lowest-ranked vertex `v` whose last forward column `w` closes a
/// triangle the probes meet at `v` (`w` is in `out(u)` for some `u` in
/// `out(v)`) — `tamper` gets the row and the forward positions, and
/// returns the column it expects named first — and the census must end
/// in a validation failure naming that row under `entries_are_edges`,
/// never a panic or an out-of-bounds slot.
fn census_of_tampered_forward_list(name: &str, tamper: impl FnOnce(&mut [u64], &[usize]) -> u64) {
    let c = web_product();
    let n = c.num_vertices();
    let rank = |v: u64| (c.row_len(v), v);
    let mut rows: Vec<Vec<u64>> = (0..n).map(|v| c.neighbors(v)).collect();
    let (v, forward) = (0..n)
        .map(|v| {
            let row = &rows[v as usize];
            let at: Vec<usize> = (0..row.len())
                .filter(|&at| rank(row[at]) > rank(v))
                .collect();
            (v, at)
        })
        .filter(|(v, at)| {
            let row = &rows[*v as usize];
            let Some(&last) = at.last() else { return false };
            let w = row[last];
            at.iter()
                .any(|&p| rank(w) > rank(row[p]) && c.has_edge(row[p], w))
        })
        .min_by_key(|&(v, _)| rank(v))
        .expect("some forward list closes a triangle with its last column");
    let culprit = tamper(&mut rows[v as usize], &forward);

    let dir = streamed(name, &c, 1);
    rewrite_rows(&dir, &rows);
    let set = ShardSet::open(&dir).unwrap();
    let err = run(&set, &KernelSpec::new(Kernel::TriCensus)).unwrap_err();
    let AnalyzeError::Validation(doc) = err else {
        panic!("a tampered forward list must fail validation, got {err}");
    };
    let check = doc
        .get("validation")
        .unwrap()
        .get("entries_are_edges")
        .unwrap();
    let first = &check.get("first").unwrap().as_arr().unwrap()[0];
    assert_eq!(first.to_string(), format!("[{v},{culprit}]"));
    std::fs::remove_dir_all(&dir).ok();
}

/// The first and the last forward column trade places: the largest
/// stands first, and a binary search for it ends past the last slot.
#[test]
fn census_flags_forward_columns_out_of_order() {
    census_of_tampered_forward_list("forward_swapped", |row, forward| {
        let (first, last) = (forward[0], forward[forward.len() - 1]);
        row.swap(first, last);
        row[first + 1]
    });
}

#[test]
fn census_flags_a_forward_column_stored_twice() {
    census_of_tampered_forward_list("forward_twice", |row, forward| {
        row[forward[1]] = row[forward[0]];
        row[forward[0]]
    });
}

#[test]
fn results_are_byte_identical_across_thread_counts() {
    let c = KronProduct::new(hub_cycle(), path(3));
    let dir = streamed("determinism", &c, 4);
    let set = ShardSet::open(&dir).unwrap();
    for kernel in [Kernel::Bfs, Kernel::Cc, Kernel::Pagerank, Kernel::TriCensus] {
        let spec = KernelSpec::new(kernel);
        let pool = |n| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .unwrap()
        };
        let serial = pool(1).install(|| run(&set, &spec).unwrap().to_string());
        let parallel = pool(7).install(|| run(&set, &spec).unwrap().to_string());
        assert_eq!(
            serial,
            parallel,
            "{} diverged across thread counts",
            kernel.name()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kernels_cancel_cooperatively_and_reject_subsets() {
    let c = KronProduct::new(hub_cycle(), clique(3));
    let dir = streamed("cancel", &c, 3);
    let set = ShardSet::open(&dir).unwrap();
    let stopped = AtomicBool::new(true);
    for kernel in [Kernel::Bfs, Kernel::Cc, Kernel::Pagerank, Kernel::TriCensus] {
        assert!(matches!(
            run_kernel(&set, &KernelSpec::new(kernel), &stopped),
            Err(AnalyzeError::Cancelled)
        ));
    }
    let subset = ShardSet::open_with(&dir, Some(0..2), false).unwrap();
    assert!(matches!(
        run(&subset, &KernelSpec::new(Kernel::Cc)),
        Err(AnalyzeError::Open(_))
    ));
    std::fs::remove_dir_all(&dir).ok();
}

/// The exact bytes of a `cc` document, a `pagerank` document with three
/// top entries, and a `bfs` document with a depth limit, on a product
/// with empty rows (an isolated factor vertex), so `isolated`,
/// `dangling` and `depth_limit` all carry values.
#[test]
fn documents_keep_their_exact_bytes() {
    let a = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 2)]);
    let c = KronProduct::new(a, path(3));
    let dir = streamed("pinned_bytes", &c, 2);
    let set = ShardSet::open(&dir).unwrap();
    let mut pagerank = KernelSpec::new(Kernel::Pagerank);
    pagerank.top_k = 3;
    let mut bfs = KernelSpec::new(Kernel::Bfs);
    bfs.source = 1;
    bfs.depth = Some(1);
    for (spec, pinned) in [
        (
            KernelSpec::new(Kernel::Cc),
            r#"{"kernel":"cc","vertices":12,"components":4,"largest":9,"isolated":3,"rounds":4,"size_histogram":[[1,3],[9,1]]}"#,
        ),
        (
            pagerank,
            r#"{"kernel":"pagerank","vertices":12,"damping":0.85,"tol":0.00000001,"max_iters":100,"iterations":100,"residual":0.00000003499069445300762,"dangling":3,"sum":0.9999999999999998,"top":[{"vertex":7,"rank":0.19524915502431148},{"vertex":1,"rank":0.13403565012887445},{"vertex":4,"rank":0.13403565012887445}]}"#,
        ),
        (
            bfs,
            r#"{"kernel":"bfs","source":1,"depth_limit":1,"vertices":12,"reached":5,"unreached":7,"eccentricity":1,"levels":[1,4],"push_rounds":0,"pull_rounds":1}"#,
        ),
    ] {
        assert_eq!(run(&set, &spec).unwrap().to_string(), pinned);
    }
    std::fs::remove_dir_all(&dir).ok();
}
