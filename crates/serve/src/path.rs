//! Traversal serving: shortest paths and k-hop neighborhoods over the
//! engine's rows, one BFS level at a time.
//!
//! [`PathFinder`] answers `GET /path?from=&to=` with a **bidirectional
//! BFS**: two frontiers grow toward each other, a level at a time.
//! Before a level is expanded, the engine fetches the rows of its far
//! vertices — one internal `POST /rows` per replica set, not one round
//! trip per row — and the expansion reads resident rows in place off
//! the shard mappings, so a cluster node can traverse the whole product
//! while holding only its claimed shards. No traversal row enters the
//! hot-row cache: a BFS level reads each row once. Both endpoints read a
//! level's rows through the engine's [`kron_analyze::LevelRows`], the
//! trait the analytics BFS push rounds read resident shards through, and
//! share one level step; each keeps its own visited structure (a set for
//! `/khop`, the parent maps for `/path`).
//!
//! Every step is deterministic: frontiers are kept sorted, the smaller
//! side expands first (ties toward the `from` side), and a vertex's
//! parent is the first frontier vertex whose row lists it — the smallest
//! neighbour one level nearer that side's source. The first level that
//! meets the other side ends the search at the smallest vertex the two
//! frontiers share, and the path is the two parent walks from it. A
//! single whole-run node and any cluster tiling therefore produce
//! **byte-identical** answers. They are not the lexicographically
//! smallest shortest paths: the meeting vertex is fixed first and each
//! half is chosen walking away from it.
//!
//! Traversal answers are *witnesses*, so correctness tooling rides
//! along: under a cross-check source, [`ServeEngine::certify_path`]
//! re-verifies every returned path edge-by-edge against the artifact
//! (`has_edge`) and the closed-form [`crate::FactorOracle`], counting
//! disagreements into the engine's mismatch machinery — the same
//! counters that drive `/stats` and the CLI's nonzero cross-check exit.

use crate::engine::{ServeEngine, ServeError};
use kron_analyze::LevelRows;
use kron_stream::json::Json;
use kron_stream::SplitMix;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

/// One side of a bidirectional search: vertex → the frontier vertex that
/// first listed it; the side's source parents itself. The keys are
/// vertex ids off the artifact, so the unkeyed [`SplitMix`] is safe.
type Parents = HashMap<u64, u64, SplitMix>;

/// Stop a k-hop expansion once this many vertices are reached: the
/// level whose completion crosses the cap is the last one expanded, and
/// the response carries the counts of the levels expanded only
/// (`"truncated":true`, no member lists). Bounds both the work and the
/// response size.
pub const MAX_KHOP_VERTICES: u64 = 65_536;

/// A `/path` answer: the endpoints as asked, and the witness walk when
/// one exists.
pub struct PathAnswer {
    /// Source vertex of the query.
    pub from: u64,
    /// Target vertex of the query.
    pub to: u64,
    /// The `max_depth` bound echoed back, when the query carried one.
    pub max_depth: Option<u64>,
    /// A minimal-length walk `from → … → to`, or `None` when `to` is
    /// unreachable (within `max_depth`, if bounded).
    pub path: Option<Vec<u64>>,
}

impl PathAnswer {
    /// Hop count of the witness walk (`path.len() - 1`), if reachable.
    pub fn hops(&self) -> Option<u64> {
        self.path.as_ref().map(|p| p.len() as u64 - 1)
    }

    /// The wire shape served by `GET /path` (normative in
    /// ARCHITECTURE.md "Traversal serving").
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![("from", Json::num(self.from)), ("to", Json::num(self.to))];
        if let Some(k) = self.max_depth {
            pairs.push(("max_depth", Json::num(k)));
        }
        match &self.path {
            Some(p) => {
                pairs.push(("hops", Json::num(p.len() as u64 - 1)));
                pairs.push(("path", Json::Arr(p.iter().map(Json::num).collect())));
            }
            None => pairs.push(("unreachable", Json::Bool(true))),
        }
        Json::obj(pairs)
    }
}

/// A `/khop` answer: the BFS neighborhood of `v` out to `k` hops, with
/// per-level counts and (when under [`MAX_KHOP_VERTICES`]) the sorted
/// member list of every level. Past the cap the search stops, so the
/// counts cover only the levels expanded.
pub struct KhopAnswer {
    /// Center vertex of the neighborhood.
    pub v: u64,
    /// The requested hop radius (the expansion may stop earlier when
    /// the neighborhood is exhausted or the size cap is crossed).
    pub k: u64,
    /// `levels[d]` = vertices first reached at depth `d`
    /// (`levels[0] = 1`, the center itself), for every level expanded.
    pub levels: Vec<u64>,
    /// Sorted members of each level; `None` when the expansion crossed
    /// [`MAX_KHOP_VERTICES`] and the lists were dropped.
    pub vertices: Option<Vec<Vec<u64>>>,
}

impl KhopAnswer {
    /// Total vertices reached (the sum of the per-level counts).
    pub fn reached(&self) -> u64 {
        self.levels.iter().sum()
    }

    /// The wire shape served by `GET /khop` (normative in
    /// ARCHITECTURE.md "Traversal serving").
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("v", Json::num(self.v)),
            ("k", Json::num(self.k)),
            ("reached", Json::num(self.reached())),
            (
                "levels",
                Json::Arr(self.levels.iter().map(Json::num).collect()),
            ),
        ];
        match &self.vertices {
            Some(levels) => pairs.push((
                "vertices",
                Json::Arr(
                    levels
                        .iter()
                        .map(|l| Json::Arr(l.iter().map(Json::num).collect()))
                        .collect(),
                ),
            )),
            None => pairs.push(("truncated", Json::Bool(true))),
        }
        Json::obj(pairs)
    }
}

/// Bidirectional-BFS traversal over a [`ServeEngine`]'s rows.
pub struct PathFinder<'e> {
    engine: &'e ServeEngine,
}

impl<'e> PathFinder<'e> {
    /// A finder borrowing the engine (no state beyond the borrow; cheap
    /// to build per request).
    pub fn new(engine: &'e ServeEngine) -> PathFinder<'e> {
        PathFinder { engine }
    }

    fn check_vertex(&self, v: u64) -> Result<(), ServeError> {
        (v < self.engine.num_vertices())
            .then_some(())
            .ok_or_else(|| self.engine.out_of_range(v))
    }

    /// A minimal-hop path `from → to`, bounded by `max_depth` hops when
    /// given. Unreachable (or only reachable beyond the bound) is the
    /// in-band `path: None`, not an error; out-of-range endpoints and
    /// failed remote row fetches are errors. Under a cross-check
    /// source, every returned path is certified edge-by-edge before it
    /// is returned (see [`ServeEngine::certify_path`]).
    pub fn shortest_path(
        &self,
        from: u64,
        to: u64,
        max_depth: Option<u64>,
    ) -> Result<PathAnswer, ServeError> {
        self.check_vertex(from)?;
        self.check_vertex(to)?;
        let path = if from == to {
            Some(vec![from])
        } else if max_depth == Some(0) {
            None
        } else {
            self.bidirectional(from, to, max_depth)?
        };
        if let Some(p) = &path {
            if self.engine.source().checks() {
                self.engine.certify_path(from, to, p);
            }
        }
        Ok(PathAnswer {
            from,
            to,
            max_depth,
            path,
        })
    }

    /// The k-hop BFS neighborhood of `v`: per-level counts with member
    /// lists, or — once a level takes the count past
    /// [`MAX_KHOP_VERTICES`] — the counts up to that level only.
    pub fn khop(&self, v: u64, k: u64) -> Result<KhopAnswer, ServeError> {
        self.check_vertex(v)?;
        let mut seen: HashSet<u64, SplitMix> = HashSet::from_iter([v]);
        let mut level_sets: Vec<Vec<u64>> = vec![vec![v]];
        let mut reached = 1u64;
        let mut truncated = false;
        for _ in 0..k {
            let next = self.level(&level_sets[level_sets.len() - 1], |_, u| seen.insert(u))?;
            if next.is_empty() {
                break;
            }
            reached += next.len() as u64;
            level_sets.push(next);
            if reached > MAX_KHOP_VERTICES {
                truncated = true;
                break;
            }
        }
        Ok(KhopAnswer {
            v,
            k,
            levels: level_sets.iter().map(|l| l.len() as u64).collect(),
            vertices: (!truncated).then_some(level_sets),
        })
    }

    /// The two-frontier search. Side A holds the vertices within `da`
    /// hops of `from`, side B those within `db` of `to`, and while no
    /// vertex is on both sides the distance exceeds `da+db`: a shorter
    /// path's vertex `da` hops along would be on both. So when A grows
    /// to `da+1`, every vertex it shares with B is one of B's frontier
    /// (depth `db`), every such meeting is a path of the same length
    /// `da+1+db`, and that length is the distance. The search stops at
    /// that level, at the smallest meeting vertex — the first common
    /// element of the two sorted frontiers. An emptied frontier means
    /// that side's component is exhausted, and `da+db ≥ max_depth`
    /// means every in-bound path would have met already.
    fn bidirectional(
        &self,
        from: u64,
        to: u64,
        max_depth: Option<u64>,
    ) -> Result<Option<Vec<u64>>, ServeError> {
        let mut parents_a = Parents::from_iter([(from, from)]);
        let mut parents_b = Parents::from_iter([(to, to)]);
        let mut frontier_a = vec![from];
        let mut frontier_b = vec![to];
        let mut hops = 0u64;
        while !frontier_a.is_empty() && !frontier_b.is_empty() {
            if max_depth.is_some_and(|k| hops >= k) {
                break;
            }
            // Expand the smaller frontier — the classic bidirectional
            // work bound — and, because frontier sizes are themselves
            // deterministic, the same side on every node of a cluster.
            let meet = if frontier_a.len() <= frontier_b.len() {
                frontier_a = self.level(&frontier_a, |v, u| adopt(&mut parents_a, v, u))?;
                first_common(&frontier_a, &frontier_b)
            } else {
                frontier_b = self.level(&frontier_b, |v, u| adopt(&mut parents_b, v, u))?;
                first_common(&frontier_b, &frontier_a)
            };
            hops += 1;
            if let Some(meet) = meet {
                let mut path = walk_back(&parents_a, meet);
                path.reverse();
                path.extend(&walk_back(&parents_b, meet)[1..]);
                debug_assert_eq!(path.len() as u64, hops + 1);
                return Ok(Some(path));
            }
        }
        Ok(None)
    }

    /// One BFS level, for `/path` and `/khop` alike: walk the sorted
    /// frontier's rows through the engine's [`LevelRows`], keep each
    /// listed neighbour `u` of `v` that `fresh(v, u)` admits (the caller's
    /// visited structure, one probe per listed neighbour, first listing
    /// wins), and return the next frontier sorted.
    fn level(
        &self,
        frontier: &[u64],
        mut fresh: impl FnMut(u64, u64) -> bool,
    ) -> Result<Vec<u64>, ServeError> {
        let mut next = Vec::new();
        self.engine.each_neighbour(frontier, |v, u| {
            if fresh(v, u) {
                next.push(u);
            }
        })?;
        next.sort_unstable();
        Ok(next)
    }
}

/// Record `v` as the parent of `u` unless `u` has one already; `true`
/// when `u` was unseen.
fn adopt(parents: &mut Parents, v: u64, u: u64) -> bool {
    let Entry::Vacant(slot) = parents.entry(u) else {
        return false;
    };
    slot.insert(v);
    true
}

/// The smallest element two ascending slices share, by one merge pass.
fn first_common(a: &[u64], b: &[u64]) -> Option<u64> {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return Some(a[i]),
        }
    }
    None
}

/// The walk from `v` back to its side's source, `v` first: parent after
/// parent until the vertex that parents itself.
fn walk_back(parents: &Parents, mut v: u64) -> Vec<u64> {
    let mut walk = vec![v];
    while parents[&v] != v {
        v = parents[&v];
        walk.push(v);
    }
    walk
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AnswerSource, OpenOptions};
    use kron::KronProduct;
    use kron_graph::Graph;
    use kron_stream::{stream_product, OutputFormat, StreamConfig};
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kron_path_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Triangle squared: 9 vertices, (a,b)~(a',b') iff a≠a' and b≠b'.
    fn triangle_squared(dir: &std::path::Path, shards: usize) -> KronProduct {
        let a = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        let c = KronProduct::new(a.clone(), a);
        let mut cfg = StreamConfig::new(dir, OutputFormat::Csr);
        cfg.shards = shards;
        stream_product(&c, &cfg).unwrap();
        c
    }

    #[test]
    fn paths_on_triangle_squared_are_minimal_and_deterministic() {
        let dir = tmpdir("tri2");
        let c = triangle_squared(&dir, 3);
        let engine = ServeEngine::open(&dir).unwrap();
        let finder = PathFinder::new(&engine);

        // Direct edge: one hop.
        let a = finder.shortest_path(0, 8, None).unwrap();
        assert_eq!(a.path, Some(vec![0, 8]));
        assert_eq!(a.hops(), Some(1));

        // (0,0) to (0,1): same left coordinate, so two hops via the
        // smallest doubly-visited vertex.
        let a = finder.shortest_path(0, 1, None).unwrap();
        assert_eq!(a.path, Some(vec![0, 5, 1]));

        // Self path.
        let a = finder.shortest_path(4, 4, None).unwrap();
        assert_eq!(a.path, Some(vec![4]));
        assert_eq!(a.hops(), Some(0));

        // max_depth below the distance → in-band unreachable; at the
        // distance → found.
        assert!(finder.shortest_path(0, 1, Some(1)).unwrap().path.is_none());
        assert!(finder.shortest_path(0, 1, Some(0)).unwrap().path.is_none());
        assert_eq!(
            finder.shortest_path(0, 1, Some(2)).unwrap().path,
            Some(vec![0, 5, 1])
        );

        // Every pair: distance matches a reference BFS, and the walk is
        // valid edge-by-edge.
        for from in 0..c.num_vertices() {
            let dist = reference_bfs(&c, from);
            for to in 0..c.num_vertices() {
                let a = finder.shortest_path(from, to, None).unwrap();
                match dist[to as usize] {
                    Some(d) => {
                        let p = a.path.expect("reachable");
                        assert_eq!(p.len() as u64 - 1, d, "{from}->{to}");
                        for w in p.windows(2) {
                            assert!(engine.has_edge(w[0], w[1]).unwrap(), "{from}->{to}");
                        }
                    }
                    None => assert!(a.path.is_none()),
                }
            }
        }
    }

    #[test]
    fn khop_levels_match_reference_and_out_of_range_errors() {
        let dir = tmpdir("khop");
        let c = triangle_squared(&dir, 2);
        let engine = ServeEngine::open(&dir).unwrap();
        let finder = PathFinder::new(&engine);

        let a = finder.khop(4, 1).unwrap();
        assert_eq!(a.levels, vec![1, 4]);
        assert_eq!(a.reached(), 5);
        assert_eq!(a.vertices, Some(vec![vec![4], vec![0, 2, 6, 8]]));

        let a = finder.khop(4, 9).unwrap();
        assert_eq!(a.reached(), c.num_vertices());

        // k = 0 is just the center.
        let a = finder.khop(7, 0).unwrap();
        assert_eq!(a.levels, vec![1]);
        assert_eq!(a.vertices, Some(vec![vec![7]]));

        assert!(matches!(
            finder.khop(9, 1),
            Err(ServeError::VertexOutOfRange { vertex: 9, .. })
        ));
        assert!(matches!(
            finder.shortest_path(0, 9, None),
            Err(ServeError::VertexOutOfRange { vertex: 9, .. })
        ));
    }

    #[test]
    fn khop_stops_after_the_level_that_crosses_the_cap() {
        // C301 ⊗ C301: 90,601 vertices, 362,404 entries, connected, and
        // about 300 levels deep from any vertex — far past the cap.
        use kron_gen::deterministic::cycle;
        let dir = tmpdir("khop_cap");
        let c = KronProduct::new(cycle(301), cycle(301));
        assert_eq!((c.num_vertices(), c.nnz()), (90_601, 362_404));
        let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
        cfg.shards = 4;
        stream_product(&c, &cfg).unwrap();
        let engine = ServeEngine::open(&dir).unwrap();
        let a = PathFinder::new(&engine).khop(0, 300).unwrap();

        let set = kron_stream::ShardSet::open(&dir).unwrap();
        let spec = kron_analyze::KernelSpec::new(kron_analyze::Kernel::Bfs);
        let stop = std::sync::atomic::AtomicBool::new(false);
        let bfs = kron_analyze::run_kernel(&set, &spec, &stop).unwrap();
        let full = bfs.get("levels").unwrap().as_arr().unwrap().iter();
        let full: Vec<u64> = full.map(|l| l.as_u64().unwrap()).collect();

        assert!(a.levels.len() < full.len(), "the search stopped early");
        assert_eq!(a.levels, full[..a.levels.len()], "a strict prefix");
        assert!(a.reached() > MAX_KHOP_VERTICES);
        assert!(a.reached() - a.levels.last().unwrap() <= MAX_KHOP_VERTICES);
        assert!(a.vertices.is_none());
        let body = a.to_json().to_string();
        assert!(body.contains(r#""truncated":true"#), "{body}");
        assert!(!body.contains("vertices"), "{body}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn certifier_counts_tampered_edges_into_the_mismatch_machinery() {
        let dir = tmpdir("certify");
        let c = triangle_squared(&dir, 1);
        let engine = ServeEngine::open_with(
            &dir,
            &OpenOptions {
                verify_checksums: false,
                source: AnswerSource::CrossCheck,
                ..OpenOptions::default()
            },
        )
        .unwrap();
        let finder = PathFinder::new(&engine);
        let a = finder.shortest_path(0, 1, None).unwrap();
        assert!(a.path.is_some());
        assert_eq!(engine.mismatch_count(), 0, "clean artifact certifies clean");
        assert_eq!(engine.sampled_checks(), 1, "one certified path");

        // A fabricated walk through same-left-coordinate pairs must be
        // flagged: (0,0)-(0,1) and (0,1)-(0,2) are both non-edges.
        let bad = engine.certify_path(0, 1, &[0, 1, 2]);
        assert_eq!(bad, 2, "0-1 and 1-2 are both non-edges");
        assert_eq!(engine.mismatch_count(), 2);
        assert_eq!(engine.sampled_checks(), 2);
        let record = |edge: &str| crate::Mismatch {
            query: format!("path 0 1: edge {edge}"),
            artifact: "false".into(),
            oracle: "false".into(),
        };
        assert_eq!(engine.mismatches(), vec![record("0 1"), record("1 2")]);
        drop(c);
    }

    #[test]
    fn first_common_is_the_smallest_shared_element() {
        assert_eq!(first_common(&[], &[]), None);
        assert_eq!(first_common(&[], &[1, 2]), None);
        assert_eq!(first_common(&[1, 2], &[]), None);
        assert_eq!(first_common(&[1, 3, 5], &[0, 2, 4, 6]), None);
        assert_eq!(first_common(&[1, 4, 6, 9], &[0, 4, 6, 9]), Some(4));
        assert_eq!(first_common(&[2, 7, 8], &[0, 1, 8, 9]), Some(8));
    }

    #[test]
    fn walk_back_follows_parents_to_the_self_parented_source() {
        let parents = Parents::from_iter([(3, 3), (8, 3), (1, 8), (5, 3), (0, 1)]);
        assert_eq!(walk_back(&parents, 3), vec![3]);
        assert_eq!(walk_back(&parents, 5), vec![5, 3]);
        assert_eq!(walk_back(&parents, 0), vec![0, 1, 8, 3]);
    }

    fn reference_bfs(c: &KronProduct, from: u64) -> Vec<Option<u64>> {
        let n = c.num_vertices() as usize;
        let mut dist = vec![None; n];
        dist[from as usize] = Some(0);
        let mut frontier = vec![from];
        let mut d = 0u64;
        while !frontier.is_empty() {
            d += 1;
            let mut next = Vec::new();
            for &v in &frontier {
                for u in c.neighbors(v) {
                    if dist[u as usize].is_none() {
                        dist[u as usize] = Some(d);
                        next.push(u);
                    }
                }
            }
            frontier = next;
        }
        dist
    }
}
