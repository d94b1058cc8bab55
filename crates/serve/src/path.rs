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
//! hot-row cache: a BFS level reads each row once. The frontier
//! expansion itself is [`kron_analyze::frontier_step`], the same kernel
//! the analytics BFS runs chunk-parallel over resident shards.
//!
//! Every step is deterministic: frontiers are kept sorted, the smaller
//! side expands first (ties toward the `from` side), neighbors are
//! visited in row order with first-discovery parent assignment, and
//! competing meeting points resolve to the smallest `(total hops,
//! vertex id)`. A single whole-run node and any cluster tiling
//! therefore produce **byte-identical** answers.
//!
//! Traversal answers are *witnesses*, so correctness tooling rides
//! along: under a cross-check source, [`PathCertifier`] re-verifies
//! every returned path edge-by-edge against the artifact (`has_edge`)
//! and the closed-form [`crate::FactorOracle`], counting disagreements
//! into the engine's mismatch machinery — the same counters that drive
//! `/stats` and the CLI's nonzero cross-check exit.

use crate::engine::{disagree, show, ServeEngine, ServeError};
use kron_analyze::frontier_step;
use kron_stream::json::Json;
use std::collections::{HashMap, HashSet};

/// Stop a k-hop expansion once this many vertices are reached: the
/// level whose completion crosses the cap is the last one expanded,
/// and the response carries per-level counts only (`"truncated":true`,
/// no member lists). Bounds both the work and the response size.
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
/// exact per-level counts and (when under [`MAX_KHOP_VERTICES`]) the
/// sorted member list of every level.
pub struct KhopAnswer {
    /// Center vertex of the neighborhood.
    pub v: u64,
    /// The requested hop radius (the expansion may stop earlier when
    /// the neighborhood is exhausted or the size cap is crossed).
    pub k: u64,
    /// `levels[d]` = vertices first reached at depth `d`
    /// (`levels[0] = 1`, the center itself).
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
    /// is returned (see [`PathCertifier`]).
    pub fn shortest_path(
        &self,
        from: u64,
        to: u64,
        max_depth: Option<u64>,
    ) -> Result<PathAnswer, ServeError> {
        self.engine.count_traversal_query();
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
            if self.engine.source().check_every().is_some() {
                PathCertifier::new(self.engine).certify(from, to, p);
            }
        }
        Ok(PathAnswer {
            from,
            to,
            max_depth,
            path,
        })
    }

    /// The k-hop BFS neighborhood of `v`: exact per-level counts, with
    /// member lists unless the expansion crosses [`MAX_KHOP_VERTICES`].
    pub fn khop(&self, v: u64, k: u64) -> Result<KhopAnswer, ServeError> {
        self.engine.count_traversal_query();
        self.check_vertex(v)?;
        let n = self.engine.num_vertices();
        let mut seen: HashSet<u64> = HashSet::from([v]);
        let mut frontier = vec![v];
        let mut level_sets: Vec<Vec<u64>> = vec![vec![v]];
        let mut reached = 1u64;
        let mut truncated = false;
        for _ in 0..k {
            let level = self.engine.level_rows(&frontier)?;
            let mut next: Vec<u64> = Vec::new();
            frontier_step(
                &frontier,
                n,
                |w| level.row(w),
                ServeEngine::stray_neighbor,
                |_, u| {
                    if seen.insert(u) {
                        next.push(u);
                    }
                },
            )?;
            if next.is_empty() {
                break;
            }
            next.sort_unstable();
            reached += next.len() as u64;
            frontier = next.clone();
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

    /// The two-frontier search. Correctness of the stopping rule: any
    /// path of length `L ≤ dA+dB` (completed depths) has a vertex
    /// visited by both sides, which recorded a meeting candidate
    /// `μ ≤ L` the moment it became doubly-visited — so once the best
    /// candidate satisfies `μ ≤ dA+dB`, it is the true distance. An
    /// emptied frontier means that side's component is exhausted, and
    /// `dA+dB ≥ max_depth` means no in-bound path can still beat the
    /// candidates already seen.
    fn bidirectional(
        &self,
        from: u64,
        to: u64,
        max_depth: Option<u64>,
    ) -> Result<Option<Vec<u64>>, ServeError> {
        // Per side: vertex → (depth, parent); the sources parent themselves.
        let mut seen_a: HashMap<u64, (u64, u64)> = HashMap::from([(from, (0, from))]);
        let mut seen_b: HashMap<u64, (u64, u64)> = HashMap::from([(to, (0, to))]);
        let mut frontier_a = vec![from];
        let mut frontier_b = vec![to];
        let (mut da, mut db) = (0u64, 0u64);
        // Best meeting so far: (total hops, meeting vertex), minimized.
        let mut best: Option<(u64, u64)> = None;
        loop {
            if best.is_some_and(|(mu, _)| mu <= da + db) {
                break;
            }
            if frontier_a.is_empty() || frontier_b.is_empty() {
                break;
            }
            if max_depth.is_some_and(|k| da + db >= k) {
                break;
            }
            // Expand the smaller frontier — the classic bidirectional
            // work bound — and, because frontier sizes are themselves
            // deterministic, the same side on every node of a cluster.
            if frontier_a.len() <= frontier_b.len() {
                frontier_a = self.expand(&frontier_a, da, &mut seen_a, &seen_b, &mut best)?;
                da += 1;
            } else {
                frontier_b = self.expand(&frontier_b, db, &mut seen_b, &seen_a, &mut best)?;
                db += 1;
            }
        }
        let Some((mu, meet)) = best else {
            return Ok(None);
        };
        if max_depth.is_some_and(|k| mu > k) {
            return Ok(None);
        }
        // Stitch the witness: parent-walk from the meeting vertex out
        // to both endpoints.
        let mut path = Vec::with_capacity(mu as usize + 1);
        let mut v = meet;
        loop {
            path.push(v);
            let (d, parent) = seen_a[&v];
            if d == 0 {
                break;
            }
            v = parent;
        }
        path.reverse();
        let mut v = meet;
        loop {
            let (d, parent) = seen_b[&v];
            if d == 0 {
                break;
            }
            v = parent;
            path.push(v);
        }
        debug_assert_eq!(path.len() as u64, mu + 1);
        Ok(Some(path))
    }

    /// One level of one side: fetch the sorted frontier's far rows, then
    /// discover unseen neighbors in frontier order (first listing wins the
    /// parent slot), record meetings with the other side, and return the
    /// next frontier sorted.
    fn expand(
        &self,
        frontier: &[u64],
        depth: u64,
        seen: &mut HashMap<u64, (u64, u64)>,
        other: &HashMap<u64, (u64, u64)>,
        best: &mut Option<(u64, u64)>,
    ) -> Result<Vec<u64>, ServeError> {
        let level = self.engine.level_rows(frontier)?;
        let mut next: Vec<u64> = Vec::new();
        frontier_step(
            frontier,
            self.engine.num_vertices(),
            |v| level.row(v),
            ServeEngine::stray_neighbor,
            |v, u| {
                if seen.contains_key(&u) {
                    return;
                }
                seen.insert(u, (depth + 1, v));
                next.push(u);
                if let Some(&(d_other, _)) = other.get(&u) {
                    let mu = depth + 1 + d_other;
                    if best.is_none_or(|(bm, bv)| (mu, u) < (bm, bv)) {
                        *best = Some((mu, u));
                    }
                }
            },
        )?;
        next.sort_unstable();
        Ok(next)
    }
}

/// Re-verifies returned paths edge-by-edge: the traversal layer's
/// answer is a *witness*, so under `--source cross-check` each claimed
/// edge is re-read through the artifact (`has_edge`) and recomputed
/// against the closed-form [`crate::FactorOracle`] when the engine
/// carries one. Disagreements land in the engine's mismatch log and
/// counter — the machinery behind `/stats` `mismatch_count` and the
/// CLI's nonzero cross-check exit.
pub struct PathCertifier<'e> {
    engine: &'e ServeEngine,
}

impl<'e> PathCertifier<'e> {
    /// A certifier borrowing the engine.
    pub fn new(engine: &'e ServeEngine) -> PathCertifier<'e> {
        PathCertifier { engine }
    }

    /// Certify one path; returns how many of its edges failed. Counts
    /// one sampled check on the engine, and one mismatch per edge that
    /// either side denies, under the engine's one cross-check verdict
    /// rule: a remote-fetch failure while re-reading is no verdict.
    /// Without an oracle only the artifact is asked.
    pub fn certify(&self, from: u64, to: u64, path: &[u64]) -> u64 {
        self.engine.count_certified();
        let mut bad = 0u64;
        for pair in path.windows(2) {
            let (u, v) = (pair[0], pair[1]);
            let art = self.engine.has_edge_artifact(u, v);
            let ora = self.engine.oracle().map_or(Ok(true), |o| o.has_edge(u, v));
            if disagree(art.as_ref(), ora.as_ref(), |&a, &o| a && o) {
                bad += 1;
                self.engine.note_mismatch(
                    format!("path {from} {to}: edge {u} {v}"),
                    show(art.as_ref(), bool::to_string),
                    show(ora.as_ref(), bool::to_string),
                );
            }
        }
        bad
    }
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
        assert!(engine.sampled_checks() >= 1);

        // A fabricated walk through same-left-coordinate pairs must be
        // flagged: (0,0)-(0,1) and (0,1)-(0,2) are both non-edges.
        let bad = PathCertifier::new(&engine).certify(0, 1, &[0, 1, 2]);
        assert_eq!(bad, 2, "0-1 and 1-2 are both non-edges");
        assert!(engine.mismatch_count() >= 2);
        assert!(engine
            .mismatches()
            .iter()
            .any(|m| m.query.starts_with("path 0 1: edge")));
        drop(c);
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
