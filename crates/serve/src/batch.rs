//! The batched concurrent query driver and its latency/throughput report.
//!
//! A batch is a list of [`Query`] values (typically parsed from a query
//! file, one query per line — see [`parse_queries`]). [`run_batch`] fans
//! the batch out across worker threads (the shim rayon), each query
//! routing to its shard(s) independently, and collects per-query answers
//! *in input order* plus an aggregate [`QueryStats`] report. A
//! cross-checked batch runs in input order on the calling thread.

use crate::engine::{AnswerSource, ServeEngine, ServeError};
use kron_stream::json::Json;
use rayon::prelude::*;
use std::time::{Duration, Instant};

/// One point query against the shard set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Query {
    /// `degree v` — degree of product vertex `v` (loops excluded).
    Degree(u64),
    /// `neighbors v` — the sorted adjacency row of `v`.
    Neighbors(u64),
    /// `has_edge u v` — whether `{u, v}` is an adjacency entry.
    HasEdge(u64, u64),
    /// `tri_vertex v` — triangle participation `t_C(v)`.
    VertexTriangles(u64),
    /// `tri_edge u v` — triangle participation `Δ_C[{u, v}]`.
    EdgeTriangles(u64, u64),
}

impl Query {
    /// Parse one query line: a keyword followed by vertex ids.
    ///
    /// Keywords: `degree v`, `neighbors v`, `has_edge u v`,
    /// `tri_vertex v`, `tri_edge u v`. Blank lines and `#` comments are
    /// handled by [`parse_queries`].
    ///
    /// # Errors
    ///
    /// A message naming the unknown keyword, the missing/extra argument,
    /// or the token that is not a vertex id (overflow is distinguished
    /// from malformed input — the server echoes these to remote clients).
    pub fn parse(line: &str) -> Result<Query, String> {
        let mut tok = line.split_whitespace();
        let kw = tok.next().ok_or("empty query")?;
        let mut arg = |name| u64_arg(tok.next(), kw, name, "vertex id");
        let q = match kw {
            "degree" => Query::Degree(arg("v")?),
            "neighbors" => Query::Neighbors(arg("v")?),
            "has_edge" => Query::HasEdge(arg("u")?, arg("v")?),
            "tri_vertex" => Query::VertexTriangles(arg("v")?),
            "tri_edge" => Query::EdgeTriangles(arg("u")?, arg("v")?),
            other => {
                return Err(format!(
                    "unknown query {other:?} (expected degree, neighbors, \
                     has_edge, tri_vertex, or tri_edge)"
                ))
            }
        };
        if let Some(extra) = tok.next() {
            return Err(format!("{kw}: unexpected trailing token {extra:?}"));
        }
        Ok(q)
    }

    /// The vertex whose **primary row** answers this query — the one a
    /// cluster router routes on. For two-vertex queries (`has_edge`,
    /// `tri_edge`) that is the first vertex: the engine reads `u`'s row
    /// first and fetches `v`'s (possibly from a peer) only when needed,
    /// so the node owning `u` answers with at most one remote fetch.
    pub fn routing_vertex(self) -> u64 {
        match self {
            Query::Degree(v) | Query::Neighbors(v) | Query::VertexTriangles(v) => v,
            Query::HasEdge(u, _) | Query::EdgeTriangles(u, _) => u,
        }
    }
}

/// Parse `raw`, the value of integer parameter `<name>` of the query or
/// endpoint `kw`, as a `noun` (`vertex id`, `hop count`): the one parser
/// of a query's integer parameters, batch lines and `/path` / `/khop`
/// alike. The server echoes these errors to remote clients, so a missing
/// parameter names itself, a number that is simply too large is told
/// apart from a token that is not a number at all, and the token is
/// echoed back.
pub(crate) fn u64_arg(raw: Option<&str>, kw: &str, name: &str, noun: &str) -> Result<u64, String> {
    let raw = raw.ok_or_else(|| format!("{kw}: missing <{name}>"))?;
    raw.parse().map_err(|e: std::num::ParseIntError| {
        if *e.kind() == std::num::IntErrorKind::PosOverflow {
            let max = u64::MAX;
            format!("{kw}: <{name}> {raw:?} overflows the {noun} range (max {max})")
        } else {
            format!("{kw}: <{name}> must be a {noun} (got {raw:?})")
        }
    })
}

impl std::fmt::Display for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Query::Degree(v) => write!(f, "degree {v}"),
            Query::Neighbors(v) => write!(f, "neighbors {v}"),
            Query::HasEdge(u, v) => write!(f, "has_edge {u} {v}"),
            Query::VertexTriangles(v) => write!(f, "tri_vertex {v}"),
            Query::EdgeTriangles(u, v) => write!(f, "tri_edge {u} {v}"),
        }
    }
}

/// Parse a whole query file: one query per line, blank lines and lines
/// starting with `#` ignored. Errors name the offending line number.
///
/// # Errors
///
/// The first failing line's [`Query::parse`] message, prefixed with
/// its 1-based line number.
pub fn parse_queries(text: &str) -> Result<Vec<Query>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(Query::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

/// The answer to one [`Query`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Answer {
    /// A scalar count (`degree`, `tri_vertex`, `tri_edge`).
    Count(u64),
    /// A membership test (`has_edge`).
    Bool(bool),
    /// An adjacency row (`neighbors`), copied out of the mapping.
    Row(Vec<u64>),
    /// `tri_edge` on a pair that is not an edge.
    NotAnEdge,
}

impl std::fmt::Display for Answer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Answer::Count(c) => write!(f, "{c}"),
            Answer::Bool(b) => write!(f, "{b}"),
            Answer::Row(row) => {
                for (i, v) in row.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{v}")?;
                }
                Ok(())
            }
            Answer::NotAnEdge => write!(f, "not-an-edge"),
        }
    }
}

/// Answer one query, returning the wedge checks it performed. Shared by
/// [`run_batch`] and the HTTP server's per-request path.
pub(crate) fn answer(engine: &ServeEngine, q: Query) -> (Result<Answer, ServeError>, u64) {
    match q {
        Query::Degree(v) => (engine.degree(v).map(Answer::Count), 0),
        Query::Neighbors(v) => (engine.neighbors(v).map(|r| Answer::Row(r.into_owned())), 0),
        Query::HasEdge(u, v) => (engine.has_edge(u, v).map(Answer::Bool), 0),
        Query::VertexTriangles(v) => match engine.vertex_triangles_with_checks(v) {
            Ok((t, checks)) => (Ok(Answer::Count(t)), checks),
            Err(e) => (Err(e), 0),
        },
        Query::EdgeTriangles(u, v) => match engine.edge_triangles_with_checks(u, v) {
            Ok(Some((d, checks))) => (Ok(Answer::Count(d)), checks),
            Ok(None) => (Ok(Answer::NotAnEdge), 0),
            Err(e) => (Err(e), 0),
        },
    }
}

/// Latency/throughput report of one batch run.
#[derive(Clone, Debug)]
pub struct QueryStats {
    /// Which [`AnswerSource`] the engine answered from — latency
    /// percentiles of runs with different sources are directly comparable
    /// rows of the same report.
    pub source: AnswerSource,
    /// Queries answered (including per-query errors).
    pub queries: usize,
    /// Queries that returned an error (out-of-range ids, corruption).
    pub errors: usize,
    /// Artifact/oracle disagreements recorded on the engine during this
    /// batch's execution window (always 0 outside
    /// [`AnswerSource::CrossCheck`] mode). The counter lives on the
    /// engine, so if several batches run *concurrently on the same
    /// engine* their windows overlap and a disagreement is attributed to
    /// every batch in flight — the total across the engine is exact
    /// (`ServeEngine::mismatch_count`), and zero here always means this
    /// batch was clean.
    pub mismatches: u64,
    /// Worker threads used for the fan-out.
    pub threads: usize,
    /// Wall time of the whole batch.
    pub wall: Duration,
    /// Total sorted-intersection comparisons (the paper's §VI accounting).
    pub wedge_checks: u64,
    /// Fastest single query.
    pub min: Duration,
    /// Mean per-query latency.
    pub mean: Duration,
    /// Median per-query latency.
    pub p50: Duration,
    /// 99th-percentile per-query latency.
    pub p99: Duration,
    /// Slowest single query.
    pub max: Duration,
}

impl QueryStats {
    /// Build a report from raw per-query latency samples.
    ///
    /// This is the aggregation [`run_batch`] uses; it is public so other
    /// drivers measuring their own latencies (the HTTP server's rolling
    /// window, `stress_serve`'s loopback client) produce directly
    /// comparable rows. The mean is computed from the total nanoseconds
    /// as `u128` divided by the exact sample count — batches larger than
    /// `u32::MAX` queries must not silently truncate the divisor (the
    /// old `Duration::checked_div(count as u32)` path did).
    pub fn from_samples(
        source: AnswerSource,
        mut lat: Vec<Duration>,
        errors: usize,
        mismatches: u64,
        threads: usize,
        wall: Duration,
        wedge_checks: u64,
    ) -> QueryStats {
        let queries = lat.len();
        lat.sort_unstable();
        // Percentile picks guard the empty batch (index math would
        // underflow) and degrade to the single sample for 1-query batches.
        let pick = |q: f64| -> Duration {
            if lat.is_empty() {
                Duration::ZERO
            } else {
                lat[((queries - 1) as f64 * q).round() as usize]
            }
        };
        let total_nanos: u128 = lat.iter().map(Duration::as_nanos).sum();
        let mean = if queries == 0 {
            Duration::ZERO
        } else {
            // mean ≤ max sample, so the quotient always fits a u64
            Duration::from_nanos(u64::try_from(total_nanos / queries as u128).unwrap_or(u64::MAX))
        };
        QueryStats {
            source,
            queries,
            errors,
            mismatches,
            threads,
            wall,
            wedge_checks,
            min: lat.first().copied().unwrap_or(Duration::ZERO),
            mean,
            p50: pick(0.50),
            p99: pick(0.99),
            max: lat.last().copied().unwrap_or(Duration::ZERO),
        }
    }

    /// Batch throughput in queries per second of wall time.
    pub fn qps(&self) -> f64 {
        self.queries as f64 / self.wall.as_secs_f64().max(1e-12)
    }

    /// The report as a JSON object (the shape `/stats` nests as `recent`).
    pub fn to_json(&self) -> Json {
        let us = |d: Duration| Json::num(d.as_secs_f64() * 1e6);
        Json::obj(vec![
            ("source", Json::str(&self.source.to_string())),
            ("queries", Json::num(self.queries)),
            ("errors", Json::num(self.errors)),
            ("mismatches", Json::num(self.mismatches)),
            ("threads", Json::num(self.threads)),
            ("wall_secs", Json::num(self.wall.as_secs_f64())),
            ("qps", Json::num(self.qps())),
            ("wedge_checks", Json::num(self.wedge_checks)),
            ("min_us", us(self.min)),
            ("mean_us", us(self.mean)),
            ("p50_us", us(self.p50)),
            ("p99_us", us(self.p99)),
            ("max_us", us(self.max)),
        ])
    }
}

impl std::fmt::Display for QueryStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        write!(
            f,
            "{} queries ({} errors, {} mismatches) from {} on {} thread(s) \
             in {:.3}s — {:.0} q/s, {} wedge checks; latency µs: min {:.1} \
             / mean {:.1} / p50 {:.1} / p99 {:.1} / max {:.1}",
            self.queries,
            self.errors,
            self.mismatches,
            self.source,
            self.threads,
            self.wall.as_secs_f64(),
            self.qps(),
            self.wedge_checks,
            us(self.min),
            us(self.mean),
            us(self.p50),
            us(self.p99),
            us(self.max),
        )
    }
}

/// Outcome of [`run_batch`]: per-query answers in input order, plus the
/// aggregate report.
#[derive(Debug)]
pub struct BatchOutcome {
    /// One answer per input query, in input order.
    pub answers: Vec<Result<Answer, ServeError>>,
    /// The latency/throughput report.
    pub stats: QueryStats,
}

/// Run a batch of queries concurrently against the engine.
///
/// Queries fan out over the shim rayon's worker threads (shard routing
/// happens per query, so a batch touching many shards parallelizes across
/// them); answers come back in input order. A query that fails (e.g. an
/// out-of-range vertex) yields its own `Err` slot without aborting the
/// rest of the batch.
///
/// Under a cross-check source the queries run one after another, in
/// input order, on the calling thread, so every run logs the same
/// disagreements in the same order.
///
/// The engine's configured [`AnswerSource`] decides what each query
/// actually does; the stats report that source, and in cross-check mode
/// also how many artifact/oracle disagreements surfaced during the
/// batch's execution window (detail via [`ServeEngine::mismatches`];
/// see [`QueryStats::mismatches`] for the overlap semantics when
/// batches share an engine concurrently).
pub fn run_batch(engine: &ServeEngine, queries: &[Query]) -> BatchOutcome {
    let mismatches_before = engine.mismatch_count();
    let timed = |i: usize| {
        let q0 = Instant::now();
        let (res, checks) = answer(engine, queries[i]);
        (res, q0.elapsed(), checks)
    };
    let t0 = Instant::now();
    let (results, threads): (Vec<_>, _) = if engine.source().checks() {
        ((0..queries.len()).map(timed).collect(), 1)
    } else {
        let fanned = (0..queries.len()).into_par_iter().map(timed).collect();
        (fanned, rayon::current_num_threads())
    };
    let wall = t0.elapsed();
    let wedge_checks = results.iter().map(|(_, _, checks)| checks).sum();
    let (answers, latencies): (Vec<_>, _) =
        results.into_iter().map(|(res, lat, _)| (res, lat)).unzip();
    let stats = QueryStats::from_samples(
        engine.source(),
        latencies,
        answers.iter().filter(|a| a.is_err()).count(),
        engine.mismatch_count() - mismatches_before,
        threads,
        wall,
        wedge_checks,
    );
    BatchOutcome { answers, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kron::KronProduct;
    use kron_graph::Graph;
    use kron_stream::{stream_product, OutputFormat, StreamConfig};

    #[test]
    fn query_lines_roundtrip_through_display() {
        let text =
            "\n# a comment\ndegree 5\nneighbors 0\nhas_edge 1 2\n\ntri_vertex 9\ntri_edge 3 4\n";
        let qs = parse_queries(text).unwrap();
        assert_eq!(qs.len(), 5);
        let rendered: String = qs.iter().map(|q| format!("{q}\n")).collect();
        assert_eq!(parse_queries(&rendered).unwrap(), qs);
    }

    #[test]
    fn parse_errors_name_the_line() {
        let err = parse_queries("degree 1\nfrobnicate 2\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        let err = parse_queries("has_edge 1\n").unwrap_err();
        assert!(err.contains("missing"), "{err}");
        let err = parse_queries("degree 1 2\n").unwrap_err();
        assert!(err.contains("trailing"), "{err}");
        let err = parse_queries("degree x\n").unwrap_err();
        assert!(err.contains("vertex id"), "{err}");
    }

    #[test]
    fn batch_answers_match_point_queries_in_order() {
        let dir = std::env::temp_dir().join(format!("kron_serve_batch_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]);
        let c = KronProduct::new(a.clone(), a);
        let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
        cfg.shards = 3;
        stream_product(&c, &cfg).unwrap();
        let engine = crate::ServeEngine::open_verified(&dir).unwrap();

        let mut queries = Vec::new();
        for v in 0..c.num_vertices() {
            queries.push(Query::Degree(v));
            queries.push(Query::VertexTriangles(v));
            queries.push(Query::Neighbors(v));
            queries.push(Query::HasEdge(v, (v + 1) % c.num_vertices()));
            queries.push(Query::EdgeTriangles(v, (v + 1) % c.num_vertices()));
        }
        queries.push(Query::Degree(c.num_vertices())); // out of range: its slot errs
        let out = run_batch(&engine, &queries);
        assert_eq!(out.answers.len(), queries.len());
        assert_eq!(out.stats.queries, queries.len());
        assert_eq!(out.stats.errors, 1);
        assert!(out.answers.last().unwrap().is_err());
        assert!(out.stats.wedge_checks > 0);
        assert!(out.stats.qps() > 0.0);
        assert!(out.stats.min <= out.stats.p50 && out.stats.p50 <= out.stats.max);

        for (q, ans) in queries.iter().zip(&out.answers) {
            match (q, ans) {
                (Query::Degree(v), Ok(Answer::Count(d))) => assert_eq!(*d, c.degree(*v)),
                (Query::VertexTriangles(v), Ok(Answer::Count(t))) => {
                    assert_eq!(*t, c.vertex_triangles(*v))
                }
                (Query::Neighbors(v), Ok(Answer::Row(row))) => {
                    assert_eq!(row, &c.neighbors(*v))
                }
                (Query::HasEdge(u, v), Ok(Answer::Bool(b))) => assert_eq!(*b, c.has_edge(*u, *v)),
                (Query::EdgeTriangles(u, v), Ok(Answer::Count(d))) => {
                    assert_eq!(Some(*d), c.edge_triangles(*u, *v))
                }
                (Query::EdgeTriangles(u, v), Ok(Answer::NotAnEdge)) => {
                    assert_eq!(c.edge_triangles(*u, *v), None)
                }
                (Query::Degree(v), Err(_)) => assert_eq!(*v, c.num_vertices()),
                other => panic!("unexpected (query, answer) pair: {other:?}"),
            }
        }

        // stats serialize, tagged with the engine's answer source
        let j = out.stats.to_json();
        assert_eq!(j.req("queries").unwrap().as_usize().unwrap(), queries.len());
        assert_eq!(j.req("source").unwrap().as_str(), Some("artifact"));
        assert_eq!(j.req("mismatches").unwrap().as_u64(), Some(0));
        std::fs::remove_dir_all(&dir).ok();
    }

    fn tiny_engine(name: &str) -> (std::path::PathBuf, crate::ServeEngine) {
        let dir =
            std::env::temp_dir().join(format!("kron_serve_batch_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        let c = KronProduct::new(a.clone(), a);
        let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
        cfg.shards = 2;
        stream_product(&c, &cfg).unwrap();
        let engine = crate::ServeEngine::open_verified(&dir).unwrap();
        (dir, engine)
    }

    #[test]
    fn empty_batch_has_sane_stats() {
        let (dir, engine) = tiny_engine("empty");
        let out = run_batch(&engine, &[]);
        assert!(out.answers.is_empty());
        let s = &out.stats;
        assert_eq!((s.queries, s.errors, s.mismatches), (0, 0, 0));
        // no division-by-zero or index underflow anywhere in the report
        assert_eq!(s.min, Duration::ZERO);
        assert_eq!(s.mean, Duration::ZERO);
        assert_eq!(s.p50, Duration::ZERO);
        assert_eq!(s.p99, Duration::ZERO);
        assert_eq!(s.max, Duration::ZERO);
        assert!(s.qps().is_finite());
        let rendered = s.to_string(); // Display must not panic
        assert!(rendered.contains("0 queries"), "{rendered}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_query_batch_percentiles_are_the_sample() {
        let (dir, engine) = tiny_engine("single");
        let out = run_batch(&engine, &[Query::Degree(0)]);
        assert_eq!(out.stats.queries, 1);
        assert_eq!(out.stats.errors, 0);
        assert_eq!(out.stats.min, out.stats.max);
        assert_eq!(out.stats.p50, out.stats.max);
        assert_eq!(out.stats.p99, out.stats.max);
        assert_eq!(out.stats.mean, out.stats.max);
        assert!(out.stats.qps() > 0.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn all_error_batch_counts_every_error_and_names_them() {
        let (dir, engine) = tiny_engine("allerr");
        let n = engine.num_vertices();
        let queries = [
            Query::Degree(n),
            Query::VertexTriangles(n + 1),
            Query::EdgeTriangles(n, 0),
            Query::HasEdge(0, u64::MAX),
        ];
        let out = run_batch(&engine, &queries);
        assert_eq!(out.stats.errors, queries.len());
        for ans in &out.answers {
            let msg = ans.as_ref().unwrap_err().to_string();
            assert!(msg.contains("outside all shard row ranges"), "{msg}");
        }
        assert!(out.stats.qps().is_finite());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_from_known_latency_vector_pin_mean_and_percentiles() {
        // sorted: 1 1 2 2 3 3 4 5 9 100 µs (n = 10, total 130 µs)
        let lat: Vec<Duration> = [5u64, 1, 2, 100, 4, 3, 2, 1, 9, 3]
            .iter()
            .map(|&us| Duration::from_micros(us))
            .collect();
        let s = QueryStats::from_samples(
            AnswerSource::Artifact,
            lat,
            0,
            0,
            1,
            Duration::from_millis(1),
            0,
        );
        assert_eq!(s.queries, 10);
        assert_eq!(s.min, Duration::from_micros(1));
        // mean = 130 µs / 10, exact in nanoseconds — no u32 divisor cast
        assert_eq!(s.mean, Duration::from_micros(13));
        // index picks: p50 → round(9·0.50) = 5 → 3 µs; p99 → round(9·0.99) = 9 → 100 µs
        assert_eq!(s.p50, Duration::from_micros(3));
        assert_eq!(s.p99, Duration::from_micros(100));
        assert_eq!(s.max, Duration::from_micros(100));

        // sub-microsecond means stay exact too (floor of 4 ns / 3)
        let tiny: Vec<Duration> = [1u64, 1, 2]
            .iter()
            .map(|&n| Duration::from_nanos(n))
            .collect();
        let s = QueryStats::from_samples(
            AnswerSource::Artifact,
            tiny,
            0,
            0,
            1,
            Duration::from_micros(1),
            0,
        );
        assert_eq!(s.mean, Duration::from_nanos(1));
    }

    #[test]
    fn parse_distinguishes_overflow_from_malformed_vertex_ids() {
        // 2^64 exactly: one past u64::MAX — an overflow, not a typo
        let err = parse_queries("degree 18446744073709551616\n").unwrap_err();
        assert!(err.contains("overflows"), "{err}");
        assert!(err.contains(&u64::MAX.to_string()), "{err}");
        // wildly out of range is still overflow
        let err = Query::parse("tri_edge 1 99999999999999999999999999").unwrap_err();
        assert!(err.contains("overflows"), "{err}");
        // non-numeric tokens stay "must be a vertex id", naming the token
        for bad in ["degree x", "degree -3", "tri_vertex 1e3", "has_edge 0 0x10"] {
            let err = Query::parse(bad).unwrap_err();
            assert!(err.contains("must be a vertex id"), "{bad:?} → {err}");
            assert!(!err.contains("overflows"), "{bad:?} → {err}");
        }
        // u64::MAX itself parses fine (the engine rejects it as out of
        // range later, which is a different, per-run answer)
        assert_eq!(
            Query::parse(&format!("degree {}", u64::MAX)).unwrap(),
            Query::Degree(u64::MAX)
        );
    }

    #[test]
    fn malformed_query_files_are_rejected_before_any_batch_runs() {
        // every malformed shape yields a named parse error, never a batch
        for (text, needle) in [
            ("degree\n", "missing"),
            ("tri_edge 1\n", "missing"),
            ("degree 1 2\n", "trailing"),
            ("degree -3\n", "vertex id"),
            ("tri_vertex 1e3\n", "vertex id"),
            ("frobnicate 1\n", "unknown query"),
        ] {
            let err = parse_queries(text).unwrap_err();
            assert!(err.contains(needle), "{text:?} → {err}");
        }
        // an all-comment file is an *empty* batch, not an error
        assert!(parse_queries("# only\n\n# comments\n").unwrap().is_empty());
    }
}
