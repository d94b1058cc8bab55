//! Seeded inputs: the factor graphs, the request streams, and the
//! expected answer of every request.
//!
//! The data set (factors, hot vertices) is fixed; the traffic is a
//! function of `--seed` alone. The program under test only ever sees
//! the generated factors and request bytes; the expected answers come
//! from the paper's closed forms (`AnswerSource::Oracle`), never from
//! the artifact being measured.

use kron::KronProduct;
use kron_serve::http::encode_query_component;
use kron_serve::{run_batch, Answer, PathFinder, Query, ServeEngine, ServeError};
use rand::prelude::*;

/// An independent generator for stream `lane` of a run seeded `seed`.
pub fn lane_rng(seed: u64, lane: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Generator seeds of the two factors. The data set is fixed; `--seed`
/// draws the traffic. Scale-free factors of one size differ enough from
/// seed to seed (hub degrees, so the second moment every triangle query
/// and census pays for) to move `tri_batch` between 26 K and 72 K lines
/// per second — no bound survives inputs that far apart.
const FACTOR_SEEDS: [u64; 2] = [2018, 2019];

/// `web(n) ⊗ web(n)`: two Holme–Kim factors (`m = 3`, `p_t = 0.75`, the
/// repository's web-like stand-in for the paper's web crawl).
pub fn web_product(n: usize) -> KronProduct {
    let [a, b] = FACTOR_SEEDS.map(|seed| kron_gen::holme_kim(n, 3, 0.75, seed));
    KronProduct::new(a, b)
}

/// The data set's `count` hot vertices: like the factors, fixed.
pub fn hot_vertices(product: &KronProduct, count: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(FACTOR_SEEDS[0]);
    (0..count)
        .map(|_| rng.gen_range(0..product.num_vertices()))
        .collect()
}

/// One request of a serving workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Req {
    Query(Query),
    Path { from: u64, to: u64 },
    Khop { v: u64, k: u64 },
}

impl Req {
    /// The request target (`/query?q=degree%205`, `/path?from=1&to=2`, …).
    pub fn target(&self) -> String {
        match self {
            Req::Query(q) => format!("/query?q={}", encode_query_component(&q.to_string())),
            Req::Path { from, to } => format!("/path?from={from}&to={to}"),
            Req::Khop { v, k } => format!("/khop?v={v}&k={k}"),
        }
    }
}

/// The bytes of a bodiless `GET`.
pub fn get_wire(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nHost: kron\r\nContent-Length: 0\r\n\r\n").into_bytes()
}

/// The bytes of a `POST` carrying `body`.
pub fn post_wire(target: &str, body: &[u8]) -> Vec<u8> {
    let mut wire = format!(
        "POST {target} HTTP/1.1\r\nHost: kron\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body);
    wire
}

/// A vertex pair for `has_edge` / `tri_edge`: four times in five a real
/// edge (a uniformly drawn neighbor of a uniform vertex, from the closed
/// form), otherwise a uniform pair, which is almost surely not an edge.
fn vertex_pair(rng: &mut StdRng, product: &KronProduct) -> (u64, u64) {
    let n = product.num_vertices();
    let u = rng.gen_range(0..n);
    if rng.gen_bool(0.8) {
        if let Some(&v) = product.neighbors(u).choose(rng) {
            return (u, v);
        }
    }
    (u, rng.gen_range(0..n))
}

/// `count` point queries over uniform vertices, mixed by `weights`
/// (degree, neighbors, has_edge, tri_edge, tri_vertex) in percent.
pub fn point_mix(
    product: &KronProduct,
    rng: &mut StdRng,
    count: usize,
    weights: [u32; 5],
) -> Vec<Query> {
    assert_eq!(weights.iter().sum::<u32>(), 100);
    let n = product.num_vertices();
    (0..count)
        .map(|_| {
            let roll = rng.gen_range(0..100u32);
            let mut upto = 0;
            let kind = weights
                .iter()
                .position(|&w| {
                    upto += w;
                    roll < upto
                })
                .expect("weights sum to 100");
            match kind {
                0 => Query::Degree(rng.gen_range(0..n)),
                1 => Query::Neighbors(rng.gen_range(0..n)),
                2 => {
                    let (u, v) = vertex_pair(rng, product);
                    Query::HasEdge(u, v)
                }
                3 => {
                    let (u, v) = vertex_pair(rng, product);
                    Query::EdgeTriangles(u, v)
                }
                _ => Query::VertexTriangles(rng.gen_range(0..n)),
            }
        })
        .collect()
}

/// `count` triangle queries, half `tri_vertex` half `tri_edge`, whose
/// vertex is one of the `hot` vertices with probability `p_hot` — the
/// skewed shape a hot-row cache exists for.
pub fn tri_hot_mix(
    product: &KronProduct,
    rng: &mut StdRng,
    count: usize,
    hot: &[u64],
    p_hot: f64,
) -> Vec<Query> {
    let n = product.num_vertices();
    (0..count)
        .map(|_| {
            let v = if rng.gen_bool(p_hot) {
                *hot.choose(rng).expect("hot set is not empty")
            } else {
                rng.gen_range(0..n)
            };
            if rng.gen_bool(0.5) {
                Query::VertexTriangles(v)
            } else {
                match product.neighbors(v).choose(rng) {
                    Some(&u) => Query::EdgeTriangles(v, u),
                    None => Query::VertexTriangles(v),
                }
            }
        })
        .collect()
}

/// The routed-cluster mix: 55% degree, 20% tri_vertex, 15% tri_edge,
/// 5% `/path`, 5% `/khop?k=1`, all over uniform vertices. Degree lines
/// are kept clear of half the mix so that the median request is always
/// a degree line and never sits on the edge between two kinds; `k = 1`
/// because 2-hop neighbourhoods of a scale-free product span four
/// orders of magnitude, and the few hundred drawn per seed then decide
/// the tail on their own.
///
/// The request **population** belongs to the data set — drawn with a
/// fixed seed — and `rng` only sets the order requests arrive in. A
/// window answers about as many requests as the population holds, and
/// a fifth of them (tri_vertex on a scale-free product) carry four
/// fifths of the time with a heavy tail: two independent draws differed
/// by ±20% in rate before the program under test did anything.
pub fn cluster_mix(product: &KronProduct, rng: &mut StdRng, count: usize) -> Vec<Req> {
    let mut population =
        cluster_population(product, &mut StdRng::seed_from_u64(FACTOR_SEEDS[1]), count);
    population.shuffle(rng);
    population
}

fn cluster_population(product: &KronProduct, rng: &mut StdRng, count: usize) -> Vec<Req> {
    let n = product.num_vertices();
    (0..count)
        .map(|_| match rng.gen_range(0..100u32) {
            0..=54 => Req::Query(Query::Degree(rng.gen_range(0..n))),
            55..=74 => Req::Query(Query::VertexTriangles(rng.gen_range(0..n))),
            75..=89 => {
                let (u, v) = vertex_pair(rng, product);
                Req::Query(Query::EdgeTriangles(u, v))
            }
            90..=94 => Req::Path {
                from: rng.gen_range(0..n),
                to: rng.gen_range(0..n),
            },
            _ => Req::Khop {
                v: rng.gen_range(0..n),
                k: 1,
            },
        })
        .collect()
}

/// Closed-form answers for `queries`, in order, from an engine opened
/// with [`kron_serve::AnswerSource::Oracle`].
pub fn oracle_answers(oracle: &ServeEngine, queries: &[Query]) -> Vec<Result<Answer, ServeError>> {
    assert_eq!(oracle.source(), kron_serve::AnswerSource::Oracle);
    run_batch(oracle, queries).answers
}

/// The body `GET /query` must return for an answer.
pub fn query_body(answer: &Result<Answer, ServeError>) -> Vec<u8> {
    match answer {
        Ok(a) => format!("{a}\n").into_bytes(),
        Err(e) => format!("error: {e}\n").into_bytes(),
    }
}

/// The body `POST /batch` must return for `queries`.
pub fn batch_body(queries: &[Query], answers: &[Result<Answer, ServeError>]) -> Vec<u8> {
    let mut out = String::new();
    for (q, a) in queries.iter().zip(answers) {
        match a {
            Ok(a) => out.push_str(&format!("{q} = {a}\n")),
            Err(e) => out.push_str(&format!("{q} = error: {e}\n")),
        }
    }
    out.into_bytes()
}

/// The body a traversal request must return. Traversals have no closed
/// form; the reference is the in-process [`PathFinder`] on a
/// full-run cross-check engine, which certifies every returned path
/// edge by edge against the closed-form oracle (the caller checks the
/// engine's mismatch count stays 0). What the workload then verifies is
/// that the routed cluster returns these bytes exactly.
pub fn traversal_body(reference: &ServeEngine, req: &Req) -> Vec<u8> {
    let finder = PathFinder::new(reference);
    let doc = match *req {
        Req::Path { from, to } => finder.shortest_path(from, to, None).map(|a| a.to_json()),
        Req::Khop { v, k } => finder.khop(v, k).map(|a| a.to_json()),
        Req::Query(_) => panic!("not a traversal"),
    };
    match doc {
        Ok(doc) => format!("{doc}\n").into_bytes(),
        Err(e) => format!("error: {e}\n").into_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rig::{stream_run, WorkDir};
    use kron_graph::Graph;
    use kron_serve::{AnswerSource, OpenOptions};
    use kron_stream::OutputFormat;

    #[test]
    fn same_seed_same_requests_other_seed_other_requests() {
        let product = web_product(40);
        let hot = hot_vertices(&product, 8);
        assert_eq!(
            hot,
            hot_vertices(&web_product(40), 8),
            "the data set does not depend on the seed"
        );
        let mix = |seed: u64| {
            let mut rng = lane_rng(seed, 3);
            (
                point_mix(&product, &mut rng, 500, [40, 20, 20, 15, 5]),
                tri_hot_mix(&product, &mut rng, 500, &hot, 0.9),
                cluster_mix(&product, &mut rng, 500),
            )
        };
        assert_eq!(mix(5), mix(5));
        let (a, b) = (mix(5), mix(6));
        assert_ne!(a.0, b.0);
        assert_ne!(a.1, b.1);
        assert_ne!(a.2, b.2);
        let sorted = |reqs: &[Req]| {
            let mut keys: Vec<String> = reqs.iter().map(Req::target).collect();
            keys.sort();
            keys
        };
        assert_eq!(
            sorted(&a.2),
            sorted(&b.2),
            "the cluster's seed orders a fixed population"
        );
        let wires =
            |reqs: &[Req]| -> Vec<Vec<u8>> { reqs.iter().map(|r| get_wire(&r.target())).collect() };
        assert_eq!(wires(&a.2), wires(&mix(5).2), "down to the wire bytes");
    }

    #[test]
    fn point_mix_follows_its_weights() {
        let product = web_product(40);
        let mix = point_mix(&product, &mut lane_rng(1, 0), 20_000, [40, 20, 20, 15, 5]);
        let share =
            |f: fn(&Query) -> bool| mix.iter().filter(|q| f(q)).count() as f64 / mix.len() as f64;
        assert!((share(|q| matches!(q, Query::Degree(_))) - 0.40).abs() < 0.02);
        assert!((share(|q| matches!(q, Query::EdgeTriangles(..))) - 0.15).abs() < 0.02);
        assert!((share(|q| matches!(q, Query::VertexTriangles(_))) - 0.05).abs() < 0.01);
    }

    /// ARCHITECTURE.md's wire examples are all on `triangle ⊗ triangle`
    /// streamed as 3 CSR shards; the expected bodies the harness renders
    /// must be those pinned bytes.
    #[test]
    fn expected_bodies_match_the_pinned_wire_examples() {
        let work = WorkDir::new("inputs_wire_examples");
        let tri = || Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        let product = KronProduct::new(tri(), tri());
        stream_run(&product, work.path(), OutputFormat::Csr, 3);
        let open = |source| {
            ServeEngine::open_with(
                work.path(),
                &OpenOptions {
                    source,
                    ..OpenOptions::default()
                },
            )
            .unwrap()
        };
        let oracle = open(AnswerSource::Oracle);
        let queries = [
            Query::Neighbors(4),
            Query::Degree(4),
            Query::HasEdge(0, 1),
            Query::VertexTriangles(4),
            Query::EdgeTriangles(0, 4),
            Query::EdgeTriangles(0, 1),
        ];
        let answers = oracle_answers(&oracle, &queries);
        let bodies: Vec<String> = answers
            .iter()
            .map(|a| String::from_utf8(query_body(a)).unwrap())
            .collect();
        assert_eq!(
            bodies,
            ["0 2 6 8\n", "4\n", "false\n", "2\n", "1\n", "not-an-edge\n"]
        );
        assert_eq!(
            String::from_utf8(batch_body(&queries, &answers)).unwrap(),
            "neighbors 4 = 0 2 6 8\ndegree 4 = 4\nhas_edge 0 1 = false\ntri_vertex 4 = 2\n\
             tri_edge 0 4 = 1\ntri_edge 0 1 = not-an-edge\n"
        );
        assert_eq!(Req::Query(queries[0]).target(), "/query?q=neighbors%204");

        let reference = open(AnswerSource::CrossCheck);
        let path = Req::Path { from: 0, to: 1 };
        assert_eq!(path.target(), "/path?from=0&to=1");
        assert_eq!(
            String::from_utf8(traversal_body(&reference, &path)).unwrap(),
            "{\"from\":0,\"to\":1,\"hops\":2,\"path\":[0,5,1]}\n"
        );
        let khop = Req::Khop { v: 4, k: 1 };
        assert_eq!(khop.target(), "/khop?v=4&k=1");
        assert_eq!(
            String::from_utf8(traversal_body(&reference, &khop)).unwrap(),
            "{\"v\":4,\"k\":1,\"reached\":5,\"levels\":[1,4],\"vertices\":[[4],[0,2,6,8]]}\n"
        );
        assert_eq!(reference.mismatch_count(), 0);
    }
}
