//! The endpoint inventory, kept once for both HTTP tiers: which paths
//! exist, which methods they take, and which of the node
//! ([`crate::server`]) and the router ([`crate::router`]) serves them.
//! Both dispatchers [`resolve`] a request here, so the `405` path list and
//! the `501` `"supported"` inventory are read off [`TABLE`] rather than
//! kept by hand beside each `match`; and both parse the three
//! single-answer endpoints through [`Point::parse`], so a router's `400`
//! is a node's `400` byte for byte.

use crate::batch::{parse_queries, Query};
use crate::http::{encode_query_component, Request};
use kron_stream::json::Json;
use std::ops::Range;

pub(crate) const TEXT: &str = "text/plain; charset=utf-8";
pub(crate) const JSON: &str = "application/json";

/// One dispatcher's answer: `(status, content-type, body)`.
pub(crate) type Response = (u16, &'static str, Vec<u8>);

/// The tier dispatching a request.
#[derive(Clone, Copy)]
pub(crate) enum Tier {
    Node,
    Router,
}

/// A path in [`TABLE`]; what a dispatcher matches on.
#[derive(Clone, Copy)]
pub(crate) enum Endpoint {
    Healthz,
    /// `/query`, `/path`, `/khop`: one request, one answer, routed by one
    /// vertex — see [`Point`].
    Point(PointKind),
    Batch,
    Stats,
    Row,
    Rows,
    Wedges,
    Shards,
    Jobs,
}

/// The three single-answer endpoints.
#[derive(Clone, Copy)]
pub(crate) enum PointKind {
    Query,
    Path,
    Khop,
}

/// What a tier does with a path of the table.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Dispatches it and lists it in the `501` `"supported"` inventory.
    Serves,
    /// Knows it — a wrong method is a `405` — but answers by design with
    /// a refusal and does not list it: the router's `/row`, `/rows` and
    /// `/wedges` (rows are read, and intersected, on the owning node).
    Refuses,
    /// Does not know it (`501`): the router's `/jobs` — job ids are
    /// node-local state, so the router deliberately does not forward them.
    Absent,
}

/// One table row: `(path, endpoint, methods, the router's role)`. A node
/// serves every row, so only the router's role is a column.
type Row = (&'static str, Endpoint, &'static [&'static str], Role);

/// Every endpoint, in the order the `"supported"` inventories list them.
/// (`/jobs/<id>` is the node's one parameterized path and is dispatched
/// before the table: its precedence is id → existence → method.)
const TABLE: &[Row] = &[
    ("/healthz", Endpoint::Healthz, &["GET"], Role::Serves),
    (
        "/query",
        Endpoint::Point(PointKind::Query),
        &["GET"],
        Role::Serves,
    ),
    ("/batch", Endpoint::Batch, &["POST"], Role::Serves),
    (
        "/path",
        Endpoint::Point(PointKind::Path),
        &["GET"],
        Role::Serves,
    ),
    (
        "/khop",
        Endpoint::Point(PointKind::Khop),
        &["GET"],
        Role::Serves,
    ),
    ("/stats", Endpoint::Stats, &["GET"], Role::Serves),
    ("/row", Endpoint::Row, &["GET"], Role::Refuses),
    ("/rows", Endpoint::Rows, &["POST"], Role::Refuses),
    ("/wedges", Endpoint::Wedges, &["POST"], Role::Refuses),
    ("/shards", Endpoint::Shards, &["GET"], Role::Serves),
    ("/jobs", Endpoint::Jobs, &["GET", "POST"], Role::Absent),
];

fn role(row: &Row, tier: Tier) -> Role {
    match tier {
        Tier::Node => Role::Serves,
        Tier::Router => row.3,
    }
}

/// Look `method path` up for `tier`: the endpoint to dispatch, or the
/// finished refusal — `405` for a known path with the wrong method, `501`
/// with the tier's endpoint inventory for an unknown one.
pub(crate) fn resolve(tier: Tier, method: &str, path: &str) -> Result<Endpoint, Response> {
    let known = |row: &&Row| row.0 == path && role(row, tier) != Role::Absent;
    match TABLE.iter().find(known) {
        Some((_, endpoint, methods, _)) if methods.contains(&method) => Ok(*endpoint),
        Some(_) => Err(method_not_allowed()),
        None => Err(not_implemented(tier)),
    }
}

/// A `text/plain` error: `error: <msg>\n`, the body shape of every
/// non-2xx answer either tier produces itself (bar the JSON `429`/`501`).
pub(crate) fn error(status: u16, msg: impl std::fmt::Display) -> Response {
    (status, TEXT, format!("error: {msg}\n").into_bytes())
}

/// A JSON answer: the document and a newline.
pub(crate) fn json(status: u16, doc: impl std::fmt::Display) -> Response {
    (status, JSON, format!("{doc}\n").into_bytes())
}

pub(crate) fn method_not_allowed() -> Response {
    error(405, "method not allowed for this endpoint")
}

/// Hard cap on one `/batch` response body. The *request* cap lives in
/// [`crate::http::MAX_BODY`]; answers amplify (one `neighbors <hub>` line
/// can render thousands of ids), so the response needs its own. One
/// bound for both tiers: a router's merged response must obey what the
/// nodes do (the byte-identical contract).
pub(crate) const MAX_BATCH_RESPONSE: usize = 64 * 1024 * 1024;

pub(crate) fn batch_too_large() -> Response {
    error(
        413,
        format_args!("batch response exceeds {MAX_BATCH_RESPONSE} bytes — split the batch"),
    )
}

/// The `501` body. 501, not 404: the path may well exist on the other
/// tier, so name what *is* served here and let a client landing on the
/// wrong tier tell that from a typo.
fn not_implemented(tier: Tier) -> Response {
    let supported: Vec<String> = TABLE
        .iter()
        .filter(|row| role(row, tier) == Role::Serves)
        .map(|row| format!("\"{}\"", row.0))
        .collect();
    let (who, note) = match tier {
        Tier::Node => ("this node", ""),
        Tier::Router => (
            "the router",
            ",\"note\":\"/jobs is node-local: submit to a node, not the router\"",
        ),
    };
    json(
        501,
        format_args!(
            "{{\"error\":\"not implemented by {who}\",\"supported\":[{}]{note}}}",
            supported.join(",")
        ),
    )
}

/// The `GET /shards` document — a node's slice of the ownership map, or
/// the whole cluster presented by a router as one complete node. One
/// shape, because a router discovers either through it.
pub(crate) fn shards(
    num_shards: usize,
    subset: Range<usize>,
    span: Range<u64>,
    num_vertices: u64,
) -> Response {
    let doc = Json::obj(vec![
        ("shards", Json::num(num_shards)),
        (
            "subset",
            Json::Arr(vec![Json::num(subset.start), Json::num(subset.end)]),
        ),
        ("vertex_lo", Json::num(span.start)),
        ("vertex_hi", Json::num(span.end)),
        ("num_vertices", Json::num(num_vertices)),
    ]);
    json(200, doc)
}

/// The query lines of a `POST /batch` body, or the `400` refusing it.
pub(crate) fn parse_batch(req: &Request) -> Result<Vec<Query>, Response> {
    let text = std::str::from_utf8(&req.body).map_err(|_| error(400, "body is not UTF-8"))?;
    parse_queries(text).map_err(|e| error(400, e))
}

/// A parsed `/query`, `/path`, or `/khop` request.
#[derive(Clone, Copy)]
pub(crate) enum Point {
    Query(Query),
    Path {
        from: u64,
        to: u64,
        max_depth: Option<u64>,
    },
    Khop {
        v: u64,
        k: u64,
    },
}

impl Point {
    /// Parse the request's parameters. The error is the text of the
    /// `400` body after `error: `.
    pub(crate) fn parse(kind: PointKind, req: &Request) -> Result<Point, String> {
        let param = |kw, name, noun| u64_param(req, kw, name, noun);
        Ok(match kind {
            PointKind::Query => Point::Query(Query::parse(
                req.query_param("q").ok_or("missing query parameter q")?,
            )?),
            PointKind::Path => Point::Path {
                from: param("path", "from", "vertex id")?,
                to: param("path", "to", "vertex id")?,
                max_depth: req
                    .query_param("max_depth")
                    .map(|_| param("path", "max_depth", "hop count"))
                    .transpose()?,
            },
            PointKind::Khop => Point::Khop {
                v: param("khop", "v", "vertex id")?,
                k: param("khop", "k", "hop count")?,
            },
        })
    }

    /// The vertex whose row the answering node reads first — a router
    /// forwards to a replica of this vertex's shard (the node traverses
    /// cross-shard through its own `/row` fetches from there).
    pub(crate) fn routing_vertex(&self) -> u64 {
        match *self {
            Point::Query(q) => q.routing_vertex(),
            Point::Path { from, .. } => from,
            Point::Khop { v, .. } => v,
        }
    }

    /// The vertex whose row is *all* this request reads — `degree`,
    /// `neighbors`, `has_edge` — or `None` for one that goes on to other
    /// rows (triangles, traversals). With the row's length this bounds the
    /// request's cost before it starts.
    pub(crate) fn single_row(&self) -> Option<u64> {
        match *self {
            Point::Query(Query::Degree(v) | Query::Neighbors(v) | Query::HasEdge(v, _)) => Some(v),
            Point::Query(Query::VertexTriangles(_) | Query::EdgeTriangles(..))
            | Point::Path { .. }
            | Point::Khop { .. } => None,
        }
    }

    /// The canonical request line a router forwards.
    pub(crate) fn forward_path(&self) -> String {
        match *self {
            Point::Query(q) => format!("/query?q={}", encode_query_component(&q.to_string())),
            Point::Path {
                from,
                to,
                max_depth,
            } => {
                let mut path = format!("/path?from={from}&to={to}");
                if let Some(k) = max_depth {
                    path.push_str(&format!("&max_depth={k}"));
                }
                path
            }
            Point::Khop { v, k } => format!("/khop?v={v}&k={k}"),
        }
    }

    /// `Content-Type` of this endpoint's `200` (every error is [`TEXT`]).
    pub(crate) fn content_type(&self) -> &'static str {
        match self {
            Point::Query(_) => TEXT,
            Point::Path { .. } | Point::Khop { .. } => JSON,
        }
    }
}

/// Parse the `u64` query parameter `name` with the `Query::parse` error
/// conventions pinned in the batch grammar: a missing parameter names
/// it, overflow is distinguished from malformed, and the offending
/// token is echoed back.
fn u64_param(req: &Request, kw: &str, name: &str, noun: &str) -> Result<u64, String> {
    let raw = req
        .query_param(name)
        .ok_or_else(|| format!("{kw}: missing <{name}>"))?;
    raw.parse().map_err(|e: std::num::ParseIntError| {
        if *e.kind() == std::num::IntErrorKind::PosOverflow {
            let max = u64::MAX;
            format!("{kw}: <{name}> {raw:?} overflows the {noun} range (max {max})")
        } else {
            format!("{kw}: <{name}> must be a {noun} (got {raw:?})")
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Client;
    use crate::{Router, ServeEngine, Server, ServerOptions};
    use kron::KronProduct;
    use kron_graph::Graph;
    use kron_stream::{stream_product, OutputFormat, StreamConfig};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    /// The `501` bodies as they were spelled by hand in each dispatcher
    /// before the table generated them.
    const NODE_501: &str = "{\"error\":\"not implemented by this node\",\"supported\":[\"/healthz\",\"/query\",\"/batch\",\"/path\",\"/khop\",\"/stats\",\"/row\",\"/rows\",\"/wedges\",\"/shards\",\"/jobs\"]}\n";
    const ROUTER_501: &str = "{\"error\":\"not implemented by the router\",\"supported\":[\"/healthz\",\"/query\",\"/batch\",\"/path\",\"/khop\",\"/stats\",\"/shards\"],\"note\":\"/jobs is node-local: submit to a node, not the router\"}\n";
    const PINNED_405: &str = "error: method not allowed for this endpoint\n";

    /// Walk [`TABLE`] against a live node and a live router: a wrong
    /// method on a known path is the pinned `405`, an unknown path (and,
    /// on the router, `/jobs`) the pinned `501`.
    #[test]
    fn table_rows_answer_405_and_unknown_paths_501_on_both_tiers() {
        let dir = std::env::temp_dir().join(format!("kron_endpoints_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]);
        let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
        cfg.shards = 2;
        stream_product(&KronProduct::new(a.clone(), a), &cfg).unwrap();
        let engine = ServeEngine::open_verified(&dir).unwrap();
        let node = Server::bind("127.0.0.1:0").unwrap();
        let front = Server::bind("127.0.0.1:0").unwrap();
        let stop = AtomicBool::new(false);
        let opts = ServerOptions::default();
        // the router discovers a *running* node, so it is built between
        // the two spawns and must outlive the second
        let mut router = None;
        std::thread::scope(|s| {
            let node_run = s.spawn(|| node.run(&engine, &opts, &stop));
            let node_addr = node.local_addr().unwrap();
            let peers = [node_addr.to_string()];
            let router = router.insert(Router::discover(&peers, Duration::from_secs(5)).unwrap());
            let router_run = s.spawn(|| router.run(&front, &opts, &stop));

            for (tier, addr, pinned_501) in [
                (Tier::Node, node_addr, NODE_501),
                (Tier::Router, front.local_addr().unwrap(), ROUTER_501),
            ] {
                let mut client = Client::connect(addr).unwrap();
                let mut ask = |method: &str, path: &str| {
                    let (status, _, body) = client.request_typed(method, path, b"").unwrap();
                    (status, String::from_utf8(body).unwrap())
                };
                for row in TABLE {
                    for method in ["GET", "POST", "PUT", "DELETE"] {
                        if row.2.contains(&method) {
                            continue;
                        }
                        let expect = match role(row, tier) {
                            Role::Absent => (501, pinned_501),
                            Role::Serves | Role::Refuses => (405, PINNED_405),
                        };
                        let (status, body) = ask(method, row.0);
                        assert_eq!((status, body.as_str()), expect, "{method} {}", row.0);
                    }
                }
                for path in ["/nope", "/", "/jobsx", "/query/extra"] {
                    let (status, body) = ask("GET", path);
                    assert_eq!((status, body.as_str()), (501, pinned_501), "GET {path}");
                }
                // `/jobs` is on the node only; `/row`, `/rows` and
                // `/wedges` are known to the router but refused by design
                // (an empty `/rows` body asks for nothing: the node's
                // empty 200; an empty `/wedges` body does not frame: the
                // node's 400)
                let (jobs, _) = ask("GET", "/jobs");
                let (row, row_body) = ask("GET", "/row?shard=0&v=0");
                let (rows, rows_body) = ask("POST", "/rows");
                let (wedges, wedges_body) = ask("POST", "/wedges");
                match tier {
                    Tier::Node => {
                        assert_eq!((jobs, row, rows, wedges), (200, 200, 200, 400));
                        assert_eq!(rows_body, "");
                    }
                    Tier::Router => {
                        assert_eq!((jobs, row, rows, wedges), (501, 404, 404, 404));
                        let no_rows =
                            "error: the router serves no rows (fetch from the owning node)\n";
                        assert_eq!(row_body, no_rows);
                        assert_eq!(rows_body, no_rows);
                        assert_eq!(
                            wedges_body,
                            "error: the router intersects no rows (ask the owning node)\n"
                        );
                        assert_eq!(ask("POST", "/jobs"), (501, pinned_501.to_string()));
                    }
                }
            }

            stop.store(true, Ordering::SeqCst);
            node_run.join().unwrap().unwrap();
            router_run.join().unwrap().unwrap();
        });
        std::fs::remove_dir_all(&dir).ok();
    }
}
