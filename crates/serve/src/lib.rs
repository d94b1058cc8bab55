//! # kron-serve — point queries straight off the mmap'd CSR shards
//!
//! The paper's end goal is *using* validated per-vertex/per-edge triangle
//! statistics at scale, not just generating them. `kron stream`
//! turns the implicit product `C = A ⊗ B` into durable CSR shards; this
//! crate is the first consumer of those artifacts: a **read-only query
//! engine** that answers the paper's headline statistics in place,
//! without ever loading the graph.
//!
//! * [`ServeEngine`] — opens a run directory via
//!   [`kron_stream::ShardSet`] (checksums validated once, every shard
//!   memory-mapped), then answers `degree(v)`, `neighbors(v)`,
//!   `has_edge(u, v)` (binary search in the sorted CSR row),
//!   per-vertex triangle participation `t_C(v)` and per-edge triangle
//!   participation `Δ_C[{u, v}]` (sorted-neighbor intersection across
//!   shards, via the `kron_triangles::slice` kernels) — all on zero-copy
//!   rows out of the mappings;
//! * [`AnswerSource`] — *where* answers come from: `Artifact` (the shard
//!   walk above), `Oracle` (the paper's closed forms evaluated on the run
//!   directory's factor copies via [`FactorOracle`] — degree and `t_C(v)`
//!   in `O(1)`, no shard I/O), or `CrossCheck` (compute both, return the
//!   artifact answer, count and log every disagreement — a live
//!   conformance monitor for corrupted or stale run directories);
//! * [`run_batch`] — the batched concurrent driver: a [`Query`] list fans
//!   out over worker threads, each query routing to its shard(s), with a
//!   [`QueryStats`] latency/throughput report (throughput, latency
//!   percentiles, the paper's wedge-check accounting, and the batch's
//!   cross-check mismatch count);
//! * [`OpenOptions`] — validation depth, answer source, and an optional
//!   LRU of hot decoded rows ([`RowCache`]) with per-shard routing stats
//!   ([`RoutingReport`]) for skewed artifact loads;
//! * [`parse_queries`] — the `kron serve --queries file.txt` line format;
//! * [`Server`] — the long-lived TCP/HTTP front end (`kron serve
//!   --listen`): open and validate once, then answer `/query`, `/batch`,
//!   `/stats`, and `/healthz` over a hand-rolled std-only HTTP/1.1 layer
//!   ([`http`]) until a shutdown flag flips. Connections ride a
//!   `poll(2)` event loop (10K+ concurrent keep-alive peers on one
//!   node, with idle/slow-client timeouts); the event thread answers
//!   bounded requests itself and a bounded worker pool executes the
//!   rest. Pair it with [`AnswerSource::CrossCheck`] (`--source
//!   cross-check`) to check every answer against the closed forms while
//!   serving;
//! * [`cluster`] — multi-node serving (`kron serve --shards a..b
//!   --peers …`): each node memory-maps only its claimed shard subset
//!   ([`kron_stream::ShardSet::open_with`]) and asks a peer for the
//!   non-resident rows a query reads over the internal `POST /rows`
//!   endpoint (a triangle query ships its row to the peer in `POST
//!   /wedges` instead), while serving the *unchanged* single-node wire
//!   protocol — including cross-checking answers assembled from peers'
//!   bytes. Overlapping claims are
//!   **replicas**: fetches rotate round-robin, fail over on transport
//!   errors, and eject unhealthy peers until a `/healthz` probe
//!   succeeds;
//! * **analytics jobs** — the server also runs [`kron_analyze`]
//!   whole-graph kernels asynchronously: `POST /jobs` submits a kernel
//!   spec and returns an id immediately, `GET /jobs/<id>` polls
//!   `running`/`done`/`failed` (with the full result document on
//!   completion), `DELETE /jobs/<id>` requests cooperative cancel. The
//!   job pool is bounded (`--jobs`, default 2) so a whole-graph PageRank
//!   never crowds out point-query latency; job counters ride along in
//!   `/stats`, and a job whose result contradicts the closed forms fails
//!   with the mismatch report attached;
//! * **traversal serving** — [`PathFinder`] answers `GET
//!   /path?from=&to=` (bidirectional-BFS shortest paths, `kron path` on
//!   the CLI) and `GET /khop?v=&k=` (k-hop neighborhoods with per-level
//!   counts) over the same row reads as every other query, so a
//!   cluster node traverses the whole product while holding only its
//!   claimed shards — a level's far rows arrive in one `POST /rows`
//!   per replica set. Under a cross-check source,
//!   [`ServeEngine::certify_path`] re-verifies every returned path
//!   edge-by-edge against the artifact and the closed-form oracle;
//! * [`Router`] — the stateless forwarding front end (`kron route`):
//!   discovers each node's claim via `GET /shards`, forwards `/query`
//!   and `/batch` by vertex range over each vertex's replicas — found
//!   and asked through the same peer table a node holds (`replica.rs`),
//!   so with the same failover/ejection semantics as the nodes (answers
//!   byte-identical to a single node over the whole run directory),
//!   merges `/stats` across the cluster, and — with `--rediscover` —
//!   re-runs discovery periodically so nodes can join/leave live.
//!
//! Semantics match the in-memory oracles exactly: degrees exclude self
//! loops, triangles ignore loops (the paper's Rem. 3), and every answer
//! equals what `kron::KronProduct` or the `kron-triangles` kernels would
//! compute on the materialized graph — the integration suite asserts it.
//!
//! ## Quickstart
//!
//! ```
//! use kron::KronProduct;
//! use kron_graph::Graph;
//! use kron_serve::{run_batch, Query, ServeEngine};
//! use kron_stream::{stream_product, OutputFormat, StreamConfig};
//!
//! // Generate a small product as on-disk CSR shards…
//! let a = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
//! let c = KronProduct::new(a.clone(), a);
//! let dir = std::env::temp_dir().join(format!("kron_serve_doc_{}", std::process::id()));
//! let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
//! cfg.shards = 2;
//! stream_product(&c, &cfg).unwrap();
//!
//! // …then serve point queries off the mmap'd shards.
//! let engine = ServeEngine::open_verified(&dir).unwrap();
//! assert_eq!(engine.degree(4).unwrap(), c.degree(4));
//! assert_eq!(engine.vertex_triangles(4).unwrap(), 2); // Thm. 1: 2·t_A·t_B
//! assert_eq!(engine.edge_triangles(0, 4).unwrap(), Some(1));
//!
//! // Batched, concurrent, with a latency/throughput report.
//! let out = run_batch(&engine, &[Query::Degree(0), Query::VertexTriangles(4)]);
//! assert_eq!(out.answers.len(), 2);
//! assert_eq!(out.stats.errors, 0);
//!
//! // Or answer from the closed forms on the run's factor copies — no
//! // shard I/O — while cross-checking every artifact answer against them.
//! use kron_serve::{AnswerSource, OpenOptions};
//! let check = ServeEngine::open_with(&dir, &OpenOptions {
//!     source: AnswerSource::CrossCheck,
//!     ..OpenOptions::default()
//! }).unwrap();
//! assert_eq!(check.vertex_triangles(4).unwrap(), 2);
//! assert_eq!(check.mismatch_count(), 0); // artifact and oracle agree
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

// `deny`, not `forbid`: the poll(2) syscall shim in `poll` is the one
// place unsafe is allowed (it opts in per-module); every query path,
// parser, and state machine above it stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod cache;
pub mod cluster;
mod endpoints;
mod engine;
mod event_loop;
pub mod http;
mod jobs;
mod oracle;
mod path;
mod poll;
mod replica;
pub mod router;
mod server;

pub use batch::{parse_queries, push_line, run_batch, Answer, BatchOutcome, Query, QueryStats};
pub use cache::{RoutingReport, RowCache};
pub use cluster::{parse_shard_range, PeerSpec};
pub use engine::{AnswerSource, Mismatch, OpenOptions, ServeEngine, ServeError};
pub use oracle::FactorOracle;
pub use path::{KhopAnswer, PathAnswer, PathFinder, MAX_KHOP_VERTICES};
pub use router::{Router, RouterReport};
pub use server::{Server, ServerOptions, ServerReport};
