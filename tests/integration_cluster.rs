//! Cluster serving end to end, over real loopback TCP.
//!
//! The tentpole property: a 2-node + router cluster, each node
//! memory-mapping only its claimed shard subset of a randomized sharded
//! product, answers **every** query byte-identically to one server over
//! the whole run directory — the single-node wire protocol is unchanged
//! for clients. Plus the cluster's failure story: a tampered artifact on
//! one node surfaces through cross-check `/stats` on the *querying*
//! node, the one that served the corrupt bytes to a client.

use kron::KronProduct;
use kron_serve::http::{encode_query_component, Client};
use kron_serve::{OpenOptions, PeerSpec, Router, ServeEngine, Server, ServerOptions};
use kron_stream::json::Json;
use kron_stream::{load_manifest, stream_product, OutputFormat, StreamConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("kron_cluster_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A randomized product: seeded ER factors (one with all loops) so every
/// statistic — degrees, loops, triangles, empty rows — shows up, while
/// staying deterministic across runs.
fn cluster_product(seed: u64) -> KronProduct {
    let a = kron_gen::erdos_renyi(7, 0.45, seed);
    let b = kron_gen::erdos_renyi(5, 0.5, seed + 1).with_all_self_loops();
    KronProduct::new(a, b)
}

/// Sets its flag when dropped: a scope running servers until the flag is
/// set stops them whatever its body does, or a failed assertion would
/// leave the scope waiting on them forever.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

#[test]
fn two_node_cluster_with_router_matches_single_node_byte_for_byte() {
    let dir = tmpdir("byte_identical");
    let c = cluster_product(42);
    let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
    cfg.shards = 4;
    stream_product(&c, &cfg).unwrap();
    let n = c.num_vertices();

    // Bind every listener first: the peer tables need real addresses,
    // and bound-but-not-yet-accepting listeners queue connections in the
    // kernel backlog, so startup order cannot race.
    let single_srv = Server::bind("127.0.0.1:0").unwrap();
    let node0_srv = Server::bind("127.0.0.1:0").unwrap();
    let node1_srv = Server::bind("127.0.0.1:0").unwrap();
    let front = Server::bind("127.0.0.1:0").unwrap();
    let (addr_single, addr0, addr1, addr_front) = (
        single_srv.local_addr().unwrap(),
        node0_srv.local_addr().unwrap(),
        node1_srv.local_addr().unwrap(),
        front.local_addr().unwrap(),
    );

    let single = ServeEngine::open_verified(&dir).unwrap();
    let node = |subset: std::ops::Range<usize>, peer: String, peer_shards| {
        ServeEngine::open_with(
            &dir,
            &OpenOptions {
                shard_subset: Some(subset),
                peers: vec![PeerSpec {
                    shards: peer_shards,
                    addr: peer,
                }],
                // the LRU holds resident neighbour rows: a peer's row
                // that a query names arrives in a one-vertex /rows and
                // never enters it
                row_cache_bytes: 64 << 10,
                ..OpenOptions::default()
            },
        )
        .unwrap()
    };
    let node0 = node(0..2, addr1.to_string(), 2..4);
    let node1 = node(2..4, addr0.to_string(), 0..2);

    let stop = AtomicBool::new(false);
    let opts = ServerOptions::default();
    let (single_rep, node0_rep, node1_rep, router_rep) = std::thread::scope(|s| {
        let h_single = s.spawn(|| single_srv.run(&single, &opts, &stop).unwrap());
        let h_node0 = s.spawn(|| node0_srv.run(&node0, &opts, &stop).unwrap());
        let h_node1 = s.spawn(|| node1_srv.run(&node1, &opts, &stop).unwrap());
        let router = Router::discover(
            &[addr0.to_string(), addr1.to_string()],
            Duration::from_secs(5),
        )
        .unwrap();
        let (stop_ref, opts_ref, front_ref) = (&stop, &opts, &front);
        let h_router = s.spawn(move || router.run(front_ref, opts_ref, stop_ref).unwrap());
        let _guard = StopOnDrop(&stop);

        let mut one = Client::connect(addr_single).unwrap();
        let mut routed = Client::connect(addr_front).unwrap();
        let mut direct0 = Client::connect(addr0).unwrap();

        // Every query kind at every vertex, plus error shapes: the whole
        // grid must come back byte-identical through the router…
        let mut queries: Vec<String> = Vec::new();
        for v in 0..n {
            queries.push(format!("degree {v}"));
            queries.push(format!("neighbors {v}"));
            queries.push(format!("tri_vertex {v}"));
            queries.push(format!("has_edge {v} {}", (v + 3) % n));
            queries.push(format!("tri_edge {v} {}", (v + 1) % n));
        }
        queries.push(format!("degree {n}")); // out of range → 422
        queries.push(format!("tri_edge {n} 0"));
        queries.push(format!("has_edge 0 {}", u64::MAX));
        for q in &queries {
            let path = format!("/query?q={}", encode_query_component(q));
            let want = one.get(&path).unwrap();
            let got = routed.get(&path).unwrap();
            assert_eq!(got, want, "router diverged on {q}");
            // …and asking a node directly is the same wire protocol too
            let got0 = direct0.get(&path).unwrap();
            assert_eq!(got0, want, "node 0 diverged on {q}");
        }
        // unparsable query: the router 400s it itself, identically
        let bad = "/query?q=frobnicate%201";
        assert_eq!(routed.get(bad).unwrap(), one.get(bad).unwrap());

        // one /batch over the whole grid: a single body, byte-identical —
        // and, the claims being disjoint, exactly one sub-batch per node
        // (a node's requests that are neither `/rows` nor `/wedges` from
        // its peer, less the `/stats` read itself)
        let mut direct1 = Client::connect(addr1).unwrap();
        let non_row_requests = |c: &mut Client| {
            let doc = Json::parse(&c.get("/stats").unwrap().1).unwrap();
            let count = |key| doc.req(key).unwrap().as_u64().unwrap();
            count("requests") - count("rows_served") - count("wedges_served")
        };
        let before = [&mut direct0, &mut direct1].map(non_row_requests);
        let body: String = queries.iter().map(|q| format!("{q}\n")).collect();
        let want = one.post("/batch", body.as_bytes()).unwrap();
        let got = routed.post("/batch", body.as_bytes()).unwrap();
        assert_eq!(got, want, "batch diverged");
        assert_eq!(want.0, 200);
        let after = [&mut direct0, &mut direct1].map(non_row_requests);
        assert_eq!([after[0] - before[0], after[1] - before[1]], [2, 2]);
        // empty and comment-only batches too
        for empty in ["", "# only comments\n\n"] {
            assert_eq!(
                routed.post("/batch", empty.as_bytes()).unwrap(),
                one.post("/batch", empty.as_bytes()).unwrap()
            );
        }

        // the router's merged /stats: both peers present, totals summed
        let (status, stats) = routed.get("/stats").unwrap();
        assert_eq!(status, 200);
        let doc = Json::parse(&stats).unwrap();
        assert_eq!(doc.req("role").unwrap().as_str(), Some("router"));
        assert_eq!(doc.req("peers").unwrap().as_arr().unwrap().len(), 2);
        let totals = doc.req("totals").unwrap();
        let total_queries = totals.req("queries").unwrap().as_u64().unwrap();
        assert!(
            total_queries >= 2 * queries.len() as u64,
            "peer totals must count the /query and /batch passes: {total_queries}"
        );
        assert_eq!(totals.req("mismatch_count").unwrap().as_u64(), Some(0));
        assert!(totals.req("rows_served").unwrap().as_u64().unwrap() > 0);
        assert!(totals.req("wedges_served").unwrap().as_u64().unwrap() > 0);
        // which thread answered, summed like the other integers: the
        // peers' own `connections` gauges add up to the totals, and the
        // router itself — every answer of which waits on a peer — pooled
        // everything it was sent
        let path_counts = |doc: &Json| {
            let conns = doc.req("connections").unwrap();
            ["inline", "pooled"].map(|key| conns.req(key).unwrap().as_u64().unwrap())
        };
        let mut summed = [0, 0];
        for peer in doc.req("peers").unwrap().as_arr().unwrap() {
            let [inline, pooled] = path_counts(peer.req("stats").unwrap());
            summed = [summed[0] + inline, summed[1] + pooled];
        }
        assert!(summed[0] > 0 && summed[1] > 0, "{summed:?}");
        assert_eq!(totals.req("inline").unwrap().as_u64(), Some(summed[0]));
        assert_eq!(totals.req("pooled").unwrap().as_u64(), Some(summed[1]));
        let requests = doc.req("requests").unwrap().as_u64().unwrap();
        assert_eq!(path_counts(&doc), [0, requests]);

        // the cluster presents as one complete node to /shards
        let (_, shards) = routed.get("/shards").unwrap();
        let doc = Json::parse(&shards).unwrap();
        assert_eq!(doc.req("num_vertices").unwrap().as_u64(), Some(n));
        assert_eq!(doc.req("vertex_lo").unwrap().as_u64(), Some(0));
        assert_eq!(doc.req("vertex_hi").unwrap().as_u64(), Some(n));

        assert_eq!(routed.get("/healthz").unwrap(), (200, "ok\n".to_string()));

        // A direct query for a row node 1 holds costs node 0 one
        // one-vertex `/rows` — one exchange, one row served — every time
        // it is asked, and never touches node 0's LRU.
        let rows_served = |c: &mut Client| {
            let doc = Json::parse(&c.get("/stats").unwrap().1).unwrap();
            doc.req("rows_served").unwrap().as_u64().unwrap()
        };
        let touched = |r: kron_serve::RoutingReport| r.cache_hits + r.cache_misses;
        let lru = touched(node0.routing());
        let asks: [(&str, &dyn Fn(u64) -> bool); 3] = [
            ("degree", &|v| node0.degree(v).unwrap() == c.degree(v)),
            ("neighbors", &|v| {
                node0.neighbors(v).unwrap() == c.neighbors(v).as_slice()
            }),
            ("has_edge", &|v| {
                node0.has_edge(v, (v + 3) % n).unwrap() == c.has_edge(v, (v + 3) % n)
            }),
        ];
        for _ in 0..2 {
            for v in node1.shard_set().subset_vertices() {
                for (what, ask) in &asks {
                    let fetches = node0.routing().remote_fetches;
                    let served = rows_served(&mut direct1);
                    assert!(ask(v), "{what} {v}");
                    assert_eq!(node0.routing().remote_fetches, fetches + 1, "{what} {v}");
                    assert_eq!(rows_served(&mut direct1), served + 1, "{what} {v}");
                }
            }
        }
        assert_eq!(
            touched(node0.routing()),
            lru,
            "a direct far read used the LRU"
        );

        stop.store(true, Ordering::SeqCst);
        drop((one, routed, direct0, direct1));
        (
            h_single.join().unwrap(),
            h_node0.join().unwrap(),
            h_node1.join().unwrap(),
            h_router.join().unwrap(),
        )
    });

    // Cross-shard triangle queries force real node-to-node row traffic.
    assert!(
        node0_rep.rows_served + node1_rep.rows_served > 0,
        "no rows crossed the wire — the cluster never clustered"
    );
    assert_eq!(router_rep.forward_errors, 0);
    assert_eq!(router_rep.bad_requests, 1, "the frobnicate probe");
    assert_eq!(
        single_rep.mismatches + node0_rep.mismatches + node1_rep.mismatches,
        0
    );
    let remote0 = node0.routing().remote_fetches;
    let remote1 = node1.routing().remote_fetches;
    assert!(
        remote0 + remote1 > 0,
        "routing report must count remote fetches"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tampered_remote_row_is_flagged_on_the_querying_node() {
    let dir = tmpdir("tamper_remote");
    let c = cluster_product(7);
    let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
    cfg.shards = 3;
    stream_product(&c, &cfg).unwrap();

    // Corrupt the first column word of shard 1 — resident on node 1,
    // fetched remotely by node 0.
    let m1 = load_manifest(&dir, 1).unwrap();
    let path = dir.join(m1.file.as_deref().unwrap());
    let mut bytes = std::fs::read(&path).unwrap();
    let rows = (m1.vertices.end - m1.vertices.start) as usize;
    bytes[32 + 8 * (rows + 1)] ^= 0x04;
    std::fs::write(&path, &bytes).unwrap();
    // the victim: the first vertex of shard 1 whose row is non-empty
    // (that row's first column is the flipped word)
    let victim = (m1.vertices.start..m1.vertices.end)
        .find(|&v| !c.neighbors(v).is_empty())
        .unwrap();

    let node0_srv = Server::bind("127.0.0.1:0").unwrap();
    let node1_srv = Server::bind("127.0.0.1:0").unwrap();
    let (addr0, addr1) = (
        node0_srv.local_addr().unwrap(),
        node1_srv.local_addr().unwrap(),
    );
    // Node 0's own shard is clean and checksum-verified; it audits every
    // query, including ones answered with peers' bytes.
    let node0 = ServeEngine::open_with(
        &dir,
        &OpenOptions {
            shard_subset: Some(0..1),
            peers: vec![PeerSpec::parse(&format!("1..3={addr1}")).unwrap()],
            source: kron_serve::AnswerSource::CrossCheck,
            ..OpenOptions::default()
        },
    )
    .unwrap();
    // Node 1 opens the tampered shard structurally (an audit tier exists
    // precisely because per-open rehashing is skipped in production).
    let node1 = ServeEngine::open_with(
        &dir,
        &OpenOptions {
            shard_subset: Some(1..3),
            peers: vec![PeerSpec::parse(&format!("0..1={addr0}")).unwrap()],
            verify_checksums: false,
            ..OpenOptions::default()
        },
    )
    .unwrap();

    let stop = AtomicBool::new(false);
    let opts = ServerOptions::default();
    let (rep0, _rep1) = std::thread::scope(|s| {
        let h0 = s.spawn(|| node0_srv.run(&node0, &opts, &stop).unwrap());
        let h1 = s.spawn(|| node1_srv.run(&node1, &opts, &stop).unwrap());
        let mut client = Client::connect(addr0).unwrap();

        // Ask node 0 for the tampered row that lives on node 1: the
        // artifact path serves the remote bytes, the closed-form oracle
        // disagrees, and the mismatch lands on node 0's counters.
        let path = format!(
            "/query?q={}",
            encode_query_component(&format!("neighbors {victim}"))
        );
        let (status, _) = client.get(&path).unwrap();
        assert_eq!(status, 200, "cross-check returns the artifact answer");

        let (_, stats) = client.get("/stats").unwrap();
        let doc = Json::parse(&stats).unwrap();
        assert!(
            doc.req("mismatch_count").unwrap().as_u64().unwrap() >= 1,
            "tampered remote row must flag on the querying node: {stats}"
        );
        let logged = doc.req("mismatches").unwrap().as_arr().unwrap();
        assert!(
            logged.iter().any(|m| {
                m.req("query").unwrap().as_str() == Some(&format!("neighbors {victim}"))
            }),
            "mismatch log must name the query: {stats}"
        );

        stop.store(true, Ordering::SeqCst);
        drop(client);
        (h0.join().unwrap(), h1.join().unwrap())
    });
    assert!(rep0.mismatches >= 1, "{rep0}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn node_rejects_incomplete_ownership_maps_at_open() {
    let dir = tmpdir("ownership");
    let c = cluster_product(3);
    let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
    cfg.shards = 4;
    stream_product(&c, &cfg).unwrap();
    let open = |subset, peers: &[&str]| {
        ServeEngine::open_with(
            &dir,
            &OpenOptions {
                shard_subset: Some(subset),
                peers: peers.iter().map(|s| PeerSpec::parse(s).unwrap()).collect(),
                ..OpenOptions::default()
            },
        )
    };
    // a subset with no peers for the rest: gap, naming the first
    // uncovered shard
    let err = open(0..2, &[]).unwrap_err();
    assert!(err.to_string().contains("incomplete"), "{err}");
    assert!(err.to_string().contains("shard 2"), "{err}");
    // overlap between the claim and a peer is replication, not an error
    assert!(open(0..2, &["1..4=x:1"]).is_ok());
    // a claim beyond the run's shards
    let err = open(2..6, &["0..2=x:1"]).unwrap_err();
    assert!(
        err.to_string().contains("lies outside the run's 4 shards"),
        "{err}"
    );
    // complete map: opens fine (peers are contacted lazily)
    assert!(open(0..2, &["2..4=x:1"]).is_ok());
    // two replicas of the non-resident range: also fine
    assert!(open(0..2, &["2..4=x:1", "2..4=y:1"]).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn remote_fetch_failure_fails_the_query_without_poisoning_cross_check() {
    // A dead peer during a cross-checked query is a network fault, not a
    // corruption verdict: the query errs (502 on the wire), but the
    // node's mismatch counter — and with it the shutdown certification —
    // must stay clean. Counting it would send a supervisor re-verifying
    // artifacts over a network blip.
    let dir = tmpdir("remote_failure");
    let c = cluster_product(11);
    let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
    cfg.shards = 3;
    stream_product(&c, &cfg).unwrap();
    let node0 = ServeEngine::open_with(
        &dir,
        &OpenOptions {
            shard_subset: Some(0..1),
            // nothing listens on port 1: every remote fetch fails fast
            peers: vec![PeerSpec::parse("1..3=127.0.0.1:1").unwrap()],
            source: kron_serve::AnswerSource::CrossCheck,
            peer_timeout: Duration::from_millis(200),
            ..OpenOptions::default()
        },
    )
    .unwrap();
    let span = node0.shard_set().subset_vertices();

    // a non-resident primary row: Remote error, no mismatch — for every
    // query kind that reads it
    let remote = span.end;
    let other = (remote + 1) % c.num_vertices();
    let errors = [
        node0.neighbors(remote).map(|_| ()),
        node0.degree(remote).map(|_| ()),
        node0.has_edge(remote, other).map(|_| ()),
        node0.edge_triangles(remote, other).map(|_| ()),
    ];
    for err in errors {
        let err = err.unwrap_err();
        assert!(matches!(err, kron_serve::ServeError::Remote(_)), "{err}");
    }
    // certifying a path whose edge needs the dead peer's row: no verdict
    let hop = *c
        .neighbors(remote)
        .iter()
        .find(|&&u| u != remote)
        .expect("the non-resident vertex has a neighbor");
    let bad = node0.certify_path(remote, hop, &[remote, hop]);
    assert_eq!(bad, 0, "an unreadable edge is no verdict, not a bad edge");
    // a resident tri_vertex whose neighborhood crosses the dead peer
    let victim = span
        .clone()
        .find(|&v| c.neighbors(v).iter().any(|&u| !span.contains(&u)))
        .expect("some local vertex has a remote neighbor");
    let err = node0.vertex_triangles(victim).unwrap_err();
    assert!(matches!(err, kron_serve::ServeError::Remote(_)), "{err}");

    assert_eq!(
        node0.mismatch_count(),
        0,
        "remote-fetch failures must not count as corruption mismatches"
    );
    // …and genuinely local queries still cross-check (and pass)
    assert_eq!(node0.degree(span.start).unwrap(), c.degree(span.start));
    assert!(node0.sampled_checks() > 0);
    assert_eq!(node0.mismatch_count(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Start one node per claim in `claims` — each listing every other node
/// as its peer — over `dir`, hand the engines to `body`, then stop the
/// nodes and return their reports.
fn with_split(
    dir: &std::path::Path,
    claims: &[std::ops::Range<usize>],
    body: impl FnOnce(&[ServeEngine]),
) -> Vec<kron_serve::ServerReport> {
    let servers: Vec<Server> = claims
        .iter()
        .map(|_| Server::bind("127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<String> = servers
        .iter()
        .map(|s| s.local_addr().unwrap().to_string())
        .collect();
    let engines: Vec<ServeEngine> = claims
        .iter()
        .enumerate()
        .map(|(i, claim)| {
            let peers = (0..claims.len())
                .filter(|&j| j != i)
                .map(|j| PeerSpec {
                    shards: claims[j].clone(),
                    addr: addrs[j].clone(),
                })
                .collect();
            ServeEngine::open_with(
                dir,
                &OpenOptions {
                    shard_subset: Some(claim.clone()),
                    peers,
                    row_cache_bytes: 64 << 10,
                    ..OpenOptions::default()
                },
            )
            .unwrap()
        })
        .collect();
    let stop = AtomicBool::new(false);
    let opts = ServerOptions::default();
    std::thread::scope(|s| {
        let runs: Vec<_> = servers
            .iter()
            .zip(&engines)
            .map(|(server, engine)| s.spawn(|| server.run(engine, &opts, &stop).unwrap()))
            .collect();
        let guard = StopOnDrop(&stop);
        body(&engines);
        drop(guard);
        runs.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Triangle queries answered across 1-, 2- and 3-node splits — the last
/// with shards 1 and 2 on two replicas each — return the single node's
/// `(answer, checks)` for every vertex and a sample of edges, asked of
/// every node holding the first vertex's row. The far rows never travel:
/// the intersections happen where they live (`wedges_served`), and not
/// one row crosses the wire.
#[test]
fn triangle_answers_and_checks_are_the_single_nodes_on_every_split() {
    let dir = tmpdir("wedge_splits");
    let c = cluster_product(19);
    let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr2);
    cfg.shards = 4;
    stream_product(&c, &cfg).unwrap();
    let single = ServeEngine::open_verified(&dir).unwrap();
    let n = c.num_vertices();
    let edges: Vec<(u64, u64)> = (0..n)
        .flat_map(|v| {
            let row = c.neighbors(v);
            // first and last neighbour (loops included), and a non-edge
            let ends = [row.first(), row.last()].map(|u| u.map(|&u| (v, u)));
            ends.into_iter().flatten().chain([(v, (v * 7 + 3) % n)])
        })
        .collect();
    // shard claims [lo, hi) per node
    let splits: [&[(usize, usize)]; 3] = [&[(0, 4)], &[(0, 2), (2, 4)], &[(0, 2), (1, 3), (2, 4)]];
    for split in splits {
        let claims: Vec<_> = split.iter().map(|&(lo, hi)| lo..hi).collect();
        let reports = with_split(&dir, &claims, |engines| {
            let holders = |v: u64| {
                engines
                    .iter()
                    .filter(move |e| e.shard_set().subset_vertices().contains(&v))
            };
            for v in 0..n {
                let want = single.vertex_triangles_with_checks(v).unwrap();
                for node in holders(v) {
                    assert_eq!(node.vertex_triangles_with_checks(v).unwrap(), want, "{v}");
                }
            }
            for &(u, v) in &edges {
                let want = single.edge_triangles_with_checks(u, v).unwrap();
                for node in holders(u) {
                    let got = node.edge_triangles_with_checks(u, v).unwrap();
                    assert_eq!(got, want, "tri_edge {u} {v}");
                }
            }
        });
        let rows: u64 = reports.iter().map(|r| r.rows_served).sum();
        let wedges: u64 = reports.iter().map(|r| r.wedges_served).sum();
        assert_eq!(rows, 0, "{claims:?}: a triangle query moved a row");
        assert_eq!(
            wedges > 0,
            claims.len() > 1,
            "{claims:?}: {wedges} wedge exchanges"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
