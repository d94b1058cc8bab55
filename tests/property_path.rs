//! Differential properties of traversal serving (`/path`, `/khop`).
//!
//! On a randomized sharded product the suite proves the four promises
//! of the traversal tier:
//!
//! 1. **valid** — every returned path is a real walk: each consecutive
//!    pair passes `has_edge` against the engine;
//! 2. **minimal** — the hop count equals a reference single-source BFS
//!    distance, and the per-distance census matches the `kron_analyze`
//!    BFS level structure exactly;
//! 3. **location-transparent** — a 2-node cluster, and a 3-node one with
//!    a shard on two replicas (with real cross-node `/rows` traffic,
//!    several rows per exchange, asserted), answer `/path` and `/khop`
//!    byte-identically to one server over the whole run directory,
//!    directly and through the router;
//! 4. **rule-bound** — every path is the one the tie rules of
//!    ARCHITECTURE.md § "Traversal serving" pick, rebuilt from two full
//!    BFS distance arrays without the search (the cluster leg cannot
//!    see a change that moves every node's answers alike).
//!
//! Plus the fuzz leg for the new query-string grammar (garbage never
//! panics; overflow vs malformed are distinguished, mirroring
//! `Query::parse`), and the certification leg: a tampered shard
//! surfaces as a cross-check mismatch through the path certifier.

use kron::KronProduct;
use kron_serve::http::Client;
use kron_serve::{
    AnswerSource, OpenOptions, PathFinder, PeerSpec, Router, RoutingReport, ServeEngine, Server,
    ServerOptions, ServerReport,
};
use kron_stream::{load_manifest, stream_product, OutputFormat, ShardSet, StreamConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("kron_path_prop_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Seeded ER factors (one with all loops): degrees, isolated vertices,
/// unreachable pairs, and dense neighborhoods all show up, while every
/// run stays deterministic.
fn traversal_product(seed: u64) -> KronProduct {
    let a = kron_gen::erdos_renyi(7, 0.45, seed);
    let b = kron_gen::erdos_renyi(5, 0.5, seed + 1).with_all_self_loops();
    KronProduct::new(a, b)
}

/// Reference single-source BFS distances straight off the in-memory
/// product — the independent implementation the engine must match.
fn reference_distances(c: &KronProduct, from: u64) -> Vec<Option<u64>> {
    let n = c.num_vertices() as usize;
    let mut dist = vec![None; n];
    dist[from as usize] = Some(0u64);
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

#[test]
fn paths_are_valid_minimal_walks_matching_the_analyze_bfs() {
    let dir = tmpdir("minimal");
    let c = traversal_product(42);
    let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
    cfg.shards = 3;
    stream_product(&c, &cfg).unwrap();
    let n = c.num_vertices();

    let engine = ServeEngine::open_verified(&dir).unwrap();
    let finder = PathFinder::new(&engine);

    for from in 0..n {
        let dist = reference_distances(&c, from);
        // Per-distance census, compared against the analyze BFS below.
        let mut census: Vec<u64> = Vec::new();
        for to in 0..n {
            let a = finder.shortest_path(from, to, None).unwrap();
            match dist[to as usize] {
                Some(d) => {
                    let p = a.path.unwrap_or_else(|| panic!("{from}->{to} reachable"));
                    assert_eq!(p.len() as u64 - 1, d, "minimality {from}->{to}");
                    assert_eq!(p.first(), Some(&from));
                    assert_eq!(p.last(), Some(&to));
                    for w in p.windows(2) {
                        assert!(
                            engine.has_edge(w[0], w[1]).unwrap(),
                            "walk validity {from}->{to}: {:?}",
                            w
                        );
                    }
                    if census.len() as u64 <= d {
                        census.resize(d as usize + 1, 0);
                    }
                    census[d as usize] += 1;
                }
                None => assert!(a.path.is_none(), "phantom path {from}->{to}"),
            }
            // A max_depth one short of the distance must go unreachable;
            // exactly at the distance it must come back identical.
            if let Some(d) = dist[to as usize] {
                if d > 0 {
                    assert!(finder
                        .shortest_path(from, to, Some(d - 1))
                        .unwrap()
                        .path
                        .is_none());
                }
                let bounded = finder.shortest_path(from, to, Some(d)).unwrap();
                assert_eq!(bounded.hops(), Some(d));
            }
        }

        // The independent whole-graph BFS kernel sees the same level
        // structure: levels[d] == how many /path answers took d hops.
        let set = ShardSet::open(&dir).unwrap();
        let mut spec = kron_analyze::KernelSpec::new(kron_analyze::Kernel::Bfs);
        spec.source = from;
        let doc = kron_analyze::run_kernel(&set, &spec, &AtomicBool::new(false)).unwrap();
        let levels: Vec<u64> = doc
            .req("levels")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|l| l.as_u64().unwrap())
            .collect();
        assert_eq!(census, levels, "analyze BFS levels diverge from /path hops");

        // …and the khop endpoint reports that exact level structure.
        let khop = finder.khop(from, n).unwrap();
        assert_eq!(khop.levels, levels, "khop levels diverge from analyze BFS");
        let members = khop.vertices.expect("far under the size cap");
        for (d, level) in members.iter().enumerate() {
            for &v in level {
                assert_eq!(dist[v as usize], Some(d as u64), "khop level membership");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The path the documented tie rules pick, built from two full BFS
/// distance arrays without running the search: the sides expand in the
/// order the level sizes give (`from`'s while its level is no larger),
/// they meet at the smallest vertex at the final depths `(a, b)`, and
/// each half steps to the smallest neighbour one level nearer its end.
fn tie_rule_path(c: &KronProduct, from: u64, to: u64, max_depth: Option<u64>) -> Option<Vec<u64>> {
    if from == to {
        return Some(vec![from]);
    }
    let dist_a = reference_distances(c, from);
    let dist_b = reference_distances(c, to);
    let d = dist_a[to as usize].filter(|&d| max_depth.is_none_or(|k| d <= k))?;
    let level = |dist: &[Option<u64>], l: u64| dist.iter().filter(|&&x| x == Some(l)).count();
    let (mut a, mut b) = (0, 0);
    while a + b < d {
        if level(&dist_a, a) <= level(&dist_b, b) {
            a += 1;
        } else {
            b += 1;
        }
    }
    let at = |dist: &[Option<u64>], v: u64, l: u64| dist[v as usize] == Some(l);
    let meet = (0..c.num_vertices())
        .find(|&u| at(&dist_a, u, a) && at(&dist_b, u, b))
        .expect("a vertex at the final depths");
    let half = |dist: &[Option<u64>], end: u64| {
        let mut walk = vec![meet];
        let mut v = meet;
        while v != end {
            let l = dist[v as usize].unwrap() - 1;
            v = c
                .neighbors(v)
                .into_iter()
                .find(|&u| at(dist, u, l))
                .unwrap();
            walk.push(v);
        }
        walk
    };
    let mut path = half(&dist_a, from);
    path.reverse();
    path.extend(&half(&dist_b, to)[1..]);
    Some(path)
}

#[test]
fn paths_follow_the_documented_tie_rules() {
    let products = [
        // paths of three hops and more: the answer is often not the
        // lexicographically smallest shortest path
        KronProduct::new(
            kron_gen::holme_kim(12, 2, 0.5, 7),
            kron_gen::holme_kim(9, 2, 0.5, 8),
        ),
        // isolated vertices and self-loops: unreachable pairs
        traversal_product(42),
        KronProduct::new(
            kron_gen::erdos_renyi(8, 0.35, 3),
            kron_gen::holme_kim(6, 2, 0.8, 4),
        ),
    ];
    let (mut unreachable, mut bounded) = (0, 0);
    for (i, c) in products.iter().enumerate() {
        let dir = tmpdir(&format!("ties{i}"));
        let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
        cfg.shards = 3;
        stream_product(c, &cfg).unwrap();
        let engine = ServeEngine::open_verified(&dir).unwrap();
        let finder = PathFinder::new(&engine);
        let n = c.num_vertices();
        for from in 0..n {
            for to in 0..n {
                let want = tie_rule_path(c, from, to, None);
                let got = finder.shortest_path(from, to, None).unwrap().path;
                assert_eq!(got, want, "product {i}: {from}->{to}");
                unreachable += usize::from(want.is_none());
                // a bound at the distance keeps the path, one below drops it
                if (from + 3 * to) % 7 == 0 {
                    if let Some(hops) = want.as_ref().map(|p| p.len() as u64 - 1) {
                        for k in [hops.saturating_sub(1), hops, hops + 1] {
                            let want = tie_rule_path(c, from, to, Some(k));
                            let got = finder.shortest_path(from, to, Some(k)).unwrap().path;
                            assert_eq!(got, want, "product {i}: {from}->{to} max_depth={k}");
                            bounded += usize::from(want.is_none());
                        }
                    }
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(unreachable > 0, "no product had an unreachable pair");
    assert!(bounded > 0, "no max_depth case cut a path");
    // 5 -> 0 answers [5, 27, 10, 0], not the lexicographically smaller
    // shortest path [5, 9, 28, 0]: the meeting vertex 10 is fixed first
    let c = &products[0];
    assert_eq!(tie_rule_path(c, 5, 0, None), Some(vec![5, 27, 10, 0]));
    assert!(c.has_edge(5, 9) && c.has_edge(9, 28) && c.has_edge(28, 0));
}

#[test]
fn cluster_paths_are_byte_identical_to_single_node() {
    let dir = tmpdir("cluster");
    let c = traversal_product(23);
    let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
    cfg.shards = 4;
    stream_product(&c, &cfg).unwrap();
    let n = c.num_vertices();

    let mut requests: Vec<String> = Vec::new();
    for from in (0..n).step_by(3) {
        for to in 0..n {
            requests.push(format!("/path?from={from}&to={to}"));
        }
        requests.push(format!(
            "/path?from={from}&to={}&max_depth=1",
            (from + 9) % n
        ));
    }
    for v in 0..n {
        for k in 0..=3u64 {
            requests.push(format!("/khop?v={v}&k={k}"));
        }
    }
    // error shapes come back identical too: out-of-range (422),
    // missing/malformed/overflow parameters (400)
    requests.push(format!("/path?from={n}&to=0"));
    requests.push(format!("/path?from=0&to={n}"));
    requests.push(format!("/khop?v={n}&k=1"));
    requests.push("/path?from=0".to_string());
    requests.push("/path?to=0".to_string());
    requests.push("/path?from=zero&to=1".to_string());
    requests.push("/path?from=0&to=1&max_depth=soon".to_string());
    requests.push("/path?from=99999999999999999999&to=0".to_string());
    requests.push("/khop?v=1".to_string());
    requests.push("/khop?v=1&k=minus".to_string());

    let single = ServeEngine::open_verified(&dir).unwrap();
    let single_srv = Server::bind("127.0.0.1:0").unwrap();
    let addr_single = single_srv.local_addr().unwrap();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let h_single = s.spawn(|| single_srv.run(&single, &ServerOptions::default(), &stop));
        let mut one = Client::connect(addr_single).unwrap();
        let answers: Vec<(u16, String)> = requests.iter().map(|p| one.get(p).unwrap()).collect();
        let reachable = answers
            .iter()
            .filter(|(status, body)| *status == 200 && body.contains("\"path\""))
            .count();
        assert!(reachable > 0, "the grid never found a path");

        // two nodes; then three, the middle one a second replica of shard 1
        let splits: [&[std::ops::Range<usize>]; 2] = [&[0..2, 2..4], &[0..2, 1..3, 3..4]];
        for claims in splits {
            let nodes = with_routed_split(&dir, claims, |router, nodes| {
                let mut clients: Vec<Client> = [router]
                    .iter()
                    .chain(nodes)
                    .map(|&addr| Client::connect(addr).unwrap())
                    .collect();
                for (path, want) in requests.iter().zip(&answers) {
                    for (i, client) in clients.iter_mut().enumerate() {
                        let got = client.get(path).unwrap();
                        assert_eq!(&got, want, "{claims:?}: client {i} diverged on {path}");
                    }
                }
            });
            // Traversals from one node's range into another's must have
            // moved real rows over the wire, a level's far rows per
            // exchange — and none through the LRU.
            let rows: u64 = nodes.iter().map(|(report, _)| report.rows_served).sum();
            let exchanges: u64 = nodes.iter().map(|(_, r)| r.remote_fetches).sum();
            assert!(exchanges > 0, "{claims:?}: the traversals never clustered");
            assert!(
                rows > exchanges,
                "{claims:?}: {rows} rows in {exchanges} exchanges — one row a round trip"
            );
            for (_, routing) in &nodes {
                assert_eq!(routing.cache_hits + routing.cache_misses, 0, "{routing}");
            }
        }

        stop.store(true, Ordering::SeqCst);
        drop(one);
        h_single.join().unwrap().unwrap();
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// Start one node per claim in `claims` — each listing every other node
/// as its peer, each with a row cache — and a router in front, hand
/// `body` the router's and the nodes' addresses, then stop them all and
/// return each node's report and routing counters.
fn with_routed_split(
    dir: &std::path::Path,
    claims: &[std::ops::Range<usize>],
    body: impl FnOnce(std::net::SocketAddr, &[std::net::SocketAddr]),
) -> Vec<(ServerReport, RoutingReport)> {
    // Bind every listener first so startup order cannot race.
    let servers: Vec<Server> = claims
        .iter()
        .map(|_| Server::bind("127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<std::net::SocketAddr> =
        servers.iter().map(|s| s.local_addr().unwrap()).collect();
    let front = Server::bind("127.0.0.1:0").unwrap();
    let engines: Vec<ServeEngine> = claims
        .iter()
        .enumerate()
        .map(|(i, claim)| {
            let peers = (0..claims.len())
                .filter(|&j| j != i)
                .map(|j| PeerSpec {
                    shards: claims[j].clone(),
                    addr: addrs[j].to_string(),
                })
                .collect();
            ServeEngine::open_with(
                dir,
                &OpenOptions {
                    shard_subset: Some(claim.clone()),
                    peers,
                    // configured, and bypassed: a BFS level reads each
                    // row once, so traversals never touch the LRU
                    row_cache_bytes: 64 << 10,
                    ..OpenOptions::default()
                },
            )
            .unwrap()
        })
        .collect();
    let stop = AtomicBool::new(false);
    let opts = ServerOptions::default();
    let reports: Vec<ServerReport> = std::thread::scope(|s| {
        let runs: Vec<_> = servers
            .iter()
            .zip(&engines)
            .map(|(server, engine)| s.spawn(|| server.run(engine, &opts, &stop).unwrap()))
            .collect();
        let peers: Vec<String> = addrs.iter().map(|a| a.to_string()).collect();
        let router = Router::discover(&peers, Duration::from_secs(5)).unwrap();
        let (stop_ref, opts_ref, front_ref) = (&stop, &opts, &front);
        let h_router = s.spawn(move || router.run(front_ref, opts_ref, stop_ref).unwrap());
        // stop everything whatever `body` does, or a failed assertion
        // would leave the scope waiting on the servers forever
        struct Stop<'a>(&'a AtomicBool);
        impl Drop for Stop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let guard = Stop(&stop);
        body(front.local_addr().unwrap(), &addrs);
        drop(guard);
        h_router.join().unwrap();
        runs.into_iter().map(|h| h.join().unwrap()).collect()
    });
    reports
        .into_iter()
        .zip(engines.iter().map(ServeEngine::routing))
        .collect()
}

#[test]
fn traversal_query_strings_never_panic_and_distinguish_overflow() {
    let dir = tmpdir("fuzz");
    let c = traversal_product(5);
    let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
    cfg.shards = 2;
    stream_product(&c, &cfg).unwrap();

    let engine = ServeEngine::open_verified(&dir).unwrap();
    let server = Server::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let stop = AtomicBool::new(false);
    let opts = ServerOptions::default();
    std::thread::scope(|s| {
        let run = s.spawn(|| server.run(&engine, &opts, &stop).unwrap());
        let mut client = Client::connect(addr).unwrap();

        // Deterministic garbage: an LCG over a byte alphabet, spliced
        // into every parameter slot of both endpoints.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut rand_token = || {
            let alphabet = b"0123456789abcXYZ_%-+.~!*'();:@&=$,/?#[] ";
            let len = {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) % 12
            };
            let mut t = String::new();
            for _ in 0..len {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let b = alphabet[(state >> 33) as usize % alphabet.len()];
                // keep the request line parseable: %-encode the few
                // bytes the request line grammar reserves
                match b {
                    b' ' => t.push_str("%20"),
                    b'#' => t.push_str("%23"),
                    b'?' => t.push_str("%3F"),
                    other => t.push(other as char),
                }
            }
            t
        };
        for i in 0..400 {
            let (a, b, c_) = (rand_token(), rand_token(), rand_token());
            let path = match i % 4 {
                0 => format!("/path?from={a}&to={b}&max_depth={c_}"),
                1 => format!("/path?from={a}&to={b}"),
                2 => format!("/khop?v={a}&k={b}"),
                _ => format!("/path?{a}={b}&from=0&to={c_}"),
            };
            match client.get(&path) {
                Ok((status, body)) => assert!(
                    matches!(status, 200 | 400 | 422),
                    "{path} answered {status}: {body}"
                ),
                // a stray `%` makes an invalid escape: the framing layer
                // 400s and closes the connection — reconnect and go on
                Err(_) => client = Client::connect(addr).unwrap(),
            }
        }
        // …and the server is still alive and sane after the barrage.
        client = Client::connect(addr).unwrap();
        assert_eq!(client.get("/healthz").unwrap(), (200, "ok\n".to_string()));

        // The pinned grammar: overflow and malformed are different
        // errors, each echoing the offending token, per parameter.
        let cases = [
            (
                "/path?from=18446744073709551616&to=0",
                "path: <from> \"18446744073709551616\" overflows the vertex id range (max 18446744073709551615)",
            ),
            (
                "/path?from=0&to=abc",
                "path: <to> must be a vertex id (got \"abc\")",
            ),
            (
                "/path?from=0&to=1&max_depth=-3",
                "path: <max_depth> must be a hop count (got \"-3\")",
            ),
            (
                "/path?from=0&to=1&max_depth=99999999999999999999",
                "path: <max_depth> \"99999999999999999999\" overflows the hop count range (max 18446744073709551615)",
            ),
            ("/path?to=1", "path: missing <from>"),
            ("/path?from=1", "path: missing <to>"),
            (
                "/khop?v=18446744073709551616&k=1",
                "khop: <v> \"18446744073709551616\" overflows the vertex id range (max 18446744073709551615)",
            ),
            ("/khop?v=0&k=2x", "khop: <k> must be a hop count (got \"2x\")"),
            ("/khop?k=1", "khop: missing <v>"),
        ];
        for (path, want) in cases {
            let (status, body) = client.get(path).unwrap();
            assert_eq!(status, 400, "{path}");
            assert_eq!(body, format!("error: {want}\n"), "{path}");
        }

        stop.store(true, Ordering::SeqCst);
        drop(client);
        run.join().unwrap()
    });
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tampered_shard_fails_path_certification() {
    let dir = tmpdir("tamper");
    let c = traversal_product(7);
    let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
    cfg.shards = 3;
    stream_product(&c, &cfg).unwrap();
    let n = c.num_vertices();

    // Pick a victim row in shard 1 whose first neighbor, with one column
    // bit flipped, becomes an in-range NON-neighbor: the traversal will
    // happily walk the phantom edge, and certification must catch it.
    let m1 = load_manifest(&dir, 1).unwrap();
    let (mut victim, mut bogus, mut col_off) = (None, 0u64, 0usize);
    let mut cols_before = 0usize;
    for v in m1.vertices.clone() {
        let row = c.neighbors(v);
        if let Some(&u0) = row.first() {
            let flipped = u0 ^ 0x04;
            if flipped < n && flipped != v && !row.contains(&flipped) {
                victim = Some(v);
                bogus = flipped;
                col_off = cols_before;
                break;
            }
        }
        cols_before += row.len();
    }
    let victim = victim.expect("some row admits a phantom neighbor");
    let rows = (m1.vertices.end - m1.vertices.start) as usize;
    let path = dir.join(m1.file.as_deref().unwrap());
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[32 + 8 * (rows + 1) + 8 * col_off] ^= 0x04;
    std::fs::write(&path, &bytes).unwrap();

    // Production posture: structural open (no rehash), cross-check on.
    let engine = ServeEngine::open_with(
        &dir,
        &OpenOptions {
            verify_checksums: false,
            source: AnswerSource::CrossCheck,
            ..OpenOptions::default()
        },
    )
    .unwrap();
    let answer = PathFinder::new(&engine)
        .shortest_path(victim, bogus, None)
        .unwrap();
    // The walk leans on the artifact, so it may well use the phantom
    // edge; whatever it returned, the certifier has already re-verified
    // it — and the phantom edge means the artifact and the closed-form
    // oracle cannot agree on this neighborhood forever.
    assert!(answer.path.is_some(), "bogus is a phantom *neighbor*");
    if answer.path.as_deref() == Some(&[victim, bogus]) {
        assert!(
            engine.mismatch_count() >= 1,
            "phantom edge certified clean: {:?}",
            engine.mismatches()
        );
        let log = engine.mismatches();
        assert!(
            log.iter()
                .any(|m| m.query.contains(&format!("path {victim} {bogus}"))),
            "mismatch log must name the path: {log:?}"
        );
    } else {
        // A real two-hop detour answered first — force the phantom edge
        // through the certifier directly.
        let bad = kron_serve::PathCertifier::new(&engine).certify(victim, bogus, &[victim, bogus]);
        assert!(bad >= 1);
        assert!(engine.mismatch_count() >= 1);
    }
    std::fs::remove_dir_all(&dir).ok();
}
