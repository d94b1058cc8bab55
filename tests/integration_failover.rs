//! Replicated serving under injected faults, over real loopback TCP.
//!
//! The tentpole property: with every shard claimed by **two** replicas, a
//! replica dying mid-`/batch` is invisible to clients — the router and
//! the nodes fail over to the surviving replica and the whole grid of
//! answers stays byte-identical to a single server over the run
//! directory, with zero client-visible errors. The fault-injection TCP
//! proxy (`crates/serve/tests/fault`) makes the kill deterministic; the
//! same scenarios run against real SIGKILL in `scripts/cluster_smoke.sh`.

#[path = "../crates/serve/tests/fault/mod.rs"]
mod fault;

use fault::{Fault, FaultProxy};
use kron::KronProduct;
use kron_serve::http::{encode_query_component, write_response, Client, RequestBuffer};
use kron_serve::{OpenOptions, PeerSpec, Router, ServeEngine, Server, ServerOptions};
use kron_stream::json::Json;
use kron_stream::{stream_product, OutputFormat, StreamConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("kron_failover_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Same randomized-but-deterministic product family as the cluster
/// suite: seeded ER factors, one with all self loops, so every statistic
/// shows up.
fn cluster_product(seed: u64) -> KronProduct {
    let a = kron_gen::erdos_renyi(7, 0.45, seed);
    let b = kron_gen::erdos_renyi(5, 0.5, seed + 1).with_all_self_loops();
    KronProduct::new(a, b)
}

/// The whole query grid the byte-identity tests replay: every query kind
/// at every vertex, plus out-of-range probes.
fn whole_grid(n: u64) -> Vec<String> {
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
    queries
}

/// A 3-node cluster where every shard has two replicas — nodes A and B
/// split the run, node C (behind the fault proxy) claims all of it —
/// keeps answering a whole-grid `/batch` byte-identically while C is
/// killed mid-flight, with zero client-visible errors and `failovers`
/// surfacing in the router's `/stats`.
#[test]
fn killed_replica_mid_batch_is_invisible_to_clients() {
    let dir = tmpdir("kill_mid_batch");
    let c = cluster_product(21);
    let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
    cfg.shards = 4;
    stream_product(&c, &cfg).unwrap();
    let n = c.num_vertices();

    // Bind every listener first so peer tables can hold real addresses
    // without startup races (kernel backlog queues early connects).
    let single_srv = Server::bind("127.0.0.1:0").unwrap();
    let a_srv = Server::bind("127.0.0.1:0").unwrap();
    let b_srv = Server::bind("127.0.0.1:0").unwrap();
    let c_srv = Server::bind("127.0.0.1:0").unwrap();
    let front = Server::bind("127.0.0.1:0").unwrap();
    let (addr_single, addr_a, addr_b, addr_c, addr_front) = (
        single_srv.local_addr().unwrap(),
        a_srv.local_addr().unwrap(),
        b_srv.local_addr().unwrap(),
        c_srv.local_addr().unwrap(),
        front.local_addr().unwrap(),
    );
    // Node C is only ever reached through the proxy, so flipping the
    // proxy to `Drop` is C dying (SIGKILL: connections sever abruptly).
    let proxy = FaultProxy::spawn(&addr_c.to_string());

    let single = ServeEngine::open_verified(&dir).unwrap();
    // A and B split the run; each lists TWO replicas for its non-resident
    // half (the other splitter, and C through the proxy) — every shard
    // has two live replicas until C dies.
    let node = |subset: std::ops::Range<usize>, far: std::ops::Range<usize>, other: &str| {
        ServeEngine::open_with(
            &dir,
            &OpenOptions {
                shard_subset: Some(subset),
                peers: vec![
                    PeerSpec {
                        shards: far.clone(),
                        addr: other.to_string(),
                    },
                    PeerSpec {
                        shards: far,
                        addr: proxy.addr().to_string(),
                    },
                ],
                source: kron_serve::AnswerSource::CrossCheck,
                ..OpenOptions::default()
            },
        )
        .unwrap()
    };
    let node_a = node(0..2, 2..4, &addr_b.to_string());
    let node_b = node(2..4, 0..2, &addr_a.to_string());
    let node_c = ServeEngine::open_verified(&dir).unwrap();

    let queries = whole_grid(n);
    let body: String = queries.iter().map(|q| format!("{q}\n")).collect();
    let stop = AtomicBool::new(false);
    let opts = ServerOptions::default();
    let (a_rep, b_rep, router_rep) = std::thread::scope(|s| {
        let h_single = s.spawn(|| single_srv.run(&single, &opts, &stop).unwrap());
        let h_a = s.spawn(|| a_srv.run(&node_a, &opts, &stop).unwrap());
        let h_b = s.spawn(|| b_srv.run(&node_b, &opts, &stop).unwrap());
        let h_c = s.spawn(|| c_srv.run(&node_c, &opts, &stop).unwrap());
        let router = Router::discover(
            &[
                addr_a.to_string(),
                addr_b.to_string(),
                proxy.addr().to_string(),
            ],
            Duration::from_secs(5),
        )
        .unwrap();
        let (stop_ref, opts_ref, front_ref) = (&stop, &opts, &front);
        let h_router = s.spawn(move || router.run(front_ref, opts_ref, stop_ref).unwrap());

        let mut one = Client::connect(addr_single).unwrap();
        let mut routed = Client::connect(addr_front).unwrap();

        // Healthy cluster: whole grid byte-identical to the single node.
        let want = one.post("/batch", body.as_bytes()).unwrap();
        assert_eq!(want.0, 200);
        let got = routed.post("/batch", body.as_bytes()).unwrap();
        assert_eq!(got, want, "healthy replicated batch diverged");

        // Kill replica C while a /batch is in flight: the client must
        // still get the full, byte-identical answer — no error, no gap.
        let batcher = s.spawn(|| {
            let mut mid = Client::connect(addr_front).unwrap();
            mid.post("/batch", body.as_bytes()).unwrap()
        });
        std::thread::sleep(Duration::from_millis(1));
        proxy.set_mode(Fault::Drop);
        let got = batcher.join().unwrap();
        assert_eq!(got, want, "mid-kill batch diverged or errored");

        // C stays dead: a full batch and a /query sweep keep working
        // (the sweep also racks up enough failed picks to eject C).
        let got = routed.post("/batch", body.as_bytes()).unwrap();
        assert_eq!(got, want, "post-kill batch diverged");
        for v in 0..n {
            let q = format!("degree {v}");
            let path = format!("/query?q={}", encode_query_component(&q));
            let want = one.get(&path).unwrap();
            let got = routed.get(&path).unwrap();
            assert_eq!(got, want, "post-kill query diverged on {q}");
        }

        // The router's /stats tells the story: failovers happened, the
        // dead replica is marked down, and the merge tolerates its death
        // (tolerant merge — a dead peer is a `"up": false` entry, not a
        // 502 on the monitoring endpoint).
        let (status, stats) = routed.get("/stats").unwrap();
        assert_eq!(status, 200, "router /stats must survive a dead peer");
        let doc = Json::parse(&stats).unwrap();
        assert!(
            doc.req("failovers").unwrap().as_u64().unwrap() > 0,
            "router must have failed over: {stats}"
        );
        let peers = doc.req("peers").unwrap().as_arr().unwrap();
        assert_eq!(peers.len(), 3);
        let dead = peers
            .iter()
            .find(|p| p.req("peer").unwrap().as_str() == Some(proxy.addr()))
            .expect("dead replica listed");
        assert_eq!(dead.req("up").unwrap().as_bool(), Some(false), "{stats}");
        assert!(matches!(dead.req("stats").unwrap(), Json::Null), "{stats}");
        assert!(
            dead.req("failovers").unwrap().as_u64().unwrap() > 0,
            "{stats}"
        );
        let totals = doc.req("totals").unwrap();
        assert_eq!(totals.req("mismatch_count").unwrap().as_u64(), Some(0));

        // Node-level health surfaces the same way: each splitter lists
        // its two replicas under `peers` with the full counter shape.
        let mut direct_b = Client::connect(addr_b).unwrap();
        let (_, nstats) = direct_b.get("/stats").unwrap();
        let ndoc = Json::parse(&nstats).unwrap();
        let npeers = ndoc.req("peers").unwrap().as_arr().unwrap();
        assert_eq!(npeers.len(), 2, "{nstats}");
        for p in npeers {
            for key in ["peer", "shards", "up", "fetches", "failovers", "ejections"] {
                assert!(p.req(key).is_ok(), "missing {key}: {nstats}");
            }
        }
        // …while a single-node engine's /stats has no `peers` key at all.
        let (_, sstats) = one.get("/stats").unwrap();
        assert!(
            Json::parse(&sstats).unwrap().req("peers").is_err(),
            "single-node /stats must not grow a peers key: {sstats}"
        );

        stop.store(true, Ordering::SeqCst);
        drop((one, routed, direct_b));
        h_single.join().unwrap();
        h_c.join().unwrap();
        (
            h_a.join().unwrap(),
            h_b.join().unwrap(),
            h_router.join().unwrap(),
        )
    });

    // Zero client-visible errors, and the shutdown certification of the
    // surviving nodes is clean: a dead replica is a failover, never a
    // cross-check verdict.
    assert_eq!(router_rep.forward_errors, 0, "{router_rep}");
    assert_eq!(router_rep.bad_requests, 0, "{router_rep}");
    assert!(router_rep.failovers > 0, "{router_rep}");
    assert_eq!(a_rep.mismatches + b_rep.mismatches, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// The traversal leg of the same story: a replica dying mid-`/path` on a
/// 3-node cluster is invisible to clients. Traversals are the most
/// replica-hungry requests we serve — one `/path` fans out into a
/// `/rows` exchange per level on the executing node — so both failover
/// layers fire: the router re-picks the front node, and the surviving
/// splitters re-pick their row replicas. Every path and k-hop answer must stay
/// byte-identical to a single server, with `failovers > 0` and zero
/// client-visible errors.
#[test]
fn killed_replica_mid_path_is_invisible_to_clients() {
    let dir = tmpdir("kill_mid_path");
    let c = cluster_product(33);
    let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
    cfg.shards = 4;
    stream_product(&c, &cfg).unwrap();
    let n = c.num_vertices();

    let single_srv = Server::bind("127.0.0.1:0").unwrap();
    let a_srv = Server::bind("127.0.0.1:0").unwrap();
    let b_srv = Server::bind("127.0.0.1:0").unwrap();
    let c_srv = Server::bind("127.0.0.1:0").unwrap();
    let front = Server::bind("127.0.0.1:0").unwrap();
    let (addr_single, addr_a, addr_b, addr_c, addr_front) = (
        single_srv.local_addr().unwrap(),
        a_srv.local_addr().unwrap(),
        b_srv.local_addr().unwrap(),
        c_srv.local_addr().unwrap(),
        front.local_addr().unwrap(),
    );
    let proxy = FaultProxy::spawn(&addr_c.to_string());

    let single = ServeEngine::open_verified(&dir).unwrap();
    let node = |subset: std::ops::Range<usize>, far: std::ops::Range<usize>, other: &str| {
        ServeEngine::open_with(
            &dir,
            &OpenOptions {
                shard_subset: Some(subset),
                peers: vec![
                    PeerSpec {
                        shards: far.clone(),
                        addr: other.to_string(),
                    },
                    PeerSpec {
                        shards: far,
                        addr: proxy.addr().to_string(),
                    },
                ],
                source: kron_serve::AnswerSource::CrossCheck,
                ..OpenOptions::default()
            },
        )
        .unwrap()
    };
    let node_a = node(0..2, 2..4, &addr_b.to_string());
    let node_b = node(2..4, 0..2, &addr_a.to_string());
    let node_c = ServeEngine::open_verified(&dir).unwrap();

    // The traversal grid: source vertices across both halves of the run,
    // each with a far target (long paths cross the shard split several
    // times) plus a k-hop probe.
    let mut reqs: Vec<String> = Vec::new();
    for from in (0..n).step_by(3) {
        reqs.push(format!("/path?from={from}&to={}", (from + n / 2) % n));
        reqs.push(format!("/khop?v={from}&k=2"));
    }

    let stop = AtomicBool::new(false);
    let opts = ServerOptions::default();
    let (a_rep, b_rep, router_rep) = std::thread::scope(|s| {
        let h_single = s.spawn(|| single_srv.run(&single, &opts, &stop).unwrap());
        let h_a = s.spawn(|| a_srv.run(&node_a, &opts, &stop).unwrap());
        let h_b = s.spawn(|| b_srv.run(&node_b, &opts, &stop).unwrap());
        let h_c = s.spawn(|| c_srv.run(&node_c, &opts, &stop).unwrap());
        let router = Router::discover(
            &[
                addr_a.to_string(),
                addr_b.to_string(),
                proxy.addr().to_string(),
            ],
            Duration::from_secs(5),
        )
        .unwrap();
        let (stop_ref, opts_ref, front_ref) = (&stop, &opts, &front);
        let h_router = s.spawn(move || router.run(front_ref, opts_ref, stop_ref).unwrap());

        let mut one = Client::connect(addr_single).unwrap();
        let mut routed = Client::connect(addr_front).unwrap();

        // Healthy cluster: the whole traversal grid is byte-identical.
        let wants: Vec<(u16, String)> = reqs.iter().map(|p| one.get(p).unwrap()).collect();
        for (p, want) in reqs.iter().zip(&wants) {
            assert_eq!(want.0, 200, "single-node {p} failed: {}", want.1);
            let got = routed.get(p).unwrap();
            assert_eq!(&got, want, "healthy traversal diverged on {p}");
        }

        // Kill replica C while the traversal grid is in flight: every
        // path must still come back whole and byte-identical.
        let (mid_reqs, mid_wants) = (reqs.clone(), wants.clone());
        let walker = s.spawn(move || {
            let mut mid = Client::connect(addr_front).unwrap();
            for (p, want) in mid_reqs.iter().zip(&mid_wants) {
                let got = mid.get(p).unwrap();
                assert_eq!(&got, want, "mid-kill traversal diverged on {p}");
            }
        });
        std::thread::sleep(Duration::from_millis(1));
        proxy.set_mode(Fault::Drop);
        walker.join().unwrap();

        // C stays dead: the grid keeps answering identically.
        for (p, want) in reqs.iter().zip(&wants) {
            let got = routed.get(p).unwrap();
            assert_eq!(&got, want, "post-kill traversal diverged on {p}");
        }

        // The kill is visible only where it should be: failovers in the
        // router's /stats, the dead replica marked down — never a client
        // error, never a cross-check verdict.
        let (status, stats) = routed.get("/stats").unwrap();
        assert_eq!(status, 200, "router /stats must survive a dead peer");
        let doc = Json::parse(&stats).unwrap();
        assert!(
            doc.req("failovers").unwrap().as_u64().unwrap() > 0,
            "router must have failed over: {stats}"
        );
        let dead = doc
            .req("peers")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .find(|p| p.req("peer").unwrap().as_str() == Some(proxy.addr()))
            .expect("dead replica listed")
            .clone();
        assert_eq!(dead.req("up").unwrap().as_bool(), Some(false), "{stats}");
        let totals = doc.req("totals").unwrap();
        assert_eq!(totals.req("mismatch_count").unwrap().as_u64(), Some(0));

        stop.store(true, Ordering::SeqCst);
        drop((one, routed));
        h_single.join().unwrap();
        h_c.join().unwrap();
        (
            h_a.join().unwrap(),
            h_b.join().unwrap(),
            h_router.join().unwrap(),
        )
    });

    assert_eq!(router_rep.forward_errors, 0, "{router_rep}");
    assert_eq!(router_rep.bad_requests, 0, "{router_rep}");
    assert!(router_rep.failovers > 0, "{router_rep}");
    assert_eq!(a_rep.mismatches + b_rep.mismatches, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A flappy replica (node-level): three consecutive fetch failures eject
/// it, queries then fail fast while its probe backoff pends, and one
/// successful `/healthz` probe after it comes back re-admits it — with
/// the ejection visible in the node's `/stats` `peers` entry, and the
/// cross-check ledger untouched by any of it.
#[test]
fn flappy_peer_is_ejected_then_readmitted_after_probe() {
    let dir = tmpdir("flappy");
    let c = cluster_product(5);
    let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
    cfg.shards = 3;
    stream_product(&c, &cfg).unwrap();

    let owner_srv = Server::bind("127.0.0.1:0").unwrap();
    let querier_srv = Server::bind("127.0.0.1:0").unwrap();
    let (addr_owner, addr_querier) = (
        owner_srv.local_addr().unwrap(),
        querier_srv.local_addr().unwrap(),
    );
    let proxy = FaultProxy::spawn(&addr_owner.to_string());

    // The querier's ONLY replica for shards 1..3 is the owner, reached
    // through the proxy — so proxy faults are that replica flapping.
    let querier = ServeEngine::open_with(
        &dir,
        &OpenOptions {
            shard_subset: Some(0..1),
            peers: vec![PeerSpec::parse(&format!("1..3={}", proxy.addr())).unwrap()],
            source: kron_serve::AnswerSource::CrossCheck,
            peer_timeout: Duration::from_millis(300),
            ..OpenOptions::default()
        },
    )
    .unwrap();
    let owner = ServeEngine::open_with(
        &dir,
        &OpenOptions {
            shard_subset: Some(1..3),
            peers: vec![PeerSpec::parse(&format!("0..1={addr_querier}")).unwrap()],
            ..OpenOptions::default()
        },
    )
    .unwrap();
    let remote_v = querier.shard_set().subset_vertices().end; // first non-resident vertex

    let stop = AtomicBool::new(false);
    let opts = ServerOptions::default();
    let rep = std::thread::scope(|s| {
        let h_owner = s.spawn(|| owner_srv.run(&owner, &opts, &stop).unwrap());
        let h_querier = s.spawn(|| querier_srv.run(&querier, &opts, &stop).unwrap());
        let mut client = Client::connect(addr_querier).unwrap();
        let mut direct = Client::connect(addr_owner).unwrap();
        let path = format!(
            "/query?q={}",
            encode_query_component(&format!("degree {remote_v}"))
        );

        // Healthy: the remotely-assembled answer matches the owner's own.
        let want = direct.get(&path).unwrap();
        assert_eq!(want.0, 200);
        assert_eq!(client.get(&path).unwrap(), want);

        // The replica flaps down: exactly EJECT_AFTER (3) consecutive
        // transport failures eject it…
        proxy.set_mode(Fault::Drop);
        std::thread::sleep(Duration::from_millis(60)); // pumps sever in-flight conns
        for i in 0..3 {
            let (status, body) = client.get(&path).unwrap();
            assert_eq!(status, 502, "failed fetch {i} must 502: {body}");
            assert!(
                body.contains(proxy.addr()),
                "the 502 must name the dead replica: {body}"
            );
        }
        // …after which queries fail fast on the down-marker instead of
        // re-dialing a corpse.
        let (status, body) = client.get(&path).unwrap();
        assert_eq!(status, 502);
        assert!(body.contains("down"), "ejected peer must be gated: {body}");

        let (_, stats) = client.get("/stats").unwrap();
        let doc = Json::parse(&stats).unwrap();
        let peers = doc.req("peers").unwrap().as_arr().unwrap();
        assert_eq!(peers.len(), 1);
        assert_eq!(peers[0].req("up").unwrap().as_bool(), Some(false));
        assert_eq!(peers[0].req("ejections").unwrap().as_u64(), Some(1));
        assert!(peers[0].req("failovers").unwrap().as_u64().unwrap() >= 3);
        // The regression rule, on the wire: transport failures are not
        // framing errors and record no corruption verdict.
        assert_eq!(doc.req("bad_requests").unwrap().as_u64(), Some(0));
        assert_eq!(doc.req("mismatch_count").unwrap().as_u64(), Some(0));

        // The replica comes back: the next fetch once the probe backoff
        // elapses runs /healthz through the proxy, succeeds, and
        // re-admits it — queries heal with no restart.
        proxy.set_mode(Fault::Forward);
        let deadline = Instant::now() + Duration::from_secs(10);
        let healed = loop {
            std::thread::sleep(Duration::from_millis(150));
            let got = client.get(&path).unwrap();
            if got.0 == 200 {
                break got;
            }
            assert!(
                Instant::now() < deadline,
                "flapped-back peer was never re-admitted: {got:?}"
            );
        };
        assert_eq!(healed, want, "post-readmission answer must be identical");
        let (_, stats) = client.get("/stats").unwrap();
        let doc = Json::parse(&stats).unwrap();
        let peers = doc.req("peers").unwrap().as_arr().unwrap();
        assert_eq!(peers[0].req("up").unwrap().as_bool(), Some(true), "{stats}");
        assert_eq!(doc.req("mismatch_count").unwrap().as_u64(), Some(0));

        stop.store(true, Ordering::SeqCst);
        drop((client, direct));
        h_owner.join().unwrap();
        h_querier.join().unwrap()
    });
    assert_eq!(rep.mismatches, 0, "{rep}");
    std::fs::remove_dir_all(&dir).ok();
}

/// With EVERY replica down, the router answers one 502 whose body names
/// the whole replica set — not a hang, not a retry storm, not a partial
/// answer — and its tolerant `/stats` merge still answers 200. When the
/// replicas return, probes re-admit them without a restart.
#[test]
fn all_replicas_down_yields_single_502_with_peer_list() {
    let dir = tmpdir("all_down");
    let c = cluster_product(9);
    let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
    cfg.shards = 2;
    stream_product(&c, &cfg).unwrap();

    let a_srv = Server::bind("127.0.0.1:0").unwrap();
    let b_srv = Server::bind("127.0.0.1:0").unwrap();
    let front = Server::bind("127.0.0.1:0").unwrap();
    let (addr_a, addr_b, addr_front) = (
        a_srv.local_addr().unwrap(),
        b_srv.local_addr().unwrap(),
        front.local_addr().unwrap(),
    );
    // Two full replicas of the whole run, each behind its own proxy.
    let proxy_a = FaultProxy::spawn(&addr_a.to_string());
    let proxy_b = FaultProxy::spawn(&addr_b.to_string());
    let node_a = ServeEngine::open_verified(&dir).unwrap();
    let node_b = ServeEngine::open_verified(&dir).unwrap();

    let stop = AtomicBool::new(false);
    let opts = ServerOptions::default();
    let router_rep = std::thread::scope(|s| {
        let h_a = s.spawn(|| a_srv.run(&node_a, &opts, &stop).unwrap());
        let h_b = s.spawn(|| b_srv.run(&node_b, &opts, &stop).unwrap());
        let router = Router::discover(
            &[proxy_a.addr().to_string(), proxy_b.addr().to_string()],
            Duration::from_secs(5),
        )
        .unwrap();
        let (stop_ref, opts_ref, front_ref) = (&stop, &opts, &front);
        let h_router = s.spawn(move || router.run(front_ref, opts_ref, stop_ref).unwrap());

        let mut client = Client::connect(addr_front).unwrap();
        let path = format!("/query?q={}", encode_query_component("degree 0"));
        assert_eq!(client.get(&path).unwrap().0, 200);

        // Both replicas die.
        proxy_a.set_mode(Fault::Drop);
        proxy_b.set_mode(Fault::Drop);
        std::thread::sleep(Duration::from_millis(60));
        let mut last = (0u16, String::new());
        for _ in 0..4 {
            last = client.get(&path).unwrap();
            assert_eq!(last.0, 502, "all replicas down must be a 502: {}", last.1);
        }
        // ONE 502, whose single-line body names every replica tried.
        assert_eq!(last.1.trim_end().lines().count(), 1, "{}", last.1);
        assert!(last.1.contains(proxy_a.addr()), "{}", last.1);
        assert!(last.1.contains(proxy_b.addr()), "{}", last.1);

        // Monitoring survives total replica death: tolerant merge.
        let (status, stats) = client.get("/stats").unwrap();
        assert_eq!(status, 200, "{stats}");
        let doc = Json::parse(&stats).unwrap();
        let peers = doc.req("peers").unwrap().as_arr().unwrap();
        assert_eq!(peers.len(), 2);
        for p in peers {
            assert_eq!(p.req("up").unwrap().as_bool(), Some(false), "{stats}");
            assert!(matches!(p.req("stats").unwrap(), Json::Null), "{stats}");
        }
        assert!(doc.req("failovers").unwrap().as_u64().unwrap() >= 2);

        // Both come back; probes re-admit them and queries heal.
        proxy_a.set_mode(Fault::Forward);
        proxy_b.set_mode(Fault::Forward);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            std::thread::sleep(Duration::from_millis(150));
            if client.get(&path).unwrap().0 == 200 {
                break;
            }
            assert!(Instant::now() < deadline, "replicas never re-admitted");
        }

        stop.store(true, Ordering::SeqCst);
        drop(client);
        h_a.join().unwrap();
        h_b.join().unwrap();
        h_router.join().unwrap()
    });
    assert!(router_rep.forward_errors >= 4, "{router_rep}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The regression fixed in this PR, positive path: a fetch that fails on
/// one replica and succeeds on the next must answer 200 with the right
/// bytes AND leave the cross-check ledger exactly as a clean fetch would
/// — a checked verdict for the final answer, zero mismatches, zero
/// `bad_requests`. (The all-replicas-failed path recording NO verdict is
/// covered by `remote_fetch_failure_fails_the_query_without_poisoning_
/// cross_check` in the cluster suite.)
#[test]
fn failover_leaves_cross_check_and_bad_requests_clean() {
    let dir = tmpdir("clean_failover");
    let c = cluster_product(13);
    let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
    cfg.shards = 3;
    stream_product(&c, &cfg).unwrap();

    let owner_srv = Server::bind("127.0.0.1:0").unwrap();
    let querier_srv = Server::bind("127.0.0.1:0").unwrap();
    let (addr_owner, addr_querier) = (
        owner_srv.local_addr().unwrap(),
        querier_srv.local_addr().unwrap(),
    );
    // Replica list for 1..3: a dead socket first in `--peers` order, then
    // the live owner — round-robin guarantees the dead one is actually
    // picked first on some fetches, forcing the failover path.
    let querier = ServeEngine::open_with(
        &dir,
        &OpenOptions {
            shard_subset: Some(0..1),
            peers: vec![
                PeerSpec::parse("1..3=127.0.0.1:1").unwrap(), // nothing listens
                PeerSpec::parse(&format!("1..3={addr_owner}")).unwrap(),
            ],
            source: kron_serve::AnswerSource::CrossCheck,
            peer_timeout: Duration::from_millis(300),
            ..OpenOptions::default()
        },
    )
    .unwrap();
    let owner = ServeEngine::open_with(
        &dir,
        &OpenOptions {
            shard_subset: Some(1..3),
            peers: vec![PeerSpec::parse(&format!("0..1={addr_querier}")).unwrap()],
            ..OpenOptions::default()
        },
    )
    .unwrap();
    let span = querier.shard_set().subset_vertices();
    let n = c.num_vertices();

    let stop = AtomicBool::new(false);
    let opts = ServerOptions::default();
    let rep = std::thread::scope(|s| {
        let h_owner = s.spawn(|| owner_srv.run(&owner, &opts, &stop).unwrap());
        let h_querier = s.spawn(|| querier_srv.run(&querier, &opts, &stop).unwrap());
        let mut client = Client::connect(addr_querier).unwrap();
        let mut direct = Client::connect(addr_owner).unwrap();

        // Enough non-resident fetches that round-robin lands on the dead
        // replica several times; every answer must still be correct.
        for v in span.end..(span.end + 6).min(n) {
            let path = format!(
                "/query?q={}",
                encode_query_component(&format!("neighbors {v}"))
            );
            let want = direct.get(&path).unwrap();
            assert_eq!(want.0, 200);
            let got = client.get(&path).unwrap();
            assert_eq!(got, want, "failover changed the answer for vertex {v}");
        }

        let (_, stats) = client.get("/stats").unwrap();
        let doc = Json::parse(&stats).unwrap();
        // The failovers really happened…
        let peers = doc.req("peers").unwrap().as_arr().unwrap();
        let dead = peers
            .iter()
            .find(|p| p.req("peer").unwrap().as_str() == Some("127.0.0.1:1"))
            .expect("dead replica listed");
        assert!(
            dead.req("failovers").unwrap().as_u64().unwrap() >= 1,
            "{stats}"
        );
        let live = peers
            .iter()
            .find(|p| p.req("peer").unwrap().as_str() == Some(&addr_owner.to_string()))
            .expect("live replica listed");
        assert!(
            live.req("fetches").unwrap().as_u64().unwrap() >= 1,
            "{stats}"
        );
        // …and the ledger looks exactly like a healthy cluster's: the
        // final answers were cross-checked and passed, nothing about the
        // failed attempts leaked into verdicts or request accounting.
        let count = |key| doc.req(key).unwrap().as_u64().unwrap();
        assert_eq!(count("checked"), count("queries"), "{stats}");
        assert!(count("checked") > 0);
        assert_eq!(doc.req("mismatch_count").unwrap().as_u64(), Some(0));
        assert_eq!(doc.req("bad_requests").unwrap().as_u64(), Some(0));
        assert_eq!(doc.req("errors").unwrap().as_u64(), Some(0));

        stop.store(true, Ordering::SeqCst);
        drop((client, direct));
        h_owner.join().unwrap();
        h_querier.join().unwrap()
    });
    assert_eq!(rep.mismatches, 0, "{rep}");
    assert_eq!(rep.query_errors, 0, "{rep}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A hung peer costs only the requests that need it. Node A holds half
/// the run and **one** worker; the other half lives on node B behind a
/// blackholed proxy. A `degree` on a vertex B owns is handed to the pool
/// and hangs there for the peer timeout — and while it does, a health
/// probe and a `degree` on a resident vertex answer from the event thread
/// in milliseconds.
#[test]
fn blackholed_peer_does_not_delay_resident_reads_or_health_probes() {
    const PEER_TIMEOUT: Duration = Duration::from_secs(3);
    let dir = tmpdir("blackhole_inline");
    let c = cluster_product(33);
    let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
    cfg.shards = 4;
    stream_product(&c, &cfg).unwrap();

    let a_srv = Server::bind("127.0.0.1:0").unwrap();
    let b_srv = Server::bind("127.0.0.1:0").unwrap();
    let (addr_a, addr_b) = (a_srv.local_addr().unwrap(), b_srv.local_addr().unwrap());
    let proxy = FaultProxy::spawn(&addr_b.to_string());
    let node_a = ServeEngine::open_with(
        &dir,
        &OpenOptions {
            shard_subset: Some(0..2),
            peers: vec![PeerSpec {
                shards: 2..4,
                addr: proxy.addr().to_string(),
            }],
            peer_timeout: PEER_TIMEOUT,
            ..OpenOptions::default()
        },
    )
    .unwrap();
    let node_b = ServeEngine::open_with(
        &dir,
        &OpenOptions {
            shard_subset: Some(2..4),
            peers: vec![PeerSpec {
                shards: 0..2,
                addr: addr_a.to_string(),
            }],
            ..OpenOptions::default()
        },
    )
    .unwrap();
    let span = node_a.shard_set().subset_vertices();
    let (resident, remote) = (span.start, span.end);
    assert!(remote < c.num_vertices());

    let stop = AtomicBool::new(false);
    let one_worker = ServerOptions {
        threads: 1,
        ..Default::default()
    };
    let opts = ServerOptions::default();
    std::thread::scope(|s| {
        let h_a = s.spawn(|| a_srv.run(&node_a, &one_worker, &stop).unwrap());
        let h_b = s.spawn(|| b_srv.run(&node_b, &opts, &stop).unwrap());
        let query = |q: String| format!("/query?q={}", encode_query_component(&q));
        let path_counts = |client: &mut Client| {
            let doc = Json::parse(&client.get("/stats").unwrap().1).unwrap();
            let conns = doc.req("connections").unwrap();
            let count = |key| conns.req(key).unwrap().as_u64().unwrap();
            (count("inline"), count("pooled"))
        };

        // healthy: the remote degree answers, through the pool
        let mut client = Client::connect(addr_a).unwrap();
        let before = path_counts(&mut client);
        let (status, body) = client.get(&query(format!("degree {remote}"))).unwrap();
        assert_eq!((status, body), (200, format!("{}\n", c.degree(remote))));
        let after = path_counts(&mut client);
        assert_eq!(
            (after.0 - before.0, after.1 - before.1),
            (0, 2),
            "a peer-owned row is pooled (with the /stats read that reports it)"
        );

        proxy.set_mode(Fault::Blackhole);
        let remote_degree = query(format!("degree {remote}"));
        let hung = s.spawn(move || {
            let mut client = Client::connect(addr_a).unwrap();
            let t0 = Instant::now();
            let answer = client.get(&remote_degree).unwrap();
            (answer, t0.elapsed())
        });
        // A's only worker is (or is about to be) stuck inside the fetch, so
        // anything pooled — /stats included — would wait out the peer
        // timeout behind it. The probes below must not.
        let t0 = Instant::now();
        let mut fast = 0;
        while !hung.is_finished() {
            let (status, body) = client.get("/healthz").unwrap();
            assert_eq!((status, body.as_str()), (200, "ok\n"));
            let (status, body) = client.get(&query(format!("degree {resident}"))).unwrap();
            assert_eq!((status, body), (200, format!("{}\n", c.degree(resident))));
            fast += 1;
            std::thread::sleep(Duration::from_millis(20));
        }
        let ((status, body), hang) = hung.join().unwrap();
        assert_eq!(status, 502, "{body}");
        assert!(hang >= PEER_TIMEOUT / 2, "the fetch never hung: {hang:?}");
        // every probe round finished while the worker was stuck: far more
        // rounds than the single one a queued probe would have managed
        assert!(
            fast >= 10,
            "{fast} probe rounds in {:?} beside a {hang:?} hang",
            t0.elapsed()
        );

        proxy.set_mode(Fault::Forward);
        stop.store(true, Ordering::SeqCst);
        drop(client);
        h_a.join().unwrap();
        h_b.join().unwrap();
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// A node that answers `/rows` in another encoding than the one the
/// protocol has — raw little-endian words of the asked rows, declared
/// `application/octet-stream` — and `ok` to anything else. Serves
/// `listener` until `stop`.
fn raw_words_peer(listener: &std::net::TcpListener, c: &KronProduct, stop: &AtomicBool) {
    use std::io::{ErrorKind, Read, Write};
    listener.set_nonblocking(true).unwrap();
    std::thread::scope(|s| {
        while !stop.load(Ordering::Relaxed) {
            let Ok((mut conn, _)) = listener.accept() else {
                std::thread::sleep(Duration::from_millis(2));
                continue;
            };
            s.spawn(move || {
                conn.set_nonblocking(false).unwrap();
                conn.set_read_timeout(Some(Duration::from_millis(50)))
                    .unwrap();
                let (mut buf, mut chunk) = (RequestBuffer::new(), [0u8; 4096]);
                while !stop.load(Ordering::Relaxed) {
                    match conn.read(&mut chunk) {
                        Ok(0) => return,
                        Ok(k) => buf.push(&chunk[..k]),
                        Err(e)
                            if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
                        {
                            continue
                        }
                        Err(_) => return,
                    }
                    while let Ok(Some(req)) = buf.next_request() {
                        let mut asked = Vec::new();
                        let body: Vec<u8> = if req.path == "/rows" {
                            assert!(kron_stream::decode_row_vd(&req.body, &mut asked));
                            (asked.iter().flat_map(|&v| c.neighbors(v)))
                                .flat_map(|w| w.to_le_bytes())
                                .collect()
                        } else {
                            b"ok\n".to_vec()
                        };
                        let mut out = Vec::new();
                        write_response(&mut out, 200, "application/octet-stream", &body).unwrap();
                        if conn.write_all(&out).is_err() {
                            return;
                        }
                    }
                }
            });
        }
    });
}

/// `/rows` speaks one encoding, and the asker refuses a `200` that
/// declares another before reading its body. A peer answering raw words
/// is a torn reply: every query that needs its rows gets one well-formed
/// `502` — never a `200` read from misdecoded words — and the cross-check
/// ledger records no mismatch.
#[test]
fn peer_answering_rows_in_raw_words_yields_a_502_never_a_wrong_answer() {
    let dir = tmpdir("raw_words_peer");
    let c = cluster_product(21);
    let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
    cfg.shards = 2;
    stream_product(&c, &cfg).unwrap();

    let peer = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let node_srv = Server::bind("127.0.0.1:0").unwrap();
    let addr = node_srv.local_addr().unwrap();
    let node = ServeEngine::open_with(
        &dir,
        &OpenOptions {
            shard_subset: Some(0..1),
            peers: vec![PeerSpec::parse(&format!("1..2={}", peer.local_addr().unwrap())).unwrap()],
            source: kron_serve::AnswerSource::CrossCheck,
            ..OpenOptions::default()
        },
    )
    .unwrap();
    let span = node.shard_set().subset_vertices();
    let remote = span.end..(span.end + 6).min(c.num_vertices());
    assert!(!remote.is_empty());

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| raw_words_peer(&peer, &c, &stop));
        let h_node = s.spawn(|| {
            node_srv
                .run(&node, &ServerOptions::default(), &stop)
                .unwrap()
        });
        let mut client = Client::connect(addr).unwrap();
        for v in remote {
            let q = encode_query_component(&format!("neighbors {v}"));
            let (status, body) = client.get(&format!("/query?q={q}")).unwrap();
            assert_eq!(status, 502, "neighbors {v}: {body}");
            assert!(
                body.starts_with("error: ") && body.ends_with('\n') && body.lines().count() == 1,
                "{body}"
            );
        }
        let doc = Json::parse(&client.get("/stats").unwrap().1).unwrap();
        assert_eq!(doc.req("mismatch_count").unwrap().as_u64(), Some(0));

        stop.store(true, Ordering::SeqCst);
        drop(client);
        let rep = h_node.join().unwrap();
        assert_eq!(rep.mismatches, 0, "{rep}");
    });
    std::fs::remove_dir_all(&dir).ok();
}
