//! Stress and misbehaving-client tests for the `poll(2)` event loop
//! behind `Server::run` (see `crate::event_loop`).
//!
//! The blocking-loop era tied every connection to a thread, so "many
//! idle keep-alive peers" and "one pathologically slow peer" were
//! invisible failure modes. These tests pin the event-loop contract:
//!
//! * 1K concurrent keep-alive clients get answers **byte-identical** to
//!   a single-threaded `run_batch` over the same engine;
//! * pipelined requests come back in order;
//! * a slow-loris client is 408-closed on the hard read deadline
//!   without stalling anyone else;
//! * a client that stops reading its (large) response is closed by the
//!   write no-progress timeout;
//! * half-close (`shutdown(Write)`) still gets the buffered request
//!   answered, then a clean close;
//! * idle keep-alive connections cost ~10 poll ticks/s, not a busy
//!   spin (the `connections.polls` gauge);
//! * transport-layer casualties (timeouts, mid-request FIN) count in
//!   the `/stats` `connections` object and **never** in `bad_requests`;
//! * a pipelined mix of requests the event thread answers itself and
//!   requests it hands to the pool comes back byte-identical to the same
//!   requests sent one at a time, and `connections.inline` /
//!   `connections.pooled` say which path each took — a resident row of
//!   more than 4096 entries is the pool's, one of exactly 4096 is not.

use kron::KronProduct;
use kron_graph::Graph;
use kron_serve::http::Client;
use kron_serve::{parse_queries, run_batch, ServeEngine, Server, ServerOptions};
use kron_stream::json::Json;
use kron_stream::{stream_product, OutputFormat, StreamConfig};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Stream a small product (16 vertices, 2 shards) to a temp run dir.
fn run_dir(name: &str) -> (std::path::PathBuf, KronProduct) {
    let dir = std::env::temp_dir().join(format!("kron_event_loop_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let a = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]);
    let c = KronProduct::new(a.clone(), a);
    let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
    cfg.shards = 2;
    stream_product(&c, &cfg).unwrap();
    (dir, c)
}

/// `GET /stats` through a fresh connection, parsed.
fn stats(addr: SocketAddr) -> Json {
    let mut client = Client::connect(addr).unwrap();
    let (status, body) = client.get("/stats").unwrap();
    assert_eq!(status, 200, "{body}");
    Json::parse(&body).unwrap()
}

fn conn_gauge(doc: &Json, key: &str) -> u64 {
    doc.req("connections")
        .unwrap()
        .req(key)
        .unwrap()
        .as_u64()
        .unwrap()
}

/// Poll `/stats` until `pred` holds or the deadline passes.
fn wait_for_stats(addr: SocketAddr, deadline: Duration, pred: impl Fn(&Json) -> bool) -> Json {
    let t0 = Instant::now();
    loop {
        let doc = stats(addr);
        if pred(&doc) || t0.elapsed() > deadline {
            return doc;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn thousand_keepalive_clients_match_single_threaded_run_batch() {
    const CLIENTS: usize = 1000;
    const THREADS: usize = 16;

    let (dir, _c) = run_dir("thousand");
    let engine = ServeEngine::open_verified(&dir).unwrap();

    // One query script per client; the single-threaded reference answers
    // all of them up front.
    let n = 16u64;
    let mut text = String::new();
    for i in 0..CLIENTS as u64 {
        text.push_str(&format!(
            "degree {}\ntri_vertex {}\nhas_edge {} {}\n",
            i % n,
            (i + 5) % n,
            i % n,
            (i * 7 + 3) % n
        ));
    }
    let queries = parse_queries(&text).unwrap();
    let reference = run_batch(&engine, &queries);
    let expected: Vec<String> = queries
        .iter()
        .zip(&reference.answers)
        .map(|(q, a)| format!("{q} = {}", a.as_ref().unwrap()))
        .collect();

    let server = Server::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let stop = AtomicBool::new(false);
    // +1: the main thread joins both rendezvous.
    let all_open = Barrier::new(THREADS + 1);
    let sampled = Barrier::new(THREADS + 1);

    std::thread::scope(|s| {
        let run = s.spawn(|| {
            server.run(
                &engine,
                &ServerOptions {
                    threads: 8,
                    ..Default::default()
                },
                &stop,
            )
        });

        for t in 0..THREADS {
            let (expected, queries, all_open, sampled) = (&expected, &queries, &all_open, &sampled);
            s.spawn(move || {
                // This thread owns clients t, t+THREADS, t+2·THREADS, …
                // — all of them connected (and kept alive) at once.
                let mine: Vec<usize> = (t..CLIENTS).step_by(THREADS).collect();
                let mut clients: Vec<Client> = mine
                    .iter()
                    .map(|_| Client::connect(addr).unwrap())
                    .collect();
                for (&i, client) in mine.iter().zip(&mut clients) {
                    // three /query round trips, byte-compared
                    for k in 0..3 {
                        let q = &queries[3 * i + k];
                        let path = format!(
                            "/query?q={}",
                            kron_serve::http::encode_query_component(&q.to_string())
                        );
                        let (status, body) = client.get(&path).unwrap();
                        assert_eq!(status, 200, "{body}");
                        let want = expected[3 * i + k].split(" = ").nth(1).unwrap();
                        assert_eq!(body, format!("{want}\n"), "client {i} query {k}");
                    }
                    // one /batch with the same three lines, byte-compared
                    // against the run_batch rendering
                    let body: String = (0..3)
                        .map(|k| format!("{}\n", queries[3 * i + k]))
                        .collect();
                    let (status, resp) = client.post("/batch", body.as_bytes()).unwrap();
                    assert_eq!(status, 200, "{resp}");
                    let want: String = (0..3)
                        .map(|k| format!("{}\n", expected[3 * i + k]))
                        .collect();
                    assert_eq!(resp, want, "client {i} batch");
                }
                all_open.wait(); // every client of every thread still open
                sampled.wait(); // main has read /stats
                drop(clients);
            });
        }

        all_open.wait();
        let doc = stats(addr);
        assert!(
            conn_gauge(&doc, "peak") >= CLIENTS as u64,
            "peak {} < {CLIENTS}",
            conn_gauge(&doc, "peak")
        );
        assert_eq!(doc.req("bad_requests").unwrap().as_u64(), Some(0));
        // every query the reference answered, the server answered
        assert_eq!(
            doc.req("queries").unwrap().as_u64(),
            Some(2 * queries.len() as u64), // once via /query, once via /batch
        );
        sampled.wait();

        stop.store(true, Ordering::SeqCst);
        let report = run.join().unwrap().unwrap();
        assert_eq!(report.bad_requests, 0);
        assert_eq!(report.queries, 2 * queries.len() as u64);
        assert_eq!(report.query_errors, 0);
    });
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let (dir, c) = run_dir("pipeline");
    let engine = ServeEngine::open_verified(&dir).unwrap();
    let server = Server::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let run = s.spawn(|| server.run(&engine, &ServerOptions::default(), &stop));

        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // three requests in one write; the last asks to close so the
        // response stream has a definite end
        raw.write_all(
            b"GET /query?q=degree%200 HTTP/1.1\r\n\r\n\
              GET /query?q=degree%201 HTTP/1.1\r\n\r\n\
              GET /query?q=degree%202 HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
        let mut all = Vec::new();
        raw.read_to_end(&mut all).unwrap();
        let text = String::from_utf8(all).unwrap();

        // exactly three responses, in request order
        let mut rest = text.as_str();
        for v in 0..3u64 {
            assert!(rest.starts_with("HTTP/1.1 200 OK\r\n"), "{rest}");
            let head_end = rest.find("\r\n\r\n").unwrap();
            let len: usize = rest[..head_end]
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .unwrap()
                .parse()
                .unwrap();
            let body = &rest[head_end + 4..head_end + 4 + len];
            assert_eq!(body, format!("{}\n", c.degree(v)), "response {v}");
            rest = &rest[head_end + 4 + len..];
        }
        assert!(rest.is_empty(), "trailing bytes: {rest:?}");

        stop.store(true, Ordering::SeqCst);
        run.join().unwrap().unwrap();
    });
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn slow_loris_is_timed_out_without_stalling_other_clients() {
    let (dir, c) = run_dir("loris");
    let engine = ServeEngine::open_verified(&dir).unwrap();
    let server = Server::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let run = s.spawn(|| {
            server.run(
                &engine,
                &ServerOptions {
                    io_timeout: Some(Duration::from_millis(300)),
                    ..Default::default()
                },
                &stop,
            )
        });

        let loris = TcpStream::connect(addr).unwrap();
        loris
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let t0 = Instant::now();
        let writer = {
            let mut w = loris.try_clone().unwrap();
            s.spawn(move || {
                // 1 byte per 80 ms: steady *progress* that never
                // completes a request — the hard deadline must fire
                // anyway. Write errors mean the server already closed
                // us, which is the point.
                for &b in b"GET /query?q=degree%200 HTTP/1.1\r\nHost: slow\r\n" {
                    if w.write_all(&[b]).is_err() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(80));
                }
            })
        };

        // meanwhile a normal client is served promptly throughout
        let mut client = Client::connect(addr).unwrap();
        for _ in 0..8 {
            let (status, body) = client.get("/query?q=degree%203").unwrap();
            assert_eq!(status, 200);
            assert_eq!(body, format!("{}\n", c.degree(3)));
            std::thread::sleep(Duration::from_millis(50));
        }

        // the loris connection ends within a bounded time of its first
        // byte; the 408 is best-effort (a racing drip byte can turn the
        // close into a reset), the *close* is the contract
        let mut got = Vec::new();
        let mut r = loris.try_clone().unwrap();
        let _ = r.read_to_end(&mut got);
        let elapsed = t0.elapsed();
        assert!(
            elapsed >= Duration::from_millis(250) && elapsed < Duration::from_secs(5),
            "loris lived {elapsed:?}"
        );
        if !got.is_empty() {
            let text = String::from_utf8_lossy(&got);
            assert!(text.starts_with("HTTP/1.1 408"), "{text}");
        }
        writer.join().unwrap();

        let doc = stats(addr);
        assert!(conn_gauge(&doc, "timeout_closed") >= 1);
        assert_eq!(doc.req("bad_requests").unwrap().as_u64(), Some(0));

        stop.store(true, Ordering::SeqCst);
        run.join().unwrap().unwrap();
    });
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn client_that_stops_reading_is_write_timeout_closed() {
    let (dir, _c) = run_dir("stalled_reader");
    let engine = ServeEngine::open_verified(&dir).unwrap();
    let server = Server::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let run = s.spawn(|| {
            server.run(
                &engine,
                &ServerOptions {
                    io_timeout: Some(Duration::from_millis(300)),
                    ..Default::default()
                },
                &stop,
            )
        });

        // A /batch whose response (~15 MB) dwarfs any socket buffer…
        let mut body = String::new();
        for i in 0..500_000u64 {
            body.push_str(&format!("neighbors {}\n", i % 16));
        }
        let mut raw = TcpStream::connect(addr).unwrap();
        write!(
            raw,
            "POST /batch HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .unwrap();
        raw.write_all(body.as_bytes()).unwrap();
        // …and then never read a byte of it. The server must give up on
        // us via the write no-progress timeout, counted as a transport
        // close, not a bad request. (The batch itself takes a while to
        // execute; the timeout clock only runs while *writing*.)
        let doc = wait_for_stats(addr, Duration::from_secs(30), |d| {
            conn_gauge(d, "timeout_closed") >= 1
        });
        assert!(
            conn_gauge(&doc, "timeout_closed") >= 1,
            "server never gave up on the stalled reader: {doc}"
        );
        assert_eq!(doc.req("bad_requests").unwrap().as_u64(), Some(0));
        drop(raw);

        stop.store(true, Ordering::SeqCst);
        run.join().unwrap().unwrap();
    });
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn half_close_gets_the_buffered_request_answered() {
    let (dir, c) = run_dir("half_close");
    let engine = ServeEngine::open_verified(&dir).unwrap();
    let server = Server::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let run = s.spawn(|| server.run(&engine, &ServerOptions::default(), &stop));

        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        raw.write_all(b"GET /query?q=degree%203 HTTP/1.1\r\n\r\n")
            .unwrap();
        // FIN our write side before the server has (necessarily) even
        // parsed the request: it must still answer, flush, then close.
        raw.shutdown(Shutdown::Write).unwrap();
        let mut all = Vec::new();
        raw.read_to_end(&mut all).unwrap();
        let text = String::from_utf8(all).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(
            text.ends_with(&format!("\r\n\r\n{}\n", c.degree(3))),
            "{text}"
        );

        stop.store(true, Ordering::SeqCst);
        run.join().unwrap().unwrap();
    });
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn idle_keepalive_connections_do_not_busy_spin() {
    let (dir, _c) = run_dir("no_spin");
    let engine = ServeEngine::open_verified(&dir).unwrap();
    let server = Server::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let run = s.spawn(|| server.run(&engine, &ServerOptions::default(), &stop));

        // park 8 keep-alive connections on the loop
        let mut parked: Vec<Client> = (0..8).map(|_| Client::connect(addr).unwrap()).collect();
        for p in &mut parked {
            assert_eq!(p.get("/healthz").unwrap().0, 200);
        }
        let before = conn_gauge(&stats(addr), "polls");
        std::thread::sleep(Duration::from_millis(1200));
        let after = conn_gauge(&stats(addr), "polls");
        let delta = after - before;
        // An idle loop ticks at ~10/s (the 100 ms shutdown-check tick)
        // plus a handful of wakeups for the two /stats calls. The
        // regression this pins: the old BSD `set_nonblocking(false)`
        // workaround inverted means sockets *are* non-blocking — if the
        // loop mis-polled idle connections it would spin thousands of
        // times here.
        assert!(delta >= 5, "loop looks stuck: {delta} polls in 1.2s");
        assert!(delta <= 100, "busy spin: {delta} polls in 1.2s");
        drop(parked);

        stop.store(true, Ordering::SeqCst);
        run.join().unwrap().unwrap();
    });
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn idle_keepalive_connections_are_closed_after_the_idle_timeout() {
    let (dir, _c) = run_dir("idle_close");
    let engine = ServeEngine::open_verified(&dir).unwrap();
    let server = Server::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let run = s.spawn(|| {
            server.run(
                &engine,
                &ServerOptions {
                    idle_timeout: Some(Duration::from_millis(250)),
                    ..Default::default()
                },
                &stop,
            )
        });

        let mut client = Client::connect(addr).unwrap();
        assert_eq!(client.get("/healthz").unwrap().0, 200);
        std::thread::sleep(Duration::from_millis(900));
        // the server hung up while we idled; the next round trip fails
        assert!(client.get("/healthz").is_err());

        let doc = stats(addr);
        assert!(conn_gauge(&doc, "idle_closed") >= 1, "{doc}");
        assert_eq!(doc.req("bad_requests").unwrap().as_u64(), Some(0));

        stop.store(true, Ordering::SeqCst);
        run.join().unwrap().unwrap();
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// The transport-vs-framing accounting rule, end to end: connections
/// lost to timeouts or mid-request hangups land in `connections`
/// (`idle_closed`/`timeout_closed`/the `open` gauge), while
/// `bad_requests` moves **only** for actual framing errors.
#[test]
fn transport_closes_are_never_counted_as_bad_requests() {
    let (dir, _c) = run_dir("transport_vs_framing");
    let engine = ServeEngine::open_verified(&dir).unwrap();
    let server = Server::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let run = s.spawn(|| {
            server.run(
                &engine,
                &ServerOptions {
                    idle_timeout: Some(Duration::from_millis(250)),
                    io_timeout: Some(Duration::from_millis(250)),
                    ..Default::default()
                },
                &stop,
            )
        });

        // 1. FIN mid-request: a truncated request is abandoned silently
        let mut fin = TcpStream::connect(addr).unwrap();
        fin.write_all(b"GET /he").unwrap();
        drop(fin);

        // 2. a started-but-never-finished request rides into the hard
        //    read deadline (timeout_closed)
        let mut slow = TcpStream::connect(addr).unwrap();
        slow.write_all(b"GET /stats HT").unwrap();
        slow.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut sink = Vec::new();
        let _ = slow.read_to_end(&mut sink); // until the server closes us

        // 3. a keep-alive connection left idle (idle_closed)
        let idle = TcpStream::connect(addr).unwrap();
        let doc = wait_for_stats(addr, Duration::from_secs(5), |d| {
            conn_gauge(d, "idle_closed") >= 1 && conn_gauge(d, "timeout_closed") >= 1
        });
        drop(idle);

        assert!(conn_gauge(&doc, "timeout_closed") >= 1, "{doc}");
        assert!(conn_gauge(&doc, "idle_closed") >= 1, "{doc}");
        // none of the above is a framing error…
        assert_eq!(doc.req("bad_requests").unwrap().as_u64(), Some(0));

        // …but actual garbage still is (the contrast that pins the rule)
        let mut garbage = TcpStream::connect(addr).unwrap();
        garbage.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
        garbage
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut resp = Vec::new();
        let _ = garbage.read_to_end(&mut resp);
        assert!(
            String::from_utf8_lossy(&resp).starts_with("HTTP/1.1 400"),
            "{resp:?}"
        );
        let doc = stats(addr);
        assert_eq!(doc.req("bad_requests").unwrap().as_u64(), Some(1));

        stop.store(true, Ordering::SeqCst);
        let report = run.join().unwrap().unwrap();
        assert_eq!(report.bad_requests, 1);
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// Read one framed response off `r`, returning its raw bytes (head and
/// body) exactly as they came.
fn read_raw_response(r: &mut impl std::io::BufRead) -> Vec<u8> {
    let mut raw = Vec::new();
    let mut len = 0usize;
    loop {
        let start = raw.len();
        r.read_until(b'\n', &mut raw).unwrap();
        let line = std::str::from_utf8(&raw[start..]).unwrap();
        assert!(!line.is_empty(), "connection closed mid-response");
        if let Some(n) = line.strip_prefix("Content-Length: ") {
            len = n.trim().parse().unwrap();
        }
        if line == "\r\n" {
            break;
        }
    }
    let head = raw.len();
    raw.resize(head + len, 0);
    r.read_exact(&mut raw[head..]).unwrap();
    raw
}

/// `(inline, pooled, requests)` as one `/stats` document reports them —
/// the `/stats` request itself included (it is pooled).
fn path_counts(addr: SocketAddr) -> (u64, u64, u64) {
    let doc = stats(addr);
    (
        conn_gauge(&doc, "inline"),
        conn_gauge(&doc, "pooled"),
        doc.req("requests").unwrap().as_u64().unwrap(),
    )
}

#[test]
fn pipelined_mix_of_inline_and_pooled_requests_matches_one_at_a_time() {
    const REQUESTS: usize = 10_000;

    let (dir, c) = run_dir("pipelined_mix");
    let engine = ServeEngine::open_verified(&dir).unwrap();
    let n = c.num_vertices();
    // a seeded mix: bounded reads and refusals the event thread answers,
    // triangle / traversal / batch / stats-free work it hands to the pool
    let mut seed = 0x1e17_u64;
    let mut below = move |bound: u64| {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (seed >> 33) % bound
    };
    let requests: Vec<String> = (0..REQUESTS)
        .map(|_| {
            // u may be out of range (a 422), v never is
            let (u, v) = (below(n + 1), below(n));
            match below(10) {
                0 => "GET /healthz HTTP/1.1\r\n\r\n".to_string(),
                1 => format!("GET /query?q=degree%20{u} HTTP/1.1\r\n\r\n"),
                2 => format!("GET /query?q=neighbors%20{v} HTTP/1.1\r\n\r\n"),
                3 => format!("GET /query?q=has_edge%20{u}%20{v} HTTP/1.1\r\n\r\n"),
                4 => format!("GET /row?shard=0&v={v}&enc=vd HTTP/1.1\r\n\r\n"),
                5 => format!("GET /query?q=tri_vertex%20{u} HTTP/1.1\r\n\r\n"),
                6 => format!("GET /query?q=tri_edge%20{u}%20{v} HTTP/1.1\r\n\r\n"),
                7 => format!("GET /khop?v={v}&k=2 HTTP/1.1\r\n\r\n"),
                8 => {
                    let body = format!("degree {u}\ntri_vertex {v}\n");
                    let len = body.len();
                    format!("POST /batch HTTP/1.1\r\nContent-Length: {len}\r\n\r\n{body}")
                }
                _ => format!("PUT /query?q=frobnicate%20{v} HTTP/1.1\r\n\r\n"),
            }
        })
        .collect();

    let server = Server::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let run = s.spawn(|| server.run(&engine, &ServerOptions::default(), &stop));

        // the reference: one request, one response, then the next
        let one = TcpStream::connect(addr).unwrap();
        one.set_nodelay(true).unwrap();
        let mut one_r = std::io::BufReader::new(one.try_clone().unwrap());
        let mut one_w = one;
        let mut expected = Vec::new();
        for req in &requests {
            one_w.write_all(req.as_bytes()).unwrap();
            expected.extend(read_raw_response(&mut one_r));
        }
        let (inline_before, pooled_before, _) = path_counts(addr);
        assert!(
            inline_before > 0 && pooled_before > 0,
            "the mix must take both paths"
        );

        // the same requests down one connection as fast as it takes them
        let piped = TcpStream::connect(addr).unwrap();
        piped
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let mut piped_w = piped.try_clone().unwrap();
        let writer = s.spawn(move || {
            for req in &requests {
                piped_w.write_all(req.as_bytes()).unwrap();
            }
            piped_w.shutdown(Shutdown::Write).unwrap();
        });
        let mut got = Vec::new();
        let mut piped_r = piped;
        piped_r.read_to_end(&mut got).unwrap();
        writer.join().unwrap();
        assert_eq!(got.len(), expected.len());
        assert!(
            got == expected,
            "pipelined bytes differ from one-at-a-time bytes"
        );

        // both passes took the same paths request for request (bar the 64th
        // consecutive inline answer of a wake-up, which the pool takes), and
        // every request took exactly one
        let (inline, pooled, total) = path_counts(addr);
        assert_eq!(inline + pooled, total);
        assert_eq!(total, 2 * REQUESTS as u64 + 2); // + the two /stats reads
        assert!(inline >= inline_before && inline <= 2 * inline_before);

        stop.store(true, Ordering::SeqCst);
        run.join().unwrap().unwrap();
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// The inline row cap, from outside: a hub whose resident row is 4097
/// entries is read by the pool, its neighbour with exactly 4096 by the
/// event thread — in both shard formats (every gap of these rows is one
/// varint byte, so the csr2 byte bound equals the entry count).
#[test]
fn rows_past_the_inline_cap_are_pooled_in_both_formats() {
    const CAP: u32 = 4096;
    // B: vertex 0 adjacent to 0..=CAP (loop included: CAP + 1 entries),
    // vertex 1 to 0..CAP (CAP entries); A: one vertex with a loop, so
    // A ⊗ B is B itself.
    let b = Graph::from_edges(
        CAP as usize + 1,
        (0..=CAP).map(|v| (0, v)).chain((1..CAP).map(|v| (1, v))),
    );
    let c = KronProduct::new(Graph::from_edges(1, [(0, 0)]), b);
    assert_eq!(c.neighbors(0).len(), CAP as usize + 1);
    assert_eq!(c.neighbors(1).len(), CAP as usize);

    for format in [OutputFormat::Csr, OutputFormat::Csr2] {
        let dir = std::env::temp_dir().join(format!(
            "kron_event_loop_cap_{format:?}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = StreamConfig::new(&dir, format);
        cfg.shards = 1;
        stream_product(&c, &cfg).unwrap();
        let engine = ServeEngine::open_verified(&dir).unwrap();
        let server = Server::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let run = s.spawn(|| server.run(&engine, &ServerOptions::default(), &stop));
            let mut client = Client::connect(addr).unwrap();
            // each probe, and how many of (inline, pooled) it adds
            let probes = [
                ("/query?q=neighbors%200", (0, 1)),
                ("/query?q=neighbors%201", (1, 0)),
                ("/query?q=degree%200", (0, 1)),
                ("/query?q=degree%201", (1, 0)),
                ("/query?q=has_edge%200%207", (0, 1)),
                ("/query?q=has_edge%201%207", (1, 0)),
                ("/row?shard=0&v=0&enc=vd", (0, 1)),
                ("/row?shard=0&v=1&enc=vd", (1, 0)),
                ("/row?shard=0&v=0", (0, 1)),
                ("/row?shard=0&v=1", (1, 0)),
            ];
            for (path, (inline, pooled)) in probes {
                let before = path_counts(addr);
                assert_eq!(client.get_bytes(path).unwrap().0, 200, "{path}");
                let after = path_counts(addr);
                assert_eq!(
                    (after.0 - before.0, after.1 - before.1),
                    (inline, pooled + 1), // + the second /stats read
                    "{format:?} {path}"
                );
            }
            stop.store(true, Ordering::SeqCst);
            run.join().unwrap().unwrap();
        });
        std::fs::remove_dir_all(&dir).ok();
    }
}
