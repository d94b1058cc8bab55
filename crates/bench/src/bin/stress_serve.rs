//! Keep-alive connection-stress load generator for a running `kron
//! serve --listen` (or `kron route`) front end.
//!
//! ```text
//! stress_serve ADDR [--conns N] [--requests R] [--threads T] [--json]
//! ```
//!
//! Opens `N` concurrent keep-alive HTTP connections to `ADDR`, then
//! drives `R` total `GET /query?q=degree%20<v>` requests round-robin
//! across them from `T` driver threads (each thread owns its slice of
//! the connections, so every connection stays strictly one-in-flight —
//! the protocol the server's event loop promises to interleave). The
//! vertex ids are a deterministic LCG over the target's vertex count,
//! learned from `GET /shards`.
//!
//! Prints a human summary to stderr; with `--json`, prints a single
//! JSON object to stdout (the `scripts/server_smoke.sh` stress leg parses
//! it):
//!
//! ```text
//! {"tool":"stress_serve","conns":…,"queries":…,"errors":…,
//!  "wall_secs":…,"qps":…,"min_us":…,"p50_us":…,"p99_us":…,…}
//! ```
//!
//! Exit code: nonzero when any request failed (transport error or
//! non-200 status) or any connection could not be opened — so CI can
//! gate on "every connection served, zero errors".
//!
//! This binary exists as a *separate process* on purpose: at 10K
//! connections both ends hold 10K fds, and splitting client from server
//! keeps each process comfortably inside the usual `RLIMIT_NOFILE`.

use kron_serve::http::Client;
use kron_serve::{AnswerSource, QueryStats};
use kron_stream::json::Json;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opt = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let Some(addr) = args.first().filter(|a| !a.starts_with("--")).cloned() else {
        eprintln!("usage: stress_serve ADDR [--conns N] [--requests R] [--threads T] [--json]");
        std::process::exit(2);
    };
    let conns: usize = opt("--conns").and_then(|v| v.parse().ok()).unwrap_or(1000);
    let requests: usize = opt("--requests")
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);
    let threads: usize = opt("--threads").and_then(|v| v.parse().ok()).unwrap_or(16);
    let json_out = args.iter().any(|a| a == "--json");
    let threads = threads.clamp(1, conns.max(1));

    // Learn the vertex count so the degree queries stay in range on any
    // run directory.
    let num_vertices = {
        let mut probe = match Client::connect(addr.as_str()) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("stress_serve: cannot connect to {addr}: {e}");
                std::process::exit(1);
            }
        };
        let (status, body) = probe.get("/shards").unwrap_or((0, String::new()));
        if status != 200 {
            eprintln!("stress_serve: GET /shards answered {status}; is this a kron server?");
            std::process::exit(1);
        }
        Json::parse(&body)
            .ok()
            .and_then(|doc| doc.req("num_vertices").ok()?.as_u64())
            .unwrap_or(1)
            .max(1)
    };

    // Every connection serves the same number of requests so the load is
    // uniform; `requests` rounds down to a whole number of rounds.
    let rounds = (requests / conns.max(1)).max(1);
    let total = rounds * conns;
    eprintln!(
        "stress_serve: {conns} keep-alive connections → {addr}, \
         {rounds} requests each ({total} total) from {threads} threads"
    );

    let connect_t0 = Instant::now();
    struct Slot {
        client: Option<Client>,
        seed: u64,
    }
    // Connect phase: all connections open before the first measured
    // request, split across the driver threads.
    let mut slices: Vec<Vec<Slot>> = Vec::new();
    let mut connect_failures = 0usize;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let addr = &addr;
                s.spawn(move || {
                    let mine = (t..conns).step_by(threads);
                    let mut slots = Vec::new();
                    let mut failures = 0usize;
                    for i in mine {
                        match Client::connect(addr.as_str()) {
                            Ok(c) => slots.push(Slot {
                                client: Some(c),
                                seed: i as u64,
                            }),
                            Err(_) => failures += 1,
                        }
                    }
                    (slots, failures)
                })
            })
            .collect();
        for h in handles {
            let (slots, failures) = h.join().unwrap();
            slices.push(slots);
            connect_failures += failures;
        }
    });
    if connect_failures > 0 {
        eprintln!("stress_serve: {connect_failures} of {conns} connections failed to open");
    }
    eprintln!(
        "stress_serve: {} connections open in {:.2}s",
        conns - connect_failures,
        connect_t0.elapsed().as_secs_f64()
    );

    let t0 = Instant::now();
    let mut lats = Vec::with_capacity(total);
    let mut errors = 0usize;
    std::thread::scope(|s| {
        let handles: Vec<_> = slices
            .iter_mut()
            .map(|slots| {
                s.spawn(move || {
                    let mut lats = Vec::with_capacity(rounds * slots.len());
                    let mut errors = 0usize;
                    for _ in 0..rounds {
                        for slot in slots.iter_mut() {
                            let Some(client) = slot.client.as_mut() else {
                                errors += 1;
                                continue;
                            };
                            // xorshift64*: cheap deterministic vertex mix
                            slot.seed ^= slot.seed << 13;
                            slot.seed ^= slot.seed >> 7;
                            slot.seed ^= slot.seed << 17;
                            let v = slot.seed % num_vertices;
                            let path = format!("/query?q=degree%20{v}");
                            let q0 = Instant::now();
                            match client.get(&path) {
                                Ok((200, _)) => lats.push(q0.elapsed()),
                                Ok((_, _)) => errors += 1,
                                Err(_) => {
                                    // transport failure: this connection
                                    // is gone; its remaining rounds are
                                    // errors too
                                    errors += 1;
                                    slot.client = None;
                                }
                            }
                        }
                    }
                    (lats, errors)
                })
            })
            .collect();
        for h in handles {
            let (l, e) = h.join().unwrap();
            lats.extend(l);
            errors += e;
        }
    });
    let wall = t0.elapsed();
    errors += connect_failures; // an unopened connection is a failure

    let stats = QueryStats::from_samples(AnswerSource::Artifact, lats, errors, 0, threads, wall, 0);
    eprintln!("stress_serve: {stats}");
    if json_out {
        let mut pairs = vec![
            ("tool".to_string(), Json::str("stress_serve")),
            ("conns".to_string(), Json::num(conns - connect_failures)),
        ];
        if let Json::Obj(stat_pairs) = stats.to_json() {
            pairs.extend(stat_pairs);
        }
        println!("{}", Json::Obj(pairs));
    }
    std::process::exit(i32::from(errors > 0));
}
