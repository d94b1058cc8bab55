//! Doc-drift guard for ARCHITECTURE.md § "Cluster serving".
//!
//! The `/row`, `/shards`, `/rows` and `/wedges` wire examples in the
//! spec are normative: this
//! test re-reads them **out of the markdown**, rebuilds exactly the run
//! directory they describe (the 3-vertex triangle squared, 3 CSR
//! shards), replays the documented request bytes against a live node,
//! and asserts the full responses — head and body — byte for byte.
//! Editing the spec without changing the server (or vice versa) fails
//! here, the same pattern the on-disk format specs are pinned with.

use kron::KronProduct;
use kron_graph::Graph;
use kron_serve::http::Client;
use kron_serve::{OpenOptions, PeerSpec, ServeEngine, Server, ServerOptions};
use kron_stream::json::Json;
use kron_stream::{stream_product, OutputFormat, StreamConfig};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// The markdown between `heading` and the next heading of any level.
fn section<'a>(md: &'a str, heading: &str) -> &'a str {
    let start = md.find(heading).unwrap_or_else(|| {
        panic!("ARCHITECTURE.md lost its {heading:?} section — the doc-drift pin needs it")
    });
    let rest = &md[start + heading.len()..];
    let end = rest
        .find("\n#### ")
        .or_else(|| rest.find("\n### "))
        .unwrap_or(rest.len());
    &rest[..end]
}

/// Contents of every ```` ```lang ```` fence in `md`, in order.
fn fenced(md: &str, lang: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = md;
    let opener = format!("```{lang}\n");
    while let Some(at) = rest.find(&opener) {
        let body = &rest[at + opener.len()..];
        let end = body.find("\n```").expect("unterminated fence");
        out.push(body[..end].to_string());
        rest = &body[end..];
    }
    out
}

/// A documented head block (`HTTP/1.1 200 OK` + header lines) as the
/// exact bytes the server writes: CRLF line endings, blank line.
fn wire(block: &str) -> Vec<u8> {
    let mut bytes = Vec::new();
    for line in block.lines() {
        bytes.extend_from_slice(line.as_bytes());
        bytes.extend_from_slice(b"\r\n");
    }
    bytes.extend_from_slice(b"\r\n");
    bytes
}

/// The `Content-Length:` a documented head declares.
fn declared_length(block: &str) -> usize {
    block
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("documented head has no Content-Length")
        .parse()
        .expect("documented Content-Length is not a number")
}

fn parse_hex(block: &str) -> Vec<u8> {
    block
        .split_whitespace()
        .map(|tok| u8::from_str_radix(tok, 16).unwrap_or_else(|_| panic!("bad hex byte {tok:?}")))
        .collect()
}

#[test]
fn documented_row_and_shards_examples_match_the_server_verbatim() {
    let md = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/ARCHITECTURE.md"))
        .expect("read ARCHITECTURE.md");

    // The documented exchanges: (request, response head, body).
    let vd_sec = section(&md, "#### `GET /row?enc=vd` wire example");
    let vd_http = fenced(vd_sec, "http");
    assert_eq!(
        vd_http.len(),
        2,
        "/row?enc=vd example needs request + response head"
    );
    let vd_body = parse_hex(&fenced(vd_sec, "hex")[0]);
    assert_eq!(
        declared_length(&vd_http[1]),
        vd_body.len(),
        "the documented /row?enc=vd head contradicts its own body"
    );

    let [rows, wedges] = ["/rows", "/wedges"].map(|endpoint| {
        let sec = section(&md, &format!("#### `POST {endpoint}` wire example"));
        let http = fenced(sec, "http");
        assert_eq!(
            http.len(),
            2,
            "{endpoint} example needs request + response head"
        );
        let hex = fenced(sec, "hex");
        assert_eq!(hex.len(), 2, "{endpoint} example needs both bodies");
        let (ask, reply) = (parse_hex(&hex[0]), parse_hex(&hex[1]));
        for (head, body) in [(&http[0], &ask), (&http[1], &reply)] {
            assert_eq!(
                declared_length(head),
                body.len(),
                "a documented {endpoint} head contradicts its own body"
            );
        }
        (http, ask, reply)
    });

    let shards_sec = section(&md, "#### `GET /shards` wire example");
    let shards_http = fenced(shards_sec, "http");
    assert_eq!(shards_http.len(), 2);
    // the spec calls out the trailing newline of the JSON body
    let shards_body = format!("{}\n", fenced(shards_sec, "json")[0]).into_bytes();
    assert_eq!(
        declared_length(&shards_http[1]),
        shards_body.len(),
        "the documented /shards head contradicts its own body"
    );

    // Exactly the documented run directory: the 3-vertex triangle
    // squared, streamed as 3 CSR shards (shard s ↔ left-factor row s).
    let a = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
    let c = KronProduct::new(a.clone(), a);
    let dir = std::env::temp_dir().join(format!("kron_doc_drift_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
    cfg.shards = 3;
    stream_product(&c, &cfg).unwrap();

    // A node claiming --shards 1..2, as the /shards example describes.
    // The dummy peers complete the ownership map; they are never dialed
    // (no documented exchange needs a non-resident row).
    let engine = ServeEngine::open_with(
        &dir,
        &OpenOptions {
            shard_subset: Some(1..2),
            peers: vec![
                PeerSpec::parse("0..1=127.0.0.1:1").unwrap(),
                PeerSpec::parse("2..3=127.0.0.1:1").unwrap(),
            ],
            ..OpenOptions::default()
        },
    )
    .unwrap();
    // sanity: the plan is what the doc says it is
    assert_eq!(engine.shard_set().shard_vertices(1).unwrap(), 3..6);

    let server = Server::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let run = s.spawn(|| server.run(&engine, &ServerOptions::default(), &stop));

        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut replay = |request: &str, request_body: &[u8], head: &str, body: &[u8]| {
            stream.write_all(&wire(request)).unwrap();
            stream.write_all(request_body).unwrap();
            let mut want = wire(head);
            want.extend_from_slice(body);
            let mut got = vec![0u8; want.len()];
            stream.read_exact(&mut got).unwrap();
            assert_eq!(
                got,
                want,
                "server response diverged from the documented bytes for {:?} \
                 (got {:?})",
                request.lines().next().unwrap(),
                String::from_utf8_lossy(&got)
            );
        };
        // all exchanges on one keep-alive connection, like a real peer
        replay(&vd_http[0], &[], &vd_http[1], &vd_body);
        replay(&shards_http[0], &[], &shards_http[1], &shards_body);
        for (http, ask, reply) in [&rows, &wedges] {
            replay(&http[0], ask, &http[1], reply);
        }

        stop.store(true, Ordering::SeqCst);
        drop(stream);
        run.join().unwrap().unwrap();
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// The `peers` health array documented in § "Per-peer health in
/// `/stats`" is pinned too: start exactly the documented node and
/// byte-compare the live `/stats` `peers` value (re-rendered through the
/// same canonical JSON writer the server uses) against the fence.
#[test]
fn documented_peer_health_example_matches_the_server_verbatim() {
    let md = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/ARCHITECTURE.md"))
        .expect("read ARCHITECTURE.md");
    let sec = section(&md, "#### Per-peer health in `/stats`");
    let pinned = fenced(sec, "json")
        .into_iter()
        .next()
        .expect("the peer-health section pins a json example");

    // The same run directory and node as the /row example: the triangle
    // squared, 3 shards, --shards 1..2, two dummy replicas (never
    // dialed, so their counters stay at the documented zeros).
    let a = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
    let c = KronProduct::new(a.clone(), a);
    let dir = std::env::temp_dir().join(format!("kron_doc_drift_peers_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
    cfg.shards = 3;
    stream_product(&c, &cfg).unwrap();
    let engine = ServeEngine::open_with(
        &dir,
        &OpenOptions {
            shard_subset: Some(1..2),
            peers: vec![
                PeerSpec::parse("0..1=127.0.0.1:1").unwrap(),
                PeerSpec::parse("2..3=127.0.0.1:1").unwrap(),
            ],
            ..OpenOptions::default()
        },
    )
    .unwrap();

    let server = Server::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let run = s.spawn(|| server.run(&engine, &ServerOptions::default(), &stop));
        let mut client = Client::connect(addr).unwrap();
        let (status, stats) = client.get("/stats").unwrap();
        assert_eq!(status, 200);
        let doc = Json::parse(&stats).unwrap();
        let live = doc
            .req("peers")
            .expect("a cluster node's /stats carries a peers array")
            .to_string();
        assert_eq!(
            live, pinned,
            "the live peers health array diverged from the documented bytes"
        );
        stop.store(true, Ordering::SeqCst);
        drop(client);
        run.join().unwrap().unwrap();
    });
    std::fs::remove_dir_all(&dir).ok();
}
