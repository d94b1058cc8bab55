//! Subcommand implementations.

use crate::args::{parse_byte_size, ParsedArgs};
use kron::{human_count, product_truss, validate, KronProduct, ProductStats};
use kron_gen::deterministic;
use kron_graph::{read_edge_list_path, write_edge_list_path, Graph};
use kron_serve::{
    parse_queries, parse_shard_range, push_line, run_batch, AnswerSource, OpenOptions, PeerSpec,
    Router, ServeEngine, Server, ServerOptions,
};
use kron_stream::{compact_run, stream_product, verify_shards, OutputFormat, StreamConfig};
use kron_triangles::count_triangles;
use std::io::Write;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

/// Top-level usage text.
pub const USAGE: &str = "\
kron — nonstochastic Kronecker graph generation with exact triangle statistics

USAGE:
  kron gen <family> [--n N] [--m M] [--p P] [--pt PT] [--seed S] [--out FILE]
           [--loops]
      families: clique | clique-loops | cycle | path | star | hub-cycle |
                er | ba | holme-kim | one-triangle | rmat | skg;
      --loops adds a self loop at every vertex
  kron triangles <graph.tsv>
      exact triangle count, per-run wedge checks and timing
  kron stats <a.tsv> <b.tsv> [--loops-b]
      the paper's Table rows for A, B, and A (x) B (exact, implicit)
  kron query <a.tsv> <b.tsv> <p> [<q>]
      O(1) degree/triangle lookup at product vertex p (or edge {p,q})
  kron query <DIR> <p> [<q>] [--source artifact|oracle|cross-check]
      the same lookups over a `kron stream` (csr or csr2) run directory:
      artifact walks the mmap'd CSR shards (graph never loaded), oracle
      evaluates the closed forms on the run's factor copies (no shard
      I/O), cross-check runs both and fails on any disagreement
  kron egonet <a.tsv> <b.tsv> <p>
      extract the egonet of product vertex p implicitly; print its edges
  kron truss <a.tsv> <b.tsv>
      truss decomposition of A (x) B via Thm. 3 (requires Δ_B ≤ 1)
  kron validate <a.tsv> <b.tsv> [--samples N] [--full]
      egonet spot checks (default) or full materialized validation (--full)
  kron stream <a.tsv> <b.tsv> --out DIR [--shards N] [--format F]
              [--threads T] [--resume]
      generate A (x) B as N validated shards (formats: csr2 (default) |
      csr | count); every shard gets a JSON manifest with closed-form
      checksums. csr2 is the varint delta-encoded v2 shard format —
      same queries, same checksums, roughly 4x smaller artifacts than
      csr's raw u64 columns; count writes manifests only
  kron compact <DIR>
      make a --format csr run directory csr2 in place: re-stream it from
      its own factor copies on every core, keeping the shards already
      csr2 (as stream --resume does) and writing run.json last. Rerun it
      to finish an interrupted compaction, which nothing else opens
  kron analyze <DIR> --kernel bfs|cc|pagerank|tri-census [--source V]
               [--depth K] [--tol T] [--iters N] [--top K] [--threads T]
               [--no-validate]
      whole-graph kernels over the CSR run directory DIR, parallel
      across the shard plan, result as one JSON document on stdout:
      bfs (direction-optimizing, from --source, optionally --depth
      hops), cc (connected components by label propagation), pagerank
      (to --tol within --iters iterations, --top ranked vertices),
      tri-census (recount every degree and triangle from the artifact
      and check every stored entry, the count at every edge and every
      vertex, and the totals against the paper's closed forms —
      mismatch prints the report and exits nonzero; --no-validate skips
      the check). Results are byte-identical for any --threads. SIGTERM/
      ctrl-c cancels cooperatively: no verdict, exit 0
  kron serve <DIR> --queries FILE [--threads T] [--no-verify]
             [--source artifact|oracle|cross-check] [--cache BYTES]
      answer a batch of point queries over the CSR run directory DIR;
      query file lines: degree v | neighbors v | has_edge u v |
      tri_vertex v | tri_edge u v  (blank lines and # comments ignored);
      prints one answer per line, latency/throughput + routing report on
      stderr. --source oracle answers in closed form from the factor
      copies (artifact contents are never read, so checksum verification
      is skipped); --source cross-check answers from the artifact, checks
      every answer against the oracle, and exits nonzero on mismatch; a
      checked batch logs the same mismatches, ascending, at any --threads.
      --cache keeps an LRU of hot decoded rows for the triangle kernels'
      resident neighbours, bounded in bytes (plain, or 512k / 512m / 4g)
  kron serve <DIR> --listen ADDR [--threads T] [--jobs J] [--no-verify]
             [--source artifact|oracle|cross-check] [--cache BYTES]
             [--max-conns N] [--idle-timeout SECS] [--io-timeout SECS]
             [--shards A..B --peers A..B=ADDR[,A..B=ADDR...]]
      long-lived HTTP server over the same engine: open + validate once,
      then answer GET /query?q=<query-line>, POST /batch (body = query
      file), GET /path?from=F&to=T[&max_depth=K] (bidirectional-BFS
      shortest path), GET /khop?v=V&k=K (k-hop neighborhood), GET
      /stats (JSON counters + latency window + routing + connection
      gauges + mismatch log), GET /healthz. ADDR like
      127.0.0.1:8080 (port 0 binds an ephemeral port; the bound address
      is printed on stdout as `listening on http://…`). Connections ride
      a poll(2) event loop on one thread — --threads sizes the request
      worker pool (default 64), not the connection count; --max-conns
      caps concurrently open sockets (default 10240, beyond it accepts
      pause). --idle-timeout closes keep-alive connections idle between
      requests (default 60s); --io-timeout bounds both how long a request
      may take to arrive once its first byte shows up (expiry answers
      408 and closes) and how long a stalled client may block response
      writes (default 10s). Timeouts take fractional seconds.
      Graceful shutdown on SIGTERM/ctrl-c: in-flight requests finish,
      totals go to stderr, and the exit code is nonzero if any
      cross-checked query disagreed with the closed-form oracle.
      The server also runs the analyze kernels as async jobs:
      POST /jobs (body = {\"kernel\":\"…\", …}) returns an id, GET
      /jobs/<ID> polls running/done/failed (result document inline on
      completion), DELETE /jobs/<ID> cancels cooperatively. At most J
      jobs run at once (--jobs, default 2; beyond the cap POST answers
      429), on separate threads from the connection pool so point-query
      latency stays flat. Job counters ride along in /stats, SIGTERM
      cancels running jobs cooperatively, and a job whose result
      contradicts the closed forms fails the job, keeps the mismatch
      report pollable, and makes the server exit nonzero at shutdown.
      --shards A..B turns the server into one node of a cluster: it
      memory-maps only shards [A, B) of the run directory and asks the
      --peers nodes (each spelled A..B=HOST:PORT; the claim plus the
      peer ranges must cover every shard — overlapping claims are
      replicas, rotated round-robin with failover and health ejection
      on fetch errors) for far rows (POST /rows) and intersections
      (POST /wedges). Nodes answer those, GET /shards and GET /row
  kron path <DIR> --from F --to T [--max-depth K]
            [--source artifact|oracle|cross-check]
      bidirectional-BFS shortest path between two product vertices over
      the CSR run directory DIR: prints the vertex sequence (space
      separated) or `unreachable` on stdout, hop count and timing on
      stderr. --max-depth bounds the search to K hops (a longer path
      reports unreachable). The traversal walks the artifact rows
      regardless of --source; under --source cross-check every returned
      path is additionally re-certified edge-by-edge against the
      artifact and the closed-form oracle, and any disagreement exits
      nonzero. The same traversal is served over HTTP as GET
      /path?from=F&to=T[&max_depth=K] and GET /khop?v=V&k=K on `kron
      serve --listen` nodes, and forwarded by `kron route`
  kron route --peers ADDR[,ADDR...] --listen ADDR [--threads T]
             [--max-conns N] [--idle-timeout SECS] [--io-timeout SECS]
             [--rediscover SECS]
      stateless front end for a cluster of `kron serve --shards` nodes:
      learns each peer's claim from GET /shards at startup, then
      forwards /query, /batch, /path, and /khop by vertex range
      (traversals route on their first vertex), rotating round-robin
      over the replicas of each vertex and failing over on connect
      errors, timeouts, and 5xx answers (answers byte-identical to a
      single node serving the whole run; a peer is ejected after 3
      consecutive failures and re-admitted when a GET /healthz probe
      succeeds), merges /stats across peers (down peers report
      \"up\":false), and fans /healthz out to all of them. Start the
      nodes first; the router exits at startup if a peer is unreachable
      or the claims leave a shard uncovered. --rediscover SECS re-runs
      discovery on that interval so nodes can join/leave a live cluster
  kron verify-shards <DIR> [--rehash]
      re-check every shard manifest (shard_NNNNN.json) and artifact in DIR
      against the closed-form factor statistics; failures name the
      offending manifest/artifact file (--rehash additionally compares
      every stored row with the product's row regenerated from the
      factors, in the same single pass, and names the first row and
      position that differ)

EXIT CODES:
  0  success
  1  command failed: unknown subcommand, missing argument, I/O or
     validation error, out-of-range query, any cross-check mismatch, or
     an analyze validation failure — recounted whole-graph statistics
     or a finished server job contradicting the closed forms (artifact
     and closed-form oracle disagree: the run directory is corrupt or
     stale)
  2  the command line itself could not be parsed (no subcommand)";

/// The options and flags subcommand `cmd` takes, read off its synopsis
/// in [`USAGE`] — each `kron <cmd>` line and the `[…]` lines under it —
/// so the help text and the parser cannot drift: each name, and whether
/// it is a bare flag (written `[--name]`). `None` when `cmd` has no
/// synopsis.
fn synopsis_options(cmd: &str) -> Option<Vec<(&'static str, bool)>> {
    let mut names = Vec::new();
    let mut found = false;
    let mut inside = false;
    for line in USAGE.lines().map(str::trim_start) {
        if let Some(rest) = line.strip_prefix("kron ") {
            inside = rest.split(' ').next() == Some(cmd);
            found |= inside;
        } else if !line.starts_with('[') {
            inside = false;
        }
        if inside {
            names.extend(line.split("--").skip(1).map(|opt| {
                let end = opt
                    .find(|c: char| !c.is_ascii_alphanumeric() && c != '-')
                    .unwrap_or(opt.len());
                (&opt[..end], opt[end..].starts_with(']'))
            }));
        }
    }
    found.then_some(names)
}

/// Dispatch a parsed command line. An option or flag the subcommand does
/// not take, a flag given a value and an option given none are refused
/// before anything runs: a typo must not quietly weaken a check
/// (`verify-shards --rehsh`, `verify-shards --rehash yes`). Unknown names
/// are reported first, so a shape error never hides a typo.
pub fn run(p: &ParsedArgs) -> Result<(), String> {
    if let Some(known) = synopsis_options(&p.command) {
        let given = p.options.keys().map(|o| (o, false));
        let given = given.chain(p.flags.iter().map(|f| (f, true)));
        let refusal = |(name, bare): (&String, bool)| match known.iter().find(|(k, _)| k == name) {
            None => Some((0, format!("unknown option --{name}"))),
            Some(&(_, true)) if !bare => Some((1, format!("flag --{name} takes no value"))),
            Some(&(_, false)) if bare => Some((1, format!("option --{name} needs a value"))),
            Some(_) => None,
        };
        if let Some((_, why)) = given.filter_map(refusal).min() {
            return Err(format!("{}: {why} (see `kron help`)", p.command));
        }
    }
    match p.command.as_str() {
        "gen" => cmd_gen(p),
        "triangles" => cmd_triangles(p),
        "stats" => cmd_stats(p),
        "query" => cmd_query(p),
        "egonet" => cmd_egonet(p),
        "truss" => cmd_truss(p),
        "validate" => cmd_validate(p),
        "stream" => cmd_stream(p),
        "compact" => cmd_compact(p),
        "analyze" => cmd_analyze(p),
        "serve" => cmd_serve(p),
        "route" => cmd_route(p),
        "path" => cmd_path(p),
        "verify-shards" => cmd_verify_shards(p),
        "help" | "--help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}\n\n{USAGE}")),
    }
}

fn load(path: &str) -> Result<Graph, String> {
    read_edge_list_path(path).map_err(|e| format!("reading {path}: {e}"))
}

fn cmd_gen(p: &ParsedArgs) -> Result<(), String> {
    let family = p.pos(0, "family")?;
    let n: usize = p.opt("n", 1000)?;
    let m: usize = p.opt("m", 3)?;
    let prob: f64 = p.opt("p", 0.01)?;
    let pt: f64 = p.opt("pt", 0.75)?;
    let seed: u64 = p.opt("seed", 1)?;
    let g = match family {
        "clique" => deterministic::clique(n),
        "clique-loops" => deterministic::clique_with_loops(n),
        "cycle" => deterministic::cycle(n),
        "path" => deterministic::path(n),
        "star" => deterministic::star(n),
        "hub-cycle" => deterministic::hub_cycle(),
        "er" => kron_gen::erdos_renyi(n, prob, seed),
        "ba" => kron_gen::barabasi_albert(n, m, seed),
        "holme-kim" => kron_gen::holme_kim(n, m, pt, seed),
        "one-triangle" => kron_gen::one_triangle_per_edge(n, seed),
        "rmat" => {
            let scale = (n as f64).log2().ceil() as u32;
            kron_gen::rmat(scale.max(1), m, kron_gen::RmatParams::graph500(), seed)
        }
        "skg" => {
            let k = (n as f64).log2().ceil() as u32;
            kron_gen::stochastic_kronecker([[0.99, 0.54], [0.54, 0.13]], k.max(1), seed)
        }
        other => return Err(format!("unknown family {other:?}")),
    };
    let loops = if p.flag("loops") {
        g.with_all_self_loops()
    } else {
        g
    };
    eprintln!(
        "generated {family}: {} vertices, {} edges, {} self loops",
        loops.num_vertices(),
        loops.num_edges(),
        loops.num_self_loops()
    );
    match p.options.get("out") {
        Some(path) => {
            write_edge_list_path(&loops, path).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => {
            let mut out = String::new();
            for v in loops.self_loops() {
                out.push_str(&format!("{v}\t{v}\n"));
            }
            for (u, v) in loops.edges() {
                out.push_str(&format!("{u}\t{v}\n"));
            }
            print!("{out}");
        }
    }
    Ok(())
}

fn cmd_triangles(p: &ParsedArgs) -> Result<(), String> {
    let g = load(p.pos(0, "graph")?)?;
    let t0 = Instant::now();
    let c = count_triangles(&g);
    println!(
        "{} vertices, {} edges: {} triangles ({} wedge checks, {:.2?})",
        g.num_vertices(),
        g.num_edges(),
        c.triangles,
        c.wedge_checks,
        t0.elapsed()
    );
    Ok(())
}

fn cmd_stats(p: &ParsedArgs) -> Result<(), String> {
    let a = load(p.pos(0, "a")?)?;
    let mut b = load(p.pos(1, "b")?)?;
    if p.flag("loops-b") {
        b = b.with_all_self_loops();
    }
    let t0 = Instant::now();
    let rows = [
        (
            "A",
            ProductStats {
                vertices: a.num_vertices() as u128,
                edges: a.num_edges() as u128,
                self_loops: a.num_self_loops() as u128,
                triangles: count_triangles(&a).triangles as u128,
            },
        ),
        (
            "B",
            ProductStats {
                vertices: b.num_vertices() as u128,
                edges: b.num_edges() as u128,
                self_loops: b.num_self_loops() as u128,
                triangles: count_triangles(&b.without_self_loops()).triangles as u128,
            },
        ),
        ("A (x) B", KronProduct::new(a, b).stats()),
    ];
    println!(
        "{:<12} {:>10} {:>10} {:>10}",
        "Matrix", "Vertices", "Edges", "Triangles"
    );
    for (name, s) in rows {
        println!("{}", s.table_row(name));
    }
    eprintln!("({:.2?})", t0.elapsed());
    Ok(())
}

/// Parse a product vertex id and refuse one outside `0..n` (`n = n_C`),
/// for every command that names a vertex.
fn vertex(s: &str, n: u64) -> Result<u64, String> {
    let v: u64 = s
        .parse()
        .map_err(|_| "vertex id must be an integer".to_string())?;
    if v >= n {
        return Err(format!("vertex {v} out of range (n_C = {n})"));
    }
    Ok(v)
}

/// The engine options of `kron query <DIR>`, `kron path` and `kron serve`,
/// parsed once and before any open: `--source`, `--cache` (only on `kron
/// serve`: a traversal reads no row through the LRU, and a one-shot
/// lookup could hit it once at most), plus (for `serving`, i.e. `kron
/// serve`) `--no-verify`, `--shards` and `--peers`.
/// The point commands open structurally; `kron verify-shards` owns
/// whole-artifact hashing.
fn engine_options(p: &ParsedArgs, serving: bool) -> Result<OpenOptions, String> {
    let mut opts = OpenOptions {
        verify_checksums: serving && !p.flag("no-verify"),
        source: match p.options.get("source") {
            Some(s) => AnswerSource::parse(s).map_err(|e| format!("--source: {e}"))?,
            None => AnswerSource::Artifact,
        },
        row_cache_bytes: match p.options.get("cache") {
            Some(s) => parse_byte_size(s).map_err(|e| format!("--cache: {e}"))?,
            None => 0,
        },
        ..OpenOptions::default()
    };
    if serving {
        if let Some(s) = p.options.get("shards") {
            opts.shard_subset = Some(parse_shard_range(s).map_err(|e| format!("--shards: {e}"))?);
        }
        if let Some(s) = p.options.get("peers") {
            opts.peers = PeerSpec::parse_list(s).map_err(|e| format!("--peers: {e}"))?;
        }
        if opts.shard_subset.is_none() && !opts.peers.is_empty() {
            return Err("--peers requires --shards A..B (this node's own claim)".into());
        }
    }
    Ok(opts)
}

/// After a run over `engine`: under a cross-checking source, describe
/// the outcome and fail on mismatches; under any other, nothing to say.
fn cross_check_verdict(engine: &ServeEngine) -> Result<(), String> {
    if !engine.source().checks() {
        return Ok(());
    }
    let n = engine.mismatch_count();
    if n == 0 {
        eprintln!(
            "cross-check: 0 mismatches in {} checked answers \
             (artifact agrees with the closed-form oracle)",
            engine.checked(),
        );
        return Ok(());
    }
    for m in engine.mismatches() {
        eprintln!("cross-check mismatch: {m}");
    }
    Err(format!(
        "cross-check: {n} mismatch(es) between the artifact and the \
         closed-form oracle — the run directory is corrupt or stale \
         (try `kron verify-shards --rehash`)"
    ))
}

/// `kron path <DIR> --from F --to T [--max-depth K]` — the traversal
/// endpoints' bidirectional BFS, answered in-process over the run
/// directory.
fn cmd_path(p: &ParsedArgs) -> Result<(), String> {
    let dir = p.pos(0, "dir")?;
    let from = p.required("from", "V")?;
    let to = p.required("to", "V")?;
    let max_depth = p
        .options
        .get("max-depth")
        .map(|s| s.parse::<u64>())
        .transpose()
        .map_err(|_| "--max-depth: hop count must be an integer")?;
    let engine = open_serve_engine(dir, &engine_options(p, false)?)?;
    let (from, to) = (
        vertex(from, engine.num_vertices())?,
        vertex(to, engine.num_vertices())?,
    );
    let t0 = Instant::now();
    let answer = kron_serve::PathFinder::new(&engine)
        .shortest_path(from, to, max_depth)
        .map_err(|e| e.to_string())?;
    match &answer.path {
        Some(path) => {
            eprintln!(
                "path {from} -> {to}: {} hop(s) in {:.2?}",
                path.len() - 1,
                t0.elapsed()
            );
            println!(
                "{}",
                path.iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(" ")
            );
        }
        None => {
            eprintln!(
                "path {from} -> {to}: unreachable{} in {:.2?}",
                match max_depth {
                    Some(k) => format!(" within {k} hop(s)"),
                    None => String::new(),
                },
                t0.elapsed()
            );
            println!("unreachable");
        }
    }
    cross_check_verdict(&engine)
}

/// `kron query <a.tsv> <b.tsv> <p> [<q>]` answers in closed form off the
/// factors; `kron query <DIR> <p> [<q>]` answers the same lookups off a
/// run directory — its mmap'd CSR shards, its closed-form oracle, or
/// both cross-checked — without loading the graph.
fn cmd_query(p: &ParsedArgs) -> Result<(), String> {
    let first = p.pos(0, "a|DIR")?;
    if !std::path::Path::new(first).is_dir() {
        let c = KronProduct::new(load(first)?, load(p.pos(1, "b")?)?);
        let (pv, qv) = point(p, 2, c.num_vertices())?;
        let (i, k) = c.indexer().split(pv);
        println!("product vertex {pv} = (A:{i}, B:{k})");
        let edge = qv.map(|qv| (qv, c.edge_triangles(pv, qv)));
        print_lookups(pv, c.degree(pv), c.vertex_triangles(pv), edge);
        return Ok(());
    }
    let engine = open_serve_engine(first, &engine_options(p, false)?)?;
    let (pv, qv) = point(p, 1, engine.num_vertices())?;
    println!(
        "product vertex {pv} (source: {}; {} shard(s), {} mapped bytes)",
        engine.source(),
        engine.shard_set().num_shards(),
        engine.shard_set().mapped_bytes()
    );
    let err = |e: kron_serve::ServeError| e.to_string();
    let degree = engine.degree(pv).map_err(err)?;
    let t = engine.vertex_triangles(pv).map_err(err)?;
    let edge = qv.map(|qv| engine.edge_triangles(pv, qv).map(|d| (qv, d)));
    let edge = edge.transpose().map_err(err)?;
    print_lookups(pv, degree, t, edge);
    cross_check_verdict(&engine)
}

/// The `<p> [<q>]` of `kron query`, from positional argument `at` on.
fn point(p: &ParsedArgs, at: usize, n: u64) -> Result<(u64, Option<u64>), String> {
    let pv = vertex(p.pos(at, "p")?, n)?;
    let qv = p.positional.get(at + 1).map(|q| vertex(q, n)).transpose()?;
    Ok((pv, qv))
}

/// The answer lines both `kron query` forms print: degree and `t_C` of
/// `pv`, then `Δ_C` of `{pv, q}` (or that it is no edge) when asked.
fn print_lookups(pv: u64, degree: u64, t: u64, edge: Option<(u64, Option<u64>)>) {
    println!("  degree        = {degree}");
    println!("  triangles t_C = {t}");
    match edge {
        Some((qv, Some(d))) => println!("  edge ({pv},{qv}): Δ_C = {d}"),
        Some((qv, None)) => println!("  ({pv},{qv}) is not an edge of C"),
        None => {}
    }
}

fn cmd_egonet(p: &ParsedArgs) -> Result<(), String> {
    let a = load(p.pos(0, "a")?)?;
    let b = load(p.pos(1, "b")?)?;
    let c = KronProduct::new(a, b);
    let pv = vertex(p.pos(2, "p")?, c.num_vertices())?;
    let ego = c.egonet(pv);
    println!(
        "egonet of {pv}: {} vertices, {} edges; center degree {}, center triangles {}",
        ego.graph.num_vertices(),
        ego.graph.num_edges(),
        ego.center_degree(),
        ego.triangles_at_center()
    );
    println!(
        "formula check: degree {} triangles {}",
        c.degree(pv),
        c.vertex_triangles(pv)
    );
    for (u, v) in ego.graph.edges() {
        println!("{}\t{}", ego.mapping[u as usize], ego.mapping[v as usize]);
    }
    Ok(())
}

fn cmd_truss(p: &ParsedArgs) -> Result<(), String> {
    let a = load(p.pos(0, "a")?)?;
    let b = load(p.pos(1, "b")?)?;
    let kt = product_truss(&a, &b).map_err(|e| e.to_string())?;
    println!("truss decomposition of C = A (x) B (Thm. 3):");
    println!("  κ    |T(κ)_C|");
    for kappa in 2..=kt.max_trussness() {
        println!("  {kappa:<4} {}", human_count(kt.truss_size(kappa)));
    }
    println!("  max trussness: {}", kt.max_trussness());
    Ok(())
}

fn cmd_stream(p: &ParsedArgs) -> Result<(), String> {
    let a = load(p.pos(0, "a")?)?;
    let b = load(p.pos(1, "b")?)?;
    let out = p.required("out", "DIR")?;
    let format = OutputFormat::parse(&p.opt("format", "csr2".to_string())?)?;
    let cfg = StreamConfig {
        out_dir: out.into(),
        shards: p.opt("shards", 8usize)?,
        format,
        threads: p.opt("threads", 0usize)?,
        resume: p.flag("resume"),
    };
    let c = KronProduct::new(a, b);
    let t0 = Instant::now();
    let run = stream_product(&c, &cfg).map_err(|e| e.to_string())?;
    let secs = t0.elapsed().as_secs_f64();
    let fresh = run.shards - run.resumed_shards;
    // resumed shards were skipped, not generated — a throughput figure
    // over the whole product would be wildly inflated, so omit it then
    let rate = if run.resumed_shards == 0 {
        format!(
            " ({} entries/s)",
            human_count((run.total_entries as f64 / secs.max(1e-9)) as u128)
        )
    } else {
        String::new()
    };
    eprintln!(
        "streamed {} adjacency entries into {} {} shard(s) ({} resumed) \
         with {} thread(s) in {:.2}s{rate}",
        human_count(run.total_entries),
        fresh,
        run.format.as_str(),
        run.resumed_shards,
        run.threads,
        secs,
    );
    println!("{out}/run.json");
    Ok(())
}

/// Open the engine for `kron serve`, narrating the open on stderr
/// (shared by the batch and `--listen` server modes).
fn open_serve_engine(dir: &str, opts: &OpenOptions) -> Result<ServeEngine, String> {
    let t0 = Instant::now();
    let engine = ServeEngine::open_with(std::path::Path::new(dir), opts)
        .map_err(|e| format!("{dir}: {e}"))?;
    let set = engine.shard_set();
    let resident = if set.is_complete() {
        format!("{} shard(s)", set.num_shards())
    } else {
        let s = set.subset();
        format!(
            "shards {}..{} of {} (cluster node; peers: {})",
            s.start,
            s.end,
            set.num_shards(),
            opts.peers
                .iter()
                .map(PeerSpec::to_string)
                .collect::<Vec<_>>()
                .join(", "),
        )
    };
    eprintln!(
        "opened {resident}, {} mapped bytes, {} entries in {:.2?} \
         (checksums {}, source: {}{})",
        set.mapped_bytes(),
        human_count(set.total_entries()),
        t0.elapsed(),
        if opts.source == AnswerSource::Oracle {
            // pure oracle mode never reads artifact contents; the engine
            // opens structurally regardless of --no-verify
            "not read (oracle mode)"
        } else if opts.verify_checksums {
            "verified"
        } else {
            "not verified"
        },
        opts.source,
        if opts.row_cache_bytes > 0 {
            format!(", row cache {} bytes", opts.row_cache_bytes)
        } else {
            String::new()
        },
    );
    Ok(engine)
}

/// `kron analyze <DIR> --kernel K` — run one whole-graph kernel over the
/// run directory and print its result document. Same kernels, same spec
/// defaults, same JSON as a server job, so the two surfaces are
/// byte-comparable.
fn cmd_analyze(p: &ParsedArgs) -> Result<(), String> {
    let dir = p.pos(0, "dir")?;
    let kernel = kron_analyze::Kernel::parse(p.required("kernel", "bfs|cc|pagerank|tri-census")?)?;
    let mut spec = kron_analyze::KernelSpec::new(kernel);
    spec.source = p.opt("source", spec.source)?;
    if p.options.contains_key("depth") {
        spec.depth = Some(p.opt("depth", 0u64)?);
    }
    spec.tol = p.opt("tol", spec.tol)?;
    spec.max_iters = p.opt("iters", spec.max_iters)?;
    spec.top_k = p.opt("top", spec.top_k)?;
    spec.validate = !p.flag("no-validate");
    rayon_pool(p)?.install(|| {
        // Structural open only: the kernels recount everything and tri-census
        // checks the totals against the closed forms, which is a stronger
        // verdict than re-hashing bytes (`kron verify-shards` does that).
        let set = kron_stream::ShardSet::open(std::path::Path::new(dir))
            .map_err(|e| format!("opening {dir}: {e}"))?;
        let stop = crate::signals::install_shutdown_flag();
        match kron_analyze::run_kernel(&set, &spec, stop) {
            Ok(doc) => {
                println!("{doc}");
                Ok(())
            }
            // A signal is an operator's decision, not a failure: stop
            // cooperatively, print no verdict, exit 0 — the same contract as
            // a clean server shutdown with no mismatches.
            Err(kron_analyze::AnalyzeError::Cancelled) => {
                eprintln!("analyze: cancelled by signal before completion; no verdict");
                Ok(())
            }
            // Validation failure still prints the full result document
            // (stdout, like success) so the mismatch report is scriptable;
            // the nonzero exit carries the verdict.
            Err(kron_analyze::AnalyzeError::Validation(doc)) => {
                println!("{doc}");
                Err(
                    "validation failed: recounted statistics contradict the closed forms \
                     (artifact corrupt or stale)"
                        .into(),
                )
            }
            Err(e) => Err(e.to_string()),
        }
    })
}

/// `--threads T` of the batch commands, as the pool they run in (absent
/// or 0: `RAYON_NUM_THREADS` if set, else every core).
fn rayon_pool(p: &ParsedArgs) -> Result<rayon::ThreadPool, String> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(p.opt("threads", 0)?)
        .build()
        .map_err(|e| e.to_string())
}

/// A number of seconds from 0 to 10⁹ (fractions allowed) from option
/// `--name`; absent or 0 is `None`, the caller's default. 10⁹ s is about
/// 31 years: far past any use, and a deadline that far ahead still fits
/// an `Instant`, which a larger value need not.
fn seconds(p: &ParsedArgs, name: &str) -> Result<Option<Duration>, String> {
    let secs: f64 = p.opt(name, 0.0)?;
    if !(0.0..=1e9).contains(&secs) {
        return Err(format!(
            "--{name}: expected a number of seconds from 0 to 1e9"
        ));
    }
    Ok((secs > 0.0).then(|| Duration::from_secs_f64(secs)))
}

/// The long-lived front of `kron serve --listen` and `kron route`: parse
/// the event-loop options (absent or zero values keep the crate
/// defaults), build what serves with `open`, bind `addr`, announce the
/// bound address on stdout, run until SIGTERM/ctrl-c, and report the
/// totals on stderr. Returns what `open` built, for a verdict after
/// shutdown.
fn listen<S, R: std::fmt::Display>(
    p: &ParsedArgs,
    addr: &str,
    open: impl FnOnce() -> Result<S, String>,
    run: impl FnOnce(&S, &Server, &ServerOptions, &AtomicBool) -> std::io::Result<R>,
) -> Result<(S, R), String> {
    let opts = ServerOptions {
        threads: p.opt("threads", 0)?,
        jobs: p.opt("jobs", 0)?,
        max_conns: p.opt("max-conns", 0)?,
        idle_timeout: seconds(p, "idle-timeout")?,
        io_timeout: seconds(p, "io-timeout")?,
    };
    let serving = open()?;
    let server = Server::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
    let local = server.local_addr().map_err(|e| e.to_string())?;
    // The bound address (with the real port for `:0`) goes to stdout so
    // scripts can capture it; flush explicitly — stdout is block-buffered
    // when piped, and the reader needs this line *before* shutdown.
    println!("listening on http://{local}");
    std::io::stdout().flush().ok();
    let shutdown = crate::signals::install_shutdown_flag();
    let report = run(&serving, &server, &opts, shutdown).map_err(|e| e.to_string())?;
    eprintln!("shutdown: {report}");
    Ok((serving, report))
}

fn cmd_serve(p: &ParsedArgs) -> Result<(), String> {
    let dir = p.pos(0, "dir")?;
    let opts = engine_options(p, true)?;
    if let Some(addr) = p.options.get("listen") {
        let (engine, report) = listen(
            p,
            addr,
            || open_serve_engine(dir, &opts),
            |engine, server, server_opts, stop| server.run(engine, server_opts, stop),
        )?;
        // Job validation failures are the whole-graph analogue of
        // cross-check mismatches and fail the run under any --source.
        // Cancelled jobs (SIGTERM mid-kernel) deliberately do not:
        // cancellation says nothing about the artifact.
        if report.job_validation_failures > 0 {
            return Err(format!(
                "{} analytics job(s) contradicted the closed forms \
                 (artifact corrupt or stale)",
                report.job_validation_failures
            ));
        }
        return cross_check_verdict(&engine);
    }
    let file = p.required("queries", "FILE (or --listen ADDR for the server)")?;
    rayon_pool(p)?.install(|| serve_queries(dir, file, &opts))
}

/// `kron serve <DIR> --queries FILE`: one answer line per query on
/// stdout, the batch report on stderr.
fn serve_queries(dir: &str, file: &str, opts: &OpenOptions) -> Result<(), String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))?;
    let queries = parse_queries(&text).map_err(|e| format!("{file}: {e}"))?;
    let engine = open_serve_engine(dir, opts)?;

    let out = run_batch(&engine, &queries);
    let mut lines = String::new();
    for (&q, ans) in queries.iter().zip(&out.answers) {
        push_line(&mut lines, q, ans);
    }
    print!("{lines}");
    eprintln!("{}", out.stats);
    // Pure oracle mode never fetches a row, and without --cache the
    // hit-rate line would describe a cache that does not exist.
    if opts.source != AnswerSource::Oracle {
        let rep = engine.routing();
        if opts.row_cache_bytes > 0 {
            eprintln!("{rep}");
        } else {
            eprintln!("{}", rep.shard_summary());
        }
    }
    cross_check_verdict(&engine)?;
    let failed = out.stats.errors;
    if failed > 0 {
        return Err(format!("{failed} of {} queries failed", queries.len()));
    }
    Ok(())
}

/// `kron route --peers ADDR,… --listen ADDR` — the stateless cluster
/// front end. Start the `kron serve --shards` nodes first.
fn cmd_route(p: &ParsedArgs) -> Result<(), String> {
    let addr = p.required("listen", "ADDR")?;
    let peer_addrs: Vec<String> = p
        .required("peers", "ADDR[,ADDR...]")?
        .split(',')
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect();
    let rediscover = seconds(p, "rediscover")?;
    let discover = || {
        let t0 = Instant::now();
        let mut router = Router::discover(&peer_addrs, Duration::from_secs(5))
            .map_err(|e| format!("discovering peers: {e}"))?;
        if let Some(every) = rediscover {
            router.set_rediscover(every);
        }
        eprintln!(
            "routing {} vertices across {} node(s) (discovered in {:.2?}):",
            router.num_vertices(),
            peer_addrs.len(),
            t0.elapsed()
        );
        for line in router.peer_summary() {
            eprintln!("  {line}");
        }
        Ok(router)
    };
    listen(p, addr, discover, |router, front, opts, stop| {
        router.run(front, opts, stop)
    })?;
    Ok(())
}

fn cmd_compact(p: &ParsedArgs) -> Result<(), String> {
    let dir = p.pos(0, "dir")?;
    let t0 = Instant::now();
    let report = compact_run(std::path::Path::new(dir)).map_err(|e| e.to_string())?;
    println!(
        "compacted {} shard(s) ({} converted, {} already csr2): \
         {} -> {} artifact bytes ({:.2}x smaller, {:.2?})",
        report.shards,
        report.converted,
        report.skipped,
        report.bytes_before,
        report.bytes_after,
        report.ratio(),
        t0.elapsed()
    );
    Ok(())
}

fn cmd_verify_shards(p: &ParsedArgs) -> Result<(), String> {
    let dir = p.pos(0, "dir")?;
    let t0 = Instant::now();
    let report =
        verify_shards(std::path::Path::new(dir), p.flag("rehash")).map_err(|e| e.to_string())?;
    println!(
        "verified {} shard(s): {} entries, {} artifact bytes{} ({:.2?})",
        report.shards,
        human_count(report.total_entries),
        report.artifact_bytes,
        if report.rehashed {
            ", every row compared with the product's"
        } else {
            ""
        },
        t0.elapsed()
    );
    Ok(())
}

fn cmd_validate(p: &ParsedArgs) -> Result<(), String> {
    let a = load(p.pos(0, "a")?)?;
    let b = load(p.pos(1, "b")?)?;
    let samples: usize = p.opt("samples", 30)?;
    let c = KronProduct::new(a, b);
    let t0 = Instant::now();
    if p.flag("full") {
        validate::validate_undirected(&c, 1 << 28).map_err(|e| e.to_string())?;
        println!(
            "full validation passed: every vertex and edge of the materialized \
             product matches the formulas ({:.2?})",
            t0.elapsed()
        );
    } else {
        validate::spot_check(&c, samples, 7).map_err(|e| e.to_string())?;
        println!(
            "spot check passed: {samples} sampled egonets match the Kronecker \
             formulas exactly ({:.2?})",
            t0.elapsed()
        );
    }
    Ok(())
}
