//! What a workload stands on: scratch directories, streamed run
//! directories, in-process servers, and the load generator's connection.
//!
//! Everything that must be undone is undone by a `Drop` guard — servers
//! are stopped and joined, scratch directories removed — so a panicking
//! workload still leaves no thread, socket or file behind.

use kron::KronProduct;
use kron_serve::http::Client;
use kron_serve::{
    OpenOptions, PeerSpec, Router, RouterReport, ServeEngine, Server, ServerOptions, ServerReport,
};
use kron_stream::json::Json;
use kron_stream::{stream_product, OutputFormat, RunSummary, StreamConfig};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Scratch root: inside the directory the benchmark is run from, so a
/// run reads and writes nothing outside its checkout.
fn work_root() -> PathBuf {
    PathBuf::from(".kronbench").join("work")
}

/// A scratch directory removed (with everything in it) on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> WorkDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = work_root().join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        WorkDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // the shared parents go too once the last scratch directory has
        if let Some(root) = self.0.parent() {
            if std::fs::remove_dir(root).is_ok() {
                let _ = root.parent().map(std::fs::remove_dir);
            }
        }
    }
}

/// Stream `product` into `dir` with all cores, panicking on failure (a
/// run directory that cannot be produced is a broken benchmark, not a
/// measurement).
pub fn stream_run(
    product: &KronProduct,
    dir: &Path,
    format: OutputFormat,
    shards: usize,
) -> RunSummary {
    let mut cfg = StreamConfig::new(dir, format);
    cfg.shards = shards;
    stream_product(product, &cfg).expect("stream the run directory")
}

/// A blocking `run` loop on its own thread, stopped and joined on drop.
struct Running<R> {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<io::Result<R>>>,
}

impl<R: Send + 'static> Running<R> {
    fn spawn(run: impl FnOnce(&AtomicBool) -> io::Result<R> + Send + 'static) -> Running<R> {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        Running {
            stop,
            thread: Some(std::thread::spawn(move || run(&flag))),
        }
    }

    fn shutdown(mut self) -> R {
        self.stop.store(true, Ordering::SeqCst);
        let thread = self.thread.take().expect("not shut down yet");
        thread
            .join()
            .expect("server thread panicked")
            .expect("server run")
    }
}

impl<R> Drop for Running<R> {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The calling thread — and every thread it spawns from now on —
/// confined to the CPU it is running on, until dropped.
///
/// Serving workloads run under this guard. A closed loop over one
/// connection is a relay: client, event thread and worker are never
/// runnable together, so one CPU loses them nothing. Spread over two
/// virtual CPUs, every hand-off instead wakes an idle one, which on a
/// shared VM costs 30–100 µs and drifts by the minute with the
/// hypervisor's halt-polling state: the same binary answered 9.4 K and
/// 5.5 K point queries per second in adjacent minutes unpinned, and
/// 47–50 K pinned. Pinned, the round trip is the program's own path.
pub struct Pinned {
    #[cfg(target_os = "linux")]
    saved: affinity::CpuSet,
}

#[cfg(target_os = "linux")]
mod affinity {
    /// glibc's `cpu_set_t`: 1024 bits.
    pub type CpuSet = [u64; 16];

    // std links the platform C library; these are its scheduler calls,
    // declared here the way `kron_serve::poll` declares poll(2).
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        fn sched_getcpu() -> i32;
    }

    pub fn get() -> Option<CpuSet> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a live, writable buffer of exactly the
        // `cpusetsize` bytes passed; pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
        (rc == 0).then_some(set)
    }

    pub fn set(set: &CpuSet) -> bool {
        // SAFETY: `set` is a live buffer of exactly the `cpusetsize`
        // bytes passed, only read by the call; pid 0 is the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
    }

    pub fn current_cpu() -> Option<usize> {
        // SAFETY: no arguments, no memory touched.
        usize::try_from(unsafe { sched_getcpu() })
            .ok()
            .filter(|&cpu| cpu < 1024)
    }
}

impl Pinned {
    /// Pin to the current CPU. Where that is not possible (not Linux,
    /// or the call is refused) the guard does nothing and says so.
    pub fn to_current_cpu() -> Pinned {
        #[cfg(target_os = "linux")]
        {
            let saved = affinity::get();
            let pinned = affinity::current_cpu().is_some_and(|cpu| {
                let mut one = [0u64; 16];
                one[cpu / 64] = 1 << (cpu % 64);
                saved.is_some() && affinity::set(&one)
            });
            if !pinned {
                eprintln!("kronbench: could not pin to one CPU; serving numbers will wander");
            }
            Pinned {
                // restoring an all-zero mask fails harmlessly
                saved: saved.filter(|_| pinned).unwrap_or([0; 16]),
            }
        }
        #[cfg(not(target_os = "linux"))]
        Pinned {}
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        affinity::set(&self.saved);
    }
}

/// Bind an ephemeral loopback listener.
pub fn bind() -> Server {
    Server::bind("127.0.0.1:0").expect("bind a loopback listener")
}

/// One in-process `kron serve`: the same `Server::bind → run` the CLI
/// uses, over an engine the harness keeps a handle to (for
/// [`ServeEngine::routing`]).
pub struct Node {
    pub addr: SocketAddr,
    pub engine: Arc<ServeEngine>,
    run: Running<ServerReport>,
}

impl Node {
    pub fn start(server: Server, engine: ServeEngine, opts: ServerOptions) -> Node {
        let addr = server.local_addr().expect("listener address");
        let engine = Arc::new(engine);
        let served = Arc::clone(&engine);
        Node {
            addr,
            engine,
            run: Running::spawn(move |stop| server.run(&served, &opts, stop)),
        }
    }

    /// Stop the server and return its totals.
    pub fn shutdown(self) -> ServerReport {
        self.run.shutdown()
    }
}

/// Two shard-subset nodes (`0..split`, `split..shards`) that fetch each
/// other's rows, and a router in front: `kron serve --shards … --peers …`
/// twice plus `kron route`, in process. The router is declared first so
/// it is dropped (stopped) before the nodes it forwards to.
pub struct Cluster {
    router: Running<RouterReport>,
    pub router_addr: SocketAddr,
    pub nodes: [Node; 2],
}

impl Cluster {
    pub fn start(dir: &Path, shards: usize, row_cache_bytes: u64) -> Cluster {
        let split = shards / 2;
        let listeners = [bind(), bind()];
        let addrs = listeners
            .each_ref()
            .map(|l| l.local_addr().expect("listener address"));
        let claims = [0..split, split..shards];
        let mut nodes = Vec::new();
        for (i, listener) in listeners.into_iter().enumerate() {
            let engine = ServeEngine::open_with(
                dir,
                &OpenOptions {
                    row_cache_bytes,
                    shard_subset: Some(claims[i].clone()),
                    peers: vec![PeerSpec {
                        shards: claims[1 - i].clone(),
                        addr: addrs[1 - i].to_string(),
                    }],
                    ..OpenOptions::default()
                },
            )
            .expect("open a cluster node");
            nodes.push(Node::start(listener, engine, ServerOptions::default()));
        }
        let front = bind();
        let router_addr = front.local_addr().expect("router address");
        let router = Router::discover(&addrs.map(|a| a.to_string()), Duration::from_secs(5))
            .expect("discover the cluster");
        let router =
            Running::spawn(move |stop| router.run(&front, &ServerOptions::default(), stop));
        let nodes: [Node; 2] = nodes.try_into().unwrap_or_else(|_| unreachable!());
        Cluster {
            router,
            router_addr,
            nodes,
        }
    }

    /// Stop everything; the router's totals and each node's.
    pub fn shutdown(self) -> (RouterReport, [ServerReport; 2]) {
        let router = self.router.shutdown();
        (router, self.nodes.map(Node::shutdown))
    }
}

/// The load generator's keep-alive connection. It is the harness's own
/// (not `kron_serve::http::Client`) so that sending and receiving can be
/// timed apart, response bodies are compared without copying, and a
/// change to the repository's client cannot shift every serving metric.
pub struct LoadConn {
    stream: TcpStream,
    buf: Vec<u8>,
    len: usize,
}

impl LoadConn {
    pub fn connect(addr: SocketAddr) -> io::Result<LoadConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(LoadConn {
            stream,
            buf: vec![0; 64 * 1024],
            len: 0,
        })
    }

    pub fn send(&mut self, wire: &[u8]) -> io::Result<()> {
        self.stream.write_all(wire)
    }

    /// Read one response: `(status, body)`. The body borrows the
    /// connection's buffer and is valid until the next call.
    pub fn recv(&mut self) -> io::Result<(u16, &[u8])> {
        let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
        self.len = 0; // closed loop: nothing is in flight between calls
        let (mut head_end, mut scanned) = (None, 0usize);
        let mut total = usize::MAX;
        let mut status = 0u16;
        while self.len < total {
            if self.len == self.buf.len() {
                self.buf.resize(self.buf.len() * 2, 0);
            }
            let n = self.stream.read(&mut self.buf[self.len..])?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-response",
                ));
            }
            self.len += n;
            if head_end.is_none() {
                let from = scanned.saturating_sub(3);
                if let Some(i) = self.buf[from..self.len]
                    .windows(4)
                    .position(|w| w == b"\r\n\r\n")
                {
                    let end = from + i;
                    let head = std::str::from_utf8(&self.buf[..end])
                        .map_err(|_| bad("response head is not UTF-8"))?;
                    let mut lines = head.split("\r\n");
                    status = lines
                        .next()
                        .and_then(|l| l.split(' ').nth(1))
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| bad("bad status line"))?;
                    let length: usize = lines
                        .filter_map(|l| l.split_once(':'))
                        .find(|(name, _)| name.trim().eq_ignore_ascii_case("content-length"))
                        .and_then(|(_, v)| v.trim().parse().ok())
                        .ok_or_else(|| bad("response without Content-Length"))?;
                    head_end = Some(end);
                    total = end + 4 + length;
                }
                scanned = self.len;
            }
        }
        let start = head_end.expect("loop ends only once the head is parsed") + 4;
        Ok((status, &self.buf[start..total]))
    }

    pub fn round_trip(&mut self, wire: &[u8]) -> io::Result<(u16, &[u8])> {
        self.send(wire)?;
        self.recv()
    }
}

/// A control connection (job submission, `/stats`) on the repository's
/// own client. The server closes a connection idle for 60 s, so a
/// request that fails on transport is retried once on a new connection.
pub struct Control {
    addr: SocketAddr,
    client: Option<Client>,
    pub reconnects: u64,
}

impl Control {
    pub fn new(addr: SocketAddr) -> Control {
        Control {
            addr,
            client: None,
            reconnects: 0,
        }
    }

    pub fn call(
        &mut self,
        request: impl Fn(&mut Client) -> io::Result<(u16, String)>,
    ) -> io::Result<(u16, String)> {
        for attempt in 0..2 {
            if self.client.is_none() {
                self.client = Some(Client::connect(self.addr)?);
            }
            match request(self.client.as_mut().expect("connected above")) {
                Ok(reply) => return Ok(reply),
                Err(e) if attempt == 1 => return Err(e),
                Err(_) => {
                    self.client = None;
                    self.reconnects += 1;
                }
            }
        }
        unreachable!("the second attempt returns")
    }

    pub fn get(&mut self, path: &str) -> io::Result<(u16, String)> {
        self.call(|c| c.get(path))
    }

    pub fn post(&mut self, path: &str, body: &[u8]) -> io::Result<(u16, String)> {
        self.call(|c| c.post(path, body))
    }
}

/// The job the probes keep running: 20 fixed PageRank passes.
pub const JOB_SPEC: &[u8] = br#"{"kernel":"pagerank","tol":-1,"iters":20}"#;
pub const JOB_PASSES: u64 = 20;

/// What a [`JobDriver`]'s control thread saw.
#[derive(Clone, Copy, Debug, Default)]
pub struct JobTally {
    pub done: u64,
    pub failed: u64,
    pub reconnects: u64,
}

/// Keeps one job running: submits, polls until it leaves `running`,
/// resubmits — over its own connection — until stopped, then cancels
/// the job in flight.
pub struct JobDriver {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<JobTally>>,
}

fn job_state(doc: &str) -> Option<(u64, String)> {
    let doc = Json::parse(doc.trim()).ok()?;
    Some((
        doc.get("id")?.as_u64()?,
        doc.get("state")?.as_str()?.to_string(),
    ))
}

impl JobDriver {
    pub fn start(addr: SocketAddr) -> JobDriver {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut control = Control::new(addr);
            let mut tally = JobTally::default();
            'jobs: while !flag.load(Ordering::Relaxed) {
                let id = match control.post("/jobs", JOB_SPEC) {
                    Ok((202, body)) => job_state(&body).map(|(id, _)| id),
                    _ => None,
                };
                let Some(id) = id else {
                    tally.failed += 1;
                    std::thread::sleep(Duration::from_millis(20));
                    continue;
                };
                loop {
                    std::thread::sleep(Duration::from_millis(5));
                    if flag.load(Ordering::Relaxed) {
                        // cancelled by us: neither done nor failed
                        let _ = control.call(|c| c.delete(&format!("/jobs/{id}")));
                        break 'jobs;
                    }
                    match control
                        .get(&format!("/jobs/{id}"))
                        .ok()
                        .and_then(|(_, b)| job_state(&b))
                    {
                        Some((_, state)) if state == "running" => {}
                        Some((_, state)) if state == "done" => {
                            tally.done += 1;
                            break;
                        }
                        _ => {
                            tally.failed += 1;
                            break;
                        }
                    }
                }
            }
            tally.reconnects = control.reconnects;
            tally
        });
        JobDriver {
            stop,
            thread: Some(thread),
        }
    }

    pub fn finish(mut self) -> JobTally {
        self.stop.store(true, Ordering::SeqCst);
        let thread = self.thread.take().expect("not finished yet");
        thread.join().expect("job control thread panicked")
    }
}

impl Drop for JobDriver {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{get_wire, web_product};

    #[test]
    fn scratch_is_removed_even_when_the_owner_panics() {
        let seen = std::sync::Mutex::new(PathBuf::new());
        let result = std::panic::catch_unwind(|| {
            let work = WorkDir::new("rig_panic");
            std::fs::write(work.path().join("x"), b"x").unwrap();
            *seen.lock().unwrap() = work.path().to_path_buf();
            panic!("workload died");
        });
        assert!(result.is_err());
        let path = seen.lock().unwrap().clone();
        assert!(path.ends_with(path.file_name().unwrap()) && !path.exists());
    }

    #[test]
    fn a_node_serves_until_dropped_and_control_reconnects() {
        let work = WorkDir::new("rig_node");
        let product = web_product(20);
        stream_run(&product, work.path(), OutputFormat::Csr2, 2);
        let node = Node::start(
            bind(),
            ServeEngine::open_verified(work.path()).unwrap(),
            ServerOptions {
                // the server's keep-alive timeout, shrunk from 60 s
                idle_timeout: Some(Duration::from_millis(150)),
                ..ServerOptions::default()
            },
        );
        let mut conn = LoadConn::connect(node.addr).unwrap();
        let (status, body) = conn.round_trip(&get_wire("/healthz")).unwrap();
        assert_eq!((status, body), (200, &b"ok\n"[..]));
        let (status, body) = conn.round_trip(&get_wire("/query?q=degree%200")).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, format!("{}\n", product.degree(0)).as_bytes());

        let mut control = Control::new(node.addr);
        assert_eq!(control.get("/healthz").unwrap().0, 200);
        std::thread::sleep(Duration::from_millis(600)); // server drops the idle connection
        assert_eq!(control.get("/healthz").unwrap().0, 200);
        assert_eq!(control.reconnects, 1);

        let addr = node.addr;
        drop(node);
        assert!(
            TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err(),
            "a dropped node no longer listens"
        );
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn pinning_confines_spawned_threads_and_is_undone_on_drop() {
        // on its own thread: affinity is per thread, tests share a process
        std::thread::spawn(|| {
            let before = affinity::get().unwrap();
            let pin = Pinned::to_current_cpu();
            let bits = |set: &affinity::CpuSet| set.iter().map(|w| w.count_ones()).sum::<u32>();
            assert_eq!(bits(&affinity::get().unwrap()), 1);
            let child = std::thread::spawn(|| affinity::get().unwrap())
                .join()
                .unwrap();
            assert_eq!(
                child,
                affinity::get().unwrap(),
                "spawned threads inherit the pin"
            );
            drop(pin);
            assert_eq!(affinity::get().unwrap(), before);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn a_cluster_answers_through_its_router() {
        let work = WorkDir::new("rig_cluster");
        let product = web_product(20);
        stream_run(&product, work.path(), OutputFormat::Csr2, 4);
        let cluster = Cluster::start(work.path(), 4, 1 << 20);
        let mut conn = LoadConn::connect(cluster.router_addr).unwrap();
        let v = product.num_vertices() - 1;
        let (status, body) = conn
            .round_trip(&get_wire(&format!("/query?q=tri_vertex%20{v}")))
            .unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            body,
            format!("{}\n", product.vertex_triangles(v)).as_bytes()
        );
        let (router, nodes) = cluster.shutdown();
        assert_eq!((router.forward_errors, router.failovers), (0, 0));
        assert_eq!(nodes[0].queries + nodes[1].queries, 1);
    }
}
