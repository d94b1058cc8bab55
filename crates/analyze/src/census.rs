//! Triangle + degree census by the degree-ordered forward algorithm —
//! the "hard way", validated at every vertex and every edge.
//!
//! The paper's headline statistics have closed forms from the factors
//! alone (Thm. 1–2, §III): this kernel deliberately ignores them and
//! recounts everything from the artifact with the sweep the paper runs
//! on its own factor (§VI, Chiba–Nishizeki): rank the vertices by
//! `(row length, id)`, keep for every vertex only its neighbours of
//! higher rank, and find `out(v) ∩ out(u)` for every forward edge
//! `v → u`. Each triangle `{v, u, w}` is met exactly once — at its
//! lowest-ranked edge — and credited to its three edge slots, so the
//! pass yields the per-edge participation `Δ(e)` of Def. 6 for every
//! edge, and `t(v) = ½·Σ_{e ∋ v} Δ(e)` (the identity below Def. 6) for
//! every vertex. The intersection is a probe, not a merge: `out(v)` is
//! marked once in a scratch bitmap of `n` bits per worker, and every
//! `w ∈ out(u)` is tested against it. `wedge_checks` counts the oriented
//! wedges `v → u → w` so probed, `Σ_{v→u} |out(u)|` — `O(m·α)` for
//! arboricity `α`, and the same for every thread count.
//!
//! Three passes, the first two through [`scan_rows`]:
//!
//! 1. row lengths, the entry total and the degree histogram (row length
//!    minus the self-loop slot, Rem. 3);
//! 2. the forward lists — `offsets` + `targets`, id-sorted because the
//!    stored rows are, 4 B per undirected edge and the only `O(m)` state
//!    besides `Δ` (another 4 B) — and, when validating, **every stored
//!    entry is an entry of the product, in its place in the product's
//!    ascending row**. The probes never read a row's lower-rank entries,
//!    so this is the check that sees a tampered back entry — a stray
//!    column, or a neighbour overwritten with a copy of another;
//! 3. the probes, chunk-parallel over runs of source vertices. A hit
//!    finds its slot in `out(v)` by binary search; `v`'s own slots are
//!    summed in a local buffer and credited once per `v`, the `(u, w)`
//!    slot at once. Credits are integer atomic adds — commutative, so
//!    `Δ`, `t` and the result document are byte-identical for every
//!    thread count.
//!
//! Validation is then element-wise: `Δ(v, u)` against
//! [`KronProduct::edge_triangles`] at every forward edge, `t(v)` against
//! [`KronProduct::vertex_triangles`] at every vertex, the forward edge
//! count against [`KronProduct::num_edges`], plus the entry total,
//! `Σ t(v) = 3·τ(C)` and the degree histogram. Totals alone do not pin a
//! graph — an isomorphic relabelling of the artifact reproduces all of
//! them — the element-wise checks do. Each lists its first [`FIRST`]
//! disagreements in ascending vertex order.
//!
//! Vertex ids are held as `u32`: a product with more than `u32::MAX`
//! vertices is refused up front ([`AnalyzeError::Open`]) rather than
//! given a second, wider code path. `Δ(e) < n_C` fits the same width.
//!
//! `kron_triangles::count` runs the same sweep over an in-memory `Graph`
//! and stays separate: its out-lists are *rank*-sorted and merged
//! suffix-only, `ou[i+1..] ∩ out(v)`, and its `wedge_checks` count that
//! merge's comparisons — the paper's §VI accounting, which `expt_table1`
//! reports. It yields triangles, not edge slots; here every triangle
//! must be credited to three slots, which the probe finds directly.

use crate::{check_stop, scan_rows, AnalyzeError, BitSet, Row};
use kron::KronProduct;
use kron_stream::json::Json;
use kron_stream::ShardSet;
use kron_triangles::slice::contains_sorted;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// How many disagreements each element-wise check lists under `first`.
const FIRST: usize = 8;

/// One element-wise check: how many elements it compared, how many
/// disagreed, and the first [`FIRST`] of those in the order met.
#[derive(Default)]
struct Check {
    checked: u128,
    mismatches: u128,
    first: Vec<Json>,
}

impl Check {
    fn miss(&mut self, what: impl FnOnce() -> Json) {
        self.mismatches += 1;
        if self.first.len() < FIRST {
            self.first.push(what());
        }
    }

    /// Fold in the check of the next chunk in plan order.
    fn absorb(&mut self, later: Check) {
        self.checked += later.checked;
        self.mismatches += later.mismatches;
        self.first.extend(later.first);
        self.first.truncate(FIRST);
    }

    fn into_json(self) -> Json {
        Json::obj(vec![
            ("ok", Json::Bool(self.mismatches == 0)),
            ("checked", Json::num(self.checked)),
            ("mismatches", Json::num(self.mismatches)),
            ("first", Json::Arr(self.first)),
        ])
    }
}

/// Refuse a product whose vertex ids do not fit the `u32` the forward
/// lists store.
fn fits_u32(n: u64) -> Result<(), AnalyzeError> {
    if u32::try_from(n).is_ok() {
        return Ok(());
    }
    Err(AnalyzeError::Open(format!(
        "tri-census holds vertex ids as u32; {n} vertices exceed {}",
        u32::MAX
    )))
}

/// What pass 1 learns from the rows alone.
#[derive(Default)]
struct Lengths {
    /// Row length per vertex of the chunk (saturating — only its order
    /// matters).
    len: Vec<u32>,
    entries: u128,
    /// degree (loops excluded) → vertex count
    deg: BTreeMap<u64, u128>,
}

fn lengths(set: &ShardSet, stop: &AtomicBool) -> Result<Lengths, AnalyzeError> {
    let parts: Vec<Lengths> = scan_rows(
        set,
        stop,
        |_| true,
        |p: &mut Lengths, v, row| {
            p.len.push(u32::try_from(row.len()).unwrap_or(u32::MAX));
            p.entries += row.len() as u128;
            let degree = row.len() as u64 - u64::from(contains_sorted(row, v));
            *p.deg.entry(degree).or_insert(0) += 1;
            Ok(())
        },
    )?;
    let mut all = Lengths::default();
    for p in parts {
        all.len.extend(p.len);
        all.entries += p.entries;
        for (k, c) in p.deg {
            *all.deg.entry(k).or_insert(0) += c;
        }
    }
    Ok(all)
}

/// The graph oriented from lower to higher `(row length, id)` rank:
/// `targets[offsets[v]..offsets[v + 1]]` are `v`'s higher-ranked
/// neighbours, ascending by id. An index into `targets` is that edge's
/// slot.
struct Forward {
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl Forward {
    fn out(&self, v: usize) -> Range<usize> {
        self.offsets[v]..self.offsets[v + 1]
    }

    /// The sources, for the passes that run over the lists in parallel.
    fn sources(&self) -> Range<usize> {
        0..self.offsets.len() - 1
    }
}

/// One chunk of pass 2.
#[derive(Default)]
struct Oriented {
    /// End of each vertex's forward list within `targets`.
    ends: Vec<usize>,
    targets: Vec<u32>,
    entries_are_edges: Check,
}

/// Stored entries of row `v` that are not the product's. The product's
/// row of `v = (i, k)` ([`KronProduct::row`]) is `A.row(i) × B.row(k)`,
/// strictly ascending, and the stored row is merged against it once: an
/// entry passes only where the merge meets it, so a non-edge fails, and
/// so does an edge stored twice or out of order — the copy stands where
/// another neighbour was lost. Nothing else on a plain `ShardSet::open`
/// checks the order. The
/// rows that pass are subsequences of the product's, and with the entry
/// total equal they *are* the product's.
fn check_entries(product: &KronProduct, v: u64, row: &Row<'_>, check: &mut Check) {
    let mut want = product.row(v).peekable();
    for u in row.cols() {
        check.checked += 1;
        while want.next_if(|&w| w < u).is_some() {}
        if want.next_if_eq(&u).is_none() {
            check.miss(|| Json::Arr(vec![Json::num(v), Json::num(u)]));
        }
    }
}

fn orient(
    set: &ShardSet,
    len: &[u32],
    product: Option<&KronProduct>,
    stop: &AtomicBool,
) -> Result<(Forward, Check), AnalyzeError> {
    let parts: Vec<Oriented> = scan_rows(
        set,
        stop,
        |_| true,
        |p: &mut Oriented, v, row| {
            let rank_v = (len[v as usize], v);
            // `cols` yields only `u < n_C`, and `fits_u32` bounded n_C
            p.targets.extend(
                row.cols()
                    .filter(|&u| (len[u as usize], u) > rank_v)
                    .map(|u| u as u32),
            );
            p.ends.push(p.targets.len());
            if let Some(product) = product {
                check_entries(product, v, row, &mut p.entries_are_edges);
            }
            Ok(())
        },
    )?;
    let mut offsets = Vec::with_capacity(len.len() + 1);
    offsets.push(0);
    let mut targets = Vec::with_capacity(parts.iter().map(|p| p.targets.len()).sum());
    let mut entries_are_edges = Check::default();
    for p in parts {
        let base = targets.len();
        offsets.extend(p.ends.iter().map(|end| base + end));
        targets.extend(p.targets);
        entries_are_edges.absorb(p.entries_are_edges);
    }
    Ok((Forward { offsets, targets }, entries_are_edges))
}

/// The probe pass: `Δ` per edge slot and the wedges it probed.
fn probe(dag: &Forward, stop: &AtomicBool) -> Result<(Vec<u32>, u128), AnalyzeError> {
    // Relaxed: the adds publish nothing, and the counts are read only
    // after the scoped workers are joined.
    let delta: Vec<AtomicU32> = dag.targets.iter().map(|_| AtomicU32::new(0)).collect();
    let credit = |slot: usize, by: u32| {
        delta[slot].fetch_add(by, Ordering::Relaxed);
    };
    let n = dag.sources().end;
    // Runs of sources, each with its own bitmap: at most one per worker
    // is alive at a time.
    let step = n.div_ceil(rayon::current_num_threads() * 4).max(1);
    let wedge_checks = (0..n.div_ceil(step))
        .into_par_iter()
        .map(|run| {
            let mut marks = BitSet::new(n);
            let mut own: Vec<u32> = Vec::new();
            let mut checks = 0u128;
            for v in run * step..n.min(run * step + step) {
                check_stop(stop)?;
                let out_v = &dag.targets[dag.out(v)];
                for &w in out_v {
                    marks.set(w.into());
                }
                own.clear();
                own.resize(out_v.len(), 0);
                for (at, &u) in out_v.iter().enumerate() {
                    let wedges = dag.out(u as usize);
                    checks += wedges.len() as u128;
                    for slot in wedges {
                        let w = dag.targets[slot];
                        if !marks.test(w.into()) {
                            continue;
                        }
                        // `Err` only on a list out of order, which
                        // `entries_are_edges` fails
                        if let Ok(p) = out_v.binary_search(&w) {
                            own[p] += 1;
                            own[at] += 1;
                            credit(slot, 1);
                        }
                    }
                }
                for (slot, &d) in dag.out(v).zip(&own) {
                    if d > 0 {
                        credit(slot, d);
                    }
                }
                for &w in out_v {
                    marks.clear(w.into());
                }
            }
            Ok(checks)
        })
        .reduce(|| Ok(0), |a, b| Ok(a? + b?))?;
    let delta = delta.into_iter().map(AtomicU32::into_inner).collect();
    Ok((delta, wedge_checks))
}

/// `t(v) = ½·Σ_{e ∋ v} Δ(e)`: every triangle at `v` credits exactly two
/// of `v`'s edges, so the sums are even by construction.
fn fold_vertices(dag: &Forward, delta: &[u32]) -> Vec<u64> {
    let mut t = vec![0u64; dag.offsets.len() - 1];
    for v in 0..t.len() {
        for slot in dag.out(v) {
            let d = u64::from(delta[slot]);
            t[v] += d;
            t[dag.targets[slot] as usize] += d;
        }
    }
    for x in &mut t {
        *x /= 2;
    }
    t
}

/// What the tally pass learns from one run of consecutive sources.
#[derive(Default)]
struct Tally {
    total: u128,
    max_t: u64,
    /// t(v) → vertex count
    tri: BTreeMap<u64, u128>,
    edge_triangles: Check,
    vertex_triangles: Check,
}

impl Tally {
    /// Fold in the tally of the next run of sources.
    fn absorb(mut self, later: Tally) -> Tally {
        self.total += later.total;
        self.max_t = self.max_t.max(later.max_t);
        for (k, c) in later.tri {
            *self.tri.entry(k).or_insert(0) += c;
        }
        self.edge_triangles.absorb(later.edge_triangles);
        self.vertex_triangles.absorb(later.vertex_triangles);
        self
    }

    /// Count `t(v)` and, with a product, compare it and the `Δ` of `v`'s
    /// forward edges with their closed forms.
    fn visit(
        &mut self,
        dag: &Forward,
        delta: &[u32],
        v: usize,
        got: u64,
        product: Option<&KronProduct>,
    ) {
        *self.tri.entry(got).or_insert(0) += 1;
        self.total += got as u128;
        self.max_t = self.max_t.max(got);
        let Some(product) = product else { return };
        let v64 = v as u64;
        self.vertex_triangles.checked += 1;
        let want = product.vertex_triangles(v64);
        if want != got {
            self.vertex_triangles.miss(|| {
                Json::obj(vec![
                    ("vertex", Json::num(v64)),
                    ("expected", Json::num(want)),
                    ("actual", Json::num(got)),
                ])
            });
        }
        for slot in dag.out(v) {
            let u = u64::from(dag.targets[slot]);
            let got = u64::from(delta[slot]);
            self.edge_triangles.checked += 1;
            let want = product.edge_triangles(v64, u);
            if want != Some(got) {
                self.edge_triangles.miss(|| {
                    Json::obj(vec![
                        ("edge", Json::Arr(vec![Json::num(v64), Json::num(u)])),
                        ("expected", want.map_or(Json::Null, Json::num)),
                        ("actual", Json::num(got)),
                    ])
                });
            }
        }
    }
}

/// Histogram `t`, and with a product compare every `t(v)` and every
/// `Δ(v, u)` with its closed form.
fn tally(
    dag: &Forward,
    delta: &[u32],
    t: &[u64],
    product: Option<&KronProduct>,
    stop: &AtomicBool,
) -> Result<Tally, AnalyzeError> {
    dag.sources()
        .into_par_iter()
        .fold(
            || Ok(Tally::default()),
            |p: Result<Tally, AnalyzeError>, v| {
                let mut p = p?;
                check_stop(stop)?;
                p.visit(dag, delta, v, t[v], product);
                Ok(p)
            },
        )
        .reduce(|| Ok(Tally::default()), |a, b| Ok(a?.absorb(b?)))
}

/// A total against its closed form, `{"expected", "actual", "ok"}`.
fn scalar(expected: u128, actual: u128) -> Json {
    Json::obj(vec![
        ("expected", Json::num(expected)),
        ("actual", Json::num(actual)),
        ("ok", Json::Bool(expected == actual)),
    ])
}

/// The recounted degree histogram against the factor joint-histogram
/// closed form, degree by degree; names the first diverging degree.
fn check_degrees(product: &KronProduct, got: &BTreeMap<u64, u128>) -> Json {
    let expected = kron::distributions::degree_histogram(product);
    let degrees: std::collections::BTreeSet<u64> =
        expected.keys().chain(got.keys()).copied().collect();
    for d in degrees {
        let want = expected.get(&d).copied().unwrap_or(0);
        let have = got.get(&d).copied().unwrap_or(0);
        if want != have {
            return Json::obj(vec![
                ("ok", Json::Bool(false)),
                ("first_mismatch_degree", Json::num(d)),
                ("expected", Json::num(want)),
                ("actual", Json::num(have)),
            ]);
        }
    }
    Json::obj(vec![("ok", Json::Bool(true))])
}

/// Run the census. With a `product` the document carries the
/// `"validation"` object — `"ok"` first, then the totals
/// (`total_entries`, `total_triangle_participation`, `degree_histogram`,
/// `edges`) and the element-wise checks (`entries_are_edges`,
/// `edge_triangles`, `vertex_triangles`) — and the returned flag is its
/// `"ok"`; without one the flag is `true`.
pub(crate) fn run(
    set: &ShardSet,
    product: Option<&KronProduct>,
    stop: &AtomicBool,
) -> Result<(Json, bool), AnalyzeError> {
    fits_u32(set.num_vertices())?;
    let rows = lengths(set, stop)?;
    let (dag, entries_are_edges) = orient(set, &rows.len, product, stop)?;
    let (delta, wedge_checks) = probe(&dag, stop)?;
    let t = fold_vertices(&dag, &delta);
    let tally = tally(&dag, &delta, &t, product, stop)?;

    let mut pairs = vec![
        ("kernel", Json::str("tri-census")),
        ("vertices", Json::num(set.num_vertices())),
        ("entries", Json::num(rows.entries)),
        ("triangles", Json::num(tally.total / 3)),
        ("total_triangle_participation", Json::num(tally.total)),
        ("max_vertex_triangles", Json::num(tally.max_t)),
        ("wedge_checks", Json::num(wedge_checks)),
        ("degree_histogram", crate::histogram_json(&rows.deg)),
        ("triangle_histogram", crate::histogram_json(&tally.tri)),
    ];
    let mut ok = true;
    if let Some(product) = product {
        let checks = vec![
            ("total_entries", scalar(set.total_entries(), rows.entries)),
            (
                "total_triangle_participation",
                scalar(product.total_triangle_participation(), tally.total),
            ),
            ("degree_histogram", check_degrees(product, &rows.deg)),
            (
                "edges",
                scalar(product.num_edges(), dag.targets.len() as u128),
            ),
            ("entries_are_edges", entries_are_edges.into_json()),
            ("edge_triangles", tally.edge_triangles.into_json()),
            ("vertex_triangles", tally.vertex_triangles.into_json()),
        ];
        ok = checks
            .iter()
            .all(|(_, check)| check.get("ok") == Some(&Json::Bool(true)));
        let mut validation = vec![("ok", Json::Bool(ok))];
        validation.extend(checks);
        pairs.push(("validation", Json::obj(validation)));
    }
    Ok((Json::obj(pairs), ok))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kron_gen::erdos_renyi;
    use kron_graph::Graph;
    use kron_stream::{stream_product, OutputFormat, StreamConfig};
    use kron_triangles::{count_triangles, edge_participation, vertex_participation};

    fn streamed(
        name: &str,
        c: &KronProduct,
        format: OutputFormat,
    ) -> (std::path::PathBuf, ShardSet) {
        let dir = std::env::temp_dir().join(format!("kron_census_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = StreamConfig::new(&dir, format);
        cfg.shards = 3;
        stream_product(c, &cfg).unwrap();
        let set = ShardSet::open(&dir).unwrap();
        (dir, set)
    }

    /// `G(n, p)` with a self loop on every `every`-th vertex (`0`: none).
    fn random_factor(n: usize, p: f64, seed: u64, every: usize) -> Graph {
        let g = erdos_renyi(n, p, seed);
        let loops = (0..n as u32).filter(|&v| every > 0 && (v as usize).is_multiple_of(every));
        Graph::from_edges(n, g.edges().chain(loops.map(|v| (v, v))))
    }

    /// The recount never consults the closed forms, so it can be held
    /// against the in-memory kernels on the materialized product: the
    /// triangle total, `t` at every vertex and `Δ` at every edge slot,
    /// with loops in neither, one or both factors, over both formats.
    #[test]
    fn recount_matches_the_in_memory_kernels_on_random_products() {
        let stop = AtomicBool::new(false);
        let mut seen = 0;
        for seed in 0..12u64 {
            let (la, lb) = [(0, 0), (2, 0), (0, 3), (2, 3)][seed as usize % 4];
            let a = random_factor(4 + seed as usize % 5, 0.5, seed, la);
            let b = random_factor(3 + seed as usize % 4, 0.6, 100 + seed, lb);
            let c = KronProduct::new(a, b);
            let g = c.materialize(1 << 20).unwrap();
            let want_t = vertex_participation(&g);
            let want_delta = edge_participation(&g);
            let format = [OutputFormat::Csr, OutputFormat::Csr2][seed as usize / 4 % 2];
            let (dir, set) = streamed(&format!("random{seed}"), &c, format);

            let rows = lengths(&set, &stop).unwrap();
            let (dag, _) = orient(&set, &rows.len, None, &stop).unwrap();
            let (delta, wedge_checks) = probe(&dag, &stop).unwrap();
            let t = fold_vertices(&dag, &delta);

            assert_eq!(dag.targets.len() as u64, g.num_edges(), "seed {seed}");
            assert_eq!(t, want_t, "seed {seed}");
            for v in 0..t.len() {
                for slot in dag.out(v) {
                    let at = g.edge_slot(v as u32, dag.targets[slot]).unwrap();
                    assert_eq!(u64::from(delta[slot]), want_delta[at], "seed {seed}");
                }
            }
            let triangles = count_triangles(&g).triangles;
            assert_eq!(t.iter().sum::<u64>(), 3 * triangles, "seed {seed}");
            // one probe per oriented wedge v → u → w: Σ_{v→u} |out(u)|
            let rank = |v: u32| (g.row_len(v), v);
            let out = |v: u32| g.neighbors(v).filter(move |&w| rank(w) > rank(v));
            let wedges: usize = (0..g.num_vertices() as u32)
                .flat_map(|v| out(v).map(|u| out(u).count()))
                .sum();
            assert_eq!(wedge_checks, wedges as u128, "seed {seed}");
            let m = g.num_edges() as f64;
            assert!(wedge_checks as f64 <= 3.0 * m.powf(1.5), "seed {seed}");

            // and the whole document, validation on, agrees with itself
            let (doc, ok) = run(&set, Some(&c), &stop).unwrap();
            assert!(ok, "seed {seed}: {doc}");
            assert_eq!(doc.get("triangles").unwrap().as_u64(), Some(triangles));
            seen += triangles;
            std::fs::remove_dir_all(&dir).ok();
        }
        assert!(
            seen > 100,
            "the random products must have triangles to count"
        );
    }

    #[test]
    fn a_raised_stop_flag_cancels_each_pass() {
        let c = KronProduct::new(random_factor(6, 0.7, 1, 0), random_factor(5, 0.7, 2, 2));
        let (dir, set) = streamed("cancel", &c, OutputFormat::Csr);
        let (go, raised) = (AtomicBool::new(false), AtomicBool::new(true));
        let cancelled = |r: Result<(), AnalyzeError>| matches!(r, Err(AnalyzeError::Cancelled));

        assert!(cancelled(lengths(&set, &raised).map(drop)));
        let rows = lengths(&set, &go).unwrap();
        assert!(cancelled(orient(&set, &rows.len, None, &raised).map(drop)));
        let (dag, _) = orient(&set, &rows.len, None, &go).unwrap();
        assert!(cancelled(probe(&dag, &raised).map(drop)));
        let (delta, _) = probe(&dag, &go).unwrap();
        let t = fold_vertices(&dag, &delta);
        assert!(cancelled(
            tally(&dag, &delta, &t, Some(&c), &raised).map(drop)
        ));
        assert!(tally(&dag, &delta, &t, Some(&c), &go).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn more_vertices_than_u32_holds_are_refused() {
        assert!(fits_u32(u64::from(u32::MAX)).is_ok());
        let err = fits_u32(u64::from(u32::MAX) + 1).unwrap_err();
        assert!(matches!(&err, AnalyzeError::Open(msg) if msg.contains("4294967296")));
    }
}
