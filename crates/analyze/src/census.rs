//! Triangle + degree census by sorted-row intersection — the "hard way".
//!
//! The paper's headline statistics have closed forms from the factors
//! alone (Thm. 1, §III): this kernel deliberately ignores them and
//! recounts everything from the artifact, row by row, with the same
//! [`kron_triangles::slice`] merge kernels the point-query path uses —
//! per-vertex participation `t(v)` via the row-sum identity, degrees as
//! row length minus the self-loop slot (Rem. 3), wedge checks accounted
//! as in §VI. The totals are then compared against the closed forms
//! ([`CensusResult::validate`]): agreement certifies the artifact at
//! whole-graph scale, disagreement means corruption — the same verdict
//! contract as the serving tier's sampled cross-check, but exhaustive.

use crate::{scan_rows, AnalyzeError};
use kron::KronProduct;
use kron_stream::json::Json;
use kron_stream::ShardSet;
use kron_triangles::slice::{contains_sorted, vertex_triangles_rows};
use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;

/// The deterministic outcome of one census pass.
pub(crate) struct CensusResult {
    pub vertices: u64,
    pub entries: u128,
    pub total_participation: u128,
    pub max_vertex_triangles: u64,
    pub wedge_checks: u128,
    /// degree (loops excluded) → vertex count
    pub degree_histogram: BTreeMap<u64, u128>,
    /// t(v) → vertex count
    pub triangle_histogram: BTreeMap<u64, u128>,
    /// Closed-form expectations, kept for validation.
    expected_entries: u128,
}

#[derive(Default)]
struct Partial {
    entries: u128,
    total: u128,
    max_t: u64,
    checks: u128,
    deg: BTreeMap<u64, u128>,
    tri: BTreeMap<u64, u128>,
}

pub(crate) fn run(set: &ShardSet, stop: &AtomicBool) -> Result<CensusResult, AnalyzeError> {
    crate::dense_len(set)?;
    let parts: Vec<Partial> = scan_rows(
        set,
        stop,
        |_| true,
        |p: &mut Partial, v, row| {
            p.entries += row.len() as u128;
            let degree = row.len() as u64 - u64::from(contains_sorted(row, v));
            *p.deg.entry(degree).or_insert(0) += 1;
            let (t, checks) = vertex_triangles_rows(row, v, |u| set.row(u)).map_err(|u| {
                AnalyzeError::Corrupt(format!("row {v} names vertex {u}, which no shard owns"))
            })?;
            *p.tri.entry(t).or_insert(0) += 1;
            p.total += t as u128;
            p.max_t = p.max_t.max(t);
            p.checks += checks as u128;
            Ok(())
        },
    )?;

    let mut merged = Partial::default();
    for p in parts {
        merged.entries += p.entries;
        merged.total += p.total;
        merged.max_t = merged.max_t.max(p.max_t);
        merged.checks += p.checks;
        for (k, c) in p.deg {
            *merged.deg.entry(k).or_insert(0) += c;
        }
        for (k, c) in p.tri {
            *merged.tri.entry(k).or_insert(0) += c;
        }
    }
    Ok(CensusResult {
        vertices: set.num_vertices(),
        entries: merged.entries,
        total_participation: merged.total,
        max_vertex_triangles: merged.max_t,
        wedge_checks: merged.checks,
        degree_histogram: merged.deg,
        triangle_histogram: merged.tri,
        expected_entries: set.total_entries(),
    })
}

impl CensusResult {
    /// Compare the recounted totals against the closed forms of the
    /// factor copies. Returns the `"validation"` JSON object and whether
    /// every check passed.
    ///
    /// Checks, each `{"expected", "actual", "ok"}` (the histogram check
    /// instead names the first diverging degree on failure):
    ///
    /// - `total_entries` — `nnz(A)·nnz(B)` vs. entries counted;
    /// - `total_triangle_participation` — Thm. 1's `Σ t(v) = 3·τ(C)`
    ///   vs. the merge-counted sum (which must also be divisible by 3);
    /// - `degree_histogram` — the factor joint-histogram closed form vs.
    ///   the recounted histogram, degree by degree.
    pub(crate) fn validate(&self, product: &KronProduct) -> (Json, bool) {
        let scalar = |expected: u128, actual: u128| {
            let ok = expected == actual;
            (
                Json::obj(vec![
                    ("expected", Json::num(expected)),
                    ("actual", Json::num(actual)),
                    ("ok", Json::Bool(ok)),
                ]),
                ok,
            )
        };
        let (entries, entries_ok) = scalar(self.expected_entries, self.entries);
        let (total, mut total_ok) = scalar(
            product.total_triangle_participation(),
            self.total_participation,
        );
        total_ok &= self.total_participation.is_multiple_of(3);

        let expected_deg = kron::distributions::degree_histogram(product);
        let mut deg_ok = true;
        let mut first_mismatch = None;
        let degrees: std::collections::BTreeSet<u64> = expected_deg
            .keys()
            .chain(self.degree_histogram.keys())
            .copied()
            .collect();
        for d in degrees {
            let want = expected_deg.get(&d).copied().unwrap_or(0);
            let got = self.degree_histogram.get(&d).copied().unwrap_or(0);
            if want != got {
                deg_ok = false;
                first_mismatch = Some((d, want, got));
                break;
            }
        }
        let deg_json = match first_mismatch {
            None => Json::obj(vec![("ok", Json::Bool(true))]),
            Some((d, want, got)) => Json::obj(vec![
                ("ok", Json::Bool(false)),
                ("first_mismatch_degree", Json::num(d)),
                ("expected", Json::num(want)),
                ("actual", Json::num(got)),
            ]),
        };
        let ok = entries_ok && total_ok && deg_ok;
        (
            Json::obj(vec![
                ("ok", Json::Bool(ok)),
                ("total_entries", entries),
                ("total_triangle_participation", total),
                ("degree_histogram", deg_json),
            ]),
            ok,
        )
    }

    pub(crate) fn to_json(&self, validation: Option<Json>) -> Json {
        let mut pairs = vec![
            ("kernel", Json::str("tri-census")),
            ("vertices", Json::num(self.vertices)),
            ("entries", Json::num(self.entries)),
            ("triangles", Json::num(self.total_participation / 3)),
            (
                "total_triangle_participation",
                Json::num(self.total_participation),
            ),
            ("max_vertex_triangles", Json::num(self.max_vertex_triangles)),
            ("wedge_checks", Json::num(self.wedge_checks)),
            (
                "degree_histogram",
                crate::histogram_json(&self.degree_histogram),
            ),
            (
                "triangle_histogram",
                crate::histogram_json(&self.triangle_histogram),
            ),
        ];
        if let Some(v) = validation {
            pairs.push(("validation", v));
        }
        Json::obj(pairs)
    }
}
