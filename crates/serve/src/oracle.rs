//! The closed-form answer source: the paper's formulas served from the
//! run directory's factor copies, no shard I/O per query.
//!
//! Every `kron stream` run directory carries copies of both factor edge
//! lists (`factor_a.tsv` / `factor_b.tsv`, named by `run.json`) precisely
//! so the run stays self-describing. [`FactorOracle`] loads those copies
//! back into an implicit [`KronProduct`] and answers the same point
//! queries the artifact path serves — degree and per-vertex triangles in
//! `O(1)` from the precomputed factor statistic vectors (Thm. 1 / Cor. 1 /
//! §III-B), `has_edge` and per-edge triangles by two binary searches in
//! factor rows (Thm. 2 / Cor. 2 / §III-C) — without touching a single
//! mapped page.
//!
//! Loading goes through [`kron_stream::load_factors`], which cross-
//! validates the factor copies against `run.json` (vertex counts,
//! adjacency nnz, closed-form triangle sum), so a run directory whose
//! factors were swapped or truncated after generation is rejected instead
//! of silently answering for a different product.

use crate::engine::ServeError;
use kron::KronProduct;
use kron_stream::RunSummary;
use std::path::Path;

/// Closed-form query oracle over the run directory's factor copies.
///
/// Construction is `O(nnz(A) + nnz(B))` (edge-list parse plus the factor
/// statistic precomputation); afterwards every query is answered from the
/// factors alone. Out-of-range handling matches the artifact path exactly:
/// the same [`ServeError::VertexOutOfRange`] on the same inputs.
pub struct FactorOracle {
    product: KronProduct,
}

impl std::fmt::Debug for FactorOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FactorOracle")
            .field("product", &self.product)
            .finish()
    }
}

impl FactorOracle {
    /// Load the factor copies named by `run` from `dir` and build the
    /// implicit product, rejecting factors that disagree with `run.json`
    /// (see [`kron_stream::load_factors`]).
    ///
    /// # Errors
    ///
    /// [`ServeError::Oracle`] naming the factor copy that is missing,
    /// unreadable, or inconsistent with `run.json` (vertex counts,
    /// adjacency nnz, closed-form triangle sum).
    pub fn load(dir: &Path, run: &RunSummary) -> Result<FactorOracle, ServeError> {
        kron_stream::load_factors(dir, run)
            .map(|product| FactorOracle { product })
            .map_err(|e| ServeError::Oracle(e.to_string()))
    }

    /// The implicit product rebuilt from the factor copies.
    pub fn product(&self) -> &KronProduct {
        &self.product
    }

    /// Product vertex count `n_C`.
    pub fn num_vertices(&self) -> u64 {
        self.product.num_vertices()
    }

    fn check_vertex(&self, v: u64) -> Result<(), ServeError> {
        if v < self.product.num_vertices() {
            Ok(())
        } else {
            Err(ServeError::VertexOutOfRange {
                vertex: v,
                num_vertices: self.product.num_vertices(),
            })
        }
    }

    /// Degree of `v` in closed form (loops excluded, §III-A).
    ///
    /// # Errors
    ///
    /// [`ServeError::VertexOutOfRange`] for `v ≥ n_C` — identical to the
    /// artifact path on the same inputs.
    pub fn degree(&self, v: u64) -> Result<u64, ServeError> {
        self.check_vertex(v)?;
        Ok(self.product.degree(v))
    }

    /// The sorted adjacency row of `v`, materialized from the factor rows
    /// (self loop included, identical to the on-disk CSR row).
    ///
    /// # Errors
    ///
    /// [`ServeError::VertexOutOfRange`] for `v ≥ n_C` — identical to the
    /// artifact path on the same inputs.
    pub fn neighbors(&self, v: u64) -> Result<Vec<u64>, ServeError> {
        self.check_vertex(v)?;
        Ok(self.product.neighbors(v))
    }

    /// Whether `{u, v}` is an adjacency entry: `C_uv = A_ij·B_kl`, two
    /// binary searches in factor rows.
    ///
    /// # Errors
    ///
    /// [`ServeError::VertexOutOfRange`] for either id ≥ `n_C` — identical to the
    /// artifact path on the same inputs.
    pub fn has_edge(&self, u: u64, v: u64) -> Result<bool, ServeError> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        Ok(self.product.has_edge(u, v))
    }

    /// Triangle participation `t_C(v)` in `O(1)` from factor terms
    /// (Thm. 1 / Cor. 1 / the general §III-B formula).
    ///
    /// # Errors
    ///
    /// [`ServeError::VertexOutOfRange`] for `v ≥ n_C` — identical to the
    /// artifact path on the same inputs.
    pub fn vertex_triangles(&self, v: u64) -> Result<u64, ServeError> {
        self.check_vertex(v)?;
        Ok(self.product.vertex_triangles(v))
    }

    /// Triangle participation `Δ_C[{u, v}]` (Thm. 2 / Cor. 2 / §III-C), or
    /// `None` if `{u, v}` is not an edge; self loops report `Some(0)`.
    ///
    /// # Errors
    ///
    /// [`ServeError::VertexOutOfRange`] for either id ≥ `n_C` — identical to the
    /// artifact path on the same inputs.
    pub fn edge_triangles(&self, u: u64, v: u64) -> Result<Option<u64>, ServeError> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        Ok(self.product.edge_triangles(u, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kron_graph::Graph;
    use kron_stream::{stream_product, OutputFormat, StreamConfig};
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("kron_serve_oracle_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn product() -> KronProduct {
        let a = Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 4), (5, 5)]);
        let b = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (3, 3), (0, 0)]);
        KronProduct::new(a, b)
    }

    fn streamed(dir: &Path, c: &KronProduct) -> RunSummary {
        let mut cfg = StreamConfig::new(dir, OutputFormat::Csr);
        cfg.shards = 2;
        stream_product(c, &cfg).unwrap()
    }

    #[test]
    fn oracle_reproduces_every_closed_form() {
        let dir = tmpdir("closed_form");
        let c = product();
        let run = streamed(&dir, &c);
        let o = FactorOracle::load(&dir, &run).unwrap();
        assert_eq!(o.num_vertices(), c.num_vertices());
        for v in 0..c.num_vertices() {
            assert_eq!(o.degree(v).unwrap(), c.degree(v));
            assert_eq!(o.neighbors(v).unwrap(), c.neighbors(v));
            assert_eq!(o.vertex_triangles(v).unwrap(), c.vertex_triangles(v));
            for q in 0..c.num_vertices() {
                assert_eq!(o.has_edge(v, q).unwrap(), c.has_edge(v, q));
                assert_eq!(o.edge_triangles(v, q).unwrap(), c.edge_triangles(v, q));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_range_matches_artifact_semantics() {
        let dir = tmpdir("oob");
        let c = product();
        let run = streamed(&dir, &c);
        let o = FactorOracle::load(&dir, &run).unwrap();
        let n = o.num_vertices();
        for bad in [n, n + 3, u64::MAX] {
            assert!(matches!(
                o.degree(bad),
                Err(ServeError::VertexOutOfRange { vertex, .. }) if vertex == bad
            ));
            assert!(o.neighbors(bad).is_err());
            assert!(o.vertex_triangles(bad).is_err());
            assert!(o.has_edge(0, bad).is_err());
            assert!(o.has_edge(bad, 0).is_err());
            assert!(o.edge_triangles(0, bad).is_err());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn swapped_factor_copy_is_rejected() {
        let dir = tmpdir("swapped");
        let c = product();
        let run = streamed(&dir, &c);
        // overwrite factor_a with a different graph of the same vertex count
        let other = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        kron_graph::write_edge_list_path(&other, dir.join(&run.factor_a)).unwrap();
        let err = FactorOracle::load(&dir, &run).unwrap_err();
        assert!(matches!(err, ServeError::Oracle(_)), "{err}");
        assert!(err.to_string().contains("factor"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_factor_copy_names_the_file() {
        let dir = tmpdir("missing");
        let c = product();
        let run = streamed(&dir, &c);
        std::fs::remove_file(dir.join(&run.factor_b)).unwrap();
        let err = FactorOracle::load(&dir, &run).unwrap_err();
        assert!(err.to_string().contains("factor_b.tsv"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
