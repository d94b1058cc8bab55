//! # kron — nonstochastic Kronecker product graphs with exact triangle
//! statistics
//!
//! A reproduction of **"On Large-Scale Graph Generation with Validation of
//! Diverse Triangle Statistics at Edges and Vertices"** (Sanders, Pearce,
//! La Fond, Kepner — IPDPS Workshops 2018, arXiv:1803.09021).
//!
//! Given two medium-sized factor graphs `A` and `B`, the Kronecker product
//! `C = A ⊗ B` has `n_A·n_B` vertices and `nnz(A)·nnz(B)` adjacency
//! entries, yet is represented here *implicitly* in `O(|E_C|^{1/2})` memory.
//! Edges stream out in a communication-free loop, and — the paper's
//! contribution — **exact** local triangle statistics of the trillion-edge
//! product are computed from factor statistics at ~square-root cost:
//!
//! | API | Formula (paper result) |
//! |---|---|
//! | [`KronProduct::degree`] | `d_C = d_A ⊗ d_B` + self-loop variants (§III-A) |
//! | [`KronProduct::vertex_triangles`] | `t_C = 2·t_A ⊗ t_B` (Thm. 1), `t_A ⊗ diag(B³)` (Cor. 1), general §III-B |
//! | [`KronProduct::edge_triangles`] | `Δ_C = Δ_A ⊗ Δ_B` (Thm. 2), `Δ_A ⊗ (B∘B²)` (Cor. 2), general §III-C |
//! | [`KronProduct::total_triangles`] | `τ(C) = 6·τ(A)·τ(B)` and generalizations |
//! | [`product_truss`] | truss decomposition of `C` from `A`'s (Thm. 3) |
//! | [`KronDirectedProduct`] | 15 directed triangle types (Thms. 4–5) |
//! | [`KronLabeledProduct`] | labeled triangle types (Thms. 6–7) |
//! | [`KronChain`] | multi-factor products `A₁ ⊗ ⋯ ⊗ A_k` (extension) |
//!
//! Every formula is backed by a validation path that materializes small
//! products or individual egonets and checks the numbers exactly — the
//! methodology of the paper's §VI: [`validate`] and [`KronProduct::egonet`]
//! for the undirected statistics, the workspace's directed and labeled
//! integration tests for Thms. 4–7.
//!
//! The row-block partition API ([`KronProduct::partition_rows_by_nnz`],
//! [`RowBlockStats`]) underpins the durable pipeline built on top of this
//! crate: `kron-stream` generates nnz-balanced shards with closed-form
//! per-shard checksums, and `kron-serve` answers the statistics above off
//! the resulting mmap'd CSR artifacts without loading the graph. See
//! `ARCHITECTURE.md` at the repository root for the crate graph and the
//! normative on-disk format specification.
//!
//! ## Quickstart
//!
//! ```
//! use kron::KronProduct;
//! use kron_graph::Graph;
//!
//! // Two triangles as factors…
//! let a = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
//! let b = a.clone();
//! let c = KronProduct::new(a, b);
//!
//! // …make a 9-vertex product with 6·τ(A)·τ(B) = 6 triangles.
//! assert_eq!(c.num_vertices(), 9);
//! assert_eq!(c.total_triangles(), 6);
//! // Every vertex participates in 2·t_A(i)·t_B(k) = 2 triangles (Thm. 1).
//! assert_eq!(c.vertex_triangles(4), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blocks;
mod chain;
mod directed;
pub mod distributions;
mod egonet;
mod error;
mod factor_stats;
mod index;
mod labeled;
mod product;
mod stats;
mod truss_product;
pub mod tuning;
pub mod validate;

pub use blocks::{RowBlockStats, RowRuns, RUN_CAPACITY};
pub use chain::KronChain;
pub use directed::KronDirectedProduct;
pub use error::KronError;
pub use index::ProductIndexer;
pub use labeled::KronLabeledProduct;
pub use product::{KronProduct, LoopProfile};
pub use stats::{human_count, ProductStats};
pub use truss_product::{product_truss, KronTruss};
