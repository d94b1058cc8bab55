//! # kron-sparse — CSR sparse-matrix substrate
//!
//! A small, dependency-light sparse linear-algebra library built for the
//! `kron` workspace, which reproduces *"On Large-Scale Graph Generation with
//! Validation of Diverse Triangle Statistics at Edges and Vertices"*
//! (Sanders, Pearce, La Fond, Kepner — IPDPS 2018).
//!
//! The paper expresses every triangle statistic as a sparse-matrix formula
//! (`t = ½·diag(A³)`, `Δ = A ∘ A²`, the fifteen directed-type products of
//! `A_d`/`A_r`, label-filtered products `Π_q A Π_r`, …). This crate provides
//! exactly the operations those formulas need, so the rest of the workspace
//! can evaluate any formula *directly* as an independent oracle against the
//! graph-algorithm implementations:
//!
//! * [`CsrMatrix`] — compressed sparse row storage with sorted, deduplicated
//!   column indices;
//! * [`CsrMatrix::spgemm`] — sparse matrix–matrix product (rayon-parallel),
//!   the workhorse behind `A²`, `A³`, `A_d A_r A_d`, …;
//! * [`CsrMatrix::hadamard`] — elementwise product (`∘` in the paper);
//! * [`CsrMatrix::kron`] — the explicit Kronecker product `A ⊗ B`
//!   (Def. 1 of the paper), used to materialize small products in tests;
//! * diagonal operators — `diag(A)`, `D_A = I ∘ A` (as
//!   [`CsrMatrix::from_diag`] of `diag(A)`), structural diagonal removal
//!   (Rem. 3 of the paper);
//! * [`masked_spgemm`] — `(A·B) ∘ M` without forming `A·B`, the standard
//!   linear-algebraic triangle-counting kernel.
//!
//! Everything is generic over a minimal [`Scalar`] trait (implemented for the
//! unsigned/signed integers and `f64`), because triangle counts want `u64`
//! while the self-loop correction formulas of §III need signed intermediates.
//!
//! ## Example
//!
//! ```
//! use kron_sparse::CsrMatrix;
//!
//! // The triangle K3 as an adjacency matrix.
//! let a = CsrMatrix::<u64>::from_triplets(
//!     3,
//!     3,
//!     [(0, 1, 1), (1, 0, 1), (0, 2, 1), (2, 0, 1), (1, 2, 1), (2, 1, 1)],
//! );
//! // t = ½·diag(A³) — every vertex of K3 is in exactly one triangle.
//! let a3 = a.spgemm(&a).spgemm(&a);
//! let t: Vec<u64> = a3.diag().into_iter().map(|x| x / 2).collect();
//! assert_eq!(t, vec![1, 1, 1]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod csr;
mod kron;
mod masked;
mod ops;
mod scalar;
mod spgemm;

pub use csr::CsrMatrix;
pub use masked::masked_spgemm;
pub use scalar::Scalar;
