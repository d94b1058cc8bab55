//! # kron-gen — graph generators
//!
//! Factor-graph generators for the `kron` workspace:
//!
//! * [`deterministic`] — closed-form families used throughout the paper's
//!   examples: cliques `K_n`, looped cliques `J_n` (Ex. 1), the hub-cycle
//!   graph of Ex. 2 / Fig. 3, cycles, paths, stars;
//! * [`erdos_renyi`] / [`barabasi_albert`] — standard random models for
//!   factors;
//! * [`holme_kim()`] — powerlaw-with-clustering model; the workspace's
//!   **substitute for the SNAP `web-NotreDame` graph** of §VI:
//!   scale-free, heavy-tailed, rich in triangles;
//! * [`one_triangle_per_edge`] — the paper's §III-D strategy (b): a
//!   preferential-attachment power-law generator guaranteeing `Δ_B ≤ 1`,
//!   the hypothesis of the truss theorem (Thm. 3);
//! * [`triangle_sparsify`] — §III-D strategy (a): delete edges from a real
//!   graph until `Δ ≤ 1`, protecting a spanning tree to keep connectivity;
//! * [`rmat()`] / [`stochastic_kronecker`] — the *stochastic* generators the
//!   paper contrasts against (Rem. 1: stochastic Kronecker graphs have
//!   relatively few triangles — the experiment `expt_rem1_stochastic`
//!   reproduces this).
//!
//! All random generators are deterministic given their `seed`.
//!
//! ## Example
//!
//! ```
//! use kron_gen::{deterministic::clique, holme_kim};
//!
//! // K5: the closed-form family of the paper's Ex. 1.
//! let k5 = clique(5);
//! assert_eq!((k5.num_vertices(), k5.num_edges()), (5, 10));
//!
//! // A scale-free, triangle-rich factor (the web-NotreDame stand-in);
//! // deterministic given the seed.
//! let web = holme_kim(200, 3, 0.75, 2018);
//! assert_eq!(web, holme_kim(200, 3, 0.75, 2018));
//! assert!(web.num_edges() > 200);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deterministic;

mod ba;
mod er;
mod holme_kim;
mod one_triangle;
mod rmat;
mod skg;
mod sparsify;
mod wedge_close;

pub use ba::barabasi_albert;
pub use er::erdos_renyi;
pub use holme_kim::holme_kim;
pub use one_triangle::one_triangle_per_edge;
pub use rmat::{rmat, RmatParams};
pub use skg::stochastic_kronecker;
pub use sparsify::triangle_sparsify;
pub use wedge_close::close_wedges;
