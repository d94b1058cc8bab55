//! # kron-graph — graph substrate
//!
//! Graph representations and algorithms underpinning the `kron` workspace
//! (reproduction of Sanders et al., *IPDPS 2018*): compact CSR adjacency
//! structures for undirected, directed, and vertex-labeled graphs, plus the
//! supporting machinery the paper's constructions need — builders with
//! deduplication, traversal (BFS / connected components / spanning trees),
//! egonet extraction (the paper's §VI validation methodology), plain-text
//! edge-list I/O, and lossless conversion to/from `kron_sparse::CsrMatrix`
//! so that every statistic can be cross-checked against its linear-algebra
//! definition.
//!
//! ## Conventions
//!
//! * Vertices are `u32` and 0-based (the paper's formulas are 1-based; the
//!   index maps in the `kron` core crate document the shift).
//! * An undirected [`Graph`] stores each edge in both endpoint rows; the
//!   *undirected edge count* [`Graph::num_edges`] counts each once.
//! * Self loops are first-class citizens (Rem. 3 of the paper: loops in the
//!   factors boost triangles in the product): a loop appears once in its
//!   row, is excluded from [`Graph::degree`] (matching `d_A = (A − I∘A)·1`),
//!   and is tracked by [`Graph::num_self_loops`].
//!
//! ## Example
//!
//! ```
//! use kron_graph::Graph;
//!
//! let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]);
//! assert_eq!(g.num_vertices(), 4);
//! assert_eq!(g.num_edges(), 4);
//! assert_eq!(g.degree(2), 3);
//! assert!(g.has_edge(0, 2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod convert;
mod digraph;
mod egonet;
mod io;
mod labeled;
mod traversal;
mod undirected;
mod unionfind;

pub use builder::GraphBuilder;
pub use digraph::DiGraph;
pub use egonet::{egonet, induced_subgraph, Egonet};
pub use io::{read_edge_list, read_edge_list_path, write_edge_list, write_edge_list_path};
pub use labeled::{Label, LabeledGraph};
pub use traversal::{bfs_distances, connected_components, is_connected, spanning_tree};
pub use undirected::Graph;
pub use unionfind::UnionFind;
