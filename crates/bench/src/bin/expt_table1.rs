//! **Experiment T1** — the paper's §VI table.
//!
//! Paper (with web-NotreDame, n = 325,729, m = 1,090,108, τ = 4,308,495):
//!
//! ```text
//! Matrix    Vertices   Edges   Triangles
//! A         325.7K     1.1M    4.3M
//! B = A+I   325.7K     1.4M*   4.3M        (*edges incl. 325.7K loops)
//! A ⊗ A     106.1B     2.38T   111.4T
//! A ⊗ B     106.1B     2.73T   141.0T
//! ```
//!
//! computed "in about 10.5 seconds on a commodity laptop … utilizing
//! 7,734,429 wedge checks". We reproduce the same pipeline with the
//! Holme–Kim stand-in at the same vertex count (`web_factor`); pass a
//! different `n` as `argv[1]` to rescale, or a path to the real SNAP file as
//! `argv[2]`.
//!
//! Known paper erratum: the §VI prose
//! repeats A⊗A's triangle count for A⊗B; the table's 141.0T is what the
//! Cor. 1 arithmetic gives, and what we print.

use kron::{KronProduct, ProductStats};
use kron_bench::web_factor;
use kron_graph::read_edge_list_path;
use kron_triangles::count_triangles;
use std::time::Instant;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(325_729);
    let a = match std::env::args().nth(2) {
        Some(path) => {
            println!("loading factor from {path}…");
            read_edge_list_path(&path)
                .expect("readable edge list")
                .without_self_loops()
        }
        None => {
            println!("generating web-NotreDame stand-in (Holme–Kim, n = {n})…");
            web_factor(n)
        }
    };

    let t_total = Instant::now();
    let tc = count_triangles(&a);
    let b = a.with_all_self_loops();
    let caa = KronProduct::new(a.clone(), a.clone());
    let cab = KronProduct::new(a.clone(), b.clone());
    let elapsed = t_total.elapsed();

    println!(
        "\n{:<12} {:>10} {:>10} {:>10}",
        "Matrix", "Vertices", "Edges", "Triangles"
    );
    let row_a = ProductStats {
        vertices: a.num_vertices() as u128,
        edges: a.num_edges() as u128,
        self_loops: 0,
        triangles: tc.triangles as u128,
    };
    let row_b = ProductStats {
        vertices: b.num_vertices() as u128,
        edges: b.num_edges() as u128 + b.num_self_loops() as u128, // paper counts loops as edges here
        self_loops: b.num_self_loops() as u128,
        triangles: tc.triangles as u128,
    };
    println!("{}", row_a.table_row("A"));
    println!("{}", row_b.table_row("B = A + I"));
    println!("{}", caa.stats().table_row("A (x) A"));
    println!("{}", cab.stats().table_row("A (x) B"));

    println!("\nexact values:");
    println!("  A      : {}", row_a);
    println!("  A (x) A: {}", caa.stats());
    println!("  A (x) B: {}", cab.stats());
    println!(
        "\nwhole table (triangle count on A + both product derivations): {elapsed:.2?} \
         [paper: ~10.5 s]"
    );
    println!(
        "wedge checks on A: {} [paper: 7,734,429] — nnz(A⊗A) = {} entries never touched",
        tc.wedge_checks,
        caa.nnz()
    );
    // consistency identities the paper's numbers obey
    assert_eq!(caa.stats().triangles, 6 * (tc.triangles as u128).pow(2));
    let (m, nn) = (a.num_edges() as u128, a.num_vertices() as u128);
    assert_eq!(
        cab.stats().triangles,
        tc.triangles as u128 * (6 * tc.triangles as u128 + 6 * m + nn)
    );
    println!("identities verified: τ(A⊗A) = 6·τ(A)²; τ(A⊗B) = τ(A)·(6τ+6m+n)");
}
