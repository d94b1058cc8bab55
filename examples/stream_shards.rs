//! Sharded, validated edge-stream generation end to end: plan shards,
//! stream them into on-disk CSR artifacts, read rows back through the
//! mmap reader, verify everything, and resume a partial run.
//!
//! ```text
//! cargo run --release --example stream_shards
//! ```

use kron::{human_count, KronProduct};
use kron_gen::holme_kim;
use kron_stream::{
    load_manifest, stream_product, verify_shards, CsrMap, OutputFormat, ShardPlan, StreamConfig,
};

fn main() {
    // Two web-like factors; the product has ~n² of everything.
    let a = holme_kim(400, 3, 0.75, 2018);
    let b = holme_kim(300, 3, 0.75, 2019);
    let c = KronProduct::new(a, b);
    println!(
        "product: {} vertices, {} adjacency entries, {} triangles",
        human_count(c.num_vertices() as u128),
        human_count(c.nnz()),
        human_count(c.total_triangles()),
    );

    // 1. The plan: contiguous left-factor row blocks, balanced by nnz.
    let shards = 8;
    let plan = ShardPlan::new(&c, shards);
    println!(
        "\nplan: {shards} shards, heaviest = {} entries",
        plan.max_shard_entries()
    );
    for spec in plan.iter() {
        println!(
            "  shard {}: A-rows {:>4}..{:<4} {:>9} entries, Σt_C = {}",
            spec.index,
            spec.stats.rows.start,
            spec.stats.rows.end,
            spec.stats.nnz,
            spec.stats.triangle_sum,
        );
    }

    // 2. Stream into CSR artifacts with per-shard manifests.
    let dir = std::env::temp_dir().join("kron_stream_example");
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = StreamConfig::new(&dir, OutputFormat::Csr);
    cfg.shards = shards;
    let run = stream_product(&c, &cfg).expect("stream run");
    println!(
        "\nstreamed {} entries on {} thread(s) in {:.2}s ({} entries/s)",
        human_count(run.total_entries),
        run.threads,
        run.elapsed_secs,
        human_count((run.total_entries as f64 / run.elapsed_secs.max(1e-9)) as u128),
    );

    // 3. Zero-copy reads: pick a product vertex, fetch its row via mmap.
    let p = c.num_vertices() / 2;
    let owner = plan
        .iter()
        .find(|s| s.stats.vertices.contains(&p))
        .expect("some shard owns p");
    let m = load_manifest(&dir, owner.index).expect("manifest");
    let reader = CsrMap::open(&dir.join(m.file.as_deref().unwrap())).expect("open CSR");
    let row = reader.row(p).unwrap();
    println!(
        "vertex {p}: degree {} on disk == closed form {} (first neighbors: {:?})",
        row.len() as u64 - u64::from(c.has_self_loop(p)),
        c.degree(p),
        &row[..row.len().min(5)],
    );

    // 4. Independent validation: closed-form checksums + artifact hashes.
    let report = verify_shards(&dir, false).expect("verify");
    println!(
        "\nverify-shards: {} shards, {} entries, {} artifact bytes — all checksums match",
        report.shards,
        human_count(report.total_entries),
        report.artifact_bytes,
    );

    // 5. Resume: delete one artifact, rerun with resume — only that shard
    //    regenerates.
    std::fs::remove_file(dir.join(m.file.as_deref().unwrap())).unwrap();
    cfg.resume = true;
    let rerun = stream_product(&c, &cfg).expect("resume run");
    println!(
        "resume: {} of {} shards reused, shard {} regenerated",
        rerun.resumed_shards, shards, owner.index
    );
    verify_shards(&dir, false).expect("verify after resume");

    std::fs::remove_dir_all(&dir).ok();
    println!("\n(For the paper-scale run, stream two 2^10-vertex R-MAT factors:");
    println!("  kron gen rmat --n 1024 --m 32 --out a.tsv   # ≥10⁹-entry product");
    println!("  kron stream a.tsv a.tsv --out run/ --shards 64 --format count");
    println!("  kron verify-shards run/ --rehash)");
}
