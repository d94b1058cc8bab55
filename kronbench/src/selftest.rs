//! The deliberate-corruption self-test: flip one byte of one shard and
//! show that the harness reports failed operations instead of passing —
//! on the artifact checks (`verify_shards`, `open_verified`) and on the
//! serving check (a served answer differing from the closed form).

use crate::inputs::web_product;
use crate::rig::{bind, stream_run, LoadConn, Node, WorkDir};
use crate::trace::Recorder;
use crate::workloads::serving::{closed_loop, prepare_queries, reference_engine, Window};
use crate::workloads::{check_artifact, Outcome};
use kron_serve::{AnswerSource, Query, ServerOptions};
use kron_stream::{load_manifest, OutputFormat};
use std::path::Path;

/// Flip the lowest bit of the last byte of shard 0's artifact: in both
/// shard formats that byte belongs to the last column of the shard's
/// last row.
pub fn flip_one_byte(dir: &Path) {
    let manifest = load_manifest(dir, 0).expect("shard 0 manifest");
    let path = dir.join(manifest.file.expect("the run has artifacts"));
    let mut bytes = std::fs::read(&path).expect("read shard 0");
    *bytes.last_mut().expect("shard 0 is not empty") ^= 1;
    std::fs::write(&path, bytes).expect("write shard 0 back");
}

/// Returns `(artifact failures, serving failures)` on a corrupted toy
/// run; both must be nonzero for the self-test to pass.
pub fn corruption() -> (u64, u64) {
    let work = WorkDir::new("selftest");
    let dir = work.path();
    let product = web_product(40);
    stream_run(&product, dir, OutputFormat::Csr2, 4);
    let last_row = load_manifest(dir, 0)
        .expect("shard 0 manifest")
        .vertices
        .end
        - 1;
    flip_one_byte(dir);

    let mut artifact = Outcome::default();
    check_artifact(dir, 1, &mut artifact);

    // a server that skips the checksums serves the damaged row; the
    // closed-form expectation catches it
    let queries: Vec<Query> = (last_row.saturating_sub(7)..=last_row)
        .map(Query::Neighbors)
        .collect();
    let requests = prepare_queries(&reference_engine(dir, AnswerSource::Oracle), &queries);
    let node = Node::start(
        bind(),
        reference_engine(dir, AnswerSource::Artifact),
        ServerOptions::default(),
    );
    let mut conn = LoadConn::connect(node.addr).expect("connect");
    let mut serving = Outcome::default();
    closed_loop(
        &mut conn,
        node.addr,
        &requests,
        Window::of(0.1, 0.0, false),
        &mut Recorder::off(),
        &mut serving,
    );
    (artifact.failed, serving.failed)
}

#[cfg(test)]
mod tests {
    #[test]
    fn one_flipped_byte_is_reported_not_passed() {
        let (artifact, serving) = super::corruption();
        assert!(
            artifact >= 2 && artifact % 2 == 0,
            "verify_shards and open_verified refuse the run every time"
        );
        assert!(
            serving > 0,
            "the damaged row's answer differs from the closed form"
        );
    }
}
