//! `kron` — command-line interface to the nonstochastic Kronecker graph
//! generator with exact triangle statistics (Sanders et al., IPDPS 2018).
//!
//! `kron help` prints the synopsis of every subcommand and its options
//! (`USAGE` in `commands.rs` — the only copy, so it cannot drift).
//!
//! ## Exit codes
//!
//! * `0` — success.
//! * `1` — the command failed: unknown subcommand, missing argument, I/O
//!   or validation error, an out-of-range query, (for `kron serve`) any
//!   individual query in the batch failing, (for
//!   `--source cross-check`) any disagreement between the artifact and
//!   the closed-form oracle, or (for `kron analyze` and server analytics
//!   jobs) recounted whole-graph statistics contradicting the closed forms.
//!   The error on stderr names the offending
//!   file — `verify-shards` and `serve` failures always include the
//!   specific manifest or artifact path, and cross-check failures print
//!   each mismatching query with both answers.
//! * `2` — the command line itself could not be parsed (no subcommand).
//!
//! Scripts can rely on these: `kron verify-shards DIR && …` is a sound
//! integrity gate, `kron serve` only exits `0` when every query in the
//! batch was answered, and `kron query DIR p --source cross-check`
//! exiting `0` certifies the served answers against the paper's closed
//! forms. The `--listen` server follows the same contract at shutdown:
//! after SIGTERM/ctrl-c it exits `0` only if no answer checked under
//! `--source cross-check` disagreed with the closed-form oracle during
//! the entire run — and a
//! cluster node (`--shards A..B`) applies that contract to queries it
//! answered with *remote* rows too, so a tampered artifact anywhere in
//! the cluster fails the node that served its bytes to a client.
//! `kron route` exits `1` only when it cannot start (unreachable peer,
//! gap/overlap in the claimed shard ranges); query-time peer failures
//! surface to clients as `502` responses, never as silent exits.
//! `kron analyze` applies the same two rules: a finished recount that
//! contradicts the closed forms exits `1` (the mismatch report still
//! prints on stdout), while SIGTERM/ctrl-c mid-kernel cancels
//! cooperatively and exits `0` with no verdict — and the `--listen`
//! server treats its analytics jobs identically (a validation-failed
//! job fails the run at shutdown; a cancelled one does not).

mod args;
mod commands;
mod signals;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match args::parse(&argv) {
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}", commands::USAGE);
            2
        }
        Ok(parsed) => match commands::run(&parsed) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("error: {e}");
                1
            }
        },
    };
    std::process::exit(code);
}
