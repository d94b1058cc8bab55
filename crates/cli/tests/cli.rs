//! End-to-end tests of the `kron` binary (spawned as a real process).

use std::path::PathBuf;
use std::process::{Command, Output};

fn kron(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_kron"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kron_cli_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn help_prints_usage() {
    let out = kron(&["help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn unknown_subcommand_fails_cleanly() {
    let out = kron(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));
}

#[test]
fn an_option_the_subcommand_does_not_take_is_refused_before_anything_runs() {
    // An existing directory that is no run: had the command run, it would
    // fail on run.json instead.
    let dir = tmpdir().join("typo_not_a_run");
    std::fs::create_dir_all(&dir).unwrap();
    let dir = dir.to_str().unwrap();
    // the typo is named even where a valid option is missing its value
    let typos: [(&[&str], &str); 3] = [
        (&["verify-shards", dir, "--rehsh"], "--rehsh"),
        (&["serve", dir, "--lisen", "127.0.0.1:0"], "--lisen"),
        (
            &["serve", dir, "--lisen", "127.0.0.1:0", "--cache"],
            "--lisen",
        ),
    ];
    for (args, typo) in typos {
        let out = kron(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown option {typo}")),
            "{stderr}"
        );
        assert!(!stderr.contains("run.json"), "{args:?} ran: {stderr}");
    }
}

#[test]
fn a_flag_given_a_value_and_an_option_given_none_are_refused_before_anything_runs() {
    // Had either command run, it would fail on run.json or on reading
    // its missing factor files instead.
    let dir = tmpdir().join("flag_value_not_a_run");
    std::fs::create_dir_all(&dir).unwrap();
    let dir = dir.to_str().unwrap();
    let cases: [(&[&str], &str); 2] = [
        (
            &["verify-shards", dir, "--rehash", "yes"],
            "verify-shards: flag --rehash takes no value",
        ),
        (
            &["stream", "no_a.tsv", "no_b.tsv", "--out", dir, "--shards"],
            "stream: option --shards needs a value",
        ),
    ];
    for (args, refusal) in cases {
        let out = kron(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(refusal), "{stderr}");
        assert!(
            !stderr.contains("run.json") && !stderr.contains("no_a.tsv"),
            "{args:?} ran: {stderr}"
        );
    }
}

#[test]
fn every_option_usage_lists_is_accepted() {
    let help = String::from_utf8(kron(&["help"]).stdout).unwrap();
    // a synopsis is a `kron <cmd>` line plus the `[…]` lines under it
    let mut synopses: Vec<(String, Vec<String>)> = Vec::new();
    let mut inside = false;
    for line in help.lines().map(str::trim_start) {
        if let Some(rest) = line.strip_prefix("kron ") {
            let cmd = rest.split(' ').next().unwrap();
            inside = cmd.starts_with(|c: char| c.is_ascii_lowercase());
            if inside {
                synopses.push((cmd.to_string(), Vec::new()));
            }
        } else if !line.starts_with('[') {
            inside = false;
        }
        if inside {
            let options = line
                .split_whitespace()
                .filter_map(|tok| tok.trim_start_matches('[').strip_prefix("--"))
                .map(|opt| opt.split(['|', ']', '[', '=']).next().unwrap());
            let (_, all) = synopses.last_mut().unwrap();
            all.extend(options.map(|opt| format!("--{opt}")));
        }
    }
    let listed = |cmd: &str, opt: &str| {
        synopses
            .iter()
            .any(|(c, all)| c == cmd && all.iter().any(|o| o == opt))
    };
    assert!(listed("verify-shards", "--rehash") && listed("gen", "--loops"));
    assert!(listed("serve", "--peers") && listed("analyze", "--no-validate"));
    // every option as a bare flag and no positional: unknown names are
    // refused across the whole line before any other complaint, so no
    // command may report one of these as unknown
    for (cmd, options) in &synopses {
        let args: Vec<&str> = std::iter::once(cmd.as_str())
            .chain(options.iter().map(String::as_str))
            .collect();
        let out = kron(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("unknown option"), "{args:?}: {stderr}");
    }
}

#[test]
fn missing_args_exit_nonzero() {
    let out = kron(&["stats"]);
    assert!(!out.status.success());
    let out = kron(&[]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn gen_writes_parseable_edge_lists() {
    let dir = tmpdir();
    let a = dir.join("gen_a.tsv");
    let out = kron(&[
        "gen",
        "holme-kim",
        "--n",
        "200",
        "--m",
        "2",
        "--seed",
        "1",
        "--out",
        a.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let g = kron_graph::read_edge_list_path(&a).unwrap();
    assert_eq!(g.num_edges(), 2 + (200 - 3) * 2);
}

#[test]
fn gen_to_stdout() {
    let out = kron(&["gen", "clique", "--n", "4"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.lines().count(), 6); // C(4,2) edges
}

#[test]
fn full_pipeline_stats_truss_query_validate() {
    let dir = tmpdir();
    let a = dir.join("pipe_a.tsv");
    let b = dir.join("pipe_b.tsv");
    assert!(kron(&[
        "gen",
        "ba",
        "--n",
        "120",
        "--m",
        "3",
        "--seed",
        "3",
        "--out",
        a.to_str().unwrap()
    ])
    .status
    .success());
    assert!(kron(&[
        "gen",
        "one-triangle",
        "--n",
        "80",
        "--seed",
        "4",
        "--out",
        b.to_str().unwrap()
    ])
    .status
    .success());

    let out = kron(&["stats", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("A (x) B"));
    assert!(text.contains("Vertices"));

    let out = kron(&["truss", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("max trussness"));

    let out = kron(&["query", a.to_str().unwrap(), b.to_str().unwrap(), "777"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("triangles t_C"));

    let out = kron(&["egonet", a.to_str().unwrap(), b.to_str().unwrap(), "777"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("egonet of 777"));

    let out = kron(&[
        "validate",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--samples",
        "5",
    ]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("spot check passed"));
}

#[test]
fn truss_refuses_bad_factor() {
    let dir = tmpdir();
    let a = dir.join("bad_a.tsv");
    // a clique has edges in many triangles: Δ_B > 1
    assert!(
        kron(&["gen", "clique", "--n", "6", "--out", a.to_str().unwrap()])
            .status
            .success()
    );
    let out = kron(&["truss", a.to_str().unwrap(), a.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("at most one triangle"));
}

#[test]
fn query_out_of_range_vertex() {
    let dir = tmpdir();
    let a = dir.join("range_a.tsv");
    assert!(
        kron(&["gen", "cycle", "--n", "5", "--out", a.to_str().unwrap()])
            .status
            .success()
    );
    let out = kron(&["query", a.to_str().unwrap(), a.to_str().unwrap(), "999999"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of range"));
}

#[test]
fn query_refuses_an_out_of_range_second_vertex() {
    // K3 ⊗ K3 has n_C = 9 vertices; q = 3·2³² truncates to vertex 0 in a
    // u32 factor index, so it must be refused like p, never answered
    let dir = tmpdir();
    let k3 = dir.join("range_k3.tsv");
    let k3 = k3.to_str().unwrap();
    assert!(kron(&["gen", "clique", "--n", "3", "--out", k3])
        .status
        .success());
    for q in ["9", "12884901888"] {
        let out = kron(&["query", k3, k3, "4", q]);
        assert_eq!(out.status.code(), Some(1), "q = {q}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("out of range"), "q = {q}: {stderr}");
        assert!(out.stdout.is_empty(), "q = {q}: nothing is answered");
    }
}

#[test]
fn engine_options_are_refused_alike_before_any_open() {
    // An existing directory that is no run: opening it would fail with a
    // different message, so the option error must come first.
    let dir = tmpdir().join("options_not_a_run");
    std::fs::create_dir_all(&dir).unwrap();
    let dir = dir.to_str().unwrap();
    let queries = tmpdir().join("options_queries.txt");
    std::fs::write(&queries, "degree 0\n").unwrap();
    let queries = queries.to_str().unwrap();
    let commands: [&[&str]; 3] = [
        &["query", dir, "0"],
        &["path", dir, "--from", "0", "--to", "1"],
        &["serve", dir, "--queries", queries],
    ];
    // `cross-check` takes no sampling rate and has no unhyphenated alias
    let alias = "cross-check".replace('-', "");
    let sampled = [0, 4].map(|n| format!("cross-check:{n}"));
    let mut cases: Vec<(&str, String, String)> = ["bogus", &sampled[0], &sampled[1], &alias]
        .map(|v| {
            let message = format!(
                "--source: unknown answer source {v:?} (expected artifact, oracle, or cross-check)"
            );
            ("--source", v.to_string(), message)
        })
        .into();
    cases.push((
        "--cache",
        "12q".into(),
        "--cache: cannot parse \"12q\"".into(),
    ));
    for (option, value, message) in cases {
        let mut seen: Vec<String> = Vec::new();
        for command in commands {
            if option == "--cache" && command[0] != "serve" {
                // a traversal reads no row through the LRU, and a one-shot
                // lookup could hit it once at most: no --cache
                continue;
            }
            let mut args = command.to_vec();
            args.extend([option, value.as_str()]);
            let out = kron(&args);
            assert_eq!(out.status.code(), Some(1), "{args:?}");
            assert!(out.stdout.is_empty(), "{args:?}");
            let stderr = String::from_utf8_lossy(&out.stderr).to_string();
            assert!(stderr.contains(&message), "{args:?}: {stderr}");
            assert!(!stderr.contains("run.json"), "{args:?} opened: {stderr}");
            seen.push(stderr);
        }
        assert!(
            seen.iter().all(|s| *s == seen[0]),
            "{option} {value}: {seen:?}"
        );
    }
    for command in &commands[..2] {
        let mut args = command.to_vec();
        args.extend(["--cache", "1M"]);
        let out = kron(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown option --cache"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn triangles_single_graph() {
    let dir = tmpdir();
    let a = dir.join("tri_a.tsv");
    assert!(
        kron(&["gen", "clique", "--n", "5", "--out", a.to_str().unwrap()])
            .status
            .success()
    );
    let out = kron(&["triangles", a.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("10 triangles"));
}

#[test]
fn stream_and_verify_shards_roundtrip() {
    let dir = tmpdir();
    let a = dir.join("stream_a.tsv");
    let b = dir.join("stream_b.tsv");
    assert!(kron(&[
        "gen",
        "holme-kim",
        "--n",
        "60",
        "--m",
        "3",
        "--seed",
        "8",
        "--out",
        a.to_str().unwrap()
    ])
    .status
    .success());
    assert!(
        kron(&["gen", "cycle", "--n", "40", "--out", b.to_str().unwrap()])
            .status
            .success()
    );
    let run_dir = dir.join("stream_run");
    for format in ["csr2", "csr", "count"] {
        let _ = std::fs::remove_dir_all(&run_dir);
        let out = kron(&[
            "stream",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            "--out",
            run_dir.to_str().unwrap(),
            "--shards",
            "6",
            "--format",
            format,
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(String::from_utf8_lossy(&out.stderr).contains("streamed"));
        assert!(run_dir.join("run.json").exists());
        assert!(run_dir.join("shard_00005.json").exists());

        let out = kron(&["verify-shards", run_dir.to_str().unwrap(), "--rehash"]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("verified 6 shard(s)"), "{text}");
    }

    // no --format writes csr2; `edges` is a format no longer written
    let stream = |extra: &[&str]| {
        let _ = std::fs::remove_dir_all(&run_dir);
        let args = [
            "stream",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            "--out",
            run_dir.to_str().unwrap(),
        ];
        kron(&[&args[..], extra].concat())
    };
    assert!(stream(&[]).status.success());
    assert!(run_dir.join("shard_00007.csr2").exists());
    let run = std::fs::read_to_string(run_dir.join("run.json")).unwrap();
    assert!(run.contains("\"format\":\"csr2\""), "{run}");
    let out = stream(&["--format", "edges"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown format \"edges\" (expected csr, csr2, or count)"),
        "{stderr}"
    );
}

#[test]
fn stream_resume_skips_completed_shards() {
    let dir = tmpdir();
    let a = dir.join("resume_a.tsv");
    assert!(
        kron(&["gen", "clique", "--n", "12", "--out", a.to_str().unwrap()])
            .status
            .success()
    );
    let run_dir = dir.join("resume_run");
    let _ = std::fs::remove_dir_all(&run_dir);
    let args_common = [
        "stream",
        a.to_str().unwrap(),
        a.to_str().unwrap(),
        "--out",
        run_dir.to_str().unwrap(),
        "--shards",
        "4",
        "--format",
        "csr",
    ];
    assert!(kron(&args_common).status.success());
    let mut with_resume: Vec<&str> = args_common.to_vec();
    with_resume.push("--resume");
    let out = kron(&with_resume);
    assert!(out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("(4 resumed)"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn verify_shards_fails_on_tampered_artifact() {
    let dir = tmpdir();
    let a = dir.join("tamper_a.tsv");
    assert!(
        kron(&["gen", "cycle", "--n", "30", "--out", a.to_str().unwrap()])
            .status
            .success()
    );
    let run_dir = dir.join("tamper_run");
    let _ = std::fs::remove_dir_all(&run_dir);
    assert!(kron(&[
        "stream",
        a.to_str().unwrap(),
        a.to_str().unwrap(),
        "--out",
        run_dir.to_str().unwrap(),
        "--shards",
        "2",
        "--format",
        "csr2",
    ])
    .status
    .success());
    let artifact = run_dir.join("shard_00000.csr2");
    let mut bytes = std::fs::read(&artifact).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 1;
    std::fs::write(&artifact, &bytes).unwrap();
    let out = kron(&["verify-shards", run_dir.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("shard 0"));
}

#[test]
fn serve_and_query_answer_off_shards() {
    let dir = tmpdir();
    let a = dir.join("serve_a.tsv");
    assert!(kron(&[
        "gen",
        "holme-kim",
        "--n",
        "40",
        "--m",
        "2",
        "--seed",
        "3",
        "--out",
        a.to_str().unwrap()
    ])
    .status
    .success());
    let run_dir = dir.join("serve_run");
    let _ = std::fs::remove_dir_all(&run_dir);
    assert!(kron(&[
        "stream",
        a.to_str().unwrap(),
        a.to_str().unwrap(),
        "--out",
        run_dir.to_str().unwrap(),
        "--shards",
        "4",
        "--format",
        "csr",
    ])
    .status
    .success());

    // point query against the shards must agree with the factor-based path
    let factors = kron(&[
        "query",
        a.to_str().unwrap(),
        a.to_str().unwrap(),
        "57",
        "58",
    ]);
    assert!(factors.status.success());
    let shards = kron(&["query", run_dir.to_str().unwrap(), "57", "58"]);
    assert!(
        shards.status.success(),
        "{}",
        String::from_utf8_lossy(&shards.stderr)
    );
    let factors_out = String::from_utf8_lossy(&factors.stdout);
    let shards_out = String::from_utf8_lossy(&shards.stdout);
    for needle in ["degree", "triangles t_C", "(57,58)"] {
        let line_of = |text: &str| {
            text.lines()
                .find(|l| l.contains(needle))
                .unwrap_or_else(|| panic!("no {needle:?} line in:\n{text}"))
                .trim()
                .to_string()
        };
        assert_eq!(
            line_of(&factors_out),
            line_of(&shards_out),
            "{needle} answers diverge"
        );
    }

    // batched serve
    let qfile = dir.join("serve_queries.txt");
    std::fs::write(
        &qfile,
        "# batch\ndegree 57\nneighbors 3\nhas_edge 57 58\ntri_vertex 57\ntri_edge 57 58\n",
    )
    .unwrap();
    let out = kron(&[
        "serve",
        run_dir.to_str().unwrap(),
        "--queries",
        qfile.to_str().unwrap(),
        "--threads",
        "3",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 5, "{stdout}");
    assert!(stdout.contains("degree 57 = "), "{stdout}");
    assert!(stdout.contains("tri_edge 57 58 = "), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("q/s"), "{stderr}");
    // --threads sizes the pool the batch fans out on
    assert!(stderr.contains("on 3 thread(s)"), "{stderr}");
    assert!(stderr.contains("checksums verified"), "{stderr}");

    // a batch with an out-of-range vertex exits nonzero but answers the rest
    std::fs::write(&qfile, "degree 0\ndegree 99999999\n").unwrap();
    let out = kron(&[
        "serve",
        run_dir.to_str().unwrap(),
        "--queries",
        qfile.to_str().unwrap(),
        "--no-verify",
    ]);
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("degree 0 = "), "{stdout}");
    assert!(stdout.contains("error:"), "{stdout}");

    // serving a count-format run (no artifacts) fails with a clear message
    let count_dir = dir.join("serve_count_run");
    let _ = std::fs::remove_dir_all(&count_dir);
    assert!(kron(&[
        "stream",
        a.to_str().unwrap(),
        a.to_str().unwrap(),
        "--out",
        count_dir.to_str().unwrap(),
        "--format",
        "count",
    ])
    .status
    .success());
    let out = kron(&["query", count_dir.to_str().unwrap(), "0"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("csr"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn verify_shards_errors_name_the_manifest_file() {
    let dir = tmpdir();
    let a = dir.join("name_a.tsv");
    assert!(
        kron(&["gen", "cycle", "--n", "20", "--out", a.to_str().unwrap()])
            .status
            .success()
    );
    let run_dir = dir.join("name_run");
    let _ = std::fs::remove_dir_all(&run_dir);
    assert!(kron(&[
        "stream",
        a.to_str().unwrap(),
        a.to_str().unwrap(),
        "--out",
        run_dir.to_str().unwrap(),
        "--shards",
        "3",
        "--format",
        "count",
    ])
    .status
    .success());
    std::fs::remove_file(run_dir.join("shard_00001.json")).unwrap();
    let out = kron(&["verify-shards", run_dir.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("shard_00001.json"),
        "error must name the missing manifest: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn serve_and_query_answer_sources_agree_and_cross_check() {
    let dir = tmpdir();
    let a = dir.join("src_a.tsv");
    assert!(kron(&[
        "gen",
        "holme-kim",
        "--n",
        "30",
        "--m",
        "2",
        "--seed",
        "9",
        "--out",
        a.to_str().unwrap()
    ])
    .status
    .success());
    let run_dir = dir.join("src_run");
    let _ = std::fs::remove_dir_all(&run_dir);
    assert!(kron(&[
        "stream",
        a.to_str().unwrap(),
        a.to_str().unwrap(),
        "--out",
        run_dir.to_str().unwrap(),
        "--shards",
        "3",
        "--format",
        "csr",
    ])
    .status
    .success());
    let run = run_dir.to_str().unwrap();

    // the same point query must print identical statistics per source,
    // and cross-check over a fresh run reports zero mismatches (exit 0)
    let answers: Vec<String> = ["artifact", "oracle", "cross-check"]
        .iter()
        .map(|source| {
            let out = kron(&["query", run, "41", "42", "--source", source]);
            assert!(
                out.status.success(),
                "--source {source}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let stdout = String::from_utf8_lossy(&out.stdout);
            stdout
                .lines()
                .filter(|l| l.contains('='))
                .collect::<Vec<_>>()
                .join("\n")
        })
        .collect();
    assert_eq!(answers[0], answers[1], "artifact vs oracle");
    assert_eq!(answers[0], answers[2], "artifact vs cross-check");
    let out = kron(&["query", run, "41", "--source", "cross-check"]);
    assert!(String::from_utf8_lossy(&out.stderr).contains("0 mismatches"));

    // batched serve per source: identical answer lines, and the
    // cross-check run advertises a clean reconciliation
    let qfile = dir.join("src_queries.txt");
    std::fs::write(
        &qfile,
        "degree 41\nneighbors 5\nhas_edge 41 42\ntri_vertex 41\ntri_edge 41 42\n",
    )
    .unwrap();
    let batches: Vec<(String, String)> = ["artifact", "oracle", "cross-check"]
        .iter()
        .map(|source| {
            let out = kron(&[
                "serve",
                run,
                "--queries",
                qfile.to_str().unwrap(),
                "--source",
                source,
            ]);
            assert!(
                out.status.success(),
                "--source {source}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            (
                String::from_utf8_lossy(&out.stdout).to_string(),
                String::from_utf8_lossy(&out.stderr).to_string(),
            )
        })
        .collect();
    assert_eq!(batches[0].0, batches[1].0, "artifact vs oracle answers");
    assert_eq!(
        batches[0].0, batches[2].0,
        "artifact vs cross-check answers"
    );
    let verdict = "cross-check: 0 mismatches in 5 checked answers";
    assert!(batches[2].1.contains(verdict), "{}", batches[2].1);
    assert!(
        batches[0].1.contains("row fetches per shard"),
        "{}",
        batches[0].1
    );

    // an unknown source is rejected with the valid choices
    let out = kron(&[
        "serve",
        run,
        "--queries",
        qfile.to_str().unwrap(),
        "--source",
        "psychic",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    let valid = "(expected artifact, oracle, or cross-check)";
    assert!(
        stderr.contains(&format!("unknown answer source \"psychic\" {valid}")),
        "{stderr}"
    );

    // tamper a CSR artifact: cross-check serve must exit nonzero naming
    // the mismatch, while plain artifact serve silently answers
    let manifest: String = std::fs::read_to_string(run_dir.join("shard_00000.json")).unwrap();
    let artifact_name = manifest
        .split('"')
        .find(|s| s.ends_with(".csr"))
        .unwrap()
        .to_string();
    let artifact_path = run_dir.join(&artifact_name);
    let mut bytes = std::fs::read(&artifact_path).unwrap();
    let at = bytes.len() - 8; // last column word of shard 0's payload
    let tampered = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) ^ 1;
    bytes[at..at + 8].copy_from_slice(&tampered.to_le_bytes());
    std::fs::write(&artifact_path, &bytes).unwrap();
    // find the tampered row by scanning every vertex's neighbors
    let n: u64 = 30 * 30;
    let all: String = (0..n).map(|v| format!("neighbors {v}\n")).collect();
    std::fs::write(&qfile, all).unwrap();
    let out = kron(&[
        "serve",
        run,
        "--queries",
        qfile.to_str().unwrap(),
        "--source",
        "cross-check",
        "--no-verify",
    ]);
    assert!(!out.status.success(), "tampered run must fail cross-check");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("mismatch"), "{stderr}");
    assert!(stderr.contains("corrupt or stale"), "{stderr}");
}

// ---------------------------------------------------------------------------
// `kron serve --listen`: the long-lived HTTP server, driven as a real
// process with real sockets and real signals.

/// A spawned `kron serve --listen` child: kills the process on drop so a
/// failing assertion never leaks a listener.
struct ServerChild {
    child: Option<std::process::Child>,
    addr: String,
}

impl ServerChild {
    /// Spawn `kron serve <dir> --listen 127.0.0.1:0 <extra…>` and read
    /// the bound address off the first stdout line.
    fn spawn(run_dir: &std::path::Path, extra: &[&str]) -> ServerChild {
        let mut args = vec!["serve".to_string(), run_dir.display().to_string()];
        args.extend(["--listen", "127.0.0.1:0"].map(String::from));
        args.extend(extra.iter().map(|s| s.to_string()));
        Self::spawn_args(&args)
    }

    /// Spawn any `kron` subcommand that prints a `listening on http://…`
    /// banner (`serve --listen`, `route`) and read the bound address.
    fn spawn_args(args: &[String]) -> ServerChild {
        use std::io::BufRead;
        let mut child = Command::new(env!("CARGO_BIN_EXE_kron"))
            .args(args)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("server spawns");
        let stdout = child.stdout.as_mut().unwrap();
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .unwrap();
        let addr = line
            .trim()
            .strip_prefix("listening on http://")
            .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
            .to_string();
        ServerChild {
            child: Some(child),
            addr,
        }
    }

    fn client(&self) -> kron_serve::http::Client {
        kron_serve::http::Client::connect(self.addr.as_str()).expect("connect to server")
    }

    /// SIGTERM the server and wait (bounded) for its exit status.
    fn terminate(mut self) -> std::process::Output {
        let mut child = self.child.take().unwrap();
        let pid = child.id().to_string();
        assert!(Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .expect("kill runs")
            .success());
        for _ in 0..200 {
            if child.try_wait().unwrap().is_some() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        assert!(
            child.try_wait().unwrap().is_some(),
            "server must exit within 10s of SIGTERM"
        );
        child.wait_with_output().unwrap()
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if let Some(child) = self.child.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Generate a small CSR run directory for the server tests.
fn server_run_dir(name: &str) -> std::path::PathBuf {
    let dir = tmpdir();
    let a = dir.join(format!("{name}_factor.tsv"));
    assert!(
        kron(&["gen", "clique", "--n", "6", "--out", a.to_str().unwrap()])
            .status
            .success()
    );
    let run_dir = dir.join(format!("{name}_run"));
    let _ = std::fs::remove_dir_all(&run_dir);
    assert!(kron(&[
        "stream",
        a.to_str().unwrap(),
        a.to_str().unwrap(),
        "--out",
        run_dir.to_str().unwrap(),
        "--shards",
        "3",
        "--format",
        "csr",
    ])
    .status
    .success());
    run_dir
}

#[test]
fn serve_listen_answers_and_exits_zero_on_clean_sigterm() {
    let run_dir = server_run_dir("listen_clean");
    let server = ServerChild::spawn(&run_dir, &["--source", "cross-check"]);
    let mut client = server.client();

    let (status, body) = client.get("/healthz").unwrap();
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    // clique(6) ⊗ clique(6): degree(0) = 5·5 = 25 with the right loops
    let (status, body) = client.get("/query?q=degree%200").unwrap();
    assert_eq!(status, 200, "{body}");
    let reference = kron(&["query", run_dir.to_str().unwrap(), "0"]);
    let ref_out = String::from_utf8_lossy(&reference.stdout).to_string();
    let degree_line = ref_out
        .lines()
        .find(|l| l.contains("degree"))
        .unwrap()
        .rsplit(' ')
        .next()
        .unwrap()
        .to_string();
    assert_eq!(body.trim(), degree_line, "server vs `kron query`");

    let (status, body) = client
        .post("/batch", b"degree 0\ntri_vertex 7\ntri_edge 0 7\n")
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(body.lines().count(), 3, "{body}");

    let (status, body) = client.get("/stats").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"mismatch_count\":0"), "{body}");
    assert!(body.contains("\"source\":\"cross-check\""), "{body}");
    assert!(body.contains("\"sampled_checks\":4"), "{body}");
    drop(client);

    let out = server.terminate();
    assert!(
        out.status.success(),
        "clean run must exit 0; stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("shutdown:"), "{stderr}");
    assert!(
        stderr.contains("cross-check: 0 mismatches in 4 checked answers"),
        "{stderr}"
    );
}

#[test]
fn serve_listen_sampled_mismatch_exits_nonzero_after_sigterm() {
    let run_dir = server_run_dir("listen_tamper");
    // flip one column id in shard 0 — detectable only by cross-checking
    let manifest = std::fs::read_to_string(run_dir.join("shard_00000.json")).unwrap();
    let artifact = manifest
        .split('"')
        .find(|s| s.ends_with(".csr"))
        .unwrap()
        .to_string();
    let path = run_dir.join(&artifact);
    let mut bytes = std::fs::read(&path).unwrap();
    let at = bytes.len() - 8;
    let word = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) ^ 1;
    bytes[at..at + 8].copy_from_slice(&word.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    // --no-verify: the audit tier skips open-time rehashing — live
    // cross-checks are what must catch this
    let server = ServerChild::spawn(
        &run_dir,
        &["--source", "cross-check", "--no-verify", "--threads", "2"],
    );
    let mut client = server.client();
    // hammer every row: every query is checked, so the tampered row is
    // guaranteed to reconcile against the oracle
    let n = 36u64; // clique(6) ⊗ clique(6)
    let file: String = (0..n).map(|v| format!("neighbors {v}\n")).collect();
    let (status, _body) = client.post("/batch", file.as_bytes()).unwrap();
    assert_eq!(status, 200, "tampered answers still serve (artifact wins)");

    let (_, stats) = client.get("/stats").unwrap();
    assert!(
        !stats.contains("\"mismatch_count\":0"),
        "stats must surface the mismatch: {stats}"
    );
    assert!(stats.contains("\"mismatches\":[{"), "{stats}");
    drop(client);

    let out = server.terminate();
    assert!(
        !out.status.success(),
        "a run with cross-check mismatches must exit nonzero"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("mismatch"), "{stderr}");
    assert!(stderr.contains("corrupt or stale"), "{stderr}");
}

#[test]
fn serve_listen_rejects_bad_listen_addresses_and_sources() {
    let run_dir = server_run_dir("listen_bad");
    let out = kron(&[
        "serve",
        run_dir.to_str().unwrap(),
        "--listen",
        "definitely-not-an-address",
    ]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("binding"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for n in [0, 4] {
        let source = format!("cross-check:{n}");
        let out = kron(&[
            "serve",
            run_dir.to_str().unwrap(),
            "--listen",
            "127.0.0.1:0",
            "--source",
            &source,
        ]);
        assert_eq!(out.status.code(), Some(1));
        assert!(out.stdout.is_empty(), "refused before binding");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown answer source {source:?}")),
            "{stderr}"
        );
    }
    // without --listen, --queries is still required (and the error now
    // mentions both modes)
    let out = kron(&["serve", run_dir.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--listen"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn cluster_nodes_and_router_serve_end_to_end() {
    let run_dir = server_run_dir("cluster"); // 3 CSR shards
                                             // Node 1 first (shards 2..3). Its peer entry completes the ownership
                                             // map but is never dialed by the queries below (everything routed to
                                             // node 1 is single-row), so a dead address is fine here.
    let node1 = ServerChild::spawn(
        &run_dir,
        &["--shards", "2..3", "--peers", "0..2=127.0.0.1:1"],
    );
    // Node 0 (shards 0..2) gets node 1's real address and audits every
    // answer — including ones assembled from node 1's rows.
    let peers0 = format!("2..3={}", node1.addr);
    let node0 = ServerChild::spawn(
        &run_dir,
        &[
            "--shards",
            "0..2",
            "--peers",
            &peers0,
            "--source",
            "cross-check",
        ],
    );
    // The router in front of both, plus a whole-run reference server.
    let router = ServerChild::spawn_args(&[
        "route".into(),
        "--peers".into(),
        format!("{},{}", node0.addr, node1.addr),
        "--listen".into(),
        "127.0.0.1:0".into(),
    ]);
    let reference = ServerChild::spawn(&run_dir, &[]);

    let mut via_router = router.client();
    let mut via_single = reference.client();
    assert_eq!(
        via_router.get("/healthz").unwrap(),
        (200, "ok\n".to_string())
    );

    // Single-row queries across the whole product, cross-shard triangle
    // queries on node 0's vertices (its peer table is fully real), and
    // an out-of-range probe: all byte-identical to the single server.
    let mut queries: Vec<String> = Vec::new();
    for v in 0..36 {
        queries.push(format!("degree {v}"));
        queries.push(format!("neighbors {v}"));
    }
    for v in 0..24 {
        // vertices 0..24 live in shards 0..2 → routed to node 0
        queries.push(format!("tri_vertex {v}"));
        queries.push(format!("tri_edge {v} {}", (v + 1) % 36));
    }
    queries.push("degree 36".into());
    for q in &queries {
        let path = format!("/query?q={}", kron_serve::http::encode_query_component(q));
        assert_eq!(
            via_router.get(&path).unwrap(),
            via_single.get(&path).unwrap(),
            "cluster diverged from single node on {q}"
        );
    }
    let body: String = queries.iter().map(|q| format!("{q}\n")).collect();
    assert_eq!(
        via_router.post("/batch", body.as_bytes()).unwrap(),
        via_single.post("/batch", body.as_bytes()).unwrap(),
        "batch diverged"
    );

    // merged stats: zero mismatches, and real cross-node traffic — node
    // 0's triangle queries intersected its far neighbours on node 1
    let (status, stats) = via_router.get("/stats").unwrap();
    assert_eq!(status, 200);
    let doc = kron_stream::json::Json::parse(&stats).unwrap();
    assert_eq!(doc.req("role").unwrap().as_str(), Some("router"), "{stats}");
    let totals = doc.req("totals").unwrap();
    let total = |key| totals.req(key).unwrap().as_u64().unwrap();
    assert_eq!(total("mismatch_count"), 0, "{stats}");
    assert!(total("wedges_served") > 0, "{stats}");

    // unknown paths answer 501 (not 404): /jobs exists on the nodes but
    // is node-local, so the router names what it does serve instead
    let (status, body) = via_router.get("/jobs/1").unwrap();
    assert_eq!(status, 501, "{body}");
    assert!(body.contains("node-local"), "{body}");
    assert!(body.contains("\"supported\""), "{body}");
    drop((via_router, via_single));

    // graceful shutdowns, clean exits all around (node 0 certifies its
    // cross-checked run — remote rows included — against the oracle)
    let out = router.terminate();
    assert!(out.status.success(), "router exit: {:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("shutdown:"), "{stderr}");
    let out = node0.terminate();
    assert!(
        out.status.success(),
        "node 0 must exit 0 on a clean cross-checked run; stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("cross-check: 0 mismatches"),
        "node 0 stderr must certify the run"
    );
    assert!(node1.terminate().status.success());
}

/// A number of seconds too large for a deadline is refused with exit 1
/// before the listener binds: `1e300` does not fit a `Duration`, and
/// `1e19` does, but `now + 1e19 s` overflows an `Instant` later. The
/// `--listen` port is held, so a check made after binding would fail
/// with a binding error instead.
#[test]
fn out_of_range_seconds_exit_1_before_binding() {
    let run_dir = server_run_dir("seconds_range");
    let held = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = held.local_addr().unwrap().to_string();
    let dir = run_dir.to_str().unwrap();
    let serve = |opt: &'static str, secs: &'static str| {
        (opt, kron(&["serve", dir, "--listen", &addr, opt, secs]))
    };
    for (opt, out) in [
        serve("--idle-timeout", "1e300"),
        serve("--idle-timeout", "1e19"),
        serve("--io-timeout", "1e19"),
        (
            "--rediscover",
            kron(&[
                "route",
                "--peers",
                "127.0.0.1:1",
                "--listen",
                &addr,
                "--rediscover",
                "1e19",
            ]),
        ),
    ] {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{opt}: {stderr}");
        assert!(
            stderr.contains(&format!("{opt}: expected a number of seconds")),
            "{stderr}"
        );
    }
}

#[test]
fn cluster_flag_errors_are_rejected_up_front() {
    let run_dir = server_run_dir("cluster_flags");
    // --peers without --shards
    let out = kron(&[
        "serve",
        run_dir.to_str().unwrap(),
        "--listen",
        "127.0.0.1:0",
        "--peers",
        "0..1=127.0.0.1:1",
    ]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--shards"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // incomplete ownership map
    let out = kron(&[
        "serve",
        run_dir.to_str().unwrap(),
        "--listen",
        "127.0.0.1:0",
        "--shards",
        "0..2",
    ]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("incomplete"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // a claim beyond the run's shards
    let out = kron(&[
        "serve",
        run_dir.to_str().unwrap(),
        "--listen",
        "127.0.0.1:0",
        "--shards",
        "0..9",
    ]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("lies outside the run's 3 shards"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // the router refuses an unreachable peer at startup
    let out = kron(&["route", "--peers", "127.0.0.1:1", "--listen", "127.0.0.1:0"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("discovering peers"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

// ---------------------------------------------------------------------------
// `kron analyze` and the server's async job API: the two surfaces must
// produce byte-identical result documents, validation must catch a
// tampered artifact on both, and SIGTERM must cancel cooperatively.

/// A randomized (seeded holme-kim ⊗ clique) sharded CSR run directory —
/// irregular degrees, a nontrivial shard plan.
fn analyze_run_dir(name: &str) -> std::path::PathBuf {
    let dir = tmpdir();
    let a = dir.join(format!("{name}_hk.tsv"));
    let b = dir.join(format!("{name}_k4.tsv"));
    assert!(kron(&[
        "gen",
        "holme-kim",
        "--n",
        "14",
        "--m",
        "3",
        "--pt",
        "0.75",
        "--seed",
        "97",
        "--out",
        a.to_str().unwrap(),
    ])
    .status
    .success());
    assert!(
        kron(&["gen", "clique", "--n", "4", "--out", b.to_str().unwrap()])
            .status
            .success()
    );
    let run_dir = dir.join(format!("{name}_run"));
    let _ = std::fs::remove_dir_all(&run_dir);
    assert!(kron(&[
        "stream",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--out",
        run_dir.to_str().unwrap(),
        "--shards",
        "5",
        "--format",
        "csr",
    ])
    .status
    .success());
    run_dir
}

/// Poll `GET /jobs/<id>` until the job settles; panics after 30 s.
fn poll_job(client: &mut kron_serve::http::Client, id: u64) -> kron_stream::json::Json {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let (status, body) = client.get(&format!("/jobs/{id}")).unwrap();
        assert_eq!(status, 200, "{body}");
        let doc = kron_stream::json::Json::parse(&body).unwrap();
        if doc.req("state").unwrap().as_str() != Some("running") {
            return doc;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "job {id} never settled: {body}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

#[test]
fn analyze_cli_and_server_jobs_agree_byte_for_byte() {
    let run_dir = analyze_run_dir("surfaces");
    let server = ServerChild::spawn(&run_dir, &[]);
    let mut client = server.client();
    let specs: [(&[&str], &str); 4] = [
        (
            &["--kernel", "bfs", "--source", "3"],
            r#"{"kernel":"bfs","source":3}"#,
        ),
        (&["--kernel", "cc"], r#"{"kernel":"cc"}"#),
        (
            &["--kernel", "pagerank", "--tol", "1e-10", "--top", "5"],
            r#"{"kernel":"pagerank","tol":1e-10,"top":5}"#,
        ),
        (&["--kernel", "tri-census"], r#"{"kernel":"tri-census"}"#),
    ];
    for (i, (cli_args, job_body)) in specs.iter().enumerate() {
        let mut args = vec!["analyze", run_dir.to_str().unwrap()];
        args.extend_from_slice(cli_args);
        // a throttled CLI run and the server's default pool must still
        // agree byte-for-byte: results are thread-count independent
        args.extend_from_slice(&["--threads", "2"]);
        let out = kron(&args);
        assert!(
            out.status.success(),
            "analyze {cli_args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let cli_doc = String::from_utf8(out.stdout).unwrap();

        let (status, body) = client.post("/jobs", job_body.as_bytes()).unwrap();
        assert_eq!(status, 202, "{body}");
        let doc = poll_job(&mut client, i as u64 + 1);
        assert_eq!(
            doc.req("state").unwrap().as_str(),
            Some("done"),
            "{job_body}: {doc}"
        );
        let job_doc = doc.req("result").unwrap().to_string();
        assert_eq!(
            cli_doc.trim_end(),
            job_doc,
            "CLI and job result differ for {job_body}"
        );
    }
    drop(client);
    let out = server.terminate();
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("4 jobs (0 failed, 0 cancelled, 0 validation failures)"),
        "{stderr}"
    );
}

#[test]
fn analyze_validation_catches_a_tampered_shard_on_both_surfaces() {
    let run_dir = analyze_run_dir("tampered");
    // flip one in-range column id in the last shard: structurally valid
    // CSR, wrong statistics — only validation can tell
    let mut shards: Vec<std::path::PathBuf> = std::fs::read_dir(&run_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "csr"))
        .collect();
    shards.sort();
    let artifact = shards.last().unwrap();
    let mut bytes = std::fs::read(artifact).unwrap();
    let at = bytes.len() - 8;
    let old = u64::from_le_bytes(bytes[at..].try_into().unwrap());
    bytes[at..].copy_from_slice(&(old ^ 1).to_le_bytes());
    std::fs::write(artifact, &bytes).unwrap();

    // CLI: nonzero exit, mismatch report on stdout, verdict on stderr
    let out = kron(&[
        "analyze",
        run_dir.to_str().unwrap(),
        "--kernel",
        "tri-census",
    ]);
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"validation\":{\"ok\":false"), "{stdout}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("contradict the closed forms"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // --no-validate: the recount itself succeeds, no verdict claimed
    let out = kron(&[
        "analyze",
        run_dir.to_str().unwrap(),
        "--kernel",
        "tri-census",
        "--no-validate",
    ]);
    assert!(out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("validation"));

    // server: the job fails with the report, and the run exits nonzero
    // (--no-verify: checksums would reject the open; the *job* must catch it)
    let server = ServerChild::spawn(&run_dir, &["--no-verify"]);
    let mut client = server.client();
    let (status, _) = client.post("/jobs", br#"{"kernel":"tri-census"}"#).unwrap();
    assert_eq!(status, 202);
    let doc = poll_job(&mut client, 1);
    assert_eq!(doc.req("state").unwrap().as_str(), Some("failed"), "{doc}");
    assert!(
        doc.req("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("validation failed"),
        "{doc}"
    );
    drop(client);
    let out = server.terminate();
    assert!(
        !out.status.success(),
        "job validation failure must fail the run"
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("contradicted the closed forms"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn analyze_sigterm_cancels_cooperatively_and_exits_zero() {
    let run_dir = analyze_run_dir("sigterm");
    // an endless kernel: unreachable (negative) tolerance, huge budget
    let mut child = Command::new(env!("CARGO_BIN_EXE_kron"))
        .args([
            "analyze",
            run_dir.to_str().unwrap(),
            "--kernel",
            "pagerank",
            "--tol",
            "-1",
            "--iters",
            "1000000000000",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("analyze spawns");
    // let it get into the iteration loop before signalling
    std::thread::sleep(std::time::Duration::from_millis(300));
    assert!(Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs")
        .success());
    for _ in 0..200 {
        if child.try_wait().unwrap().is_some() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    assert!(
        child.try_wait().unwrap().is_some(),
        "analyze must exit within 10s of SIGTERM"
    );
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "cooperative cancel exits 0; stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("cancelled by signal"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "",
        "no verdict printed"
    );
}

#[test]
fn serve_sigterm_with_a_running_job_exits_zero() {
    let run_dir = analyze_run_dir("job_sigterm");
    let server = ServerChild::spawn(&run_dir, &["--source", "cross-check"]);
    let mut client = server.client();
    let (status, _) = client
        .post(
            "/jobs",
            br#"{"kernel":"pagerank","tol":-1,"iters":1000000000000}"#,
        )
        .unwrap();
    assert_eq!(status, 202);
    // confirm it is actually running, then SIGTERM with it in flight
    let doc = {
        let (status, body) = client.get("/jobs/1").unwrap();
        assert_eq!(status, 200);
        kron_stream::json::Json::parse(&body).unwrap()
    };
    assert_eq!(doc.req("state").unwrap().as_str(), Some("running"));
    drop(client);
    let out = server.terminate();
    assert!(
        out.status.success(),
        "cancelled jobs must not fail the run; stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("1 jobs (0 failed, 1 cancelled, 0 validation failures)"),
        "{stderr}"
    );
}
