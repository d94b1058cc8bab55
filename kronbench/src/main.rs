//! `kronbench` — the repository's benchmark: seeded inputs, checked
//! outputs, eight end-to-end metrics on six workloads, and a traced run
//! that yields the per-layer numbers. See `README.md` beside this
//! package for the tables and how to read the output.
//!
//! ```text
//! kronbench --workload W --seed N --seconds S --trace 0|1 [--quick] [--out DIR]
//! kronbench run [--seed N] [--seconds S] [--repeat K] [--trace] [--quick] [--out DIR]
//! kronbench compare A.json B.json [--benchmark BENCHMARK.json]
//! kronbench selftest
//! ```
//!
//! The first form is the benchmark contract (`BENCHMARK.json`): one
//! workload in this process, one JSON object as the last line of
//! stdout. `run` drives every workload, each in a fresh child process
//! of this executable, and writes `results.json`.

mod inputs;
mod metrics;
mod probes;
mod proc;
mod results;
mod rig;
mod selftest;
mod stats;
mod trace;
mod workloads;

use kron_stream::json::Json;
use results::{ResultFile, RunLine, WorkloadRuns};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Recorder;
use workloads::{Ctx, Sizes, WORKLOADS};

/// Spans the traced run may hold (40 bytes each, allocated up front).
const SPAN_CAPACITY: usize = 400_000;
/// Window of a `--quick` workload.
const QUICK_SECONDS: f64 = 1.0;

struct Args {
    positional: Vec<String>,
    options: Vec<(String, Option<String>)>,
}

impl Args {
    /// `--flag` or `--key value`; `flags` names the ones without a value.
    fn parse(raw: &[String], flags: &[&str]) -> Result<Args, String> {
        let mut args = Args {
            positional: Vec::new(),
            options: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                None => args.positional.push(arg.clone()),
                Some(key) if flags.contains(&key) => args.options.push((key.into(), None)),
                Some(key) => {
                    let value = it.next().ok_or(format!("--{key} needs a value"))?;
                    args.options.push((key.into(), Some(value.clone())));
                }
            }
        }
        Ok(args)
    }

    fn flag(&self, key: &str) -> bool {
        self.options.iter().any(|(k, _)| k == key)
    }

    fn value<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.iter().find(|(k, _)| k == key) {
            None => Ok(default),
            Some((_, v)) => v
                .as_deref()
                .and_then(|v| v.parse().ok())
                .ok_or(format!("--{key}: cannot parse the value")),
        }
    }

    /// The timed window: fixed in `--quick` mode, else `--seconds`.
    fn seconds(&self) -> Result<f64, String> {
        let seconds = if self.flag("quick") {
            QUICK_SECONDS
        } else {
            self.value("seconds", 12.0)?
        };
        if seconds > 0.0 && seconds <= 600.0 {
            Ok(seconds)
        } else {
            Err("--seconds must be in (0, 600]".into())
        }
    }

    fn out_dir(&self) -> Result<PathBuf, String> {
        self.value("out", PathBuf::from(".kronbench").join("out"))
    }
}

/// Run one workload in this process and print its result line.
fn run_workload(args: &Args) -> Result<ExitCode, String> {
    let name: String = args.value("workload", String::new())?;
    let quick = args.flag("quick");
    let traced = match args.value("trace", 0u8)? {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    if cfg!(debug_assertions) && !quick {
        return Err(
            "refusing a timed run on a debug build: build with --release (or pass --quick)".into(),
        );
    }
    let seed: u64 = args.value("seed", 1)?;
    let seconds = args.seconds()?;
    let sizes = if quick { Sizes::quick() } else { Sizes::full() };
    let mut rec = if traced {
        Recorder::new(SPAN_CAPACITY)
    } else {
        Recorder::off()
    };
    let mut ctx = Ctx {
        seed,
        seconds,
        sizes,
        rec: &mut rec,
    };
    let out = workloads::run(&name, &mut ctx).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        format!(
            "unknown workload {name:?} (expected one of {})",
            names.join(", ")
        )
    })?;
    for failure in &out.failures {
        eprintln!("kronbench: {name}: FAILED {failure}");
    }

    let mut line = RunLine {
        correct: out.failed == 0,
        attempted: out.attempted,
        failed: out.failed,
        metrics: Vec::new(),
    };
    if traced {
        let dir = args.out_dir()?.join(&name);
        let path = dir.join("trace.jsonl");
        std::fs::create_dir_all(&dir)
            .and_then(|()| rec.write_jsonl(&path))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "kronbench: {name}: {} spans ({} dropped) -> {}",
            rec.spans().len(),
            rec.dropped(),
            path.display()
        );
        let observed =
            metrics::observed_values(&out.observed, out.e2e.peak_rss_mb, rec.spans().len());
        let mut probes = probes::run_all(seed, &sizes, quick);
        for ((metric, unit, _), value) in metrics::OBSERVED.into_iter().zip(observed) {
            line.metrics.push((metric.into(), value, unit.into()));
        }
        for (metric, unit, _) in metrics::PROBES {
            let at = probes
                .iter()
                .position(|p| p.0 == metric)
                .unwrap_or_else(|| panic!("probe suite did not measure {metric}"));
            line.metrics
                .push((metric.into(), probes.swap_remove(at).1, unit.into()));
        }
    } else {
        let values = metrics::end_to_end_values(&out.e2e);
        for ((metric, unit, _), value) in metrics::END_TO_END.into_iter().zip(values) {
            line.metrics.push((metric.into(), value, unit.into()));
        }
    }
    if let Some((metric, value, _)) = line.metrics.iter().find(|m| !m.1.is_finite()) {
        return Err(format!("{name}: metric {metric} is {value}"));
    }
    for (metric, value, unit) in &line.metrics {
        eprintln!("kronbench: {name:<16} {metric:<42} {value:>18.6} {unit}");
    }
    println!("{}", line.to_json());
    Ok(ExitCode::SUCCESS)
}

/// First line of a command's stdout, or "unknown".
fn probe_command(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            Some(
                String::from_utf8(out.stdout)
                    .ok()?
                    .lines()
                    .next()?
                    .trim()
                    .to_string(),
            )
        })
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn environment(seed: u64, seconds: f64, sizes: &Sizes) -> Json {
    Json::obj(vec![
        (
            "commit",
            Json::str(&probe_command("git", &["rev-parse", "HEAD"])),
        ),
        ("cores", Json::num(proc::cores())),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("rustc", Json::str(&probe_command("rustc", &["--version"]))),
        ("seed", Json::num(seed)),
        ("seconds", Json::num(seconds)),
        (
            "factor_n",
            Json::obj(vec![
                ("stream", Json::num(sizes.stream_n)),
                ("serve", Json::num(sizes.serve_n)),
                ("analyze", Json::num(sizes.analyze_n)),
                ("probe", Json::num(sizes.probe_n)),
            ]),
        ),
        ("shards", Json::num(sizes.shards)),
    ])
}

/// Run every workload, each in a fresh child process (so peak memory
/// and allocator state are the workload's own), `--repeat` times.
fn run_suite(args: &Args) -> Result<ExitCode, String> {
    let quick = args.flag("quick");
    let traced = args.flag("trace");
    let seed: u64 = args.value("seed", 1)?;
    let seconds = args.seconds()?;
    let repeat: usize = args.value("repeat", 1)?;
    let out_dir = args.out_dir()?;
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let sizes = if quick { Sizes::quick() } else { Sizes::full() };

    let mut file = ResultFile {
        env: environment(seed, seconds, &sizes),
        quick,
        traced,
        workloads: WORKLOADS
            .iter()
            .map(|w| (w.0.to_string(), WorkloadRuns::default()))
            .collect(),
    };
    for round in 0..repeat {
        for (name, runs) in &mut file.workloads {
            eprintln!("kronbench: round {}/{repeat}: {name}", round + 1);
            let mut child = std::process::Command::new(&exe);
            child
                .args(["--workload", name, "--seed", &seed.to_string()])
                .args([
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    if traced { "1" } else { "0" },
                ])
                .arg("--out")
                .arg(&out_dir);
            if quick {
                child.arg("--quick");
            }
            // a workload that dies fails itself, not the suite
            let line = child
                .stderr(std::process::Stdio::inherit())
                .output()
                .ok()
                .filter(|out| out.status.success())
                .and_then(|out| {
                    RunLine::parse(String::from_utf8_lossy(&out.stdout).lines().last()?)
                });
            if line.is_none() {
                eprintln!("kronbench: {name}: the workload process died without a result");
            }
            runs.add(&line.unwrap_or_else(RunLine::died));
        }
    }

    let mut clean = true;
    for (name, runs) in &file.workloads {
        clean &= runs.failed == 0;
        println!(
            "{name:<16} {:<42} {:>18} (failed {} of {})",
            "fail_frac",
            runs.fail_frac(),
            runs.failed,
            runs.attempted
        );
        for (metric, unit, values) in &runs.metrics {
            println!(
                "{name:<16} {metric:<42} {:>18.6} {unit}",
                stats::median(values)
            );
        }
    }
    if quick {
        let (artifact, serving) = selftest::corruption();
        println!("selftest         corrupted shard: {artifact} artifact checks and {serving} served answers failed");
        clean &= artifact > 0 && serving > 0;
    }
    let path = out_dir.join("results.json");
    std::fs::write(&path, format!("{}\n", file.to_json()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("kronbench: wrote {}", path.display());
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare(args: &Args) -> Result<ExitCode, String> {
    let [_, a, b] = &args.positional[..] else {
        return Err("usage: kronbench compare A.json B.json [--benchmark BENCHMARK.json]".into());
    };
    let read =
        |path: &Path| std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()));
    let load = |path: &String| {
        ResultFile::parse(&read(Path::new(path))?).map_err(|e| format!("{path}: {e}"))
    };
    let benchmark: PathBuf = args.value("benchmark", PathBuf::from("BENCHMARK.json"))?;
    let bounded = results::bounded_metrics(&Json::parse(&read(&benchmark)?)?)?;
    let (table, ok) = results::compare(&load(a)?, &load(b)?, &bounded)?;
    print!("{table}");
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn selftest() -> Result<ExitCode, String> {
    let (artifact, serving) = selftest::corruption();
    println!("corrupted shard: {artifact} artifact checks and {serving} served answers failed");
    Ok(if artifact > 0 && serving > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // `--trace` takes 0|1 in the contract form and is a bare flag of `run`
    let suite = raw.first().is_some_and(|a| a == "run");
    let flags: &[&str] = if suite {
        &["quick", "trace"]
    } else {
        &["quick"]
    };
    let result = Args::parse(&raw, flags).and_then(|args| {
        match args.positional.first().map(String::as_str) {
            None if args.flag("workload") => run_workload(&args),
            Some("run") => run_suite(&args),
            Some("compare") => compare(&args),
            Some("selftest") => selftest(),
            _ => Err("usage: kronbench --workload W --seed N --seconds S --trace 0|1 | run | compare A B | selftest".into()),
        }
    });
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("kronbench: {message}");
            ExitCode::from(2)
        }
    }
}
