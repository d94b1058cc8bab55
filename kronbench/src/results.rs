//! Result files of the suite runner, and `compare`.
//!
//! A result file holds, per workload, every run's value of every
//! metric, plus the environment it was measured in. `compare` reads two
//! of them and the bounds and directions from `BENCHMARK.json`, and
//! prints one verdict per (end-to-end metric, workload).

use crate::metrics::Better;
use crate::stats::median;
use kron_stream::json::Json;

/// One workload run as the benchmark's last stdout line reports it.
#[derive(Clone, Debug, PartialEq)]
pub struct RunLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in printed order.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunLine {
    /// A workload process that died before reporting: everything it was
    /// asked to do failed.
    pub fn died() -> RunLine {
        RunLine {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: Vec::new(),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::num(self.attempted)),
            ("failed", Json::num(self.failed)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, value, unit)| {
                            let pair = Json::obj(vec![
                                ("value", Json::num(value)),
                                ("unit", Json::str(unit)),
                            ]);
                            (name.clone(), pair)
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn parse(line: &str) -> Option<RunLine> {
        let doc = Json::parse(line.trim()).ok()?;
        let Json::Obj(metrics) = doc.get("metrics")? else {
            return None;
        };
        Some(RunLine {
            correct: doc.get("correct")?.as_bool()?,
            attempted: doc.get("attempted")?.as_u64()?,
            failed: doc.get("failed")?.as_u64()?,
            metrics: metrics
                .iter()
                .map(|(name, m)| {
                    Some((
                        name.clone(),
                        m.get("value")?.as_f64()?,
                        m.get("unit")?.as_str()?.to_string(),
                    ))
                })
                .collect::<Option<_>>()?,
        })
    }
}

/// Every run of one workload in one result file.
#[derive(Clone, Debug, Default)]
pub struct WorkloadRuns {
    pub attempted: u64,
    pub failed: u64,
    /// `(metric, unit, one value per run)`.
    pub metrics: Vec<(String, String, Vec<f64>)>,
}

impl WorkloadRuns {
    pub fn add(&mut self, run: &RunLine) {
        self.attempted += run.attempted;
        self.failed += run.failed;
        for (name, value, unit) in &run.metrics {
            match self.metrics.iter_mut().find(|m| &m.0 == name) {
                Some(m) => m.2.push(*value),
                None => self
                    .metrics
                    .push((name.clone(), unit.clone(), vec![*value])),
            }
        }
    }

    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn values(&self, metric: &str) -> Option<&[f64]> {
        self.metrics
            .iter()
            .find(|m| m.0 == metric)
            .map(|m| &m.2[..])
    }
}

/// A whole result file.
#[derive(Clone, Debug)]
pub struct ResultFile {
    /// `{commit, cores, profile, rustc, seed, seconds, factor_n, shards}`.
    pub env: Json,
    pub quick: bool,
    pub traced: bool,
    pub workloads: Vec<(String, WorkloadRuns)>,
}

impl ResultFile {
    pub fn to_json(&self) -> Json {
        let workloads = self
            .workloads
            .iter()
            .map(|(name, w)| {
                let metrics = w
                    .metrics
                    .iter()
                    .map(|(metric, unit, values)| {
                        let values = Json::Arr(values.iter().map(Json::num).collect());
                        (
                            metric.clone(),
                            Json::obj(vec![("unit", Json::str(unit)), ("values", values)]),
                        )
                    })
                    .collect();
                let doc = Json::obj(vec![
                    ("attempted", Json::num(w.attempted)),
                    ("failed", Json::num(w.failed)),
                    ("fail_frac", Json::num(w.fail_frac())),
                    ("metrics", Json::Obj(metrics)),
                ]);
                (name.clone(), doc)
            })
            .collect();
        Json::obj(vec![
            ("tool", Json::str("kronbench")),
            ("quick", Json::Bool(self.quick)),
            ("traced", Json::Bool(self.traced)),
            ("env", self.env.clone()),
            ("workloads", Json::Obj(workloads)),
        ])
    }

    pub fn parse(text: &str) -> Result<ResultFile, String> {
        let doc = Json::parse(text)?;
        if doc.get("tool").and_then(Json::as_str) != Some("kronbench") {
            return Err("not a kronbench result file".into());
        }
        let Json::Obj(workloads) = doc.req("workloads")? else {
            return Err("\"workloads\" must be an object".into());
        };
        let workloads = workloads
            .iter()
            .map(|(name, w)| {
                let Json::Obj(metrics) = w.req("metrics")? else {
                    return Err(format!("{name}: \"metrics\" must be an object"));
                };
                let metrics = metrics
                    .iter()
                    .map(|(metric, m)| {
                        let values = m
                            .req("values")?
                            .as_arr()
                            .ok_or("\"values\" must be an array")?;
                        let values: Option<Vec<f64>> = values.iter().map(Json::as_f64).collect();
                        let unit = m.req("unit")?.as_str().ok_or("\"unit\" must be a string")?;
                        Ok((
                            metric.clone(),
                            unit.to_string(),
                            values.ok_or("values must be numbers")?,
                        ))
                    })
                    .collect::<Result<_, String>>()?;
                let count = |key: &str| w.req(key)?.as_u64().ok_or(format!("{name}: bad {key:?}"));
                Ok((
                    name.clone(),
                    WorkloadRuns {
                        attempted: count("attempted")?,
                        failed: count("failed")?,
                        metrics,
                    },
                ))
            })
            .collect::<Result<_, String>>()?;
        Ok(ResultFile {
            env: doc.req("env")?.clone(),
            quick: doc
                .req("quick")?
                .as_bool()
                .ok_or("\"quick\" must be a bool")?,
            traced: doc
                .req("traced")?
                .as_bool()
                .ok_or("\"traced\" must be a bool")?,
            workloads,
        })
    }

    fn workload(&self, name: &str) -> Option<&WorkloadRuns> {
        self.workloads.iter().find(|w| w.0 == name).map(|w| &w.1)
    }
}

/// A bounded metric of `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Bounded {
    pub name: String,
    pub better: Better,
    pub bound: f64,
}

/// The `end_to_end` table of a parsed `BENCHMARK.json`.
pub fn bounded_metrics(benchmark: &Json) -> Result<Vec<Bounded>, String> {
    benchmark
        .req("end_to_end")?
        .as_arr()
        .ok_or("\"end_to_end\" must be an array")?
        .iter()
        .map(|m| {
            let text = |key: &str| {
                m.req(key)?
                    .as_str()
                    .ok_or(format!("{key:?} must be a string"))
            };
            Ok(Bounded {
                name: text("name")?.to_string(),
                better: Better::parse(text("better")?)
                    .ok_or("\"better\" must be higher or lower")?,
                bound: m
                    .req("bound")?
                    .as_f64()
                    .ok_or("\"bound\" must be a number")?,
            })
        })
        .collect()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Run-to-run spread of a set of runs, as a share of their median: the
/// distance between the first and third quartile (computed as Python's
/// `statistics.quantiles(values, n=4)` does), or `max − min` for fewer
/// than four runs.
pub fn spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let width = if n < 4 {
        v[n - 1] - v[0]
    } else {
        let quartile = |i: usize| {
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        quartile(3) - quartile(1)
    };
    width / median(values).abs().max(f64::MIN_POSITIVE)
}

/// Judge B against A on one metric. With run-to-run spread (of either
/// side) wider than the bound the medians prove nothing: the verdict is
/// `unresolved` unless every run of B beats every run of A. Otherwise B
/// regressed if its median is worse by more than the bound, improved if
/// it is better by more than the spread, and is unchanged in between.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (med_a, med_b) = (median(a), median(b));
    let gain = match better {
        Better::Higher => (med_b - med_a) / med_a.abs().max(f64::MIN_POSITIVE),
        Better::Lower => (med_a - med_b) / med_a.abs().max(f64::MIN_POSITIVE),
    };
    let noise = spread(a).max(spread(b));
    if noise > bound {
        let b_beats_a = |x: f64, y: f64| match better {
            Better::Higher => y > x,
            Better::Lower => y < x,
        };
        let clean_sweep = a.iter().all(|&x| b.iter().all(|&y| b_beats_a(x, y)));
        return if clean_sweep {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if gain < -bound {
        Verdict::Regressed
    } else if gain > noise && gain > 0.0 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// The comparison table and whether B may land (`false` on any
/// `regressed` or a higher failure share).
pub fn compare(
    a: &ResultFile,
    b: &ResultFile,
    bounded: &[Bounded],
) -> Result<(String, bool), String> {
    for (label, file) in [("A", a), ("B", b)] {
        if file.quick {
            return Err(format!(
                "{label} is a --quick run: its timings measure nothing"
            ));
        }
        if file.traced {
            return Err(format!(
                "{label} is a traced run: end-to-end metrics come from untraced runs only"
            ));
        }
    }
    for key in ["cores", "profile"] {
        let (x, y) = (a.env.get(key), b.env.get(key));
        if x != y {
            return Err(format!(
                "environments differ in {key:?}: {x:?} against {y:?}"
            ));
        }
    }
    let mut table = String::new();
    let mut ok = true;
    for (name, runs_b) in &b.workloads {
        let Some(runs_a) = a.workload(name) else {
            table.push_str(&format!("{name:<16} only in B\n"));
            continue;
        };
        let (fail_a, fail_b) = (runs_a.fail_frac(), runs_b.fail_frac());
        let fail = if fail_b > fail_a {
            "regressed"
        } else {
            "unchanged"
        };
        ok &= fail_b <= fail_a;
        table.push_str(&format!(
            "{name:<16} {:<22} {fail:<10} {fail_a} -> {fail_b}\n",
            "fail_frac"
        ));
        for metric in bounded {
            let (Some(va), Some(vb)) = (runs_a.values(&metric.name), runs_b.values(&metric.name))
            else {
                continue;
            };
            let verdict = judge(va, vb, metric.better, metric.bound);
            ok &= verdict != Verdict::Regressed;
            table.push_str(&format!(
                "{name:<16} {:<22} {:<10} {:.6} -> {:.6}  (spread {:.3} / {:.3}, bound {})\n",
                metric.name,
                verdict.as_str(),
                median(va),
                median(vb),
                spread(va),
                spread(vb),
                metric.bound
            ));
        }
    }
    Ok((table, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_on_hand_made_pairs() {
        use Better::{Higher, Lower};
        use Verdict::*;
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        // same numbers
        assert_eq!(judge(&steady, &steady, Higher, 0.05), Unchanged);
        // 20% lower throughput, bound 5%
        let slower = steady.map(|v| v * 0.8);
        assert_eq!(judge(&steady, &slower, Higher, 0.05), Regressed);
        // the same drop on a lower-is-better metric is a gain
        assert_eq!(judge(&steady, &slower, Lower, 0.05), Improved);
        // 3% worse: inside the bound
        assert_eq!(
            judge(&steady, &steady.map(|v| v * 0.97), Higher, 0.05),
            Unchanged
        );
        // 1% better: inside the 1.5% spread, so no claim
        assert_eq!(
            judge(&steady, &steady.map(|v| v * 1.01), Higher, 0.05),
            Unchanged
        );
        assert_eq!(
            judge(&steady, &steady.map(|v| v * 1.04), Higher, 0.05),
            Improved
        );
        // spread wider than the bound: the medians prove nothing…
        let noisy = [100.0, 130.0, 80.0, 101.0, 99.0];
        assert_eq!(judge(&noisy, &steady, Higher, 0.05), Unresolved);
        assert_eq!(
            judge(&steady, &noisy.map(|v| v * 0.7), Higher, 0.05),
            Unresolved
        );
        // …unless every run of B beats every run of A
        assert_eq!(
            judge(&noisy, &steady.map(|v| v * 2.0), Higher, 0.05),
            Improved
        );
        assert_eq!(
            judge(&noisy, &steady.map(|v| v * 0.5), Lower, 0.05),
            Improved
        );
        // single runs have no spread
        assert_eq!(judge(&[10.0], &[12.0], Lower, 0.1), Regressed);
        // quartiles as Python's statistics.quantiles gives them
        assert!((spread(&steady) - 0.015).abs() < 1e-12);
        assert!((spread(&[1.0, 2.0, 3.0, 4.0, 5.0]) - 1.0).abs() < 1e-12);
        assert!((spread(&[10.0, 12.0]) - 2.0 / 11.0).abs() < 1e-12);
    }

    fn file(cores: u64, quick: bool, ops: [f64; 3], failed: u64) -> ResultFile {
        let mut runs = WorkloadRuns::default();
        for v in ops {
            runs.add(&RunLine {
                correct: failed == 0,
                attempted: 10,
                failed,
                metrics: vec![
                    ("ops_per_s".into(), v, "1/s".into()),
                    ("setup_s".into(), 1.0, "s".into()),
                ],
            });
        }
        ResultFile {
            env: Json::obj(vec![
                ("cores", Json::num(cores)),
                ("profile", Json::str("release")),
            ]),
            quick,
            traced: false,
            workloads: vec![("point_http".into(), runs)],
        }
    }

    #[test]
    fn compare_refuses_bad_pairs_and_flags_regressions() {
        let bounded = bounded_metrics(
            &Json::parse(
                r#"{"end_to_end":[{"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.05},
                                  {"name":"setup_s","unit":"s","better":"lower","bound":0.25}]}"#,
            )
            .unwrap(),
        )
        .unwrap();
        let base = file(2, false, [100.0, 101.0, 99.0], 0);
        assert!(compare(&base, &file(1, false, [100.0; 3], 0), &bounded)
            .unwrap_err()
            .contains("cores"));
        assert!(compare(&base, &file(2, true, [100.0; 3], 0), &bounded)
            .unwrap_err()
            .contains("--quick"));

        let (table, ok) = compare(&base, &base, &bounded).unwrap();
        assert!(
            ok && !table.contains("regressed") && table.contains("unchanged"),
            "{table}"
        );
        let (table, ok) = compare(&base, &file(2, false, [80.0, 81.0, 79.0], 0), &bounded).unwrap();
        assert!(
            !ok && table.contains("ops_per_s") && table.contains("regressed"),
            "{table}"
        );
        // same speed, but answers started to fail
        let (table, ok) =
            compare(&base, &file(2, false, [100.0, 101.0, 99.0], 1), &bounded).unwrap();
        assert!(!ok && table.contains("fail_frac"), "{table}");
    }

    #[test]
    fn files_and_run_lines_round_trip() {
        let original = file(2, false, [1.5, 2.25, 1e9], 0);
        let parsed = ResultFile::parse(&original.to_json().to_string()).unwrap();
        assert_eq!(parsed.to_json(), original.to_json());
        assert!(ResultFile::parse("{}").is_err());

        let line = RunLine {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![("p50_us".into(), 35.0625, "us".into())],
        };
        let text = line.to_json().to_string();
        assert_eq!(
            text,
            r#"{"correct":true,"attempted":1000,"failed":0,"metrics":{"p50_us":{"value":35.0625,"unit":"us"}}}"#
        );
        assert_eq!(RunLine::parse(&text), Some(line));
        assert_eq!(RunLine::parse("thread 'main' panicked"), None);
    }
}
