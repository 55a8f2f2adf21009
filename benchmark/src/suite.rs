//! The full set: every workload untraced and traced, each in a fresh
//! process; the cross-run digest checks; the table and the JSON file;
//! `--check-repeat` and `--quick`.

use std::process::{Command, ExitCode, Stdio};

use serde::json::{parse, Value};

use crate::host::Host;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::workload::WORKLOADS;
use crate::Args;

/// One child run, parsed back from its standard output.
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
    unbounded: Vec<(String, f64)>,
    digests: Vec<String>,
}

/// What `BENCHMARK.json` fixes: names, units, directions, bounds.
struct Manifest {
    run_seconds: f64,
    workloads: Vec<String>,
    end_to_end: Vec<(String, String, String, f64)>,
    per_layer: Vec<(String, String, String)>,
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing `{key}`"))
}

fn text(v: &Value, key: &str) -> Result<String, String> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("`{key}` is not a string"))
}

fn number(v: &Value, key: &str) -> Result<f64, String> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| format!("`{key}` is not a number"))
}

fn list<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    field(v, key)?
        .as_arr()
        .ok_or_else(|| format!("`{key}` is not a list"))
}

impl Manifest {
    fn load() -> Result<Manifest, String> {
        let raw = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
        let v = parse(&raw).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
        let named = |key: &str| -> Result<Vec<(String, String, String)>, String> {
            list(&v, key)?
                .iter()
                .map(|m| Ok((text(m, "name")?, text(m, "unit")?, text(m, "better")?)))
                .collect()
        };
        let bounds: Vec<f64> = list(&v, "end_to_end")?
            .iter()
            .map(|m| number(m, "bound"))
            .collect::<Result<_, _>>()?;
        Ok(Manifest {
            run_seconds: number(&v, "run_seconds")?,
            workloads: list(&v, "workloads")?
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: named("end_to_end")?
                .into_iter()
                .zip(bounds)
                .map(|((n, u, b), bound)| (n, u, b, bound))
                .collect(),
            per_layer: named("per_layer")?,
        })
    }

    /// The manifest must name exactly what the binary produces.
    fn check_vocabulary(&self) -> Result<(), String> {
        let same = |ours: &[MetricDef], theirs: Vec<(&str, &str, &str)>, what: &str| {
            let ours: Vec<(&str, &str, &str)> = ours.to_vec();
            if ours == theirs {
                Ok(())
            } else {
                Err(format!(
                    "BENCHMARK.json `{what}` differs from the metrics this binary produces"
                ))
            }
        };
        same(
            &END_TO_END,
            self.end_to_end
                .iter()
                .map(|(n, u, b, _)| (n.as_str(), u.as_str(), b.as_str()))
                .collect(),
            "end_to_end",
        )?;
        same(
            &PER_LAYER,
            self.per_layer
                .iter()
                .map(|(n, u, b)| (n.as_str(), u.as_str(), b.as_str()))
                .collect(),
            "per_layer",
        )?;
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        if ours
            != self
                .workloads
                .iter()
                .map(String::as_str)
                .collect::<Vec<_>>()
        {
            return Err("BENCHMARK.json `workloads` differs from this binary's".into());
        }
        Ok(())
    }
}

/// Runs one workload in a fresh process and parses its result.
fn spawn(
    workload: &str,
    trace: bool,
    seed: u64,
    seconds: f64,
    quick: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout.lines() {
        if !line.starts_with('{') && !line.starts_with("metric:") && !line.starts_with("host:") {
            println!("    {line}");
        }
    }
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}",
            u8::from(trace),
            out.status
        ));
    }
    let last = stdout.lines().last().ok_or("no output")?;
    let v = parse(last).map_err(|e| format!("result line: {e:?}"))?;
    let metrics = match field(&v, "metrics")? {
        Value::Obj(pairs) => pairs
            .iter()
            .map(|(k, m)| Ok((k.clone(), number(m, "value")?)))
            .collect::<Result<Vec<_>, String>>()?,
        _ => return Err("`metrics` is not an object".into()),
    };
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("DETAIL "))
        .ok_or("no DETAIL line")?;
    let detail = parse(detail).map_err(|e| format!("DETAIL line: {e:?}"))?;
    Ok(ChildRun {
        correct: matches!(field(&v, "correct")?, Value::Bool(true)),
        attempted: number(&v, "attempted")? as u64,
        failed: number(&v, "failed")? as u64,
        metrics,
        unbounded: match field(&detail, "unbounded")? {
            Value::Obj(pairs) => pairs
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
                .collect(),
            _ => Vec::new(),
        },
        digests: list(&detail, "digests")?
            .iter()
            .filter_map(|d| d.as_str().map(str::to_string))
            .collect(),
    })
}

/// One full set: `(workload, untraced, traced)` per workload.
type Set = Vec<(&'static str, ChildRun, ChildRun)>;

fn run_set(seed: u64, seconds: f64, quick: bool) -> Result<(Set, Vec<String>), String> {
    let mut set = Vec::new();
    let mut problems = Vec::new();
    for w in WORKLOADS {
        println!("== {} (seed {seed}, {seconds} s, spans off)", w.name);
        let plain = spawn(w.name, false, seed, seconds, quick)?;
        println!("== {} (traced)", w.name);
        let traced = spawn(w.name, true, seed, seconds, quick)?;
        for (run, which) in [(&plain, "untraced"), (&traced, "traced")] {
            if !run.correct {
                problems.push(format!("{} {which}: reported incorrect", w.name));
            }
        }
        // Round r does the same jobs traced or not, so the digests the
        // two runs share must be equal.
        let common = plain.digests.len().min(traced.digests.len());
        if common == 0 || plain.digests[..common] != traced.digests[..common] {
            problems.push(format!(
                "{}: traced and untraced digests differ ({:?} vs {:?})",
                w.name,
                &traced.digests[..common],
                &plain.digests[..common]
            ));
        }
        set.push((w.name, plain, traced));
    }
    let digest_of = |name: &str| {
        set.iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, plain, _)| plain.digests.clone())
    };
    if digest_of("campaign_t1") != digest_of("campaign_t2") {
        problems.push("campaign_t1 and campaign_t2 artifacts differ".into());
    }
    Ok((set, problems))
}

fn print_set(set: &Set) {
    for (defs, traced, title) in [
        (&END_TO_END[..], false, "end-to-end (spans off)"),
        (&PER_LAYER[..], true, "per-layer (traced run)"),
    ] {
        println!("\n{title}");
        print!("{:<40} {:<8}", "metric", "unit");
        for (name, _, _) in set {
            print!(" {name:>15}");
        }
        println!();
        for (name, unit, _) in defs {
            print!("{name:<40} {unit:<8}");
            for (_, plain, tr) in set {
                let run = if traced { tr } else { plain };
                match run.metrics.iter().find(|(n, _)| n == name) {
                    Some((_, v)) => print!(" {v:>15.5}"),
                    None => print!(" {:>15}", "-"),
                }
            }
            println!();
        }
    }
    println!();
    for (name, plain, _) in set {
        println!(
            "{name}: attempted {} failed {} failed_frac {}",
            plain.attempted,
            plain.failed,
            plain.failed as f64 / plain.attempted.max(1) as f64
        );
    }
}

fn set_json(set: &Set, host: &Host, seed: u64, seconds: f64, quick: bool) -> Value {
    let object = |pairs: &[(String, f64)]| {
        Value::Obj(
            pairs
                .iter()
                .map(|(k, v)| (k.clone(), Value::Num(*v)))
                .collect(),
        )
    };
    Value::Obj(vec![
        (
            "host".into(),
            Value::Obj(vec![
                ("nproc".into(), Value::Num(host.nproc as f64)),
                ("cpu".into(), Value::Str(host.cpu_model.clone())),
                ("caches".into(), Value::Str(host.cache_line())),
                ("ram_bytes".into(), Value::Num(host.ram_bytes as f64)),
                ("rustc".into(), Value::Str(host.rustc.clone())),
                ("commit".into(), Value::Str(host.commit.clone())),
            ]),
        ),
        ("seed".into(), Value::Num(seed as f64)),
        ("seconds".into(), Value::Num(seconds)),
        ("quick".into(), Value::Bool(quick)),
        (
            "workloads".into(),
            Value::Obj(
                set.iter()
                    .map(|(name, plain, traced)| {
                        (
                            (*name).to_string(),
                            Value::Obj(vec![
                                ("attempted".into(), Value::Num(plain.attempted as f64)),
                                ("failed".into(), Value::Num(plain.failed as f64)),
                                (
                                    "digests".into(),
                                    Value::Arr(
                                        plain.digests.iter().cloned().map(Value::Str).collect(),
                                    ),
                                ),
                                ("end_to_end".into(), object(&plain.metrics)),
                                ("unbounded".into(), object(&plain.unbounded)),
                                ("per_layer".into(), object(&traced.metrics)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Two sets must agree within each end-to-end metric's bound, and
/// exactly on failures and digests.
fn compare_sets(a: &Set, b: &Set, manifest: &Manifest) -> Vec<String> {
    let mut problems = Vec::new();
    println!("\nrepeat check: second set against the first, per metric and workload");
    for ((name, pa, _), (_, pb, _)) in a.iter().zip(b) {
        if pa.failed != pb.failed || pa.digests.first() != pb.digests.first() {
            problems.push(format!(
                "{name}: failures or digests differ between the sets"
            ));
        }
        for (metric, _, better, bound) in &manifest.end_to_end {
            let get = |run: &ChildRun| run.metrics.iter().find(|(n, _)| n == metric).map(|m| m.1);
            let (Some(va), Some(vb)) = (get(pa), get(pb)) else {
                problems.push(format!("{name}: {metric} missing"));
                continue;
            };
            let change = (vb - va) / va.abs();
            let worse = if better == "higher" { -change } else { change };
            let ok = change.abs() <= *bound;
            println!(
                "  {name:<15} {metric:<22} {va:>12.5} -> {vb:>12.5}  {:+6.1}% (bound {:.0}%){}",
                100.0 * change,
                100.0 * bound,
                if ok { "" } else { "  OUT OF BOUND" }
            );
            if !ok {
                problems.push(format!(
                    "{name}: {metric} moved {:+.1}% ({}), bound {:.0}%",
                    100.0 * change,
                    if worse > 0.0 { "worse" } else { "better" },
                    100.0 * bound
                ));
            }
        }
    }
    problems
}

pub fn run(args: &Args) -> Result<ExitCode, String> {
    let manifest = Manifest::load()?;
    manifest.check_vocabulary()?;
    let host = Host::detect();
    host.print(args.seed);
    let seconds = args.seconds.unwrap_or(if args.quick {
        1.0
    } else {
        manifest.run_seconds
    });
    let started = std::time::Instant::now();
    let (set, mut problems) = run_set(args.seed, seconds, args.quick)?;
    print_set(&set);
    if args.check_repeat {
        let (second, more) = run_set(args.seed, seconds, args.quick)?;
        problems.extend(more);
        problems.extend(compare_sets(&set, &second, &manifest));
    }
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| "benchmark/out/latest.json".into());
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let json = set_json(&set, &host, args.seed, seconds, args.quick);
    std::fs::write(&out, format!("{json}\n")).map_err(|e| format!("{out}: {e}"))?;
    println!("wrote {out} ({:.0} s)", started.elapsed().as_secs_f64());
    if problems.is_empty() {
        println!("all checks passed");
        Ok(ExitCode::SUCCESS)
    } else {
        for p in &problems {
            println!("FAILED: {p}");
        }
        Ok(ExitCode::FAILURE)
    }
}
