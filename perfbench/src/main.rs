//! End-to-end and per-layer benchmark of the particle I/O stack.
//!
//! ```text
//! perfbench --workload <write-agg|read-box|serve-mixed> --seed <n>
//!           --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Each invocation runs one workload in its own process: it builds the
//! inputs from the seed, sets up (several times, reporting the median),
//! runs a fixed op list whose length is `--seconds` times a constant rate,
//! and checks every result. With `--trace 0` it prints the end-to-end
//! metrics; with `--trace 1` it runs half the op list untraced, traced,
//! traced and untraced again, and prints the per-layer metrics, the tracing
//! overhead and the exact-work fingerprint. The last line of standard output is one JSON object.
//! `--tiny` shrinks every workload to a few thousand particles (smoke test).
//! NOTES.md explains the workloads and what each metric should move.

mod alloc;
mod fixture;
mod measure;
mod probe;
mod read_box;
mod serve_mixed;
mod write_agg;

use measure::{median, tail, Outcome, Plan};
use probe::{Probe, Span};
use spio_util::Json;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

const WORKLOADS: [&str; 3] = ["write-agg", "read-box", "serve-mixed"];

/// Set-ups per untraced run. One set-up of the larger workloads takes well
/// under a second, too short to time steadily on a shared machine; the
/// median of three is reported.
const SETUPS: usize = 3;

/// Where traced runs leave their span dumps and fingerprints, relative to
/// the working directory.
const OUT_DIR: &str = ".perfbench";

/// The end-to-end metrics, printed by every `--trace 0` run.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.tail", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, printed by every `--trace 1` run. A layer the
/// workload leaves idle reads 0.
const LAYERS: [(&str, &str); 28] = [
    ("comm.msgs_per_op", "count"),
    ("comm.bytes_per_op", "B"),
    ("comm.collectives_per_op", "count"),
    ("comm.wait_ms", "ms"),
    ("comm.wait_ms.rank0", "ms"),
    ("comm.wait_ms.rank1", "ms"),
    ("writer.aggregation_ms", "ms"),
    ("writer.shuffle_ms", "ms"),
    ("writer.file_io_ms", "ms"),
    ("writer.meta_ms", "ms"),
    ("storage.write_ms", "ms"),
    ("storage.write_bytes_per_op", "B"),
    ("storage.write_ops_per_op", "count"),
    ("storage.read_ms", "ms"),
    ("storage.read_bytes_per_op", "B"),
    ("storage.read_file_ops", "count"),
    ("storage.read_range_ops", "count"),
    ("format.encode_ms", "ms"),
    ("reader.self_ms", "ms"),
    ("reader.files_per_op", "count"),
    ("reader.useful_ratio", "ratio"),
    ("index.select_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.resident_mb", "MB"),
    ("serve.files_per_query", "count"),
    ("serve.storage_ms_per_query", "ms"),
    ("trace.overhead_frac", "frac"),
    ("trace.fingerprint_drift", "count"),
];

struct Args {
    workload: &'static str,
    plan: Plan,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS.iter().find(|w| **w == value);
                workload = Some(*w.ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        plan: Plan {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            tiny,
            setups: SETUPS,
        },
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run_workload(args: &Args, probe: Option<Arc<Probe>>) -> Result<Outcome, String> {
    match args.workload {
        "write-agg" => write_agg::run(&args.plan, probe),
        "read-box" => read_box::run(&args.plan, probe),
        _ => serve_mixed::run(&args.plan, probe),
    }
}

fn main() -> ExitCode {
    alloc::keep_freed_memory();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--tiny]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench {} seed={} seconds={}{} available_parallelism={cores}",
        args.workload,
        args.plan.seed,
        args.plan.seconds,
        if args.plan.tiny { " tiny" } else { "" },
    );
    let result = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: wrong results (see the lines above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn untraced(args: &Args) -> Result<bool, String> {
    let out = run_workload(args, None)?;
    print_checks(&out);
    let (pct, tail_ms, beyond) = tail(&out.op_ms);
    let values = [
        median(&out.setup_s),
        out.op_ms.len() as f64 / out.phase_s,
        median(&out.op_ms),
        tail_ms,
        out.peak_rss_mb,
    ];
    let setups = out.setup_s.len();
    for ((name, unit), value) in END_TO_END.iter().zip(values) {
        let extra = match *name {
            "setup_s" => format!("  (median of {setups} set-ups)"),
            "ops_per_s" => format!("  ({} ops in {:.3} s)", out.op_ms.len(), out.phase_s),
            "op_ms.tail" => format!(
                "  (p{pct:.2}: {beyond} of {} samples beyond)",
                out.op_ms.len()
            ),
            _ => String::new(),
        };
        println!("{name:<28} {value:>14.4} {unit}{extra}");
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "{:<28} {failed_frac:>14.4} frac  ({} of {} checked results failed)",
        "failed_frac", out.failed, out.attempted
    );
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|((n, u), v)| (*n, *u, v))
        .collect::<Vec<_>>();
    print_json(out.problems.is_empty(), out.attempted, out.failed, &metrics);
    Ok(out.problems.is_empty())
}

fn traced(args: &Args) -> Result<bool, String> {
    // Untraced, traced, traced, untraced, each over half the op list with
    // one set-up: the order cancels what running first or later in the
    // process does to a run, and the two untraced halves show the
    // run-to-run noise the overhead has to stand out from.
    let half = Args {
        plan: Plan {
            seconds: (args.plan.seconds / 2).max(1),
            setups: 1,
            ..args.plan
        },
        ..*args
    };
    let first = run_workload(&half, None)?;
    let mut out = run_workload(&half, Some(Probe::new()))?;
    let second = run_workload(&half, Some(Probe::new()))?;
    let base = [first, run_workload(&half, None)?];
    for o in base.iter().chain([&out, &second]) {
        print_checks(o);
    }
    let untraced_ms: Vec<f64> = base.iter().flat_map(|b| b.op_ms.iter().copied()).collect();
    let traced_ms: Vec<f64> = [&out, &second]
        .iter()
        .flat_map(|t| t.op_ms.iter().copied())
        .collect();
    let overhead = median(&traced_ms) / median(&untraced_ms) - 1.0;
    let noise = median(&base[1].op_ms) / median(&base[0].op_ms) - 1.0;
    out.layers.set("trace.overhead_frac", overhead);
    println!(
        "tracing overhead {overhead:+.4}: traced op_ms.p50 {:.4} ms vs untraced {:.4} ms; \
         the two untraced halves differ by {noise:+.4}",
        median(&traced_ms),
        median(&untraced_ms),
    );
    // The two traced halves ran the same op list: their exact counters
    // must agree before they are compared with earlier runs.
    let again = exact_counters(&second);
    let mismatched = exact_counters(&out)
        .iter()
        .filter(|c| !again.contains(c))
        .count();
    if mismatched > 0 {
        println!("fingerprint: DIFFERENT WORKLOAD, not noise: {mismatched} exact counters differ between the traced halves");
    }
    let drift = check_fingerprint(args, &out)? + mismatched;
    out.layers.set("trace.fingerprint_drift", drift as f64);
    let spans_path = write_spans(args, &out.spans)?;
    println!(
        "{} spans of the first traced half in {spans_path}",
        out.spans.len()
    );
    let mut metrics = Vec::new();
    for (name, unit) in LAYERS {
        let (value, exact) = out.layers.get(name).unwrap_or((0.0, false));
        let tag = if exact { "  exact" } else { "" };
        println!("{name:<28} {value:>14.4} {unit}{tag}");
        metrics.push((name, unit, value));
    }
    let runs = [&base[0], &base[1], &out, &second];
    let correct = runs.iter().all(|o| o.problems.is_empty());
    print_json(
        correct,
        runs.iter().map(|o| o.attempted).sum(),
        runs.iter().map(|o| o.failed).sum(),
        &metrics,
    );
    Ok(correct)
}

fn print_checks(out: &Outcome) {
    for note in &out.notes {
        println!("note: {note}");
    }
    for p in out.problems.iter().take(20) {
        println!("WRONG: {p}");
    }
    if out.problems.len() > 20 {
        println!("WRONG: ... and {} more", out.problems.len() - 20);
    }
}

fn print_json(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) {
    let metrics = metrics
        .iter()
        .map(|(name, unit, value)| {
            let m = Json::Obj(vec![
                ("value".into(), Json::Num(*value)),
                ("unit".into(), Json::str(*unit)),
            ]);
            (name.to_string(), m)
        })
        .collect();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::u64(attempted.max(1))),
        ("failed".into(), Json::u64(failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{result}");
}

/// Compare the run's exact work counters with those of the last traced run
/// of the same workload, seed and length in this directory. A difference
/// means the workload itself changed, not that it ran noisily. Returns the
/// number of counters that differ.
fn check_fingerprint(args: &Args, out: &Outcome) -> Result<usize, String> {
    let current = exact_counters(out);
    let path = Path::new(OUT_DIR).join(format!(
        "{}-seed{}-{}s{}.fingerprint",
        args.workload,
        args.plan.seed,
        args.plan.seconds,
        if args.plan.tiny { "-tiny" } else { "" }
    ));
    println!(
        "fingerprint ({} exact counters): {}",
        current.len(),
        current.join(", ")
    );
    let drift = match std::fs::read_to_string(&path) {
        Ok(previous) => {
            let previous: Vec<&str> = previous.lines().collect();
            let changed: Vec<&String> = current
                .iter()
                .filter(|c| !previous.contains(&c.as_str()))
                .collect();
            if changed.is_empty() && previous.len() == current.len() {
                println!(
                    "fingerprint: identical to the previous run ({})",
                    path.display()
                );
            } else {
                println!(
                    "fingerprint: DIFFERENT WORKLOAD, not noise: {:?} were {previous:?} ({})",
                    changed,
                    path.display()
                );
            }
            changed.len() + previous.len().saturating_sub(current.len())
        }
        Err(_) => {
            println!(
                "fingerprint: first traced run here; recorded in {}",
                path.display()
            );
            0
        }
    };
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    std::fs::write(&path, current.join("\n") + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(drift)
}

/// The run's exact work counters, one `name value` string each.
fn exact_counters(out: &Outcome) -> Vec<String> {
    LAYERS
        .iter()
        .filter_map(|(name, _)| match out.layers.get(name) {
            Some((v, true)) => Some(format!("{name} {v}")),
            _ => None,
        })
        .collect()
}

/// Write the timed phase's spans as JSON lines.
fn write_spans(args: &Args, spans: &[Span]) -> Result<String, String> {
    let opt = |v: Option<u64>| v.map_or(Json::Null, Json::u64);
    let mut text = String::new();
    for s in spans {
        let span = Json::Obj(vec![
            ("id".into(), Json::u64(s.id)),
            ("op".into(), opt(s.op)),
            ("parent".into(), opt(s.parent)),
            ("lane".into(), opt(s.lane.map(u64::from))),
            ("name".into(), Json::str(s.name)),
            ("start_us".into(), Json::Num(s.start.as_secs_f64() * 1e6)),
            ("end_us".into(), Json::Num(s.end.as_secs_f64() * 1e6)),
            ("bytes".into(), Json::u64(s.bytes)),
        ]);
        text.push_str(&span.to_string());
        text.push('\n');
    }
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join(format!(
        "{}-seed{}.spans.jsonl",
        args.workload, args.plan.seed
    ));
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}
