//! The `spio` command-line tool: inspect, validate, query and convert
//! spatially-aware particle datasets.
//!
//! ```text
//! spio inspect  <dir>
//! spio validate <dir>
//! spio query    <dir> <x0> <y0> <z0> <x1> <y1> <z1> [--density <lo> <hi>]
//! spio lod      <dir> [readers]
//! spio report   <job-report.json>
//! spio trace    <trace-snapshot.json> [--chrome <out.json>]
//! spio check-trace <chrome-trace.json>
//! spio bench    [--procs N] [--per-rank N] [--runs N] [--baseline F]
//!               [--write F] [--trace-out F] [--report-out F] [--metrics-out F]
//! spio convert-fpp <src-dir> <nwriters> <dst-dir> <PxXPyXPz> \
//!                  <x0> <y0> <z0> <x1> <y1> <z1>
//! ```

use spio_bench::read_bench::{self, ReadBenchConfig, ReadBenchRecord};
use spio_bench::regression::{self, BenchConfig, BenchRecord};
use spio_tools::open_dir;
use spio_trace::{chrome_trace, validate_chrome_trace, Timeline, TraceSnapshot};
use spio_types::{Aabb3, PartitionFactor, SpioError};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  spio inspect  <dir>\n  spio validate <dir>\n  \
         spio gen      <dir> [procs] [per-rank]\n  \
         spio query    <dir> <x0> <y0> <z0> <x1> <y1> <z1> [--density <lo> <hi> | --lod L]\n  \
         spio lod      <dir> [readers]\n  \
         spio report   <job-report.json>\n  \
         spio trace    <trace-snapshot.json> [--chrome <out.json>]\n  \
         spio check-trace <chrome-trace.json>\n  \
         spio bench    [--procs N] [--per-rank N] [--runs N] [--baseline F] \
         [--write F] [--trace-out F] [--report-out F] [--metrics-out F]\n  \
         spio bench    --read [--procs N] [--per-rank N] [--clients N] [--queries N] \
         [--runs N] [--baseline F] [--write F] [--report-out F] [--metrics-out F]\n  \
         spio serve-bench <dir> [--clients N] [--queries N] [--workers N] [--seed N] \
         [--report-out F]\n  \
         spio series   <dir>\n  \
         spio render   <dir> <out.ppm>\n  \
         spio verify-comm [--procs N] [--seeds K]\n  \
         spio convert-fpp <src-dir> <nwriters> <dst-dir> <PxxPyxPz> <x0> <y0> <z0> <x1> <y1> <z1>"
    );
    ExitCode::from(2)
}

fn config_err(msg: impl Into<String>) -> SpioError {
    SpioError::Config(msg.into())
}

/// `spio trace`: render a trace snapshot as an ASCII timeline, or export
/// it to Chrome trace-event JSON (load via chrome://tracing or Perfetto).
fn trace_cmd(file: &str, chrome_out: Option<&str>) -> Result<(), SpioError> {
    let text = std::fs::read_to_string(file)?;
    let snapshot = TraceSnapshot::from_json(&text).map_err(SpioError::Format)?;
    match chrome_out {
        Some(out) => {
            std::fs::write(out, chrome_trace(&snapshot))?;
            println!("wrote {out} ({} events)", snapshot.events.len());
        }
        None => print!("{}", Timeline::from_snapshot(&snapshot).render_ascii(100)),
    }
    Ok(())
}

/// `spio bench`: run the desk-scale Fig. 6 workload under full tracing,
/// optionally writing a perf record / trace artifacts, and gate against a
/// baseline record (exit 1 on regression).
fn bench_cmd(rest: &[String]) -> Result<(), SpioError> {
    let mut cfg = BenchConfig::default();
    let mut baseline = None;
    let mut write_out = None;
    let mut trace_out = None;
    let mut report_out = None;
    let mut metrics_out = None;
    let mut i = 0;
    while i < rest.len() {
        let flag = rest[i].as_str();
        let val = rest
            .get(i + 1)
            .ok_or_else(|| config_err(format!("{flag} needs a value")))?;
        let parse_n = || {
            val.parse::<usize>()
                .map_err(|_| config_err(format!("{flag}: '{val}' is not a number")))
        };
        match flag {
            "--procs" => cfg.procs = parse_n()?.max(1),
            "--per-rank" => cfg.per_rank = parse_n()?,
            "--runs" => cfg.runs = parse_n()?.max(1),
            "--baseline" => baseline = Some(val.clone()),
            "--write" => write_out = Some(val.clone()),
            "--trace-out" => trace_out = Some(val.clone()),
            "--report-out" => report_out = Some(val.clone()),
            "--metrics-out" => metrics_out = Some(val.clone()),
            _ => return Err(config_err(format!("unknown flag {flag}"))),
        }
        i += 2;
    }
    // Load the baseline before the (slow) workload so a bad path or
    // malformed record fails fast.
    let base = baseline
        .as_ref()
        .map(|f| BenchRecord::from_json(&std::fs::read_to_string(f)?).map_err(SpioError::Format))
        .transpose()?;
    println!(
        "running fig6 workload: {} ranks x {} particles, {} run(s) per config",
        cfg.procs, cfg.per_rank, cfg.runs
    );
    let run = regression::run_fig6(&cfg)?;
    for c in &run.record.configs {
        let times: Vec<String> = c
            .phases
            .iter()
            .map(|p| format!("{}={}µs", p.phase, p.micros))
            .collect();
        println!("  {}: {}", c.config, times.join(" "));
    }
    if let Some(out) = &write_out {
        std::fs::write(out, run.record.to_json())?;
        println!("wrote baseline {out}");
    }
    if let Some(out) = &trace_out {
        std::fs::write(out, run.snapshot.to_json())?;
        println!("wrote trace snapshot {out}");
    }
    if let Some(out) = &report_out {
        std::fs::write(out, run.report.to_json())?;
        println!("wrote job report {out}");
    }
    if let Some(out) = &metrics_out {
        std::fs::write(out, &run.metrics_jsonl)?;
        println!("wrote metrics {out}");
    }
    if let Some(base) = &base {
        let base_file = baseline.as_deref().unwrap_or_default();
        let regressions = regression::compare(base, &run.record, regression::DEFAULT_THRESHOLD)
            .map_err(SpioError::Config)?;
        if regressions.is_empty() {
            println!("bench gate PASS vs {base_file}");
        } else {
            eprintln!("bench gate FAIL vs {base_file}:");
            for r in &regressions {
                eprintln!("  REGRESSION {r}");
            }
            std::process::exit(1);
        }
    }
    Ok(())
}

/// `spio bench --read`: run the read-serving benchmark (cold vs warm
/// hot-spot query + multi-client replay), optionally writing a record and
/// gating against a baseline (exit 1 on regression).
fn read_bench_cmd(rest: &[String]) -> Result<(), SpioError> {
    let mut cfg = ReadBenchConfig::default();
    let mut baseline = None;
    let mut write_out = None;
    let mut report_out = None;
    let mut metrics_out = None;
    let mut i = 0;
    while i < rest.len() {
        let flag = rest[i].as_str();
        let val = rest
            .get(i + 1)
            .ok_or_else(|| config_err(format!("{flag} needs a value")))?;
        let parse_n = || {
            val.parse::<usize>()
                .map_err(|_| config_err(format!("{flag}: '{val}' is not a number")))
        };
        match flag {
            "--procs" => cfg.procs = parse_n()?.max(1),
            "--per-rank" => cfg.per_rank = parse_n()?,
            "--clients" => cfg.clients = parse_n()?.max(1),
            "--queries" => cfg.queries_per_client = parse_n()?,
            "--runs" => cfg.runs = parse_n()?.max(1),
            "--baseline" => baseline = Some(val.clone()),
            "--write" => write_out = Some(val.clone()),
            "--report-out" => report_out = Some(val.clone()),
            "--metrics-out" => metrics_out = Some(val.clone()),
            _ => return Err(config_err(format!("unknown flag {flag}"))),
        }
        i += 2;
    }
    let base = baseline
        .as_ref()
        .map(|f| {
            ReadBenchRecord::from_json(&std::fs::read_to_string(f)?).map_err(SpioError::Format)
        })
        .transpose()?;
    println!(
        "running read workload: {} ranks x {} particles, {} clients x {} queries, {} run(s)",
        cfg.procs, cfg.per_rank, cfg.clients, cfg.queries_per_client, cfg.runs
    );
    let run = read_bench::run_read_bench(&cfg)?;
    println!(
        "  cold_box={}µs warm_box={}µs (speedup {:.1}x), replay hit rate {:.0}%",
        run.record.cold_box_us,
        run.record.warm_box_us,
        run.record.speedup(),
        run.record.hit_rate() * 100.0
    );
    if let Some(out) = &write_out {
        std::fs::write(out, run.record.to_json())?;
        println!("wrote baseline {out}");
    }
    if let Some(out) = &report_out {
        std::fs::write(out, run.report.to_json())?;
        println!("wrote job report {out}");
    }
    if let Some(out) = &metrics_out {
        std::fs::write(out, &run.metrics_jsonl)?;
        println!("wrote metrics {out}");
    }
    if let Some(base) = &base {
        let base_file = baseline.as_deref().unwrap_or_default();
        let regressions =
            read_bench::compare_read(base, &run.record, regression::DEFAULT_THRESHOLD)
                .map_err(SpioError::Config)?;
        if regressions.is_empty() {
            println!("read bench gate PASS vs {base_file}");
        } else {
            eprintln!("read bench gate FAIL vs {base_file}:");
            for r in &regressions {
                eprintln!("  REGRESSION {r}");
            }
            std::process::exit(1);
        }
    }
    Ok(())
}

/// `spio serve-bench`: replay a seeded multi-client query workload against
/// an on-disk dataset through the serving engine and print the job report.
fn serve_bench_cmd(dir: &str, rest: &[String]) -> Result<(), SpioError> {
    let mut clients = 4usize;
    let mut spec = spio_serve::WorkloadSpec::default();
    let mut config = spio_serve::ServeConfig::default();
    let mut report_out = None;
    let mut i = 0;
    while i < rest.len() {
        let flag = rest[i].as_str();
        let val = rest
            .get(i + 1)
            .ok_or_else(|| config_err(format!("{flag} needs a value")))?;
        let parse_n = || {
            val.parse::<usize>()
                .map_err(|_| config_err(format!("{flag}: '{val}' is not a number")))
        };
        match flag {
            "--clients" => clients = parse_n()?.max(1),
            "--queries" => spec.queries_per_client = parse_n()?,
            "--workers" => config.workers = parse_n()?.max(1),
            "--seed" => spec.seed = parse_n()? as u64,
            "--report-out" => report_out = Some(val.clone()),
            _ => return Err(config_err(format!("unknown flag {flag}"))),
        }
        i += 2;
    }
    let (text, report) = spio_tools::serve_bench(&open_dir(dir), clients, &spec, config)?;
    print!("{text}");
    if let Some(out) = &report_out {
        std::fs::write(out, report.to_json())?;
        println!("wrote job report {out}");
    }
    Ok(())
}

fn parse_f64s(args: &[String]) -> Option<Vec<f64>> {
    args.iter().map(|a| a.parse().ok()).collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let result = match (cmd.as_str(), &args[1..]) {
        ("inspect", [dir]) => spio_tools::inspect(&open_dir(dir)).map(|t| print!("{t}")),
        ("gen", [dir, rest @ ..]) if rest.len() <= 2 => {
            let parse = |i: usize, default: usize| match rest.get(i) {
                Some(v) => v.parse::<usize>().map_err(|_| ()),
                None => Ok(default),
            };
            let (Ok(procs), Ok(per_rank)) = (parse(0, 8), parse(1, 5_000)) else {
                return usage();
            };
            spio_tools::generate_uniform(&open_dir(dir), procs, per_rank, 42).map(|t| print!("{t}"))
        }
        ("validate", [dir]) => spio_tools::validate(&open_dir(dir)).map(|report| {
            println!(
                "checked {} files / {} particles",
                report.files_checked, report.particles_checked
            );
            if report.is_ok() {
                println!("dataset OK");
            } else {
                for p in &report.problems {
                    println!("PROBLEM: {p}");
                }
                std::process::exit(1);
            }
        }),
        ("query", rest) if rest.len() == 7 || rest.len() == 9 || rest.len() == 10 => {
            let dir = &rest[0];
            match parse_f64s(&rest[1..7]) {
                Some(c) => {
                    let q = Aabb3::new([c[0], c[1], c[2]], [c[3], c[4], c[5]]);
                    if rest.len() == 9 {
                        if rest[7] != "--lod" {
                            return usage();
                        }
                        let Ok(level) = rest[8].parse::<u32>() else {
                            return usage();
                        };
                        spio_tools::query_lod(&open_dir(dir), &q, level).map(|t| print!("{t}"))
                    } else {
                        let density = if rest.len() == 10 && rest[7] == "--density" {
                            match parse_f64s(&rest[8..10]) {
                                Some(d) => Some((d[0], d[1])),
                                None => return usage(),
                            }
                        } else if rest.len() == 10 {
                            return usage();
                        } else {
                            None
                        };
                        spio_tools::query(&open_dir(dir), &q, density).map(|t| print!("{t}"))
                    }
                }
                None => return usage(),
            }
        }
        ("report", [file]) => std::fs::read_to_string(file)
            .map_err(Into::into)
            .and_then(|json| spio_tools::report(&json))
            .map(|t| print!("{t}")),
        ("trace", [file]) => trace_cmd(file, None),
        ("trace", [file, flag, out]) if flag == "--chrome" => trace_cmd(file, Some(out)),
        ("check-trace", [file]) => std::fs::read_to_string(file)
            .map_err(SpioError::from)
            .and_then(|json| validate_chrome_trace(&json).map_err(SpioError::Format))
            .map(|()| println!("chrome trace OK")),
        ("bench", rest) if rest.first().map(String::as_str) == Some("--read") => {
            read_bench_cmd(&rest[1..])
        }
        ("bench", rest) => bench_cmd(rest),
        ("serve-bench", [dir, rest @ ..]) => serve_bench_cmd(dir, rest),
        ("verify-comm", rest) => {
            let mut procs = 4usize;
            let mut seeds = 16u64;
            let mut i = 0;
            let mut bad = false;
            while i < rest.len() {
                match (
                    rest[i].as_str(),
                    rest.get(i + 1).and_then(|v| v.parse::<u64>().ok()),
                ) {
                    ("--procs", Some(n)) => procs = n as usize,
                    ("--seeds", Some(n)) => seeds = n,
                    _ => {
                        bad = true;
                        break;
                    }
                }
                i += 2;
            }
            if bad {
                return usage();
            }
            spio_tools::verify_comm(procs, seeds).map(|t| print!("{t}"))
        }
        ("series", [dir]) => spio_tools::series_info(&open_dir(dir)).map(|t| print!("{t}")),
        ("render", [dir, out]) => spio_tools::render_ppm(&open_dir(dir), 640, 640)
            .and_then(|img| std::fs::write(out, img).map_err(Into::into))
            .map(|()| println!("wrote {out}")),
        ("lod", [dir]) => spio_tools::lod_stats(&open_dir(dir), 1).map(|t| print!("{t}")),
        ("lod", [dir, readers]) => match readers.parse() {
            Ok(n) => spio_tools::lod_stats(&open_dir(dir), n).map(|t| print!("{t}")),
            Err(_) => return usage(),
        },
        ("convert-fpp", rest) if rest.len() == 10 => {
            let (src, dst) = (&rest[0], &rest[2]);
            let Ok(nwriters) = rest[1].parse::<usize>() else {
                return usage();
            };
            let Ok(factor) = PartitionFactor::parse(&rest[3]) else {
                return usage();
            };
            let Some(c) = parse_f64s(&rest[4..10]) else {
                return usage();
            };
            let domain = Aabb3::new([c[0], c[1], c[2]], [c[3], c[4], c[5]]);
            spio_tools::convert_fpp(&open_dir(src), nwriters, &open_dir(dst), factor, domain)
                .map(|t| print!("{t}"))
        }
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
