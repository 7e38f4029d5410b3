//! `servebench`: the serve stack's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload fleet|hires|json --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run fits the meta model from seed-derived data, serves pre-encoded
//! frames to an in-process `metaseg-serve` server over loopback TCP in a
//! closed loop, checks every served verdict bit for bit against an
//! in-process engine, and prints a run header, one `metric` line per metric
//! and, last, one JSON object. `--trace 0` reports the end-to-end metrics
//! and records no spans; `--trace 1` reports the per-layer metrics from
//! spans around the served path's client calls and an in-process replay.
//! See `README.md` next to this file.

mod check;
mod load;
mod replay;
mod trace;
mod workload;

use load::{Served, Setup, SHARD_WORKERS};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{median, Tracer};
use workload::{specs, Spec};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Phases of the traced run, alternating untraced and traced.
const TRACE_PHASES: usize = 4;

/// Directory the traced run writes its spans to.
const SPAN_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0_f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn git_rev() -> String {
    if !std::path::Path::new(".git").exists() {
        return "none (not a git checkout)".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// CRC-32 over the paths and contents of every file under `crates/` and
/// `vendor/`: names the code under test where no git revision exists.
fn source_crc() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk("crates".as_ref(), &mut files);
    walk("vendor".as_ref(), &mut files);
    files.sort();
    let mut all = Vec::new();
    for file in &files {
        all.extend_from_slice(file.to_string_lossy().as_bytes());
        all.extend(std::fs::read(file).unwrap_or_default());
    }
    format!("{:08x} ({} files)", metaseg_data::crc32(&all), files.len())
}

fn print_header(spec: &Spec, args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# servebench workload={} seed={} seconds={} trace={}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# why: {}", spec.why);
    println!("# git_rev: {}  source_crc32: {}", git_rev(), source_crc());
    println!(
        "# nproc: {nproc}  client_threads: {}  client_connections: {}  shard_workers: {SHARD_WORKERS}  rayon_threads: {}",
        spec.connections,
        spec.connections,
        rayon::current_num_threads()
    );
    println!(
        "# build: profile={} opt_level={} RUSTFLAGS=\"{}\"",
        env!("SERVEBENCH_PROFILE"),
        env!("SERVEBENCH_OPT_LEVEL"),
        env!("SERVEBENCH_RUSTFLAGS")
    );
    println!(
        "# shape: {} sessions of {}x{} px, wire {} (dispersion {}), {} in flight per connection, loop of {} frames per session",
        spec.sessions,
        spec.scene.width,
        spec.scene.height,
        spec.format,
        spec.dispersion.as_str(),
        spec.in_flight,
        spec.clips_per_session * spec.clip_frames
    );
}

/// Prints every metric as a line, then the result object as the last line.
fn finish(metrics: &[Metric], attempted: usize, failed: usize, correct: bool) -> ExitCode {
    let mut json = String::new();
    for (i, m) in metrics.iter().enumerate() {
        println!("metric {} {} {}", m.name, m.value, m.unit);
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            json,
            r#"{sep}"{}":{{"value":{},"unit":"{}"}}"#,
            m.name, m.value, m.unit
        );
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = correct && finite && failed == 0;
    println!(
        r#"{{"correct":{correct},"attempted":{attempted},"failed":{failed},"metrics":{{{json}}}}}"#
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "servebench: a check failed (failed frames, mismatched regions or a non-finite metric)"
        );
        ExitCode::FAILURE
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))?
                .split_whitespace()
                .nth(1)?
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn served_refs<'a>(outcomes: &[&'a load::Outcome]) -> Vec<&'a Served> {
    outcomes.iter().flat_map(|o| &o.served).collect()
}

/// The untraced run behind the end-to-end metrics.
fn timed_run(spec: &Spec, args: &Args) -> Result<ExitCode, String> {
    let mut tracer = Tracer::new(Instant::now(), false);
    let mut setup_s = Vec::with_capacity(SETUPS);
    let (mut attempted, mut failed) = (0, 0);
    let mut first_warmup: Option<Vec<(usize, usize, u64)>> = None;
    let mut setup = None;
    for i in 0..SETUPS {
        let s = Setup::new(spec, args.seed, &mut tracer)?;
        setup_s.push(s.seconds);
        attempted += s.warmup.attempted;
        failed += s.warmup.failed;
        let mut warmup: Vec<_> = s
            .warmup
            .served
            .iter()
            .map(|f| (f.session, f.n, f.digest))
            .collect();
        warmup.sort_unstable();
        match &first_warmup {
            None => first_warmup = Some(warmup),
            // Every set-up serves the same loop from the same seed: its
            // verdicts must repeat bit for bit.
            Some(first) => {
                if *first != warmup {
                    eprintln!("servebench: set-up {i} served different warm-up verdicts");
                    failed += s.warmup.served.len();
                }
            }
        }
        if i + 1 < SETUPS {
            s.teardown();
        } else {
            setup = Some(s);
        }
    }
    let mut setup = setup.expect("SETUPS is positive");
    let timed = setup.measure(spec, args.seconds, &mut tracer)?;
    let summary = timed.summary();
    attempted += timed.outcome.attempted;
    failed += timed.outcome.failed;

    let sessions = setup.sessions();
    let served = served_refs(&[&setup.warmup, &timed.outcome]);
    let ok = check::verify(spec, &setup.inputs, &sessions, &served);
    failed += served.len() - ok;
    let quality = check::quality(spec, &setup.inputs, &sessions, &setup.warmup.served);
    drop(sessions);
    setup.teardown();

    println!(
        "# samples behind p50_ms/p90_ms: {} frames completed in the timed window; quality: {} labelled segments",
        summary.samples, quality.segments
    );
    let metrics = vec![
        metric("setup_s", median(&setup_s), "s"),
        metric("frames_per_s", summary.frames_per_s, "frames/s"),
        metric("p50_ms", summary.p50_ms, "ms"),
        metric("p90_ms", summary.p90_ms, "ms"),
        metric(
            "ok_frac",
            (attempted - failed) as f64 / attempted as f64,
            "ratio",
        ),
        metric("auroc", quality.auroc, "ratio"),
        metric("r2", quality.r2, "ratio"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    Ok(finish(&metrics, attempted, failed, quality.unmatched == 0))
}

/// The traced run behind the per-layer metrics.
fn traced_run(spec: &Spec, args: &Args) -> Result<ExitCode, String> {
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, true);
    let mut setup = Setup::new(spec, args.seed, &mut tracer)?;
    let mut attempted = setup.warmup.attempted;
    let mut failed = setup.warmup.failed;
    let mut retries = setup.warmup.retries;

    // Alternate untraced and traced phases so drift hits both alike.
    let phase = args.seconds / TRACE_PHASES as f64;
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut outcomes = Vec::new();
    for p in 0..TRACE_PHASES {
        let traced = p % 2 == 1;
        let timed = if traced {
            setup.measure(spec, phase, &mut tracer)?
        } else {
            setup.measure(spec, phase, &mut Tracer::new(epoch, false))?
        };
        let latencies = timed.outcome.served.iter().map(Served::latency_ms);
        if traced {
            traced_ms.extend(latencies);
        } else {
            untraced_ms.extend(latencies);
        }
        attempted += timed.outcome.attempted;
        failed += timed.outcome.failed;
        retries += timed.outcome.retries;
        outcomes.push(timed.outcome);
    }
    let stats = setup.server.stats();
    let shards = setup.server.shard_stats();

    let sessions = setup.sessions();
    let mut all = vec![&setup.warmup];
    all.extend(outcomes.iter());
    let served = served_refs(&all);
    let ok = check::verify(spec, &setup.inputs, &sessions, &served);
    failed += served.len() - ok;
    drop(sessions);
    let open_ms = median(&setup.open_ms);
    let wire_bytes = setup
        .sessions()
        .iter()
        .flat_map(|s| s.wire.iter().map(Vec::len))
        .map(|b| b as f64)
        .collect::<Vec<_>>();
    let (inputs, sessions) = setup.teardown();
    let session_refs: Vec<&load::Session> = {
        let mut refs: Vec<_> = sessions.iter().collect();
        refs.sort_by_key(|s| s.index);
        refs
    };
    let budget = Duration::from_secs_f64(args.seconds / 2.0);
    let counts = replay::replay(spec, &inputs, &session_refs, budget, &mut tracer);

    let spans = tracer.durations_ms();
    let med = |name: &str| spans.get(name).map_or(f64::NAN, |v| median(v));
    let total = |name: &str| spans.get(name).map_or(f64::NAN, |v| v.iter().sum::<f64>());
    let p50_untraced = median(&untraced_ms);
    let p50_traced = median(&traced_ms);
    let binary = matches!(spec.format, metaseg_serve::FrameFormat::Binary(_));
    let inbound = if binary {
        med("wire.verify")
    } else {
        med("protocol.frame_decode")
    };
    let push = med("stream.push");
    let extract = med("pipeline.extract");
    let observe = med("tracking.observe");
    let encode = med("protocol.verdicts_encode");
    let decode = med("protocol.verdicts_decode");
    let residual = p50_untraced - (inbound + push + encode + decode);

    let frames_processed: usize = shards.iter().map(|s| s.frames_processed).sum();
    let busiest = shards.iter().map(|s| s.frames_processed).max().unwrap_or(0);
    let mean_shard = frames_processed as f64 / shards.len().max(1) as f64;
    let metrics = vec![
        metric("sim.render_s", total("sim.render") / 1e3, "s"),
        metric("timedyn.dataset_s", total("timedyn.dataset") / 1e3, "s"),
        metric("learners.fit_s", total("learners.fit") / 1e3, "s"),
        metric("registry.load_ms", total("registry.load"), "ms"),
        metric("client.open_ms", open_ms, "ms"),
        metric("wire.encode_ms", med("wire.encode"), "ms"),
        metric("wire.bytes", median(&wire_bytes), "bytes"),
        metric("wire.verify_ms", med("wire.verify"), "ms"),
        metric(
            "protocol.frame_decode_ms",
            med("protocol.frame_decode"),
            "ms",
        ),
        metric("stream.push_ms", push, "ms"),
        metric("pipeline.extract_ms", extract, "ms"),
        metric("pipeline.segments", median(&counts.segments), "count"),
        metric("imgproc.label_ms", med("imgproc.label"), "ms"),
        metric("tracking.observe_ms", observe, "ms"),
        metric(
            "tracking.active_tracks",
            median(&counts.active_tracks),
            "count",
        ),
        metric("stream.self_ms", push - extract - observe, "ms"),
        metric("protocol.verdicts_encode_ms", encode, "ms"),
        metric("protocol.verdicts", median(&counts.verdicts), "count"),
        metric("protocol.verdicts_decode_ms", decode, "ms"),
        metric("client.write_ms", med("client.write"), "ms"),
        metric(
            "shard.mean_batch",
            stats.frames_processed as f64 / stats.batches.max(1) as f64,
            "frames",
        ),
        metric("shard.peak_batch", stats.peak_batch as f64, "frames"),
        metric("shard.peak_depth", stats.peak_queue_depth as f64, "frames"),
        metric(
            "shard.rejected_frac",
            stats.rejected as f64 / (stats.frames_processed + stats.rejected).max(1) as f64,
            "ratio",
        ),
        metric("shard.skew", busiest as f64 / mean_shard, "ratio"),
        metric("serve.residual_ms", residual, "ms"),
        metric("client.retries", retries as f64, "count"),
        metric(
            "trace.overhead_frac",
            p50_traced / p50_untraced - 1.0,
            "ratio",
        ),
    ];

    let _ = std::fs::create_dir_all(SPAN_DIR);
    let path = format!("{SPAN_DIR}/spans-{}-{}.jsonl", spec.name, args.seed);
    if let Err(e) = std::fs::write(&path, tracer.to_jsonl()) {
        eprintln!("servebench: could not write {path}: {e}");
    }
    println!(
        "# samples: p50 untraced {} frames, traced {} frames; replay {} frames; {} spans in {path}",
        untraced_ms.len(),
        traced_ms.len(),
        counts.frames,
        tracer.spans().len()
    );
    let shares: [(&str, f64); 7] = [
        (
            if binary {
                "wire.verify"
            } else {
                "protocol.frame_decode"
            },
            inbound,
        ),
        ("pipeline.extract", extract),
        ("tracking.observe", observe),
        ("stream.self", push - extract - observe),
        ("protocol.verdicts_encode", encode),
        ("protocol.verdicts_decode", decode),
        ("serve.residual", residual),
    ];
    println!("# share of untraced p50_ms = {p50_untraced:.3} ms:");
    for (name, ms) in shares {
        println!(
            "#   {name:<26} {ms:>9.3} ms {:>6.1}%",
            100.0 * ms / p50_untraced
        );
    }
    println!(
        "#   (within pipeline.extract: imgproc.label {:.3} ms; within serve.residual: client.write {:.3} ms)",
        med("imgproc.label"),
        med("client.write")
    );
    Ok(finish(&metrics, attempted, failed, true))
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        let spec = specs()
            .into_iter()
            .find(|s| s.name == args.workload)
            .ok_or_else(|| format!("unknown workload {}", args.workload))?;
        print_header(&spec, &args);
        if args.trace {
            traced_run(&spec, &args)
        } else {
            timed_run(&spec, &args)
        }
    });
    result.unwrap_or_else(|e| {
        eprintln!("servebench: {e}");
        ExitCode::from(2)
    })
}
