//! Loadtest of the multi-camera inference service (`metaseg-serve`).
//!
//! Fits a small model, spawns an in-process server on an ephemeral port
//! and drives `--cameras` camera sessions over real TCP, strided over
//! `min(cameras, 64)` connections. Every connection opens all of its
//! sessions before any connection submits a frame. Camera `c` submits
//! sequence `c % n`, cycled to `--frames` frames: with `--corpus PATH` the
//! sequences are the decoded recording (`corpus_record`); live, they are
//! `min(cameras, 8)` simulated cameras ([`serve_fixture::camera`]),
//! degraded through `--regime NAME` when one is given and rendered before
//! the timed window. Every frame goes through the retrying client, so
//! backpressure backs off and a faulted connection reconnects and resumes
//! its sessions.
//!
//! The mode picks the servers:
//! * by default one, on the `--wire` format with micro-batch cap `--batch`;
//! * `--compare` runs two on the same traffic, JSON without batching and
//!   then the binary wire with batching, and prints their frames/s ratio;
//! * `--chaos` runs one per fault plan, each behind a
//!   [`metaseg_sim::ChaosProxy`] (`--plan NAME` picks one plan, default
//!   all nine).
//!
//! `--hot-swap` swaps the model checkpoint once half the frames are done:
//! every session was open before the first frame, so each one must finish
//! on the model it pinned.
//!
//! Every run is held to the one gate of [`metaseg_bench::report`]: every
//! session completes its full frame budget, every frame is accounted for
//! exactly once, served verdicts on the lossless wires equal the
//! in-process engine's, the server drains to zero sessions and
//! connections, shard counters sum to the aggregate within the queue
//! bound, binary frame counts add up, and throughput and latency are
//! finite. The report goes to `--out`, or for `--chaos`, `--scale` and
//! `--corpus` to `BENCH_chaos.json`, `BENCH_serve_scale.json` and
//! `BENCH_corpus.json` at the repository root, and is re-read and gated
//! from disk. `--check PATH` re-gates a written report without running
//! anything. The exit code is non-zero when the gate fails.
//!
//! ```text
//! cargo run --release -p metaseg-bench --bin serve_loadtest -- \
//!     --cameras 4 --frames 24 --compare
//! cargo run --release -p metaseg-bench --bin serve_loadtest -- \
//!     --scale --cameras 1000 --frames 4 --hot-swap
//! cargo run --release -p metaseg-bench --bin serve_loadtest -- \
//!     --chaos --corpus corpus.msgc --cameras 4 --frames 6
//! ```

use metaseg::stream::{MetaSegStream, SegmentVerdict, StreamConfig};
use metaseg_bench::corpus::load_corpus;
use metaseg_bench::report::{LatencySummary, LoadReport, RunReport};
use metaseg_bench::serve_fixture::{self, fit_predictor, video_config, CAMERA_SEED};
use metaseg_data::ProbMap;
use metaseg_serve::{
    ClientConfig, FrameFormat, ModelRegistry, ServeClient, ServeError, Server, ServerConfig,
    Submission,
};
use metaseg_sim::{ChaosProxy, DecodedFrameSource, FaultPlan, ProbEncoding, RegimeKind};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

/// Camera geometry of the loadtest (small: frames cross the wire per
/// request).
const FRAME_WIDTH: usize = 48;
const FRAME_HEIGHT: usize = 24;

/// The one client policy: deadlines tight enough to cut through a stalled
/// wire quickly, retries generous enough to outlast every decaying fault
/// plan and every backpressure burst. Each connection XORs its index into
/// the jitter seed.
const CLIENT: ClientConfig = ClientConfig {
    connect_timeout: Duration::from_secs(2),
    read_timeout: Some(Duration::from_secs(3)),
    write_timeout: Some(Duration::from_secs(3)),
    max_retries: 30,
    backoff_base: Duration::from_millis(15),
    backoff_max: Duration::from_millis(500),
    jitter_seed: 0xC0FF_EE00,
};

/// Parsed command line.
struct Options {
    cameras: usize,
    frames: usize,
    workers: usize,
    queue_depth: usize,
    wire: FrameFormat,
    batch: usize,
    compare: bool,
    regime: Option<RegimeKind>,
    corpus: Option<PathBuf>,
    out: Option<PathBuf>,
    scale: bool,
    hot_swap: bool,
    chaos: bool,
    plan: Option<FaultPlan>,
    check: Option<PathBuf>,
}

impl Options {
    fn parse() -> Self {
        let mut options = Options {
            cameras: 4,
            frames: 24,
            workers: 4,
            queue_depth: 8,
            wire: FrameFormat::Binary(ProbEncoding::F64),
            batch: 8,
            compare: false,
            regime: None,
            corpus: None,
            out: None,
            scale: false,
            hot_swap: false,
            chaos: false,
            plan: None,
            check: None,
        };
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let mut value = || {
                args.next()
                    .unwrap_or_else(|| panic!("{flag} expects an argument"))
            };
            let mut count = || {
                value()
                    .parse::<usize>()
                    .unwrap_or_else(|_| panic!("{flag} expects a number"))
                    .max(1)
            };
            match flag.as_str() {
                "--cameras" => options.cameras = count(),
                "--frames" => options.frames = count(),
                "--workers" => options.workers = count(),
                "--queue-depth" => options.queue_depth = count(),
                "--batch" => options.batch = count(),
                "--wire" => {
                    let name = value();
                    options.wire = FrameFormat::from_str_opt(&name).unwrap_or_else(|| {
                        panic!("--wire expects json|binary-f64|binary-f32|binary-u16, got `{name}`")
                    });
                }
                "--regime" => {
                    let name = value();
                    options.regime = Some(RegimeKind::from_name(&name).unwrap_or_else(|| {
                        let valid: Vec<_> = RegimeKind::all().iter().map(|k| k.name()).collect();
                        panic!("--regime expects one of {valid:?}, got `{name}`")
                    }));
                }
                "--plan" => {
                    let name = value();
                    options.plan = Some(FaultPlan::named(&name).unwrap_or_else(|| {
                        let valid: Vec<_> = FaultPlan::suite().iter().map(|p| p.name).collect();
                        panic!("--plan expects one of {valid:?}, got `{name}`")
                    }));
                }
                "--corpus" => options.corpus = Some(PathBuf::from(value())),
                "--out" => options.out = Some(PathBuf::from(value())),
                "--check" => options.check = Some(PathBuf::from(value())),
                "--compare" => options.compare = true,
                "--scale" => options.scale = true,
                "--hot-swap" => options.hot_swap = true,
                "--chaos" => options.chaos = true,
                other => panic!("unknown flag `{other}`"),
            }
        }
        options
    }

    /// Where the report goes: `--out`, else the mode's artifact at the
    /// repository root, else nowhere (the gate runs on the report in
    /// memory).
    fn artifact(&self) -> Option<PathBuf> {
        let name = if self.chaos {
            "BENCH_chaos.json"
        } else if self.scale {
            "BENCH_serve_scale.json"
        } else if self.corpus.is_some() {
            "BENCH_corpus.json"
        } else {
            return self.out.clone();
        };
        Some(self.out.clone().unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(name)
        }))
    }

    /// Connections the sessions are strided over.
    fn connections(&self) -> usize {
        self.cameras.min(64)
    }
}

/// The frames the cameras submit, as `(source label, sequences)`: the
/// decoded corpus, or `min(cameras, 8)` live cameras of `--frames` frames.
fn traffic(options: &Options) -> (String, Vec<Vec<ProbMap>>) {
    match &options.corpus {
        Some(path) => {
            assert!(
                options.regime.is_none(),
                "--regime degrades live cameras; record a degraded corpus with \
                 `corpus_record --regime` instead"
            );
            let corpus = load_corpus(path).unwrap_or_else(|e| panic!("--corpus: {e}"));
            let sequences = corpus
                .sequences
                .iter()
                .map(|(_, frames)| {
                    frames
                        .iter()
                        .map(|f| f.payload.decode().expect("recorded payloads decode"))
                        .collect()
                })
                .collect();
            (path.display().to_string(), sequences)
        }
        None => {
            let sequences = (0..options.cameras.min(8))
                .map(|camera| {
                    let mut source = serve_fixture::camera(
                        CAMERA_SEED,
                        camera,
                        FRAME_WIDTH,
                        FRAME_HEIGHT,
                        options.regime,
                    );
                    (0..options.frames)
                        .map(|_| source.next_frame().expect("a camera never runs dry"))
                        .map(|frame| frame.prediction)
                        .collect()
                })
                .collect();
            let source = match options.regime {
                Some(kind) => format!("live, {}", kind.name()),
                None => "live".to_string(),
            };
            (source, sequences)
        }
    }
}

/// What one connection's cameras saw.
#[derive(Default)]
struct Tally {
    latencies: Vec<Duration>,
    served: usize,
    lost_response: usize,
    mismatches: usize,
    verdicts: usize,
    completed: usize,
    killed: Vec<String>,
    reconnects: usize,
    swapped_to: Option<u64>,
}

/// Everything the runs share: the options, the served model and the
/// traffic with its in-process verdicts.
struct Loadtest {
    options: Options,
    registry: Arc<ModelRegistry>,
    /// What `--hot-swap` installs: the stream config and checkpoint bytes.
    swap: (StreamConfig, Vec<u8>),
    /// Camera `c` submits `sequences[c % sequences.len()]`, cycled to
    /// `--frames` frames.
    sequences: Vec<Vec<ProbMap>>,
    /// The in-process engine's verdicts, per sequence and frame.
    reference: Vec<Vec<Vec<SegmentVerdict>>>,
}

impl Loadtest {
    /// Drives every camera through a fresh server, behind a fault proxy
    /// seeded with `seed` when `plan` is given, and reports the run.
    fn run(&self, wire: FrameFormat, batch: usize, plan: Option<(&FaultPlan, u64)>) -> RunReport {
        let options = &self.options;
        let has_nan = |frame: &ProbMap| frame.values().iter().any(|v| v.is_nan());
        assert!(
            wire != FrameFormat::Json || !self.sequences.iter().flatten().any(has_nan),
            "the JSON wire cannot carry the NaN values these frames hold; \
             pick a binary --wire"
        );
        let handle = Server::spawn(
            "127.0.0.1:0",
            Arc::clone(&self.registry),
            ServerConfig {
                workers: options.workers,
                queue_depth: options.queue_depth,
                batch_max: batch,
                // A mid-frame stall beyond 1.5 s is reaped (the stall plan
                // holds the wire longer than that on purpose), and sessions
                // of a faulted connection linger 4 s for resume.
                read_timeout_ms: 1_500,
                idle_timeout_ms: 10_000,
                session_linger_ms: 4_000,
                ..ServerConfig::default()
            },
        )
        .expect("ephemeral bind succeeds");
        let proxy = plan.map(|(plan, seed)| {
            ChaosProxy::spawn(handle.local_addr(), plan.clone(), seed).expect("proxy bind succeeds")
        });
        let addr = proxy
            .as_ref()
            .map_or(handle.local_addr(), ChaosProxy::local_addr);
        let label = match plan {
            Some((plan, _)) => format!("plan `{}`", plan.name),
            None => format!("{wire}, batch {batch}"),
        };
        println!(
            "{label}: {} cameras over {} connections x {} frames against {} \
             ({} shards, queue depth {})",
            options.cameras,
            options.connections(),
            options.frames,
            handle.local_addr(),
            options.workers,
            options.queue_depth,
        );

        // The main thread passes the barrier last: the clock starts once
        // every session is open.
        let barrier = Barrier::new(options.connections() + 1);
        let done = AtomicUsize::new(0);
        let (tallies, elapsed) = thread::scope(|scope| {
            let connections: Vec<_> = (0..options.connections())
                .map(|conn| {
                    let (barrier, done) = (&barrier, &done);
                    scope.spawn(move || self.connection(conn, addr, wire, barrier, done))
                })
                .collect();
            barrier.wait();
            let started = Instant::now();
            let tallies: Vec<Tally> = connections
                .into_iter()
                .map(|c| c.join().expect("connection threads do not panic"))
                .collect();
            (tallies, started.elapsed())
        });
        let proxy = proxy.map(ChaosProxy::shutdown);

        // The leak gate: with every client gone the server must drain to
        // zero connections and zero sessions. Orphans of faulted
        // connections expire through the linger window, so the settle
        // budget is well past it.
        let settle_deadline = Instant::now() + Duration::from_secs(20);
        let (mut leaked_connections, mut leaked_sessions) = (usize::MAX, usize::MAX);
        while Instant::now() < settle_deadline {
            leaked_connections = handle.active_connections();
            leaked_sessions = handle.open_sessions();
            if leaked_connections == 0 && leaked_sessions == 0 {
                break;
            }
            thread::sleep(Duration::from_millis(50));
        }
        let shards = handle.shard_stats();
        let server = handle.shutdown();

        let sum = |count: fn(&Tally) -> usize| tallies.iter().map(count).sum::<usize>();
        let mut latencies: Vec<Duration> = tallies
            .iter()
            .flat_map(|t| t.latencies.iter().copied())
            .collect();
        latencies.sort();
        for reason in tallies.iter().flat_map(|t| &t.killed) {
            eprintln!("{label}: session killed: {reason}");
        }
        let report = RunReport {
            wire: wire.to_string(),
            batch,
            queue_depth: options.queue_depth,
            plan: plan.map(|(plan, _)| plan.name.to_string()),
            cameras: options.cameras,
            connections: options.connections(),
            frames_per_camera: options.frames,
            sessions_completed: sum(|t| t.completed),
            sessions_killed: sum(|t| t.killed.len()),
            frames_served: sum(|t| t.served),
            frames_lost_response: sum(|t| t.lost_response),
            verdict_mismatches: sum(|t| t.mismatches),
            verdicts: sum(|t| t.verdicts),
            reconnects: sum(|t| t.reconnects),
            leaked_sessions,
            leaked_connections,
            frames_per_s: latencies.len() as f64 / elapsed.as_secs_f64().max(1e-9),
            latency: LatencySummary::from_sorted(&latencies),
            server,
            shards,
            proxy,
            hot_swap_version: tallies.iter().find_map(|t| t.swapped_to),
        };
        print_run(&label, &report);
        report
    }

    /// One connection's cameras (`conn`, `conn + connections`, …): open
    /// every session, wait at `barrier` for the other connections, then
    /// submit round by round, one frame per session per round, and close.
    fn connection(
        &self,
        conn: usize,
        addr: SocketAddr,
        wire: FrameFormat,
        barrier: &Barrier,
        done: &AtomicUsize,
    ) -> Tally {
        let frames = self.options.frames;
        let cameras: Vec<usize> = (conn..self.options.cameras)
            .step_by(self.options.connections())
            .collect();
        let config = ClientConfig {
            jitter_seed: CLIENT.jitter_seed ^ conn as u64,
            ..CLIENT
        };
        let opened = open_sessions(addr, config, wire, &cameras);
        barrier.wait();
        let mut tally = Tally::default();
        let (mut client, mut sessions) = match opened {
            Ok((client, sessions)) => (client, sessions.into_iter().map(Some).collect::<Vec<_>>()),
            Err(e) => {
                tally.killed = cameras
                    .iter()
                    .map(|c| format!("camera {c} open: {e}"))
                    .collect();
                tally.swapped_to = self.count_done(done, cameras.len() * frames);
                return tally;
            }
        };
        for index in 0..frames {
            for (&camera, slot) in cameras.iter().zip(sessions.iter_mut()) {
                if let Some(session) = *slot {
                    let sequence = camera % self.sequences.len();
                    let cycle = &self.sequences[sequence];
                    let submitted = Instant::now();
                    match client.submit_with_retry(session, &cycle[index % cycle.len()]) {
                        Ok(Submission::Served { frame, verdicts }) => {
                            tally.latencies.push(submitted.elapsed());
                            tally.served += 1;
                            tally.verdicts += verdicts.len();
                            // The differential: exactly the next frame index
                            // (nothing double-applied or skipped, whatever
                            // the wire did) and, on a lossless wire, the
                            // in-process engine's verdicts bit for bit.
                            if frame != index
                                || (wire.is_lossless()
                                    && verdicts != self.reference[sequence][index])
                            {
                                tally.mismatches += 1;
                            }
                        }
                        Ok(Submission::Applied { frame }) => {
                            tally.latencies.push(submitted.elapsed());
                            tally.lost_response += 1;
                            tally.mismatches += usize::from(frame != index);
                        }
                        Err(e) => {
                            tally
                                .killed
                                .push(format!("camera {camera} frame {index}: {e}"));
                            *slot = None;
                        }
                    }
                }
                tally.swapped_to = tally.swapped_to.or(self.count_done(done, 1));
            }
        }
        for (&camera, session) in cameras
            .iter()
            .zip(sessions)
            .filter_map(|(c, s)| Some((c, s?)))
        {
            match client.close_with_retry(session) {
                Ok(Some(stats)) if stats.frames != frames => tally.killed.push(format!(
                    "camera {camera} closed after {} of {frames} frames",
                    stats.frames
                )),
                // `None`: the close landed and only its response was lost.
                Ok(_) => tally.completed += 1,
                Err(e) => tally.killed.push(format!("camera {camera} close: {e}")),
            }
        }
        tally.reconnects = client.reconnects();
        tally
    }

    /// Counts `n` more frames done. Under `--hot-swap`, the count that
    /// crosses half of all frames swaps the model and returns the new
    /// version.
    fn count_done(&self, done: &AtomicUsize, n: usize) -> Option<u64> {
        let half = (self.options.cameras * self.options.frames).div_ceil(2);
        let before = done.fetch_add(n, Ordering::Relaxed);
        (self.options.hot_swap && before < half && before + n >= half).then(|| {
            let (config, checkpoint) = &self.swap;
            self.registry
                .swap_checkpoint("default", *config, checkpoint)
                .expect("hot checkpoint reload succeeds")
        })
    }
}

/// Connects, negotiates `wire` and opens one session per camera, starting
/// over on a fresh connection after a failure the client calls retryable: a
/// fault plan can kill the connection before its sessions exist. A final
/// error (`unknown-model`, `shutting-down`, `internal`) returns at once.
/// Sessions opened on an earlier connection are resumed by the client when
/// they are next used.
fn open_sessions(
    addr: SocketAddr,
    config: ClientConfig,
    wire: FrameFormat,
    cameras: &[usize],
) -> Result<(ServeClient, Vec<u64>), ServeError> {
    let mut client: Option<ServeClient> = None;
    let mut sessions = Vec::with_capacity(cameras.len());
    let mut last = None;
    for attempt in 0..config.max_retries {
        let outcome = (|| -> Result<(), ServeError> {
            let client = match client.as_mut() {
                Some(client) => {
                    client.reconnect()?;
                    client
                }
                None => client.insert(ServeClient::connect_with(addr, config)?),
            };
            if client.frame_format() != wire {
                client.negotiate(wire)?;
            }
            for camera in &cameras[sessions.len()..] {
                sessions.push(client.open("default", &format!("cam-{camera}"))?.0);
            }
            Ok(())
        })();
        match outcome {
            Ok(()) => return Ok((client.expect("connected"), sessions)),
            Err(e) if !e.is_retryable() => return Err(e),
            Err(e) => {
                last = Some(e);
                thread::sleep(Duration::from_millis(20 * (attempt as u64 + 1)));
            }
        }
    }
    Err(last.expect("max_retries >= 1"))
}

fn print_run(label: &str, run: &RunReport) {
    let (server, latency) = (&run.server, &run.latency);
    println!(
        "{label}: {}/{} sessions completed, {} served + {} applied-lost frames, \
         {} verdicts, {} mismatches, {} reconnects, {:.1} frames/s",
        run.sessions_completed,
        run.cameras,
        run.frames_served,
        run.frames_lost_response,
        run.verdicts,
        run.verdict_mismatches,
        run.reconnects,
        run.frames_per_s,
    );
    println!(
        "{label}: latency p50 {:.2} ms | p90 {:.2} ms | p99 {:.2} ms | max {:.2} ms",
        latency.p50_ms, latency.p90_ms, latency.p99_ms, latency.max_ms,
    );
    println!(
        "{label}: server processed {} frames ({} binary), {} backpressure rejections, \
         peak queue depth {} (bound {}), {} micro-batches (largest {}), {} resumed, \
         {} expired, {} timed out",
        server.frames_processed,
        server.binary_frames,
        server.rejected,
        server.peak_queue_depth,
        run.queue_depth,
        server.batches,
        server.peak_batch,
        server.sessions_resumed,
        server.sessions_expired,
        server.timed_out,
    );
    if let Some(proxy) = &run.proxy {
        println!(
            "{label}: proxy injected {} cuts, {} stalls, {} half-closes, {} duplicated \
             and {} garbage bytes",
            proxy.cuts,
            proxy.stalls,
            proxy.half_closes,
            proxy.duplicated_bytes,
            proxy.garbage_bytes,
        );
    }
    if let Some(version) = run.hot_swap_version {
        println!("{label}: model v{version} installed once half the frames were done");
    }
}

fn read_report(path: &Path) -> LoadReport {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

/// Exits non-zero unless `report` passes the gate.
fn gate(report: &LoadReport, origin: &str) {
    let failures = report.failures();
    if !failures.is_empty() {
        eprintln!("serve_loadtest: gate failed for {origin}: {failures:?}");
        std::process::exit(1);
    }
    println!(
        "serve_loadtest: OK ({origin}: {} runs passed the gate)",
        report.runs.len()
    );
}

fn main() {
    let options = Options::parse();
    if let Some(path) = &options.check {
        gate(&read_report(path), &path.display().to_string());
        return;
    }
    assert!(
        options.chaos || options.plan.is_none(),
        "--plan selects a fault plan; add --chaos"
    );
    assert!(
        !options.chaos
            || (options.wire == FrameFormat::Binary(ProbEncoding::F64) && !options.compare),
        "--chaos needs every frame on --wire binary-f64 (no --compare): its checksum \
         rejects the bytes a plan corrupts, and it is lossless, so served verdicts \
         can be compared with the in-process engine's"
    );

    let (source, sequences) = traffic(&options);
    println!(
        "serve_loadtest: {} sequences ({} frames) from {source}",
        sequences.len(),
        sequences.iter().map(Vec::len).sum::<usize>()
    );
    let (stream_config, predictor) =
        fit_predictor(&video_config(12, FRAME_WIDTH, FRAME_HEIGHT), 2, 7000);
    let reference = sequences
        .iter()
        .map(|frames| {
            let mut engine = MetaSegStream::new(stream_config, predictor.clone())
                .expect("loadtest model is valid");
            let cycled = (0..options.frames).map(|index| frames[index % frames.len()].clone());
            engine
                .drain(DecodedFrameSource::new(0, cycled))
                .frame_verdicts
                .into_iter()
                .map(|fv| fv.verdicts)
                .collect()
        })
        .collect();
    let registry = Arc::new(ModelRegistry::new());
    registry
        .insert("default", stream_config, predictor.clone())
        .expect("loadtest model is valid");
    let loadtest = Loadtest {
        registry,
        swap: (stream_config, predictor.to_container_bytes()),
        sequences,
        reference,
        options,
    };

    let options = &loadtest.options;
    let runs = if options.chaos {
        let plans = match &options.plan {
            Some(plan) => vec![plan.clone()],
            None => FaultPlan::suite(),
        };
        plans
            .iter()
            .zip(9_000..)
            .map(|(plan, seed)| loadtest.run(options.wire, options.batch, Some((plan, seed))))
            .collect()
    } else if options.compare {
        let fast_wire = match options.wire {
            FrameFormat::Json => FrameFormat::Binary(ProbEncoding::F64),
            binary => binary,
        };
        let runs = vec![
            loadtest.run(FrameFormat::Json, 1, None),
            loadtest.run(fast_wire, options.batch, None),
        ];
        println!(
            "comparison: json {:.1} frames/s vs {fast_wire}+batch{} {:.1} frames/s ({:.2}x)",
            runs[0].frames_per_s,
            options.batch,
            runs[1].frames_per_s,
            runs[1].frames_per_s / runs[0].frames_per_s.max(1e-9),
        );
        runs
    } else {
        vec![loadtest.run(options.wire, options.batch, None)]
    };

    let report = LoadReport { source, runs };
    match options.artifact() {
        Some(path) => {
            let json = serde_json::to_string_pretty(&report).expect("the report serialises");
            std::fs::write(&path, format!("{json}\n")).expect("artifact path is writable");
            println!("wrote {}", path.display());
            gate(&read_report(&path), &path.display().to_string());
        }
        None => gate(&report, "in-memory report"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaseg_serve::ErrorCode;

    #[test]
    fn open_sessions_returns_a_final_error_without_reconnecting() {
        let server = Server::spawn(
            "127.0.0.1:0",
            Arc::new(ModelRegistry::new()),
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        )
        .expect("a loopback server spawns");
        let error = open_sessions(
            server.local_addr(),
            ClientConfig::default(),
            FrameFormat::Json,
            &[0],
        )
        .expect_err("the registry holds no model");
        assert!(
            matches!(
                error,
                ServeError::Server {
                    code: ErrorCode::UnknownModel,
                    ..
                }
            ),
            "{error}"
        );
        assert_eq!(server.stats().connections, 1);
        server.shutdown();
    }
}
