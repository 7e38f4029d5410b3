//! Profile of the metric-extraction kernel: fused + scratch + banded + the
//! wire-to-scratch payload fast path vs the retained pre-fusion kernel.
//!
//! Measures frames/s and per-frame heap-allocation traffic (via a counting
//! global allocator) for five extraction variants on a small and a large
//! simulated scene:
//!
//! * `legacy` — [`metaseg::pipeline::baseline::legacy_frame_metrics`], the
//!   retained pre-fusion kernel (separate argmax pass, pixel-materialising
//!   labelling, per-segment hash maps, per-frame allocations),
//! * `serial` — [`metaseg::frame_metrics`], the fused kernel on one band
//!   with its thread-local scratch,
//! * `banded` — [`metaseg::extract_frame`] with an owned
//!   [`metaseg::ExtractionScratch`] and automatic band selection (on
//!   multi-core machines the large scene splits into horizontal bands; band
//!   count is reported),
//! * `fused_f64` — [`metaseg::extract_frame_payload`], the zero-copy
//!   payload path: quantized-u16 wire bytes dequantized directly into the
//!   scratch plane, exact f64 dispersion scan (bit-identical records to
//!   decode-via-`ProbMap` + `banded`),
//! * `fused_f32_tiled` — the same payload path with the f32 dispersion scan
//!   over channel-major tiles.
//!
//! Next to extraction, each scene reports `tracking`:
//! [`IncrementalTracker::observe_segments`] over the components of the same
//! frames' predicted label maps, with the live-track count it ends on.
//!
//! Writes `BENCH_extraction.json` at the repository root and prints a
//! speedup line for CI. `--require-speedup X` exits non-zero unless the
//! fused payload fast path (f32 tiled scan) sustains at least `X`× the
//! serial f64 kernel's frames/s on the large scene — decode + extraction
//! fused must beat extraction alone by that margin.
//! The gated ratio is measured by interleaving the two variants frame by
//! frame (see [`interleaved_speedup`]) so machine-speed drift on shared
//! runners cancels out of the comparison.
//! `--threads N` pins the rayon pool (set *before* the first kernel call)
//! so the banded path exercises bands > 1 even in single-core CI.
//! `--corpus <path>` profiles the same variants over a recorded frame
//! corpus (`corpus_record`) instead of freshly simulated scenes — the
//! recorded payloads drive the fused kernels verbatim — and writes
//! `BENCH_extraction_corpus.json` (distinct `bench` discriminator) unless
//! `--output` overrides it:
//!
//! ```text
//! cargo run --release -p metaseg-bench --bin extraction_profile -- \
//!     --frames 60 --threads 2 --require-speedup 2.0
//! ```

use metaseg::pipeline::baseline::legacy_frame_metrics;
use metaseg::{
    extract_frame, extract_frame_payload, frame_metrics, DispersionPrecision, ExtractionScratch,
    MetricsConfig, SegmentRecord,
};
use metaseg_data::{Frame, FrameId, ProbEncoding, ProbPayload};
use metaseg_sim::{NetworkProfile, NetworkSim, Scene, SceneConfig};
use metaseg_tracking::{IncrementalTracker, TrackerConfig};
use rand::{rngs::StdRng, SeedableRng};
use serde::Serialize;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counting wrapper around the system allocator: total allocations and
/// allocated bytes, sampled around each frame to attribute heap traffic.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counters are plain atomics.
// The workspace denies unsafe code; a `GlobalAlloc` impl is the one place a
// heap profiler cannot avoid it, so the exception is scoped to this impl.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocation_snapshot() -> (u64, u64) {
    (
        ALLOCATIONS.load(Ordering::Relaxed),
        ALLOCATED_BYTES.load(Ordering::Relaxed),
    )
}

/// Parsed command line.
struct Options {
    /// Steady-state frames measured per variant and scene.
    frames: usize,
    /// Required fused-f32-vs-serial frames/s ratio on the large scene.
    require_speedup: Option<f64>,
    /// Rayon pool size override (`RAYON_NUM_THREADS`), applied before the
    /// first kernel call so the band heuristic sees it.
    threads: Option<usize>,
    /// Recorded corpus to profile instead of freshly simulated scenes.
    corpus: Option<PathBuf>,
    /// Output path (defaults to `<repo root>/BENCH_extraction.json`, or
    /// `<repo root>/BENCH_extraction_corpus.json` under `--corpus`).
    output: Option<PathBuf>,
}

impl Options {
    fn parse() -> Self {
        let mut options = Options {
            frames: 120,
            require_speedup: None,
            threads: None,
            corpus: None,
            output: None,
        };
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--frames" => {
                    options.frames = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| panic!("--frames expects a count"));
                }
                "--require-speedup" => {
                    let value = args
                        .next()
                        .and_then(|v| v.parse::<f64>().ok())
                        .unwrap_or_else(|| panic!("--require-speedup expects a ratio"));
                    options.require_speedup = Some(value);
                }
                "--threads" => {
                    options.threads = Some(
                        args.next()
                            .and_then(|v| v.parse().ok())
                            .filter(|&n| n > 0)
                            .unwrap_or_else(|| panic!("--threads expects a positive count")),
                    );
                }
                "--output" => {
                    options.output =
                        Some(PathBuf::from(args.next().expect("--output expects a path")));
                }
                "--corpus" => {
                    options.corpus =
                        Some(PathBuf::from(args.next().expect("--corpus expects a path")));
                }
                other => panic!("unknown flag `{other}`"),
            }
        }
        options.frames = options.frames.max(8);
        options
    }

    /// Resolved artefact path: explicit `--output`, else the repo-root
    /// default for the active mode.
    fn output_path(&self) -> PathBuf {
        self.output.clone().unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(if self.corpus.is_some() {
                    "BENCH_extraction_corpus.json"
                } else {
                    "BENCH_extraction.json"
                })
        })
    }
}

/// Per-variant measurement.
#[derive(Debug, Clone, Serialize)]
struct VariantReport {
    frames_per_s: f64,
    mean_frame_ms: f64,
    /// Mean heap allocations per steady-state frame (records included).
    allocs_per_frame: f64,
    /// Mean heap bytes allocated per steady-state frame.
    bytes_per_frame: f64,
    /// Largest heap bytes allocated by any single steady-state frame.
    peak_frame_bytes: u64,
    /// Scratch buffer growth during the steady-state loop (0 = the kernel's
    /// zero-allocation steady state; `legacy` has no scratch and `serial`'s
    /// is thread-local, so both report none).
    scratch_reallocations: Option<u64>,
    /// Intra-frame bands used (1 = serial).
    bands: usize,
}

#[derive(Debug, Clone, Serialize)]
struct SceneReport {
    width: usize,
    height: usize,
    pixels: usize,
    distinct_frames: usize,
    measured_frames: usize,
    legacy: VariantReport,
    serial: VariantReport,
    banded: VariantReport,
    /// Zero-copy u16-payload ingest, exact f64 scan.
    fused_f64: VariantReport,
    /// Zero-copy u16-payload ingest, f32 scan over channel-major tiles.
    fused_f32_tiled: VariantReport,
    tracking: TrackingReport,
    speedup_serial_vs_legacy: f64,
    speedup_banded_vs_legacy: f64,
    /// The CI-gated ratio: fused payload fast path (f32 tiled scan, decode
    /// included) over the serial f64 kernel (decode already done).
    /// Whole-serve-path throughput vs extraction alone,
    /// measured by [`interleaved_speedup`] so machine-speed drift between
    /// the sequential per-variant loops cannot skew the gate.
    speedup_fused_vs_serial: f64,
}

/// Tracking cost next to extraction: [`IncrementalTracker::observe_segments`]
/// over the components of the scene's frames, one frame per call.
#[derive(Debug, Clone, Serialize)]
struct TrackingReport {
    frames_per_s: f64,
    mean_frame_ms: f64,
    allocs_per_frame: f64,
    bytes_per_frame: f64,
    peak_frame_bytes: u64,
    /// Tracks alive after the measured loop: the working set whose pixels
    /// each frame's matching walks.
    live_tracks: usize,
}

#[derive(Debug, Clone, Serialize)]
struct BenchReport {
    bench: String,
    threads: usize,
    small: SceneReport,
    large: SceneReport,
}

/// Simulated labelled frames of one scene shape (ground truth included so
/// the kernel's IoU/overlap path — the hash-map hot spot of the legacy
/// kernel — is exercised).
fn make_frames(config: &SceneConfig, count: usize, seed: u64) -> Vec<Frame> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sim = NetworkSim::new(NetworkProfile::weak());
    (0..count)
        .map(|i| {
            let scene = Scene::generate(config, &mut rng);
            let gt = scene.render();
            let probs = sim.predict(&gt, &mut rng);
            Frame::labeled(FrameId::new(0, i), gt, probs).expect("matching shapes")
        })
        .collect()
}

/// Measures one extraction variant over `measured` steady-state frames
/// (after one warmup lap over the distinct frames).
fn measure<F, R>(distinct: usize, measured: usize, mut extract: F) -> (f64, f64, f64, f64, u64)
where
    F: FnMut(usize) -> R,
{
    for i in 0..distinct {
        black_box(extract(i));
    }
    let mut total_allocs = 0u64;
    let mut total_bytes = 0u64;
    let mut peak_bytes = 0u64;
    let started = Instant::now();
    for i in 0..measured {
        let (allocs_before, bytes_before) = allocation_snapshot();
        black_box(extract(i % distinct));
        let (allocs_after, bytes_after) = allocation_snapshot();
        total_allocs += allocs_after - allocs_before;
        let frame_bytes = bytes_after - bytes_before;
        total_bytes += frame_bytes;
        peak_bytes = peak_bytes.max(frame_bytes);
    }
    let elapsed = started.elapsed().as_secs_f64();
    let frames_per_s = measured as f64 / elapsed.max(1e-9);
    let mean_frame_ms = elapsed * 1e3 / measured as f64;
    (
        frames_per_s,
        mean_frame_ms,
        total_allocs as f64 / measured as f64,
        total_bytes as f64 / measured as f64,
        peak_bytes,
    )
}

/// Scratch growth during a closure: 0 means the steady-state loop never
/// re-allocated a kernel buffer.
fn scratch_growth(before: metaseg::ScratchStats, after: metaseg::ScratchStats) -> u64 {
    let grew = |b: usize, a: usize| a.saturating_sub(b) as u64;
    grew(before.pixel_capacity, after.pixel_capacity)
        + grew(before.segment_capacity, after.segment_capacity)
        + grew(before.class_prob_capacity, after.class_prob_capacity)
        + grew(before.overlap_capacity, after.overlap_capacity)
        + grew(before.bands, after.bands)
}

/// Wraps the five raw numbers of [`measure`] plus bookkeeping into a report.
fn variant(
    numbers: (f64, f64, f64, f64, u64),
    scratch_reallocations: Option<u64>,
    bands: usize,
) -> VariantReport {
    let (frames_per_s, mean_frame_ms, allocs_per_frame, bytes_per_frame, peak_frame_bytes) =
        numbers;
    VariantReport {
        frames_per_s,
        mean_frame_ms,
        allocs_per_frame,
        bytes_per_frame,
        peak_frame_bytes,
        scratch_reallocations,
        bands,
    }
}

/// Measures the two decoded-frame variants: `serial` ([`frame_metrics`],
/// one band over its thread-local scratch, so no scratch growth is
/// reported) and `banded` ([`extract_frame`] over an owned scratch,
/// `bands` = the count [`metaseg::pipeline::auto_band_count`] selects).
fn measure_decoded(
    frames: &[Frame],
    measured: usize,
    config: &MetricsConfig,
    bands: usize,
) -> (VariantReport, VariantReport) {
    let distinct = frames.len();
    let serial = variant(
        measure(distinct, measured, |i| {
            frame_metrics(
                &frames[i].prediction,
                frames[i].ground_truth.as_ref(),
                config,
            )
        }),
        None,
        1,
    );
    let run = |scratch: &mut ExtractionScratch, i: usize| {
        extract_frame(
            &frames[i].prediction,
            frames[i].ground_truth.as_ref(),
            config,
            scratch,
        )
        .1
    };
    let mut scratch = ExtractionScratch::new();
    for i in 0..distinct {
        black_box(run(&mut scratch, i));
    }
    let stats_before = scratch.stats();
    let numbers = measure(distinct, measured, |i| run(&mut scratch, i));
    let banded = variant(
        numbers,
        Some(scratch_growth(stats_before, scratch.stats())),
        bands,
    );
    (serial, banded)
}

/// Measures one payload-ingest variant: warmup over every distinct payload,
/// then the steady-state loop, reporting scratch growth like the decoded
/// variants.
///
/// Payload variants run in the *serve* configuration — the wire protocol
/// never carries ground-truth labels, so extraction sees `None` — while the
/// decoded variants keep their labels for continuity with the historical
/// `serial`/`banded` numbers.
fn measure_payload(
    payloads: &[ProbPayload],
    measured: usize,
    config: &MetricsConfig,
    precision: DispersionPrecision,
    bands: usize,
) -> VariantReport {
    fn run(
        payloads: &[ProbPayload],
        config: &MetricsConfig,
        precision: DispersionPrecision,
        scratch: &mut ExtractionScratch,
        i: usize,
    ) -> Vec<SegmentRecord> {
        extract_frame_payload(&payloads[i], None, config, scratch, precision)
            .expect("bench payloads are well-formed")
            .1
    }
    let mut scratch = ExtractionScratch::new();
    for i in 0..payloads.len() {
        black_box(run(payloads, config, precision, &mut scratch, i));
    }
    let stats_before = scratch.stats();
    let numbers = measure(payloads.len(), measured, |i| {
        run(payloads, config, precision, &mut scratch, i)
    });
    variant(
        numbers,
        Some(scratch_growth(stats_before, scratch.stats())),
        bands,
    )
}

/// Measures [`IncrementalTracker::observe_segments`] with the default tracker
/// configuration over the components of `frames`' predicted label maps,
/// labelled once up front as the streaming engine shares one labelling with
/// extraction.
fn measure_tracking(frames: &[Frame], measured: usize) -> TrackingReport {
    let config = TrackerConfig::default();
    let components: Vec<_> = frames
        .iter()
        .map(|frame| frame.predicted_labels().segments(config.connectivity))
        .collect();
    let mut tracker = IncrementalTracker::new(config);
    let (frames_per_s, mean_frame_ms, allocs_per_frame, bytes_per_frame, peak_frame_bytes) =
        measure(components.len(), measured, |i| {
            tracker.observe_segments(&components[i])
        });
    TrackingReport {
        frames_per_s,
        mean_frame_ms,
        allocs_per_frame,
        bytes_per_frame,
        peak_frame_bytes,
        live_tracks: tracker.active_track_count(),
    }
}

/// Measures the CI-gated ratio by *block-interleaving* the two variants:
/// one lap of serial f64 extractions over the distinct frames (pre-decoded,
/// ground truth attached), then one lap of fused payload extractions (wire
/// bytes in, serve configuration), alternating for the whole loop.
///
/// On shared or throttled machines the absolute frames/s of the sequential
/// per-variant loops above can drift by double-digit percentages between
/// variants measured seconds apart; alternating laps makes any speed drift
/// hit both sides of the ratio equally, so the gate judges the kernels, not
/// the scheduler. Whole laps — not single frames — keep each variant in its
/// steady cache state, the regime both actually run in (a serve worker
/// extracts payload after payload; frame-grained alternation would bill the
/// fused side for re-warming caches the f64 variant's 8-byte planes
/// evicted, a cost no real workload pays per frame).
fn interleaved_speedup(
    frames: &[Frame],
    payloads: &[ProbPayload],
    measured: usize,
    config: &MetricsConfig,
) -> f64 {
    let distinct = frames.len();
    let mut fused_scratch = ExtractionScratch::new();
    // One warmup round (round 0), then `measured` timed frames per variant.
    let mut serial_laps = Vec::new();
    let mut fused_laps = Vec::new();
    for round in 0..measured.div_ceil(distinct) + 1 {
        let started = Instant::now();
        for i in 0..distinct {
            black_box(frame_metrics(
                &frames[i].prediction,
                frames[i].ground_truth.as_ref(),
                config,
            ));
        }
        let serial_lap = started.elapsed().as_secs_f64();
        let started = Instant::now();
        for i in 0..distinct {
            black_box(
                extract_frame_payload(
                    &payloads[i],
                    None,
                    config,
                    &mut fused_scratch,
                    DispersionPrecision::F32,
                )
                .expect("bench payloads are well-formed"),
            );
        }
        let fused_lap = started.elapsed().as_secs_f64();
        if round > 0 {
            serial_laps.push(serial_lap);
            fused_laps.push(fused_lap);
        }
    }
    // Ratio of the per-variant median lap times: scheduler steal only ever
    // inflates a lap, so each variant's median estimates its uncontended
    // lap time and a burst that lands inside one lap discards that lap
    // alone. Pairing the laps round-by-round instead (median of per-round
    // ratios) lets a burst inside one serial lap drag a whole round's ratio
    // down even though the fused lap next to it ran clean — and a
    // total-over-total mean is worse still, billing every stolen timeslice
    // to whichever side happened to be running.
    let median = |laps: &mut Vec<f64>| {
        laps.sort_by(|a, b| a.partial_cmp(b).expect("lap times are finite"));
        laps[laps.len() / 2]
    };
    median(&mut serial_laps) / median(&mut fused_laps).max(1e-9)
}

fn profile_scene(name: &str, scene: &SceneConfig, options: &Options) -> SceneReport {
    let distinct = 4usize;
    let frames = make_frames(scene, distinct, 0x5eed + scene.width as u64);
    // The wire form of every frame: quantized u16, the densest lossy
    // encoding the serve path accepts (and the one with real dequantization
    // work, so the fused numbers are the conservative ones).
    let payloads: Vec<ProbPayload> = frames
        .iter()
        .map(|f| ProbPayload::encode(&f.prediction, ProbEncoding::U16))
        .collect();
    let config = MetricsConfig::default();
    let measured = options.frames;
    let pixels = scene.width * scene.height;
    let auto_bands = metaseg::pipeline::auto_band_count(pixels, scene.height);

    let legacy = variant(
        measure(distinct, measured, |i| {
            legacy_frame_metrics(
                &frames[i].prediction,
                frames[i].ground_truth.as_ref(),
                &config,
            )
        }),
        None,
        1,
    );

    let (serial, banded) = measure_decoded(&frames, measured, &config, auto_bands);
    let fused_f64 = measure_payload(
        &payloads,
        measured,
        &config,
        DispersionPrecision::F64,
        auto_bands,
    );
    let fused_f32_tiled = measure_payload(
        &payloads,
        measured,
        &config,
        DispersionPrecision::F32,
        auto_bands,
    );
    let tracking = measure_tracking(&frames, measured);

    let report = SceneReport {
        width: scene.width,
        height: scene.height,
        pixels,
        distinct_frames: distinct,
        measured_frames: measured,
        speedup_serial_vs_legacy: serial.frames_per_s / legacy.frames_per_s.max(1e-9),
        speedup_banded_vs_legacy: banded.frames_per_s / legacy.frames_per_s.max(1e-9),
        speedup_fused_vs_serial: interleaved_speedup(&frames, &payloads, measured, &config),
        legacy,
        serial,
        banded,
        fused_f64,
        fused_f32_tiled,
        tracking,
    };
    println!(
        "{name} ({}x{}): legacy {:.1} frames/s, serial {:.1} ({:.0} allocs/frame), \
         banded x{} {:.1} ({:.0} allocs/frame), fused-f64 {:.1}, \
         fused-f32-tiled {:.1} — fused/serial {:.2}x; tracking {:.2} ms/frame \
         ({} live tracks)",
        report.width,
        report.height,
        report.legacy.frames_per_s,
        report.serial.frames_per_s,
        report.serial.allocs_per_frame,
        report.banded.bands,
        report.banded.frames_per_s,
        report.banded.allocs_per_frame,
        report.fused_f64.frames_per_s,
        report.fused_f32_tiled.frames_per_s,
        report.speedup_fused_vs_serial,
        report.tracking.mean_frame_ms,
        report.tracking.live_tracks,
    );
    report
}

/// The on-disk report of a `--corpus` run: same per-variant measurements,
/// but over replayed recorded payloads rather than freshly simulated scenes,
/// and a distinct `bench` discriminator so consumers never confuse the two
/// artefacts.
#[derive(Debug, Clone, Serialize)]
struct CorpusProfileReport {
    bench: String,
    corpus: String,
    width: usize,
    height: usize,
    channels: usize,
    /// Frames the corpus holds (before the modal-shape filter).
    corpus_frames: usize,
    /// Distinct frames profiled (modal shape only).
    distinct_frames: usize,
    measured_frames: usize,
    threads: usize,
    serial: VariantReport,
    banded: VariantReport,
    fused_f64: VariantReport,
    fused_f32_tiled: VariantReport,
    speedup_fused_vs_serial: f64,
}

/// Profiles every kernel variant over a recorded corpus: the recorded
/// payloads drive the fused payload kernels verbatim (whatever encoding was
/// recorded), their decoded forms — ground truth attached where the
/// recording carried it — drive the decoded kernels. Frames that differ
/// from the corpus's modal shape are dropped (and reported), since the
/// variants share per-shape scratch planes.
fn profile_corpus(options: &Options) -> CorpusProfileReport {
    let path = options.corpus.as_ref().expect("caller checked --corpus");
    let corpus =
        metaseg_bench::corpus::load_corpus(path).unwrap_or_else(|e| panic!("--corpus: {e}"));
    let all: Vec<_> = corpus
        .sequences
        .into_iter()
        .flat_map(|(_, frames)| frames)
        .collect();
    let corpus_frames = all.len();
    // Modal shape: the variants reuse one scratch, so profile the dominant
    // geometry and report anything dropped.
    let shape_of = |p: &metaseg_data::ProbPayload| (p.width, p.height, p.channels);
    let mut shapes: Vec<((usize, usize, usize), usize)> = Vec::new();
    for frame in &all {
        let shape = shape_of(&frame.payload);
        match shapes.iter_mut().find(|(s, _)| *s == shape) {
            Some((_, count)) => *count += 1,
            None => shapes.push((shape, 1)),
        }
    }
    let (modal, _) = *shapes
        .iter()
        .max_by_key(|(_, count)| *count)
        .expect("load_corpus rejects empty corpora");
    let (width, height, channels) = modal;
    let kept: Vec<_> = all
        .into_iter()
        .filter(|f| shape_of(&f.payload) == modal)
        .collect();
    if kept.len() < corpus_frames {
        println!(
            "extraction_profile: dropped {} frames off the modal {}x{}x{} shape",
            corpus_frames - kept.len(),
            width,
            height,
            channels
        );
    }
    let payloads: Vec<ProbPayload> = kept.iter().map(|f| f.payload.clone()).collect();
    let frames: Vec<Frame> = kept
        .iter()
        .map(|f| f.to_frame().expect("recorded frames decode"))
        .collect();
    let distinct = frames.len();
    let measured = options.frames;
    let config = MetricsConfig::default();
    let auto_bands = metaseg::pipeline::auto_band_count(width * height, height);

    let (serial, banded) = measure_decoded(&frames, measured, &config, auto_bands);
    let fused_f64 = measure_payload(
        &payloads,
        measured,
        &config,
        DispersionPrecision::F64,
        auto_bands,
    );
    let fused_f32_tiled = measure_payload(
        &payloads,
        measured,
        &config,
        DispersionPrecision::F32,
        auto_bands,
    );

    let report = CorpusProfileReport {
        bench: "extraction_profile_corpus".to_string(),
        corpus: path.display().to_string(),
        width,
        height,
        channels,
        corpus_frames,
        distinct_frames: distinct,
        measured_frames: measured,
        threads: metaseg::worker_threads(),
        speedup_fused_vs_serial: interleaved_speedup(&frames, &payloads, measured, &config),
        serial,
        banded,
        fused_f64,
        fused_f32_tiled,
    };
    println!(
        "corpus ({}x{}, {} frames): serial {:.1} frames/s, banded x{} {:.1}, \
         fused-f64 {:.1}, fused-f32-tiled {:.1} — fused/serial {:.2}x",
        report.width,
        report.height,
        report.distinct_frames,
        report.serial.frames_per_s,
        report.banded.bands,
        report.banded.frames_per_s,
        report.fused_f64.frames_per_s,
        report.fused_f32_tiled.frames_per_s,
        report.speedup_fused_vs_serial,
    );
    report
}

fn main() {
    let options = Options::parse();
    if let Some(threads) = options.threads {
        // Must land before the first rayon (and thus first kernel) call:
        // both the global pool and the cached band heuristic read it once.
        std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    }

    if options.corpus.is_some() {
        let report = profile_corpus(&options);
        let output = options.output_path();
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        std::fs::write(&output, json + "\n").expect("write corpus profile report");
        println!("wrote {}", output.display());
        if let Some(required) = options.require_speedup {
            assert!(
                report.speedup_fused_vs_serial >= required,
                "the fused payload fast path must sustain at least {required:.2}x the serial \
                 f64 kernel's frames/s on the replayed corpus (measured {:.2}x)",
                report.speedup_fused_vs_serial
            );
        }
        println!("extraction_profile: OK (corpus)");
        return;
    }

    let small = SceneConfig::small();
    // The large scene: 512x256 (4x the default cityscapes-like scene in each
    // dimension is overkill for CI; 512x256 crosses the banding threshold).
    let large = SceneConfig {
        width: 512,
        height: 256,
        car_count: (4, 10),
        human_count: (2, 8),
        ..SceneConfig::cityscapes_like()
    };

    let small_report = profile_scene("small", &small, &options);
    let large_report = profile_scene("large", &large, &options);

    let speedup = large_report.speedup_fused_vs_serial;
    println!(
        "comparison: serial f64 {:.1} frames/s vs fused payload f32 (tiled) {:.1} frames/s on \
         the large scene ({speedup:.2}x; banded x{} {:.1} frames/s, {:.2}x vs legacy)",
        large_report.serial.frames_per_s,
        large_report.fused_f32_tiled.frames_per_s,
        large_report.banded.bands,
        large_report.banded.frames_per_s,
        large_report.speedup_banded_vs_legacy,
    );

    let report = BenchReport {
        bench: "extraction_profile".to_string(),
        threads: metaseg::worker_threads(),
        small: small_report,
        large: large_report,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let output = options.output_path();
    std::fs::write(&output, json + "\n").expect("write BENCH_extraction.json");
    println!("wrote {}", output.display());

    if let Some(required) = options.require_speedup {
        assert!(
            speedup >= required,
            "the fused payload fast path (decode + f32 scan) must sustain at least \
             {required:.2}x the serial f64 kernel's frames/s on the large scene \
             (measured {speedup:.2}x)"
        );
    }
    println!("extraction_profile: OK");
}
