//! Records a frame corpus: real simulated camera feeds dumped to the chunked
//! container format (`metaseg_data::container`) for deterministic replay.
//!
//! Each `--sequences` camera renders `--frames` frames of
//! [`serve_fixture::camera`], the weak-network video simulation
//! `serve_loadtest` drives live, optionally degraded through an adverse
//! `--regime` ([`metaseg_sim::ScenarioSuite`] fog, dropout, occlusion, …).
//! With the default `--seed` and geometry the recording holds exactly the
//! frames `serve_loadtest --cameras N --frames M` submits live for
//! `--sequences N --frames M` (N at most 8). It encodes every
//! prediction as a [`metaseg_data::ProbPayload`] and streams it — ground truth included on
//! the sparsely labelled frames — into `--out`. The file replays through
//! `serve_loadtest --corpus` and `extraction_profile --corpus`, so loadtests
//! and kernel profiles can re-run identical traffic instead of re-rendering
//! it.
//!
//! `--encoding f64` (the default) is bit-lossless, NaN stripes and all;
//! `u16` is the dense quantized wire form (NaN clamps to zero, so pair it
//! with benign feeds only).
//!
//! ```text
//! cargo run --release -p metaseg-bench --bin corpus_record -- \
//!     --sequences 4 --frames 24 --seed 7200 --out corpus.msgc
//! ```

use metaseg_bench::serve_fixture::{self, CAMERA_SEED};
use metaseg_data::{CorpusWriter, ProbEncoding};
use metaseg_sim::RegimeKind;
use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;

/// Parsed command line.
struct Options {
    sequences: usize,
    frames: usize,
    width: usize,
    height: usize,
    encoding: ProbEncoding,
    bands: usize,
    raw: bool,
    seed: u64,
    regime: Option<RegimeKind>,
    out: PathBuf,
}

impl Options {
    fn parse() -> Self {
        let mut options = Options {
            sequences: 4,
            frames: 24,
            width: 48,
            height: 24,
            encoding: ProbEncoding::F64,
            bands: 4,
            raw: false,
            seed: CAMERA_SEED,
            regime: None,
            out: PathBuf::from("corpus.msgc"),
        };
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let mut take = |name: &str| -> usize {
                args.next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("{name} expects a numeric argument"))
            };
            match flag.as_str() {
                "--sequences" => options.sequences = take("--sequences").max(1),
                "--frames" => options.frames = take("--frames").max(1),
                "--width" => options.width = take("--width").max(8),
                "--height" => options.height = take("--height").max(8),
                "--bands" => options.bands = take("--bands").max(1),
                "--seed" => options.seed = take("--seed") as u64,
                "--raw" => options.raw = true,
                "--encoding" => {
                    let name = args.next().unwrap_or_default();
                    options.encoding = ProbEncoding::from_name(&name)
                        .unwrap_or_else(|| panic!("--encoding expects f64|f32|u16, got `{name}`"));
                }
                "--regime" => {
                    let name = args.next().unwrap_or_default();
                    options.regime = Some(RegimeKind::from_name(&name).unwrap_or_else(|| {
                        let valid: Vec<_> = RegimeKind::all().iter().map(|k| k.name()).collect();
                        panic!("--regime expects one of {valid:?}, got `{name}`")
                    }));
                }
                "--out" => {
                    options.out = PathBuf::from(
                        args.next()
                            .unwrap_or_else(|| panic!("--out expects a path")),
                    )
                }
                other => panic!("unknown flag `{other}`"),
            }
        }
        options
    }
}

fn main() {
    let options = Options::parse();
    if let Some(kind) = options.regime {
        println!(
            "corpus_record: degrading every camera through `{}`",
            kind.name()
        );
    }
    let file = File::create(&options.out)
        .unwrap_or_else(|e| panic!("create {}: {e}", options.out.display()));
    let mut writer =
        CorpusWriter::new(BufWriter::new(file), !options.raw).expect("corpus header writes");

    for sequence in 0..options.sequences {
        // The live `serve_loadtest` camera: the corpus is a recording of
        // real traffic, not a synthetic stand-in.
        let mut source = serve_fixture::camera(
            options.seed,
            sequence,
            options.width,
            options.height,
            options.regime,
        );
        for _ in 0..options.frames {
            let frame = source.next_frame().expect("a camera never runs dry");
            writer
                .write_frame(&frame, options.encoding, options.bands)
                .expect("corpus frame writes");
        }
    }
    let frames_written = writer.frames_written();
    let sink = writer.finish().expect("corpus finalises");
    sink.into_inner().expect("corpus flushes");

    let bytes = std::fs::metadata(&options.out)
        .map(|m| m.len())
        .unwrap_or(0);
    println!(
        "corpus_record: {} sequences x {} frames ({}x{}, {} encoding, {} bands, {}) \
         -> {} ({frames_written} frames, {bytes} bytes)",
        options.sequences,
        options.frames,
        options.width,
        options.height,
        options.encoding.name(),
        options.bands,
        if options.raw { "raw" } else { "compressed" },
        options.out.display(),
    );
    println!("corpus_record: OK");
}
