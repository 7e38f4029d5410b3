//! Corpus replay for the bench binaries.
//!
//! `corpus_record` dumps real [`metaseg_data::ProbPayload`] frames (benign or
//! regime-degraded camera feeds) into the chunked container format of
//! `metaseg_data::container`; `serve_loadtest --corpus` and
//! `extraction_profile --corpus` replay the same file, loaded here grouped
//! by camera sequence.

use metaseg_data::{CorpusFrame, CorpusReader};
use std::fs::File;
use std::io::BufReader;
use std::path::Path;

/// A corpus loaded into memory, frames grouped by their recorded camera
/// sequence (in first-seen order, preserving per-sequence frame order).
#[derive(Debug)]
pub struct LoadedCorpus {
    /// `(sequence id, frames of that sequence)`, in first-seen order.
    pub sequences: Vec<(usize, Vec<CorpusFrame>)>,
}

impl LoadedCorpus {
    /// Total frames across all sequences.
    pub fn total_frames(&self) -> usize {
        self.sequences.iter().map(|(_, frames)| frames.len()).sum()
    }
}

/// Streams a corpus file into memory, grouped by sequence.
///
/// # Errors
///
/// Returns a rendered message on I/O failure, a typed container error
/// (truncation, CRC mismatch, version skew) or an empty corpus — a replay
/// binary has nothing useful to do with any of those beyond reporting.
pub fn load_corpus(path: &Path) -> Result<LoadedCorpus, String> {
    let file = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let mut reader = CorpusReader::open(BufReader::new(file))
        .map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut sequences: Vec<(usize, Vec<CorpusFrame>)> = Vec::new();
    while let Some(frame) = reader
        .next_frame()
        .map_err(|e| format!("read {}: {e}", path.display()))?
    {
        match sequences.iter_mut().find(|(s, _)| *s == frame.id.sequence) {
            Some((_, frames)) => frames.push(frame),
            None => sequences.push((frame.id.sequence, vec![frame])),
        }
    }
    if sequences.is_empty() {
        return Err(format!("{}: corpus holds no frames", path.display()));
    }
    Ok(LoadedCorpus { sequences })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{tests::direct_run, LoadReport};
    use metaseg_data::{CorpusWriter, Frame, FrameId, ProbEncoding, ProbMap};

    fn write_fixture(path: &Path) {
        let file = File::create(path).unwrap();
        let mut writer = CorpusWriter::new(file, true).unwrap();
        for sequence in [3usize, 1] {
            for index in 0..4 {
                let frame =
                    Frame::unlabeled(FrameId::new(sequence, index), ProbMap::uniform(6, 4, 3));
                writer.write_frame(&frame, ProbEncoding::F64, 2).unwrap();
            }
        }
        writer.finish().unwrap();
    }

    #[test]
    fn load_corpus_groups_by_sequence_in_first_seen_order() {
        let path = std::env::temp_dir().join(format!("metaseg-corpus-{}.msgc", std::process::id()));
        write_fixture(&path);
        let corpus = load_corpus(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(corpus.sequences.len(), 2);
        assert_eq!(corpus.sequences[0].0, 3);
        assert_eq!(corpus.sequences[1].0, 1);
        assert_eq!(corpus.total_frames(), 8);
        for (_, frames) in &corpus.sequences {
            for (index, frame) in frames.iter().enumerate() {
                assert_eq!(frame.id.index, index);
            }
        }
    }

    #[test]
    fn load_corpus_reports_missing_and_empty_files_as_errors() {
        let missing = Path::new("/nonexistent/corpus.msgc");
        assert!(load_corpus(missing).is_err());
        let path = std::env::temp_dir().join(format!("metaseg-empty-{}.msgc", std::process::id()));
        let file = File::create(&path).unwrap();
        CorpusWriter::new(file, false).unwrap().finish().unwrap();
        let err = load_corpus(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.contains("no frames"), "{err}");
    }

    #[test]
    fn corpus_report_gate_rejects_non_finite_and_dropped_frames() {
        let mut report = LoadReport {
            source: "corpus.msgc".into(),
            runs: vec![direct_run()],
        };
        assert!(report.failures().is_empty());
        report.runs[0].frames_per_s = f64::NAN;
        assert_eq!(report.failures(), ["run 0: finite"]);
        report.runs[0].frames_per_s = 100.0;
        report.runs[0].server.frames_processed = 7;
        assert!(report.failures().contains(&"run 0: frames".to_string()));
    }
}
