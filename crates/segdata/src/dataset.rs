//! Datasets and video sequences of frames.

use crate::error::DataError;
use crate::frame::Frame;
use serde::{Deserialize, Serialize};

/// An ordered video sequence of frames.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sequence {
    /// Sequence index within its dataset.
    pub index: usize,
    /// Frames in temporal order.
    pub frames: Vec<Frame>,
}

impl Sequence {
    /// Creates a sequence.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::EmptyCollection`] for an empty frame list.
    pub fn new(index: usize, frames: Vec<Frame>) -> Result<Self, DataError> {
        if frames.is_empty() {
            return Err(DataError::EmptyCollection("sequence frames"));
        }
        Ok(Self { index, frames })
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the sequence has no frames (never true for constructed sequences).
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Number of labelled frames.
    fn labeled_count(&self) -> usize {
        self.frames.iter().filter(|f| f.is_labeled()).count()
    }

    /// Indices of the labelled frames.
    pub fn labeled_indices(&self) -> Vec<usize> {
        self.frames
            .iter()
            .enumerate()
            .filter(|(_, f)| f.is_labeled())
            .map(|(i, _)| i)
            .collect()
    }

    /// The frame at temporal position `t`, if it exists.
    pub fn frame(&self, t: usize) -> Option<&Frame> {
        self.frames.get(t)
    }
}

/// A dataset: a bag of video sequences.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Dataset {
    /// All sequences of the dataset.
    pub sequences: Vec<Sequence>,
}

impl Dataset {
    /// Number of sequences.
    pub fn sequence_count(&self) -> usize {
        self.sequences.len()
    }

    /// Total number of frames over all sequences.
    pub fn frame_count(&self) -> usize {
        self.sequences.iter().map(Sequence::len).sum()
    }

    /// Total number of labelled frames over all sequences.
    pub fn labeled_frame_count(&self) -> usize {
        self.sequences.iter().map(Sequence::labeled_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::SemanticClass;
    use crate::frame::FrameId;
    use crate::labelmap::LabelMap;
    use crate::probmap::ProbMap;

    fn frame(seq: usize, idx: usize, labeled: bool) -> Frame {
        let probs = ProbMap::uniform(4, 4, 19);
        if labeled {
            let gt = LabelMap::filled(4, 4, SemanticClass::Road);
            Frame::labeled(FrameId::new(seq, idx), gt, probs).unwrap()
        } else {
            Frame::unlabeled(FrameId::new(seq, idx), probs)
        }
    }

    #[test]
    fn sequence_tracks_labeled_frames() {
        let frames = vec![frame(0, 0, true), frame(0, 1, false), frame(0, 2, true)];
        let seq = Sequence::new(0, frames).unwrap();
        assert_eq!(seq.len(), 3);
        assert_eq!(seq.labeled_count(), 2);
        assert_eq!(seq.labeled_indices(), vec![0, 2]);
        assert!(seq.frame(2).unwrap().is_labeled());
        assert!(seq.frame(3).is_none());
        assert!(Sequence::new(1, vec![]).is_err());
    }

    #[test]
    fn dataset_counts_frames() {
        let ds = Dataset {
            sequences: vec![
                Sequence::new(0, vec![frame(0, 0, true), frame(0, 1, false)]).unwrap(),
                Sequence::new(1, vec![frame(1, 0, false)]).unwrap(),
            ],
        };
        assert_eq!(ds.sequence_count(), 2);
        assert_eq!(ds.frame_count(), 3);
        assert_eq!(ds.labeled_frame_count(), 1);
    }
}
