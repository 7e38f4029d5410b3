//! Output checks: served verdicts against an in-process engine, and the meta
//! models' quality on the labelled frames.

use crate::load::{Served, Session};
use crate::workload::{served_probs, Inputs, Spec, MODEL};
use metaseg::pipeline::{extract_frame, ExtractionScratch};
use metaseg::stream::{MetaSegStream, SegmentVerdict};
use metaseg_data::{Frame, FrameId};
use metaseg_serve::wire::{BinaryFrameHeader, BINARY_HEADER_LEN};
use metaseg_serve::FrameFormat;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};

/// 64-bit SipHash of every field of every verdict, floats by their bits.
/// Two lists that differ anywhere hash alike with probability 2^-64, so
/// comparing digests checks served frames bit for bit without keeping
/// every timed frame's verdicts in memory.
pub fn digest(verdicts: &[SegmentVerdict]) -> u64 {
    let mut hasher = DefaultHasher::new();
    verdicts.len().hash(&mut hasher);
    for v in verdicts {
        (v.frame, v.track_id, v.region_id, v.area).hash(&mut hasher);
        v.class.hash(&mut hasher);
        v.tp_probability.to_bits().hash(&mut hasher);
        v.predicted_iou.to_bits().hash(&mut hasher);
    }
    hasher.finish()
}

/// Pushes frame `n` of `session` through `engine` the way the server does:
/// binary frames as verified payloads, JSON frames as decoded fields.
fn push_reference(
    spec: &Spec,
    inputs: &Inputs,
    session: &Session,
    engine: &mut MetaSegStream,
    n: usize,
) -> Vec<SegmentVerdict> {
    let at = n % session.wire.len();
    match spec.format {
        FrameFormat::Binary(_) => {
            let bytes = &session.wire[at];
            let payload = BinaryFrameHeader::parse(bytes)
                .and_then(|h| h.verified_payload(bytes[BINARY_HEADER_LEN..].to_vec()))
                .expect("pre-encoded frames are well formed");
            engine
                .push_payload(&payload, spec.dispersion)
                .expect("pre-encoded payloads decode")
                .verdicts
        }
        FrameFormat::Json => {
            let probs = inputs.frame(session.pool[at]).prediction.clone();
            let id = FrameId::new(session.id as usize, engine.frames_seen());
            engine.push_frame(&Frame::unlabeled(id, probs)).verdicts
        }
    }
}

/// Counts the served frames whose verdicts are bit-identical (by `digest`)
/// to those of a fresh in-process engine per session fed the same frames in
/// the same order. `served` may be in any order; a session whose frame
/// numbers have a gap fails from the gap on.
pub fn verify(spec: &Spec, inputs: &Inputs, sessions: &[&Session], served: &[&Served]) -> usize {
    let mut by_session: Vec<Vec<&Served>> = vec![Vec::new(); sessions.len()];
    for frame in served {
        by_session[frame.session].push(frame);
    }
    let check = |range: std::ops::Range<usize>| -> usize {
        let entry = inputs.registry.get(MODEL).expect("model is registered");
        let mut ok = 0;
        for index in range {
            let mut frames = by_session[index].clone();
            frames.sort_by_key(|f| f.n);
            let mut engine = entry.open_stream();
            for (expected, frame) in frames.iter().enumerate() {
                if frame.n != expected {
                    break;
                }
                let reference = push_reference(spec, inputs, sessions[index], &mut engine, frame.n);
                ok += usize::from(frame.digest == digest(&reference));
            }
        }
        ok
    };
    // Two verifier threads over disjoint halves of the sessions.
    let half = sessions.len() / 2;
    std::thread::scope(|scope| {
        let upper = scope.spawn(|| check(half..sessions.len()));
        check(0..half) + upper.join().expect("verifier thread panicked")
    })
}

/// Meta-model quality on the served verdicts of labelled frames.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    pub auroc: f64,
    pub r2: f64,
    /// Labelled segments behind both numbers.
    pub segments: usize,
    /// Verdicts whose region had no record of the same area.
    pub unmatched: usize,
}

/// AUROC of `tp_probability` against realised `IoU > 0` and R² of
/// `predicted_iou` against realised IoU. The realised IoU comes from
/// `extract_frame` with the frame's ground truth, matched to verdicts by
/// `region_id`. `served` must hold the same frames on every run of a seed
/// (the warm-up loop does), so both numbers repeat exactly.
pub fn quality(spec: &Spec, inputs: &Inputs, sessions: &[&Session], served: &[Served]) -> Quality {
    let metrics = inputs
        .registry
        .get(MODEL)
        .expect("model is registered")
        .config()
        .metrics;
    let mut frames: Vec<&Served> = served.iter().collect();
    frames.sort_by_key(|f| (f.session, f.n));
    let mut scratch = ExtractionScratch::new();
    // Pool frame -> region id -> (area, realised IoU).
    type Regions = HashMap<usize, (usize, Option<f64>)>;
    let mut realised: HashMap<(usize, usize), Regions> = HashMap::new();
    let (mut scores, mut labels, mut predicted, mut targets) = (vec![], vec![], vec![], vec![]);
    let mut unmatched = 0;
    for frame in frames {
        let session = sessions[frame.session];
        let at = session.pool[frame.n % session.pool.len()];
        let source = inputs.frame(at);
        let Some(truth) = source.ground_truth.as_ref() else {
            continue;
        };
        let regions = realised.entry(at).or_insert_with(|| {
            let probs = served_probs(&source.prediction, spec.format);
            let (_, records) = extract_frame(&probs, Some(truth), &metrics, &mut scratch);
            records
                .into_iter()
                .map(|r| (r.region_id, (r.area, r.iou)))
                .collect()
        });
        for verdict in &frame.verdicts {
            match regions.get(&verdict.region_id) {
                Some(&(area, iou)) if area == verdict.area => {
                    if let Some(iou) = iou {
                        scores.push(verdict.tp_probability);
                        labels.push(iou > 0.0);
                        predicted.push(verdict.predicted_iou);
                        targets.push(iou);
                    }
                }
                _ => unmatched += 1,
            }
        }
    }
    Quality {
        auroc: metaseg_eval::auroc(&scores, &labels),
        r2: metaseg_eval::r_squared(&predicted, &targets),
        segments: scores.len(),
        unmatched,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;
    use crate::workload::{prepare, specs};
    use std::time::Instant;

    /// A small JSON-wire workload, and "served" verdicts taken from an
    /// in-process engine so the test needs no server.
    fn fixture() -> (Spec, Inputs, Vec<Session>, Vec<Served>) {
        let mut spec = specs()
            .into_iter()
            .find(|s| s.name == "json")
            .expect("json workload exists");
        spec.sessions = 2;
        spec.clips = 2;
        spec.clip_frames = 4;
        spec.clips_per_session = 1;
        spec.train_sequences = 3;
        spec.train_frames = 6;
        let mut tracer = Tracer::new(Instant::now(), false);
        let inputs = prepare(&spec, 7, &mut tracer);
        let sessions: Vec<Session> = (0..spec.sessions)
            .map(|index| {
                let mut session = Session::new(&spec, index, index as u64 + 1);
                session.encode(&spec, &inputs, &mut tracer);
                session
            })
            .collect();
        let entry = inputs.registry.get(MODEL).expect("model is registered");
        let now = Instant::now();
        let mut served = Vec::new();
        for session in &sessions {
            let mut engine = entry.open_stream();
            // Two passes, so the loop's wrap-around is checked too.
            for n in 0..2 * session.wire.len() {
                let verdicts = push_reference(&spec, &inputs, session, &mut engine, n);
                served.push(Served {
                    session: session.index,
                    n,
                    start: now,
                    done: now,
                    digest: digest(&verdicts),
                    verdicts,
                });
            }
        }
        (spec, inputs, sessions, served)
    }

    fn ok_frac(spec: &Spec, inputs: &Inputs, sessions: &[Session], served: &[Served]) -> f64 {
        let sessions: Vec<&Session> = sessions.iter().collect();
        let served: Vec<&Served> = served.iter().collect();
        verify(spec, inputs, &sessions, &served) as f64 / served.len() as f64
    }

    #[test]
    fn flipping_one_verdict_bit_lowers_ok_frac() {
        let (spec, inputs, sessions, mut served) = fixture();
        assert_eq!(ok_frac(&spec, &inputs, &sessions, &served), 1.0);

        let frame = served
            .iter_mut()
            .find(|f| !f.verdicts.is_empty())
            .expect("some frame has segments");
        let verdict = &mut frame.verdicts[0];
        verdict.predicted_iou = f64::from_bits(verdict.predicted_iou.to_bits() ^ 1);
        frame.digest = digest(&frame.verdicts);
        let frac = ok_frac(&spec, &inputs, &sessions, &served);
        assert!(
            frac < 1.0,
            "a one-bit change must fail the check, ok_frac {frac}"
        );
        assert_eq!(frac, (served.len() - 1) as f64 / served.len() as f64);
    }

    #[test]
    fn quality_repeats_exactly_and_matches_every_region() {
        let (spec, inputs, sessions, served) = fixture();
        let sessions: Vec<&Session> = sessions.iter().collect();
        let first = quality(&spec, &inputs, &sessions, &served);
        let mut reversed = served.clone();
        reversed.reverse();
        let again = quality(&spec, &inputs, &sessions, &reversed);
        assert_eq!(first.unmatched, 0);
        assert!(first.segments > 0);
        assert_eq!(first.auroc.to_bits(), again.auroc.to_bits());
        assert_eq!(first.r2.to_bits(), again.r2.to_bits());
    }
}
