//! The on-disk shape of every `serve_loadtest` artifact
//! (`BENCH_serve_scale.json`, `BENCH_corpus.json`, `BENCH_chaos.json` or an
//! `--out` path) and the one gate they are all held to. The loadtest
//! re-reads what it wrote and exits non-zero unless the gate passes;
//! `serve_loadtest --check PATH` re-gates a committed artifact.

use crate::serve_fixture::percentile_ms;
use metaseg_serve::{FrameFormat, ServerStats, ShardStats};
use metaseg_sim::ChaosStats;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Latency percentiles of one run, in milliseconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Median per-frame latency.
    pub p50_ms: f64,
    /// 90th-percentile per-frame latency.
    pub p90_ms: f64,
    /// 99th-percentile per-frame latency.
    pub p99_ms: f64,
    /// Worst per-frame latency.
    pub max_ms: f64,
}

impl LatencySummary {
    /// Summarises a sorted latency sample.
    pub fn from_sorted(sorted: &[Duration]) -> Self {
        Self {
            p50_ms: percentile_ms(sorted, 0.50),
            p90_ms: percentile_ms(sorted, 0.90),
            p99_ms: percentile_ms(sorted, 0.99),
            max_ms: percentile_ms(sorted, 1.0),
        }
    }

    /// Whether every percentile is a finite number.
    pub fn is_finite(&self) -> bool {
        [self.p50_ms, self.p90_ms, self.p99_ms, self.max_ms]
            .iter()
            .all(|v| v.is_finite())
    }
}

/// One server the loadtest drove: the traffic, what came back, and the
/// server's final counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Wire format the frames went out in (`json`, `binary-f64`, …).
    pub wire: String,
    /// The server's cross-session micro-batch cap.
    pub batch: usize,
    /// The server's per-shard frame-queue bound.
    pub queue_depth: usize,
    /// Fault plan the connections went through; `None` when they
    /// connected directly.
    pub plan: Option<String>,
    /// Camera sessions driven.
    pub cameras: usize,
    /// TCP connections the sessions were strided over.
    pub connections: usize,
    /// Frames each camera submitted.
    pub frames_per_camera: usize,
    /// Sessions that submitted every frame and whose close reported the
    /// full frame budget (or was confirmed, after a faulted close, to have
    /// landed).
    pub sessions_completed: usize,
    /// Sessions abandoned with an unrecoverable error.
    pub sessions_killed: usize,
    /// Frames whose verdicts came back.
    pub frames_served: usize,
    /// Frames the server applied whose response died with a faulted
    /// connection (detected through resume, never resubmitted).
    pub frames_lost_response: usize,
    /// Frames that came back under any index but the next one, or, on a
    /// lossless wire, with verdicts other than the in-process engine's.
    pub verdict_mismatches: usize,
    /// Segment verdicts returned across the run.
    pub verdicts: usize,
    /// Connections the retrying clients re-established.
    pub reconnects: usize,
    /// Sessions still open server-side once the run settled.
    pub leaked_sessions: usize,
    /// Connections still open server-side once the run settled.
    pub leaked_connections: usize,
    /// Frames per second across all cameras.
    pub frames_per_s: f64,
    /// Per-frame submit latency, retries and backoff included.
    pub latency: LatencySummary,
    /// Final aggregate server counters.
    pub server: ServerStats,
    /// Final per-shard counters.
    pub shards: Vec<ShardStats>,
    /// Faults the proxy injected; `None` for direct connections.
    pub proxy: Option<ChaosStats>,
    /// Registry version of the model a `--hot-swap` run installed once
    /// half of its frames were done. Every session had opened before the
    /// first frame, so each one pinned the model the swap replaced.
    pub hot_swap_version: Option<u64>,
}

impl RunReport {
    /// The gate clauses this run breaks, by name; empty when it passes.
    fn violations(&self) -> Vec<&'static str> {
        let frames = self.cameras * self.frames_per_camera;
        let shard_sum =
            |count: fn(&ShardStats) -> usize| self.shards.iter().map(count).sum::<usize>();
        let server = &self.server;
        let clauses = [
            (
                "sessions",
                self.sessions_completed == self.cameras && self.sessions_killed == 0,
            ),
            (
                "frames",
                self.frames_served + self.frames_lost_response == frames
                    && server.frames_processed == frames,
            ),
            ("verdicts", self.verdict_mismatches == 0),
            (
                "drain",
                self.leaked_sessions == 0 && self.leaked_connections == 0,
            ),
            (
                "shards",
                !self.shards.is_empty()
                    && shard_sum(|s| s.frames_processed) == server.frames_processed
                    && shard_sum(|s| s.rejected) == server.rejected
                    && server.peak_queue_depth <= self.queue_depth
                    && self
                        .shards
                        .iter()
                        .all(|s| s.peak_queue_depth <= self.queue_depth),
            ),
            (
                "binary",
                match FrameFormat::from_str_opt(&self.wire) {
                    Some(FrameFormat::Json) => true,
                    Some(FrameFormat::Binary(_)) => {
                        server.binary_frames == server.frames_processed + server.rejected
                    }
                    None => false,
                },
            ),
            (
                "finite",
                self.frames_per_s.is_finite()
                    && self.frames_per_s > 0.0
                    && self.latency.is_finite(),
            ),
        ];
        clauses
            .into_iter()
            .filter(|(_, holds)| !holds)
            .map(|(name, _)| name)
            .collect()
    }
}

/// Every `serve_loadtest` artifact: one run per server it drove.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadReport {
    /// What the cameras submitted: a corpus path, or `live` with the
    /// regime the live cameras were degraded through.
    pub source: String,
    /// One run per server: two for `--compare`, one per fault plan for
    /// `--chaos`, else one.
    pub runs: Vec<RunReport>,
}

impl LoadReport {
    /// The gate: every broken clause as `run N: clause`, plus `no runs`
    /// for an empty report. Empty when the report passes.
    pub fn failures(&self) -> Vec<String> {
        if self.runs.is_empty() {
            return vec!["no runs".to_string()];
        }
        self.runs
            .iter()
            .enumerate()
            .flat_map(|(index, run)| {
                run.violations()
                    .into_iter()
                    .map(move |clause| format!("run {index}: {clause}"))
            })
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A consistent two-camera, two-shard binary run through a fault plan.
    pub(crate) fn run() -> RunReport {
        let sorted = [Duration::from_millis(3), Duration::from_millis(40)];
        let shard = |shard, frames_processed, rejected| ShardStats {
            shard,
            frames_processed,
            rejected,
            peak_queue_depth: 2,
            batches: frames_processed,
            peak_batch: 1,
        };
        RunReport {
            wire: "binary-f64".into(),
            batch: 8,
            queue_depth: 4,
            plan: Some("torn".into()),
            cameras: 2,
            connections: 2,
            frames_per_camera: 4,
            sessions_completed: 2,
            sessions_killed: 0,
            frames_served: 7,
            frames_lost_response: 1,
            verdict_mismatches: 0,
            verdicts: 280,
            reconnects: 3,
            leaked_sessions: 0,
            leaked_connections: 0,
            frames_per_s: 55.0,
            latency: LatencySummary::from_sorted(&sorted),
            server: ServerStats {
                connections: 5,
                sessions_opened: 2,
                frames_processed: 8,
                binary_frames: 9,
                rejected: 1,
                peak_queue_depth: 2,
                batches: 8,
                peak_batch: 1,
                sessions_resumed: 3,
                ..ServerStats::default()
            },
            shards: vec![shard(0, 5, 1), shard(1, 3, 0)],
            proxy: Some(ChaosStats::default()),
            hot_swap_version: None,
        }
    }

    /// [`run`] on direct connections: every response came back.
    pub(crate) fn direct_run() -> RunReport {
        RunReport {
            plan: None,
            proxy: None,
            frames_served: 8,
            frames_lost_response: 0,
            ..run()
        }
    }

    #[test]
    fn gate_names_exactly_the_clause_each_mutation_breaks() {
        let report = |runs| LoadReport {
            source: "corpus.msgc".into(),
            runs,
        };
        assert!(report(vec![run()]).failures().is_empty());
        assert_eq!(report(vec![]).failures(), ["no runs"]);
        let json = serde_json::to_string(&report(vec![run(), run()])).unwrap();
        let back: LoadReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report(vec![run(), run()]));

        let rows: [(&str, fn(&mut RunReport)); 18] = [
            ("sessions", |r| r.sessions_killed = 1),
            ("sessions", |r| r.sessions_completed = 1),
            // A frame neither served nor confirmed applied vanished.
            ("frames", |r| r.frames_served = 6),
            ("frames", |r| r.frames_lost_response = 2),
            // The server dropped a frame the client counted, with every
            // server-side counter consistent with the drop.
            ("frames", |r| {
                r.server.frames_processed = 7;
                r.server.binary_frames = 8;
                r.shards[1].frames_processed = 2;
            }),
            ("verdicts", |r| r.verdict_mismatches = 1),
            ("drain", |r| r.leaked_sessions = 1),
            ("drain", |r| r.leaked_connections = 1),
            // Shard counters disagreeing with the aggregate are a bug even
            // when the totals look plausible.
            ("shards", |r| r.shards[1].frames_processed = 2),
            ("shards", |r| r.shards[0].rejected = 0),
            ("shards", |r| r.shards[1].peak_queue_depth = 5),
            ("shards", |r| r.server.peak_queue_depth = 5),
            ("shards", |r| r.shards.clear()),
            ("binary", |r| r.server.binary_frames = 8),
            ("binary", |r| r.wire = "carrier-pigeon".into()),
            ("finite", |r| r.frames_per_s = f64::NAN),
            ("finite", |r| r.frames_per_s = 0.0),
            ("finite", |r| r.latency.p99_ms = f64::INFINITY),
        ];
        for (index, (clause, mutate)) in rows.into_iter().enumerate() {
            let mut broken = run();
            mutate(&mut broken);
            assert_eq!(broken.violations(), [clause], "row {index}");
            assert_eq!(
                report(vec![run(), broken]).failures(),
                [format!("run 1: {clause}")],
                "row {index}"
            );
        }

        // Frames processed on the JSON wire never count as binary frames.
        let mut json = run();
        json.wire = "json".into();
        json.server.binary_frames = 0;
        assert!(json.violations().is_empty());
    }
}
