//! The one gate of [`crate::report`] on the shape
//! `serve_loadtest --scale --hot-swap` writes to `BENCH_serve_scale.json`:
//! a live fleet on direct connections whose model is swapped halfway.

mod tests {
    use crate::report::tests::direct_run;
    use crate::report::{LoadReport, RunReport};

    fn report() -> LoadReport {
        LoadReport {
            source: "live".into(),
            runs: vec![RunReport {
                hot_swap_version: Some(2),
                ..direct_run()
            }],
        }
    }

    #[test]
    fn gate_accepts_a_consistent_report() {
        assert!(report().failures().is_empty());
    }

    #[test]
    fn gate_rejects_non_finite_percentiles_and_dropped_frames() {
        let mut bad = report();
        bad.runs[0].latency.p99_ms = f64::NAN;
        assert_eq!(bad.failures(), ["run 0: finite"]);

        let mut bad = report();
        bad.runs[0].server.frames_processed = 7;
        assert!(bad.failures().contains(&"run 0: frames".to_string()));

        // Shard counters disagreeing with the aggregate are a bug even when
        // the totals look plausible.
        let mut bad = report();
        bad.runs[0].shards[1].frames_processed = 2;
        assert_eq!(bad.failures(), ["run 0: shards"]);

        // A session lost across the hot swap never finished on the model
        // it pinned.
        let mut bad = report();
        bad.runs[0].sessions_completed = 1;
        bad.runs[0].sessions_killed = 1;
        assert_eq!(bad.failures(), ["run 0: sessions"]);
    }
}
