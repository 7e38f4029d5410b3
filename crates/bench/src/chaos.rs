//! The one gate of [`crate::report`] on the shape `serve_loadtest --chaos`
//! writes to `BENCH_chaos.json`: one run per fault plan, each behind a
//! proxy.

mod tests {
    use crate::report::tests::run;
    use crate::report::{LoadReport, RunReport};

    /// A corpus replayed through two fault plans, both survived.
    fn report() -> LoadReport {
        let plan = |name: &str| RunReport {
            plan: Some(name.into()),
            ..run()
        };
        LoadReport {
            source: "corpus.msgc".into(),
            runs: vec![plan("trickle"), plan("torn")],
        }
    }

    #[test]
    fn gate_accepts_a_survived_report() {
        assert!(report().failures().is_empty());
    }

    #[test]
    fn gate_rejects_an_empty_report() {
        let mut r = report();
        r.runs.clear();
        assert_eq!(r.failures(), ["no runs"]);
    }

    #[test]
    fn gate_rejects_mismatches_leaks_and_lost_frames() {
        let mutations: [(&str, fn(&mut RunReport)); 7] = [
            ("verdicts", |p| p.verdict_mismatches = 1),
            ("sessions", |p| p.sessions_killed = 1),
            ("sessions", |p| p.sessions_completed = 1),
            ("drain", |p| p.leaked_sessions = 1),
            ("drain", |p| p.leaked_connections = 1),
            // A frame neither served nor confirmed applied vanished.
            ("frames", |p| p.frames_served = 6),
            ("finite", |p| p.frames_per_s = f64::NAN),
        ];
        for (clause, mutate) in mutations {
            let mut r = report();
            mutate(&mut r.runs[1]);
            // The failure names the run of the `torn` plan, and only it.
            assert_eq!(r.failures(), [format!("run 1: {clause}")]);
            assert_eq!(r.runs[1].plan.as_deref(), Some("torn"));
        }
    }

    #[test]
    fn report_roundtrips_through_json() {
        let json = serde_json::to_string(&report()).unwrap();
        let back: LoadReport = serde_json::from_str(&json).unwrap();
        assert!(back.failures().is_empty());
        assert_eq!(back.runs[1].plan.as_deref(), Some("torn"));
        assert_eq!(back, report());
    }
}
