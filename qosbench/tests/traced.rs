//! The benchmark's own checks: the timing wrappers change no decision, every
//! cell matches the program's reference, and a mismatch fails the check.

use qosbench::{check_cell, measure, report, run_cell, Sizes, Workload};

const SIZES: Sizes = Sizes::SMALL;

#[test]
fn traced_cells_reproduce_untraced_statistics_on_every_workload() {
    for w in Workload::ALL {
        let run = measure(w, 7, 4, SIZES, true);
        assert!(run.errors.is_empty(), "{}: {:?}", w.name(), run.errors);
        assert_eq!(run.failed, 0, "{}", w.name());
        assert_eq!(run.cells.len(), 2, "{}", w.name());
        assert_eq!(run.traced.len(), 2, "{}", w.name());
        for (plain, traced) in run.cells.iter().zip(&run.traced) {
            assert_eq!(plain.digest, traced.digest, "{}", w.name());
            assert_eq!(plain.stats, traced.stats, "{}", w.name());
        }
        let probe = run.probe.as_ref().expect("traced runs carry a probe");
        let layers = report::per_layer(w, &run.traced, &run.cells, probe);
        let value = |name: &str| {
            layers
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .value
        };
        match w {
            Workload::SimMix | Workload::SimStream => {
                assert!(value("trace.calls") > 0.0);
                assert!(value("sched.run_self_s") > 0.0);
                assert!(value("workloads.calibrate_runs") > 0.0);
                assert!(value("cache.l2_accesses") > 0.0);
            }
            Workload::AdmitCluster => {
                assert!(value("lac.calls") > 0.0);
                assert!(value("gac.conversations_per_decision") >= 1.0);
                assert!(value("net.delivered") > 0.0);
            }
            Workload::AdmitFlood => {
                assert!(value("intake.offer_calls") > 0.0);
                assert!(value("intake.shed_pct") > 50.0);
                assert!(value("intake.breaker_trips") > 0.0);
            }
        }
    }
}

#[test]
fn every_cell_matches_the_program_reference() {
    for w in Workload::ALL {
        for i in 0..3 {
            let cell = run_cell(w, 11, i, SIZES, None);
            check_cell(w, 11, i, SIZES, &cell, true)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        }
    }
}

#[test]
fn a_mismatch_or_a_failed_op_fails_the_check() {
    for w in Workload::ALL {
        let cell = run_cell(w, 3, 0, SIZES, None);
        if w != Workload::AdmitCluster {
            let mut wrong = cell.clone();
            wrong.digest ^= 1;
            assert!(
                check_cell(w, 3, 0, SIZES, &wrong, true).is_err(),
                "{}",
                w.name()
            );
        }
        let mut failed = cell;
        failed.stats.failed = 1;
        assert!(
            check_cell(w, 3, 0, SIZES, &failed, false).is_err(),
            "{}",
            w.name()
        );
    }
}

#[test]
fn a_seed_repeats_its_simulated_statistics() {
    for w in Workload::ALL {
        let a = run_cell(w, 5, 1, SIZES, None);
        let b = run_cell(w, 5, 1, SIZES, None);
        assert_eq!(a.digest, b.digest, "{}", w.name());
        assert_eq!(a.stats, b.stats, "{}", w.name());
        assert!(a.stats.ops > 0, "{}", w.name());
    }
}
