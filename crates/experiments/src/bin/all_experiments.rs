//! Runs every experiment in sequence (the full reproduction), timing each
//! one and closing with a wall-time summary table.
use cmpqos_experiments::output::Table;
use cmpqos_experiments::*;
use std::time::{Duration, Instant};

fn timed(times: &mut Vec<(&'static str, Duration)>, name: &'static str, f: impl FnOnce()) {
    let t0 = Instant::now();
    f();
    times.push((name, t0.elapsed()));
}

fn main() {
    let params = ExperimentParams::from_command_line("all_experiments", "All experiments.");
    let mut times: Vec<(&'static str, Duration)> = Vec::new();
    timed(&mut times, "fig1 (motivation)", || {
        let r = fig1::run(&params);
        fig1::print(&r, &params);
    });
    timed(&mut times, "fig3 (downgrade illustration)", || {
        fig3::print(&fig3::run());
    });
    timed(&mut times, "fig4 (cache sensitivity)", || {
        let pts = fig4::run(&params);
        fig4::print(&pts, &params);
    });
    timed(&mut times, "table1 (benchmark characteristics)", || {
        let rows = table1::run(&params);
        table1::print(&rows, &params);
    });
    timed(&mut times, "fig5 (hit rate / throughput)", || {
        let rows = fig5::run(&params);
        fig5::print(&rows, &params);
    });
    timed(&mut times, "fig6 (wall-clock by mode)", || {
        let r6 = fig6::run(&params);
        fig6::print(&r6, &params);
    });
    timed(&mut times, "fig7 (execution traces)", || {
        let r7 = fig7::run(&params);
        fig7::print(&r7, &params);
    });
    timed(&mut times, "fig8 (stealing vs slack)", || {
        let r8 = fig8::run(&params);
        fig8::print(&r8, &params);
    });
    timed(&mut times, "fig9 (mixed workloads)", || {
        let r9 = fig9::run(&params);
        fig9::print(&r9, &params);
    });
    timed(&mut times, "lac_overhead (sec 7.5)", || {
        let rows = lac_overhead::run(&params);
        lac_overhead::print(&rows, &params);
    });
    timed(&mut times, "overload (shedding)", || {
        let rows = overload::run(&params);
        overload::print(&rows, &params);
    });
    timed(&mut times, "slo (adaptive QoS)", || {
        let rows = slo::run(&params);
        slo::print(&rows, &params);
    });
    timed(&mut times, "traffic (scenario DSL)", || {
        let reports = traffic::run(&params);
        traffic::print(&reports, &params);
    });
    timed(&mut times, "ablations", || {
        ablation::print(&params);
    });
    timed(&mut times, "extensions", || {
        extensions::print(&params);
    });

    // The summary goes to stderr: stdout carries only the experiments'
    // results, so two same-seed runs diff byte-identically regardless of
    // the pool width or machine speed.
    eprintln!(
        "== Wall-time summary ({} engine worker(s)) ==\n",
        params.jobs
    );
    let total: Duration = times.iter().map(|(_, d)| *d).sum();
    let mut t = Table::new(&["experiment", "wall time (s)", "share"]);
    for (name, d) in &times {
        let share = if total.as_secs_f64() > 0.0 {
            d.as_secs_f64() / total.as_secs_f64()
        } else {
            0.0
        };
        t.row_owned(vec![
            (*name).to_string(),
            format!("{:.2}", d.as_secs_f64()),
            format!("{:.0}%", share * 100.0),
        ]);
    }
    t.row_owned(vec![
        "TOTAL".to_string(),
        format!("{:.2}", total.as_secs_f64()),
        "100%".to_string(),
    ]);
    eprintln!("{}", t.render());
}
