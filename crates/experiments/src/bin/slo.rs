//! Compares the `cmpqos-adapt` PID loop against static Elastic operating
//! points on SLO attainment and per-tier goodput (see
//! `cmpqos_experiments::slo`).
use cmpqos_experiments::{slo, ExperimentParams};

fn main() {
    let params = ExperimentParams::from_command_line("slo", "Adaptive vs static QoS.");
    let rows = slo::run(&params);
    slo::print(&rows, &params);
}
