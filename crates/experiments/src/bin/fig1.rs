//! Regenerates Figure 1.
use cmpqos_experiments::{fig1, ExperimentParams};

fn main() {
    let params = ExperimentParams::from_command_line("fig1", "Regenerates Figure 1.");
    let result = fig1::run(&params);
    fig1::print(&result, &params);
}
