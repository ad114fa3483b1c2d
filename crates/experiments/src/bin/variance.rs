//! Runs the seed-stability study (Figure 5 cells across seeds).
use cmpqos_experiments::{variance, ExperimentParams};

fn main() {
    let params = ExperimentParams::from_command_line("variance", "Seed stability of Figure 5.");
    let rows = variance::run(&params);
    variance::print(&rows, &params);
}
