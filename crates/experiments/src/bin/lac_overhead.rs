//! Regenerates the Section 7.5 LAC characterization.
use cmpqos_experiments::{lac_overhead, ExperimentParams};

fn main() {
    let params = ExperimentParams::from_command_line("lac_overhead", "The Section 7.5 LAC study.");
    let rows = lac_overhead::run(&params);
    lac_overhead::print(&rows, &params);
}
