//! Regenerates Table 1 (benchmark characteristics at 7 ways).
use cmpqos_experiments::{table1, ExperimentParams};

fn main() {
    let params = ExperimentParams::from_command_line("table1", "Regenerates Table 1.");
    let rows = table1::run(&params);
    table1::print(&rows, &params);
}
