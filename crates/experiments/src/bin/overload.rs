//! Sweeps the admission intake across arrival rates and prints the
//! shed-rate / admission-latency table (see `cmpqos_experiments::overload`).
use cmpqos_experiments::{overload, ExperimentParams};

fn main() {
    let params = ExperimentParams::from_command_line("overload", "The intake overload sweep.");
    let rows = overload::run(&params);
    overload::print(&rows, &params);
}
