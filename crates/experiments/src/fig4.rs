//! **Figure 4** — benchmark cache-capacity sensitivity: CPI increase when a
//! benchmark's L2 allocation shrinks from 7 ways to 4 and from 7 ways to 1,
//! for all fifteen benchmarks; the scatter separates into the paper's three
//! groups.

use crate::output::{banner, pct, Table};
use crate::params::ExperimentParams;
use cmpqos_engine::Engine;
use cmpqos_trace::spec::{self, SensitivityClass};

/// One benchmark's sensitivity point.
#[derive(Debug, Clone)]
pub struct Fig4Point {
    /// Benchmark name.
    pub bench: String,
    /// Expected (paper) group.
    pub class: SensitivityClass,
    /// CPI at 7 ways.
    pub cpi7: f64,
    /// Relative CPI increase 7 → 4 ways.
    pub inc_4: f64,
    /// Relative CPI increase 7 → 1 way.
    pub inc_1: f64,
}

/// Runs the sweep over all fifteen benchmarks (one engine cell per
/// benchmark; each cell runs its own 7/4/1-way solo measurements).
#[must_use]
pub fn run(params: &ExperimentParams) -> Vec<Fig4Point> {
    Engine::new(params.jobs).run(spec::all().to_vec(), |_, b| {
        let cpi = |ways: u16| params.solo(b.name(), ways).cpi();
        let cpi7 = cpi(7);
        Fig4Point {
            bench: b.name().to_string(),
            class: b.class(),
            cpi7,
            inc_4: cpi(4) / cpi7 - 1.0,
            inc_1: cpi(1) / cpi7 - 1.0,
        }
    })
}

/// Prints the scatter as a table, grouped by class.
pub fn print(points: &[Fig4Point], params: &ExperimentParams) {
    banner(
        "Figure 4: cache-capacity sensitivity of each benchmark",
        params,
    );
    let mut t = Table::new(&[
        "benchmark",
        "group",
        "CPI@7w",
        "CPI incr 7->4",
        "CPI incr 7->1",
    ]);
    for p in points {
        t.row_owned(vec![
            p.bench.clone(),
            match p.class {
                SensitivityClass::HighlySensitive => "1 (high)".into(),
                SensitivityClass::ModeratelySensitive => "2 (moderate)".into(),
                SensitivityClass::Insensitive => "3 (insensitive)".into(),
            },
            format!("{:.2}", p.cpi7),
            pct(p.inc_4),
            pct(p.inc_1),
        ]);
    }
    println!("{}", t.render());
    println!("paper shape: Group 1 large at 7->4; Group 2 large only at 7->1; Group 3 flat.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_separate_in_simulation() {
        // Restrict to the three representative benchmarks for test speed.
        let mut p = ExperimentParams::quick();
        p.work = p.work * 4;
        let cpi = |bench: &str, ways: u16| p.solo(bench, ways).cpi();
        let inc = |bench: &str, ways: u16| cpi(bench, ways) / cpi(bench, 7) - 1.0;
        // bzip2 (Group 1): hurt already at 4 ways.
        assert!(inc("bzip2", 4) > 0.10, "bzip2 7->4: {}", inc("bzip2", 4));
        // hmmer (Group 2): hurt at 1 way, mildly at 4.
        assert!(inc("hmmer", 1) > 0.08, "hmmer 7->1: {}", inc("hmmer", 1));
        assert!(inc("hmmer", 4) < 0.15, "hmmer 7->4: {}", inc("hmmer", 4));
        // gobmk (Group 3): flat at 4 ways; the residual 7->1 increase is
        // one-way associativity pressure (stream pollution of a 1-way
        // partition), well below the Group 2 benchmarks'.
        assert!(inc("gobmk", 4) < 0.05, "gobmk 7->4: {}", inc("gobmk", 4));
        assert!(inc("gobmk", 1) < 0.25, "gobmk 7->1: {}", inc("gobmk", 1));
        assert!(inc("gobmk", 1) < inc("hmmer", 1), "group ordering at 1 way");
    }
}
