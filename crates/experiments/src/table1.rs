//! **Table 1** — characteristics of the three representative benchmarks at
//! their requested 7-way allocation: L2 miss rate and L2 misses per
//! instruction.

use crate::output::{banner, pct, Table};
use crate::params::ExperimentParams;
use cmpqos_engine::Engine;

/// Paper reference values: (benchmark, L2 miss rate, misses/instruction).
pub const PAPER_TABLE1: [(&str, f64, f64); 3] = [
    ("bzip2", 0.20, 0.0055),
    ("hmmer", 0.17, 0.001),
    ("gobmk", 0.24, 0.004),
];

/// One measured row.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark name.
    pub bench: String,
    /// Measured L2 miss rate at 7 ways.
    pub miss_rate: f64,
    /// Measured L2 misses per instruction at 7 ways.
    pub mpi: f64,
    /// Measured IPC at 7 ways.
    pub ipc: f64,
}

/// Measures the three Table 1 benchmarks (one engine cell per benchmark).
#[must_use]
pub fn run(params: &ExperimentParams) -> Vec<Table1Row> {
    let benches: Vec<&str> = PAPER_TABLE1.iter().map(|(bench, _, _)| *bench).collect();
    Engine::new(params.jobs).run(benches, |_, bench| {
        let s = params.solo(bench, 7);
        Table1Row {
            bench: bench.to_string(),
            miss_rate: s.perf.l2_miss_ratio(),
            mpi: s.perf.mpi(),
            ipc: s.ipc(),
        }
    })
}

/// Prints measured-versus-paper rows.
pub fn print(rows: &[Table1Row], params: &ExperimentParams) {
    banner("Table 1: benchmark characteristics at 7 ways", params);
    let mut t = Table::new(&[
        "benchmark",
        "L2 miss rate",
        "paper",
        "misses/instr",
        "paper",
        "IPC",
    ]);
    for (row, (_, p_rate, p_mpi)) in rows.iter().zip(PAPER_TABLE1.iter()) {
        t.row_owned(vec![
            row.bench.clone(),
            pct(row.miss_rate),
            pct(*p_rate),
            format!("{:.4}", row.mpi),
            format!("{p_mpi:.4}"),
            format!("{:.3}", row.ipc),
        ]);
    }
    println!("{}", t.render());
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpqos_types::Instructions;

    #[test]
    fn measured_rows_track_paper_ordering() {
        let mut p = ExperimentParams::quick();
        p.work = Instructions::new(400_000);
        let rows = run(&p);
        assert_eq!(rows.len(), 3);
        let by_name = |n: &str| rows.iter().find(|r| r.bench == n).unwrap();
        // MPI ordering: bzip2 > gobmk > hmmer (paper: 0.0055 > 0.004 > 0.001).
        assert!(by_name("bzip2").mpi > by_name("gobmk").mpi);
        assert!(by_name("gobmk").mpi > by_name("hmmer").mpi);
        // Miss rates land in the paper's broad band (10%-45%).
        for r in &rows {
            assert!(
                r.miss_rate > 0.05 && r.miss_rate < 0.50,
                "{}: {:.3}",
                r.bench,
                r.miss_rate
            );
        }
    }
}
