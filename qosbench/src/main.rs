//! The benchmark command. See `README.md` for what each workload and
//! metric means.

use qosbench::{cells_for, check_holdout, measure, report, Sizes, Workload};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: report::CountingAlloc = report::CountingAlloc;

const USAGE: &str = "usage: qosbench --workload <sim_mix|sim_stream|admit_cluster|admit_flood> \
--seed <n> --seconds <n> --trace <0|1> [--holdout-seed <n>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    holdout: Option<u64>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut holdout = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = Some(number(value()?)?),
            "--seconds" => seconds = Some(number(value()?)?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: `{v}` is not 0 or 1")),
                });
            }
            "--holdout-seed" => holdout = Some(number(value()?)?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        holdout,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qosbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let sizes = Sizes::STANDARD;
    let cells = cells_for(args.workload, args.seconds);
    println!(
        "config {{\"workload\": {}, \"seed\": {}, \"holdout_seed\": {}, \"seconds\": {}, \"cells\": {}, \"trace\": {}, \"sizes\": {}, \"git_sha\": {}, \"nproc\": {}, \"cpu_model\": {}}}",
        report::json_str(args.workload.name()),
        args.seed,
        args.holdout.map_or("null".to_string(), |s| s.to_string()),
        args.seconds,
        cells,
        u8::from(args.trace),
        sizes,
        report::json_str(&report::git_sha()),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        report::json_str(&report::cpu_model()),
    );

    let mut run = measure(args.workload, args.seed, cells, sizes, args.trace);
    if let Some(holdout) = args.holdout {
        check_holdout(&mut run, args.workload, holdout, cells, sizes);
    }
    let metrics = match &run.probe {
        Some(probe) => report::per_layer(args.workload, &run.traced, &run.cells, probe),
        None => report::end_to_end(&run.cells),
    };
    let per_cell: Vec<String> = run
        .cells
        .iter()
        .map(|c| {
            format!(
                "{}/{}/{}/{:.2}",
                c.setup_s, c.timed_s, c.stats.ops, c.peak_heap_mib
            )
        })
        .collect();
    println!("cells setup_s/timed_s/ops/heap_mib {}", per_cell.join(" "));
    for m in &metrics {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", m.note)
        };
        println!(
            "{:<32} {:>20} {}{note}",
            m.name,
            report::json_num(m.value),
            m.unit
        );
    }
    println!(
        "{:<32} {:>20} %  ({} of {} ops)",
        "failed_pct",
        report::json_num(run.failed_pct()),
        run.failed,
        run.attempted
    );
    for e in &run.errors {
        eprintln!("qosbench: check failed: {e}");
    }
    let correct = run.errors.is_empty() && run.failed == 0;
    println!(
        "{}",
        report::result_json(correct, run.attempted, run.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
