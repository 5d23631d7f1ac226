//! evbench — the benchmark every EventDB performance claim is measured
//! with. See README.md in this directory.
//!
//! ```text
//! evbench [--workload <name>]... [--seed <n>] [--seconds <s>] [--trace 0|1]
//!         [--quick] [--repeat <n>] [--out <path>]
//! evbench compare <a.json> <b.json>
//! ```
//!
//! Each run prints one JSON line on stdout (`correct`, `attempted`,
//! `failed`, `metrics`) and a table on stderr.

mod awake;
mod client;
mod compare;
mod cq;
mod durable;
mod embedded;
mod gen;
mod json;
mod load;
mod probe;
mod rules;
mod run;
mod spec;
mod stats;
mod trace;
mod wire;

use std::fmt::Write as _;
use std::process::ExitCode;

use json::quote;
use run::{Params, Report};
use spec::{Metric, END_TO_END, PER_LAYER, WORKLOADS};

struct Args {
    workloads: Vec<&'static spec::Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    repeat: u64,
    out: Option<String>,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: evbench [--workload <{}>]... [--seed <n>] [--seconds <s>] [--trace 0|1 | --traced]\n\
         \x20              [--quick] [--repeat <n>] [--out <path>]\n\
         \x20      evbench compare <a.json> <b.json>",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: spec::DEFAULT_SECONDS,
        traced: false,
        quick: false,
        repeat: 1,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workloads
                    .push(spec::workload(name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=60.0).contains(&args.seconds) {
                    return Err("--seconds must be within 1..=60".into());
                }
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--traced" => args.traced = true,
            "--quick" => args.quick = true,
            "--repeat" => {
                args.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--out" => args.out = Some(value("a path")?.clone()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.quick {
        // Smoke only: 2 s measured phases.
        args.seconds = 4.0;
    }
    if args.workloads.is_empty() {
        // Those `BENCHMARK.json` lists; a by-hand workload runs when named.
        args.workloads = WORKLOADS.iter().filter(|w| !w.by_hand).collect();
    }
    Ok(args)
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

fn run_workload(name: &str, params: &Params) -> Report {
    match name {
        "wire_passthrough" => wire::run(params),
        "rules_embedded" => rules::run(params),
        "cq_embedded" => cq::run(params),
        "durable_pipeline" => durable::run(params),
        other => unreachable!("'{other}' passed spec::workload"),
    }
}

/// The metrics a run prints: end-to-end when untraced, per-layer when
/// traced. A layer the workload bypasses reports 0.
fn emitted(traced: bool) -> &'static [Metric] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

fn metrics_json(report: &Report, list: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in list.iter().enumerate() {
        let value = report.values.get(m.name).copied().unwrap_or(0.0);
        let _ = write!(
            out,
            "{}{}: {{\"value\": {value}, \"unit\": {}}}",
            if i == 0 { "" } else { ", " },
            quote(m.name),
            quote(m.unit)
        );
    }
    out.push('}');
    out
}

fn result_json(report: &Report, list: &[Metric]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        metrics_json(report, list)
    )
}

fn print_table(workload: &str, params: &Params, report: &Report, list: &[Metric]) {
    eprintln!(
        "\n== {workload}  seed {}  seconds {}  traced {}  cores {}",
        params.seed,
        params.seconds,
        params.traced,
        cores()
    );
    eprintln!(
        "{:<34} {:>16} {:<6} {:<7} {:>8}",
        "metric", "value", "unit", "better", "samples"
    );
    for m in list {
        let value = report.values.get(m.name).copied().unwrap_or(0.0);
        let samples = report
            .samples
            .get(m.name)
            .map_or(String::new(), |n| n.to_string());
        eprintln!(
            "{:<34} {:>16.4} {:<6} {:<7} {:>8}",
            m.name,
            value,
            m.unit,
            m.better.as_str(),
            samples
        );
    }
    let share = report.failed as f64 / report.attempted.max(1) as f64;
    eprintln!(
        "correct {}  attempted {}  failed {}  failed_share {share:.6}",
        report.correct, report.attempted, report.failed
    );
    for note in &report.notes {
        eprintln!("  {note}");
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match compare::main(&argv[1..]) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("evbench compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("evbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };

    let list = emitted(args.traced);
    let mut records = Vec::new();
    let mut all_correct = true;
    for repeat in 0..args.repeat {
        for w in &args.workloads {
            let params = Params {
                seed: args.seed.wrapping_add(repeat),
                seconds: args.seconds,
                traced: args.traced,
            };
            if !records.is_empty() {
                // A second run in one process must not inherit the first's peak.
                load::reset_peak_rss();
            }
            let mut report = run_workload(w.name, &params);
            let (failed, attempted) = (report.failed, report.attempted.max(1));
            report.set("ops.failed_share", failed as f64 / attempted as f64);
            report.check(failed == 0, || {
                format!("{failed} of {attempted} operations failed")
            });
            all_correct &= report.correct;
            print_table(w.name, &params, &report, list);
            if args.traced {
                let path = "evbench-trace.json";
                match std::fs::File::create(path)
                    .and_then(|f| report.trace.write_json(std::io::BufWriter::new(f), w.name))
                {
                    Ok(()) => eprintln!("  {} spans written to {path}", report.trace.spans.len()),
                    Err(e) => eprintln!("  could not write {path}: {e}"),
                }
            }
            let line = result_json(&report, list);
            println!("{line}");
            records.push(format!(
                "{{\"workload\": {}, \"repeat\": {repeat}, \"seed\": {}, \"result\": {line}}}",
                quote(w.name),
                params.seed
            ));
        }
    }
    if args.repeat > 1 {
        compare::print_spreads(&records, list, args.repeat);
    }
    if let Some(path) = &args.out {
        let doc = format!(
            "{{\"quick\": {}, \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"cores\": {}, \"runs\": [\n{}\n], \"claim\": null}}\n",
            args.quick,
            args.seed,
            args.seconds,
            args.traced,
            cores(),
            records.join(",\n")
        );
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("evbench: could not write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if !all_correct {
        eprintln!("evbench: at least one run failed its correctness checks (see \"correct\")");
    }
    // A printed result carries its own verdict; the exit code only says
    // whether the benchmark itself ran.
    ExitCode::SUCCESS
}
