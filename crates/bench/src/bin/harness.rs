//! The experiment harness: regenerates every table in EXPERIMENTS.md.
//!
//! ```text
//! cargo run -p evdb-bench --bin harness --release            # full scale
//! cargo run -p evdb-bench --bin harness --release -- quick   # CI scale
//! cargo run -p evdb-bench --bin harness --release -- e3 e6   # subset
//! ```

use evdb_bench::experiments::{self, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "quick") {
        Scale::Quick
    } else {
        Scale::Full
    };
    let wanted: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| a.starts_with('e'))
        .collect();

    type Runner = fn(Scale) -> experiments::Table;
    let all: Vec<(&str, Runner)> = vec![
        ("e1", experiments::e01_capture::run as Runner),
        ("e2", experiments::e02_queue::run),
        ("e3", experiments::e03_rules::run),
        ("e4", experiments::e04_churn::run),
        ("e5", experiments::e05_cq::run),
        ("e5", experiments::e05_cq::run_sharing),
        ("e6", experiments::e06_pattern::run),
        ("e7", experiments::e07_internal::run),
        ("e8", experiments::e08_analytics::run),
        ("e9", experiments::e09_usecases::run),
        ("e10", experiments::e10_recovery::run),
        ("e11", experiments::e11_parallel::run),
        ("e12", experiments::e12_torture::run),
        ("e13", experiments::e13_observability::run),
        ("e14", experiments::e14_overload::run),
        ("e15", experiments::e15_compiled::run),
        ("e16", experiments::e16_retraction::run),
        ("e17", experiments::e17_server::run),
        ("e18", experiments::e18_history::run),
        ("e19", experiments::e19_batch::run),
    ];

    println!(
        "EventDB experiment harness — scale: {:?}\n(paper claim mapping in DESIGN.md §5; recorded results in EXPERIMENTS.md)\n",
        scale
    );
    for (id, f) in all {
        if !wanted.is_empty() && !wanted.contains(&id) {
            continue;
        }
        let t0 = std::time::Instant::now();
        let table = f(scale);
        println!("{}", table.render());
        println!("  [{id} completed in {:.1}s]\n", t0.elapsed().as_secs_f64());
    }
}
