//! Run the bundled `flash_crowd` scenario end to end and narrate it:
//! steady churn on Abilene, an 8x demand surge on NewYork->LosAngeles at
//! t=100s, operator-forced re-optimization, relaxation at t=200s.
//!
//! ```text
//! cargo run --release --example scenario_flash_crowd [seed]
//! ```
//!
//! The same seed always produces a byte-identical event log — pipe it to
//! a file and diff across runs or machines.

use fubar::scenario::{catalog, run, RunOptions};

fn main() {
    let spec = catalog::load("flash_crowd").expect("bundled scenario");
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(spec.seed);

    println!("# spec\n{spec}");
    let (log, _stats) =
        run(&spec, seed, &RunOptions::default()).expect("flash_crowd builds on its own topology");

    // The headline trajectory: utility at every measurement epoch, with
    // markers where the interesting events landed.
    println!("# epoch utility trajectory");
    for r in &log.records {
        let interesting = r.what.starts_with("epoch")
            || r.what.starts_with("surge")
            || r.what.starts_with("relax")
            || r.commits.is_some();
        if interesting {
            println!("{}", r.to_line());
        }
    }

    println!("# summary");
    println!("{}", log.summary());
    let reopts: Vec<_> = log.records.iter().filter(|r| r.commits.is_some()).collect();
    for r in &reopts {
        println!(
            "reoptimize at t={:.0}s: {} commits ({}), utility {:.4}",
            r.time_s,
            r.commits.unwrap(),
            if r.warm { "warm" } else { "cold" },
            r.utility
        );
    }
    let warm_commits: usize = reopts
        .iter()
        .filter(|r| r.warm)
        .filter_map(|r| r.commits)
        .sum();
    let warm_count = reopts.iter().filter(|r| r.warm).count();
    if warm_count > 0 {
        println!(
            "warm runs averaged {:.1} commits",
            warm_commits as f64 / warm_count as f64
        );
    }
}
