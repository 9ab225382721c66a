//! # fubar-bench
//!
//! Shared plumbing for the figure-regeneration binaries (one per figure
//! of the paper's §3). The binaries print self-describing CSV/markdown
//! to stdout so the series can be diffed against the paper's plots; CI
//! runs them and compares their `#` summary lines — pure functions of
//! the seed — to `ci/figures.expected`, the whole stdout of the
//! slow ones (fig. 7, the ablations, the capacity sweep) to
//! `ci/figures_slow.expected`, and that of the tables (the baseline
//! comparison, the queueing claim, the diagnosis) to
//! `ci/tables.expected`.
#![forbid(unsafe_code)]

use fubar_core::experiments::CaseReport;
use fubar_core::RunTrace;

/// Prints a run trace as CSV with a `# fig` header comment.
pub fn print_trace(figure: &str, trace: &RunTrace) {
    println!("# {figure}");
    print!("{}", trace.to_csv());
}

/// Prints the reference lines (shortest path, upper bound) that the
/// paper draws as horizontal guides.
pub fn print_references(report: &CaseReport) {
    println!(
        "# reference shortest_path_utility {:.6}",
        report.shortest_path_utility
    );
    println!(
        "# reference upper_bound_utility {:.6}",
        report.upper_bound.mean
    );
    if let Some(l) = report.shortest_path_large_utility {
        println!("# reference shortest_path_large_utility {l:.6}");
    }
    if let Some(l) = report.upper_bound.large_mean {
        println!("# reference upper_bound_large_utility {l:.6}");
    }
}

/// Prints a one-line machine-readable summary of a finished case.
pub fn print_summary(figure: &str, report: &CaseReport) {
    let last = report
        .fubar
        .trace
        .last()
        .expect("a finished run has a trace");
    println!(
        "# summary fig={figure} final_utility={:.6} sp_utility={:.6} upper_bound={:.6} \
         commits={} congested_links={} termination={:?}",
        last.network_utility,
        report.shortest_path_utility,
        report.upper_bound.mean,
        report.fubar.commits,
        last.congested_links,
        report.fubar.termination,
    );
}
