//! The measured incumbent: a bundle table together with the traced
//! evaluation and the utility report that describe it.
//!
//! Both long-lived callers of the flow model keep exactly this — the
//! fabric as its measurement cache, the optimizer as the allocation its
//! candidates are scored against — and both change it the same way: a
//! few aggregates get new bundle segments. [`Incumbent`] owns the four
//! objects and the one sequence that keeps them consistent, so nothing
//! outside this crate splices a table, renumbers spans or patches a
//! report by hand.

use crate::engine::{Evaluation, FlowModel, Workspace};
use crate::outcome::ModelOutcome;
use crate::report::{utility_report, ReportScratch, UtilityReport};
use crate::spec::BundleSpec;
use crate::splice::Splice;
use fubar_graph::LinkId;
use fubar_traffic::{AggregateId, TrafficMatrix};

/// Reusable scratch for [`Incumbent::replace`]; starts empty
/// (`default()`) and grows on first use. Caller-owned, so the fabric
/// keeps its buffers warm from probe to probe and concurrent optimizer
/// passes share one behind a lock; past warm-up a replace allocates
/// nothing instance-sized.
#[derive(Debug, Default)]
pub struct PatchScratch {
    model: Workspace,
    report: ReportScratch,
    splice: Splice,
    /// The aggregates the replace in progress names.
    named: Vec<u32>,
}

/// A bundle table — every aggregate's bundles concatenated in id order,
/// with `spans[a]` aggregate `a`'s `(start, len)` range — its traced
/// flow-model evaluation, and its utility report. Cloneable, so an
/// optimizer pass can branch it (the report's fold tree is shared until
/// first write).
#[derive(Clone, Debug)]
pub struct Incumbent {
    bundles: Vec<BundleSpec>,
    spans: Vec<(u32, u32)>,
    eval: Evaluation,
    report: UtilityReport,
}

impl Incumbent {
    /// Measures `bundles` from scratch: one full evaluation, one full
    /// report.
    ///
    /// # Panics
    ///
    /// Panics when `spans` does not cover `tm`'s aggregates.
    pub fn measure(
        model: &FlowModel<'_>,
        tm: &TrafficMatrix,
        bundles: Vec<BundleSpec>,
        spans: Vec<(u32, u32)>,
    ) -> Self {
        assert_eq!(spans.len(), tm.len(), "spans must cover every aggregate");
        let eval = model.evaluate_traced(&bundles);
        let report = utility_report(tm, &bundles, &eval.outcome);
        Incumbent {
            bundles,
            spans,
            eval,
            report,
        }
    }

    /// Replaces the named aggregates' bundle segments **in place** and
    /// brings evaluation and report up to date, bitwise identical to
    /// [`Incumbent::measure`] of the resulting table. `changes` names
    /// each changed aggregate once, ascending, with its new segment;
    /// `touched_links` lists every link whose capacity changed since the
    /// last measurement. Water-filling re-runs on the affected
    /// bottleneck component only and utilities refresh for the affected
    /// aggregates only; a segment that changes length additionally
    /// renumbers the spans (and the evaluation's traces) behind it.
    ///
    /// An aggregate may be named with the very segment it has: its
    /// utility is re-evaluated all the same, because what changed may be
    /// its flow count in `tm` (a black-holed aggregate owns no bundles
    /// but still weighs on the averages).
    ///
    /// Returns `true` when the affected component covered most of the
    /// table and everything was re-evaluated from scratch instead.
    pub fn replace(
        &mut self,
        model: &FlowModel<'_>,
        tm: &TrafficMatrix,
        changes: impl IntoIterator<Item = (AggregateId, Vec<BundleSpec>)>,
        touched_links: &[LinkId],
        scratch: &mut PatchScratch,
    ) -> bool {
        scratch.named.clear();
        let mut first_resized = None;
        for (id, segment) in changes {
            let i = id.index();
            scratch.named.push(i as u32);
            let (start, len) = self.spans[i];
            let cached = start as usize..(start + len) as usize;
            if segment == self.bundles[cached.clone()] {
                continue;
            }
            if segment.len() != cached.len() && first_resized.is_none() {
                first_resized = Some(i);
            }
            self.spans[i].1 = segment.len() as u32;
            scratch.splice.push(cached.start, cached.len(), segment);
        }
        // The spans' half of the tail renumber; `apply_delta` pays the
        // table's and the evaluation's.
        if let Some(i) = first_resized {
            let mut at = self.spans[i].0;
            for span in &mut self.spans[i..] {
                span.0 = at;
                at += span.1;
            }
        }

        let full_recompute = model.apply_delta(
            &mut self.eval,
            &mut self.bundles,
            &mut scratch.splice,
            touched_links,
            &mut scratch.model,
        );
        if full_recompute {
            self.report = utility_report(tm, &self.bundles, &self.eval.outcome);
        } else {
            self.report.patch(
                tm,
                &self.bundles,
                &self.eval.outcome,
                &self.spans,
                scratch.model.affected(),
                &scratch.named,
                &mut scratch.report,
            );
        }
        full_recompute
    }

    /// The bundle table.
    pub fn bundles(&self) -> &[BundleSpec] {
        &self.bundles
    }

    /// Per aggregate, the `(start, len)` range of its bundles in the
    /// table.
    pub fn spans(&self) -> &[(u32, u32)] {
        &self.spans
    }

    /// The traced evaluation of the table — what
    /// [`FlowModel::score_delta`] scores candidate changes against.
    pub fn eval(&self) -> &Evaluation {
        &self.eval
    }

    /// The table's equilibrium.
    pub fn outcome(&self) -> &ModelOutcome {
        &self.eval.outcome
    }

    /// The table's utilities.
    pub fn report(&self) -> &UtilityReport {
        &self.report
    }

    /// Gives up the cache for its equilibrium and utilities.
    pub fn into_measurement(self) -> (ModelOutcome, UtilityReport) {
        (self.eval.outcome, self.report)
    }
}
