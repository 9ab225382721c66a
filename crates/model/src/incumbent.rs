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
/// keeps its buffers warm from probe to probe and the optimizer from
/// commit to commit; past warm-up a replace allocates nothing
/// instance-sized.
#[derive(Debug, Default)]
pub struct PatchScratch {
    model: Workspace,
    report: ReportScratch,
    splice: Splice,
    /// The aggregates the replace in progress names.
    named: Vec<u32>,
}

impl PatchScratch {
    /// What the last [`Incumbent::replace`] re-filled: the indices, in
    /// the patched table, of the bundles it re-filled — every
    /// replacement bundle included. Every other bundle kept its rate,
    /// status and freeze record.
    pub fn refilled_bundles(&self) -> &[u32] {
        self.model.affected()
    }

    /// The links the last [`Incumbent::replace`] re-derived: every link
    /// a re-filled bundle crosses, and every link a removed or
    /// replacement bundle crosses (the list may repeat a link). Every
    /// other link kept its demand, load, saturation and crossers, up to
    /// the renumbering a resized segment shifts them by.
    pub fn refilled_links(&self) -> impl Iterator<Item = u32> + '_ {
        self.model.filled_links()
    }
}

/// A bundle table — every aggregate's bundles concatenated in id order,
/// with `spans[a]` aggregate `a`'s `(start, len)` range — its traced
/// flow-model evaluation, and its utility report. Cloneable, so a
/// caller can keep an epoch's record (the report's fold tree is shared
/// until first write).
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
    pub fn replace(
        &mut self,
        model: &FlowModel<'_>,
        tm: &TrafficMatrix,
        changes: impl IntoIterator<Item = (AggregateId, Vec<BundleSpec>)>,
        touched_links: &[LinkId],
        scratch: &mut PatchScratch,
    ) {
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

        model.apply_delta(
            &mut self.eval,
            &mut self.bundles,
            &mut scratch.splice,
            touched_links,
            &mut scratch.model,
        );
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

    /// Compiles the bottleneck component around `link` for candidate
    /// scoring: [`FlowModel::score_delta`] against [`Incumbent::eval`]
    /// then fills every candidate that changes nothing saturated
    /// outside that component by patching it — same results, bit for
    /// bit, for less work per candidate. Worth it before scoring many
    /// moves off one congested link; free when `link` is not congested
    /// or already covered. The next [`Incumbent::replace`] forgets what
    /// was compiled.
    pub fn prepare_component(&mut self, model: &FlowModel<'_>, link: LinkId) {
        model.prepare_component(&mut self.eval, &self.bundles, link);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DeltaScore;
    use crate::splice::BundleDelta;
    use fubar_graph::LinkSet;
    use fubar_topology::{generators, Bandwidth};
    use fubar_traffic::{workload, WorkloadConfig};

    /// A component compiled for an incumbent must not outlive it: after
    /// a `replace`, candidates score exactly as against a fresh
    /// measurement of the same table, and through no compiled
    /// component.
    #[test]
    fn replace_leaves_no_compiled_component_behind() {
        let topo = generators::he_core(Bandwidth::from_mbps(75.0));
        let tm = workload::generate(&topo, &WorkloadConfig::default(), 1);
        let path = |a: &fubar_traffic::Aggregate, avoid: &LinkSet| {
            topo.graph().shortest_path(a.ingress, a.egress, avoid)
        };
        let bundles: Vec<BundleSpec> = tm
            .iter()
            .map(|a| BundleSpec::new(a, &path(a, &LinkSet::new()).unwrap(), a.flow_count))
            .collect();
        let spans = (0..bundles.len() as u32).map(|i| (i, 1)).collect();
        let model = FlowModel::with_defaults(&topo);
        let mut incumbent = Incumbent::measure(&model, &tm, bundles, spans);
        let link = incumbent.outcome().congested[0];
        incumbent.prepare_component(&model, link);

        // Two aggregates crossing `link`, each moved whole onto a detour.
        let mut avoid = LinkSet::new();
        avoid.insert(link);
        let mut moves = incumbent
            .bundles()
            .iter()
            .filter(|b| b.links.contains(&link))
            .filter_map(|b| {
                let a = tm.aggregate(b.aggregate);
                Some((
                    a.id,
                    vec![BundleSpec::new(a, &path(a, &avoid)?, a.flow_count)],
                ))
            });
        let (first, second) = (moves.next().unwrap(), moves.next().unwrap());
        let score = |incumbent: &Incumbent, (id, segment): &(AggregateId, Vec<BundleSpec>)| {
            let (start, len) = incumbent.spans()[id.index()];
            let delta =
                BundleDelta::new(incumbent.bundles(), start as usize, len as usize, segment);
            let mut ws = Workspace::new();
            let DeltaScore { affected, rates } =
                model.score_delta(incumbent.eval(), &delta, &mut ws);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let (affected, rates) = (affected.to_vec(), bits(rates));
            let changed = model.changed_link_demand(incumbent.eval(), &delta, &mut ws);
            let scored = (affected, rates, changed.to_vec());
            (scored, ws.stats().compiled_fills)
        };
        assert_eq!(score(&incumbent, &second).1, 1, "prepared: patched fill");

        incumbent.replace(&model, &tm, [first], &[], &mut PatchScratch::default());
        let fresh = Incumbent::measure(
            &model,
            &tm,
            incumbent.bundles().to_vec(),
            incumbent.spans().to_vec(),
        );
        assert_eq!(score(&incumbent, &second), score(&fresh, &second));
        assert_eq!(
            score(&incumbent, &second).1,
            0,
            "replaced: nothing compiled"
        );
    }
}
