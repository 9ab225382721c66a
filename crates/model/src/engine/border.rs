//! ### Bounded border verification
//!
//! Border verification walks a link only if it is binding, and then
//! needs its post-fill load — the fold, in spliced row order, of every
//! crosser's rate: the fill's rate for a member of the fill, the
//! previous rate for anyone else — for one decision only: whether it
//! reaches `bar = capacity · (1 − BINDING_SLACK)`. The walk is as long
//! as the link's crossing row, thousands of entries on a trunk, so the
//! core first bounds the load from three numbers it already holds:
//!
//! ```text
//! L ≤ B = F + P − C + (F + P + C) · 2nε,   n = 2c + 2
//! ```
//!
//! `F` is the fill's `frozen_load` on the link — the fold of its
//! crossing members' new rates. `P` is the link's previous load — the
//! fold of every previous crosser's rate. `C` is the fold of the fill's
//! crossing members' previous rates; compiling a component sums it per
//! slot from the evaluation the list came from (a replacement bundle
//! carried nothing), and a patch re-sums it only for the slots it
//! touches. Crossers outside the fill carried their previous rates
//! through it, and removed crossers only lower the true sum, so `F + P −
//! C` is an upper bound in exact arithmetic. `c` — the previous row's
//! length plus the replacement crossings — bounds every count involved:
//! the walked row, the fill's crossers, the previous crossers. With `u
//! = ε/2` and `γ_k = ku / (1 − ku)`, each fold of `k` non-negative terms
//! lies within `1 ± γ_{k−1}` of its true sum (Higham, *Accuracy and
//! Stability of Numerical Algorithms*, §4.2), so the walk exceeds `F + P − C`
//! by at most about `u · (k(F + P) + 2kF + 2pP + qC)` ≤ `3cu · (F + P +
//! C)` to first order, and forming `B` adds about `3u · (F + P + C)`.
//! The widening is `(8c + 8)u · (F + P + C)`, which covers both with
//! `(5c + 5)u` to spare for second-order terms and its own rounding.
//! So a bound below `bar` proves the walk would find a load below it,
//! and the link is passed exactly where the walk would pass it; only a
//! bound at the bar, or a link the fill saturated, pays for the walk.
//! `P` is read from the evaluation's carried load, which is the fold
//! capped at capacity: a load below its capacity is the fold itself,
//! but one at it may be the cap, and a change that moves a capacity
//! leaves loads capped at the old one, so the bound is not used in
//! either case. An untouched link keeps its previous offered demand,
//! which decides whether it is binding for free; a touched link's new
//! demand is a fold over its whole spliced crossing row, so it is tested
//! after the load bound, and a touched link is summed only where the
//! load bound leaves the test open, or where its value is consumed —
//! the in-place patch's link demands, the congested order, the min-max
//! objective's overlay ([`FlowModel::changed_link_demand`]), which
//! settle every touched link exactly first. Both tests only skip a
//! link, so their order changes nothing, and the walks, expansions and
//! bits are those of the walk-every-link rule.
//!
//! [`FlowModel::changed_link_demand`]: super::FlowModel::changed_link_demand

use super::evaluation::Evaluation;
use super::workspace::Workspace;
use super::{is_binding, BINDING_SLACK};
use crate::component::NONE;
use crate::splice::{merge_row, BundleDelta, Seg, POOL};

/// An upper bound on a border link's load after a fill, from what the
/// fill knows without walking the link's crossing row: `filled`, the
/// load the fill's crossers of the link ended with (their fold);
/// `prev_load`, the link's uncapped previous load (the fold of every
/// previous crosser's rate); and `carried`, the fold of the fill's
/// crossers' previous rates. Crossers outside the fill carried their
/// previous rates through it, and removed ones are left in. `crossers`
/// is the previous row's length plus the replacement crossings, at
/// least the length of the row a walk folds; the result is widened by
/// `2nε` of the three magnitudes, `n = 2 · crossers + 2`, to cover every
/// rounding of the four folds and of the bound itself (see *Bounded
/// border verification* in the module docs). Hidden: the scoring
/// core's, exposed for its property test.
#[doc(hidden)]
pub fn border_load_bound(filled: f64, prev_load: f64, carried: f64, crossers: usize) -> f64 {
    let n = 2 * crossers + 2;
    let widen = 2.0 * n as f64 * f64::EPSILON;
    filled + prev_load - carried + (filled + prev_load + carried) * widen
}

/// One border-verification probe of link `li`, at `slot` of the fill
/// if a member crosses it (see [`FlowModel::delta_fill_core`]): checks
/// a never-saturated binding link's true post-fill load and expands the
/// component when the optimistic assumption fails. The crossing row is
/// walked only when neither the binding tests nor the load bound settle
/// the link (see *Bounded border verification* in the module docs).
///
/// [`FlowModel::delta_fill_core`]: super::FlowModel::delta_fill_core
pub(super) fn verify_border(
    li: usize,
    slot: Option<usize>,
    prev: &Evaluation,
    crossings: &Crossings<'_>,
    ws: &mut Workspace,
    expanded: &mut bool,
) {
    // Stamped with the *fill* stamp so every re-fill re-verifies.
    if ws.border_seen[li] == ws.fill_stamp || prev.saturated[li] {
        return;
    }
    ws.border_seen[li] = ws.fill_stamp;
    // An untouched link keeps its previous offered demand; a touched
    // link's is summed only if the load bound leaves the link open.
    let cap = prev.caps[li];
    let touched = ws.touched_stamp[li] == ws.stamp;
    if !touched && !is_binding(prev.outcome.link_demand[li].bps(), cap) {
        return;
    }
    let fill = &ws.fill.state;
    let (filled, carried, saturated) = match slot {
        Some(k) => (
            fill.links[k].frozen_load,
            fill.prior[k],
            fill.links[k].saturated,
        ),
        None => (0.0, 0.0, false),
    };
    let bar = cap * (1.0 - BINDING_SLACK);
    if !saturated && ws.load_below(li, prev, crossings, (filled, carried), bar) {
        return;
    }
    if touched && !is_binding(ws.exact_demand(li, crossings), cap) {
        return;
    }
    #[cfg(test)]
    {
        ws.probe.walks += 1;
    }
    // One walk of the link's crossers: whether any lies outside the
    // affected set, and the load they end with. Bundles absorbed
    // earlier in this same scan are in the set but not in this fill;
    // they carried their previous rate through it (replacement bundles
    // are in every fill, so a bundle outside this one has a previous
    // index for source).
    let (mut load, mut partial) = (0.0, false);
    let rates = &ws.fill.state.rates;
    crossings.walk(li, |i, src| {
        let at = if ws.in_set[i as usize] == ws.stamp {
            ws.filled_at[i as usize]
        } else {
            partial = true;
            NONE
        };
        load += match rates.get(at as usize) {
            Some(&rate) => rate,
            None => prev.outcome.bundle_rates[src as usize].bps(),
        };
    });
    if !partial {
        return;
    }
    if saturated || load >= bar {
        *expanded = true;
        crossings.absorb_crossers(li, ws);
    }
}

/// Closes the affected set over previously-saturating links: any bundle
/// in the set pulls in every crosser of every previously-saturating
/// link it rides (influence propagates only through links that actually
/// froze somebody — see the module docs).
pub(super) fn close_component(
    delta: &BundleDelta<'_>,
    prev: &Evaluation,
    crossings: &Crossings<'_>,
    ws: &mut Workspace,
) {
    while let Some(bi) = ws.queue.pop() {
        for l in &delta.at(ws.src[bi as usize]).links {
            let li = l.index();
            if prev.saturated[li] && ws.link_seen[li] != ws.stamp {
                ws.link_seen[li] = ws.stamp;
                crossings.absorb_crossers(li, ws);
            }
        }
    }
}

/// Per-link crosser lists of a *spliced* bundle list, merged lazily
/// from the previous evaluation's rows and the replacement bundles, and
/// the demands of the bundles in them.
pub(super) struct Crossings<'a> {
    rows: &'a [Vec<u32>],
    segs: &'a [Seg],
    /// `(link, spliced index, source tag)` per link crossing of a
    /// replacement bundle, sorted.
    pub(super) repl: &'a [(u32, u32, u32)],
    /// Per-bundle demands of the previous list and of the replacement
    /// bundles.
    demands: &'a [f64],
    seg_demand: &'a [f64],
}

impl<'a> Crossings<'a> {
    pub(super) fn new(
        prev: &'a Evaluation,
        segs: &'a [Seg],
        repl: &'a [(u32, u32, u32)],
        seg_demand: &'a [f64],
    ) -> Self {
        Crossings {
            rows: &prev.crossers,
            segs,
            repl,
            demands: &prev.demands,
            seg_demand,
        }
    }

    /// The demand of the bundle a source tag names.
    pub(super) fn demand(&self, src: u32) -> f64 {
        if src & POOL != 0 {
            self.seg_demand[(src ^ POOL) as usize]
        } else {
            self.demands[src as usize]
        }
    }
    /// Visits the crossers of link `li` as `(spliced index, source
    /// tag)`, ascending, with exactly the multiplicity and order a
    /// direct build over the spliced list would produce.
    pub(super) fn walk(&self, li: usize, visit: impl FnMut(u32, u32)) {
        merge_row(&self.rows[li], self.segs, self.repl, li as u32, visit);
    }

    /// Adds every crosser of link `li` to the affected set.
    pub(super) fn absorb_crossers(&self, li: usize, ws: &mut Workspace) {
        self.walk(li, |i, src| ws.absorb(i, src));
    }
}
