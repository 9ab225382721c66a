//! ### Kept loads
//!
//! A dirty link's load is the fold of its crossers' rates in freeze
//! order. The in-place patch keeps the previous load, unsorted and
//! unsummed, when the re-filled component crosses the link, no removed
//! or replacement bundle (and no capacity change) touches it, and every
//! re-filled crosser came out with the same rate bits and the same
//! [`FreezeKey`] rank as before. The link's crossers are then the same
//! bundles; the tail renumber shifts indices monotonically, so it keeps
//! their rank order; hence the `(rank, rate)` sequence the fold walks is
//! the previous one, entry for entry, and so is its sum. Every other
//! dirty link re-sorts and re-sums; saturation and the congested list
//! are re-derived for all of them alike.

use super::congestion_order;
use super::evaluation::{Evaluation, FreezeKey};
use super::workspace::Workspace;
use crate::component::NONE;
use crate::spec::BundleStatus;
use crate::splice::{merge_row, splice_copy, Seg, POOL};
use fubar_graph::LinkId;
use fubar_topology::Bandwidth;
use std::cmp::Ordering;

impl Evaluation {
    /// Writes a partial delta fill (left in `ws` by
    /// [`FlowModel::delta_fill_core`]) into this evaluation in place:
    /// per-bundle arrays spliced, the re-filled subset's rates, statuses
    /// and freeze keys written over them, crossing rows rewritten for
    /// touched links, and load, demand, saturation and the congested
    /// list re-derived for dirty links only. Bundles and crossing
    /// entries behind the first length-changing segment are renumbered;
    /// when every segment keeps its length nothing else moves. Every
    /// touched link's demand must be settled ([`Workspace::settle`]).
    ///
    /// [`FlowModel::delta_fill_core`]: super::FlowModel::delta_fill_core
    pub(super) fn patch(&mut self, segs: &[Seg], ws: &mut Workspace) {
        let Evaluation {
            outcome: o,
            freeze_keys,
            demands,
            crossers,
            caps,
            saturated,
            compiled,
        } = self;
        debug_assert_eq!(compiled.live, 0, "a patch must forget compiled components");
        let fill = &ws.fill.state;
        splice_copy(&mut o.bundle_rates, segs, Bandwidth::ZERO);
        splice_copy(&mut o.bundle_status, segs, BundleStatus::Satisfied);
        splice_copy(freeze_keys, segs, FreezeKey::satisfied(0.0, 0));
        splice_copy(demands, segs, 0.0);
        for s in segs {
            let repl = s.repl_start as usize..(s.repl_start + s.repl_len) as usize;
            demands[s.new_start as usize..s.new_end()].copy_from_slice(&ws.seg_demand[repl]);
        }
        let resized = segs.iter().find(|s| s.resizes());
        if let Some(s) = resized {
            for (i, key) in freeze_keys.iter_mut().enumerate().skip(s.new_end()) {
                *key = key.with_bundle(i as u32);
            }
        }
        // Per re-filled bundle: whether it is new or froze differently —
        // at another rate, or at another place in the freeze order
        // (against its key as the tail renumber left it).
        ws.moved.clear();
        for (local, &gi) in ws.subset.iter().enumerate() {
            let (g, rate, key) = (gi as usize, fill.rates[local], fill.keys[local]);
            ws.moved.push(
                ws.src[g] & POOL != 0
                    || o.bundle_rates[g].bps().to_bits() != rate.to_bits()
                    || freeze_keys[g].rank() != key.rank(),
            );
            o.bundle_rates[g] = Bandwidth::from_bps(rate);
            o.bundle_status[g] = fill.status[local];
            freeze_keys[g] = key;
        }

        // Crossing rows: a row is re-merged from its old entries and the
        // replacement bundles — every row (renumbering what lies behind
        // the length change) when a segment changes length, else the
        // touched links' rows, and none when every replacement rides its
        // predecessor's links (plain flow churn).
        let (repl, buf) = (&ws.repl_cross, &mut ws.cs_buf);
        let remerge = |li: u32| {
            let row = &mut crossers[li as usize];
            buf.clear();
            merge_row(row, segs, repl, li, |i, _| buf.push(i));
            row.clear();
            row.extend_from_slice(buf);
        };
        if resized.is_some() {
            (0..caps.len() as u32).for_each(remerge);
        } else if !ws.rows_kept {
            ws.changed_links.iter().copied().for_each(remerge);
        }

        // Dirty links — touched by the change or crossed by the
        // re-filled component: loads re-accumulate in freeze order (the
        // exact order, and therefore the exact float sum, of a full
        // run), unless the previous sum provably stands; the
        // component's saturations replace theirs.
        let comp = &ws.fill.comp;
        let fill_dirty = |li: usize| comp.slot_of[li] != NONE;
        let n_filled = fill.touched_links.len();
        for k in 0..n_filled + ws.changed_links.len() {
            let li = match k.checked_sub(n_filled) {
                None => fill.touched_links[k] as usize,
                Some(c) if fill_dirty(ws.changed_links[c] as usize) => continue,
                Some(c) => ws.changed_links[c] as usize,
            };
            let touched = ws.touched_stamp[li] == ws.stamp;
            if touched {
                debug_assert_eq!(ws.summed[li], ws.stamp, "unsettled demand");
                o.link_demand[li] = Bandwidth::from_bps(ws.touched_demand[li]);
            }
            saturated[li] = false;
            // A link whose every crosser re-filled (slot `k` of the fill
            // holds its whole row — every previously saturated link of
            // the component, by closure) was accumulated by the fill
            // itself, in that order.
            let covered = k < n_filled && comp.row(k).len() == crossers[li].len();
            let sum = if covered {
                fill.links[k].frozen_load
            } else if k < n_filled && !touched && comp.row(k).iter().all(|&b| !ws.moved[b as usize])
            {
                // Same crossers, same (rank, rate) sequence: the same
                // fold (see *Kept loads* in the module docs).
                #[cfg(test)]
                {
                    ws.probe.loads_kept += 1;
                }
                continue;
            } else {
                ws.entries.clear();
                ws.entries.extend(crossers[li].iter().map(|&bi| {
                    let rate = o.bundle_rates[bi as usize].bps();
                    (freeze_keys[bi as usize].rank(), rate)
                }));
                // Keys of distinct bundles are distinct, so the unstable
                // sort reaches the one sorted order without allocating.
                ws.entries.sort_unstable_by_key(|e| e.0);
                ws.entries.iter().fold(0.0, |sum, &(_, r)| sum + r)
            };
            o.link_load[li] = Bandwidth::from_bps(sum.min(caps[li]));
        }
        let (link_demand, congested) = (&o.link_demand, &mut o.congested);
        congested.retain(|l| !fill_dirty(l.index()) && ws.touched_stamp[l.index()] != ws.stamp);
        // The survivors' sort keys did not move, so they are still in
        // order; each new saturation is inserted at its place.
        for &l in &fill.saturated {
            saturated[l.index()] = true;
            let demand = |x: LinkId| link_demand[x.index()].bps();
            let at = congested
                .partition_point(|&c| congestion_order(c, l, &demand, caps) == Ordering::Less);
            congested.insert(at, l);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::*;
    use super::super::FlowModel;
    use super::*;
    use crate::spec::BundleSpec;
    use fubar_topology::{generators, Delay, TopologyBuilder};

    /// The kept-load rule is transparent: through commit sequences on
    /// `planetary(4, 4)` — moves, 1 → 2 splits and 2 → 1 merges (so
    /// segments change length and the tail renumbers), one or two
    /// aggregates per commit, every third commit with a capacity change
    /// riding along — the in-place patch equals `evaluate_traced` of the
    /// spliced table bit for bit, and some dirty link kept its load.
    /// Keeping a touched link fails it; comparing rates but not freeze
    /// ranks does not (see `kept_loads_require_the_same_freeze_rank`).
    #[test]
    fn kept_loads_match_a_full_evaluation_through_commit_sequences() {
        let mut topo = generators::planetary(4, 4, mbps(20.0));
        let (tm, bundles) = shortest_path_instance(&topo, 5);
        let mut segments: Vec<Vec<BundleSpec>> = bundles.into_iter().map(|b| vec![b]).collect();
        let mut table = segments.concat();
        let mut eval = FlowModel::with_defaults(&topo).evaluate_traced(&table);
        let mut ws = Workspace::new();
        let mut r = xorshift(0x0C0F_FEE5);
        let mut resized = 0;
        for commit in 0..60 {
            let (changes, touched) =
                hot_commit(&mut topo, &tm, &mut segments, &table, &eval, commit, &mut r);
            resized += (changes.iter())
                .filter(|(_, removed, new)| new.len() != *removed)
                .count();
            let m = FlowModel::with_defaults(&topo);
            let mut splice = splice_of(&changes);
            m.apply_delta(&mut eval, &mut table, &mut splice, &touched, &mut ws);
            let expected = segments.concat();
            assert_eq!(table, expected, "commit {commit}");
            if let Some(field) = eval.bitwise_mismatch(&m.evaluate_traced(&table)) {
                panic!("commit {commit}: patched evaluation differs in {field}");
            }
        }
        assert!(resized > 0, "no segment changed length");
        assert!(ws.probe.loads_kept > 0, "no dirty link kept its load");
    }

    /// A re-filled crosser that keeps its rate but freezes at another
    /// place in the freeze order moves the link's load. Links `a`, `c`
    /// and `b` (ids ascending) all saturate at one water level `t`;
    /// bundle X rides `a`, `b` and the roomy link `l`, which Q
    /// (satisfied early, outside the component) and P (frozen by `c`
    /// at `t`, outside it too) also cross. Before the change `a`
    /// freezes X ahead of P; after Z on `a` sheds a flow, `b` freezes
    /// X at the same `t` — same rate bits, later rank — so `l`'s load
    /// folds `q + p + x` instead of `q + x + p`, which differ in the
    /// last bit. The patch must re-sum `l`, and does.
    #[test]
    fn kept_loads_require_the_same_freeze_rank() {
        let mut tb = TopologyBuilder::new("tie");
        for n in ["u", "v"] {
            tb.add_node(n).unwrap();
        }
        let bps = Bandwidth::from_bps;
        let mut link = |cap| tb.add_duplex_link("u", "v", bps(cap), ms(1.0)).unwrap().0;
        let (a, c, b, l) = (link(10.0), link(10.0), link(10.0), link(1e6));
        let topo = tb.build();
        let m = FlowModel::with_defaults(&topo);
        let rtt_1s = Delay::from_secs(0.5);
        let old = vec![
            bundle(0, 1, vec![l], rtt_1s, bps(0.3)),       // Q
            bundle(1, 1, vec![a, b, l], rtt_1s, bps(1e3)), // X
            bundle(2, 2, vec![a], rtt_1s, bps(1e3)),       // Z
            bundle(3, 2, vec![b], rtt_1s, bps(1e3)),       // W
            bundle(4, 3, vec![c, l], rtt_1s, bps(1e3)),    // P
        ];
        let prev = m.evaluate_traced(&old);
        let mut new = old.clone();
        new[2].flow_count = 1;
        let full = m.evaluate_traced(&new);
        let (before, after) = (prev.freeze_keys[1], full.freeze_keys[1]);
        assert_eq!((before.kind, before.primary), (1, a.0));
        assert_eq!((after.kind, after.primary), (1, b.0));
        assert_eq!(
            prev.outcome.bundle_rates[1].bps().to_bits(),
            full.outcome.bundle_rates[1].bps().to_bits(),
            "X keeps its rate"
        );
        assert_ne!(
            prev.outcome.link_load[l.index()].bps().to_bits(),
            full.outcome.link_load[l.index()].bps().to_bits(),
            "the fixture must move `l`'s load"
        );
        let prev_index = [Some(0), Some(1), None, Some(3), Some(4)];
        let inc = evaluate_from(&m, &prev, &old, &new, &prev_index, &[]);
        assert_eq!(inc.affected, vec![1, 2, 3], "X, Z and W re-fill");
    }
}
