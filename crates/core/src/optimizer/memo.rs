//! **Nothing is worked out twice while what it depends on stands.**
//! The greedy loop keeps a memo with two kinds of entry, each dropped
//! when — and only when — one of its inputs moves. *A score stands until
//! a commit re-fills something its fill read*: the score of a move
//! `(aggregate, from, count, alternative path)` is a function of the
//! incumbent alone — not of the focus link, not of the escape level —
//! so the same move reached again from a second congested link its path
//! crosses, or re-gathered at the next escape level with an unchanged
//! `count`, is looked up instead of re-filled. Nor does every commit
//! change it. A candidate's fill read only the links its final component
//! crosses and the links its removed and replacement bundles cross
//! ([`Workspace::filled_links`]), and its network utility is the
//! incumbent report's summation tree with a few leaves replaced: the
//! moved aggregate's and those of the aggregates a re-filled bundle of
//! which came out at a new rate. A commit re-derives the same two kinds
//! of link for its own move ([`PatchScratch::refilled_links`]), so the
//! memo stamps each link, and each aggregate owning a re-filled bundle
//! ([`PatchScratch::refilled_bundles`]) or moved, with the ordinal of
//! the last commit that re-filled it. A score survives a commit iff no
//! link it read and no aggregate among its leaves carries a newer stamp:
//! everything the fill read is then as it was, up to the monotone
//! renumbering a resized segment leaves behind, which no fill can see.
//! A surviving score is not reused as a number, because another
//! component's commit moved other leaves of the tree: its kept leaves
//! are folded into the current tree
//! ([`score_network_utility_from_leaves`]), the O(log n) patch a fresh
//! scoring ends with too; debug builds re-fill the move as well and
//! assert the same bits. Only network-utility scores survive (min-max
//! reads every link's demand), and only those of winner-less steps
//! whose focus component leaves some saturated link out (every move of
//! a winning step reads the focus link, which its commit re-fills, and
//! so does every move where one component holds every saturated link);
//! any other score dies at the next commit. Scores are keyed by the
//! alternative path, not by its index, so they outlive a regeneration
//! of the alternatives.
//! *An alternative stands while what its search read stands*: each of
//! an aggregate's three paths is one lowest-delay search avoiding a set
//! of links — the congested-or-excluded ones, the congested ones its
//! own live paths use, or the most oversubscribed of those (the list is
//! derived in [`crate::pathgen`]) — and a search reads only the
//! out-links of the nodes it settles before its target. The memo keeps
//! every search with what it read (its settled tree and the avoided
//! links it skipped); a probe recomputes the three avoid sets — a walk
//! of the aggregate's own path links — and runs a search again only
//! when a link that flipped in or out of its avoid set is one the
//! search could have read ([`fubar_graph::SearchRecord::stands`], proved in
//! [`crate::pathgen`]). A search that would avoid what an earlier one
//! of the three avoids is not run: the candidate list drops its answer
//! as a duplicate anyway. Most commits flip no link, and most flips are
//! far from a given aggregate, so alternatives live for the run like
//! scores — across commits and changes of the congested set, and from
//! one per-component pass into the next and into the whole-instance
//! loop, a pass's exclusions being only more avoided links. The
//! candidate list is re-derived from the three searches every time —
//! global, local, link-local, later duplicates dropped — so it is what
//! three fresh searches would give.
//!
//! [`PatchScratch::refilled_bundles`]: fubar_model::PatchScratch::refilled_bundles
//! [`PatchScratch::refilled_links`]: fubar_model::PatchScratch::refilled_links
//! [`Workspace::filled_links`]: fubar_model::Workspace::filled_links
//! [`score_network_utility_from_leaves`]: fubar_model::score_network_utility_from_leaves

use super::step::{Keepable, ScoreScratch};
use super::LoopState;
use crate::pathgen;
use fubar_graph::Path;
use fubar_traffic::AggregateId;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, MutexGuard};

/// What the loop has worked out and need not work out again while what
/// it depends on stands (see the module docs): scores until a commit
/// re-fills something they read, searches for alternatives until a
/// link they read flips in or out of their avoid set. One per run.
/// Looked up by key; only a commit walks the scores, to drop the ones
/// it invalidated.
#[derive(Default)]
pub(super) struct Memo {
    /// Per aggregate, the searches its alternatives came from.
    pub(super) alts: BTreeMap<u32, pathgen::Alternatives>,
    /// Per aggregate, the scored moves of it that still stand against
    /// the current incumbent: every entry here is valid (a commit drops
    /// the ones it invalidates).
    pub(super) scores: BTreeMap<u32, Vec<Scored>>,
    /// Commits this memo has seen: the ordinal of the current
    /// incumbent.
    pub(super) commits: u32,
    /// Per link and per aggregate, the ordinal of the last commit that
    /// re-filled it (0: none yet).
    link_stamp: Vec<u32>,
    agg_stamp: Vec<u32>,
}

/// The score of the move of `count` flows of an aggregate off its path
/// `from` onto `alt`. The path itself is the key, not its index among
/// the aggregate's alternatives, which a regeneration renumbers.
pub(super) struct Scored {
    pub(super) from: u32,
    pub(super) count: u32,
    pub(super) alt: Arc<Path>,
    /// The ordinal of the incumbent `score` is against.
    pub(super) at: u32,
    pub(super) score: f64,
    /// What lets the score outlive its incumbent; without it the entry
    /// dies at the next commit.
    pub(super) kept: Option<Kept>,
}

/// What a scoring read and what it changed: the links its fill read,
/// ascending, and its changed fold-tree leaves as `(aggregate,
/// utility)`. The score stands as long as no commit re-fills one of
/// those links or any bundle of those aggregates, and is re-derived by
/// folding the leaves into the current report's tree.
pub(super) struct Kept {
    links: Arc<[u32]>,
    pub(super) leaves: Box<[(u32, f64)]>,
}

/// Copies kept scores out of the workers' scratches, sharing one copy
/// of a link set among the scores that name the same range of it.
#[derive(Default)]
pub(super) struct KeptCopy {
    /// Per worker, the range of its scratch copied last, and the copy.
    last: Vec<Option<Shared>>,
}

/// A range of a worker's link scratch and the one copy made of it.
type Shared = (Range<u32>, Arc<[u32]>);

impl KeptCopy {
    pub(super) fn take(&mut self, arenas: &[MutexGuard<'_, ScoreScratch>], k: &Keepable) -> Kept {
        let ws = &arenas[k.worker];
        let range = |r: &Range<u32>| r.start as usize..r.end as usize;
        self.last.resize(arenas.len(), None);
        let links = match &self.last[k.worker] {
            Some((r, links)) if *r == k.links => Arc::clone(links),
            _ => {
                let links: Arc<[u32]> = Arc::from(&ws.kept_links[range(&k.links)]);
                self.last[k.worker] = Some((k.links.clone(), Arc::clone(&links)));
                links
            }
        };
        Kept {
            links,
            leaves: ws.kept_leaves[range(&k.leaves)].into(),
        }
    }
}

impl Memo {
    pub(super) fn new(links: usize, aggregates: usize) -> Self {
        Memo {
            link_stamp: vec![0; links],
            agg_stamp: vec![0; aggregates],
            ..Memo::default()
        }
    }

    /// The entry for a move, if one stands. An entry scored against the
    /// same generation of alternatives shares its path.
    pub(super) fn score_of(
        &self,
        aggregate: u32,
        from: u32,
        count: u32,
        alt: &Arc<Path>,
    ) -> Option<&Scored> {
        (self.scores.get(&aggregate)?.iter()).find(|e| {
            e.from == from && e.count == count && (Arc::ptr_eq(&e.alt, alt) || e.alt == *alt)
        })
    }

    /// Whether `e` read nothing a commit after it re-filled.
    fn stands(&self, e: &Scored) -> bool {
        e.kept.as_ref().is_some_and(|k| {
            k.links.iter().all(|&l| self.link_stamp[l as usize] <= e.at)
                && (k.leaves.iter()).all(|&(a, _)| self.agg_stamp[a as usize] <= e.at)
        })
    }

    /// Stamps what the commit just landed in `state` re-filled — its
    /// links, the owners of its re-filled bundles and the moved
    /// aggregate — and drops every score that read any of it.
    pub(super) fn note_commit(&mut self, state: &LoopState, moved: AggregateId) {
        self.commits += 1;
        let now = self.commits;
        for l in state.patch.refilled_links() {
            self.link_stamp[l as usize] = now;
        }
        let bundles = state.incumbent.bundles();
        for &bi in state.patch.refilled_bundles() {
            self.agg_stamp[bundles[bi as usize].aggregate.index()] = now;
        }
        self.agg_stamp[moved.index()] = now;
        let mut scores = std::mem::take(&mut self.scores);
        scores.retain(|_, entries| {
            entries.retain(|e| self.stands(e));
            !entries.is_empty()
        });
        self.scores = scores;
    }

    /// Adds a score of a move of `aggregate`.
    pub(super) fn insert(&mut self, aggregate: u32, entry: Scored) {
        self.scores.entry(aggregate).or_default().push(entry);
    }
}
