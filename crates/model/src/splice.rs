//! The splice view over a cached bundle table.
//!
//! An aggregate's bundles are contiguous in a bundle table, so any small
//! change to an evaluated table — a candidate move, a committed move,
//! the aggregates one fabric event dirtied — is `k ≥ 1` ascending
//! *segments*: ranges of the previous table, each replaced by new
//! bundles. This module owns that representation: [`BundleDelta`], the
//! borrowed view the engine fills and scores without materializing the
//! changed table; [`Splice`], its reusable owned form, which
//! [`crate::Incumbent::replace`] fills and drains into the cached table;
//! and the index arithmetic both need — where a bundle of the spliced
//! table comes from, where a kept bundle lands, how a per-bundle array
//! and a per-link crossing row follow.

use crate::spec::BundleSpec;

/// One replaced range of a splice: `prev[start..start + removed]` gives
/// way to `pool[repl_start..repl_start + repl_len]`, which lands at
/// `new_start` of the spliced list.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Seg {
    pub(crate) start: u32,
    pub(crate) removed: u32,
    pub(crate) repl_start: u32,
    pub(crate) repl_len: u32,
    pub(crate) new_start: u32,
}

impl Seg {
    /// One past the last replaced index of the previous list.
    pub(crate) fn prev_end(&self) -> usize {
        (self.start + self.removed) as usize
    }

    /// One past the last replacement index of the spliced list.
    pub(crate) fn new_end(&self) -> usize {
        (self.new_start + self.repl_len) as usize
    }

    /// `spliced index − previous index` of every kept bundle between
    /// this segment and the next.
    pub(crate) fn shift_after(&self) -> i64 {
        self.new_end() as i64 - self.prev_end() as i64
    }

    /// Whether the segment changes the list's length — what makes
    /// everything behind it pay a renumber.
    pub(crate) fn resizes(&self) -> bool {
        self.removed != self.repl_len
    }
}

/// Advances `k` — the number of segments ending at or before the
/// previous index — from an earlier index's value to `j`'s. Rows are
/// ascending, so the common step is one comparison.
fn segs_before(segs: &[Seg], k: usize, j: u32) -> usize {
    match segs.get(k) {
        Some(s) if s.prev_end() <= j as usize => {
            k + 1 + segs[k + 1..].partition_point(|s| s.prev_end() <= j as usize)
        }
        _ => k,
    }
}

/// The spliced index of kept previous bundle `j` (which must lie
/// outside every removed range), with `k` the number of segments ending
/// at or before it.
fn shifted(segs: &[Seg], k: usize, j: u32) -> u32 {
    match k.checked_sub(1) {
        Some(p) => (i64::from(j) + segs[p].shift_after()) as u32,
        None => j,
    }
}

/// Tags a source index as pointing into a splice's replacement pool
/// rather than the previous list (see [`BundleDelta::at`]). The core
/// resolves each bundle's source once, when it joins the affected set,
/// so no fill ever searches the segment list.
pub(crate) const POOL: u32 = 1 << 31;

/// A splice view over a previous bundle list: `k ≥ 1` ascending,
/// non-overlapping ranges of `prev` are replaced (one per changed
/// aggregate — each owns a contiguous bundle segment), everything else
/// is unchanged. The engine fills and scores such a view directly, so
/// nobody materializes a changed list: the optimizer scores thousands
/// of one-segment candidates against one incumbent, and an accepted
/// change — a commit, or the fabric's dirty aggregates — is written
/// into the cached table in place by [`crate::Incumbent::replace`].
#[derive(Clone, Copy, Debug)]
pub struct BundleDelta<'b> {
    pub(crate) prev: &'b [BundleSpec],
    /// Storage of the one-segment form, so it borrows nothing extra.
    one: Seg,
    many: Option<&'b [Seg]>,
    pub(crate) pool: &'b [BundleSpec],
}

impl<'b> BundleDelta<'b> {
    /// A one-segment splice replacing `prev[start..start + removed]`
    /// with `replacement`.
    ///
    /// # Panics
    ///
    /// Panics when `start + removed` overruns `prev`.
    pub fn new(
        prev: &'b [BundleSpec],
        start: usize,
        removed: usize,
        replacement: &'b [BundleSpec],
    ) -> Self {
        assert!(
            start + removed <= prev.len(),
            "spliced range {start}..{} overruns {} previous bundles",
            start + removed,
            prev.len()
        );
        BundleDelta {
            prev,
            one: Seg {
                start: start as u32,
                removed: removed as u32,
                repl_start: 0,
                repl_len: replacement.len() as u32,
                new_start: start as u32,
            },
            many: None,
            pool: replacement,
        }
    }

    pub(crate) fn segs(&self) -> &[Seg] {
        match self.many {
            Some(segs) => segs,
            None => std::slice::from_ref(&self.one),
        }
    }

    /// Length of the spliced list.
    pub fn len(&self) -> usize {
        (self.prev.len() as i64 + self.segs().last().map_or(0, Seg::shift_after)) as usize
    }

    /// First replaced index of a one-segment splice.
    pub fn start(&self) -> usize {
        self.one.start as usize
    }

    /// How many previous bundles a one-segment splice removes.
    pub fn removed(&self) -> usize {
        self.one.removed as usize
    }

    /// How many bundles a one-segment splice's replacement holds.
    pub fn replacement_len(&self) -> usize {
        self.one.repl_len as usize
    }

    /// True when the spliced list holds no bundles.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bundle a source tag names: an index into the previous list,
    /// or — tagged with [`POOL`] — into the replacement pool.
    pub(crate) fn at(&self, src: u32) -> &'b BundleSpec {
        if src & POOL != 0 {
            &self.pool[(src ^ POOL) as usize]
        } else {
            &self.prev[src as usize]
        }
    }

    /// Where bundle `i` of the spliced list comes from: `Ok` its index
    /// in the previous list, `Err` its index in the replacement pool.
    fn locate(&self, i: usize) -> Result<usize, usize> {
        let segs = self.segs();
        let k = segs.partition_point(|s| s.new_start as usize <= i);
        let Some(s) = k.checked_sub(1).map(|p| &segs[p]) else {
            return Ok(i);
        };
        if i < s.new_end() {
            Err(s.repl_start as usize + i - s.new_start as usize)
        } else {
            Ok((i as i64 - s.shift_after()) as usize)
        }
    }

    /// The bundle at position `i` of the spliced list.
    pub fn get(&self, i: usize) -> &'b BundleSpec {
        match self.locate(i) {
            Ok(j) => &self.prev[j],
            Err(p) => &self.pool[p],
        }
    }

    /// Where bundle `i` of the spliced list sat in the previous list
    /// (`None` across the replacement segments).
    pub fn prev_index(&self, i: usize) -> Option<u32> {
        self.locate(i).ok().map(|j| j as u32)
    }
}

/// A reusable, owned description of a `k`-segment splice: the replaced
/// ranges plus the pool of replacement bundles.
/// [`crate::Incumbent::replace`] fills one per accepted change and
/// `FlowModel::apply_delta` drains it into the cached table.
#[derive(Debug, Default)]
pub(crate) struct Splice {
    pub(crate) segs: Vec<Seg>,
    pool: Vec<BundleSpec>,
}

impl Splice {
    /// Replaces `prev[start..start + removed]` with `replacement`.
    /// Ranges must arrive ascending and non-overlapping (a range that
    /// removes and adds nothing is dropped).
    ///
    /// # Panics
    ///
    /// Panics when `start` lies before the end of the previous range.
    pub(crate) fn push(
        &mut self,
        start: usize,
        removed: usize,
        replacement: impl IntoIterator<Item = BundleSpec>,
    ) {
        let repl_start = self.pool.len();
        self.pool.extend(replacement);
        let repl_len = self.pool.len() - repl_start;
        if removed == 0 && repl_len == 0 {
            return;
        }
        let (floor, shift) = self
            .segs
            .last()
            .map_or((0, 0), |s| (s.prev_end(), s.shift_after()));
        assert!(
            start >= floor,
            "splice ranges must be ascending and non-overlapping"
        );
        self.segs.push(Seg {
            start: start as u32,
            removed: removed as u32,
            repl_start: repl_start as u32,
            repl_len: repl_len as u32,
            new_start: (start as i64 + shift) as u32,
        });
    }

    /// The splice as a view over `prev`.
    pub(crate) fn over<'b>(&'b self, prev: &'b [BundleSpec]) -> BundleDelta<'b> {
        let end = self.segs.last().map_or(0, Seg::prev_end);
        assert!(
            end <= prev.len(),
            "spliced ranges end at {end}, past {} previous bundles",
            prev.len()
        );
        BundleDelta {
            prev,
            one: Seg::default(),
            many: Some(&self.segs),
            pool: &self.pool,
        }
    }

    /// Drains the splice into `bundles`, leaving it empty for reuse:
    /// `Vec::splice` per range (back to front) while at most one range
    /// changes the length, one pass of moves otherwise.
    pub(crate) fn apply_to(&mut self, bundles: &mut Vec<BundleSpec>) {
        if self.segs.iter().filter(|s| s.resizes()).count() <= 1 {
            for s in self.segs.iter().rev() {
                let repl = s.repl_start as usize..(s.repl_start + s.repl_len) as usize;
                bundles.splice(s.start as usize..s.prev_end(), self.pool.drain(repl));
            }
        } else {
            let shift = self.segs.last().map_or(0, Seg::shift_after);
            let mut out = Vec::with_capacity((bundles.len() as i64 + shift) as usize);
            let mut old = std::mem::take(bundles).into_iter();
            let mut pool = self.pool.drain(..);
            let mut at = 0;
            for s in &self.segs {
                out.extend(old.by_ref().take(s.start as usize - at));
                old.by_ref().take(s.removed as usize).for_each(drop);
                out.extend(pool.by_ref().take(s.repl_len as usize));
                at = s.prev_end();
            }
            out.extend(old);
            *bundles = out;
        }
        self.segs.clear();
        self.pool.clear();
    }
}

/// Applies `segs` to a per-bundle array in place: kept runs move to
/// their spliced positions (`copy_within`; leftward runs first, front
/// to back, then rightward runs, back to front, so no run overwrites
/// one that has not moved yet), replacement slots are left for the
/// caller to fill. A segment that keeps its length moves nothing.
pub(crate) fn splice_copy<T: Copy>(v: &mut Vec<T>, segs: &[Seg], filler: T) {
    let old_len = v.len();
    let new_len = (old_len as i64 + segs.last().map_or(0, Seg::shift_after)) as usize;
    // Kept run `k` sits between segment `k` and the next one.
    let run = |k: usize| {
        let end = segs.get(k + 1).map_or(old_len, |s| s.start as usize);
        (segs[k].prev_end(), end, segs[k].shift_after())
    };
    for k in 0..segs.len() {
        let (a, b, shift) = run(k);
        if shift < 0 {
            v.copy_within(a..b, (a as i64 + shift) as usize);
        }
    }
    v.resize(old_len.max(new_len), filler);
    for k in (0..segs.len()).rev() {
        let (a, b, shift) = run(k);
        if shift > 0 {
            v.copy_within(a..b, a + shift as usize);
        }
    }
    v.truncate(new_len);
}

/// The replacement bundles crossing link `li`: its run of `repl`, the
/// sorted `(link, spliced index, source tag)` triples of a splice.
pub(crate) fn repl_row(repl: &[(u32, u32, u32)], li: u32) -> &[(u32, u32, u32)] {
    let start = repl.partition_point(|&(l, ..)| l < li);
    let len = repl[start..].partition_point(|&(l, ..)| l == li);
    &repl[start..start + len]
}

/// Merges link `li`'s previous crossing row with the replacement
/// bundles crossing it (`repl`, sorted `(link, spliced index, source
/// tag)` triples): previous entries inside a removed range drop out,
/// the rest move to their spliced indices. Emits `(spliced index,
/// source tag)` in ascending spliced order.
pub(crate) fn merge_row(
    prev_row: &[u32],
    segs: &[Seg],
    repl: &[(u32, u32, u32)],
    li: u32,
    mut emit: impl FnMut(u32, u32),
) {
    let mut added = repl_row(repl, li).iter().peekable();
    let mut k = 0;
    for &j in prev_row {
        k = segs_before(segs, k, j);
        if segs.get(k).is_some_and(|s| j >= s.start) {
            continue;
        }
        let at = shifted(segs, k, j);
        while let Some(&(_, i, src)) = added.next_if(|&&(_, i, _)| i < at) {
            emit(i, src);
        }
        emit(at, j);
    }
    for &(_, i, src) in added {
        emit(i, src);
    }
}
