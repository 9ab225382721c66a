use super::claim::map_claimed;
use super::step::{alt_path, Focus, Worker};
use super::*;
use crate::pathgen;
use fubar_graph::Path;
use fubar_traffic::AggregateId;
use std::sync::atomic::Ordering;

/// A crossing index as plain data: per link, the sorted
/// `(aggregate, path index)` pairs whose path crosses it.
pub type IndexEntries = Vec<Vec<(u32, u32)>>;

/// Runs `optimizer` cold and returns the result with two crossing
/// indices: the one its loop maintained commit by commit, and one
/// rebuilt from scratch over the final allocation.
pub fn run_with_index(optimizer: &Optimizer<'_>) -> (OptimizeResult, [IndexEntries; 2]) {
    let (result, maintained) = optimizer.run_with(optimizer.boot());
    let rebuilt = CrossingIndex::build(optimizer.topology, optimizer.tm, &result.allocation);
    (result, [maintained.per_link, rebuilt.per_link])
}

/// How many candidate scores the per-incumbent memo has answered
/// over every run of `optimizer` so far (always 0 in oracle mode).
pub fn memo_hits(optimizer: &Optimizer<'_>) -> usize {
    optimizer.memo_hits.load(Ordering::Relaxed)
}

/// The state both harnesses start from: an optimizer on `threads`
/// scoring scratches, its boot allocation measured, the most
/// oversubscribed link with its component prepared (what a step does
/// first), the global search's avoid set, and the crossing index.
struct Boot<'a> {
    optimizer: Optimizer<'a>,
    alloc: Allocation,
    incumbent: Incumbent,
    link: LinkId,
    avoid: LinkSet,
    index: CrossingIndex,
}

impl<'a> Boot<'a> {
    /// # Panics
    ///
    /// Panics when the instance is uncongested.
    fn new(topology: &'a Topology, tm: &'a TrafficMatrix, threads: usize) -> Self {
        let config = OptimizerConfig {
            threads,
            ..OptimizerConfig::default()
        };
        let optimizer = Optimizer::new(topology, tm, config);
        let alloc = optimizer.boot();
        let mut incumbent = optimizer.measure(&alloc);
        let outcome = incumbent.outcome();
        let link = *outcome
            .congested
            .first()
            .expect("harness instance must be congested");
        let avoid = pathgen::congested_or_forbidden(outcome, &optimizer.config.excluded_links);
        incumbent.prepare_component(&optimizer.model, link);
        Boot {
            index: CrossingIndex::build(topology, tm, &alloc),
            optimizer,
            alloc,
            incumbent,
            link,
            avoid,
        }
    }
}

/// See the module docs.
pub struct ScoringHarness<'a> {
    optimizer: Optimizer<'a>,
    alloc: Allocation,
    incumbent: Incumbent,
    candidates: Vec<Candidate>,
    scratch: Mutex<ScoreScratch>,
}

impl<'a> ScoringHarness<'a> {
    /// Builds the harness from the boot allocation of a congested
    /// instance; candidates come from the most oversubscribed link.
    ///
    /// # Panics
    ///
    /// Panics when the instance is uncongested or yields no
    /// candidate moves.
    pub fn new(topology: &'a Topology, tm: &'a TrafficMatrix) -> Self {
        let Boot {
            optimizer,
            alloc,
            incumbent,
            link,
            avoid,
            index,
        } = Boot::new(topology, tm, 1);
        // A step's own enumeration against an empty memo.
        let excluded = &optimizer.config.excluded_links;
        let memo = Memo::default();
        let focus = Focus {
            alloc: &alloc,
            incumbent: &incumbent,
            memo: &memo,
            link,
            escape_level: 0,
            network: optimizer.network(&alloc, incumbent.outcome(), excluded, &avoid),
            keeps: false,
        };
        let scratch = [Mutex::new(ScoreScratch::default())];
        let mut worker = Worker::claim(&scratch, 0);
        let mut candidates = Vec::new();
        for run in index.runs(link) {
            let p = optimizer.probe(&focus, run, &mut worker);
            let range = p.scored.start as usize..p.scored.end as usize;
            for s in &worker.ws.scorings[range] {
                candidates.push(Candidate {
                    aggregate: AggregateId(p.aggregate),
                    from: s.from as usize,
                    count: s.count,
                    alt: Path::clone(alt_path(&memo, &p, s)),
                });
            }
        }
        drop(worker);
        let [scratch] = scratch;
        assert!(!candidates.is_empty(), "harness needs candidate moves");
        ScoringHarness {
            optimizer,
            alloc,
            incumbent,
            candidates,
            scratch,
        }
    }

    /// How many candidate moves one call to
    /// [`ScoringHarness::score_all`] scores.
    pub fn candidate_count(&self) -> usize {
        self.candidates.len()
    }

    /// Scores every candidate through the incremental path and
    /// returns the best score. After the first call has warmed the
    /// scratch buffers, this performs zero heap allocations.
    pub fn score_all(&self) -> f64 {
        let mut best = f64::NEG_INFINITY;
        let mut ws = self.scratch.lock().expect("scratch lock poisoned");
        for c in &self.candidates {
            let c = Candidate {
                aggregate: c.aggregate,
                from: c.from,
                count: c.count,
                alt: &c.alt,
            };
            let s = self.optimizer.score_candidate_incremental(
                &self.alloc,
                &self.incumbent,
                c,
                &mut ws,
            );
            best = best.max(s);
        }
        best
    }
}

/// What one [`ProbeHarness::fan_out`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FanOut {
    /// Aggregates whose alternatives were resolved.
    pub probes: usize,
    /// How many of those had a search run again or dropped.
    pub generated: usize,
    /// Searches run.
    pub searches: usize,
    /// Moves scored or looked up.
    pub moves: usize,
}

/// The fan-out of one step, on the boot state of a congested
/// instance and its most oversubscribed link, run as often as asked:
/// workers claim the link's aggregates and probe them exactly as
/// [`Optimizer::step`] has them do, and the searches they ran join
/// the kept alternatives as in a step. Scores are not kept, so every
/// fan-out scores every move.
pub struct ProbeHarness<'a> {
    optimizer: Optimizer<'a>,
    alloc: Allocation,
    incumbent: Incumbent,
    index: CrossingIndex,
    link: LinkId,
    /// The global search's avoid set: the congested links, until
    /// [`ProbeHarness::flip`] changes it.
    avoid: LinkSet,
    memo: Memo,
    pool: Vec<Mutex<ScoreScratch>>,
}

/// A worker of a [`ProbeHarness`] fan-out, and the call that closes
/// its window when the worker is done.
struct Windowed<'p> {
    worker: Worker<'p>,
    window: fn(bool),
}

impl Drop for Windowed<'_> {
    fn drop(&mut self) {
        (self.window)(false);
    }
}

impl<'a> ProbeHarness<'a> {
    /// The harness on `topology` and `tm` with a pool of `threads`
    /// scoring scratches.
    ///
    /// # Panics
    ///
    /// Panics when the instance is uncongested.
    pub fn new(topology: &'a Topology, tm: &'a TrafficMatrix, threads: usize) -> Self {
        let Boot {
            optimizer,
            alloc,
            incumbent,
            link,
            avoid,
            index,
        } = Boot::new(topology, tm, threads);
        ProbeHarness {
            index,
            pool: (0..threads).map(|_| Mutex::default()).collect(),
            memo: Memo::new(topology.link_count(), tm.len()),
            optimizer,
            alloc,
            incumbent,
            link,
            avoid,
        }
    }

    /// Flips `link` in or out of the global search's avoid set, as a
    /// change of the congested set would: the fan-outs after it check
    /// the kept searches against the flip.
    pub fn flip(&mut self, link: LinkId) {
        if !self.avoid.remove(link) {
            self.avoid.insert(link);
        }
    }

    /// One fan-out on `workers` workers, worker `i` on scratch `i`.
    /// Each worker calls `window(true)` once it holds its scratch,
    /// before its first claim, and `window(false)` after its last.
    pub fn fan_out(&mut self, workers: usize, window: fn(bool)) -> FanOut {
        self.fan_out_on(workers, |i| i, window)
    }

    /// One fan-out on each scratch of the pool in turn, by one
    /// worker, so that each has held everything one worker of a
    /// fan-out can ask of it. Returns the searches they ran.
    pub fn warm_up(&mut self) -> usize {
        (0..self.pool.len())
            .map(|scratch| self.fan_out_on(1, |_| scratch, |_| {}).searches)
            .sum()
    }

    fn fan_out_on(
        &mut self,
        workers: usize,
        scratch: impl Fn(usize) -> usize + Sync,
        window: fn(bool),
    ) -> FanOut {
        let runs: Vec<&[(u32, u32)]> = self.index.runs(self.link).collect();
        let (opt, memo) = (&self.optimizer, &self.memo);
        let outcome = self.incumbent.outcome();
        let focus = Focus {
            alloc: &self.alloc,
            incumbent: &self.incumbent,
            memo,
            link: self.link,
            escape_level: 0,
            network: opt.network(
                &self.alloc,
                outcome,
                &opt.config.excluded_links,
                &self.avoid,
            ),
            keeps: opt.config.objective == Objective::NetworkUtility,
        };
        let probed = map_claimed(
            &runs,
            workers,
            |i| {
                let worker = Worker::claim(&self.pool, scratch(i));
                window(true);
                Windowed { worker, window }
            },
            |w, run| opt.probe(&focus, run, &mut w.worker),
        );
        let arenas: Vec<_> = (self.pool.iter())
            .map(|ws| ws.lock().expect("scratch lock poisoned"))
            .collect();
        let mut done = FanOut {
            probes: 0,
            generated: 0,
            searches: 0,
            moves: 0,
        };
        for p in probed {
            done.moves += p.scored.len();
            if let Some(resolution) = p.resolution {
                done.probes += 1;
                done.generated += usize::from(resolution.generated);
                done.searches += resolution.searches_run;
                let ran = &arenas[p.worker].paths;
                resolution.keep(&mut self.memo.alts, p.aggregate, ran);
            }
        }
        done
    }
}
