use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Maps `work` over `items` on at most `workers` workers and returns the
/// results in item order. The calling thread is worker 0 and the rest
/// are scoped threads; each builds its own state with `init` (handed its
/// worker number, so worker `i` can own scratch `i`) and then claims the
/// next unclaimed item until none is left, so an expensive item delays
/// one worker, not the items dealt after it. Each result goes straight
/// into its item's slot, made before any worker starts, so a worker's
/// claims allocate nothing of their own, and which worker ran what never
/// shows in the result. A worker's panic resurfaces on the caller with
/// its own payload.
pub(super) fn map_claimed<T: Sync, S, R: Send + Sync>(
    items: &[T],
    workers: usize,
    init: impl Fn(usize) -> S + Sync,
    work: impl Fn(&mut S, &T) -> R + Sync,
) -> Vec<R> {
    // Relaxed: the counter only hands out indices. The items were
    // shared before any thread started and results travel through
    // `join`.
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<R>> = items.iter().map(|_| OnceLock::new()).collect();
    let run = |worker: usize| {
        let mut state = init(worker);
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return;
            };
            let placed = slots[i].set(work(&mut state, item));
            debug_assert!(placed.is_ok(), "item {i} claimed twice");
        }
    };
    let workers = workers.min(items.len());
    if workers <= 1 {
        run(0);
    } else {
        std::thread::scope(|scope| {
            let run = &run;
            let spawned: Vec<_> = (1..workers)
                .map(|worker| scope.spawn(move || run(worker)))
                .collect();
            run(0);
            for handle in spawned {
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            }
        });
    }
    slots
        .into_iter()
        .map(|r| r.into_inner().expect("every item is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic stand-in for an item of uneven cost.
    fn grind(item: u64) -> u64 {
        (0..(item % 7) * 2_000).fold(item, |x, k| x.rotate_left(5) ^ k)
    }

    #[test]
    fn map_claimed_returns_results_in_item_order() {
        let expected = |items: &[u64]| items.iter().map(|&i| grind(i)).collect::<Vec<_>>();
        let many: Vec<u64> = (0..41).map(|i| i * 2_654_435_761 % 97).collect();
        for workers in [1, 2, 3, 8] {
            for items in [&many[..], &many[..2], &many[..0]] {
                let got = map_claimed(items, workers, |_| (), |(), &i| grind(i));
                assert_eq!(got, expected(items), "workers={workers}");
            }
        }
        // Completion order forced against item order: whoever claims
        // item 0 holds its result back until item 1's is in.
        let second_done = std::sync::atomic::AtomicBool::new(false);
        let got = map_claimed(
            &[0u64, 1],
            2,
            |_| (),
            |(), &i| {
                if i == 0 {
                    while !second_done.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                } else {
                    second_done.store(true, Ordering::Release);
                }
                i
            },
        );
        assert_eq!(got, [0, 1]);
    }

    #[test]
    fn map_claimed_builds_each_workers_state_once() {
        let built = AtomicUsize::new(0);
        let items: Vec<u64> = (0..64).collect();
        let got = map_claimed(
            &items,
            3,
            |worker| {
                built.fetch_add(1, Ordering::Relaxed);
                worker
            },
            |&mut worker, &i| (worker, i),
        );
        assert!(got.iter().all(|&(worker, _)| worker < 3));
        assert!(got.iter().map(|&(_, i)| i).eq(0..64));
        assert_eq!(built.load(Ordering::Relaxed), 3, "one state per worker");
    }

    /// A spawned worker's panic reaches the caller with the message it
    /// was raised with. Worker 0 (the caller) is held until worker 1 has
    /// claimed an item, so the panic cannot come from the calling thread.
    #[test]
    #[should_panic(expected = "span check failed on worker 1")]
    fn map_claimed_resurfaces_a_workers_own_panic() {
        let claimed = std::sync::atomic::AtomicBool::new(false);
        map_claimed(
            &[(), ()],
            2,
            |worker| worker,
            |&mut worker, ()| {
                if worker == 0 {
                    while !claimed.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                } else {
                    claimed.store(true, Ordering::Release);
                    panic!("span check failed on worker {worker}");
                }
            },
        );
    }
}
