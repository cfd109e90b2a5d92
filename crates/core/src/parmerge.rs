//! In-order union-find merging with parallel pair tests.
//!
//! A merge loop (exact Step 2) walks candidate pairs in a fixed order,
//! skips a pair whose endpoints are already connected, tests the rest
//! (`BCP ≤ ε`), and unions the pairs that pass. The skip is what makes
//! the interleaving serial: whether pair `i` is tested depends on the
//! verdicts of the pairs before it.
//!
//! [`merge_in_order`] keeps that loop exact and still tests in
//! parallel. It walks the pairs in windows of [`WINDOW`]. Within a
//! window it first plans against an **optimistic** view in which every
//! earlier pair of the window passed:
//!
//! * a pair that stays unconnected even then is tested by the
//!   sequential loop whatever the earlier verdicts are, so it is tested
//!   up front, in parallel with the window's other such pairs;
//! * a pair the optimistic view already connects is *undecided*: the
//!   sequential loop skips it only if the pairs that would connect it
//!   really pass.
//!
//! The window then commits in candidate order: a tested pair unions if
//! it passed, and an undecided pair is skipped if it is connected by
//! now, else tested inline. The tests made are exactly the sequential
//! loop's, for every thread count and window size, so both the
//! components and every work counter are thread-independent. Planning
//! touches each pair once: the whole merge is linear in the pairs.

use crate::unionfind::UnionFind;
use mdbscan_parallel::par_map_range;

/// Candidate pairs planned together. Only the share of pairs tested in
/// parallel depends on it, never which pairs are tested.
const WINDOW: usize = 256;

/// Pair tests per worker below which a window's tests run inline.
const MIN_TESTS_PER_THREAD: usize = 8;

/// The window-local optimistic union-find (path halving): every planned
/// pair is assumed to pass. Entries reset lazily per window through a
/// generation stamp, so a window's planning costs O(window · α), not
/// O(n).
struct Optimistic {
    parent: Vec<u32>,
    stamp: Vec<u32>,
    window: u32,
}

impl Optimistic {
    fn new(len: usize) -> Self {
        Self {
            parent: vec![0; len],
            stamp: vec![0; len],
            window: 0,
        }
    }

    fn next_window(&mut self) {
        self.window = self.window.wrapping_add(1);
        if self.window == 0 {
            // Stamp wrap-around (practically unreachable): hard reset.
            self.stamp.fill(0);
            self.window = 1;
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.stamp[x] != self.window {
            // Untouched this window: its own root.
            self.stamp[x] = self.window;
            self.parent[x] = x as u32;
            return x;
        }
        // Every node on a chain was linked this window, so is stamped.
        let mut x = x;
        while self.parent[x] as usize != x {
            let grand = self.parent[self.parent[x] as usize];
            self.parent[x] = grand;
            x = grand as usize;
        }
        x
    }

    /// Links the (committed) roots `a` and `b`; false when earlier pairs
    /// of the window already connect them optimistically.
    fn link(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.parent[ra] = rb as u32;
        true
    }
}

/// Runs the in-order merge over `pairs` `(a, b, payload)`: each pair the
/// sequential loop would test goes through `test`, and the pairs that
/// pass are unioned into `uf`. With `skip_connected` off every pair is
/// tested (the early-termination ablation). Returns
/// `(pairs_tested, pairs_passed)`.
pub(crate) fn merge_in_order<T: Sync>(
    uf: &mut UnionFind,
    threads: usize,
    pairs: &[(u32, u32, T)],
    skip_connected: bool,
    test: impl Fn(&(u32, u32, T)) -> bool + Sync,
) -> (u64, u64) {
    let mut tested = 0u64;
    let mut passed = 0u64;
    let mut planner = Optimistic::new(uf.len());
    // Per window: the pairs to commit, each flagged "tested up front",
    // and the positions of the up-front ones.
    let mut live: Vec<(usize, bool)> = Vec::with_capacity(WINDOW);
    let mut sure: Vec<usize> = Vec::with_capacity(WINDOW);
    for window in pairs.chunks(WINDOW) {
        planner.next_window();
        live.clear();
        sure.clear();
        for (i, &(a, b, _)) in window.iter().enumerate() {
            let is_sure = if skip_connected {
                let (ra, rb) = (uf.find(a as usize), uf.find(b as usize));
                if ra == rb {
                    continue;
                }
                planner.link(ra, rb)
            } else {
                true
            };
            live.push((i, is_sure));
            if is_sure {
                sure.push(i);
            }
        }
        let verdicts = par_map_range(sure.len(), threads, MIN_TESTS_PER_THREAD, |s| {
            test(&window[sure[s]])
        });
        let mut verdicts = verdicts.into_iter();
        for &(i, is_sure) in &live {
            let pair = &window[i];
            let (a, b) = (pair.0 as usize, pair.1 as usize);
            let hit = if is_sure {
                verdicts.next().expect("one verdict per up-front pair")
            } else if uf.connected(a, b) {
                continue;
            } else {
                test(pair)
            };
            tested += 1;
            if hit {
                passed += 1;
                uf.union(a, b);
            }
        }
    }
    (tested, passed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference: the plain sequential merge loop.
    fn sequential(
        pairs: &[(u32, u32, ())],
        n: usize,
        skip_connected: bool,
        test: impl Fn(usize, usize) -> bool,
    ) -> (Vec<u32>, u64, u64) {
        let mut uf = UnionFind::new(n);
        let (mut tested, mut passed) = (0u64, 0u64);
        for &(a, b, ()) in pairs {
            let (a, b) = (a as usize, b as usize);
            if skip_connected && uf.connected(a, b) {
                continue;
            }
            tested += 1;
            if test(a, b) {
                passed += 1;
                uf.union(a, b);
            }
        }
        (uf.component_ids(), tested, passed)
    }

    fn windowed(
        pairs: &[(u32, u32, ())],
        n: usize,
        threads: usize,
        skip_connected: bool,
        test: impl Fn(usize, usize) -> bool + Sync,
    ) -> (Vec<u32>, u64, u64) {
        let mut uf = UnionFind::new(n);
        let (tested, passed) = merge_in_order(&mut uf, threads, pairs, skip_connected, |p| {
            test(p.0 as usize, p.1 as usize)
        });
        (uf.component_ids(), tested, passed)
    }

    fn all_pairs(n: u32) -> Vec<(u32, u32, ())> {
        (0..n)
            .flat_map(|i| ((i + 1)..n).map(move |j| (i, j, ())))
            .collect()
    }

    /// Components, tested and passed counts equal the sequential loop's
    /// for every thread count, with and without the connected skip.
    fn assert_matches_sequential(
        pairs: &[(u32, u32, ())],
        n: usize,
        test: impl Fn(usize, usize) -> bool + Sync + Copy,
    ) {
        for skip in [true, false] {
            let reference = sequential(pairs, n, skip, test);
            for threads in [1, 2, 3, 8] {
                assert_eq!(
                    windowed(pairs, n, threads, skip, test),
                    reference,
                    "threads={threads} skip_connected={skip}"
                );
            }
        }
    }

    /// All pairs of 40 points, joined iff same parity: the transitive
    /// pairs must be skipped exactly as the sequential loop skips them.
    #[test]
    fn components_match_sequential_for_any_threading() {
        let n = 40usize;
        let pairs = all_pairs(n as u32);
        let test = |a: usize, b: usize| (a % 2) == (b % 2);
        let (ids, _, _) = sequential(&pairs, n, true, test);
        assert_eq!(ids.iter().filter(|&&c| c == 0).count(), n / 2);
        assert_matches_sequential(&pairs, n, test);
    }

    /// Mixed pass/fail predicates over 1,770 pairs, so the pairs span
    /// several windows and chains straddle the window edges.
    #[test]
    fn tested_counts_equal_sequential() {
        let n = 60usize;
        let pairs = all_pairs(n as u32);
        assert!(pairs.len() > 4 * WINDOW);
        for modulo in [2usize, 3, 7] {
            let test =
                move |a: usize, b: usize| (a % modulo) == (b % modulo) && (a * 31 + b) % 5 != 3;
            assert_matches_sequential(&pairs, n, test);
        }
        // All-pass: one spanning tree, n − 1 tests.
        let always = |_: usize, _: usize| true;
        let (_, tested, _) = windowed(&pairs, n, 4, true, always);
        assert_eq!(tested, (n - 1) as u64);
        assert_matches_sequential(&pairs, n, always);
        // All-fail: every pair is tested.
        let never = |_: usize, _: usize| false;
        let (_, tested, _) = windowed(&pairs, n, 4, true, never);
        assert_eq!(tested, pairs.len() as u64);
    }

    /// A chain whose links sit on both sides of a window edge, with a
    /// transitive pair placed right after the edge.
    #[test]
    fn chains_straddling_window_edges_match_sequential() {
        let n = 8usize;
        let mut pairs: Vec<(u32, u32, ())> = Vec::new();
        // Filler pairs that never connect anything new: (6, 7) repeated.
        pairs.extend(std::iter::repeat_n((6, 7, ()), WINDOW - 2));
        pairs.push((0, 1, ())); // last two of window 0
        pairs.push((1, 2, ()));
        pairs.push((0, 2, ())); // first of window 1: transitive
        pairs.push((2, 3, ()));
        pairs.push((3, 4, ()));
        pairs.push((1, 4, ()));
        pairs.push((0, 5, ()));
        for test in [
            |_: usize, _: usize| true,
            |a: usize, b: usize| (a, b) != (1, 2),
            |a: usize, b: usize| !(a + b).is_multiple_of(3),
        ] {
            assert_matches_sequential(&pairs, n, test);
        }
    }

    /// One window holding the chain (A,B), (B,C), (A,C): the transitive
    /// pair is tested only when one of the first two fails.
    #[test]
    fn transitive_pair_within_one_window_is_skipped() {
        let pairs = [(0u32, 1u32, ()), (1, 2, ()), (0, 2, ())];
        let (_, tested, _) = windowed(&pairs, 3, 4, true, |_, _| true);
        assert_eq!(tested, 2, "(0, 2) must be skipped once connected");
        let fail_ab = |a: usize, b: usize| (a, b) != (0, 1);
        let fail_bc = |a: usize, b: usize| (a, b) != (1, 2);
        for fail in [fail_ab, fail_bc] {
            let (_, tested, _) = windowed(&pairs, 3, 4, true, fail);
            assert_eq!(tested, 3, "(0, 2) must be tested once a link fails");
        }
        for test in [|_: usize, _: usize| true, fail_ab, fail_bc] {
            assert_matches_sequential(&pairs, 3, test);
        }
    }
}
