//! Bounded process-wide memos for deterministic, expensive results.
//!
//! A memo maps a content key to a value that is a pure function of the
//! key, so a hit on any thread replays exactly what a miss computes and
//! sharing cannot perturb thread-count bit-identity. Each memo names its
//! capacity and the counters its traffic counts into where it is
//! declared.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A process-wide memo map, for `static` declarations.
#[derive(Debug)]
pub struct Memo<K, V> {
    map: Mutex<BTreeMap<K, V>>,
    cap: usize,
    hits: &'static str,
    misses: &'static str,
}

impl<K, V> Memo<K, V> {
    /// An empty memo holding at most `cap` entries whose hits and misses
    /// count into the global recorder's `hits` and `misses` counters.
    pub const fn new(cap: usize, hits: &'static str, misses: &'static str) -> Memo<K, V> {
        Memo {
            map: Mutex::new(BTreeMap::new()),
            cap,
            hits,
            misses,
        }
    }
}

fn lock<K, V>(memo: &Memo<K, V>) -> MutexGuard<'_, BTreeMap<K, V>> {
    // Entries are inserted whole, so a panic elsewhere cannot leave one
    // half-written.
    memo.map.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Returns the value memoized under `key`, or builds, stores and returns
/// it. No lock is held while `build` runs, so `build` may consult other
/// memos; two threads that miss together both build the same value, and
/// the first insert wins. A full map is cleared before inserting a new
/// key.
pub fn memoize<K: Ord, V: Clone>(memo: &Memo<K, V>, key: K, build: impl FnOnce() -> V) -> V {
    let hit = lock(memo).get(&key).cloned();
    if let Some(value) = hit {
        fase_obs::Recorder::global().count(memo.hits, 1);
        return value;
    }
    fase_obs::Recorder::global().count(memo.misses, 1);
    let value = build();
    let mut map = lock(memo);
    // The key may have landed while `build` ran; re-storing it must not
    // clear a full map of live entries.
    if map.len() >= memo.cap && !map.contains_key(&key) {
        map.clear();
    }
    map.entry(key).or_insert(value).clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAP: usize = 8;

    fn memo() -> Memo<usize, usize> {
        Memo::new(CAP, "test.memo_hits", "test.memo_misses")
    }

    #[test]
    fn a_key_stored_while_building_does_not_clear_a_full_memo() {
        let memo = memo();
        for k in 0..CAP - 1 {
            assert_eq!(memoize(&memo, k, || k), k);
        }
        // Another thread builds and stores the same key while this one
        // builds: the second insert finds the map full but holding the key.
        let key = CAP - 1;
        let value = memoize(&memo, key, || memoize(&memo, key, || 7));
        assert_eq!(value, 7);
        let map = lock(&memo);
        assert_eq!(map.len(), CAP);
        assert!((0..CAP).all(|k| map.contains_key(&k)));
    }

    #[test]
    fn a_full_memo_is_cleared_before_a_new_key() {
        let memo = memo();
        for k in 0..=CAP {
            memoize(&memo, k, || k);
        }
        let map = lock(&memo);
        assert_eq!(map.keys().copied().collect::<Vec<_>>(), vec![CAP]);
    }
}
