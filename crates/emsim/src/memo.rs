//! Bounded process-wide memos for render intermediates.
//!
//! The capture pool rebuilds each simulated system from its factory for
//! every capture, and spawns fresh workers for every campaign and sweep
//! band, so neither per-instance nor per-thread caches would see a second
//! lookup. Sources instead memoize what they render in process-wide maps
//! keyed by content: any thread computes bit-identical values for a key,
//! so sharing cannot perturb thread-count bit-identity. Traffic counts
//! into `emsim.memo_hits` / `emsim.memo_misses`.

use fase_dsp::rng::SmallRng;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A memo never holds more than this many entries. A campaign needs one
/// key per memo and capture geometry; an 8-band sweep needs eight, which
/// fills the cap, so a sweep alternating with work of another geometry
/// re-renders its bands. Entries can reach capture size, so the cap also
/// bounds memory.
const MEMO_CAP: usize = 8;

/// A process-wide memo map.
pub(crate) type Memo<K, V> = Mutex<BTreeMap<K, V>>;

/// A memo of random draws: keyed by the generator's starting state plus
/// `K`, storing the drawn value and the state the generator ended at.
pub(crate) type DrawMemo<K, V> = Memo<(u64, K), (V, u64)>;

/// An empty memo, for `static` initializers.
pub(crate) const fn empty<K, V>() -> Memo<K, V> {
    Mutex::new(BTreeMap::new())
}

fn lock<K, V>(memo: &Memo<K, V>) -> MutexGuard<'_, BTreeMap<K, V>> {
    // Entries are inserted whole, so a panic elsewhere cannot leave one
    // half-written.
    memo.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Returns the value memoized under `key`, or builds, stores and returns
/// it. No lock is held while `build` runs, so `build` may consult other
/// memos; two threads that miss together both build the same value, and
/// the first insert wins. A full map is cleared before inserting a new
/// key.
pub(crate) fn memoize<K: Ord, V: Clone>(memo: &Memo<K, V>, key: K, build: impl FnOnce() -> V) -> V {
    // Scope the lookup's guard so the lock is released before a miss
    // builds.
    let hit = {
        let map = lock(memo);
        map.get(&key).cloned()
    };
    if let Some(value) = hit {
        fase_obs::Recorder::global().count("emsim.memo_hits", 1);
        return value;
    }
    fase_obs::Recorder::global().count("emsim.memo_misses", 1);
    let value = build();
    let mut map = lock(memo);
    // The key may have landed while `build` ran; re-storing it must not
    // clear a full map of live entries.
    if map.len() >= MEMO_CAP && !map.contains_key(&key) {
        map.clear();
    }
    map.entry(key).or_insert(value).clone()
}

/// Memoizes `draw`, a pure function of `rng`'s starting state and `key`.
/// A hit replays the stored value and leaves `rng` at the state the draws
/// ended at, so memoized and unmemoized runs are bit-identical. A
/// long-lived generator advances every call and simply misses.
pub(crate) fn memoize_draws<K: Ord, V: Clone>(
    memo: &DrawMemo<K, V>,
    rng: &mut SmallRng,
    key: K,
    draw: impl FnOnce(&mut SmallRng) -> V,
) -> V {
    let (value, end_state) = memoize(memo, (rng.state(), key), || {
        let value = draw(rng);
        (value, rng.state())
    });
    *rng = SmallRng::seed_from_u64(end_state);
    value
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_key_stored_while_building_does_not_clear_a_full_memo() {
        let memo: Memo<usize, usize> = empty();
        for k in 0..MEMO_CAP - 1 {
            assert_eq!(memoize(&memo, k, || k), k);
        }
        // Another thread builds and stores the same key while this one
        // builds: the second insert finds the map full but holding the key.
        let key = MEMO_CAP - 1;
        let value = memoize(&memo, key, || memoize(&memo, key, || 7));
        assert_eq!(value, 7);
        let map = lock(&memo);
        assert_eq!(map.len(), MEMO_CAP);
        assert!((0..MEMO_CAP).all(|k| map.contains_key(&k)));
    }

    #[test]
    fn a_full_memo_is_cleared_before_a_new_key() {
        let memo: Memo<usize, usize> = empty();
        for k in 0..=MEMO_CAP {
            memoize(&memo, k, || k);
        }
        let map = lock(&memo);
        assert_eq!(map.keys().copied().collect::<Vec<_>>(), vec![MEMO_CAP]);
    }
}
