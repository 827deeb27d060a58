//! Bounded per-thread memos for render intermediates.
//!
//! The capture pool rebuilds each simulated system from its factory for
//! every capture, so per-instance caches would never see a second lookup.
//! Sources instead memoize what they render in thread-local maps keyed by
//! content: any thread computes bit-identical values for a key, so sharing
//! cannot perturb thread-count bit-identity.

use fase_dsp::rng::SmallRng;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::thread::LocalKey;

/// A memo never holds more than this many entries; campaigns reuse one or
/// two keys, sweeps a handful per band instance, so the bound only guards
/// against pathological callers. Entries can reach capture size, so the
/// cap also bounds memory.
const MEMO_CAP: usize = 8;

/// A thread-local memo map.
pub(crate) type Memo<K, V> = RefCell<BTreeMap<K, V>>;

/// A memo of random draws: keyed by the generator's starting state plus
/// `K`, storing the drawn value and the state the generator ended at.
pub(crate) type DrawMemo<K, V> = Memo<(u64, K), (V, u64)>;

/// An empty memo, for `thread_local!` initializers.
pub(crate) const fn empty<K, V>() -> Memo<K, V> {
    RefCell::new(BTreeMap::new())
}

/// Returns the value memoized under `key`, or builds, stores and returns
/// it. The map is not borrowed while `build` runs, so `build` may consult
/// other memos. A full map is cleared before the insert.
pub(crate) fn memoize<K: Ord, V: Clone>(
    memo: &'static LocalKey<Memo<K, V>>,
    key: K,
    build: impl FnOnce() -> V,
) -> V {
    if let Some(value) = memo.with(|m| m.borrow().get(&key).cloned()) {
        return value;
    }
    let value = build();
    memo.with(|m| {
        let mut map = m.borrow_mut();
        if map.len() >= MEMO_CAP {
            map.clear();
        }
        map.insert(key, value.clone());
    });
    value
}

/// Memoizes `draw`, a pure function of `rng`'s starting state and `key`.
/// A hit replays the stored value and leaves `rng` at the state the draws
/// ended at, so memoized and unmemoized runs are bit-identical. A
/// long-lived generator advances every call and simply misses.
pub(crate) fn memoize_draws<K: Ord, V: Clone>(
    memo: &'static LocalKey<DrawMemo<K, V>>,
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
