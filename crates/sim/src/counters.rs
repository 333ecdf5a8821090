//! Named statistics counters, interned for hot-path speed.
//!
//! The protocol claims in the paper are partly *count* claims — e.g. the
//! NIC-based collective protocol "reduces the number of total packets by
//! half" because ACKs are replaced by receiver-driven NACKs. Components bump
//! named counters through [`crate::Ctx::count`] / [`crate::Ctx::count_id`];
//! tests and `BarrierStats` read them back by name to verify those claims.
//! This is the crate's only interned name table: counter names come from
//! call sites across every backend, while histograms and profiler totals
//! have fixed names and live in plain fields.
//!
//! ## Interning
//!
//! Counter names are `&'static str`, interned once per process into dense
//! [`CounterId`] slots. A [`Counters`] set is then just a `Vec<u64>`, so the
//! per-event hot path is a single indexed add — no string hashing, no tree
//! walk. The [`crate::counter_id!`] macro caches the id in a per-call-site
//! atomic, making repeated bumps of the same counter branch-predictable:
//!
//! ```
//! use nicbar_sim::{counter_id, Counters};
//!
//! let mut c = Counters::new();
//! c.add_id(counter_id!("pkt.sent"), 1); // interns once, then atomic load
//! assert_eq!(c.get("pkt.sent"), 1);
//! ```
//!
//! Ids are process-global (two engines running in parallel share the name
//! table but not the values), and reporting ([`Counters::iter`]) is
//! name-ordered. Counters whose value is zero are not reported.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// Dense index of an interned counter name. Obtain one with [`intern`] or
/// the [`crate::counter_id!`] macro.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CounterId(u32);

impl CounterId {
    /// The dense slot index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The interned name.
    pub fn name(self) -> &'static str {
        registry().lock().expect("counter registry poisoned").names[self.index()]
    }
}

/// Process-wide name table: dense id → name, plus the reverse lookup.
struct Registry {
    names: Vec<&'static str>,
    lookup: BTreeMap<&'static str, CounterId>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            names: Vec::new(),
            lookup: BTreeMap::new(),
        })
    })
}

/// Intern `name`, returning its process-wide dense id (idempotent).
pub fn intern(name: &'static str) -> CounterId {
    let mut reg = registry().lock().expect("counter registry poisoned");
    if let Some(&id) = reg.lookup.get(name) {
        return id;
    }
    let id = CounterId(u32::try_from(reg.names.len()).expect("counter name table overflow"));
    reg.names.push(name);
    reg.lookup.insert(name, id);
    id
}

/// Look up `name` without interning it (None if never interned).
fn lookup(name: &str) -> Option<CounterId> {
    registry()
        .lock()
        .expect("counter registry poisoned")
        .lookup
        .get(name)
        .copied()
}

/// Intern a counter name with a per-call-site cache: the first execution
/// takes the registry lock, every later one is a relaxed atomic load. Use
/// this for counters bumped on hot paths.
#[macro_export]
macro_rules! counter_id {
    ($name:expr) => {{
        use ::std::sync::atomic::{AtomicU32, Ordering};
        static CACHE: AtomicU32 = AtomicU32::new(u32::MAX);
        let cached = CACHE.load(Ordering::Relaxed);
        if cached != u32::MAX {
            $crate::counters::CounterId::from_raw(cached)
        } else {
            let id = $crate::counters::intern($name);
            CACHE.store(id.index() as u32, Ordering::Relaxed);
            id
        }
    }};
}

impl CounterId {
    /// Rebuild an id from its raw index. Only meant for the
    /// [`crate::counter_id!`] macro's cache; feeding an index that was never
    /// returned by [`intern`] will panic on first name resolution.
    #[doc(hidden)]
    #[inline]
    pub fn from_raw(raw: u32) -> Self {
        CounterId(raw)
    }
}

/// A set of named monotonically increasing `u64` counters.
///
/// Values live in dense slots indexed by [`CounterId`]; the hot-path
/// [`Counters::add_id`] is a bounds-checked vector add.
#[derive(Default, Clone)]
pub struct Counters {
    slots: Vec<u64>,
}

impl Counters {
    /// Create an empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `amount` to the counter with interned id `id`. This is the hot
    /// path: one branch (slot-table growth) and one indexed add.
    #[inline]
    pub fn add_id(&mut self, id: CounterId, amount: u64) {
        let idx = id.index();
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, 0);
        }
        self.slots[idx] += amount;
    }

    /// Add `amount` to counter `key`, interning it first (cold-path
    /// convenience; hot call sites should use [`crate::counter_id!`] +
    /// [`Counters::add_id`]).
    #[inline]
    pub fn add(&mut self, key: &'static str, amount: u64) {
        self.add_id(intern(key), amount);
    }

    /// Current value of `key` (zero if never bumped).
    pub fn get(&self, key: &str) -> u64 {
        lookup(key)
            .and_then(|id| self.slots.get(id.index()).copied())
            .unwrap_or(0)
    }

    /// Current value for an interned id (zero if never bumped here).
    #[inline]
    pub fn get_id(&self, id: CounterId) -> u64 {
        self.slots.get(id.index()).copied().unwrap_or(0)
    }

    /// Iterate over `(name, value)` pairs of non-zero counters in name
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.collect_named().into_iter()
    }

    /// Name-ordered `(name, value)` pairs of the non-zero counters.
    fn collect_named(&self) -> Vec<(&'static str, u64)> {
        let reg = registry().lock().expect("counter registry poisoned");
        // The lookup map iterates in name order; slots beyond our table or
        // never bumped read as zero and are skipped.
        reg.lookup
            .iter()
            .filter_map(|(&name, &id)| {
                let v = self.slots.get(id.index()).copied().unwrap_or(0);
                (v > 0).then_some((name, v))
            })
            .collect()
    }

    /// Reset every counter to zero.
    pub fn clear(&mut self) {
        self.slots.clear();
    }

    /// Move every count into `target` (element-wise add) and zero `self`.
    /// Used by the parallel engine to fold per-shard counters into the
    /// merged set after each run; ids are process-global, so slot indices
    /// agree across instances.
    pub fn drain_into(&mut self, target: &mut Counters) {
        if target.slots.len() < self.slots.len() {
            target.slots.resize(self.slots.len(), 0);
        }
        for (idx, slot) in self.slots.iter_mut().enumerate() {
            target.slots[idx] += *slot;
            *slot = 0;
        }
    }
}

impl fmt::Debug for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.collect_named()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get() {
        let mut c = Counters::new();
        assert_eq!(c.get("pkt"), 0);
        c.add("pkt", 1);
        c.add("pkt", 4);
        assert_eq!(c.get("pkt"), 5);
    }

    #[test]
    fn interned_ids_are_stable_and_fast_path_matches() {
        let a = intern("stable.counter");
        let b = intern("stable.counter");
        assert_eq!(a, b);
        assert_eq!(a.name(), "stable.counter");
        let mut c = Counters::new();
        c.add_id(a, 3);
        c.add("stable.counter", 2);
        assert_eq!(c.get("stable.counter"), 5);
        assert_eq!(c.get_id(a), 5);
    }

    #[test]
    fn counter_id_macro_caches() {
        let mut c = Counters::new();
        for _ in 0..10 {
            c.add_id(counter_id!("macro.cached"), 1);
        }
        assert_eq!(c.get("macro.cached"), 10);
        assert_eq!(counter_id!("macro.cached"), intern("macro.cached"));
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut c = Counters::new();
        c.add("zeta", 1);
        c.add("alpha", 1);
        c.add("mid", 1);
        let names: Vec<&str> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn zero_valued_counters_are_not_reported() {
        // Other tests intern names freely into the shared process-wide
        // table; a fresh Counters instance must still report nothing.
        intern("ghost.counter");
        let mut c = Counters::new();
        c.add("ghost.counter", 0);
        assert!(c.iter().next().is_none());
    }

    #[test]
    fn instances_do_not_share_values() {
        let id = intern("shared.name");
        let mut a = Counters::new();
        let mut b = Counters::new();
        a.add_id(id, 5);
        b.add_id(id, 7);
        assert_eq!(a.get_id(id), 5);
        assert_eq!(b.get_id(id), 7);
    }

    #[test]
    fn drain_into_folds_and_zeroes() {
        let mut shard = Counters::new();
        let mut base = Counters::new();
        shard.add("drain.a", 5);
        shard.add("drain.b", 2);
        base.add("drain.a", 1);
        shard.drain_into(&mut base);
        assert_eq!(base.get("drain.a"), 6);
        assert_eq!(base.get("drain.b"), 2);
        assert_eq!(shard.get("drain.a"), 0);
        assert!(shard.iter().next().is_none());
        // Draining again is a no-op.
        shard.drain_into(&mut base);
        assert_eq!(base.get("drain.a"), 6);
    }

    #[test]
    fn clear_resets() {
        let mut c = Counters::new();
        c.add("a", 1);
        c.clear();
        assert_eq!(c.get("a"), 0);
    }
}
