//! The event queue: an indexed 4-ary min-heap over content-based keys.
//!
//! Events are ordered by a *content-based* 128-bit key: simulated time in
//! the high 64 bits and a `(source, per-source count)` subkey in the low 64
//! (see `crate::engine`). The key is a pure function of *who scheduled the
//! event and when*, never of global insertion order — so the same event
//! gets the same key whether the simulation runs on one thread or is
//! sharded across many, and the pop order is the total order of keys
//! regardless of the order pushes happened to arrive in. That property is
//! what lets the parallel engine (`crate::parallel`) drain per-shard queues
//! independently and still reproduce the sequential engine byte for byte,
//! and it is why the queue can be swapped without moving a simulated
//! result: it only orders keys.
//!
//! ## Why the indexed 4-ary heap
//!
//! * **Shallower**: a 4-ary heap has half the depth of a binary heap, so a
//!   pop does half the levels of sift-down work; the four children of node
//!   `i` (`4i+1..4i+4`) sit in adjacent cache lines.
//! * **Indexed**: keys (16 bytes) live in one dense vector and are all the
//!   sift loops ever touch; message payloads sit in a slab addressed by a
//!   parallel `u32` slot vector, so growing `M` never slows the comparisons.
//! * **Batched**: `EventQueue::push_batch` appends a whole burst of
//!   events and restores the heap in one pass, using Floyd's bottom-up
//!   heapify when the batch dominates the existing contents.
//! * **One walk per event**: `EventQueue::pop` hands out the root's event
//!   and leaves the root vacant. The next `push` writes its key into the
//!   root and sifts it down; in the engine that push is almost always the
//!   delivered handler's first send, so a delivery costs one walk, not a
//!   removal walk plus an insertion walk. Only a `pop` or `push_batch` that
//!   finds the root still vacant removes it the classic way: walk the hole
//!   to a leaf along min-children, then sift the displaced last element up.
//!   `len` and `peek_time` read through the vacancy.
//! * **Branch-free**: which of four siblings is smallest is data-dependent,
//!   so a compare-and-branch scan mispredicts often. The minimum comes from
//!   a 2-2-1 tournament of [`std::hint::select_unpredictable`], shared by
//!   both walks.
//!
//! Not a timing wheel: real runs keep timers armed far past any short
//! window (every GM NIC's 50 µs `TimerCheck`), so a wheel's overflow is
//! never empty and each pop consults two structures. Measured end to end,
//! the heap beat the wheel on every benchmark workload (DESIGN.md,
//! "Performance: hot-path design").

use crate::engine::ComponentId;
use crate::time::SimTime;
use std::sync::atomic::Ordering as AtomicOrd;

/// Pack an event key: time in the high 64 bits, subkey in the low 64.
#[inline(always)]
pub(crate) fn pack(time: SimTime, subkey: u64) -> u128 {
    ((time.as_ns() as u128) << 64) | subkey as u128
}

/// The time half of a packed key.
#[inline(always)]
pub(crate) fn key_time(key: u128) -> SimTime {
    SimTime::from_ns((key >> 64) as u64)
}

/// A pending event as handed back by a queue pop.
pub(crate) struct PoppedEvent<M> {
    pub key: u128,
    pub time: SimTime,
    pub target: ComponentId,
    pub msg: M,
}

/// The engine's event queue: a 4-ary min-heap over packed keys with
/// payloads in a slab. Keys are assigned by the engine, so the queue is a
/// pure priority structure with no ordering state of its own.
pub(crate) struct EventQueue<M> {
    /// Heap-ordered packed `(time, subkey)` keys.
    keys: Vec<u128>,
    /// Parallel to `keys`: slab slot of each event's payload.
    slots: Vec<u32>,
    /// Payload slab; `None` entries are free.
    payload: Vec<Option<(ComponentId, M)>>,
    /// Free slab slots.
    free: Vec<u32>,
    /// The root's event was handed out by [`EventQueue::pop`], but its key
    /// still sits at index 0: the next `push` overwrites it and sifts down,
    /// and the next `pop` or `push_batch` settles the heap first.
    vacant: bool,
}

const ARITY: usize = 4;

/// Index and key of the minimum among the children that start at `first`
/// (at most [`ARITY`] of them, clipped to the heap). A full group of four
/// runs a branch-free 2-2-1 tournament, because which child wins is
/// data-dependent and a branch on it mispredicts often. Ties go to the
/// lower index, as in a left-to-right scan.
#[inline(always)]
fn min_child(keys: &[u128], first: usize) -> (usize, u128) {
    use std::hint::select_unpredictable as select;
    if let Some(&[a, b, c, d]) = keys.get(first..first + ARITY) {
        let right = b < a;
        let (i01, k01) = (select(right, first + 1, first), select(right, b, a));
        let right = d < c;
        let (i23, k23) = (select(right, first + 3, first + 2), select(right, d, c));
        let right = k23 < k01;
        return (select(right, i23, i01), select(right, k23, k01));
    }
    // The last, partial group: at most once per walk.
    let mut best = first;
    let mut best_key = keys[first];
    for (c, &k) in keys.iter().enumerate().skip(first + 1) {
        if k < best_key {
            best = c;
            best_key = k;
        }
    }
    (best, best_key)
}

impl<M> EventQueue<M> {
    pub fn new() -> Self {
        EventQueue {
            keys: Vec::new(),
            slots: Vec::new(),
            payload: Vec::new(),
            free: Vec::new(),
            vacant: false,
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len() - usize::from(self.vacant)
    }

    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.vacant {
            // Heap order below the vacant root: the next event is the
            // least of its children.
            self.keys[1..]
                .iter()
                .take(ARITY)
                .min()
                .map(|&k| key_time(k))
        } else {
            self.keys.first().map(|&k| key_time(k))
        }
    }

    /// Store a payload, returning its slab slot.
    #[inline]
    fn store(&mut self, target: ComponentId, msg: M) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.payload[slot as usize] = Some((target, msg));
                slot
            }
            None => {
                let slot = u32::try_from(self.payload.len()).expect("event slab overflow");
                self.payload.push(Some((target, msg)));
                slot
            }
        }
    }

    /// Insert one event. A vacant root takes it and sifts it down, so a
    /// handler's first send finishes the walk its delivery's `pop` skipped.
    #[inline]
    pub fn push(&mut self, key: u128, target: ComponentId, msg: M) {
        let slot = self.store(target, msg);
        if self.vacant {
            self.vacant = false;
            self.keys[0] = key;
            self.slots[0] = slot;
            self.sift_down(0);
        } else {
            self.keys.push(key);
            self.slots.push(slot);
            self.sift_up(self.keys.len() - 1);
        }
    }

    /// Insert a batch of already-keyed events in one pass. When the batch is
    /// at least as large as the existing heap, appending everything and
    /// rebuilding bottom-up (Floyd) is cheaper than per-element sift-up.
    pub fn push_batch(&mut self, batch: impl Iterator<Item = (u128, ComponentId, M)>) {
        self.settle();
        let before = self.keys.len();
        for (key, target, msg) in batch {
            let slot = self.store(target, msg);
            self.keys.push(key);
            self.slots.push(slot);
        }
        let added = self.keys.len() - before;
        if added == 0 {
            return;
        }
        if added >= before {
            // Floyd's heap construction: sift down every internal node.
            for i in (0..self.keys.len() / ARITY + 1).rev() {
                self.sift_down(i);
            }
        } else {
            for i in before..self.keys.len() {
                self.sift_up(i);
            }
        }
    }

    /// Hand out the earliest event and leave the root vacant for the next
    /// `push` to refill.
    #[inline]
    pub fn pop(&mut self) -> Option<PoppedEvent<M>> {
        self.settle();
        let &key = self.keys.first()?;
        let slot = self.slots[0];
        self.vacant = true;
        let (target, msg) = self.payload[slot as usize]
            .take()
            .expect("heap slot had no payload");
        self.free.push(slot);
        Some(PoppedEvent {
            key,
            time: key_time(key),
            target,
            msg,
        })
    }

    /// Remove a vacant root: walk the hole to the bottom along min-children
    /// without comparing against the displaced last element, then sift that
    /// element up from there. It almost always belongs near the bottom, so
    /// the sift-up is short.
    #[inline]
    fn settle(&mut self) {
        if !self.vacant {
            return;
        }
        self.vacant = false;
        let last_key = self.keys.pop().expect("vacant root in an empty heap");
        let last_slot = self.slots.pop().expect("vacant root in an empty heap");
        if !self.keys.is_empty() {
            let hole = self.hole_to_bottom();
            self.keys[hole] = last_key;
            self.slots[hole] = last_slot;
            self.sift_up(hole);
        }
    }

    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        let key = self.keys[i];
        let slot = self.slots[i];
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.keys[parent] <= key {
                break;
            }
            self.keys[i] = self.keys[parent];
            self.slots[i] = self.slots[parent];
            i = parent;
        }
        self.keys[i] = key;
        self.slots[i] = slot;
    }

    /// Move the hole at the root down to a leaf, always following the
    /// minimum child, and return the leaf position of the hole.
    #[inline]
    fn hole_to_bottom(&mut self) -> usize {
        let len = self.keys.len();
        let mut i = 0;
        loop {
            let first_child = i * ARITY + 1;
            if first_child >= len {
                return i;
            }
            let (best, best_key) = min_child(&self.keys, first_child);
            self.keys[i] = best_key;
            self.slots[i] = self.slots[best];
            i = best;
        }
    }

    #[inline]
    fn sift_down(&mut self, mut i: usize) {
        let len = self.keys.len();
        if i >= len {
            return;
        }
        let key = self.keys[i];
        let slot = self.slots[i];
        loop {
            let first_child = i * ARITY + 1;
            if first_child >= len {
                break;
            }
            let (best, best_key) = min_child(&self.keys, first_child);
            if best_key >= key {
                break;
            }
            self.keys[i] = best_key;
            self.slots[i] = self.slots[best];
            i = best;
        }
        self.keys[i] = key;
        self.slots[i] = slot;
    }
}

// ---------------------------------------------------------------------------
// Bounded SPSC ring — the lock-free cross-shard mailbox transport
// ---------------------------------------------------------------------------

/// A bounded single-producer single-consumer ring queue.
///
/// This is the transport under the parallel engine's cross-shard mailboxes
/// (`crate::parallel`): each `(from, to)` shard pair owns one ring for full
/// batches and one for recycled empties, so a deposit is one `Release`
/// store and a drain one `Acquire` load — no mutex, no syscall, no
/// contention with any third shard. The two-barrier window protocol
/// guarantees at most one undrained batch per pair per window, so a tiny
/// fixed capacity suffices and `push` failure is a protocol violation, not
/// a flow-control event.
///
/// Safety model: `head` (consumer cursor) and `tail` (producer cursor) are
/// monotonically increasing and each is written by exactly one side. A slot
/// at index `i` is owned by the producer when `i - head < capacity` and
/// `i >= tail`, and by the consumer when `head <= i < tail`; the
/// Acquire/Release pair on the cursor the *other* side reads transfers
/// ownership of the slot's contents. The cursors sit on separate cache
/// lines so the two sides never false-share.
pub(crate) struct SpscRing<T> {
    slots: Box<[std::cell::UnsafeCell<std::mem::MaybeUninit<T>>]>,
    /// Next slot to pop (written by the consumer only).
    head: CacheAligned,
    /// Next slot to push (written by the producer only).
    tail: CacheAligned,
}

/// A `u64` cursor padded to a cache line, so the producer's and consumer's
/// cursors never share one.
#[repr(align(64))]
#[derive(Default)]
struct CacheAligned(std::sync::atomic::AtomicU64);

// SAFETY: the ring hands each `T` from exactly one thread to exactly one
// other thread with Acquire/Release ordering on the cursor stores (the same
// contract as a channel), so it is `Sync` whenever `T` may move between
// threads.
unsafe impl<T: Send> Sync for SpscRing<T> {}

impl<T> SpscRing<T> {
    /// An empty ring holding at most `capacity` items (must be nonzero).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity ring can never transfer");
        SpscRing {
            slots: (0..capacity)
                .map(|_| std::cell::UnsafeCell::new(std::mem::MaybeUninit::uninit()))
                .collect(),
            head: CacheAligned::default(),
            tail: CacheAligned::default(),
        }
    }

    /// Number of items currently in flight (approximate under concurrency:
    /// exact from either endpoint's own perspective).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        let tail = self.tail.0.load(AtomicOrd::Acquire);
        let head = self.head.0.load(AtomicOrd::Acquire);
        tail.saturating_sub(head) as usize
    }

    /// Whether the ring is currently empty (same caveat as [`Self::len`]).
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Producer side: append `value`, or hand it back if the ring is full.
    ///
    /// Must only be called by the single producer thread of this ring.
    pub fn push(&self, value: T) -> Result<(), T> {
        let tail = self.tail.0.load(AtomicOrd::Relaxed);
        let head = self.head.0.load(AtomicOrd::Acquire);
        if tail - head >= self.slots.len() as u64 {
            return Err(value);
        }
        let slot = &self.slots[(tail % self.slots.len() as u64) as usize];
        // SAFETY: `tail - head < capacity` means this slot's previous
        // occupant (if any) was popped — the consumer's Release store of
        // `head`, which we Acquire-loaded above, transferred the empty slot
        // back to us. We are the only producer, so nobody else writes it.
        unsafe { (*slot.get()).write(value) };
        self.tail.0.store(tail + 1, AtomicOrd::Release);
        Ok(())
    }

    /// Consumer side: take the oldest item, if any.
    ///
    /// Must only be called by the single consumer thread of this ring.
    pub fn pop(&self) -> Option<T> {
        let head = self.head.0.load(AtomicOrd::Relaxed);
        let tail = self.tail.0.load(AtomicOrd::Acquire);
        if head == tail {
            return None;
        }
        let slot = &self.slots[(head % self.slots.len() as u64) as usize];
        // SAFETY: `head < tail` and the Acquire load of `tail` make the
        // producer's write of this slot visible; advancing `head` below
        // hands the emptied slot back. We are the only consumer.
        let value = unsafe { (*slot.get()).assume_init_read() };
        self.head.0.store(head + 1, AtomicOrd::Release);
        Some(value)
    }
}

impl<T> Drop for SpscRing<T> {
    fn drop(&mut self) {
        // Exclusive access: pop and drop whatever is still in flight.
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Single-source key generator: reproduces the classic "global insertion
    /// order" tie-break the engine's per-source counts generalize.
    struct KeyGen {
        count: u64,
    }

    impl KeyGen {
        fn new() -> Self {
            KeyGen { count: 0 }
        }
        fn key(&mut self, t: u64) -> u128 {
            let k = pack(SimTime::from_ns(t), self.count);
            self.count += 1;
            k
        }
    }

    /// The trivially correct reference: a `Vec` kept sorted by key.
    #[derive(Default)]
    struct SortedVec {
        events: Vec<(u128, ComponentId, u64)>,
    }

    impl SortedVec {
        fn push(&mut self, key: u128, target: ComponentId, msg: u64) {
            let at = self.events.partition_point(|e| e.0 < key);
            self.events.insert(at, (key, target, msg));
        }
        fn pop(&mut self) -> Option<(u128, ComponentId, u64)> {
            (!self.events.is_empty()).then(|| self.events.remove(0))
        }
        fn peek_time(&self) -> Option<SimTime> {
            self.events.first().map(|e| key_time(e.0))
        }
    }

    proptest! {
        /// Random operation sequences leave the heap and the sorted-`Vec`
        /// reference in the same observable state after every step: same
        /// popped event, same `peek_time`, same `len`.
        ///
        /// Subkeys are engine-shaped, `(source << 40) | count` with a
        /// global count, so keys are unique and a later push from a lower
        /// source carries a smaller subkey than an earlier one (same-time
        /// descending subkeys); a dedicated op pushes such a burst at one
        /// instant. Times are drawn relative to the last pop, with a
        /// far-future option, and batches are drawn both larger than the
        /// current length (Floyd rebuild) and smaller (per-element
        /// sift-up). A handler-shaped op pops and then pushes 0-3 events,
        /// the first of which refills the vacant root, and a prefill grows
        /// the heap past 1,100 events, five levels with full sibling groups
        /// at every one.
        #[test]
        fn heap_matches_sorted_vec_reference(
            ops in prop::collection::vec((0u32..12, 0u64..64, 0u64..16, 0usize..24), 1..160),
        ) {
            let mut heap = EventQueue::<u64>::new();
            let mut reference = SortedVec::default();
            let mut count = 0u64;
            let mut now = 0u64;
            // An engine-shaped event: the payload is the (unique) subkey.
            let mut event = |t: u64, source: u64| {
                count += 1;
                let subkey = (source << 40) | count;
                (pack(SimTime::from_ns(t), subkey), ComponentId(source as usize), subkey)
            };
            for &(op, dt, source, n) in &ops {
                let pushes: Vec<(u128, ComponentId, u64)> = match op {
                    // A push a few ns ahead of the clock.
                    0..=2 => vec![event(now + dt, source)],
                    // A far-future timer.
                    3 => vec![event(now + 50_000 + dt * 1_000, source)],
                    // A same-time burst from descending sources.
                    4 => (0..n as u64 % 6 + 2).rev().map(|s| event(now + dt, s)).collect(),
                    _ => Vec::new(),
                };
                for &(k, target, msg) in &pushes {
                    heap.push(k, target, msg);
                    reference.push(k, target, msg);
                }
                match op {
                    // A batch larger than the heap (Floyd) or smaller
                    // (sift-up); capped so repeated doubling stays small.
                    5 | 6 => {
                        let len = heap.len();
                        let size = if op == 5 && len < 256 { len + 1 + n } else { n.min(len / 2) };
                        let batch: Vec<(u128, ComponentId, u64)> = (0..size as u64)
                            .map(|i| event(now + (dt * 7 + i * 13) % 97, (source + i) % 16))
                            .collect();
                        for &(k, target, msg) in &batch {
                            reference.push(k, target, msg);
                        }
                        heap.push_batch(batch.into_iter());
                    }
                    // Pops outnumber peeks so the queue drains now and then.
                    // 10 is a delivery: the handler then sends 0-3 events at
                    // `now`, a little after it, or far in the future.
                    7 | 8 | 10 => {
                        let got = heap.pop();
                        if let Some(e) = &got {
                            prop_assert_eq!(e.time, key_time(e.key));
                            now = e.time.as_ns();
                        }
                        prop_assert_eq!(got.map(|e| (e.key, e.target, e.msg)), reference.pop());
                        if op == 10 {
                            for i in 0..n as u64 % 4 {
                                let t = match (source + i) % 3 {
                                    0 => now,
                                    1 => now + dt,
                                    _ => now + 50_000 + dt * 1_000,
                                };
                                let (k, target, msg) = event(t, source);
                                heap.push(k, target, msg);
                                reference.push(k, target, msg);
                            }
                        }
                    }
                    // Grow past 1,100 events, spread over 100 us.
                    11 => {
                        let mut i = 0u64;
                        while heap.len() < 1_100 + n {
                            let t = now + (dt * 131 + i * 7_919) % 100_000;
                            let (k, target, msg) = event(t, (source + i) % 16);
                            heap.push(k, target, msg);
                            reference.push(k, target, msg);
                            i += 1;
                        }
                    }
                    // 0..=4 pushed above; 9 is a bare peek, checked below.
                    _ => {}
                }
                prop_assert_eq!(heap.peek_time(), reference.peek_time());
                prop_assert_eq!(heap.len(), reference.events.len());
            }
            while let Some(e) = heap.pop() {
                prop_assert_eq!(Some((e.key, e.target, e.msg)), reference.pop());
            }
            prop_assert!(reference.pop().is_none());
        }
    }

    /// A heap and its sorted reference holding the same `n` events, at
    /// scrambled times so that heap order is not insertion order.
    fn filled(n: u64) -> (EventQueue<u64>, SortedVec, KeyGen) {
        let mut heap = EventQueue::new();
        let mut reference = SortedVec::default();
        let mut gen = KeyGen::new();
        for i in 0..n {
            let k = gen.key(i * 37 % n * 10);
            heap.push(k, ComponentId(i as usize), i);
            reference.push(k, ComponentId(i as usize), i);
        }
        (heap, reference, gen)
    }

    /// Pop one event from each and check that they agree.
    fn pop_both(heap: &mut EventQueue<u64>, reference: &mut SortedVec) {
        let got = heap.pop().map(|e| (e.key, e.target, e.msg));
        assert_eq!(got, reference.pop());
    }

    /// Drain both, checking `len`, `peek_time` and the popped event at
    /// every step.
    fn assert_drains_alike(heap: &mut EventQueue<u64>, reference: &mut SortedVec) {
        loop {
            assert_eq!(heap.len(), reference.events.len());
            assert_eq!(heap.peek_time(), reference.peek_time());
            if reference.events.is_empty() {
                assert!(heap.pop().is_none());
                return;
            }
            pop_both(heap, reference);
        }
    }

    #[test]
    fn pop_without_push_keeps_len_and_peek_exact() {
        let (mut heap, mut reference, _) = filled(40);
        pop_both(&mut heap, &mut reference);
        assert_eq!(heap.len(), 39);
        assert_eq!(heap.peek_time(), reference.peek_time());
        assert_drains_alike(&mut heap, &mut reference);

        // The only event: its pop leaves nothing to peek.
        let (mut heap, mut reference, _) = filled(1);
        pop_both(&mut heap, &mut reference);
        assert_eq!(heap.len(), 0);
        assert_eq!(heap.peek_time(), None);
        assert!(heap.pop().is_none());
    }

    #[test]
    fn pop_then_pop_settles_the_vacant_root() {
        let (mut heap, mut reference, _) = filled(40);
        pop_both(&mut heap, &mut reference);
        pop_both(&mut heap, &mut reference);
        assert_drains_alike(&mut heap, &mut reference);
    }

    #[test]
    fn pop_then_push_batch_settles_first() {
        let (mut heap, mut reference, mut gen) = filled(40);
        // A batch smaller than the heap (sift-up), then one larger (Floyd).
        for size in [5u64, 80] {
            pop_both(&mut heap, &mut reference);
            let batch: Vec<(u128, ComponentId, u64)> = (0..size)
                .map(|i| (gen.key(i * 53 % 400), ComponentId(0), 1_000 + i))
                .collect();
            for &(k, target, msg) in &batch {
                reference.push(k, target, msg);
            }
            heap.push_batch(batch.into_iter());
            assert_eq!(heap.len(), reference.events.len());
            assert_eq!(heap.peek_time(), reference.peek_time());
        }
        assert_drains_alike(&mut heap, &mut reference);
    }

    #[test]
    fn pop_then_push_past_every_key_sinks_to_a_leaf() {
        let (mut heap, mut reference, mut gen) = filled(40);
        pop_both(&mut heap, &mut reference);
        let k = gen.key(1_000_000);
        heap.push(k, ComponentId(1), 99);
        reference.push(k, ComponentId(1), 99);
        assert_eq!(heap.len(), 40);
        assert_drains_alike(&mut heap, &mut reference);
    }

    #[test]
    fn batch_into_empty_heap_uses_floyd_and_orders() {
        let mut q = EventQueue::<u64>::new();
        let mut gen = KeyGen::new();
        q.push_batch((0..200u64).map(|i| (gen.key(199 - i), ComponentId(i as usize), i)));
        let times: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.as_ns())
            .collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
        assert_eq!(times.len(), 200);
    }

    #[test]
    fn slab_slots_are_recycled() {
        let mut q = EventQueue::<u64>::new();
        let mut gen = KeyGen::new();
        for round in 0..10u64 {
            for i in 0..8u64 {
                q.push(gen.key(i), ComponentId(0), round * 8 + i);
            }
            while q.pop().is_some() {}
        }
        assert!(
            q.payload.len() <= 8,
            "slab grew to {} for a working set of 8",
            q.payload.len()
        );
    }

    #[test]
    fn spsc_push_pop_fifo_and_capacity() {
        let ring: SpscRing<u32> = SpscRing::new(2);
        assert!(ring.is_empty());
        assert!(ring.pop().is_none());
        ring.push(1).unwrap();
        ring.push(2).unwrap();
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.push(3), Err(3), "full ring hands the value back");
        assert_eq!(ring.pop(), Some(1));
        ring.push(4).unwrap();
        assert_eq!(ring.pop(), Some(2));
        assert_eq!(ring.pop(), Some(4));
        assert!(ring.pop().is_none());
    }

    #[test]
    fn spsc_wraps_many_times() {
        let ring: SpscRing<usize> = SpscRing::new(3);
        for i in 0..1000 {
            ring.push(i).unwrap();
            assert_eq!(ring.pop(), Some(i));
        }
        assert!(ring.is_empty());
    }

    #[test]
    fn spsc_drops_in_flight_items() {
        // Drop with items still queued must drop each exactly once.
        use std::sync::atomic::AtomicU64;
        static DROPS: AtomicU64 = AtomicU64::new(0);
        struct Canary;
        impl Drop for Canary {
            fn drop(&mut self) {
                DROPS.fetch_add(1, AtomicOrd::Relaxed);
            }
        }
        let ring: SpscRing<Canary> = SpscRing::new(4);
        assert!(ring.push(Canary).is_ok());
        assert!(ring.push(Canary).is_ok());
        drop(ring.pop());
        drop(ring);
        assert_eq!(DROPS.load(AtomicOrd::Relaxed), 2);
    }

    #[test]
    fn spsc_transfers_across_threads() {
        // A two-thread stress run: every value arrives exactly once, in
        // order, under real concurrency (Miri-friendly size).
        let ring: SpscRing<u64> = SpscRing::new(2);
        let total: u64 = 10_000;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut next = 0u64;
                while next < total {
                    match ring.push(next) {
                        Ok(()) => next += 1,
                        Err(_) => std::hint::spin_loop(),
                    }
                }
            });
            let mut expect = 0u64;
            while expect < total {
                match ring.pop() {
                    Some(v) => {
                        assert_eq!(v, expect);
                        expect += 1;
                    }
                    None => std::hint::spin_loop(),
                }
            }
        });
        assert!(ring.is_empty());
    }
}
