//! A hierarchical event wheel (calendar queue) keyed on [`Ns`].
//!
//! Replaces the `BinaryHeap<Reverse<(Ns, Event)>>` on the simulator hot
//! path for the near-future events that dominate a simulation (fills,
//! wakes, retries all land within a few hundred ns): `push` is O(1), and
//! `pop_due` is O(1) per event plus one O(k log k) sort per slot that
//! holds k > 1 events, with a two-level bitmap locating the next
//! non-empty slot in a handful of word scans instead of a heap sift.
//!
//! Ordering is identical to the heap it replaces: `pop_due` always yields
//! the minimum `(time, event)` pair, with ties on time broken by the
//! event's `Ord` — so a run scheduled through the wheel is byte-identical
//! to one scheduled through the heap.
//!
//! Layout: `W` power-of-two slots, one per ns, holding events in
//! `[base, base + W)`; each slot's occupancy is one bit in a 64-word
//! bitmap with a one-word summary above it. Events further out than the
//! horizon wait in an overflow heap and migrate into the wheel as `base`
//! advances (which it does in a single jump, never slot-by-slot).
//!
//! Slot storage is one inline entry per slot plus a shared node pool
//! (intrusive chains + free list) for the rare slots holding more, not a
//! `Vec` per slot: per-slot buffers grow to each slot's individual
//! worst-case fan-in, and since spike periods are not aligned to the
//! horizon, every lap lands spikes on fresh residues — 4096 buffers that
//! keep growing forever. The inline lane makes the dominant
//! one-event-per-ns case a single array access with no pool touch at
//! all, and the pool's size is bounded by the *total* live overflow-entry
//! count, which the simulator's bounded queues cap at a high-water mark
//! reached during warmup — after that the wheel never touches the
//! allocator.
//!
//! All entries in one slot share one time (a slot holds a single residue
//! per horizon window), so the pop order inside a slot is decided by the
//! event alone. A slot is not kept sorted as it fills: the first pop from
//! an unsorted multi-entry slot sorts it once (inline entry plus chain,
//! through one reusable buffer) and writes it back ascending, smallest
//! in the inline lane; a per-slot *sorted* bit then lets every further
//! pop take the inline entry and promote the chain head in O(1). A push
//! that is `<=` the inline entry becomes the new inline entry and keeps
//! the bit; any other push into a slot with a chain clears it. Entries
//! are `Copy` and equal ones are indistinguishable, so the pop sequence
//! is identical to a min-scan of the slot on every pop — which is what
//! the wheel did before, at O(k) per pop and O(k²) per k-entry slot
//! (STREAM on QB-HBM fans ~36 same-ns fills and wakes into one slot).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::units::Ns;

/// Wheel horizon in slots (and ns). 4096 = 64 bitmap words, summarised by
/// exactly one u64.
const W: usize = 4096;
const MASK: u64 = (W as u64) - 1;
const WORDS: usize = W / 64;

/// Null node index for the intrusive slot chains and the free list.
const NIL: u32 = u32::MAX;

/// Time-ordered event queue with O(1) near-future operations.
#[derive(Debug)]
pub struct EventWheel<T> {
    /// All wheel (non-overflow) entries have times in `[base, base + W)`.
    base: Ns,
    /// Entry count in the slots (excludes `overflow`).
    wheel_len: usize,
    /// First entry per slot, present iff the slot's occupancy bit is set.
    /// The common one-event slot lives entirely here.
    inline: Vec<Option<(Ns, T)>>,
    /// Chain head per slot for entries beyond the first (`NIL` if none).
    /// Non-`NIL` implies the inline entry is present.
    more: Vec<u32>,
    /// Node pool for the extra entries: `(time, event, next)`. Live nodes
    /// chain per slot from `more`; free nodes chain from `free_head`.
    pool: Vec<(Ns, T, u32)>,
    free_head: u32,
    /// One occupancy bit per slot.
    words: [u64; WORDS],
    /// One bit per occupied slot whose entries are stored ascending: the
    /// inline entry is the minimum and the chain ascends from its head.
    /// A clear bit only means "unknown"; a bit of an empty slot is
    /// meaningless (linking into an empty slot sets it).
    sorted: [u64; WORDS],
    /// One bit per `words` entry.
    summary: u64,
    /// Events at or beyond `base + W`.
    overflow: BinaryHeap<Reverse<(Ns, T)>>,
    /// Reusable buffer for sorting one slot. It grows to the largest slot
    /// sorted so far (reached during warm-up, like the pool's high-water
    /// mark) and costs nothing for a wheel that never sorts. Reserving
    /// the pool's capacity up front measured +0.2 MB peak RSS on STREAM.
    sort_buf: Vec<(Ns, T)>,
    #[cfg(test)]
    work: Work,
}

/// Deterministic work counters for the unit tests' work gate.
#[cfg(test)]
#[derive(Debug, Default, Clone, Copy)]
struct Work {
    /// Pool chain nodes read or written.
    nodes: u64,
    /// Slot sorts.
    sorts: u64,
    /// Entries passed through a slot sort.
    sorted: u64,
}

impl<T: Ord + Copy> EventWheel<T> {
    /// An empty wheel based at time 0.
    pub fn new() -> Self {
        EventWheel {
            base: 0,
            wheel_len: 0,
            inline: vec![None; W],
            more: vec![NIL; W],
            // Covers typical multi-event-slot high-water without a
            // mid-run grow; past this the pool doubles amortised, then
            // sticks.
            pool: Vec::with_capacity(1024),
            free_head: NIL,
            words: [0; WORDS],
            sorted: [0; WORDS],
            summary: 0,
            overflow: BinaryHeap::with_capacity(64),
            sort_buf: Vec::new(),
            #[cfg(test)]
            work: Work::default(),
        }
    }

    /// Links `(t, ev)` into its slot (inline lane first, then the pool
    /// chain) and marks the bitmaps. The smaller of the new and the
    /// inline entry stays inline, so a sorted slot stays sorted when the
    /// new entry is its minimum, or when it had one entry.
    fn link(&mut self, t: Ns, ev: T) {
        let s = (t & MASK) as usize;
        let (w, bit) = (s / 64, 1u64 << (s % 64));
        match self.inline[s] {
            None => {
                self.inline[s] = Some((t, ev));
                self.sorted[w] |= bit;
            }
            Some(first) => {
                let spill = if (t, ev) <= first {
                    self.inline[s] = Some((t, ev));
                    first
                } else {
                    if self.more[s] != NIL {
                        self.sorted[w] &= !bit;
                    }
                    (t, ev)
                };
                let node = if self.free_head != NIL {
                    let n = self.free_head;
                    self.free_head = self.pool[n as usize].2;
                    self.pool[n as usize] = (spill.0, spill.1, self.more[s]);
                    n
                } else {
                    self.pool.push((spill.0, spill.1, self.more[s]));
                    (self.pool.len() - 1) as u32
                };
                self.more[s] = node;
            }
        }
        self.words[w] |= bit;
        self.summary |= 1 << w;
        self.wheel_len += 1;
    }

    /// Total scheduled events (wheel + overflow).
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `ev` at time `t`.
    ///
    /// # Panics
    ///
    /// Debug-asserts `t >= base`: the simulator never schedules into the
    /// past (`base` trails the last `pop_due` time, which trails `now`).
    pub fn push(&mut self, t: Ns, ev: T) {
        debug_assert!(t >= self.base, "event scheduled into the past: {t} < base {}", self.base);
        if t >= self.base + W as Ns {
            self.overflow.push(Reverse((t, ev)));
            return;
        }
        self.link(t, ev);
    }

    /// The earliest scheduled time, if any. Mutation-free.
    pub fn next_time(&self) -> Option<Ns> {
        // Wheel times are < base + W <= overflow times (`push` routes by
        // that bound and `advance_base` migrates by it), so a non-empty
        // wheel always holds the minimum.
        self.min_wheel_time().or_else(|| self.overflow.peek().map(|&Reverse((t, _))| t))
    }

    /// Pops the minimum `(time, event)` if it is due (`time <= now`).
    /// Repeated calls drain all due events in exact `(time, event)` order,
    /// including events pushed at `now` between calls.
    pub fn pop_due(&mut self, now: Ns) -> Option<(Ns, T)> {
        let m = self.next_time()?;
        if m > now {
            // Not due: still advance the horizon as far as `now` allows —
            // `push` must keep accepting events at `now` (t >= base).
            self.advance_base(m.min(now));
            return None;
        }
        // Advancing to `m` migrates an overflow minimum into its slot.
        self.advance_base(m);
        Some(self.pop_slot((m & MASK) as usize))
    }

    /// Moves every due entry (`time <= now`) into `out`, in **slot order
    /// but unordered within a slot** — the whole chain of a multi-entry
    /// slot is unlinked in one O(k) walk, with no sort. Callers that need
    /// total order must sort `out` themselves; callers whose downstream
    /// is order-insensitive (the controller marks due channels in a
    /// bitmap and walks it in ascending order) get the exact `pop_due`
    /// result set without paying for order. Base advances exactly as a
    /// `pop_due` drain would, so a subsequent `push` at `now` stays
    /// legal.
    pub fn drain_due_unordered(&mut self, now: Ns, out: &mut Vec<(Ns, T)>) {
        loop {
            let Some(m) = self.next_time() else { return };
            if m > now {
                self.advance_base(m.min(now));
                return;
            }
            // Advancing to `m` migrates an overflow minimum into its slot.
            self.advance_base(m);
            let s = (m & MASK) as usize;
            let (it, iev) = self.inline[s].take().expect("bitmap bit set on empty slot");
            debug_assert_eq!(it, m);
            out.push((it, iev));
            self.wheel_len -= 1;
            let mut cur = self.more[s];
            while cur != NIL {
                let (t, ev, next) = self.pool[cur as usize];
                debug_assert_eq!(t, m);
                out.push((t, ev));
                self.pool[cur as usize].2 = self.free_head;
                self.free_head = cur;
                self.wheel_len -= 1;
                cur = next;
                #[cfg(test)]
                {
                    self.work.nodes += 1;
                }
            }
            self.more[s] = NIL;
            self.clear_occupied(s);
        }
    }

    /// Pops the minimum `(time, event)` unconditionally (heap-`pop`
    /// equivalent). Does *not* advance `base` — the minimum may lie
    /// arbitrarily far in the future, and moving `base` past `now` would
    /// make legitimate pushes at `now` look like pushes into the past. A
    /// popped entry can always be pushed straight back (its time is
    /// `>= base` by the wheel invariant).
    pub fn pop_min(&mut self) -> Option<(Ns, T)> {
        match self.min_wheel_time() {
            Some(m) => Some(self.pop_slot((m & MASK) as usize)),
            None => self.overflow.pop().map(|Reverse(e)| e),
        }
    }

    /// The earliest time holding an entry that `valid` accepts, for
    /// lazy-deletion users: rejected (stale) entries met on the way are
    /// dropped, the accepted one stays queued, and `base` does not move.
    /// Within one time, entries are inspected in storage order, not
    /// event order, so callers must not care *which* entry of that time
    /// is valid — only whether one is. Each inspected entry costs O(1)
    /// and the slot is never sorted.
    pub fn next_valid_time(&mut self, mut valid: impl FnMut(Ns, T) -> bool) -> Option<Ns> {
        loop {
            let Some(m) = self.min_wheel_time() else {
                // Only the overflow heap is left.
                loop {
                    let &Reverse((t, ev)) = self.overflow.peek()?;
                    if valid(t, ev) {
                        return Some(t);
                    }
                    self.overflow.pop();
                }
            };
            let s = (m & MASK) as usize;
            let (t, ev) = self.inline[s].expect("bitmap bit set on empty slot");
            if valid(t, ev) {
                return Some(t);
            }
            self.take_inline(s);
        }
    }

    /// Pops the minimum entry of occupied slot `s`, sorting the slot
    /// first if it has a chain and is not known to be sorted.
    fn pop_slot(&mut self, s: usize) -> (Ns, T) {
        if self.more[s] != NIL && self.sorted[s / 64] & (1 << (s % 64)) == 0 {
            self.sort_slot(s);
        }
        self.take_inline(s)
    }

    /// Removes and returns slot `s`'s inline entry, promoting the chain
    /// head into the inline lane or emptying the slot. Removing the
    /// minimum of a sorted slot leaves it sorted.
    fn take_inline(&mut self, s: usize) -> (Ns, T) {
        let first = self.inline[s].expect("bitmap bit set on empty slot");
        self.wheel_len -= 1;
        let head = self.more[s];
        if head == NIL {
            // Dominant case: a one-event slot never touches the pool.
            self.inline[s] = None;
            self.clear_occupied(s);
        } else {
            let (ht, hev, hnext) = self.pool[head as usize];
            self.inline[s] = Some((ht, hev));
            self.more[s] = hnext;
            self.pool[head as usize].2 = self.free_head;
            self.free_head = head;
            #[cfg(test)]
            {
                self.work.nodes += 1;
            }
        }
        first
    }

    /// Sorts occupied slot `s` in place: gathers the inline entry and the
    /// chain, sorts them once, and writes them back ascending over the
    /// same chain nodes (no relinking), smallest in the inline lane.
    fn sort_slot(&mut self, s: usize) {
        self.sort_buf.clear();
        self.sort_buf.push(self.inline[s].expect("bitmap bit set on empty slot"));
        let mut cur = self.more[s];
        while cur != NIL {
            let (t, ev, next) = self.pool[cur as usize];
            self.sort_buf.push((t, ev));
            cur = next;
        }
        self.sort_buf.sort_unstable();
        self.inline[s] = Some(self.sort_buf[0]);
        let mut cur = self.more[s];
        for &(t, ev) in &self.sort_buf[1..] {
            let node = &mut self.pool[cur as usize];
            (node.0, node.1) = (t, ev);
            cur = node.2;
        }
        self.sorted[s / 64] |= 1 << (s % 64);
        #[cfg(test)]
        {
            let k = self.sort_buf.len() as u64;
            self.work.sorts += 1;
            self.work.sorted += k;
            self.work.nodes += 2 * (k - 1);
        }
    }

    /// Clears slot `s`'s occupancy bit (and its summary bit when the word
    /// empties).
    fn clear_occupied(&mut self, s: usize) {
        self.words[s / 64] &= !(1 << (s % 64));
        if self.words[s / 64] == 0 {
            self.summary &= !(1 << (s / 64));
        }
    }

    /// Jumps `base` forward to `nb` (callers guarantee every live entry is
    /// at or after `nb`), migrating overflow events that the move brings
    /// inside the horizon.
    fn advance_base(&mut self, nb: Ns) {
        if nb <= self.base {
            return;
        }
        self.base = nb;
        while let Some(&Reverse((t, _))) = self.overflow.peek() {
            if t >= self.base + W as Ns {
                break;
            }
            let Reverse((t, ev)) = self.overflow.pop().expect("peeked");
            self.link(t, ev);
        }
    }

    /// Earliest time present in the slots, via the bitmaps: first set slot
    /// in circular order starting from `base`'s own slot.
    fn min_wheel_time(&self) -> Option<Ns> {
        if self.wheel_len == 0 {
            return None;
        }
        let start = (self.base & MASK) as usize;
        let s = self.next_set_slot(start)?;
        let dist = (s.wrapping_sub(start) & MASK as usize) as Ns;
        Some(self.base + dist)
    }

    fn next_set_slot(&self, start: usize) -> Option<usize> {
        let (w0, b0) = (start / 64, start % 64);
        // Bits at or after `start` within its own word.
        let word = self.words[w0] & (!0u64 << b0);
        if word != 0 {
            return Some(w0 * 64 + word.trailing_zeros() as usize);
        }
        // Whole words after w0.
        let later = if w0 + 1 < WORDS { self.summary & (!0u64 << (w0 + 1)) } else { 0 };
        if later != 0 {
            let w = later.trailing_zeros() as usize;
            return Some(w * 64 + self.words[w].trailing_zeros() as usize);
        }
        // Wrap: whole words before w0, then w0's bits below b0.
        let earlier = self.summary & !(!0u64 << w0);
        if earlier != 0 {
            let w = earlier.trailing_zeros() as usize;
            return Some(w * 64 + self.words[w].trailing_zeros() as usize);
        }
        let word = self.words[w0] & !(!0u64 << b0);
        if word != 0 {
            return Some(w0 * 64 + word.trailing_zeros() as usize);
        }
        None
    }
}

impl<T: Ord + Copy> Default for EventWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference model: the exact heap the wheel replaced.
    struct Ref(BinaryHeap<Reverse<(Ns, u32)>>);

    impl Ref {
        fn pop_due(&mut self, now: Ns) -> Option<(Ns, u32)> {
            match self.0.peek() {
                Some(&Reverse((t, _))) if t <= now => {
                    let Reverse(e) = self.0.pop().expect("peeked");
                    Some(e)
                }
                _ => None,
            }
        }
    }

    /// Splitmix64: deterministic test stimulus without external crates.
    fn mix(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The exact-wake regression test for the engine rewrite: across a
    /// long randomised schedule (including same-time ties, same-slot
    /// aliasing across the horizon, and far-overflow events), the wheel
    /// yields exactly the heap's `(time, event)` sequence and its
    /// `next_time` always equals the true minimum — the simulator never
    /// wakes early (polling) or late (missed event).
    #[test]
    fn matches_binary_heap_order_exactly() {
        for seed in [1u64, 7, 42] {
            let mut s = seed;
            let mut wheel = EventWheel::new();
            let mut reference = Ref(BinaryHeap::new());
            let mut now: Ns = 0;
            for round in 0..5_000u64 {
                // Mixed horizon: mostly near events, some at W-aliased
                // offsets, some far in overflow territory.
                let n = (mix(&mut s) % 4) as usize;
                for _ in 0..n {
                    let r = mix(&mut s);
                    let dt = match r % 10 {
                        0..=5 => r % 64,             // near
                        6..=7 => (r % 8) * W as u64, // same-slot alias
                        _ => W as u64 + r % 100_000, // deep overflow
                    };
                    let ev = (mix(&mut s) % 8) as u32; // force ties
                    wheel.push(now + dt, ev);
                    reference.0.push(Reverse((now + dt, ev)));
                }
                assert_eq!(
                    wheel.next_time(),
                    reference.0.peek().map(|&Reverse((t, _))| t),
                    "seed {seed} round {round}: wake time must be exact"
                );
                loop {
                    let (a, b) = (wheel.pop_due(now), reference.pop_due(now));
                    assert_eq!(a, b, "seed {seed} round {round} at {now}");
                    if a.is_none() {
                        break;
                    }
                }
                assert_eq!(wheel.len(), reference.0.len());
                // Advance like the simulator: to the next event or by a
                // small random hop.
                now = match wheel.next_time() {
                    Some(t) if mix(&mut s) % 2 == 0 => t,
                    _ => now + 1 + mix(&mut s) % 32,
                };
            }
        }
    }

    /// The bulk drain must return the exact `pop_due` result *set* (order
    /// within a slot is the caller's problem) and leave the wheel in a
    /// state where pushes at `now` stay legal — across near events, slot
    /// aliasing, heavy same-time pileups (the GUPS pattern), and overflow.
    #[test]
    fn drain_due_unordered_matches_pop_due_set() {
        for seed in [2u64, 13, 99] {
            let mut s = seed;
            let mut a = EventWheel::new();
            let mut b = EventWheel::new();
            let mut now: Ns = 0;
            for round in 0..2_000u64 {
                for _ in 0..(mix(&mut s) % 6) {
                    let r = mix(&mut s);
                    let dt = match r % 10 {
                        // Same-time pileup: many events on one slot.
                        0..=4 => 1,
                        5..=6 => r % 64,
                        7..=8 => (r % 4) * W as u64,
                        _ => W as u64 + r % 50_000,
                    };
                    let ev = (mix(&mut s) % 512) as u32;
                    a.push(now + dt, ev);
                    b.push(now + dt, ev);
                }
                let mut drained = Vec::new();
                a.drain_due_unordered(now, &mut drained);
                drained.sort_unstable();
                let mut popped = Vec::new();
                while let Some(e) = b.pop_due(now) {
                    popped.push(e);
                }
                assert_eq!(drained, popped, "seed {seed} round {round} at {now}");
                assert_eq!(a.len(), b.len());
                assert_eq!(a.next_time(), b.next_time());
                // Both wheels must accept a push at `now` after the drain.
                a.push(now, 7);
                b.push(now, 7);
                now += 1 + mix(&mut s) % 96;
            }
        }
    }

    #[test]
    fn pops_events_pushed_at_now_mid_drain() {
        // The system loop schedules follow-on events at `now` while
        // draining; they must come out in the same drain.
        let mut w = EventWheel::new();
        w.push(10, 5u32);
        assert_eq!(w.pop_due(9), None);
        assert_eq!(w.pop_due(10), Some((10, 5)));
        w.push(10, 3);
        w.push(10, 4);
        assert_eq!(w.pop_due(10), Some((10, 3)), "ties pop in event order");
        assert_eq!(w.pop_due(10), Some((10, 4)));
        assert_eq!(w.pop_due(10), None);
        assert!(w.is_empty());
    }

    #[test]
    fn pop_min_ignores_due_time_and_allows_repush() {
        let mut w = EventWheel::new();
        w.push(100, 1u32);
        w.push(40, 2);
        w.push(5 * W as u64, 3);
        assert_eq!(w.pop_min(), Some((40, 2)), "min pops regardless of now");
        // Lazy-deletion pattern: inspect, then push straight back.
        let (t, ev) = w.pop_min().unwrap();
        assert_eq!((t, ev), (100, 1));
        w.push(t, ev);
        assert_eq!(w.pop_min(), Some((100, 1)));
        assert_eq!(w.pop_min(), Some((5 * W as u64, 3)), "overflow drains too");
        assert_eq!(w.pop_min(), None);
    }

    #[test]
    fn event_exactly_at_the_horizon_goes_to_overflow_and_pops_in_order() {
        let w_ns = W as u64;
        let mut w = EventWheel::new();
        // t == base + W is the first non-representable slot time (it
        // would alias slot 0, base's own slot): it must take the
        // overflow path, not corrupt the wheel.
        w.push(w_ns, 1u32);
        w.push(w_ns - 1, 2); // last in-horizon slot
        assert_eq!(w.len(), 2);
        assert_eq!(w.next_time(), Some(w_ns - 1));
        assert_eq!(w.pop_due(w_ns), Some((w_ns - 1, 2)));
        assert_eq!(w.pop_due(w_ns), Some((w_ns, 1)), "horizon event migrates and pops");
        // The same boundary must hold against the advanced base (w_ns).
        w.push(2 * w_ns, 3); // exactly new base + W: overflow again
        w.push(2 * w_ns - 1, 4);
        assert_eq!(w.next_time(), Some(2 * w_ns - 1));
        assert_eq!(w.pop_due(2 * w_ns), Some((2 * w_ns - 1, 4)));
        assert_eq!(w.pop_due(2 * w_ns), Some((2 * w_ns, 3)));
        assert!(w.is_empty());
    }

    #[test]
    fn push_at_now_stays_legal_as_base_advances() {
        let mut w = EventWheel::new();
        w.push(50, 1u32);
        // Nothing due at 49; base still advances as far as `now` allows,
        // and a push at exactly t == base must then be accepted and sort
        // ahead of the later event.
        assert_eq!(w.pop_due(49), None);
        w.push(49, 2);
        assert_eq!(w.pop_due(49), Some((49, 2)));
        assert_eq!(w.pop_due(50), Some((50, 1)));
        // After a pop advanced base to the popped time, t == base again.
        w.push(50, 3);
        assert_eq!(w.pop_due(50), Some((50, 3)));
        assert!(w.is_empty());
    }

    /// The controller due-queue discipline: cancellations are lazy (stale
    /// entries stay queued; `pop_min` discards them on the way out, and a
    /// live-but-not-due head is pushed straight back). Across seeded
    /// bursts of pushes and cancels the wheel must pop the exact sequence
    /// of the reference heap under the same discipline.
    #[test]
    fn lazy_clean_pop_min_survives_cancellation_bursts() {
        use std::collections::HashSet;
        for seed in [3u64, 11, 2026] {
            let mut s = seed;
            let mut wheel = EventWheel::new();
            let mut reference = BinaryHeap::new();
            let mut live: Vec<(Ns, u32)> = Vec::new();
            let mut canceled: HashSet<u32> = HashSet::new();
            let mut next_id = 0u32;
            let mut now: Ns = 0;
            for _round in 0..400 {
                // Push burst at mixed horizons; unique ids keep the two
                // pop sequences directly comparable.
                for _ in 0..(mix(&mut s) % 6) {
                    let r = mix(&mut s);
                    let dt = match r % 3 {
                        0 => r % 256,
                        1 => r % W as u64,
                        _ => W as u64 + r % 10_000,
                    };
                    let id = next_id;
                    next_id += 1;
                    wheel.push(now + dt, id);
                    reference.push(Reverse((now + dt, id)));
                    live.push((now + dt, id));
                }
                // Cancellation burst: mark a random subset stale without
                // touching either queue.
                for _ in 0..(mix(&mut s) % 4) {
                    if live.is_empty() {
                        break;
                    }
                    let i = (mix(&mut s) % live.len() as u64) as usize;
                    canceled.insert(live.swap_remove(i).1);
                }
                now += 1 + mix(&mut s) % 512;
                loop {
                    match wheel.pop_min() {
                        Some((t, id)) if canceled.contains(&id) => {
                            assert_eq!(reference.pop(), Some(Reverse((t, id))), "seed {seed}");
                        }
                        Some((t, id)) if t <= now => {
                            assert_eq!(reference.pop(), Some(Reverse((t, id))), "seed {seed}");
                            live.retain(|&(_, l)| l != id);
                        }
                        Some((t, id)) => {
                            // Not due: push straight back (pop_min does
                            // not advance base, so this must stay legal).
                            wheel.push(t, id);
                            break;
                        }
                        None => break,
                    }
                }
                assert_eq!(wheel.len(), reference.len(), "seed {seed}");
            }
            // Final full drain: both queues agree to the last entry.
            while let Some(e) = wheel.pop_min() {
                assert_eq!(reference.pop(), Some(Reverse(e)), "seed {seed}");
            }
            assert!(reference.pop().is_none(), "seed {seed}");
        }
    }

    /// The sorted-slot paths against the heap: fan-ins of 1-300 entries
    /// per slot with tied events, horizon-aliased residues of the same
    /// slot waiting in overflow, and pushes at `now` between pops of a
    /// sorted slot, both below its current minimum (the new inline entry
    /// keeps the slot sorted) and above it (clears the sorted bit).
    #[test]
    fn sorted_slots_match_heap_order_under_fan_in_and_pushes_at_now() {
        for (seed, fan) in [(5u64, 1u64), (6, 2), (7, 3), (8, 36), (9, 127), (10, 300)] {
            let mut s = seed;
            let mut wheel = EventWheel::new();
            let mut reference = Ref(BinaryHeap::new());
            let mut now: Ns = 0;
            for round in 0..150u64 {
                let t = now + 1 + mix(&mut s) % 48;
                for _ in 0..fan {
                    let r = mix(&mut s);
                    let at = match r % 8 {
                        0 => t + (1 + r % 3) * W as u64, // same residue, later lap
                        1 => t + 1 + r % 4,              // neighbouring slot
                        _ => t,
                    };
                    let ev = (mix(&mut s) % (2 * fan + 1)) as u32;
                    wheel.push(at, ev);
                    reference.0.push(Reverse((at, ev)));
                }
                now = if mix(&mut s) % 4 == 0 { t + mix(&mut s) % 6 } else { t };
                loop {
                    let (a, b) = (wheel.pop_due(now), reference.pop_due(now));
                    assert_eq!(a, b, "seed {seed} fan {fan} round {round} at {now}");
                    let Some((_, ev)) = a else { break };
                    if mix(&mut s) % 3 == 0 {
                        let r = mix(&mut s);
                        let ev = match r % 3 {
                            0 => ev.saturating_sub(1 + (r >> 8) as u32 % 3), // below
                            1 => ev + (r >> 8) as u32 % 4,                   // at or above
                            _ => (r % (2 * fan + 1)) as u32,
                        };
                        let at = if r % 5 == 0 { now + W as u64 } else { now };
                        wheel.push(at, ev);
                        reference.0.push(Reverse((at, ev)));
                    }
                }
                assert_eq!(wheel.len(), reference.0.len(), "seed {seed} fan {fan}");
                assert_eq!(wheel.next_time(), reference.0.peek().map(|&Reverse((t, _))| t));
            }
            while let Some(e) = wheel.pop_min() {
                assert_eq!(reference.0.pop(), Some(Reverse(e)), "seed {seed} fan {fan}");
            }
            assert!(reference.0.is_empty());
        }
    }

    /// `next_valid_time` against the loop it replaced in the controller
    /// (`pop_min`, drop if stale, push a valid one back), on two wheels
    /// fed identically under seeded validity predicates: both report the
    /// same earliest valid time, and both keep the same valid entries
    /// (only stale ones may differ) — checked by draining due entries
    /// each round and everything at the end.
    #[test]
    fn next_valid_time_matches_pop_min_push_back_loop() {
        for (seed, stale_one_in) in [(21u64, 2u64), (22, 3), (23, 8), (24, 1_000_000)] {
            let mut s = seed;
            let valid = |t: Ns, ev: u32| {
                let mut h = seed ^ t.wrapping_mul(0x1_0000_0001) ^ u64::from(ev) << 40;
                mix(&mut h) % stale_one_in != 0
            };
            let mut a = EventWheel::new();
            let mut b = EventWheel::new();
            let mut now: Ns = 0;
            for round in 0..1_500u64 {
                let fan = [0, 1, 4, 36, 300][(mix(&mut s) % 5) as usize];
                let t = now + mix(&mut s) % 16;
                for _ in 0..fan {
                    let r = mix(&mut s);
                    let at = match r % 10 {
                        0..=5 => t,
                        6..=7 => now + r % 256,
                        8 => t + (r % 3) * W as u64,
                        _ => now + W as u64 + r % 20_000,
                    };
                    let ev = (mix(&mut s) % 600) as u32;
                    a.push(at, ev);
                    b.push(at, ev);
                }
                let got = a.next_valid_time(valid);
                let want = loop {
                    let Some((t, ev)) = b.pop_min() else { break None };
                    if valid(t, ev) {
                        b.push(t, ev);
                        break Some(t);
                    }
                };
                assert_eq!(got, want, "seed {seed} round {round} at {now}");
                now = match got {
                    Some(t) if mix(&mut s) % 2 == 0 => t.max(now),
                    _ => now + 1 + mix(&mut s) % 64,
                };
                let (mut da, mut db) = (Vec::new(), Vec::new());
                a.drain_due_unordered(now, &mut da);
                b.drain_due_unordered(now, &mut db);
                for d in [&mut da, &mut db] {
                    d.retain(|&(t, ev)| valid(t, ev));
                    d.sort_unstable();
                }
                assert_eq!(da, db, "seed {seed} round {round} at {now}");
            }
            let (mut da, mut db) = (Vec::new(), Vec::new());
            a.drain_due_unordered(Ns::MAX, &mut da);
            b.drain_due_unordered(Ns::MAX, &mut db);
            for d in [&mut da, &mut db] {
                d.retain(|&(t, ev)| valid(t, ev));
                d.sort_unstable();
            }
            assert_eq!(da, db, "seed {seed}: valid entries diverged");
            assert!(a.is_empty() && b.is_empty());
        }
    }

    /// Deterministic work gate for the sorted-slot pop path. A STREAM-like
    /// fan-in (fills and wakes from several earlier ns landing on each
    /// future ns, pushed in shuffled order) must cost constant work per
    /// pop whatever the fan-in: every entry passes through at most one
    /// sort, and the chain nodes touched stay under 3 per pop (gather and
    /// write-back once per sort, one promotion per pop). A min-scan of
    /// the chain on every pop touches about k/2 nodes per pop — 18 at a
    /// 36-entry fan-in — and fails here.
    #[test]
    fn stream_like_fan_in_costs_constant_work_per_pop() {
        for fan in [36u64, 300] {
            let mut s = 0x5EED_2017 ^ fan;
            let mut w = EventWheel::new();
            let mut next_id = 0u32;
            let mut batch: Vec<u32> = Vec::new();
            let (mut pops, mut slots) = (0u64, 0u64);
            let mut last = (0, 0);
            for now in 0..2_000u64 {
                // Each ns sends a quarter of a slot's fan-in to each of
                // four latencies, so every slot fills from four ns.
                for lat in [20u64, 30, 40, 50] {
                    batch.clear();
                    batch.extend((0..fan / 4).map(|i| next_id + i as u32));
                    next_id += (fan / 4) as u32;
                    for i in (1..batch.len()).rev() {
                        batch.swap(i, (mix(&mut s) % (i as u64 + 1)) as usize);
                    }
                    for &ev in &batch {
                        w.push(now + lat, ev);
                    }
                }
                let before = pops;
                while let Some(e) = w.pop_due(now) {
                    assert!(e > last, "pop order must ascend");
                    last = e;
                    pops += 1;
                }
                slots += u64::from(pops > before);
            }
            let work = w.work;
            assert!(pops > 1_000 * fan, "fan {fan}: only {pops} pops");
            assert!(work.sorted <= pops, "fan {fan}: {} entries sorted, {pops} pops", work.sorted);
            assert!(work.sorts <= slots, "fan {fan}: {} sorts, {slots} slots", work.sorts);
            assert!(
                work.nodes <= 3 * pops,
                "fan {fan}: {} chain nodes for {pops} pops ({:.1} per pop)",
                work.nodes,
                work.nodes as f64 / pops as f64
            );
        }
    }

    #[test]
    fn overflow_events_migrate_into_the_wheel() {
        let mut w = EventWheel::new();
        let far = 3 * W as u64 + 17;
        w.push(far, 1u32);
        w.push(5, 2);
        assert_eq!(w.len(), 2);
        assert_eq!(w.next_time(), Some(5));
        assert_eq!(w.pop_due(5), Some((5, 2)));
        assert_eq!(w.next_time(), Some(far));
        // Nothing due for a long while; base advances with `now`.
        assert_eq!(w.pop_due(far - 1), None);
        assert_eq!(w.pop_due(far), Some((far, 1)));
        assert!(w.is_empty());
    }
}
