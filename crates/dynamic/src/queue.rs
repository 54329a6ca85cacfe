//! Per-link FIFO packet queues with delay accounting.
//!
//! Each queued packet remembers its enqueue slot, so a departure yields an
//! exact sojourn time; the engine aggregates these into mean and
//! percentile delays. Backlog totals feed the drift estimator in
//! [`crate::stability`].
//!
//! [`QueueBank`] also keeps a [`Backlogs`] index of which links hold
//! packets, updated in place on every enqueue and dequeue, so the slot
//! loop walks the backlogged links without scanning every queue.

use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};

/// A FIFO queue of packets for one link.
#[derive(Debug, Clone, Default)]
pub struct LinkQueue {
    /// Enqueue slot of every waiting packet, oldest first.
    fifo: VecDeque<u64>,
    arrivals: u64,
    departures: u64,
    /// Sojourn time (slots, including the departure slot) of every
    /// departed packet.
    delays: Vec<u64>,
}

impl LinkQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues `count` packets arriving in `slot`.
    pub fn enqueue(&mut self, count: u32, slot: u64) {
        for _ in 0..count {
            self.fifo.push_back(slot);
        }
        self.arrivals += u64::from(count);
    }

    /// Dequeues the head-of-line packet after a successful transmission
    /// in `slot`; returns its delay, or `None` when the queue was empty.
    pub fn dequeue(&mut self, slot: u64) -> Option<u64> {
        let enq = self.fifo.pop_front()?;
        debug_assert!(slot >= enq, "departure before arrival");
        let delay = slot - enq + 1;
        self.delays.push(delay);
        self.departures += 1;
        Some(delay)
    }

    /// Current backlog (packets waiting).
    pub fn backlog(&self) -> u64 {
        self.fifo.len() as u64
    }

    /// Whether the queue holds at least one packet.
    pub fn is_backlogged(&self) -> bool {
        !self.fifo.is_empty()
    }

    /// Total packets ever enqueued.
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }

    /// Total packets ever dequeued.
    pub fn departures(&self) -> u64 {
        self.departures
    }

    /// Delays of all departed packets (slots), in departure order.
    pub fn delays(&self) -> &[u64] {
        &self.delays
    }
}

/// Per-link backlogs with an index of the backlogged links: a bitset
/// (bit `i` set iff link `i` holds a packet) and its population count,
/// beside the backlog values themselves. Walking the backlogged links in
/// ascending order costs O(n/64 + backlogged) instead of an O(n) scan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Backlogs {
    per_link: Vec<u64>,
    words: Vec<u64>,
    count: usize,
}

impl Backlogs {
    /// `n` links, all empty.
    pub fn new(n: usize) -> Self {
        Backlogs {
            per_link: vec![0; n],
            words: vec![0; n.div_ceil(64)],
            count: 0,
        }
    }

    /// Indexes the given per-link backlogs.
    pub fn from_slice(backlogs: &[u64]) -> Self {
        let mut index = Self::new(backlogs.len());
        for (i, &b) in backlogs.iter().enumerate() {
            index.set(i, b);
        }
        index
    }

    /// Number of links.
    pub fn len(&self) -> usize {
        self.per_link.len()
    }

    /// Whether there are no links.
    pub fn is_empty(&self) -> bool {
        self.per_link.is_empty()
    }

    /// Number of backlogged links.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Per-link backlogs, indexed by link.
    pub fn as_slice(&self) -> &[u64] {
        &self.per_link
    }

    /// The backlogged links, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    w * 64 + bit
                })
            })
        })
    }

    /// Sets link `i`'s backlog, keeping the bitset and count in step.
    fn set(&mut self, i: usize, backlog: u64) {
        let was = self.per_link[i] > 0;
        let is = backlog > 0;
        self.per_link[i] = backlog;
        if was != is {
            self.words[i / 64] ^= 1 << (i % 64);
            if is {
                self.count += 1;
            } else {
                self.count -= 1;
            }
        }
    }
}

/// The queues of every link in a network, with running totals and the
/// [`Backlogs`] index kept current by every mutation.
#[derive(Debug, Clone, Default)]
pub struct QueueBank {
    queues: Vec<LinkQueue>,
    backlogs: Backlogs,
    arrivals: u64,
    departures: u64,
}

impl QueueBank {
    /// Creates `n` empty queues.
    pub fn new(n: usize) -> Self {
        QueueBank {
            queues: (0..n).map(|_| LinkQueue::new()).collect(),
            backlogs: Backlogs::new(n),
            arrivals: 0,
            departures: 0,
        }
    }

    /// Number of links.
    pub fn len(&self) -> usize {
        self.queues.len()
    }

    /// Whether the bank has no links.
    pub fn is_empty(&self) -> bool {
        self.queues.is_empty()
    }

    /// The queue of link `i`.
    pub fn queue(&self, i: usize) -> &LinkQueue {
        &self.queues[i]
    }

    /// Mutable access to link `i`'s queue. The guard dereferences to the
    /// [`LinkQueue`] and, when dropped, brings the bank's totals and
    /// backlog index up to date with whatever was done to the queue, so
    /// they never go stale. The slot loop uses [`enqueue`](Self::enqueue)
    /// and [`dequeue`](Self::dequeue) instead.
    pub fn queue_mut(&mut self, i: usize) -> QueueMut<'_> {
        let queue = &self.queues[i];
        QueueMut {
            arrivals: queue.arrivals,
            departures: queue.departures,
            bank: self,
            link: i,
        }
    }

    /// Enqueues `count` packets arriving at link `i` in `slot`.
    pub fn enqueue(&mut self, i: usize, count: u32, slot: u64) {
        let queue = &mut self.queues[i];
        queue.enqueue(count, slot);
        self.arrivals += u64::from(count);
        self.backlogs.set(i, queue.backlog());
    }

    /// Dequeues link `i`'s head-of-line packet after a successful
    /// transmission in `slot`; returns its delay, or `None` when the
    /// queue was empty.
    pub fn dequeue(&mut self, i: usize, slot: u64) -> Option<u64> {
        let queue = &mut self.queues[i];
        let delay = queue.dequeue(slot)?;
        self.departures += 1;
        self.backlogs.set(i, queue.backlog());
        Some(delay)
    }

    /// The per-link backlogs and the index of backlogged links.
    pub fn backlogged(&self) -> &Backlogs {
        &self.backlogs
    }

    /// Per-link backlogs, indexed by link, as a fresh vector.
    pub fn backlogs(&self) -> Vec<u64> {
        self.backlogs.as_slice().to_vec()
    }

    /// Sum of all backlogs.
    pub fn total_backlog(&self) -> u64 {
        self.arrivals - self.departures
    }

    /// Total packets ever enqueued across links.
    pub fn total_arrivals(&self) -> u64 {
        self.arrivals
    }

    /// Total packets ever dequeued across links.
    pub fn total_departures(&self) -> u64 {
        self.departures
    }

    /// Mean delay over every departed packet, or `None` when nothing has
    /// departed yet.
    pub fn mean_delay(&self) -> Option<f64> {
        let (sum, count) = self.queues.iter().fold((0u64, 0u64), |(s, c), q| {
            (s + q.delays.iter().sum::<u64>(), c + q.delays.len() as u64)
        });
        (count > 0).then(|| sum as f64 / count as f64)
    }

    /// The `p`-th percentile delay (0 < p ≤ 100) over all departed
    /// packets, or `None` when nothing has departed yet.
    ///
    /// Uses the nearest-rank definition, so the result is always an
    /// observed delay.
    pub fn delay_percentile(&self, p: f64) -> Option<u64> {
        assert!(p > 0.0 && p <= 100.0, "percentile must be in (0, 100]");
        let mut all: Vec<u64> = self
            .queues
            .iter()
            .flat_map(|q| q.delays.iter().copied())
            .collect();
        if all.is_empty() {
            return None;
        }
        all.sort_unstable();
        let rank = ((p / 100.0) * all.len() as f64).ceil() as usize;
        Some(all[rank.clamp(1, all.len()) - 1])
    }
}

/// Mutable access to one queue of a [`QueueBank`], returned by
/// [`QueueBank::queue_mut`]; the bank's totals and backlog index catch up
/// when it is dropped.
pub struct QueueMut<'a> {
    bank: &'a mut QueueBank,
    link: usize,
    /// The queue's counters when the guard was taken.
    arrivals: u64,
    departures: u64,
}

impl Deref for QueueMut<'_> {
    type Target = LinkQueue;

    fn deref(&self) -> &LinkQueue {
        &self.bank.queues[self.link]
    }
}

impl DerefMut for QueueMut<'_> {
    fn deref_mut(&mut self) -> &mut LinkQueue {
        &mut self.bank.queues[self.link]
    }
}

impl Drop for QueueMut<'_> {
    fn drop(&mut self) {
        let queue = &self.bank.queues[self.link];
        self.bank.arrivals += queue.arrivals - self.arrivals;
        self.bank.departures += queue.departures - self.departures;
        let backlog = queue.backlog();
        self.bank.backlogs.set(self.link, backlog);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_delay() {
        let mut q = LinkQueue::new();
        q.enqueue(2, 0); // two packets at slot 0
        q.enqueue(1, 3);
        assert_eq!(q.backlog(), 3);
        // First departure at slot 4: head packet waited slots 0..=4.
        assert_eq!(q.dequeue(4), Some(5));
        assert_eq!(q.dequeue(5), Some(6));
        assert_eq!(q.dequeue(5), Some(3)); // the slot-3 packet
        assert_eq!(q.dequeue(6), None);
        assert_eq!(q.arrivals(), 3);
        assert_eq!(q.departures(), 3);
        assert_eq!(q.delays(), &[5, 6, 3]);
    }

    #[test]
    fn same_slot_service_has_delay_one() {
        let mut q = LinkQueue::new();
        q.enqueue(1, 7);
        assert_eq!(q.dequeue(7), Some(1));
    }

    #[test]
    fn bank_aggregates() {
        let mut bank = QueueBank::new(3);
        bank.queue_mut(0).enqueue(2, 0);
        bank.queue_mut(2).enqueue(1, 0);
        assert_eq!(bank.backlogs(), vec![2, 0, 1]);
        assert_eq!(bank.total_backlog(), 3);
        assert_eq!(bank.total_arrivals(), 3);
        assert!(bank.queue(0).is_backlogged());
        assert!(!bank.queue(1).is_backlogged());

        bank.queue_mut(0).dequeue(1); // delay 2
        bank.queue_mut(2).dequeue(3); // delay 4
        assert_eq!(bank.total_departures(), 2);
        assert_eq!(bank.mean_delay(), Some(3.0));
        assert_eq!(bank.delay_percentile(50.0), Some(2));
        assert_eq!(bank.delay_percentile(100.0), Some(4));
    }

    #[test]
    fn backlog_index_tracks_every_mutation() {
        // 130 links span three bitset words.
        let mut bank = QueueBank::new(130);
        for &(i, count) in &[(129, 2), (0, 1), (64, 3), (63, 1)] {
            bank.enqueue(i, count, 0);
        }
        bank.queue_mut(70).enqueue(1, 1);
        let index = bank.backlogged();
        assert_eq!(index.iter().collect::<Vec<_>>(), vec![0, 63, 64, 70, 129]);
        assert_eq!(index.count(), 5);
        assert_eq!(index.as_slice()[64], 3);
        assert_eq!(index, &Backlogs::from_slice(&bank.backlogs()));
        assert_eq!(bank.total_arrivals(), 8);

        assert_eq!(bank.dequeue(0, 2), Some(3));
        assert_eq!(bank.dequeue(0, 2), None, "empty queue");
        bank.queue_mut(129).dequeue(3);
        bank.queue_mut(129).dequeue(3);
        let index = bank.backlogged();
        assert_eq!(index.iter().collect::<Vec<_>>(), vec![63, 64, 70]);
        assert_eq!(index.count(), 3);
        assert_eq!(bank.total_departures(), 3);
        assert_eq!(bank.total_backlog(), 5);
        assert_eq!(index, &Backlogs::from_slice(&bank.backlogs()));
    }

    #[test]
    fn empty_bank_statistics() {
        let bank = QueueBank::new(2);
        assert_eq!(bank.mean_delay(), None);
        assert_eq!(bank.delay_percentile(95.0), None);
        assert_eq!(bank.total_backlog(), 0);
        assert_eq!(QueueBank::new(0).len(), 0);
        assert!(QueueBank::new(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "percentile must be in (0, 100]")]
    fn bad_percentile_rejected() {
        let _ = QueueBank::new(1).delay_percentile(0.0);
    }
}
