//! Dense-id map that keeps only the live span — the per-task slab of a
//! long-running simulation.
//!
//! Task and request ids are handed out sequentially and retire roughly in
//! order, so a `Vec` indexed by id is the fastest map for them, but it
//! grows with run length: a million-request run keeps a million slots for
//! the few hundred tasks ever in flight. [`IdWindow`] is that `Vec` with its
//! retired head cut off: a ring buffer of slots for the ids from the oldest
//! live one to the newest. Lookups stay one subtraction and one bounds
//! check; removing the oldest live id advances the window past every
//! retired slot behind it. One id that never retires pins the window at its
//! position, so the worst case is the plain slab's footprint.

use std::collections::VecDeque;

/// A map from dense `u64` ids to `T` that stores one slot per id from the
/// oldest live id to the newest, and nothing outside that span.
///
/// Ids may be inserted and removed in any order; the memory held is
/// proportional to `newest − oldest + 1` live ids, so ids should be dense
/// (a sequence counter), not arbitrary keys.
#[derive(Debug, Clone)]
pub struct IdWindow<T> {
    /// Id of `slots[0]`; meaningless while `slots` is empty.
    base: u64,
    /// One slot per id in `base..base + slots.len()`. The first and the
    /// last slot are always occupied.
    slots: VecDeque<Option<T>>,
    /// Occupied slots.
    len: usize,
}

impl<T> Default for IdWindow<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> IdWindow<T> {
    /// An empty window.
    pub fn new() -> Self {
        IdWindow {
            base: 0,
            slots: VecDeque::new(),
            len: 0,
        }
    }

    /// Live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no id is live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slots held: `newest − oldest + 1` over the live ids, 0 when empty.
    #[inline]
    pub fn span(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn index(&self, id: u64) -> Option<usize> {
        id.checked_sub(self.base)
            .map(|i| i as usize)
            .filter(|&i| i < self.slots.len())
    }

    /// Insert `value` under `id`, returning the value it replaces.
    pub fn insert(&mut self, id: u64, value: T) -> Option<T> {
        if self.slots.is_empty() {
            self.base = id;
        } else if id < self.base {
            let gap = (self.base - id) as usize;
            self.slots.reserve(gap);
            for _ in 0..gap {
                self.slots.push_front(None);
            }
            self.base = id;
        }
        let i = (id - self.base) as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let old = self.slots[i].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// The value under `id`, if live.
    #[inline]
    pub fn get(&self, id: u64) -> Option<&T> {
        self.index(id).and_then(|i| self.slots[i].as_ref())
    }

    /// Mutable access to the value under `id`, if live.
    #[inline]
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        self.index(id).and_then(|i| self.slots[i].as_mut())
    }

    /// Remove and return the value under `id`. Removing the oldest (or the
    /// newest) live id shrinks the window to the remaining live span.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let value = self.index(id).and_then(|i| self.slots[i].take())?;
        self.len -= 1;
        while self.slots.front().is_some_and(Option::is_none) {
            self.slots.pop_front();
            self.base += 1;
        }
        while self.slots.back().is_some_and(Option::is_none) {
            self.slots.pop_back();
        }
        Some(value)
    }

    /// Live values in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn removing_the_oldest_ids_slides_the_window() {
        let mut w = IdWindow::new();
        for id in 1..=5u64 {
            assert_eq!(w.insert(id, id * 10), None);
        }
        assert_eq!((w.len(), w.span()), (5, 5));
        // A hole in the middle keeps its slot…
        assert_eq!(w.remove(3), Some(30));
        assert_eq!((w.len(), w.span()), (4, 5));
        assert_eq!(w.get(3), None);
        // …and is dropped once the head reaches it.
        w.remove(1);
        w.remove(2);
        assert_eq!((w.len(), w.span()), (2, 2));
        assert_eq!(w.get(4), Some(&40));
        assert_eq!(w.values().copied().collect::<Vec<_>>(), vec![40, 50]);
        w.remove(5);
        w.remove(4);
        assert!(w.is_empty());
        assert_eq!(w.span(), 0);
    }

    #[test]
    fn an_id_behind_the_window_extends_it_at_the_front() {
        let mut w = IdWindow::new();
        w.insert(10, 'a');
        w.insert(7, 'b');
        assert_eq!(w.span(), 4);
        assert_eq!(w.get(7), Some(&'b'));
        assert_eq!(w.insert(7, 'c'), Some('b'));
        assert_eq!(w.len(), 2);
        *w.get_mut(10).unwrap() = 'd';
        assert_eq!(w.remove(10), Some('d'));
        assert_eq!(w.span(), 1);
        assert_eq!(w.remove(10), None);
        assert_eq!(w.get(0), None);
    }
}
