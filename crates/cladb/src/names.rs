//! Strings held by id, and found by their text.
//!
//! [`Strings`] keeps a table's text back to back in one buffer;
//! [`NameIndex`] finds an id by text through open addressing. The block
//! linker's string pool and a [`Database`](crate::Database)'s target index
//! are both built from the two. Hashing is keyed per index — the names come
//! from the analysed sources.

use crate::format::NONE_U32;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// Strings by id, their text in one buffer: a string is one slice of it,
/// and a table of any size costs two allocations.
#[derive(Debug, Default)]
pub(crate) struct Strings {
    text: String,
    /// `ends[i]` is where string `i` ends in `text`.
    ends: Vec<usize>,
}

impl Strings {
    /// A copy of `strings`, ids kept.
    pub(crate) fn copy(strings: &[&str]) -> Strings {
        let mut text = String::with_capacity(strings.iter().map(|s| s.len()).sum());
        let ends = (strings.iter())
            .map(|s| {
                text.push_str(s);
                text.len()
            })
            .collect();
        Strings { text, ends }
    }

    /// Appends `s` under the next id.
    pub(crate) fn push(&mut self, s: &str) {
        self.text.push_str(s);
        self.ends.push(self.text.len());
    }

    /// String `id`.
    ///
    /// # Panics
    ///
    /// When `id` is not below [`Strings::len`].
    pub(crate) fn get(&self, id: u32) -> &str {
        let i = id as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }

    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }
}

/// Ids by the hash of their text: open addressing over `(hash, id)`,
/// power-of-two sized and at most half full, [`NONE_U32`] marking a free
/// slot. The index holds no text; [`NameIndex::find`] asks the caller
/// whether an id's text is the one sought.
#[derive(Debug)]
pub(crate) struct NameIndex {
    slots: Vec<(u32, u32)>,
    len: usize,
    hasher: RandomState,
}

impl NameIndex {
    /// An index that takes `n` ids before it grows.
    pub(crate) fn with_capacity(n: usize) -> NameIndex {
        NameIndex {
            slots: vec![(0, NONE_U32); (2 * n).next_power_of_two()],
            len: 0,
            hasher: RandomState::new(),
        }
    }

    pub(crate) fn hash(&self, s: &str) -> u32 {
        self.hasher.hash_one(s) as u32
    }

    /// The id stored under `hash` whose text `is` accepts, or the free slot
    /// where it belongs.
    pub(crate) fn find(&self, hash: u32, is: impl Fn(u32) -> bool) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let (h, id) = self.slots[i];
            if id == NONE_U32 {
                return Err(i);
            }
            if h == hash && is(id) {
                return Ok(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Stores `id` in `slot`, the free slot a failed [`NameIndex::find`]
    /// for `hash` returned, growing the table past half full.
    pub(crate) fn insert(&mut self, slot: usize, hash: u32, id: u32) {
        self.slots[slot] = (hash, id);
        self.len += 1;
        if self.len * 2 > self.slots.len() {
            let mut slots = vec![(0, NONE_U32); self.slots.len() * 2];
            let mask = slots.len() - 1;
            for &(h, id) in self.slots.iter().filter(|slot| slot.1 != NONE_U32) {
                let mut i = h as usize & mask;
                while slots[i].1 != NONE_U32 {
                    i = (i + 1) & mask;
                }
                slots[i] = (h, id);
            }
            self.slots = slots;
        }
    }
}
