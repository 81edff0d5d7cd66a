//! A presence directory indexed by physical page.
//!
//! [`PhysMem`](crate::phys::PhysMem) hands out page numbers densely from
//! 1, so the directory is a plain `Vec` indexed by page number whose slots
//! hold an optional chunk: one entry per line (or per root word) of that
//! page. A lookup is two array indexings, and entries of neighbouring
//! lines share host cache lines.
//!
//! The entry type's `Default` value is the vacant entry, and a vacant
//! entry reads as absent, so callers keep map-shaped logic: look an entry
//! up, change it, and [`PageDir::remove`] it once it is empty. Each chunk
//! counts its live entries; when the last one goes, the all-vacant chunk
//! moves to a spare list that the next page needing a chunk takes from.
//! The steady state therefore allocates nothing, and the chunks ever
//! allocated never outnumber the most pages that had live entries at once.

use crate::page::PAGE_SIZE;

/// An entry a [`PageDir`] can hold. `Default` must be vacant.
pub(crate) trait Vacancy: Copy + Default {
    /// Whether the entry records nothing, and so reads as absent.
    fn is_vacant(&self) -> bool;
}

/// The entries of one page, and how many of them are live.
struct Chunk<E, const N: usize> {
    entries: [E; N],
    live: u32,
}

/// A directory of `N` entries per physical page, keyed by physical
/// address: the entry for `addr` covers `PAGE_SIZE / N` bytes. It starts
/// empty and allocates on its first entry.
#[derive(Default)]
pub(crate) struct PageDir<E, const N: usize> {
    pages: Vec<Option<Box<Chunk<E, N>>>>,
    /// All-vacant chunks, reused before a new one is allocated. Its
    /// capacity covers every chunk ever allocated, so a release never
    /// allocates either.
    spare: Vec<Box<Chunk<E, N>>>,
    /// Chunks allocated so far (held or spare).
    allocated: usize,
}

impl<E: Vacancy, const N: usize> PageDir<E, N> {
    const STRIDE: u32 = {
        assert!(N.is_power_of_two() && N <= PAGE_SIZE as usize);
        PAGE_SIZE / N as u32
    };

    /// The page index and the slot within its chunk of `addr`.
    #[inline]
    fn locate(addr: u32) -> (usize, usize) {
        (
            (addr / PAGE_SIZE) as usize,
            (addr % PAGE_SIZE / Self::STRIDE) as usize,
        )
    }

    /// The live entry for `addr`, if any.
    #[inline]
    pub(crate) fn get(&self, addr: u32) -> Option<&E> {
        let (page, slot) = Self::locate(addr);
        let e = &self.pages.get(page)?.as_ref()?.entries[slot];
        (!e.is_vacant()).then_some(e)
    }

    /// The live entry for `addr`, if any, to change in place. An entry the
    /// change leaves vacant must then be [`remove`](Self::remove)d.
    #[inline]
    pub(crate) fn get_mut(&mut self, addr: u32) -> Option<&mut E> {
        let (page, slot) = Self::locate(addr);
        let e = &mut self.pages.get_mut(page)?.as_mut()?.entries[slot];
        (!e.is_vacant()).then_some(e)
    }

    /// The entry for `addr`, counted live if it was vacant: the caller
    /// must leave it non-vacant (a map's `entry().or_default()`).
    pub(crate) fn entry(&mut self, addr: u32) -> &mut E {
        let (page, slot) = Self::locate(addr);
        if page >= self.pages.len() {
            self.pages.resize_with(page + 1, || None);
        }
        let chunk = match &mut self.pages[page] {
            Some(chunk) => chunk,
            held @ None => held.insert(match self.spare.pop() {
                Some(chunk) => chunk,
                None => {
                    self.allocated += 1;
                    self.spare.reserve(self.allocated);
                    Box::new(Chunk {
                        entries: [E::default(); N],
                        live: 0,
                    })
                }
            }),
        };
        let e = &mut chunk.entries[slot];
        if e.is_vacant() {
            chunk.live += 1;
        }
        e
    }

    /// Removes the entry for `addr`, which the caller found live and may
    /// since have made vacant. The page's chunk goes to the spare list
    /// with its last live entry.
    pub(crate) fn remove(&mut self, addr: u32) {
        let (page, slot) = Self::locate(addr);
        let Some(held) = self.pages.get_mut(page) else {
            return;
        };
        let Some(chunk) = held.as_mut() else {
            return;
        };
        chunk.entries[slot] = E::default();
        chunk.live -= 1;
        if chunk.live == 0 {
            self.spare.extend(held.take());
        }
    }

    /// The page numbers that hold a chunk, in ascending order.
    #[cfg(test)]
    pub(crate) fn held_pages(&self) -> impl Iterator<Item = u32> + '_ {
        self.pages
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_some())
            .map(|(p, _)| p as u32)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{HashMap, HashSet};

    use proptest::prelude::*;

    use super::*;

    /// The union of both directory entries' fields: sharers, E/M holders
    /// and loss marks. Vacant when it has no sharer and no mark.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    struct Presence {
        sharers: u64,
        excl: u64,
        lost: u64,
    }

    impl Vacancy for Presence {
        fn is_vacant(&self) -> bool {
            self.sharers | self.lost == 0
        }
    }

    /// One directory operation, shaped like a hierarchy call site.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        AddSharer,
        SetState(bool),
        RemoveSharer,
        LossMark,
        TakeLost,
        Release,
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            Just(Step::AddSharer),
            any::<bool>().prop_map(Step::SetState),
            Just(Step::RemoveSharer),
            Just(Step::LossMark),
            Just(Step::TakeLost),
            Just(Step::Release),
        ]
    }

    /// The same operation on the directory and on a `HashMap` that holds
    /// exactly the live entries.
    fn apply<const N: usize>(
        dir: &mut PageDir<Presence, N>,
        model: &mut HashMap<u32, Presence>,
        step: Step,
        key: u32,
        core: usize,
    ) {
        let bit = 1u64 << core;
        fn with<const N: usize>(
            dir: &mut PageDir<Presence, N>,
            model: &mut HashMap<u32, Presence>,
            key: u32,
            f: impl Fn(&mut Presence),
        ) {
            if let Some(e) = dir.get_mut(key) {
                f(e);
                if e.is_vacant() {
                    dir.remove(key);
                }
            }
            if let Some(e) = model.get_mut(&key) {
                f(e);
                if e.is_vacant() {
                    model.remove(&key);
                }
            }
        }
        match step {
            Step::AddSharer => {
                dir.entry(key).sharers |= bit;
                model.entry(key).or_default().sharers |= bit;
            }
            Step::SetState(excl) => with(dir, model, key, |e| {
                if e.sharers & bit != 0 {
                    e.excl = if excl { e.excl | bit } else { e.excl & !bit };
                }
            }),
            Step::RemoveSharer => with(dir, model, key, |e| {
                e.sharers &= !bit;
                e.excl &= !bit;
            }),
            Step::LossMark => with(dir, model, key, |e| {
                let dropped = e.sharers & !bit;
                e.sharers &= !dropped;
                e.excl &= !dropped;
                e.lost |= dropped;
            }),
            Step::TakeLost => with(dir, model, key, |e| e.lost &= !bit),
            Step::Release => {
                if dir.get(key).is_some() {
                    dir.remove(key);
                }
                model.remove(&key);
            }
        }
    }

    fn check<const N: usize>(steps: &[(Step, u32, u32, usize)]) {
        let mut dir = PageDir::<Presence, N>::default();
        let mut model = HashMap::new();
        let mut touched = HashSet::new();
        for &(step, page, slot, core) in steps {
            let key = page * PAGE_SIZE + (slot % N as u32) * PageDir::<Presence, N>::STRIDE;
            touched.insert(key);
            apply(&mut dir, &mut model, step, key, core);
            for &k in &touched {
                prop_assert_eq!(dir.get(k), model.get(&k), "key {:#x}", k);
            }
            let live_pages: HashSet<u32> = model.keys().map(|k| k / PAGE_SIZE).collect();
            let held: HashSet<u32> = dir.held_pages().collect();
            prop_assert_eq!(held, live_pages);
            for chunk in &dir.spare {
                prop_assert!(chunk.entries.iter().all(Vacancy::is_vacant));
            }
        }
    }

    fn steps() -> impl Strategy<Value = Vec<(Step, u32, u32, usize)>> {
        // Ten pages of four keys each, so pages empty and refill often.
        proptest::collection::vec((step(), 0u32..10, 0u32..4, 0usize..3), 1..300)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn line_directory_matches_a_map(steps in steps()) {
            check::<64>(&steps);
        }

        #[test]
        fn root_directory_matches_a_map(steps in steps()) {
            check::<1024>(&steps);
        }
    }

    #[test]
    fn released_chunks_are_reused() {
        let mut dir = PageDir::<Presence, 64>::default();
        for page in 1..=8u32 {
            dir.entry(page * PAGE_SIZE).sharers = 1;
            dir.remove(page * PAGE_SIZE);
        }
        assert_eq!(dir.allocated, 1);
        assert_eq!(dir.spare.len(), 1);
        assert_eq!(dir.held_pages().count(), 0);
    }
}
