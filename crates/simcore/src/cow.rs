//! Copy-on-write chunked vector, the one representation of every table
//! a world fork would otherwise copy: the simulated xenstored's dense
//! tables (store node arena, digest cache, symbol→slot map, watch
//! lists) and the per-domain and per-connection tables keyed by domid
//! (hypervisor domains, event channels, grants, device back-ends,
//! switch ports, the toolstack's VM records).

use std::sync::Arc;

/// Default slots per chunk. 64 keeps a chunk copy at a few KB — small
/// enough that a forked world touching a handful of guests localises
/// only a handful of chunks.
const CHUNK: usize = 64;

/// A vector stored as fixed-size chunks shared copy-on-write across
/// clones: a clone bumps one refcount per chunk instead of deep-copying
/// every element, and a write localises only the chunk it lands in
/// (`Arc::make_mut`). This is what keeps a forked world's memory
/// O(chunks + post-fork writes) rather than O(template size).
///
/// Every index reads as `fill` until written; there is no length. A
/// chunk is allocated on its first write and released again when
/// [`ChunkVec::reset`] returns its last slot to `fill`, so sparse
/// indices (a domain's port numbers, which only grow) cost a pointer
/// per unwritten chunk.
///
/// Keyed tables use `ChunkVec<Option<Arc<V>>>` (see the `value*`
/// methods): a chunk copy is then 64 refcount bumps, whatever `V`
/// holds, and a write copies the one value it touches.
///
/// `N` is the slots per chunk: a table whose rows are mostly a handful of
/// slots (one domain's ports) takes a smaller one.
#[derive(Clone, Debug, Default)]
pub struct ChunkVec<T, const N: usize = CHUNK> {
    /// `None`: every slot of the chunk reads as `fill`.
    chunks: Vec<Option<Arc<[T; N]>>>,
    fill: T,
}

impl<T: Clone, const N: usize> ChunkVec<T, N> {
    /// An empty vector whose every index reads as `fill`.
    pub fn new(fill: T) -> ChunkVec<T, N> {
        ChunkVec {
            chunks: Vec::new(),
            fill,
        }
    }

    /// The element at `i`; `fill` past the written range.
    #[inline]
    pub fn get(&self, i: usize) -> &T {
        self.chunks
            .get(i / N)
            .and_then(Option::as_ref)
            .map_or(&self.fill, |c| &c[i % N])
    }

    /// The element at `i`, for writing: allocates its chunk as `fill`
    /// if never written and copies it first if a clone still shares it.
    /// Callers that may not end up writing should test [`ChunkVec::get`]
    /// first, to avoid a pointless chunk copy.
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        if self.chunks.len() <= i / N {
            self.chunks.resize(i / N + 1, None);
        }
        let fill = &self.fill;
        let chunk = self.chunks[i / N]
            .get_or_insert_with(|| Arc::new(std::array::from_fn(|_| fill.clone())));
        &mut Arc::make_mut(chunk)[i % N]
    }

    /// Sets `i` back to `fill`, releasing its chunk instead when that was
    /// the chunk's last other slot; a slot already at `fill` copies
    /// nothing.
    pub fn reset(&mut self, i: usize)
    where
        T: PartialEq,
    {
        let (c, k) = (i / N, i % N);
        let Some(chunk) = self.chunks.get(c).and_then(Option::as_ref) else {
            return;
        };
        if chunk[k] == self.fill {
            return;
        }
        if chunk.iter().enumerate().all(|(j, v)| j == k || *v == self.fill) {
            self.chunks[c] = None;
        } else {
            *self.get_mut(i) = self.fill.clone();
        }
    }

    /// Resets every index to `fill`.
    pub fn clear(&mut self) {
        self.chunks.clear();
    }

    /// `(index, element)` over the allocated chunks, ascending: whole
    /// chunks, so some `fill` slots are included.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.chunks.iter().enumerate().flat_map(|(c, chunk)| {
            chunk
                .iter()
                .flat_map(|chunk| chunk.iter())
                .enumerate()
                .map(move |(k, v)| (c * N + k, v))
        })
    }
}

/// A sparse keyed table: slot `i` holds key `i`'s `Arc`'d value, or
/// `None`. Reads and misses never copy; a write copies the touched
/// chunk's refcounts and the one value, each only if a clone shares it.
impl<V: Clone> ChunkVec<Option<Arc<V>>> {
    /// Key `i`'s value, if present.
    #[inline]
    pub fn value(&self, i: usize) -> Option<&V> {
        self.get(i).as_deref()
    }

    /// Key `i`'s value for writing, if present.
    pub fn value_mut(&mut self, i: usize) -> Option<&mut V> {
        self.get(i).as_ref()?;
        self.get_mut(i).as_mut().map(Arc::make_mut)
    }

    /// Key `i`'s value for writing, inserted as `V::default()` if absent.
    pub fn value_or_default(&mut self, i: usize) -> &mut V
    where
        V: Default,
    {
        Arc::make_mut(self.get_mut(i).get_or_insert_with(Default::default))
    }

    /// Sets key `i`'s value, returning the old one.
    pub fn insert(&mut self, i: usize, value: V) -> Option<Arc<V>> {
        self.get_mut(i).replace(Arc::new(value))
    }

    /// Removes key `i`'s value.
    pub fn remove(&mut self, i: usize) -> Option<Arc<V>> {
        self.get(i).as_ref()?;
        self.get_mut(i).take()
    }

    /// `(key, value)` over the present keys, ascending.
    pub fn values(&self) -> impl Iterator<Item = (usize, &V)> {
        self.iter().filter_map(|(i, v)| Some((i, v.as_deref()?)))
    }
}

/// Short per-key lists (a domain's devices, say), one `Arc`'d slice per
/// key: one allocation per key, rebuilt whenever an item comes or goes.
impl<T: Clone> ChunkVec<Option<Arc<[T]>>> {
    /// Appends `item` to key `i`'s list.
    pub fn push_to(&mut self, i: usize, item: T) {
        let slot = self.get_mut(i);
        *slot = Some(match slot.take() {
            None => Arc::from([item]),
            Some(items) => items.iter().cloned().chain([item]).collect(),
        });
    }

    /// Keeps the items of key `i`'s list that `keep` accepts, dropping
    /// the list once empty; returns how many went. A key without a list
    /// copies nothing.
    pub fn retain_in(&mut self, i: usize, mut keep: impl FnMut(&T) -> bool) -> usize {
        let Some(items) = self.get(i) else {
            return 0;
        };
        let rest: Vec<T> = items.iter().filter(|t| keep(t)).cloned().collect();
        let gone = items.len() - rest.len();
        if gone > 0 {
            *self.get_mut(i) = (!rest.is_empty()).then(|| rest.into());
        }
        gone
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    /// Random `get_mut` / `clone` / `clear` sequences against a plain
    /// `Vec` model: every index reads the same, and a write to a clone
    /// never shows in the original (nor the reverse).
    #[test]
    fn matches_a_plain_vec_and_clones_are_isolated() {
        const FILL: u32 = u32::MAX;
        let mut rng = SimRng::new(0xC0C0);
        let read = |model: &[u32], i: usize| model.get(i).copied().unwrap_or(FILL);
        let write = |rng: &mut SimRng, cv: &mut ChunkVec<u32>, model: &mut Vec<u32>| {
            let i = rng.index(400);
            let v = rng.next_u64() as u32;
            *cv.get_mut(i) = v;
            if model.len() <= i {
                model.resize(i + 1, FILL);
            }
            model[i] = v;
        };
        for _case in 0..64 {
            let mut cv = ChunkVec::new(FILL);
            let mut model: Vec<u32> = Vec::new();
            // Clones taken along the way, each with the model it froze.
            let mut frozen: Vec<(ChunkVec<u32>, Vec<u32>)> = Vec::new();
            for _step in 0..300 {
                match rng.index(20) {
                    0 => {
                        cv.clear();
                        model.clear();
                    }
                    7 | 8 => {
                        let i = rng.index(400);
                        cv.reset(i);
                        if let Some(v) = model.get_mut(i) {
                            *v = FILL;
                        }
                    }
                    1 | 2 => frozen.push((cv.clone(), model.clone())),
                    3..=6 if !frozen.is_empty() => {
                        // Write to a clone; the original must not move.
                        let k = rng.index(frozen.len());
                        let (c, m) = &mut frozen[k];
                        write(&mut rng, c, m);
                    }
                    _ => write(&mut rng, &mut cv, &mut model),
                }
            }
            frozen.push((cv, model));
            for (c, m) in &frozen {
                for i in 0..520 {
                    assert_eq!(*c.get(i), read(m, i), "index {i}");
                }
                let written: Vec<usize> = (0..m.len()).filter(|&i| m[i] != FILL).collect();
                let mut seen = Vec::new();
                for (i, v) in c.iter() {
                    assert_eq!(*v, read(m, i), "iter index {i}");
                    if *v != FILL {
                        seen.push(i);
                    }
                }
                assert_eq!(seen, written);
                // A chunk is allocated exactly while it holds a written
                // slot: reset releases it, clear drops them all.
                for (k, chunk) in c.chunks.iter().enumerate() {
                    let held = written.iter().any(|&i| i / CHUNK == k);
                    assert_eq!(chunk.is_some(), held, "chunk {k}");
                }
            }
        }
    }

    /// Keyed use against a `BTreeMap` model: same contents, misses copy
    /// no chunk, and a write to a clone copies one chunk and one value.
    #[test]
    fn keyed_values_match_a_map_and_share_until_written() {
        use std::collections::BTreeMap;
        let mut rng = SimRng::new(0xD0D0);
        let mut t: ChunkVec<Option<Arc<Vec<u32>>>> = ChunkVec::new(None);
        let mut model: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
        for _ in 0..2000 {
            let k = rng.index(300);
            let v = rng.next_u64() as u32;
            match rng.index(4) {
                0 => {
                    t.insert(k, vec![v]);
                    model.insert(k, vec![v]);
                }
                1 => assert_eq!(t.remove(k).map(|a| (*a).clone()), model.remove(&k)),
                2 => {
                    t.value_or_default(k).push(v);
                    model.entry(k).or_default().push(v);
                }
                _ => {
                    if let Some(x) = t.value_mut(k) {
                        x.push(v);
                    }
                    if let Some(x) = model.get_mut(&k) {
                        x.push(v);
                    }
                }
            }
        }
        let got: Vec<(usize, &Vec<u32>)> = t.values().collect();
        let want: Vec<(usize, &Vec<u32>)> = model.iter().map(|(k, v)| (*k, v)).collect();
        assert_eq!(got, want);

        let (k, _) = t.values().next().expect("non-empty");
        let mut fork = t.clone();
        assert!(fork.value_mut(t.chunks.len() * CHUNK + 5).is_none());
        assert!(fork.remove(t.chunks.len() * CHUNK + 5).is_none());
        // Chunk `c` of `a` and `b` is one shared allocation (or absent).
        fn same_chunk<T>(a: &ChunkVec<T>, b: &ChunkVec<T>, c: usize) -> bool {
            match (&a.chunks[c], &b.chunks[c]) {
                (Some(x), Some(y)) => Arc::ptr_eq(x, y),
                (x, y) => x.is_none() && y.is_none(),
            }
        }
        for c in 0..t.chunks.len() {
            assert!(same_chunk(&t, &fork, c), "a miss copies nothing");
        }
        fork.value_mut(k).expect("present").push(7);
        let copied = (0..t.chunks.len())
            .filter(|&c| !same_chunk(&t, &fork, c))
            .count();
        assert_eq!(copied, 1, "a write copies only its chunk");
        assert_eq!(t.value(k), model.get(&k));
        let shared = (0..CHUNK * t.chunks.len())
            .filter(|&i| i != k && t.get(i).is_some())
            .all(|i| Arc::ptr_eq(t.get(i).as_ref().unwrap(), fork.get(i).as_ref().unwrap()));
        assert!(shared, "untouched values stay shared");
    }
}
