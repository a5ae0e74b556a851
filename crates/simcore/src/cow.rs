//! Copy-on-write chunked vector, the shared representation of the
//! simulated xenstored's dense tables (store node arena, digest cache,
//! symbol→slot map, watch lists).

use std::sync::Arc;

/// Slots per chunk. 64 keeps a chunk copy at a few KB — small enough
/// that a forked world touching a handful of guests localises only a
/// handful of chunks.
const CHUNK: usize = 64;

/// A dense vector stored as fixed-size chunks shared copy-on-write
/// across clones: a clone bumps one refcount per chunk instead of
/// deep-copying every element, and a write localises only the chunk it
/// lands in (`Arc::make_mut`). This is what keeps a forked world's
/// memory O(post-fork writes) rather than O(template size).
///
/// Every index reads as `fill` until written; there is no length.
#[derive(Clone, Debug, Default)]
pub struct ChunkVec<T> {
    chunks: Vec<Arc<[T; CHUNK]>>,
    fill: T,
}

impl<T: Clone> ChunkVec<T> {
    /// An empty vector whose every index reads as `fill`.
    pub fn new(fill: T) -> ChunkVec<T> {
        ChunkVec {
            chunks: Vec::new(),
            fill,
        }
    }

    /// The element at `i`; `fill` past the written range.
    #[inline]
    pub fn get(&self, i: usize) -> &T {
        self.chunks
            .get(i / CHUNK)
            .map_or(&self.fill, |c| &c[i % CHUNK])
    }

    /// The element at `i`, for writing: grows by whole `fill` chunks up
    /// to `i` and copies the chunk first if a clone still shares it.
    /// Callers that may not end up writing should test [`ChunkVec::get`]
    /// first, to avoid a pointless chunk copy.
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        while self.chunks.len() <= i / CHUNK {
            self.chunks
                .push(Arc::new(std::array::from_fn(|_| self.fill.clone())));
        }
        &mut Arc::make_mut(&mut self.chunks[i / CHUNK])[i % CHUNK]
    }

    /// Resets every index to `fill`.
    pub fn clear(&mut self) {
        self.chunks.clear();
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
            }
        }
    }
}
