//! Grow-once scratch buffer pool for kernel workspaces.
//!
//! The convolution kernels need im2col/col2im workspaces whose size depends
//! only on the layer geometry. Allocating them per call costs an
//! `alloc + memset` on the BPTT hot path for every sample × timestep × epoch.
//! A [`ScratchPool`] owned by the layer amortizes that: buffers are taken,
//! used, and returned, and each buffer grows at most once per distinct
//! geometry it serves (capacity is retained across uses).
//!
//! The pool is `Sync` (a mutex guards the free list) so sample-parallel
//! workers can take distinct buffers concurrently; a buffer is only ever
//! owned by one worker at a time.

use std::sync::Mutex;

/// A pool of reusable `Vec<f32>` workspaces.
///
/// `take` hands out a buffer with *unspecified contents* (retained elements
/// keep stale values); use [`ScratchPool::take_zeroed`] when the kernel reads
/// before writing. Buffers not returned via [`ScratchPool::give`] are simply
/// dropped — the pool never leaks, it just re-allocates next time.
#[derive(Debug, Default)]
pub struct ScratchPool {
    free: Mutex<Vec<Vec<f32>>>,
    free_u32: Mutex<Vec<Vec<u32>>>,
    free_i32: Mutex<Vec<Vec<i32>>>,
}

impl ScratchPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a buffer of exactly `len` elements with unspecified contents.
    ///
    /// Prefers the smallest pooled buffer whose capacity already covers
    /// `len` (no allocation, and a small request never holds a large buffer
    /// another taker needs); otherwise grows a pooled buffer or allocates
    /// fresh.
    pub fn take(&self, len: usize) -> Vec<f32> {
        let mut free = self.free.lock().expect("scratch pool mutex");
        let fits = free.iter().enumerate().filter(|(_, b)| b.capacity() >= len);
        if let Some((pos, _)) = fits.min_by_key(|(_, b)| b.capacity()) {
            let mut buf = free.swap_remove(pos);
            buf.resize(len, 0.0);
            return buf;
        }
        if let Some(mut buf) = free.pop() {
            drop(free);
            buf.resize(len, 0.0);
            return buf;
        }
        drop(free);
        vec![0.0; len]
    }

    /// Takes a buffer of exactly `len` elements, all zero.
    pub fn take_zeroed(&self, len: usize) -> Vec<f32> {
        let mut buf = self.take(len);
        buf.fill(0.0);
        buf
    }

    /// Returns a buffer to the pool for reuse.
    pub fn give(&self, buf: Vec<f32>) {
        if buf.capacity() == 0 {
            return;
        }
        self.free.lock().expect("scratch pool mutex").push(buf);
    }

    /// Takes an *empty* `u32` index buffer with retained capacity.
    ///
    /// The spike kernels build fired-index lists by pushing, so unlike the
    /// f32 side the buffer comes back cleared (`len == 0`) rather than sized.
    pub fn take_u32(&self) -> Vec<u32> {
        let mut free = self.free_u32.lock().expect("scratch pool mutex");
        match free.pop() {
            Some(mut buf) => {
                buf.clear();
                buf
            }
            None => Vec::new(),
        }
    }

    /// Returns a `u32` index buffer to the pool for reuse.
    pub fn give_u32(&self, buf: Vec<u32>) {
        if buf.capacity() == 0 {
            return;
        }
        self.free_u32.lock().expect("scratch pool mutex").push(buf);
    }

    /// Number of `u32` index buffers currently idle in the pool.
    pub fn idle_u32_buffers(&self) -> usize {
        self.free_u32.lock().expect("scratch pool mutex").len()
    }

    /// Takes an `i32` accumulator buffer of exactly `len` elements, all zero
    /// (the quantized gather-add kernels accumulate with `+=`).
    pub fn take_i32_zeroed(&self, len: usize) -> Vec<i32> {
        let mut free = self.free_i32.lock().expect("scratch pool mutex");
        let mut buf = match free.iter().position(|b| b.capacity() >= len) {
            Some(pos) => free.swap_remove(pos),
            None => free.pop().unwrap_or_default(),
        };
        drop(free);
        buf.clear();
        buf.resize(len, 0);
        buf.fill(0);
        buf
    }

    /// Returns an `i32` accumulator buffer to the pool for reuse.
    pub fn give_i32(&self, buf: Vec<i32>) {
        if buf.capacity() == 0 {
            return;
        }
        self.free_i32.lock().expect("scratch pool mutex").push(buf);
    }

    /// Number of `i32` accumulator buffers currently idle in the pool.
    pub fn idle_i32_buffers(&self) -> usize {
        self.free_i32.lock().expect("scratch pool mutex").len()
    }

    /// Number of buffers currently idle in the pool.
    pub fn idle_buffers(&self) -> usize {
        self.free.lock().expect("scratch pool mutex").len()
    }

    /// Total f32 capacity retained across idle buffers.
    pub fn retained_capacity(&self) -> usize {
        self.free
            .lock()
            .expect("scratch pool mutex")
            .iter()
            .map(|b| b.capacity())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_give_reuses_capacity() {
        let pool = ScratchPool::new();
        let buf = pool.take(128);
        assert_eq!(buf.len(), 128);
        let ptr = buf.as_ptr();
        pool.give(buf);
        assert_eq!(pool.idle_buffers(), 1);
        // Same or smaller request reuses the same allocation.
        let again = pool.take(64);
        assert_eq!(again.as_ptr(), ptr);
        assert_eq!(again.len(), 64);
        assert_eq!(pool.idle_buffers(), 0);
    }

    #[test]
    fn grows_at_most_once_per_geometry_change() {
        let pool = ScratchPool::new();
        pool.give(pool.take(16));
        // A larger request grows the pooled buffer in place of allocating
        // a second one; the pool keeps a single buffer afterwards.
        pool.give(pool.take(1024));
        assert_eq!(pool.idle_buffers(), 1);
        assert!(pool.retained_capacity() >= 1024);
    }

    #[test]
    fn take_zeroed_clears_stale_contents() {
        let pool = ScratchPool::new();
        let mut buf = pool.take(8);
        buf.fill(3.5);
        pool.give(buf);
        let clean = pool.take_zeroed(8);
        assert!(clean.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn u32_pool_reuses_capacity_and_clears() {
        let pool = ScratchPool::new();
        let mut idx = pool.take_u32();
        idx.extend(0..100u32);
        let ptr = idx.as_ptr();
        pool.give_u32(idx);
        assert_eq!(pool.idle_u32_buffers(), 1);
        let again = pool.take_u32();
        assert_eq!(again.as_ptr(), ptr);
        assert!(again.is_empty());
        assert!(again.capacity() >= 100);
        // Empty never-grown buffers are not retained.
        pool.give_u32(Vec::new());
        assert_eq!(pool.idle_u32_buffers(), 0);
    }

    #[test]
    fn i32_pool_reuses_capacity_and_zeroes() {
        let pool = ScratchPool::new();
        let mut acc = pool.take_i32_zeroed(64);
        assert!(acc.iter().all(|&v| v == 0));
        acc.iter_mut().for_each(|v| *v = -7);
        let ptr = acc.as_ptr();
        pool.give_i32(acc);
        assert_eq!(pool.idle_i32_buffers(), 1);
        let again = pool.take_i32_zeroed(32);
        assert_eq!(again.as_ptr(), ptr);
        assert_eq!(again.len(), 32);
        assert!(again.iter().all(|&v| v == 0));
    }

    #[test]
    fn concurrent_takes_get_distinct_buffers() {
        let pool = ScratchPool::new();
        let a = pool.take(32);
        let b = pool.take(32);
        assert_ne!(a.as_ptr(), b.as_ptr());
        pool.give(a);
        pool.give(b);
        assert_eq!(pool.idle_buffers(), 2);
    }
}
