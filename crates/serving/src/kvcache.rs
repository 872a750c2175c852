//! PagedAttention-style KV-cache block pool.
//!
//! vLLM's core idea (the paper picked vLLM for exactly this, §4.1) is to
//! manage the KV cache in fixed-size blocks so memory is neither fragmented
//! nor over-reserved. The engine simulator uses this pool to decide how many
//! sequences can run concurrently, which is what bounds batch size — and
//! therefore throughput — for long-context workloads.

/// Tokens stored per KV block (vLLM default).
pub(crate) const DEFAULT_BLOCK_TOKENS: u32 = 16;

/// A pool of KV-cache blocks shared by all sequences on one engine instance.
///
/// The pool counts free blocks only: each running sequence keeps the block
/// count [`BlockPool::reserve`] handed it and gives that count back through
/// [`BlockPool::release`], so a reservation and a release each cost one
/// subtraction and no lookup.
#[derive(Debug, Clone)]
pub(crate) struct BlockPool {
    /// Tokens per block.
    pub(crate) block_tokens: u32,
    total_blocks: u64,
    free_blocks: u64,
}

impl BlockPool {
    /// Create a pool with the given number of blocks.
    pub(crate) fn new(total_blocks: u64, block_tokens: u32) -> Self {
        BlockPool {
            block_tokens: block_tokens.max(1),
            total_blocks,
            free_blocks: total_blocks,
        }
    }

    /// Size the pool from available memory: `free_gb` of GPU memory divided by
    /// the per-token KV footprint of the model.
    pub(crate) fn from_memory(free_gb: f64, kv_mb_per_token: f64, block_tokens: u32) -> Self {
        let tokens = (free_gb.max(0.0) * 1024.0) / kv_mb_per_token.max(1e-6);
        let blocks = (tokens / block_tokens.max(1) as f64).floor() as u64;
        Self::new(blocks, block_tokens)
    }

    /// Total blocks in the pool.
    pub(crate) fn total_blocks(&self) -> u64 {
        self.total_blocks
    }

    /// Blocks currently held by sequences.
    fn used_blocks(&self) -> u64 {
        self.total_blocks - self.free_blocks
    }

    /// Blocks needed to hold `tokens` tokens.
    pub(crate) fn blocks_for_tokens(&self, tokens: u32) -> u64 {
        (tokens as u64).div_ceil(self.block_tokens as u64)
    }

    /// Whether a sequence of `tokens` total length could be admitted now.
    pub(crate) fn can_admit(&self, tokens: u32) -> bool {
        self.blocks_for_tokens(tokens) <= self.free_blocks
    }

    /// Reserve blocks covering `tokens` tokens for one sequence. Returns the
    /// number of blocks reserved, which the sequence keeps and hands back to
    /// [`BlockPool::release`], or `None` (reserving nothing) if the pool
    /// lacks space.
    pub(crate) fn reserve(&mut self, tokens: u32) -> Option<u64> {
        let need = self.blocks_for_tokens(tokens);
        if need > self.free_blocks {
            return None;
        }
        self.free_blocks -= need;
        Some(need)
    }

    /// Return a finished sequence's `blocks` (its reservation) to the pool.
    pub(crate) fn release(&mut self, blocks: u64) {
        assert!(
            blocks <= self.used_blocks(),
            "released {blocks} blocks with only {} held",
            self.used_blocks()
        );
        self.free_blocks += blocks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_release_conserve_blocks() {
        let mut pool = BlockPool::new(100, 16);
        let a = pool.reserve(160).expect("room for 10 blocks");
        let b = pool.reserve(170).expect("room for 11 blocks");
        assert_eq!((a, b), (10, 11));
        assert_eq!(pool.used_blocks(), 21);
        assert_eq!(pool.free_blocks, 79);
        pool.release(a);
        assert_eq!(pool.used_blocks(), 11);
        pool.release(b);
        assert_eq!(pool.free_blocks, 100);
    }

    #[test]
    fn reserve_fails_when_full_without_side_effects() {
        let mut pool = BlockPool::new(10, 16);
        let held = pool.reserve(150).expect("10 blocks fit"); // pool now full
        assert!(!pool.can_admit(16));
        assert_eq!(pool.reserve(16), None);
        assert_eq!(pool.used_blocks(), 10);
        assert_eq!(pool.free_blocks, 0);
        pool.release(held);
        assert_eq!(pool.reserve(16), Some(1));
    }

    #[test]
    fn from_memory_sizes_the_pool() {
        // 148 GB free, 0.4 MB/token, 16-token blocks → ~23k blocks.
        let pool = BlockPool::from_memory(148.0, 0.4, 16);
        assert!(pool.total_blocks() > 20_000 && pool.total_blocks() < 25_000);
        let empty = BlockPool::from_memory(0.0, 0.4, 16);
        assert_eq!(empty.total_blocks(), 0);
    }

    #[test]
    fn utilization_tracks_usage() {
        let mut pool = BlockPool::new(100, 16);
        assert_eq!(pool.used_blocks(), 0);
        let held = pool.reserve(16 * 50).expect("half the pool fits");
        assert_eq!(pool.used_blocks(), 50);
        pool.release(held);
        assert_eq!(pool.used_blocks(), 0);
    }
}
