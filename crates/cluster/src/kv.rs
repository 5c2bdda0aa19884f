//! Paged KV-cache model with hash-based prefix caching (vLLM-style).
//!
//! Each replica owns a fixed pool of KV blocks sized from its backend's
//! memory budget after weights ([`CostModel::kv_capacity_bytes`]). In-flight
//! sequences hold *pinned* prefix blocks (shared, refcounted) and *private*
//! blocks (their own suffix + generated tokens). Completed sequences donate
//! their blocks back to the prefix pool under chain keys — a later turn of
//! the same session, or another request sharing the same system prompt,
//! hits those blocks and skips prefill for the covered tokens. Unreferenced
//! cached blocks are reclaimed in strict LRU order; when even eviction
//! cannot find a free block for a decode step, the engine preempts the
//! youngest co-resident sequence and requeues it (wasted-token accounting
//! mirrors PR 6's crash path).
//!
//! The prefix pool is indexed by chain: one `BTreeMap` lookup per
//! `(tag, ident)` chain (lint D001 keeps hash maps out), then a `Vec` of
//! block slots read by position. A request's shareable blocks form at most
//! two runs of positions, one per chain ([`chain_runs`]), so every walk
//! over them looks each chain up once and then reads a slice of its
//! slots. Resident blocks live in a slab threaded by an intrusive doubly
//! linked LRU list over the cached ones; a block joins the newest end
//! exactly when its refcount drops to zero, so list order is age order.
//! Everything here is deterministic, and all sizing is integer block
//! arithmetic. The engine asserts block conservation
//! (`free + pinned + cached + private == total`) after every event.

use crate::engine::ClusterRequest;
use llmsim_core::CostModel;
use llmsim_model::{DType, ModelConfig};
use std::collections::BTreeMap;

/// Paged-KV configuration, attached to a fleet via
/// [`crate::ClusterConfig::with_kv`]. `None` (the default) leaves the
/// engine on its byte-identical fixed-slot path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvConfig {
    /// Tokens per KV block (vLLM defaults to 16).
    pub block_tokens: u64,
    /// Dtype of the cached K/V tensors (sets bytes-per-token).
    pub kv_dtype: DType,
    /// Keep completed sequences' blocks as a refcounted prefix cache. When
    /// off, blocks still page (allocation, growth, preemption) but every
    /// request pays full prefill.
    pub prefix_caching: bool,
    /// Fixed per-replica pool size in blocks, overriding the
    /// memory-derived capacity. Used by capacity-sweep experiments.
    pub capacity_blocks_override: Option<u64>,
}

impl KvConfig {
    /// vLLM-flavored defaults: 16-token blocks, fp16 KV, prefix caching on.
    #[must_use]
    pub fn new() -> Self {
        KvConfig {
            block_tokens: 16,
            kv_dtype: DType::Fp16,
            prefix_caching: true,
            capacity_blocks_override: None,
        }
    }

    /// Sets the block size in tokens.
    #[must_use]
    pub fn with_block_tokens(mut self, tokens: u64) -> Self {
        self.block_tokens = tokens;
        self
    }

    /// Sets the KV dtype.
    #[must_use]
    pub fn with_dtype(mut self, dtype: DType) -> Self {
        self.kv_dtype = dtype;
        self
    }

    /// Enables or disables the prefix cache.
    #[must_use]
    pub fn with_prefix_caching(mut self, on: bool) -> Self {
        self.prefix_caching = on;
        self
    }

    /// Pins every replica's pool to a fixed block count.
    #[must_use]
    pub fn with_capacity_blocks(mut self, blocks: u64) -> Self {
        self.capacity_blocks_override = Some(blocks);
        self
    }

    /// Blocks a replica backend can hold: KV budget after weights, divided
    /// by the block footprint of the *largest* served model (conservative:
    /// a heterogeneous model list is sized for its worst case so the pool
    /// never overcommits).
    #[must_use]
    pub fn capacity_blocks(&self, backend: &dyn CostModel, models: &[ModelConfig]) -> u64 {
        if let Some(blocks) = self.capacity_blocks_override {
            return blocks;
        }
        let per_token = models
            .iter()
            .map(|m| m.kv_bytes_per_token(self.kv_dtype))
            .max()
            .unwrap_or(0)
            .max(1);
        backend.kv_capacity_bytes(models).get() / (per_token * self.block_tokens.max(1))
    }
}

impl Default for KvConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Identity of a shareable block: `(tag, chain id, position)`. Tag 0 chains
/// hang off an explicit `prefix_id` (shared system prompts); tag 1 chains
/// hang off a `session` id (multi-turn context). Position is the block
/// index within the chain, so a chain is shareable exactly up to its first
/// divergence.
pub(crate) type BlockKey = (u8, u64, u32);

/// Chain key for block `k` of `req`'s context, or `None` when that block
/// is anonymous (no prefix or session identity covers it). The serving
/// model is folded into the chain id (high 16 bits): the same system
/// prompt produces different KV tensors under different models, so chains
/// must never alias across them. The pool walks [`chain_runs`] instead;
/// this block-by-block form defines them and drives the reference pool.
#[cfg(test)]
fn chain_key(req: &ClusterRequest, k: u64, block_tokens: u64) -> Option<BlockKey> {
    let end = (k + 1) * block_tokens;
    let pos = u32::try_from(k).ok()?;
    if req.prefix_id != 0 && end <= req.prefix_len {
        Some((0, chain_ident(req.model, req.prefix_id), pos))
    } else if req.session != 0 && end <= req.prompt_len + req.gen_len {
        Some((1, chain_ident(req.model, req.session), pos))
    } else {
        None
    }
}

/// Packs the serving model into the high bits of a chain id.
fn chain_ident(model: usize, id: u64) -> u64 {
    (model as u64) << 48 | (id & 0xFFFF_FFFF_FFFF)
}

/// Identity of a chain: the `(tag, ident)` its block keys share.
type ChainId = (u8, u64);

/// Consecutive context positions `start..end` of one request that all
/// belong to chain `id` (empty when `start == end`).
#[derive(Debug, Clone, Copy)]
struct ChainRun {
    id: ChainId,
    start: u64,
    end: u64,
}

impl ChainRun {
    /// The part of this run inside positions `from..to`, as a slot-index
    /// range (empty when they do not overlap).
    fn clip(&self, from: u64, to: u64) -> std::ops::Range<usize> {
        let start = self.start.max(from);
        start as usize..self.end.min(to).max(start) as usize
    }
}

/// The shareable positions of `req`'s context as two runs, in position
/// order: the prefix chain over `0..prefix_len / bt`, then the session
/// chain up to `(prompt_len + gen_len) / bt`; every later position is
/// anonymous. Either run may be empty. Position `k` lies in a run exactly
/// when `chain_key` names that run's chain for block `k` (a position past
/// `u32::MAX` has no key, so both runs stop there); a proptest holds the
/// two to that, and the reference-pool differential test holds the pool.
fn chain_runs(req: &ClusterRequest, block_tokens: u64) -> [ChainRun; 2] {
    const POSITIONS: u64 = u32::MAX as u64 + 1;
    let bt = block_tokens.max(1);
    let prefix_end = if req.prefix_id == 0 {
        0
    } else {
        (req.prefix_len / bt).min(POSITIONS)
    };
    let session_end = if req.session == 0 {
        prefix_end
    } else {
        ((req.prompt_len + req.gen_len) / bt).clamp(prefix_end, POSITIONS)
    };
    [
        ChainRun {
            id: (0, chain_ident(req.model, req.prefix_id)),
            start: 0,
            end: prefix_end,
        },
        ChainRun {
            id: (1, chain_ident(req.model, req.session)),
            start: prefix_end,
            end: session_end,
        },
    ]
}

/// "No slot": an empty chain position, or the end of the LRU list.
const NIL: u32 = u32::MAX;

/// A resident shareable block: one slot of the [`BlockSlab`].
#[derive(Debug, Clone, Copy)]
struct PrefixBlock {
    /// The block's chain and position (eviction finds its chain by it).
    key: BlockKey,
    /// In-flight sequences currently pinning this block. Zero means the
    /// block is cached (evictable, on the LRU list); nonzero means pinned.
    refs: u32,
    /// Next older cached block on the LRU list (`NIL` at the oldest).
    older: u32,
    /// Next newer cached block on the LRU list (`NIL` at the newest).
    newer: u32,
}

/// The resident blocks of one chain, by position.
#[derive(Debug, Clone, Default)]
struct Chain {
    /// `slots[pos]` = slab slot of block `pos`, or `NIL` when that
    /// position is not resident. Ends on a resident block.
    slots: Vec<u32>,
    /// Resident blocks; the chain leaves the index when this reaches 0.
    resident: u32,
}

impl Chain {
    /// How many positions of `range`, counted from its start, are resident
    /// before the first one that is not.
    fn leading_resident(&self, range: std::ops::Range<usize>) -> u64 {
        let end = range.end.min(self.slots.len());
        self.slots.get(range.start..end).map_or(0, |slots| {
            slots.iter().take_while(|&&slot| slot != NIL).count() as u64
        })
    }
}

/// Resident shareable blocks in a slab, threaded by an intrusive doubly
/// linked LRU list over the cached ones. A block enters the list at the
/// newest end exactly when its refcount drops to zero (donation or the
/// last unpin), so list order is age order without storing ages.
#[derive(Debug, Clone)]
struct BlockSlab {
    blocks: Vec<PrefixBlock>,
    /// Slots of `blocks` free for reuse.
    vacant: Vec<u32>,
    /// Oldest cached block, or `NIL`.
    oldest: u32,
    /// Newest cached block, or `NIL`.
    newest: u32,
    /// Blocks on the LRU list.
    listed: u64,
}

impl BlockSlab {
    fn new() -> Self {
        BlockSlab {
            blocks: Vec::new(),
            vacant: Vec::new(),
            oldest: NIL,
            newest: NIL,
            listed: 0,
        }
    }

    /// Resident blocks, pinned and cached alike.
    fn resident(&self) -> u64 {
        (self.blocks.len() - self.vacant.len()) as u64
    }

    /// Stores a new unreferenced, unlisted block and returns its slot.
    fn insert(&mut self, key: BlockKey) -> u32 {
        let block = PrefixBlock {
            key,
            refs: 0,
            older: NIL,
            newer: NIL,
        };
        if let Some(slot) = self.vacant.pop() {
            self.blocks[slot as usize] = block;
            slot
        } else {
            assert!(
                self.blocks.len() < NIL as usize,
                "prefix slab slots are u32 indices"
            );
            self.blocks.push(block);
            (self.blocks.len() - 1) as u32
        }
    }

    /// Appends `slot` to the list as the newest cached block.
    fn push_newest(&mut self, slot: u32) {
        let prev = self.newest;
        let block = &mut self.blocks[slot as usize];
        block.older = prev;
        block.newer = NIL;
        if prev == NIL {
            self.oldest = slot;
        } else {
            self.blocks[prev as usize].newer = slot;
        }
        self.newest = slot;
        self.listed += 1;
    }

    /// Takes `slot` off the list, wherever it sits.
    fn unlink(&mut self, slot: u32) {
        let PrefixBlock { older, newer, .. } = self.blocks[slot as usize];
        if older == NIL {
            self.oldest = newer;
        } else {
            self.blocks[older as usize].newer = newer;
        }
        if newer == NIL {
            self.newest = older;
        } else {
            self.blocks[newer as usize].older = older;
        }
        self.listed -= 1;
    }

    /// Takes the oldest cached block off the list and out of the slab,
    /// returning its key.
    fn evict_oldest(&mut self) -> Option<BlockKey> {
        let slot = self.oldest;
        if slot == NIL {
            return None;
        }
        self.unlink(slot);
        self.vacant.push(slot);
        Some(self.blocks[slot as usize].key)
    }

    fn clear(&mut self) {
        self.blocks.clear();
        self.vacant.clear();
        self.oldest = NIL;
        self.newest = NIL;
        self.listed = 0;
    }
}

/// Per-sequence block accounting, carried on the in-flight record.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KvSeq {
    /// Shared chain blocks pinned at dispatch (prefill skipped for these).
    pub hit_blocks: u64,
    /// Blocks this sequence allocated for itself (suffix + generated).
    pub private_blocks: u64,
    /// Blocks the full context (prompt + generation) will occupy.
    pub final_blocks: u64,
}

/// What a replica's pool holds for one request, from [`KvState::probe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct KvProbe {
    /// Consecutive leading chain blocks of the request's *prompt* that are
    /// resident: the prefix-cache hit length in blocks.
    pub hit_blocks: u64,
    /// Whether any block of the request's session chain is resident.
    pub session_resident: bool,
}

/// A replica's paged KV pool: block counters, the refcounted prefix pool
/// indexed by chain, and its LRU list, plus occupancy telemetry.
#[derive(Debug, Clone)]
pub(crate) struct KvState {
    /// Tokens per block (copied from [`KvConfig`]).
    pub block_tokens: u64,
    /// Pool size in blocks; fixed for the life of the replica.
    pub total_blocks: u64,
    /// Unallocated blocks.
    pub free_blocks: u64,
    /// Shared blocks with at least one in-flight reference.
    pub pinned_blocks: u64,
    /// Shared blocks with zero references — resident and evictable.
    pub cached_blocks: u64,
    /// Blocks owned by exactly one in-flight sequence.
    pub private_blocks: u64,
    prefix_caching: bool,
    /// Chains with at least one resident block, by `(tag, ident)`.
    chains: BTreeMap<ChainId, Chain>,
    /// Resident shareable blocks, pinned and cached alike, and the LRU
    /// list over the cached ones.
    slab: BlockSlab,
    /// `∫ in_use dt` for mean-occupancy reporting.
    occ_integral: f64,
    /// Timestamp of the last accounting change.
    last_note_s: f64,
    /// Peak in-use (pinned + private) block count.
    pub peak_in_use: u64,
}

impl KvState {
    pub(crate) fn new(total_blocks: u64, block_tokens: u64, prefix_caching: bool) -> Self {
        KvState {
            block_tokens,
            total_blocks,
            free_blocks: total_blocks,
            pinned_blocks: 0,
            cached_blocks: 0,
            private_blocks: 0,
            prefix_caching,
            chains: BTreeMap::new(),
            slab: BlockSlab::new(),
            occ_integral: 0.0,
            last_note_s: 0.0,
            peak_in_use: 0,
        }
    }

    /// Blocks needed to hold `tokens` tokens of context.
    pub(crate) fn blocks_for(&self, tokens: u64) -> u64 {
        tokens.div_ceil(self.block_tokens.max(1))
    }

    /// Blocks currently backing in-flight sequences.
    pub(crate) fn in_use(&self) -> u64 {
        self.pinned_blocks + self.private_blocks
    }

    /// Accumulates the occupancy integral up to `now_s`. Called at the top
    /// of every mutation and once more at end of simulation.
    pub(crate) fn note(&mut self, now_s: f64) {
        if now_s > self.last_note_s {
            self.occ_integral += self.in_use() as f64 * (now_s - self.last_note_s);
            self.last_note_s = now_s;
        }
    }

    fn bump_peak(&mut self) {
        self.peak_in_use = self.peak_in_use.max(self.in_use());
    }

    /// Mean occupancy fraction over a run of `makespan_s`.
    pub(crate) fn mean_occupancy(&self, makespan_s: f64) -> f64 {
        if makespan_s <= 0.0 || self.total_blocks == 0 {
            return 0.0;
        }
        self.occ_integral / (makespan_s * self.total_blocks as f64)
    }

    /// Peak occupancy fraction.
    pub(crate) fn peak_occupancy(&self) -> f64 {
        if self.total_blocks == 0 {
            return 0.0;
        }
        self.peak_in_use as f64 / self.total_blocks as f64
    }

    /// Blocks `req` holds once its last token is generated. Dispatch
    /// claims `blocks_for(prompt_len + 1)`, so that many even when nothing
    /// is generated: routing and dispatch both size a request by this
    /// count, and a request it does not fit is rejected at routing rather
    /// than queued where it can never dispatch.
    pub(crate) fn final_blocks(&self, req: &ClusterRequest) -> u64 {
        self.blocks_for(req.total_tokens().max(req.prompt_len + 1))
    }

    /// The prefix-cache hit length of `req` and its session residency,
    /// from at most two chain lookups. Hits are the consecutive leading
    /// chain blocks of the *prompt* resident right now; only whole blocks
    /// fully inside the prompt count (a generated token can never hit).
    /// Residency asks whether the session's chain is indexed at all, not
    /// whether its block 0 is: a session whose opening blocks a shared
    /// system prefix covers starts its own chain later, and a chain stays
    /// indexed exactly while it holds a resident block — the router's cheap
    /// "is this session's context here" signal.
    pub(crate) fn probe(&self, req: &ClusterRequest) -> KvProbe {
        let [prefix, session] = chain_runs(req, self.block_tokens);
        let session_chain = if req.session == 0 {
            None
        } else {
            self.chains.get(&session.id)
        };
        let mut hit_blocks = 0;
        if self.prefix_caching {
            let prompt_blocks = req.prompt_len / self.block_tokens.max(1);
            let range = prefix.clip(0, prompt_blocks);
            if !range.is_empty() {
                hit_blocks = self
                    .chains
                    .get(&prefix.id)
                    .map_or(0, |chain| chain.leading_resident(range.clone()));
            }
            // The session run continues only a fully resident prefix run.
            if hit_blocks == range.len() as u64 {
                let range = session.clip(hit_blocks, prompt_blocks);
                hit_blocks += session_chain.map_or(0, |chain| chain.leading_resident(range));
            }
        }
        KvProbe {
            hit_blocks,
            session_resident: session_chain.is_some(),
        }
    }

    /// Whether `needed` fresh blocks can be produced from free + evictable
    /// stock without touching any in-flight sequence.
    pub(crate) fn can_allocate(&self, needed: u64) -> bool {
        needed <= self.free_blocks + self.cached_blocks
    }

    /// Pins the first `hits` chain blocks of `req` (refcount bump; cached →
    /// pinned on the 0→1 edge). The caller probed first, so the blocks
    /// exist.
    pub(crate) fn pin_hits(&mut self, req: &ClusterRequest, hits: u64, now_s: f64) {
        self.note(now_s);
        for run in chain_runs(req, self.block_tokens) {
            let range = run.clip(0, hits);
            if range.is_empty() {
                continue;
            }
            let slots = self.chains.get(&run.id).and_then(|c| c.slots.get(range));
            let Some(slots) = slots else {
                unreachable!("probed blocks are resident")
            };
            for &slot in slots {
                assert!(slot != NIL, "probed block is resident");
                if self.slab.blocks[slot as usize].refs == 0 {
                    self.slab.unlink(slot);
                    self.cached_blocks -= 1;
                    self.pinned_blocks += 1;
                }
                self.slab.blocks[slot as usize].refs += 1;
            }
        }
        self.bump_peak();
    }

    /// Drops `hits` pins taken by [`Self::pin_hits`]; blocks whose
    /// refcount hits zero become cached as the newest LRU entries.
    pub(crate) fn release_hits(&mut self, req: &ClusterRequest, hits: u64, now_s: f64) {
        self.note(now_s);
        for run in chain_runs(req, self.block_tokens) {
            let range = run.clip(0, hits);
            if range.is_empty() {
                continue;
            }
            let slots = self.chains.get(&run.id).and_then(|c| c.slots.get(range));
            let Some(slots) = slots else {
                unreachable!("pinned blocks are resident")
            };
            for &slot in slots {
                assert!(slot != NIL, "pinned block is resident");
                let block = &mut self.slab.blocks[slot as usize];
                block.refs -= 1;
                if block.refs == 0 {
                    self.slab.push_newest(slot);
                    self.pinned_blocks -= 1;
                    self.cached_blocks += 1;
                }
            }
        }
    }

    /// Claims `needed` private blocks, evicting cached blocks oldest-first
    /// when the free list runs dry. The caller checked
    /// [`Self::can_allocate`].
    pub(crate) fn allocate_private(&mut self, needed: u64, now_s: f64) {
        self.note(now_s);
        while self.free_blocks < needed {
            self.evict_one();
        }
        self.free_blocks -= needed;
        self.private_blocks += needed;
        self.bump_peak();
    }

    /// Evicts the least-recently-used cached block and returns its key.
    /// A chain whose last resident block goes leaves the index.
    fn evict_one(&mut self) -> BlockKey {
        let Some(key) = self.slab.evict_oldest() else {
            unreachable!("eviction requires a cached block")
        };
        let id = (key.0, key.1);
        let Some(chain) = self.chains.get_mut(&id) else {
            unreachable!("a resident block's chain is indexed")
        };
        chain.slots[key.2 as usize] = NIL;
        chain.resident -= 1;
        if chain.resident == 0 {
            self.chains.remove(&id);
        } else {
            while chain.slots.last() == Some(&NIL) {
                chain.slots.pop();
            }
        }
        self.cached_blocks -= 1;
        self.free_blocks += 1;
        key
    }

    /// Returns `n` private blocks to the free list (preemption, hedge-loser
    /// cancellation).
    pub(crate) fn free_private(&mut self, n: u64, now_s: f64) {
        self.note(now_s);
        self.private_blocks -= n;
        self.free_blocks += n;
    }

    /// Completion: donates a finished sequence's private blocks to the
    /// prefix pool under chain keys `hit_blocks..` (so the next turn of the
    /// session — or the next request sharing the prefix — hits them), and
    /// frees anonymous or duplicate leftovers.
    pub(crate) fn commit_chain(
        &mut self,
        req: &ClusterRequest,
        hit_blocks: u64,
        private_blocks: u64,
        now_s: f64,
    ) {
        self.note(now_s);
        let end = hit_blocks + private_blocks;
        let mut shared = 0;
        if self.prefix_caching {
            for run in chain_runs(req, self.block_tokens) {
                let range = run.clip(hit_blocks, end);
                if range.is_empty() {
                    continue;
                }
                shared += range.len() as u64;
                let chain = self.chains.entry(run.id).or_default();
                for pos in range {
                    // Grow as each position is inserted, so capacity
                    // follows `Vec`'s doubling; sizing to the run's end up
                    // front raised the peak RSS of session replays.
                    if chain.slots.len() <= pos {
                        chain.slots.resize(pos + 1, NIL);
                    }
                    if chain.slots[pos] != NIL {
                        // Another sequence already cached this chain
                        // block: our copy is redundant.
                        self.free_blocks += 1;
                        continue;
                    }
                    let slot = self.slab.insert((run.id.0, run.id.1, pos as u32));
                    self.slab.push_newest(slot);
                    chain.slots[pos] = slot;
                    chain.resident += 1;
                    self.cached_blocks += 1;
                }
            }
        }
        // Anonymous positions: nothing can share the block.
        self.private_blocks -= private_blocks;
        self.free_blocks += private_blocks - shared;
    }

    /// Crash recovery: host memory is gone, so the whole pool resets.
    pub(crate) fn reset(&mut self, now_s: f64) {
        self.note(now_s);
        self.chains.clear();
        self.slab.clear();
        self.free_blocks = self.total_blocks;
        self.pinned_blocks = 0;
        self.cached_blocks = 0;
        self.private_blocks = 0;
    }

    /// Block-conservation invariant, asserted by the engine after every
    /// event: every block is in exactly one of the four states, the slab
    /// holds exactly the shared (pinned + cached) blocks, and the LRU list
    /// exactly the cached ones.
    pub(crate) fn assert_conserved(&self) {
        assert_eq!(
            self.free_blocks + self.pinned_blocks + self.cached_blocks + self.private_blocks,
            self.total_blocks,
            "KV block conservation violated: free={} pinned={} cached={} private={} total={}",
            self.free_blocks,
            self.pinned_blocks,
            self.cached_blocks,
            self.private_blocks,
            self.total_blocks,
        );
        assert_eq!(
            self.slab.resident(),
            self.pinned_blocks + self.cached_blocks,
            "prefix pool out of sync with shared-block counters",
        );
        assert_eq!(
            self.slab.listed, self.cached_blocks,
            "LRU list out of sync with cached-block counter",
        );
    }
}

/// Read-outs of the index for the differential test, each checking the
/// structure's own invariants as it walks.
#[cfg(test)]
impl KvState {
    /// Resident blocks with their refcounts, in key order.
    fn resident_blocks(&self) -> Vec<(BlockKey, u32)> {
        let mut out = Vec::new();
        for (&(tag, ident), chain) in &self.chains {
            assert!(chain.slots.last().is_some_and(|&slot| slot != NIL));
            let mut resident = 0;
            for (pos, &slot) in chain.slots.iter().enumerate() {
                if slot != NIL {
                    let block = self.slab.blocks[slot as usize];
                    assert_eq!(block.key, (tag, ident, pos as u32));
                    out.push((block.key, block.refs));
                    resident += 1;
                }
            }
            assert_eq!(resident, chain.resident);
        }
        out
    }

    /// Walks the LRU list oldest to newest, checking both links of every
    /// node and the list length, and returns the cached keys in order.
    fn lru_keys(&self) -> Vec<BlockKey> {
        let mut keys = Vec::new();
        let mut prev = NIL;
        let mut slot = self.slab.oldest;
        while slot != NIL {
            let block = self.slab.blocks[slot as usize];
            assert_eq!(block.older, prev);
            assert_eq!(block.refs, 0, "only cached blocks are listed");
            keys.push(block.key);
            prev = slot;
            slot = block.newer;
        }
        assert_eq!(prev, self.slab.newest);
        assert_eq!(keys.len() as u64, self.slab.listed);
        keys
    }
}

/// The pool as first written, kept as the reference [`KvState`] is held
/// to: a `BTreeMap` from block key to block, and a `(last_use, key)`
/// `BTreeMap` as the LRU index, with ages from a monotonic use counter.
#[cfg(test)]
mod reference {
    use super::{chain_ident, chain_key, BlockKey};
    use crate::engine::ClusterRequest;
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, Copy)]
    struct PrefixBlock {
        refs: u32,
        last_use: u64,
    }

    #[derive(Debug, Clone)]
    pub(super) struct RefPool {
        block_tokens: u64,
        total_blocks: u64,
        pub free_blocks: u64,
        pub pinned_blocks: u64,
        pub cached_blocks: u64,
        pub private_blocks: u64,
        prefix_caching: bool,
        pool: BTreeMap<BlockKey, PrefixBlock>,
        lru: BTreeMap<(u64, BlockKey), ()>,
        use_counter: u64,
    }

    impl RefPool {
        pub fn new(total_blocks: u64, block_tokens: u64, prefix_caching: bool) -> Self {
            RefPool {
                block_tokens,
                total_blocks,
                free_blocks: total_blocks,
                pinned_blocks: 0,
                cached_blocks: 0,
                private_blocks: 0,
                prefix_caching,
                pool: BTreeMap::new(),
                lru: BTreeMap::new(),
                use_counter: 0,
            }
        }

        fn next_use(&mut self) -> u64 {
            self.use_counter += 1;
            self.use_counter
        }

        pub fn probe_hits(&self, req: &ClusterRequest) -> u64 {
            if !self.prefix_caching {
                return 0;
            }
            let max_blocks = req.prompt_len / self.block_tokens.max(1);
            let mut hits = 0;
            while hits < max_blocks {
                match chain_key(req, hits, self.block_tokens) {
                    Some(key) if self.pool.contains_key(&key) => hits += 1,
                    _ => break,
                }
            }
            hits
        }

        pub fn session_resident(&self, req: &ClusterRequest) -> bool {
            if req.session == 0 {
                return false;
            }
            let ident = chain_ident(req.model, req.session);
            self.pool
                .range((1, ident, 0)..=(1, ident, u32::MAX))
                .next()
                .is_some()
        }

        pub fn can_allocate(&self, needed: u64) -> bool {
            needed <= self.free_blocks + self.cached_blocks
        }

        pub fn pin_hits(&mut self, req: &ClusterRequest, hits: u64) {
            for k in 0..hits {
                let key = chain_key(req, k, self.block_tokens).expect("probed block has a key");
                let block = self.pool.get_mut(&key).expect("probed block is resident");
                if block.refs == 0 {
                    self.lru.remove(&(block.last_use, key));
                    self.cached_blocks -= 1;
                    self.pinned_blocks += 1;
                }
                block.refs += 1;
            }
        }

        pub fn release_hits(&mut self, req: &ClusterRequest, hits: u64) {
            for k in 0..hits {
                let key = chain_key(req, k, self.block_tokens).expect("pinned block has a key");
                let refs = {
                    let block = self.pool.get_mut(&key).expect("pinned block is resident");
                    block.refs -= 1;
                    block.refs
                };
                if refs == 0 {
                    let age = self.next_use();
                    self.pool.get_mut(&key).expect("still resident").last_use = age;
                    self.lru.insert((age, key), ());
                    self.pinned_blocks -= 1;
                    self.cached_blocks += 1;
                }
            }
        }

        pub fn allocate_private(&mut self, needed: u64) {
            while self.free_blocks < needed {
                self.evict_one();
            }
            self.free_blocks -= needed;
            self.private_blocks += needed;
        }

        pub fn evict_one(&mut self) -> BlockKey {
            let &entry = self
                .lru
                .keys()
                .next()
                .expect("eviction requires a cached block");
            self.lru.remove(&entry);
            self.pool.remove(&entry.1);
            self.cached_blocks -= 1;
            self.free_blocks += 1;
            entry.1
        }

        pub fn free_private(&mut self, n: u64) {
            self.private_blocks -= n;
            self.free_blocks += n;
        }

        pub fn commit_chain(&mut self, req: &ClusterRequest, hit_blocks: u64, private_blocks: u64) {
            for k in hit_blocks..hit_blocks + private_blocks {
                self.private_blocks -= 1;
                let key = if self.prefix_caching {
                    chain_key(req, k, self.block_tokens)
                } else {
                    None
                };
                match key {
                    Some(key) if !self.pool.contains_key(&key) => {
                        let age = self.next_use();
                        self.pool.insert(
                            key,
                            PrefixBlock {
                                refs: 0,
                                last_use: age,
                            },
                        );
                        self.lru.insert((age, key), ());
                        self.cached_blocks += 1;
                    }
                    _ => self.free_blocks += 1,
                }
            }
        }

        pub fn reset(&mut self) {
            self.pool.clear();
            self.lru.clear();
            self.free_blocks = self.total_blocks;
            self.pinned_blocks = 0;
            self.cached_blocks = 0;
            self.private_blocks = 0;
        }

        pub fn resident_blocks(&self) -> Vec<(BlockKey, u32)> {
            self.pool.iter().map(|(&key, b)| (key, b.refs)).collect()
        }

        pub fn lru_keys(&self) -> Vec<BlockKey> {
            self.lru.keys().map(|&(_, key)| key).collect()
        }

        pub fn assert_conserved(&self) {
            assert_eq!(
                self.free_blocks + self.pinned_blocks + self.cached_blocks + self.private_blocks,
                self.total_blocks
            );
            assert_eq!(
                self.pool.len() as u64,
                self.pinned_blocks + self.cached_blocks
            );
            assert_eq!(self.lru.len() as u64, self.cached_blocks);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use reference::RefPool;

    fn req(prompt: u64, gen: u64, prefix_id: u64, prefix_len: u64, session: u64) -> ClusterRequest {
        ClusterRequest {
            id: 0,
            arrival_s: 0.0,
            prompt_len: prompt,
            gen_len: gen,
            prefix_id,
            prefix_len,
            session,
            ..ClusterRequest::default()
        }
    }

    #[test]
    fn chain_keys_prefer_prefix_then_session() {
        let r = req(40, 8, 7, 32, 9);
        // Blocks 0..2 lie inside the 32-token prefix; block 2 spills past
        // it and falls back to the session chain; the context ends at 48
        // so block 2 (tokens 32..48) is the last chainable one.
        assert_eq!(chain_key(&r, 0, 16), Some((0, 7, 0)));
        assert_eq!(chain_key(&r, 1, 16), Some((0, 7, 1)));
        assert_eq!(chain_key(&r, 2, 16), Some((1, 9, 2)));
        assert_eq!(chain_key(&r, 3, 16), None);
        // The same positions as runs: prefix 0..2, then session 2..3.
        let [prefix, session] = chain_runs(&r, 16);
        assert_eq!((prefix.id, prefix.start, prefix.end), ((0, 7), 0, 2));
        assert_eq!((session.id, session.start, session.end), ((1, 9), 2, 3));
        // No session either → anonymous past the prefix.
        let r = req(40, 8, 7, 32, 0);
        assert_eq!(chain_key(&r, 2, 16), None);
        let [_, session] = chain_runs(&r, 16);
        assert_eq!((session.start, session.end), (2, 2));
    }

    #[test]
    fn commit_then_probe_hits_the_chain() {
        let mut kv = KvState::new(16, 16, true);
        let turn1 = req(40, 8, 0, 0, 5);
        // Turn 1: 3 dispatch blocks (41 tokens), grows to 3 final (48).
        kv.allocate_private(3, 0.0);
        assert_eq!(kv.private_blocks, 3);
        kv.commit_chain(&turn1, 0, 3, 1.0);
        kv.assert_conserved();
        assert_eq!(kv.cached_blocks, 3);
        // Turn 2 of the same session: prompt = 48 prior tokens + 16 new.
        let turn2 = req(64, 8, 0, 0, 5);
        assert_eq!(kv.probe(&turn2).hit_blocks, 3);
        kv.pin_hits(&turn2, 3, 2.0);
        assert_eq!((kv.pinned_blocks, kv.cached_blocks), (3, 0));
        kv.release_hits(&turn2, 3, 3.0);
        kv.assert_conserved();
    }

    #[test]
    fn eviction_is_lru_and_conserves() {
        let mut kv = KvState::new(4, 16, true);
        let a = req(32, 16, 0, 0, 1);
        kv.allocate_private(3, 0.0);
        kv.commit_chain(&a, 0, 3, 1.0); // session-1 blocks 0..3 cached
        let b = req(16, 16, 0, 0, 2);
        kv.allocate_private(1, 2.0);
        kv.commit_chain(&b, 0, 1, 3.0); // session-2 block 0 cached, pool full
        assert_eq!(kv.cached_blocks, 4);
        // A 2-block allocation must evict session 1's two oldest blocks.
        assert!(kv.can_allocate(2));
        kv.allocate_private(2, 4.0);
        kv.assert_conserved();
        assert_eq!(kv.probe(&req(32, 0, 0, 0, 1)).hit_blocks, 0); // block 0 evicted
        assert!(kv.probe(&b).session_resident); // newer chain survives
    }

    #[test]
    fn prefix_caching_off_never_caches() {
        let mut kv = KvState::new(8, 16, false);
        let r = req(32, 16, 3, 32, 4);
        kv.allocate_private(3, 0.0);
        kv.commit_chain(&r, 0, 3, 1.0);
        kv.assert_conserved();
        assert_eq!(kv.cached_blocks, 0);
        assert_eq!(kv.free_blocks, 8);
        assert_eq!(kv.probe(&r).hit_blocks, 0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut kv = KvState::new(8, 16, true);
        let r = req(32, 16, 0, 0, 6);
        kv.allocate_private(3, 0.0);
        kv.commit_chain(&r, 0, 3, 1.0);
        kv.pin_hits(&req(48, 8, 0, 0, 6), 3, 2.0);
        kv.reset(3.0);
        kv.assert_conserved();
        assert_eq!(kv.free_blocks, 8);
        assert!(!kv.probe(&r).session_resident);
        assert!(kv.peak_in_use >= 3);
    }

    #[test]
    fn occupancy_integral_tracks_holding_time() {
        let mut kv = KvState::new(10, 16, true);
        kv.allocate_private(5, 0.0);
        kv.free_private(5, 2.0); // 5 blocks held for 2 s of a 4 s run
        kv.note(4.0);
        let mean = kv.mean_occupancy(4.0);
        assert!((mean - 0.25).abs() < 1e-12, "mean occupancy {mean}");
        assert!((kv.peak_occupancy() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[allow(clippy::float_cmp)] // exact zeros are the guards' contract, not approximations
    fn degenerate_pools_report_zero_occupancy_not_nan() {
        // Zero makespan: every request rejected at t=0, or an empty trace.
        // The integral is 0/0 without the guard; must come back 0.0.
        let kv = KvState::new(10, 16, true);
        assert_eq!(kv.mean_occupancy(0.0), 0.0);
        assert_eq!(kv.mean_occupancy(-1.0), 0.0);

        // Zero-block pool: a replica whose KV budget rounds down to nothing.
        let mut empty = KvState::new(0, 16, true);
        empty.note(5.0);
        assert_eq!(empty.mean_occupancy(5.0), 0.0);
        assert_eq!(empty.peak_occupancy(), 0.0);
        assert!(empty.mean_occupancy(5.0).is_finite());
        assert!(empty.peak_occupancy().is_finite());
    }

    /// A drawn request shape: `(model, prefix_id, prefix tokens, session,
    /// prompt tokens, generated tokens)`. Ids are drawn from tiny ranges so
    /// shapes share prefix chains and sessions; a prefix plus a session
    /// gives a session chain whose first blocks the prefix covers, and a
    /// context past both is an anonymous tail. Zero generated tokens end
    /// the session run on the prompt's last whole block.
    fn arb_shapes() -> impl Strategy<Value = Vec<(usize, u64, u64, u64, u64, u64)>> {
        prop::collection::vec(
            (0usize..2, 0u64..3, 0u64..16, 0u64..4, 1u64..30, 0u64..20),
            1..7,
        )
    }

    /// Drawn ops: `(kind, which, blocks)`, interpreted by
    /// [`pool_matches_the_reference_op_by_op`].
    fn arb_ops() -> impl Strategy<Value = Vec<(u8, usize, u64)>> {
        prop::collection::vec((0u8..8, 0usize..8, 0u64..6), 1..80)
    }

    /// One in-flight sequence of the differential test.
    struct Live {
        req: ClusterRequest,
        hits: u64,
        private: u64,
    }

    /// Everything both pools must agree on after an op, plus each one's
    /// own structural checks.
    fn assert_agree(kv: &KvState, oracle: &RefPool, shapes: &[ClusterRequest]) {
        kv.assert_conserved();
        oracle.assert_conserved();
        assert_eq!(
            (
                kv.free_blocks,
                kv.pinned_blocks,
                kv.cached_blocks,
                kv.private_blocks
            ),
            (
                oracle.free_blocks,
                oracle.pinned_blocks,
                oracle.cached_blocks,
                oracle.private_blocks
            ),
        );
        assert_eq!(kv.resident_blocks(), oracle.resident_blocks());
        // Same cached keys in the same order: the list is in age order.
        assert_eq!(kv.lru_keys(), oracle.lru_keys());
        for r in shapes {
            let expected = KvProbe {
                hit_blocks: oracle.probe_hits(r),
                session_resident: oracle.session_resident(r),
            };
            assert_eq!(kv.probe(r), expected, "{r:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Each position lies in the run of the chain [`chain_key`] names
        /// for it, and a position [`chain_key`] calls anonymous lies in no
        /// run. Prefixes may outrun the prompt here.
        #[test]
        fn chain_runs_hold_exactly_the_keyed_positions(
            shape in (0usize..2, 0u64..3, 0u64..40, 0u64..4, 0u64..40, 0u64..20),
            block_tokens in 1u64..6,
        ) {
            let (model, prefix_id, prefix_len, session, prompt_len, gen_len) = shape;
            let r = ClusterRequest {
                model,
                prompt_len,
                gen_len,
                prefix_id,
                prefix_len,
                session,
                ..ClusterRequest::default()
            };
            let runs = chain_runs(&r, block_tokens);
            for k in 0..=(prefix_len + prompt_len + gen_len) / block_tokens + 1 {
                let run = runs.iter().find(|run| (run.start..run.end).contains(&k));
                prop_assert_eq!(
                    chain_key(&r, k, block_tokens),
                    run.map(|run| (run.id.0, run.id.1, k as u32))
                );
            }
        }

        #[test]
        fn pool_matches_the_reference_op_by_op(
            pool in (1u64..9, 1u64..6, 0u8..4),
            shapes in arb_shapes(),
            ops in arb_ops(),
        ) {
            let (total, block_tokens, caching) = pool;
            let reqs: Vec<ClusterRequest> = shapes
                .iter()
                .map(|&(model, prefix_id, prefix, session, prompt, gen)| ClusterRequest {
                    model,
                    prompt_len: prompt,
                    gen_len: gen,
                    prefix_id,
                    prefix_len: prefix.min(prompt),
                    session,
                    ..ClusterRequest::default()
                })
                .collect();
            let mut kv = KvState::new(total, block_tokens, caching != 0);
            let mut oracle = RefPool::new(total, block_tokens, caching != 0);
            let mut live: Vec<Live> = Vec::new();
            for &(kind, which, blocks) in &ops {
                match kind {
                    // Probe and pin a shape's resident prefix.
                    0 => {
                        let req = reqs[which % reqs.len()];
                        let hits = kv.probe(&req).hit_blocks;
                        prop_assert_eq!(hits, oracle.probe_hits(&req));
                        kv.pin_hits(&req, hits, 0.0);
                        oracle.pin_hits(&req, hits);
                        live.push(Live { req, hits, private: 0 });
                    }
                    // Allocate, evicting inside the allocator, or one
                    // eviction at a time with each evicted key compared.
                    1 | 2 if !live.is_empty() => {
                        prop_assert_eq!(kv.can_allocate(blocks), oracle.can_allocate(blocks));
                        if kv.can_allocate(blocks) {
                            while kind == 2 && kv.free_blocks < blocks {
                                prop_assert_eq!(kv.evict_one(), oracle.evict_one());
                            }
                            kv.allocate_private(blocks, 0.0);
                            oracle.allocate_private(blocks);
                            let n = live.len();
                            live[which % n].private += blocks;
                        }
                    }
                    // Completion: unpin, then donate the private blocks.
                    3 if !live.is_empty() => {
                        let n = live.len();
                        let seq = live.swap_remove(which % n);
                        kv.release_hits(&seq.req, seq.hits, 0.0);
                        oracle.release_hits(&seq.req, seq.hits);
                        kv.commit_chain(&seq.req, seq.hits, seq.private, 0.0);
                        oracle.commit_chain(&seq.req, seq.hits, seq.private);
                    }
                    // Preemption or a lost hedge: unpin and free.
                    4 if !live.is_empty() => {
                        let n = live.len();
                        let seq = live.swap_remove(which % n);
                        kv.release_hits(&seq.req, seq.hits, 0.0);
                        oracle.release_hits(&seq.req, seq.hits);
                        kv.free_private(seq.private, 0.0);
                        oracle.free_private(seq.private);
                    }
                    // Free part of a sequence's private blocks.
                    5 if !live.is_empty() => {
                        let n = live.len();
                        let seq = &mut live[which % n];
                        let freed = blocks.min(seq.private);
                        seq.private -= freed;
                        kv.free_private(freed, 0.0);
                        oracle.free_private(freed);
                    }
                    6 if kv.cached_blocks > 0 => {
                        prop_assert_eq!(kv.evict_one(), oracle.evict_one());
                    }
                    7 => {
                        kv.reset(0.0);
                        oracle.reset();
                        live.clear();
                    }
                    _ => {}
                }
                assert_agree(&kv, &oracle, &reqs);
            }
        }
    }
}
