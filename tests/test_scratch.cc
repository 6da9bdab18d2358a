/**
 * @file
 * Tests for the per-thread scratch arenas and the bounded decoded-row
 * cache (exec/scratch.hh).
 *
 * The cache is pure capacity management over integer-exact decode
 * output, so the contract splits cleanly: functional (a hit returns
 * exactly the bytes a fresh decode would produce; owner ids never
 * alias; a zero budget or over-budget block bypasses into the
 * transient path), accounting (hits/misses/evictions/bytes move the
 * scratchStats() aggregates, capacity reflects the budget), and
 * end-to-end (a packed model forward is bit-identical with the cache
 * on or off, and a second forward hits on the layers the first one
 * populated — the pooler being the canonical cross-forward winner).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/qexec.hh"
#include "exec/scratch.hh"
#include "exec/session.hh"
#include "model/generate.hh"
#include "obs/observer.hh"
#include "util/rng.hh"

namespace gobo {
namespace {

/** Decode context: row r gets bytes (seed + r + col) & 0x3f over
 * exactly `cols` bytes — the callback contract is one row per call. */
struct PatternCtx
{
    std::uint8_t seed = 0;
    std::size_t cols = 0;
    std::size_t decodes = 0; ///< rows actually decoded (mutable probe).
};

void
patternDecode(const void *ctx, std::size_t row, std::uint8_t *out)
{
    auto *p = const_cast<PatternCtx *>(
        static_cast<const PatternCtx *>(ctx));
    ++p->decodes;
    for (std::size_t c = 0; c < p->cols; ++c)
        out[c] = static_cast<std::uint8_t>((p->seed + row + c) & 0x3f);
}

/** Expected bytes for rows [row0, row1) at `cols` <= 64. */
std::vector<std::uint8_t>
expectedBlock(std::uint8_t seed, std::size_t row0, std::size_t row1,
              std::size_t cols)
{
    std::vector<std::uint8_t> v((row1 - row0) * cols);
    for (std::size_t r = row0; r < row1; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            v[(r - row0) * cols + c] =
                static_cast<std::uint8_t>((seed + r + c) & 0x3f);
    return v;
}

TEST(DecodeCache, HitServesIdenticalBytesAndSkipsDecode)
{
    ScratchArena arena(4096);
    PatternCtx ctx{7, 32};
    std::uint64_t owner = nextScratchOwnerId();

    bool hit = true;
    const std::uint8_t *a =
        arena.decodedRows(owner, 0, 2, 6, 32, patternDecode, &ctx, &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(ctx.decodes, 4u);
    auto want = expectedBlock(7, 2, 6, 32);
    EXPECT_EQ(std::memcmp(a, want.data(), want.size()), 0);

    hit = false;
    const std::uint8_t *b =
        arena.decodedRows(owner, 0, 2, 6, 32, patternDecode, &ctx, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(ctx.decodes, 4u) << "hit must not re-decode";
    EXPECT_EQ(a, b) << "hit serves the cached slot";
}

TEST(DecodeCache, AccountingFlowsIntoScratchStats)
{
    ScratchStats before = scratchStats();
    ScratchArena arena(4096);
    PatternCtx ctx{1, 16};
    std::uint64_t owner = nextScratchOwnerId();

    arena.decodedRows(owner, 0, 0, 4, 16, patternDecode, &ctx);
    arena.decodedRows(owner, 0, 0, 4, 16, patternDecode, &ctx);
    arena.decodedRows(owner, 0, 0, 4, 16, patternDecode, &ctx);

    ScratchStats after = scratchStats();
    EXPECT_EQ(after.arenas, before.arenas + 1);
    EXPECT_EQ(after.decodeRowMisses, before.decodeRowMisses + 4);
    EXPECT_EQ(after.decodeRowHits, before.decodeRowHits + 8);
    EXPECT_EQ(after.decodeCacheBytes, before.decodeCacheBytes + 64);
    EXPECT_EQ(after.decodeCacheCapacity,
              before.decodeCacheCapacity + 4096);
}

TEST(DecodeCache, EvictsUnderBudgetAndStaysBounded)
{
    // Budget fits exactly two 256-byte blocks; inserting four distinct
    // blocks must evict, and the held bytes never exceed the budget.
    ScratchStats before = scratchStats();
    ScratchArena arena(512);
    PatternCtx ctx{3, 32};
    std::uint64_t owner = nextScratchOwnerId();

    for (std::size_t blk = 0; blk < 4; ++blk)
        arena.decodedRows(owner, blk, 8 * blk, 8 * blk + 8, 32,
                          patternDecode, &ctx);
    ScratchStats after = scratchStats();
    EXPECT_GE(after.decodeCacheEvictions,
              before.decodeCacheEvictions + 2);
    EXPECT_LE(after.decodeCacheBytes - before.decodeCacheBytes, 512u);

    // The first block was evicted: asking again misses and re-decodes.
    bool hit = true;
    std::size_t decoded_before = ctx.decodes;
    arena.decodedRows(owner, 0, 0, 8, 32, patternDecode, &ctx, &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(ctx.decodes, decoded_before + 8);
}

TEST(DecodeCache, OwnerIdsNeverAlias)
{
    // Same (block, rows, cols) tag under two owners: each owner sees
    // its own bytes, never the other's — the reuse-safety contract
    // behind handing out process-unique ids instead of pointers.
    ScratchArena arena(4096);
    PatternCtx ctx_a{10, 16}, ctx_b{40, 16};
    std::uint64_t owner_a = nextScratchOwnerId();
    std::uint64_t owner_b = nextScratchOwnerId();

    arena.decodedRows(owner_a, 0, 0, 2, 16, patternDecode, &ctx_a);
    bool hit = true;
    const std::uint8_t *b = arena.decodedRows(owner_b, 0, 0, 2, 16,
                                              patternDecode, &ctx_b,
                                              &hit);
    EXPECT_FALSE(hit) << "a different owner must not hit";
    auto want_b = expectedBlock(40, 0, 2, 16);
    EXPECT_EQ(std::memcmp(b, want_b.data(), want_b.size()), 0);

    // And owner A's slot survived B's insertion.
    hit = false;
    arena.decodedRows(owner_a, 0, 0, 2, 16, patternDecode, &ctx_a,
                      &hit);
    EXPECT_TRUE(hit);
}

TEST(DecodeCache, ZeroBudgetAndOverBudgetBypass)
{
    // Budget 0 = caching disabled: every request misses and decodes,
    // exactly the pre-cache behavior.
    ScratchArena off(0);
    PatternCtx ctx{5, 16};
    std::uint64_t owner = nextScratchOwnerId();
    for (int pass = 0; pass < 2; ++pass) {
        bool hit = true;
        const std::uint8_t *p = off.decodedRows(
            owner, 0, 0, 2, 16, patternDecode, &ctx, &hit);
        EXPECT_FALSE(hit);
        auto want = expectedBlock(5, 0, 2, 16);
        EXPECT_EQ(std::memcmp(p, want.data(), want.size()), 0);
    }
    EXPECT_EQ(ctx.decodes, 4u);

    // A block larger than the whole budget bypasses without evicting
    // what is cached.
    ScratchArena small(128);
    PatternCtx big{9, 16};
    std::uint64_t owner2 = nextScratchOwnerId();
    small.decodedRows(owner2, 0, 0, 2, 16, patternDecode, &big);
    bool hit = true;
    small.decodedRows(owner2, 1, 0, 32, 32, patternDecode, &big, &hit);
    EXPECT_FALSE(hit);
    hit = false;
    small.decodedRows(owner2, 0, 0, 2, 16, patternDecode, &big, &hit);
    EXPECT_TRUE(hit) << "over-budget bypass must not evict slots";
}

TEST(DecodeCache, SetBudgetDropsSlots)
{
    ScratchArena arena(4096);
    PatternCtx ctx{2, 16};
    std::uint64_t owner = nextScratchOwnerId();
    arena.decodedRows(owner, 0, 0, 2, 16, patternDecode, &ctx);
    arena.setDecodeCacheBudget(4096);
    bool hit = true;
    arena.decodedRows(owner, 0, 0, 2, 16, patternDecode, &ctx, &hit);
    EXPECT_FALSE(hit) << "budget replacement drops every slot";
    EXPECT_EQ(arena.decodeCacheBudget(), 4096u);
}

// ---------------------------------------------------------------------
// End-to-end: the cache under a real packed-model forward.

struct ModelSetup
{
    BertModel model;
    std::vector<std::int32_t> tokens;
};

ModelSetup
modelSetup()
{
    auto cfg = miniConfig(ModelFamily::BertBase);
    ModelSetup s{generateModel(cfg, 42), {}};
    Rng rng(42 * 31 + 5);
    s.model.resizeHead(3);
    rng.fillGaussian(s.model.headW.data(), 0.0, 0.5);
    rng.fillGaussian(s.model.headB.data(), 0.0, 0.5);
    for (std::size_t t = 0; t < 13; ++t)
        s.tokens.push_back(static_cast<std::int32_t>(rng.integer(
            0, static_cast<int>(cfg.vocabSize) - 1)));
    return s;
}

QuantizedBertModel
packedModel(const BertModel &m)
{
    ModelQuantOptions qopt;
    qopt.base.bits = 3;
    qopt.format = WeightFormat::Packed;
    return QuantizedBertModel(m, qopt);
}

TEST(DecodeCacheForward, BitIdenticalCacheOnVsOff)
{
    ModelSetup s = modelSetup();
    InferenceSession session(packedModel(s.model),
                             ExecContext::serial());

    // One thread: every decode goes through this thread's arena.
    ScratchArena &arena = execScratch();
    std::size_t restore = arena.decodeCacheBudget();

    arena.setDecodeCacheBudget(std::size_t{4} * 1024 * 1024);
    Tensor cached = session.headLogits(s.tokens);
    Tensor cached2 = session.headLogits(s.tokens); // warm, hits served
    arena.setDecodeCacheBudget(0);
    Tensor uncached = session.headLogits(s.tokens);
    arena.setDecodeCacheBudget(restore);

    ASSERT_EQ(cached.size(), uncached.size());
    for (std::size_t i = 0; i < cached.size(); ++i) {
        EXPECT_EQ(cached(i), uncached(i)) << i;
        EXPECT_EQ(cached(i), cached2(i)) << i;
    }
}

TEST(DecodeCacheForward, SecondForwardHitsOnPooler)
{
    ModelSetup s = modelSetup();
    Observer obs;
    ExecContext ctx = ExecContext::serial();
    ctx.obs = &obs;
    InferenceSession session(packedModel(s.model), ctx);

    ScratchArena &arena = execScratch();
    std::size_t restore = arena.decodeCacheBudget();
    // Room for the whole mini model's decoded rows.
    arena.setDecodeCacheBudget(std::size_t{4} * 1024 * 1024);

    session.headLogits(s.tokens);
    session.headLogits(s.tokens);
    arena.setDecodeCacheBudget(restore);

    MetricsSnapshot snap = obs.metrics.snapshot();
    const auto *hits =
        snap.findCounter("qexec.layer.pooler.decode_cache_hits");
    ASSERT_NE(hits, nullptr);
    EXPECT_GT(hits->value, 0u)
        << "pooler rows decoded in forward #1 must be served from "
           "cache in forward #2";
    const auto *misses =
        snap.findCounter("qexec.layer.pooler.decode_cache_misses");
    ASSERT_NE(misses, nullptr);
    EXPECT_GT(misses->value, 0u) << "forward #1 populates via misses";
    // Every quantized layer re-decoded nothing on the second pass, so
    // across the run hits at least match misses.
    std::uint64_t total_hits = 0, total_misses = 0;
    for (const auto &c : snap.counters) {
        if (c.name.find(".decode_cache_hits") != std::string::npos)
            total_hits += c.value;
        if (c.name.find(".decode_cache_misses") != std::string::npos)
            total_misses += c.value;
    }
    EXPECT_GE(total_hits, total_misses);
}

} // namespace
} // namespace gobo
