/**
 * @file
 * Tests for the per-thread decode buffer (exec/scratch.hh): it is
 * grow-only and reused, so the hot path stops allocating after
 * warm-up, and its row count is exactly the rows the engine decodes —
 * the figure perfbench reports as exec.scratch.decode_lookups.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/qexec.hh"
#include "exec/scratch.hh"
#include "exec/session.hh"
#include "model/generate.hh"
#include "obs/observer.hh"
#include "util/rng.hh"

namespace gobo {
namespace {

TEST(DecodeScratch, GrowOnlyBufferIsReused)
{
    std::uint8_t *big = decodeScratch(8, 256);
    big[8 * 256 - 1] = 0x5a; // the whole span is writable
    EXPECT_EQ(decodeScratch(2, 16), big) << "a smaller request reuses it";
    EXPECT_EQ(decodeScratch(8, 256), big);
}

TEST(DecodeScratch, RowsDecodedFlowIntoScratchStats)
{
    auto cfg = miniConfig(ModelFamily::BertBase);
    BertModel model = generateModel(cfg, 42);
    Rng rng(42 * 31 + 5);
    std::vector<std::int32_t> tokens;
    for (std::size_t t = 0; t < 13; ++t)
        tokens.push_back(static_cast<std::int32_t>(
            rng.integer(0, static_cast<int>(cfg.vocabSize) - 1)));
    ModelQuantOptions qopt;
    qopt.base.bits = 3;

    // Serial: each layer forward is one task that decodes every row
    // once, so the buffer's count equals the observer's.
    Observer obs;
    ExecContext ctx = ExecContext::serial();
    ctx.obs = &obs;
    InferenceSession session(QuantizedBertModel(model, qopt), ctx);

    ScratchStats before = scratchStats();
    session.headLogits(tokens);
    ScratchStats after = scratchStats();

    MetricsSnapshot snap = obs.metrics.snapshot();
    const auto *rows = snap.findCounter("qexec.rows_decoded");
    ASSERT_NE(rows, nullptr);
    EXPECT_GT(rows->value, 0u);
    EXPECT_EQ(after.decodeRowMisses - before.decodeRowMisses, rows->value);
    EXPECT_EQ(after.decodeRowHits, 0u);
    EXPECT_EQ(after.decodeCacheEvictions, 0u);
    EXPECT_EQ(decodeCacheBudgetBytes(), 0u);
}

} // namespace
} // namespace gobo
