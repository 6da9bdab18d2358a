/**
 * @file
 * Tests for the shared pool's width-capped run(), the call the
 * layer-parallel quantizer makes, and the determinism guarantee of
 * multi-threaded model quantization.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "core/quantizer.hh"
#include "exec/threadpool.hh"
#include "model/generate.hh"

namespace gobo {
namespace {

TEST(ParallelFor, CoversEveryIndexOnce)
{
    std::vector<std::atomic<int>> hits(257);
    for (auto &h : hits)
        h = 0;
    ThreadPool::shared().run(hits.size(), 8,
                             [&](std::size_t i) { ++hits[i]; });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, InlineWhenSingleThreaded)
{
    std::vector<int> order;
    ThreadPool::shared().run(5, 1, [&](std::size_t i) {
        order.push_back(static_cast<int>(i));
    });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, EmptyAndSingleRanges)
{
    int calls = 0;
    ThreadPool::shared().run(0, 4, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    ThreadPool::shared().run(1, 4, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 1);
}

TEST(ParallelQuantization, BitIdenticalToSerial)
{
    auto cfg = miniConfig(ModelFamily::DistilBert);

    ModelQuantOptions serial;
    serial.base.bits = 3;
    serial.embeddingBits = 4;
    serial.threads = 1;
    ModelQuantOptions parallel = serial;
    parallel.threads = 8;

    BertModel a = generateModel(cfg, 601);
    BertModel b = generateModel(cfg, 601);
    auto ra = quantizeModelInPlace(a, serial);
    auto rb = quantizeModelInPlace(b, parallel);

    EXPECT_EQ(ra.weightPayloadBytes, rb.weightPayloadBytes);
    ASSERT_EQ(ra.layers.size(), rb.layers.size());
    for (std::size_t i = 0; i < ra.layers.size(); ++i) {
        EXPECT_EQ(ra.layers[i].name, rb.layers[i].name);
        EXPECT_EQ(ra.layers[i].payloadBytes, rb.layers[i].payloadBytes);
        EXPECT_EQ(ra.layers[i].stats.outlierCount,
                  rb.layers[i].stats.outlierCount);
    }
    auto la = a.fcLayers();
    auto lb = b.fcLayers();
    for (std::size_t i = 0; i < la.size(); ++i)
        EXPECT_EQ(la[i].weight->data(), lb[i].weight->data())
            << la[i].name;
    EXPECT_EQ(a.wordEmbedding.data(), b.wordEmbedding.data());
}

TEST(ParallelQuantization, StreamingBitIdenticalToSerial)
{
    auto cfg = miniConfig(ModelFamily::BertBase);
    ModelQuantOptions serial;
    serial.base.bits = 3;
    serial.embeddingBits = 4;
    serial.threads = 1;
    ModelQuantOptions parallel = serial;
    parallel.threads = defaultThreads();

    auto ra = quantizeConfigStreaming(cfg, 603, serial);
    auto rb = quantizeConfigStreaming(cfg, 603, parallel);
    EXPECT_EQ(ra.weightPayloadBytes, rb.weightPayloadBytes);
    EXPECT_EQ(ra.embeddingPayloadBytes, rb.embeddingPayloadBytes);
    ASSERT_EQ(ra.layers.size(), rb.layers.size());
    for (std::size_t i = 0; i < ra.layers.size(); ++i)
        EXPECT_EQ(ra.layers[i].payloadBytes, rb.layers[i].payloadBytes);
}

} // namespace
} // namespace gobo
