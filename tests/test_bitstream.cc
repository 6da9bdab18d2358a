/**
 * @file
 * Unit and property tests for the bit-granular packing codec.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "util/bitstream.hh"
#include "util/logging.hh"

namespace gobo {
namespace {

TEST(BitWriter, EmptyStream)
{
    BitWriter w;
    EXPECT_EQ(w.bitCount(), 0u);
    EXPECT_EQ(w.byteCount(), 0u);
    EXPECT_TRUE(w.take().empty());
}

TEST(BitWriter, SingleBits)
{
    BitWriter w;
    // 1,0,1,1 LSB-first within the byte => 0b1101 = 13.
    w.put(1, 1);
    w.put(0, 1);
    w.put(1, 1);
    w.put(1, 1);
    EXPECT_EQ(w.bitCount(), 4u);
    EXPECT_EQ(w.byteCount(), 1u);
    auto bytes = w.take();
    ASSERT_EQ(bytes.size(), 1u);
    EXPECT_EQ(bytes[0], 0b1101);
}

TEST(BitWriter, CrossesByteBoundary)
{
    BitWriter w;
    w.put(0b101, 3);
    w.put(0b11111, 5);
    w.put(0b1, 1);
    EXPECT_EQ(w.bitCount(), 9u);
    EXPECT_EQ(w.byteCount(), 2u);
    auto bytes = w.take();
    ASSERT_EQ(bytes.size(), 2u);
    EXPECT_EQ(bytes[0], 0b11111101);
    EXPECT_EQ(bytes[1], 0b1);
}

TEST(BitWriter, TakeResetsState)
{
    BitWriter w;
    w.put(7, 3);
    (void)w.take();
    EXPECT_EQ(w.bitCount(), 0u);
    w.put(1, 1);
    EXPECT_EQ(w.bitCount(), 1u);
}

TEST(BitWriter, ReusableAfterTake)
{
    // Regression: take() used to leave the backing vector moved-from,
    // so a subsequent put() indexed into unspecified state. A reused
    // writer must produce a pristine second stream.
    BitWriter w;
    w.put(0b101, 3);
    w.put(0xab, 8);
    auto first = w.take();
    EXPECT_EQ(first.size(), 2u);
    EXPECT_TRUE(w.bytes().empty());
    EXPECT_EQ(w.byteCount(), 0u);

    w.put(0b11, 2);
    w.put(0x3c, 6);
    EXPECT_EQ(w.bitCount(), 8u);
    auto second = w.take();
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(second[0], 0b11110011);

    // And a third round, to make sure reuse is stable, not one-shot.
    w.put(0xffff, 16);
    auto third = w.take();
    ASSERT_EQ(third.size(), 2u);
    EXPECT_EQ(third[0], 0xff);
    EXPECT_EQ(third[1], 0xff);
}

TEST(BitWriter, RejectsZeroAndOverwideWidths)
{
    BitWriter w;
    EXPECT_THROW(w.put(0, 0), FatalError);
    EXPECT_THROW(w.put(0, 33), FatalError);
}

TEST(BitWriter, FullWidthValue)
{
    BitWriter w;
    w.put(0xdeadbeef, 32);
    BitReader r(w.bytes());
    EXPECT_EQ(r.get(32), 0xdeadbeefu);
}

TEST(BitReader, ExhaustionIsFatal)
{
    std::vector<std::uint8_t> bytes{0xff};
    BitReader r(bytes.data(), 8);
    EXPECT_EQ(r.get(5), 0b11111u);
    EXPECT_EQ(r.remaining(), 3u);
    EXPECT_THROW(r.get(4), FatalError);
}

TEST(BitReader, RejectsZeroAndOverwideWidths)
{
    std::vector<std::uint8_t> bytes{0xff, 0xff, 0xff, 0xff, 0xff};
    BitReader r(bytes);
    EXPECT_THROW(r.get(0), FatalError);
    EXPECT_THROW(r.get(33), FatalError);
}

TEST(PackIndexes, ThreeBitExample)
{
    std::vector<std::uint32_t> idx{0, 1, 2, 3, 4, 5, 6, 7};
    auto bytes = packIndexes(idx, 3);
    EXPECT_EQ(bytes.size(), 3u); // 24 bits
    auto back = unpackIndexes(bytes, 3, idx.size());
    EXPECT_EQ(back, idx);
}

/** Roundtrip property across every index width the library supports. */
class BitstreamWidth : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(BitstreamWidth, RandomRoundtrip)
{
    unsigned bits = GetParam();
    std::mt19937_64 eng(1234 + bits);
    std::uint64_t mask = bits == 32 ? 0xffffffffULL
                                    : ((1ULL << bits) - 1);
    std::vector<std::uint32_t> values(997);
    for (auto &v : values)
        v = static_cast<std::uint32_t>(eng() & mask);

    BitWriter w;
    for (auto v : values)
        w.put(v, bits);
    EXPECT_EQ(w.bitCount(), values.size() * bits);

    BitReader r(w.bytes().data(), w.bitCount());
    for (auto v : values)
        EXPECT_EQ(r.get(bits), v);
    EXPECT_EQ(r.remaining(), 0u);
}

TEST_P(BitstreamWidth, PackedSizeIsExact)
{
    unsigned bits = GetParam();
    std::vector<std::uint32_t> values(129, 0);
    auto bytes = packIndexes(values, bits);
    EXPECT_EQ(bytes.size(), (values.size() * bits + 7) / 8);
}

TEST_P(BitstreamWidth, MixedWidthInterleaving)
{
    unsigned bits = GetParam();
    BitWriter w;
    w.put(1, 1);
    w.put(bits == 32 ? 0x7fffffffu : (1u << bits) - 1u, bits);
    w.put(0, 2);
    w.put(1, 1);
    BitReader r(w.bytes().data(), w.bitCount());
    EXPECT_EQ(r.get(1), 1u);
    EXPECT_EQ(r.get(bits), bits == 32 ? 0x7fffffffu : (1u << bits) - 1u);
    EXPECT_EQ(r.get(2), 0u);
    EXPECT_EQ(r.get(1), 1u);
}

/** The per-index BitWriter loop packIndexes replaced. */
std::vector<std::uint8_t>
packWithBitWriter(const std::vector<std::uint32_t> &values, unsigned bits)
{
    BitWriter w;
    for (auto v : values)
        w.put(v, bits);
    return w.take();
}

TEST_P(BitstreamWidth, PackIndexesMatchesBitWriterReference)
{
    // Every count up to 70 leaves each possible partial last byte (and
    // partial last word) at least once, plus one long stream.
    unsigned bits = GetParam();
    std::mt19937_64 eng(4321 + bits);
    std::uint64_t mask = bits == 32 ? 0xffffffffULL
                                    : ((1ULL << bits) - 1);
    for (std::size_t n = 0; n <= 70; ++n) {
        std::vector<std::uint32_t> values(n);
        for (auto &v : values)
            v = static_cast<std::uint32_t>(eng() & mask);
        EXPECT_EQ(packIndexes(values, bits),
                  packWithBitWriter(values, bits))
            << "bits " << bits << " count " << n;
    }
    std::vector<std::uint32_t> values(4099);
    for (auto &v : values)
        v = static_cast<std::uint32_t>(eng() & mask);
    EXPECT_EQ(packIndexes(values, bits), packWithBitWriter(values, bits));
}

INSTANTIATE_TEST_SUITE_P(AllWidths, BitstreamWidth,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u,
                                           9u, 12u, 16u, 17u, 24u, 31u,
                                           32u));

} // namespace
} // namespace gobo
