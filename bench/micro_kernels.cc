/**
 * @file
 * Per-kernel throughput: the SIMD layer measured in isolation.
 *
 * Times the hot kernels — fold-left dot, axpy, the centroid-lookup
 * dot product lutDot (the compressed-domain FC, reading the packed
 * index stream), and the packed-row decoder — on every tier the host
 * can run (generic, avx2, avx512), and reports GB/s of streamed
 * operands and GFLOP/s of useful arithmetic. lutDot reads eight rows
 * of the packed index stream (the engine's row chunk) at B in
 * {2, 3, 4, 5} against seq in {1, 4, 8, 16} tokens at in in
 * {767, 768, 3072} (BERT-base's hidden and FFN widths, plus an odd
 * width whose rows start mid-byte); decode is swept across B in
 * {2, 3, 4}. Activation rows sit `in` floats apart as in the engine,
 * so at in = 3072 every token row starts on the same 4 KiB page
 * offset — the layout that exposes how a tier's register tile uses
 * L1.
 * Tier-to-tier speedup here is the microscopic view of the end-to-end
 * numbers perfbench/ measures.
 *
 * Each tier also gets an `fma_peak` row: independent fused
 * multiply-adds held in registers at the tier's vector width (scalar
 * for generic, in the same fma clone its lutDot runs), the throughput
 * ceiling of lutDot's one FMA per (index, token). Each lut_dot row's
 * `% peak` is its GFLOP/s over its tier's fma_peak, how close the
 * kernel runs to that ceiling without reading hardware counters.
 *
 * Every lut_dot cell's sums must equal the generic tier's bit for bit
 * (kernels.hh contract); the program exits 1 if any differ.
 *
 * Flags: --seed N, --fast (fewer repetitions).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "kernels/kernels.hh"
#include "util/bitstream.hh"
#include "util/rng.hh"
#include "util/table.hh"
#include "util/timer.hh"

using namespace gobo;

namespace {

/** One timed kernel on one tier. */
struct Result
{
    std::string kernel;
    std::string tier;
    unsigned bits = 0; ///< 0 for kernels without a bit width.
    std::size_t n = 0;
    std::size_t seq = 0; ///< tokens per call; 0 where none apply.
    double gbPerSec = 0.0;
    double gflopPerSec = 0.0;
};

/** Consumed by every timing loop so the kernel calls stay live. */
volatile double g_sink = 0.0;

void
sink(double v)
{
    g_sink = g_sink + v;
}

double
timeDot(const KernelSet &kn, const std::vector<float> &a,
        const std::vector<float> &b, std::size_t reps)
{
    std::size_t n = a.size();
    float acc = 0.0f;
    acc = kn.dot(acc, a.data(), b.data(), n); // warm-up
    WallTimer timer;
    for (std::size_t r = 0; r < reps; ++r)
        acc = kn.dot(acc * 1e-30f, a.data(), b.data(), n);
    double secs = timer.seconds();
    sink(acc);
    return secs;
}

double
timeAxpy(const KernelSet &kn, const std::vector<float> &x,
         std::vector<float> &y, std::size_t reps)
{
    std::size_t n = x.size();
    kn.axpy(1e-30f, x.data(), y.data(), n); // warm-up
    WallTimer timer;
    for (std::size_t r = 0; r < reps; ++r)
        kn.axpy(1e-30f, x.data(), y.data(), n);
    double secs = timer.seconds();
    sink(y[0]);
    return secs;
}

double
timeLutDot(const KernelSet &kn, const std::vector<std::uint8_t> &packed,
           unsigned bits, std::size_t rows, std::size_t in,
           const std::vector<float> &table, const std::vector<float> &x,
           std::size_t seq, std::size_t reps, std::vector<float> &sums)
{
    sums.assign(rows * seq, 0.0f);
    auto call = [&] {
        kn.lutDot(packed.data(), packed.size(), 0, bits, rows, in,
                  table.data(), table.size(), x.data(), in, seq,
                  sums.data());
    };
    call(); // warm-up
    WallTimer timer;
    for (std::size_t r = 0; r < reps; ++r) {
        call();
        sink(sums[0]);
    }
    return timer.seconds();
}

/** Independent FMA chains per fma_peak loop: enough to cover the FMA
 * latency on every port of current x86 cores. */
constexpr std::size_t kPeakChains = 8;

/** An empty asm that pins `v` to its own register: no SLP
 * vectorization merges the scalar chains. */
inline void
keepScalar(float &v)
{
#if defined(__x86_64__)
    asm("" : "+x"(v));
#else
    asm("" : "+g"(v));
#endif
}

/** `iters` rounds of one scalar fma on each of kPeakChains chains. */
template <std::size_t... J>
inline float
fmaChainsScalar(std::size_t iters, std::index_sequence<J...>)
{
    float acc[] = {static_cast<float>(J)...};
    for (std::size_t i = 0; i < iters; ++i)
        ((acc[J] = std::fma(acc[J], 0.999f, 1e-3f), keepScalar(acc[J])),
         ...);
    return (acc[J] + ...);
}

/** The generic tier's ceiling, cloned like its lutDot: one vfmadd per
 * chain and round on FMA CPUs, a libm fmaf call elsewhere. */
#if defined(__x86_64__)
__attribute__((target_clones("fma", "default"), flatten))
#endif
float
fmaPeakGeneric(std::size_t iters)
{
    return fmaChainsScalar(iters, std::make_index_sequence<kPeakChains>{});
}

#if defined(__x86_64__)
template <std::size_t... J>
__attribute__((target("avx2,fma"))) float
fmaPeakAvx2(std::size_t iters, std::index_sequence<J...>)
{
    __m256 acc[] = {_mm256_set1_ps(static_cast<float>(J))...};
    const __m256 m = _mm256_set1_ps(0.999f), c = _mm256_set1_ps(1e-3f);
    for (std::size_t i = 0; i < iters; ++i)
        ((acc[J] = _mm256_fmadd_ps(acc[J], m, c)), ...);
    return (_mm256_cvtss_f32(acc[J]) + ...);
}

template <std::size_t... J>
__attribute__((target("avx512f"))) float
fmaPeakAvx512(std::size_t iters, std::index_sequence<J...>)
{
    __m512 acc[] = {_mm512_set1_ps(static_cast<float>(J))...};
    const __m512 m = _mm512_set1_ps(0.999f), c = _mm512_set1_ps(1e-3f);
    for (std::size_t i = 0; i < iters; ++i)
        ((acc[J] = _mm512_fmadd_ps(acc[J], m, c)), ...);
    return (_mm512_cvtss_f32(acc[J]) + ...);
}
#endif

/**
 * GFLOP/s of `tier`'s fma_peak loop: kPeakChains independent FMAs of
 * the tier's vector width per round, 2 flops per lane.
 */
double
fmaPeakGflops(const KernelSet &tier, std::size_t iters)
{
    std::string_view name = tier.name;
    std::size_t lanes = 1;
    float (*run)(std::size_t) = fmaPeakGeneric;
#if defined(__x86_64__)
    using Chains = std::make_index_sequence<kPeakChains>;
    if (name == "avx2") {
        lanes = 8;
        run = [](std::size_t n) { return fmaPeakAvx2(n, Chains{}); };
    } else if (name == "avx512") {
        lanes = 16;
        run = [](std::size_t n) { return fmaPeakAvx512(n, Chains{}); };
    }
#endif
    sink(run(iters / 16)); // warm-up
    WallTimer timer;
    sink(run(iters));
    double secs = timer.seconds();
    return 2.0 * static_cast<double>(lanes * kPeakChains)
           * static_cast<double>(iters) / secs / 1e9;
}

double
timeDecode(const KernelSet &kn, const std::vector<std::uint8_t> &packed,
           std::uint32_t bits, std::size_t n,
           std::vector<std::uint8_t> &out, std::size_t reps)
{
    kn.decodePackedRow(packed.data(), packed.size(), 0, bits, n,
                       out.data());
    WallTimer timer;
    for (std::size_t r = 0; r < reps; ++r)
        kn.decodePackedRow(packed.data(), packed.size(), 0, bits, n,
                           out.data());
    double secs = timer.seconds();
    sink(out[0]);
    return secs;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t seed = 42;
    std::size_t reps = 40000;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--seed" && i + 1 < argc) {
            seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--fast") {
            reps = 4000;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--seed N] [--fast]\n",
                         argv[0]);
            return 2;
        }
    }

    std::vector<const KernelSet *> tiers = {&genericKernels()};
    if (const KernelSet *avx2 = avx2Kernels())
        tiers.push_back(avx2);
    if (const KernelSet *avx512 = avx512Kernels())
        tiers.push_back(avx512);

    // Dense kernels at a BERT-base-like width; lutDot at the hidden
    // and FFN widths, 8 index rows per call (the engine's row chunk)
    // against 1..16 activation rows; decode at the FFN width.
    constexpr std::size_t kDenseN = 4096;
    constexpr std::size_t kIn = 3072;
    constexpr std::size_t kLutRows = 8;
    constexpr std::size_t kLutSeqs[] = {1, 4, 8, 16};
    // 767 starts every other row mid-byte, so B = 4 takes the shared
    // fallback expander on the avx512 tier, as B = 5 always does.
    constexpr std::size_t kLutWidths[] = {767, 768, kIn};
    constexpr unsigned kLutBits[] = {2, 3, 4, 5};

    Rng rng(seed);
    std::vector<float> a(kDenseN), b(kDenseN), y(kDenseN);
    rng.fillGaussian(a, 0.0, 1.0);
    rng.fillGaussian(b, 0.0, 1.0);
    rng.fillGaussian(y, 0.0, 1.0);
    std::vector<float> xs(kIn * 16);
    rng.fillGaussian(xs, 0.0, 1.0);

    std::printf("Micro-benchmark: kernel throughput (%zu reps, tiers:",
                reps);
    for (const KernelSet *t : tiers)
        std::printf(" %s", t->name);
    std::printf(")\n\n");

    std::size_t mismatches = 0;
    std::vector<Result> results;

    std::map<std::string, double> peak;
    for (const KernelSet *t : tiers) {
        const KernelSet &kn = *t;
        peak[kn.name] = fmaPeakGflops(kn, reps * 1000);
        results.push_back({"fma_peak", kn.name, 0, kPeakChains, 0, 0.0,
                           peak[kn.name]});
        {
            double secs = timeDot(kn, a, b, reps);
            double calls = static_cast<double>(reps);
            // Streams both operand vectors; one mul + one add per
            // element.
            double bytes = calls * 2.0 * kDenseN * sizeof(float);
            double flops = calls * 2.0 * kDenseN;
            results.push_back({"dot", kn.name, 0, kDenseN, 0,
                               bytes / secs / 1e9, flops / secs / 1e9});
        }
        {
            double secs = timeAxpy(kn, a, y, reps);
            double calls = static_cast<double>(reps);
            // Streams x, reads and writes y; one mul + one add per
            // element.
            double bytes = calls * 3.0 * kDenseN * sizeof(float);
            double flops = calls * 2.0 * kDenseN;
            results.push_back({"axpy", kn.name, 0, kDenseN, 0,
                               bytes / secs / 1e9, flops / secs / 1e9});
        }
        for (unsigned bits : kLutBits)
            for (std::size_t in : kLutWidths) {
                std::size_t k = std::size_t{1} << bits;
                // One row more than a call reads, as for a chunk inside
                // a layer: the stream's last groups, whose wide loads
                // would pass its end, take the scalar tail instead.
                std::vector<std::uint32_t> idx((kLutRows + 1) * in);
                Rng irng(seed * 97 + bits);
                for (auto &v : idx)
                    v = static_cast<std::uint32_t>(
                        irng.integer(0, static_cast<int>(k) - 1));
                const std::vector<std::uint8_t> packed =
                    packIndexes(idx, bits);
                std::vector<float> table(k);
                irng.fillGaussian(table, 0.0, 0.05);
                for (std::size_t seq : kLutSeqs) {
                    // Equal work per cell: reps / 8 calls' worth of an
                    // 8 x 3072 x 4-token call.
                    std::size_t n_calls = std::max<std::size_t>(
                        1, reps / 8 * kIn * 4 / (in * seq));
                    std::vector<float> sums, ref;
                    double secs =
                        timeLutDot(kn, packed, bits, kLutRows, in, table,
                                   xs, seq, n_calls, sums);
                    // Every tier owes the generic tier's bits.
                    ref.assign(sums.size(), 0.0f);
                    genericKernels().lutDot(packed.data(), packed.size(),
                                            0, bits, kLutRows, in,
                                            table.data(), k, xs.data(),
                                            in, seq, ref.data());
                    if (std::memcmp(sums.data(), ref.data(),
                                    sums.size() * sizeof(float))
                        != 0) {
                        std::fprintf(stderr,
                                     "lut_dot %s B=%u in=%zu seq=%zu: "
                                     "sums differ from generic\n",
                                     kn.name, bits, in, seq);
                        ++mismatches;
                    }
                    double calls = static_cast<double>(n_calls);
                    // Streams the packed index rows once and every
                    // token's activation row; one fused multiply-add,
                    // 2 flops, per (index, token).
                    double bytes =
                        calls
                        * (static_cast<double>(packed.size())
                           + static_cast<double>(in * seq * sizeof(float)));
                    double flops = calls * 2.0 * kLutRows
                                   * static_cast<double>(in * seq);
                    results.push_back({"lut_dot", kn.name, bits, in,
                                       seq, bytes / secs / 1e9,
                                       flops / secs / 1e9});
                }
            }
        for (unsigned bits : {2u, 3u, 4u}) {
            // Packed-row decode into bytes (not on the FC path: lutDot
            // reads the stream itself). Bytes = packed input read +
            // widened output written; no arithmetic, so GFLOP/s is 0
            // by construction.
            std::vector<std::uint8_t> packed((kIn * bits + 7) / 8, 0);
            Rng drng(seed * 131 + bits);
            std::size_t mask = (std::size_t{1} << bits) - 1;
            for (std::size_t i = 0; i < kIn; ++i) {
                std::size_t v = static_cast<std::size_t>(
                    drng.integer(0, static_cast<int>(mask)));
                std::size_t bit = i * bits;
                for (unsigned j = 0; j < bits; ++j, ++bit)
                    packed[bit / 8] = static_cast<std::uint8_t>(
                        packed[bit / 8]
                        | (((v >> j) & 1u) << (bit % 8)));
            }
            std::vector<std::uint8_t> widened(kIn);
            double secs =
                timeDecode(kn, packed, bits, kIn, widened, reps / 4);
            double calls = static_cast<double>(reps / 4);
            double bytes =
                calls * (static_cast<double>(packed.size()) + kIn);
            results.push_back({"decode_row", kn.name, bits, kIn, 0,
                               bytes / secs / 1e9, 0.0});
        }
    }

    ConsoleTable table({"Kernel", "Tier", "B", "N", "Seq", "GB/s",
                        "GFLOP/s", "% peak"});
    for (const auto &r : results)
        table.addRow({r.kernel, r.tier,
                      r.bits ? std::to_string(r.bits) : "-",
                      std::to_string(r.n),
                      r.seq ? std::to_string(r.seq) : "-",
                      ConsoleTable::num(r.gbPerSec, 2),
                      ConsoleTable::num(r.gflopPerSec, 2),
                      r.kernel == "lut_dot"
                          ? ConsoleTable::num(
                              100.0 * r.gflopPerSec / peak[r.tier], 1)
                          : "-"});
    table.print(std::cout);

    return mismatches == 0 ? 0 : 1;
}
