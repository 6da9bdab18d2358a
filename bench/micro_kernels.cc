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
 * When hardware counters are available (obs/pmu.hh; GOBO_PMU governs
 * the counter source) every timed loop is additionally bracketed with PMU
 * samples and a roofline table follows: DRAM bytes/s actually
 * measured from LLC misses vs. the wall-clock GB/s of operands
 * *streamed through the kernel*, plus arithmetic intensity (flops per
 * missed byte) and IPC. It is machine-dependent by construction.
 *
 * Every lut_dot cell's sums must equal the generic tier's bit for bit
 * (kernels.hh contract); the program exits 1 if any differ.
 *
 * Flags: --seed N, --fast (fewer repetitions).
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "kernels/kernels.hh"
#include "obs/pmu.hh"
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

/** Counter-derived roofline point for one Result. */
struct Roofline
{
    Result result;
    double measuredGbPerSec = 0.0; ///< LLC-miss bytes / wall time.
    double arithmeticIntensity = 0.0; ///< flops per missed byte.
    double ipc = 0.0;
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

    // Hardware counters for the roofline block. The registry samples
    // only this (the timing) thread; with the backend off every sample
    // is invalid and the roofline vector stays empty. Timing loops are
    // untouched either way: sampling happens strictly outside them, so
    // wall-clock results are identical with PMU on, off, or absent.
    PmuRegistry pmu;
    std::size_t mismatches = 0;
    std::vector<Result> results;
    std::vector<Roofline> roofline;
    const double line = static_cast<double>(pmuCacheLineBytes());
    auto addRoofline = [&](const Result &r, const PmuSample &delta,
                           double secs, double flops) {
        if (!delta.valid)
            return;
        double missBytes = static_cast<double>(delta.llcMisses) * line;
        Roofline roof;
        roof.result = r;
        roof.measuredGbPerSec = secs > 0 ? missBytes / secs / 1e9 : 0.0;
        roof.arithmeticIntensity =
            missBytes > 0 ? flops / missBytes : 0.0;
        roof.ipc = delta.cycles > 0
                       ? static_cast<double>(delta.instructions) /
                             static_cast<double>(delta.cycles)
                       : 0.0;
        roofline.push_back(std::move(roof));
    };

    for (const KernelSet *t : tiers) {
        const KernelSet &kn = *t;
        {
            PmuSample t0 = pmu.threadSample();
            double secs = timeDot(kn, a, b, reps);
            PmuSample delta = pmu.threadSample().since(t0);
            double calls = static_cast<double>(reps);
            // Streams both operand vectors; one mul + one add per
            // element.
            double bytes = calls * 2.0 * kDenseN * sizeof(float);
            double flops = calls * 2.0 * kDenseN;
            results.push_back({"dot", kn.name, 0, kDenseN, 0,
                               bytes / secs / 1e9, flops / secs / 1e9});
            addRoofline(results.back(), delta, secs, flops);
        }
        {
            PmuSample t0 = pmu.threadSample();
            double secs = timeAxpy(kn, a, y, reps);
            PmuSample delta = pmu.threadSample().since(t0);
            double calls = static_cast<double>(reps);
            // Streams x, reads and writes y; one mul + one add per
            // element.
            double bytes = calls * 3.0 * kDenseN * sizeof(float);
            double flops = calls * 2.0 * kDenseN;
            results.push_back({"axpy", kn.name, 0, kDenseN, 0,
                               bytes / secs / 1e9, flops / secs / 1e9});
            addRoofline(results.back(), delta, secs, flops);
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
                    PmuSample t0 = pmu.threadSample();
                    double secs =
                        timeLutDot(kn, packed, bits, kLutRows, in, table,
                                   xs, seq, n_calls, sums);
                    PmuSample delta = pmu.threadSample().since(t0);
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
                    // token's activation row; one mul + one add per
                    // (index, token).
                    double bytes =
                        calls
                        * (static_cast<double>(packed.size())
                           + static_cast<double>(in * seq * sizeof(float)));
                    double flops = calls * 2.0 * kLutRows
                                   * static_cast<double>(in * seq);
                    results.push_back({"lut_dot", kn.name, bits, in,
                                       seq, bytes / secs / 1e9,
                                       flops / secs / 1e9});
                    addRoofline(results.back(), delta, secs, flops);
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
            PmuSample t0 = pmu.threadSample();
            double secs =
                timeDecode(kn, packed, bits, kIn, widened, reps / 4);
            PmuSample delta = pmu.threadSample().since(t0);
            double calls = static_cast<double>(reps / 4);
            double bytes =
                calls * (static_cast<double>(packed.size()) + kIn);
            results.push_back({"decode_row", kn.name, bits, kIn, 0,
                               bytes / secs / 1e9, 0.0});
            addRoofline(results.back(), delta, secs, 0.0);
        }
    }

    ConsoleTable table(
        {"Kernel", "Tier", "B", "N", "Seq", "GB/s", "GFLOP/s"});
    for (const auto &r : results)
        table.addRow({r.kernel, r.tier,
                      r.bits ? std::to_string(r.bits) : "-",
                      std::to_string(r.n),
                      r.seq ? std::to_string(r.seq) : "-",
                      ConsoleTable::num(r.gbPerSec, 2),
                      ConsoleTable::num(r.gflopPerSec, 2)});
    table.print(std::cout);

    if (!roofline.empty()) {
        std::printf("\nRoofline (hardware counters, %s backend, "
                    "%zu-byte lines; machine-dependent, ungated):\n",
                    pmu.sourceName(), pmuCacheLineBytes());
        ConsoleTable roof({"Kernel", "Tier", "B", "N", "Seq",
                           "Wall GB/s", "DRAM GB/s", "Flop/DRAM-byte",
                           "IPC"});
        for (const auto &r : roofline)
            roof.addRow({r.result.kernel, r.result.tier,
                         r.result.bits ? std::to_string(r.result.bits)
                                       : "-",
                         std::to_string(r.result.n),
                         r.result.seq ? std::to_string(r.result.seq)
                                      : "-",
                         ConsoleTable::num(r.result.gbPerSec, 2),
                         ConsoleTable::num(r.measuredGbPerSec, 2),
                         ConsoleTable::num(r.arithmeticIntensity, 1),
                         ConsoleTable::num(r.ipc, 2)});
        roof.print(std::cout);
    } else if (!pmu.available()) {
        std::printf("\n(no roofline: hardware counters unavailable)\n");
    }

    return mismatches == 0 ? 0 : 1;
}
