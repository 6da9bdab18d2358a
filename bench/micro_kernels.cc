/**
 * @file
 * Per-kernel throughput: the SIMD layer measured in isolation.
 *
 * Times the hot kernels — fold-left dot, axpy, the sequence-tiled
 * bucket scatter (phase 1 of the compressed-domain FC), and the
 * packed-row decode (phase 0) — on every tier the host can run
 * (generic, avx2, avx512), and reports GB/s of streamed operands and
 * GFLOP/s of useful arithmetic. Bucket and decode are swept across B
 * in {2, 3, 4} (k = 2^B buckets): the bucket kernel's flop count per
 * element is fixed (one add per index per lane), so the sweep shows
 * how bucket-working-set size moves the scatter, not the flops. Tile
 * kernels run at their tier's seqTile width (8 generic/avx2, 16
 * avx512), printed on each row. Tier-to-tier speedup here is the
 * microscopic view of the end-to-end numbers perfbench/ measures.
 *
 * When hardware counters are available (obs/pmu.hh; GOBO_PMU governs
 * the counter source) every timed loop is additionally bracketed with PMU
 * samples and a roofline table follows: DRAM bytes/s actually
 * measured from LLC misses vs. the wall-clock GB/s of operands
 * *streamed through the kernel*, plus arithmetic intensity (flops per
 * missed byte) and IPC. It is machine-dependent by construction.
 *
 * Flags: --seed N, --fast (fewer repetitions).
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "kernels/kernels.hh"
#include "obs/pmu.hh"
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
    std::size_t seqTile = 0;
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
timeBucket(const KernelSet &kn, const std::vector<std::uint8_t> &irow,
           const std::vector<float> &xt, std::vector<double> &bucket,
           std::size_t k, std::size_t reps)
{
    std::size_t in = irow.size();
    kn.bucketAccTile(irow.data(), in, xt.data(), bucket.data(), k);
    WallTimer timer;
    for (std::size_t r = 0; r < reps; ++r)
        kn.bucketAccTile(irow.data(), in, xt.data(), bucket.data(), k);
    double secs = timer.seconds();
    sink(bucket[0]);
    return secs;
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

    // Dense kernels at a BERT-base-like width; the bucket kernel at the
    // hidden size (one weight row against one activation tile).
    constexpr std::size_t kDenseN = 4096;
    constexpr std::size_t kIn = 3072;

    Rng rng(seed);
    std::vector<float> a(kDenseN), b(kDenseN), y(kDenseN);
    rng.fillGaussian(a, 0.0, 1.0);
    rng.fillGaussian(b, 0.0, 1.0);
    rng.fillGaussian(y, 0.0, 1.0);
    // Activation tiles are sized for the widest tier; a tier's bucket
    // kernel only reads the first seqTile lanes of each element.
    std::vector<float> xt(kIn * kMaxSeqTile);
    rng.fillGaussian(xt, 0.0, 1.0);

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
            results.push_back({"dot", kn.name, 0, kDenseN, kn.seqTile,
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
            results.push_back({"axpy", kn.name, 0, kDenseN, kn.seqTile,
                               bytes / secs / 1e9, flops / secs / 1e9});
            addRoofline(results.back(), delta, secs, flops);
        }
        const std::size_t tile = kn.seqTile;
        for (unsigned bits : {2u, 3u, 4u}) {
            std::size_t k = std::size_t{1} << bits;
            std::vector<std::uint8_t> irow(kIn);
            Rng irng(seed * 97 + bits);
            for (auto &v : irow)
                v = static_cast<std::uint8_t>(
                    irng.integer(0, static_cast<int>(k) - 1));
            std::vector<double> bucket(k * tile);
            PmuSample t0 = pmu.threadSample();
            double secs = timeBucket(kn, irow, xt, bucket, k,
                                     reps / 4);
            PmuSample delta = pmu.threadSample().since(t0);
            double calls = static_cast<double>(reps / 4);
            // Streams the index row and the activation tile, plus the
            // bucket working set (reads + writes, but it stays in L1).
            double bytes =
                calls * (kIn * (1.0 + tile * sizeof(float))
                         + 2.0 * k * tile * sizeof(double));
            // One double add per (index, lane).
            double flops = calls * kIn * tile;
            results.push_back({"bucket_acc_tile", kn.name, bits, kIn,
                               tile, bytes / secs / 1e9,
                               flops / secs / 1e9});
            addRoofline(results.back(), delta, secs, flops);
        }
        for (unsigned bits : {2u, 3u, 4u}) {
            // Packed-row decode: the phase-0 step of the compressed-
            // domain FC. Bytes = packed input read + widened output
            // written; no arithmetic, so GFLOP/s is 0 by construction.
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
            results.push_back({"decode_row", kn.name, bits, kIn, tile,
                               bytes / secs / 1e9, 0.0});
            addRoofline(results.back(), delta, secs, 0.0);
        }
    }

    ConsoleTable table(
        {"Kernel", "Tier", "B", "N", "Tile", "GB/s", "GFLOP/s"});
    for (const auto &r : results)
        table.addRow({r.kernel, r.tier,
                      r.bits ? std::to_string(r.bits) : "-",
                      std::to_string(r.n), std::to_string(r.seqTile),
                      ConsoleTable::num(r.gbPerSec, 2),
                      ConsoleTable::num(r.gflopPerSec, 2)});
    table.print(std::cout);

    if (!roofline.empty()) {
        std::printf("\nRoofline (hardware counters, %s backend, "
                    "%zu-byte lines; machine-dependent, ungated):\n",
                    pmu.sourceName(), pmuCacheLineBytes());
        ConsoleTable roof({"Kernel", "Tier", "B", "Wall GB/s",
                           "DRAM GB/s", "Flop/DRAM-byte", "IPC"});
        for (const auto &r : roofline)
            roof.addRow({r.result.kernel, r.result.tier,
                         r.result.bits ? std::to_string(r.result.bits)
                                       : "-",
                         ConsoleTable::num(r.result.gbPerSec, 2),
                         ConsoleTable::num(r.measuredGbPerSec, 2),
                         ConsoleTable::num(r.arithmeticIntensity, 1),
                         ConsoleTable::num(r.ipc, 2)});
        roof.print(std::cout);
    } else if (!pmu.available()) {
        std::printf("\n(no roofline: hardware counters unavailable)\n");
    }

    return 0;
}
