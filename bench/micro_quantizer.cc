/**
 * @file
 * google-benchmark microbenchmarks of the quantizer itself: per-layer
 * quantization wall-clock across layer sizes and centroid policies,
 * outlier detection, packing, and decode. The paper's deployment
 * claim — quantizing BERT-Base takes ~10 minutes on one CPU core with
 * scikit-learn — is reproduced (and beaten by orders of magnitude,
 * thanks to the sorted prefix-sum clusterer) by the FullModel
 * benchmark.
 */

#include <benchmark/benchmark.h>

#include "core/cluster.hh"
#include "core/outliers.hh"
#include "core/quantizer.hh"
#include "model/generate.hh"

using namespace gobo;

namespace {

Tensor
layerWeights(std::size_t flat_index)
{
    auto cfg = fullConfig(ModelFamily::BertBase);
    auto specs = fcLayerSpecs(cfg);
    return generateFcWeight(cfg, specs[flat_index], 42);
}

void
BM_OutlierDetection(benchmark::State &state)
{
    Tensor w = layerWeights(4); // intermediate, 2.36M weights
    for (auto _ : state) {
        auto split = splitOutliers(w.flat(), -4.0);
        benchmark::DoNotOptimize(split.outlierValues.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations())
                            * static_cast<std::int64_t>(w.size()));
}
BENCHMARK(BM_OutlierDetection)->Unit(benchmark::kMillisecond);

void
BM_ClusterPolicy(benchmark::State &state)
{
    auto method = static_cast<CentroidMethod>(state.range(0));
    unsigned bits = static_cast<unsigned>(state.range(1));
    Tensor w = layerWeights(4);
    auto split = splitOutliers(w.flat(), -4.0);
    std::size_t iters = 0;
    for (auto _ : state) {
        auto res = clusterWeights(split.gValues, bits, method);
        iters = res.iterations;
        benchmark::DoNotOptimize(res.centroids.data());
    }
    state.counters["lloyd_iters"] = static_cast<double>(iters);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations())
                            * static_cast<std::int64_t>(
                                split.gValues.size()));
}
BENCHMARK(BM_ClusterPolicy)
    ->Args({static_cast<int>(CentroidMethod::Gobo), 3})
    ->Args({static_cast<int>(CentroidMethod::KMeans), 3})
    ->Args({static_cast<int>(CentroidMethod::Linear), 3})
    ->Args({static_cast<int>(CentroidMethod::Gobo), 4})
    ->Args({static_cast<int>(CentroidMethod::KMeans), 4})
    ->Unit(benchmark::kMillisecond);

void
BM_QuantizeLayer(benchmark::State &state)
{
    // Layer sizes of BERT-Base: attention FC (590K) via index 0,
    // intermediate (2.36M) via index 4.
    Tensor w = layerWeights(static_cast<std::size_t>(state.range(0)));
    GoboConfig cfg;
    cfg.bits = 3;
    for (auto _ : state) {
        auto q = quantizeTensor(w, cfg);
        benchmark::DoNotOptimize(q.packedIndexes.data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations())
                            * static_cast<std::int64_t>(w.size() * 4));
}
BENCHMARK(BM_QuantizeLayer)->Arg(0)->Arg(4)->Unit(
    benchmark::kMillisecond);

void
BM_DequantizeLayer(benchmark::State &state)
{
    Tensor w = layerWeights(4);
    GoboConfig cfg;
    cfg.bits = 3;
    auto q = quantizeTensor(w, cfg);
    for (auto _ : state) {
        Tensor t = q.dequantize();
        benchmark::DoNotOptimize(t.data().data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations())
                            * static_cast<std::int64_t>(w.size() * 4));
}
BENCHMARK(BM_DequantizeLayer)->Unit(benchmark::kMillisecond);

/**
 * Whole-model quantization at full BERT-Base scale (85.5M weights +
 * 23.4M embedding entries) on `threads` threads (0 = every core).
 */
void
fullModelQuantization(benchmark::State &state, std::size_t threads)
{
    auto cfg = fullConfig(ModelFamily::BertBase);
    ModelQuantOptions opt;
    opt.base.bits = 3;
    opt.embeddingBits = 4;
    opt.threads = threads;
    for (auto _ : state) {
        auto report = quantizeConfigStreaming(cfg, 42, opt);
        benchmark::DoNotOptimize(report.weightPayloadBytes);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations())
        * static_cast<std::int64_t>(
            (cfg.fcWeightParams() + cfg.wordEmbeddingParams()) * 4));
}

void
BM_FullModelQuantization(benchmark::State &state)
{
    // One core, as in the paper's deployment claim (~10 minutes with
    // scikit-learn); this implementation runs it in seconds.
    fullModelQuantization(state, 1);
}
BENCHMARK(BM_FullModelQuantization)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);

void
BM_FullModelQuantizationAllCores(benchmark::State &state)
{
    // The shipped default: layers quantized in parallel on every core.
    fullModelQuantization(state, 0);
}
BENCHMARK(BM_FullModelQuantizationAllCores)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);

} // namespace

BENCHMARK_MAIN();
