#include "core/quantizer.hh"

#include <algorithm>
#include <atomic>
#include <span>

#include "core/outliers.hh"
#include "exec/threadpool.hh"
#include "model/generate.hh"
#include "util/bitstream.hh"
#include "util/logging.hh"

namespace gobo {

QuantizedTensor
quantizeTensor(const Tensor &weights, const GoboConfig &config,
               LayerQuantStats *stats)
{
    fatalIf(weights.size() < 2, "quantizeTensor needs at least 2 weights");
    fatalIf(config.bits == 0 || config.bits > 8,
            "quantizeTensor bits out of range: ", config.bits);

    auto flat = weights.flat();

    QuantizedTensor q;
    q.bits = config.bits;
    q.rows = weights.rows();
    q.cols = weights.cols();

    LayerQuantStats local;
    local.weightCount = flat.size();

    ClusterResult cluster;
    if (config.detectOutliers) {
        OutlierSplit split = splitOutliers(flat, config.outlierThreshold);
        local.mean = split.fit.mean();
        local.sigma = split.fit.sigma();
        local.outlierCount = split.outlierValues.size();
        local.outlierFraction = split.outlierFraction();
        fatalIf(split.gValues.empty(),
                "outlier threshold classified every weight as outlier");
        cluster = clusterWeights(split.gValues, config.bits, config.method,
                                 config.maxIterations);
        q.outlierPositions = std::move(split.outlierPositions);
        q.outlierValues = std::move(split.outlierValues);
    } else {
        GaussianFit fit = GaussianFit::fit(flat);
        local.mean = fit.mean();
        local.sigma = fit.sigma();
        cluster = clusterWeights(flat, config.bits, config.method,
                                 config.maxIterations);
    }

    local.iterations = cluster.iterations;
    local.finalL1 = cluster.finalL1;
    local.finalL2 = cluster.finalL2;

    q.centroids = std::move(cluster.centroids);
    // Every position gets an index (outlier slots carry the nearest
    // centroid and are overridden at decode); this keeps the stream a
    // fixed-rate B bits per weight, which is also what the paper's
    // compression arithmetic assumes.
    auto indexes = assignNearest(flat, q.centroids);
    q.packedIndexes = packIndexes(indexes, q.bits);
    q.check();

    if (stats)
        *stats = local;
    return q;
}

unsigned
ModelQuantOptions::effectiveBits(FcKind kind, std::size_t encoder) const
{
    if (bitsFor) {
        unsigned b = bitsFor(kind, encoder);
        fatalIf(b == 0 || b > 8, "bitsFor returned invalid width ", b);
        return b;
    }
    return base.bits;
}

double
ModelQuantReport::weightCompressionRatio() const
{
    if (weightPayloadBytes == 0)
        return 1.0;
    return static_cast<double>(weightOriginalBytes)
           / static_cast<double>(weightPayloadBytes);
}

double
ModelQuantReport::embeddingCompressionRatio() const
{
    if (embeddingPayloadBytes == 0)
        return 1.0;
    return static_cast<double>(embeddingOriginalBytes)
           / static_cast<double>(embeddingPayloadBytes);
}

double
ModelQuantReport::totalCompressionRatio() const
{
    std::size_t orig = weightOriginalBytes + embeddingOriginalBytes;
    std::size_t comp = weightPayloadBytes + embeddingPayloadBytes;
    if (comp == 0)
        return 1.0;
    return static_cast<double>(orig) / static_cast<double>(comp);
}

double
ModelQuantReport::overallOutlierFraction() const
{
    std::size_t total = 0, outliers = 0;
    for (const auto &entry : layers) {
        total += entry.elements;
        outliers += entry.stats.outlierCount;
    }
    if (total == 0)
        return 0.0;
    return static_cast<double>(outliers) / static_cast<double>(total);
}

namespace {

LayerReportEntry
accountLayer(const std::string &name, FcKind kind, std::size_t encoder,
             const QuantizedTensor &q, const LayerQuantStats &stats)
{
    LayerReportEntry entry;
    entry.name = name;
    entry.kind = kind;
    entry.encoder = encoder;
    entry.elements = q.elementCount();
    entry.bits = q.bits;
    entry.payloadBytes = q.payloadBytes();
    entry.stats = stats;
    return entry;
}

/** Sum per-layer entries (fcLayers() order) into a report. */
ModelQuantReport
summarize(std::vector<LayerReportEntry> entries,
          std::size_t embedding_original, std::size_t embedding_payload)
{
    ModelQuantReport report;
    for (auto &entry : entries) {
        report.weightOriginalBytes += entry.elements * sizeof(float);
        report.weightPayloadBytes += entry.payloadBytes;
        report.layers.push_back(std::move(entry));
    }
    report.embeddingOriginalBytes = embedding_original;
    report.embeddingPayloadBytes = embedding_payload;
    return report;
}

/**
 * One quantizeTensor call for quantizeLayers. The weights are either
 * borrowed (`weights`, which must outlive the call) or built inside
 * the job by `generate`, so a streaming run holds at most one
 * generated layer per thread.
 */
struct LayerJob
{
    const Tensor *weights = nullptr;
    std::function<Tensor()> generate; ///< Used when weights is null.
    std::size_t elements = 0;         ///< Size; larger jobs start first.
    GoboConfig config;
};

/** A job for `elements` weights at `bits`, otherwise options.base. */
LayerJob
jobFor(const ModelQuantOptions &options, unsigned bits,
       std::size_t elements)
{
    LayerJob job;
    job.elements = elements;
    job.config = options.base;
    job.config.bits = bits;
    return job;
}

/**
 * The one quantization driver: quantizeTensor over every job,
 * layer-parallel on the shared pool with up to `threads` threads (0
 * means defaultThreads()), handing each result to `done`. Returns once
 * every job has finished; their scratch buffers are freed by then.
 */
void
quantizeLayers(std::span<const LayerJob> jobs, std::size_t threads,
               const LayerSink &done)
{
    // Largest first, then greedy: each participant takes the next job
    // off a shared counter as it frees up, so a big layer never waits
    // behind small ones and the tail is made of the smallest jobs.
    std::vector<std::size_t> order(jobs.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return jobs[a].elements > jobs[b].elements;
                     });

    std::atomic<std::size_t> next{0};
    std::size_t width = std::min(threads == 0 ? defaultThreads() : threads,
                                 jobs.size());
    ThreadPool::shared().run(width, width, [&](std::size_t) {
        for (std::size_t k = next++; k < order.size(); k = next++) {
            const LayerJob &job = jobs[order[k]];
            LayerQuantStats stats;
            QuantizedTensor q =
                job.weights
                    ? quantizeTensor(*job.weights, job.config, &stats)
                    : quantizeTensor(job.generate(), job.config, &stats);
            done(order[k], std::move(q), stats);
        }
    });
}

} // namespace

ModelQuantReport
quantizeModel(const BertModel &model, const ModelQuantOptions &options,
              const LayerSink &keep)
{
    auto layers = model.fcLayers();
    std::vector<LayerJob> jobs;
    for (const auto &layer : layers) {
        jobs.push_back(jobFor(options,
                              options.effectiveBits(layer.kind, layer.encoder),
                              layer.weight->size()));
        jobs.back().weights = layer.weight;
    }
    std::size_t embedding_bytes = model.wordEmbedding.size() * sizeof(float);
    std::size_t embedding_payload = embedding_bytes;
    if (options.embeddingBits > 0) {
        jobs.push_back(jobFor(options, options.embeddingBits,
                              model.wordEmbedding.size()));
        jobs.back().weights = &model.wordEmbedding;
    }

    std::vector<LayerReportEntry> entries(layers.size());
    quantizeLayers(jobs, options.threads,
                   [&](std::size_t i, QuantizedTensor q,
                       const LayerQuantStats &stats) {
                       if (i == layers.size()) {
                           embedding_payload = q.payloadBytes();
                       } else {
                           const auto &layer = layers[i];
                           entries[i] = accountLayer(layer.name, layer.kind,
                                                     layer.encoder, q, stats);
                       }
                       keep(i, std::move(q), stats);
                   });
    return summarize(std::move(entries), embedding_bytes, embedding_payload);
}

ModelQuantReport
quantizeModelInPlace(BertModel &model, const ModelQuantOptions &options)
{
    // Job i reads its tensor and then overwrites it with the decoded
    // form; no job touches another's tensor.
    auto layers = model.fcLayers();
    return quantizeModel(model, options,
                         [&](std::size_t i, QuantizedTensor q,
                             const LayerQuantStats &) {
                             Tensor &dst = i == layers.size()
                                               ? model.wordEmbedding
                                               : *layers[i].weight;
                             dst = q.dequantize();
                         });
}

ModelQuantReport
quantizeConfigStreaming(const ModelConfig &config, std::uint64_t seed,
                        const ModelQuantOptions &options)
{
    auto specs = fcLayerSpecs(config);
    std::vector<LayerJob> jobs;
    for (const auto &spec : specs) {
        jobs.push_back(jobFor(options,
                              options.effectiveBits(spec.kind, spec.encoder),
                              spec.rows * spec.cols));
        jobs.back().generate = [&config, &spec, seed] {
            return generateFcWeight(config, spec, seed);
        };
    }
    std::size_t embedding_bytes = config.wordEmbeddingParams()
                                  * sizeof(float);
    std::size_t embedding_payload = embedding_bytes;
    if (options.embeddingBits > 0) {
        jobs.push_back(jobFor(options, options.embeddingBits,
                              config.wordEmbeddingParams()));
        jobs.back().generate = [&config, seed] {
            return generateWordEmbedding(config, seed);
        };
    }

    std::vector<LayerReportEntry> entries(specs.size());
    quantizeLayers(jobs, options.threads,
                   [&](std::size_t i, QuantizedTensor q,
                       const LayerQuantStats &stats) {
                       if (i == specs.size()) {
                           embedding_payload = q.payloadBytes();
                           return;
                       }
                       const auto &spec = specs[i];
                       entries[i] = accountLayer(spec.name, spec.kind,
                                                 spec.encoder, q, stats);
                   });
    return summarize(std::move(entries), embedding_bytes, embedding_payload);
}

std::function<unsigned(FcKind, std::size_t)>
mixedPolicy(std::size_t sensitive_encoders, unsigned low_bits,
            unsigned high_bits)
{
    return [=](FcKind kind, std::size_t encoder) {
        bool sensitive = (kind == FcKind::Value
                          || kind == FcKind::Intermediate)
                         && encoder < sensitive_encoders;
        return sensitive ? high_bits : low_bits;
    };
}

} // namespace gobo
