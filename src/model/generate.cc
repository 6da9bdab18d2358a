#include "model/generate.hh"

#include <cmath>

#include "util/logging.hh"

namespace gobo {

namespace {

/** splitmix64 finalizer — cheap deterministic hash for jitter/seeds. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Deterministic jitter in [0, 1) from a layer identity and a salt. */
double
jitter(const ModelConfig &config, FcKind kind, std::size_t encoder,
       std::uint64_t salt)
{
    std::uint64_t h = mix64(static_cast<std::uint64_t>(config.family) * 131
                            + static_cast<std::uint64_t>(kind) * 17
                            + encoder + salt * 0x51ed2701);
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/** Flat index of a layer inside the model, used to derive its stream. */
std::uint64_t
layerStreamId(const ModelConfig &config, FcKind kind, std::size_t encoder)
{
    if (kind == FcKind::Pooler)
        return config.numLayers * 6;
    return encoder * 6 + static_cast<std::uint64_t>(kind);
}

/** Per-kind base Gaussian scale, spanning the Fig. 1b range. */
double
baseSigma(FcKind kind)
{
    switch (kind) {
      case FcKind::Query: return 0.046;
      case FcKind::Key: return 0.048;
      case FcKind::Value: return 0.038;
      case FcKind::AttnOutput: return 0.042;
      case FcKind::Intermediate: return 0.044;
      case FcKind::Output: return 0.052;
      case FcKind::Pooler: return 0.030;
    }
    panic("unknown FcKind");
}

/**
 * Per-kind injected far-tail rate, tuned so the log-probability -4
 * census reproduces Fig. 3: most layers between ~0.05% and ~0.4%
 * detected, the pooler just under 1%, model-wide average ~0.1%.
 */
double
baseOutlierFraction(FcKind kind)
{
    switch (kind) {
      case FcKind::Query: return 0.0003;
      case FcKind::Key: return 0.0004;
      case FcKind::Value: return 0.00015;
      case FcKind::AttnOutput: return 0.0006;
      case FcKind::Intermediate: return 0.0005;
      case FcKind::Output: return 0.0008;
      case FcKind::Pooler: return 0.0120;
    }
    panic("unknown FcKind");
}

/** Is this one of the RoBERTa-sensitive layers of Table VI? */
bool
isSensitiveLayer(const ModelConfig &config, FcKind kind,
                 std::size_t encoder)
{
    if (config.family != ModelFamily::RoBerta
        && config.family != ModelFamily::RoBertaLarge)
        return false;
    if (kind != FcKind::Value && kind != FcKind::Intermediate)
        return false;
    // The paper finds the first 6 of 12 (RoBERTa) and first 14 of 24
    // (RoBERTa-Large) encoders sensitive.
    std::size_t sensitive_depth =
        config.family == ModelFamily::RoBerta ? config.numLayers / 2
                                              : (config.numLayers * 14) / 24;
    return encoder < sensitive_depth;
}

} // namespace

std::vector<FcLayerSpec>
fcLayerSpecs(const ModelConfig &config)
{
    std::vector<FcLayerSpec> specs;
    specs.reserve(config.numFcLayers());
    std::size_t h = config.hidden, inter = config.intermediate;
    for (std::size_t e = 0; e < config.numLayers; ++e) {
        std::string prefix = "encoder" + std::to_string(e) + ".";
        specs.push_back({prefix + "query", FcKind::Query, e, h, h});
        specs.push_back({prefix + "key", FcKind::Key, e, h, h});
        specs.push_back({prefix + "value", FcKind::Value, e, h, h});
        specs.push_back({prefix + "attn_output", FcKind::AttnOutput, e, h,
                         h});
        specs.push_back({prefix + "intermediate", FcKind::Intermediate, e,
                         inter, h});
        specs.push_back({prefix + "output", FcKind::Output, e, h, inter});
    }
    specs.push_back({"pooler", FcKind::Pooler, config.numLayers, h, h});
    return specs;
}

LayerDistribution
layerDistribution(const ModelConfig &config, FcKind kind,
                  std::size_t encoder)
{
    LayerDistribution d;
    double depth = config.numLayers <= 1
                       ? 0.0
                       : static_cast<double>(
                             std::min(encoder, config.numLayers - 1))
                             / static_cast<double>(config.numLayers - 1);

    d.sigma = baseSigma(kind) * (1.0 + 0.25 * depth)
              * (0.9 + 0.2 * jitter(config, kind, encoder, 1));
    d.mean = (jitter(config, kind, encoder, 2) - 0.5) * 0.004;
    d.outlierFraction = baseOutlierFraction(kind)
                        * (0.75 + 0.5 * jitter(config, kind, encoder, 3));
    d.outlierMinZ = 4.5;
    d.outlierMaxZ = 12.0;

    // Mild non-Gaussianity on the cold columns: real checkpoints are
    // slightly heavier-tailed than a pure Gaussian.
    d.heavyFraction = 0.04;
    // Hot columns read the high-activation channels and carry the
    // compensating narrow weights.
    d.hotSigmaScale = 0.5;

    if (isSensitiveLayer(config, kind, encoder)) {
        if (config.family == ModelFamily::RoBerta) {
            // RoBERTa's sensitive layers break the |w|*|x| balance:
            // their high-activation columns carry *wide* weights
            // sitting in the region where an 8-entry table is sparse
            // but a 16-entry one is not — the layers are
            // 3-bit-sensitive yet fine at 4 bits (Table VI).
            d.hotSigmaScale = 2.3;
            d.heavyFraction = 0.06;
        } else {
            // The paper finds RoBERTa-Large markedly less sensitive;
            // its Value/Intermediate layers carry only a heavier
            // bounded shoulder.
            d.heavyFraction = 0.12;
        }
    }
    return d;
}

LayerDistribution
embeddingDistribution(const ModelConfig &config)
{
    LayerDistribution d;
    d.sigma = 0.036 * (0.9 + 0.2 * jitter(config, FcKind::Pooler, 999, 4));
    d.mean = 0.0;
    d.outlierFraction = 0.0008;
    d.heavyFraction = 0.02;
    return d;
}

namespace {

/** Draw one weight from the cold-column mixture. */
float
drawCold(const LayerDistribution &dist, Rng &rng)
{
    double u = rng.uniform();
    if (u < dist.outlierFraction) {
        double mag = rng.uniform(dist.outlierMinZ, dist.outlierMaxZ)
                     * dist.sigma;
        double sign = rng.bernoulli(0.5) ? 1.0 : -1.0;
        return static_cast<float>(dist.mean + sign * mag);
    }
    if (u < dist.outlierFraction + dist.heavyFraction) {
        double mag = rng.uniform(dist.heavyLoZ, dist.heavyHiZ)
                     * dist.sigma;
        double sign = rng.bernoulli(0.5) ? 1.0 : -1.0;
        return static_cast<float>(dist.mean + sign * mag);
    }
    return static_cast<float>(rng.gaussian(dist.mean, dist.sigma));
}

} // namespace

namespace {

std::vector<std::uint8_t>
pickMask(std::size_t length, std::size_t want, std::uint64_t stream)
{
    std::vector<std::uint8_t> mask(length, 0);
    Rng rng(mix64(stream));
    std::size_t placed = 0;
    while (placed < std::min(want, length)) {
        auto d = static_cast<std::size_t>(
            rng.integer(0, static_cast<std::int64_t>(length) - 1));
        if (!mask[d]) {
            mask[d] = 1;
            ++placed;
        }
    }
    return mask;
}

} // namespace

std::vector<std::uint8_t>
hotChannelMask(const ModelConfig &config, std::uint64_t seed)
{
    return pickMask(config.hidden,
                    std::max<std::size_t>(1, config.hidden / 4),
                    seed ^ 0x407d15ULL
                        ^ static_cast<std::uint64_t>(config.family)
                              * 8191);
}

std::vector<std::uint8_t>
hotInnerMask(const ModelConfig &config, std::uint64_t seed)
{
    return pickMask(config.intermediate,
                    std::max<std::size_t>(1, config.intermediate / 4),
                    seed ^ 0x1a7e2ULL
                        ^ static_cast<std::uint64_t>(config.family)
                              * 524287);
}

void
fillWeights(Tensor &w, const LayerDistribution &dist, Rng &rng)
{
    for (auto &v : w.flat())
        v = drawCold(dist, rng);
}

void
fillFcWeights(Tensor &w, const LayerDistribution &dist,
              std::span<const std::uint8_t> hot_mask, Rng &rng)
{
    fatalIf(w.rank() != 2 || hot_mask.size() != w.cols(),
            "fillFcWeights hot mask size mismatch");
    for (std::size_t r = 0; r < w.rows(); ++r) {
        auto row = w.row(r);
        for (std::size_t c = 0; c < row.size(); ++c) {
            if (hot_mask[c]) {
                row[c] = static_cast<float>(rng.gaussian(
                    dist.mean, dist.sigma * dist.hotSigmaScale));
            } else {
                row[c] = drawCold(dist, rng);
            }
        }
    }
}

Tensor
generateFcWeight(const ModelConfig &config, const FcLayerSpec &spec,
                 std::uint64_t seed)
{
    Tensor w(spec.rows, spec.cols);
    auto dist = layerDistribution(config, spec.kind, spec.encoder);
    Rng rng(mix64(seed ^ mix64(layerStreamId(config, spec.kind,
                                             spec.encoder) + 0xfc0)));
    // FCs whose input is the residual stream see the gamma-amplified
    // hot channels and carry the balancing narrow columns there; the
    // attention-output and FFN-output FCs read mixed spaces (attention
    // context, GELU activations) without that column structure.
    if (spec.kind == FcKind::Output || spec.kind == FcKind::AttnOutput) {
        fillWeights(w, dist, rng);
    } else {
        auto mask = hotChannelMask(config, seed);
        fillFcWeights(w, dist, mask, rng);
    }
    return w;
}

Tensor
generateWordEmbedding(const ModelConfig &config, std::uint64_t seed)
{
    Tensor w(config.vocabSize, config.hidden);
    Rng rng(mix64(seed ^ 0xe3bedULL));
    auto dist = embeddingDistribution(config);
    fillWeights(w, dist, rng);

    // Spike one or two hot channels of most rows: after the embedding
    // layer norm these become the residual stream's dominant
    // activations (massive-activation channels).
    auto mask = hotChannelMask(config, seed);
    std::vector<std::size_t> hot_dims;
    for (std::size_t d = 0; d < mask.size(); ++d)
        if (mask[d])
            hot_dims.push_back(d);
    for (std::size_t r = 0; r < w.rows(); ++r) {
        double u = rng.uniform();
        std::size_t spikes = u < 0.30 ? 0 : (u < 0.75 ? 1 : 2);
        auto row = w.row(r);
        for (std::size_t s = 0; s < spikes; ++s) {
            auto pick = static_cast<std::size_t>(rng.integer(
                0, static_cast<std::int64_t>(hot_dims.size()) - 1));
            double mag = rng.uniform(10.0, 22.0) * dist.sigma;
            row[hot_dims[pick]] = static_cast<float>(
                rng.bernoulli(0.5) ? mag : -mag);
        }
    }
    return w;
}

BertModel
generateModel(const ModelConfig &config, std::uint64_t seed)
{
    BertModel m(config);

    m.wordEmbedding = generateWordEmbedding(config, seed);
    {
        Rng rng(mix64(seed ^ 0x90511ULL));
        LayerDistribution pos;
        pos.sigma = 0.02;
        pos.outlierFraction = 0.0;
        pos.heavyFraction = 0.0;
        fillWeights(m.positionEmbedding, pos, rng);
        for (auto &v : m.embLnGamma.flat())
            v = static_cast<float>(rng.gaussian(1.0, 0.05));
        for (auto &v : m.embLnBeta.flat())
            v = static_cast<float>(rng.gaussian(0.0, 0.02));
    }

    auto specs = fcLayerSpecs(config);
    auto refs = m.fcLayers();
    panicIf(specs.size() != refs.size(), "spec/ref count mismatch");
    for (std::size_t i = 0; i < specs.size(); ++i)
        *refs[i].weight = generateFcWeight(config, specs[i], seed);

    // Biases and layer-norm parameters: small, benign, FP32-resident
    // (the paper leaves them unquantized and out of its accounting).
    Rng aux(mix64(seed ^ 0xb1a5e5ULL));
    auto fill_small = [&](Tensor &t, double mu, double sd) {
        for (auto &v : t.flat())
            v = static_cast<float>(aux.gaussian(mu, sd));
    };
    // Layer-norm gamma spikes on the hot channels: every LN writes the
    // residual stream's hot dimensions back amplified (the well-known
    // gamma-outlier structure of trained BERT layer norms). Because
    // the normalized values vary per token, the hot activations are
    // large *and* example-dependent. Gammas stay FP32 — the paper
    // leaves layer-norm parameters unquantized — so this structure
    // survives quantization and keeps the task's error budget pinned
    // on the hot weight columns.
    auto hidden_mask = hotChannelMask(config, seed);
    auto spike_gamma = [&](Tensor &gamma) {
        for (std::size_t d = 0; d < hidden_mask.size(); ++d)
            if (hidden_mask[d])
                gamma(d) = static_cast<float>(aux.uniform(3.0, 5.0));
    };
    spike_gamma(m.embLnGamma);

    for (auto &enc : m.encoders) {
        fill_small(enc.queryB, 0.0, 0.02);
        fill_small(enc.keyB, 0.0, 0.02);
        fill_small(enc.valueB, 0.0, 0.02);
        fill_small(enc.attnOutB, 0.0, 0.02);
        fill_small(enc.attnLnGamma, 1.0, 0.05);
        spike_gamma(enc.attnLnGamma);
        fill_small(enc.attnLnBeta, 0.0, 0.02);
        fill_small(enc.interB, 0.0, 0.02);
        fill_small(enc.outB, 0.0, 0.02);
        fill_small(enc.outLnGamma, 1.0, 0.05);
        spike_gamma(enc.outLnGamma);
        fill_small(enc.outLnBeta, 0.0, 0.02);
    }
    fill_small(m.poolerB, 0.0, 0.02);

    // A nonzero task head, so logits printed from a generated model can
    // tell runs apart. Its own stream keeps every tensor above
    // byte-identical to generators that left the head zero.
    Rng head(mix64(seed ^ 0x4eadULL));
    head.fillGaussian(m.headW.data(), 0.0, 0.02);
    head.fillGaussian(m.headB.data(), 0.0, 0.02);

    return m;
}

} // namespace gobo
