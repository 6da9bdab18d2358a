/**
 * @file
 * Quantization-quality audit: per-layer fidelity, runtime divergence,
 * and measured-traffic energy attribution in one report.
 *
 * The paper argues GOBO holds accuracy while compressing ~10x; this
 * module makes that claim inspectable layer by layer instead of only
 * at the task-accuracy endpoint. An audit has three pillars:
 *
 *  1. Static fidelity — reconstruct each quantized FC matrix and
 *     measure L1 / MSE / max error against the FP32 original, plus the
 *     centroid occupancy histogram (dead or saturated tables are the
 *     classic failure mode of clustered quantization).
 *  2. Runtime divergence — run the FP32 and compressed-domain engines
 *     over the same token sequences with an ActivationProbe attached
 *     and fold per-point (embed, layer[e], logits) max-abs and cosine
 *     divergence.
 *  3. Measured-traffic attribution — read the qexec.layer.<label>.*
 *     counters the observed quantized run actually produced and feed
 *     them through memsim's attributeMeasured(), yielding per-layer
 *     DRAM/compute energy and a bandwidth-bound latency split from
 *     measured (not predicted) traffic.
 *
 * Everything runs serially on purpose: emission order is the probe's
 * comparison key, and the audit is a measurement tool, not a serving
 * path.
 */

#ifndef GOBO_OBS_AUDIT_HH
#define GOBO_OBS_AUDIT_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/qtensor.hh"
#include "core/quantizer.hh"
#include "memsim/memsim.hh"
#include "model/model.hh"
#include "obs/probe.hh"
#include "tensor/tensor.hh"

namespace gobo {

class PmuRegistry; // obs/pmu.hh; the audit only carries the pointer.

/** Static reconstruction fidelity of one quantized layer. */
struct LayerFidelity
{
    std::string name;      ///< Model layer name, "encoder0.query".
    std::string spanLabel; ///< qexec span/counter label, "enc[0].query".
    std::size_t elements = 0;
    unsigned bits = 0;
    double outlierFraction = 0.0;
    double compressionRatio = 1.0;
    double l1 = 0.0;     ///< mean |w - w_hat| over all elements.
    double mse = 0.0;    ///< mean squared reconstruction error.
    double maxAbs = 0.0; ///< worst single-element error.
    /** Index-slot population per centroid (see centroidOccupancy). */
    std::vector<std::uint64_t> occupancy;
    std::size_t deadCentroids = 0; ///< centroids no index selects.
    double topCentroidShare = 0.0; ///< largest bucket / elements.
    /** True when one centroid holds >= 90% of all index slots. */
    bool saturated = false;
};

/**
 * Fidelity of one quantized matrix against its FP32 original. Finite
 * for every well-formed input, including empty tensors, all-outlier
 * layers, and single-centroid tables (errors and shares report 0).
 */
LayerFidelity layerFidelity(std::string name, std::string span_label,
                            const Tensor &fp32, const QuantizedTensor &q);

/** What auditModel runs and under which technology parameters. */
struct AuditOptions
{
    ModelQuantOptions quant; ///< How to quantize the audited model.
    std::size_t sequences = 4;
    std::size_t seqLen = 32;
    std::uint64_t seed = 42; ///< Workload token seed.
    MemParams mem;           ///< Technology params for attribution.

    /**
     * Optional hardware-counter registry for the fourth pillar
     * (model validation). When set and available, the observed
     * quantized pass runs with per-span PMU sampling and the report
     * gains a per-layer modeled-vs-measured DRAM-byte comparison;
     * null (the default) or an unavailable backend skips the pillar
     * without touching the other three. The caller owns the registry
     * (gobo audit --pmu passes the process-default one; tests inject
     * a FakePmuSource).
     */
    PmuRegistry *pmu = nullptr;
};

/**
 * Pillar 4 (optional): one FC layer's modeled DRAM traffic checked
 * against what the hardware moved. Modeled bytes are memsim's input —
 * the qexec.layer.* streamed-byte counters; measured bytes are the
 * LLC-miss deltas of the same layer's spans times the cache-line
 * size. The ratio is modeled/measured: ~1 validates the memory-bound
 * model, >1 means the working set stayed cached (misses undercount
 * traffic), <1 means extra traffic the model does not see (prefetch,
 * activations). Ratio is 0 when the hardware measured no misses —
 * never inf/NaN.
 */
struct PmuLayerValidation
{
    std::string layer;  ///< qexec span/counter label, "enc[0].query".
    std::uint64_t spans = 0; ///< spans that carried PMU deltas.
    std::uint64_t llcMisses = 0;
    std::uint64_t measuredBytes = 0; ///< llcMisses x cache line.
    std::uint64_t modeledBytes = 0;  ///< traffic bytesStreamed.
    double modeledOverMeasured = 0.0;
};

/** The full three-pillar report; see writeAuditJson for the schema. */
struct AuditReport
{
    std::string model;     ///< Config name.
    unsigned bits = 0;     ///< Base index width audited.
    std::size_t sequences = 0;
    std::size_t seqLen = 0;
    std::uint64_t seed = 0;

    std::vector<LayerFidelity> fidelity;     ///< fcLayers order.
    std::vector<PointDivergence> divergence; ///< emission order.
    std::vector<MeasuredTraffic> traffic;    ///< fcLayers order.
    std::vector<LayerAttribution> attribution;

    // Whole-run aggregates over the measured layers.
    std::uint64_t totalBytesStreamed = 0;
    double totalMacs = 0.0;
    double totalEnergyMicroJ = 0.0;
    /** Sum of per-layer max(memory, compute) — serial layer stream. */
    double totalLatencyMs = 0.0;

    // Pillar 4 (only when AuditOptions::pmu was set and available).
    bool pmuAvailable = false;
    std::string pmuBackend = "off";
    std::size_t pmuCacheLineBytes = 0;
    std::vector<PmuLayerValidation> pmuValidation; ///< fcLayers order.
};

/**
 * Quantize `model` per `options.quant`, then run all three audit
 * pillars over `options.sequences` random sequences. The FP32 capture
 * pass and the quantized compare pass see identical tokens; the
 * quantized pass is observed, and its qexec.layer.* counters become
 * the measured-traffic inputs. MACs are derived as forwards x the
 * layer's per-forward multiplication count (the pooler runs at
 * sequence length 1) in GOBO's bucket hardware model
 * (QuantizedLinear::opCounts), not what the CPU's lutDot executes.
 */
AuditReport auditModel(const BertModel &model,
                       const AuditOptions &options);

/** Write the report as JSON (schema "gobo-audit-v2"; EXPERIMENTS.md —
 * every v1 block is intact, v2 adds the top-level "pmu" block). */
void writeAuditJson(const AuditReport &report, std::ostream &os);

/** Render the report as console tables. */
void printAuditReport(const AuditReport &report, std::ostream &os);

} // namespace gobo

#endif // GOBO_OBS_AUDIT_HH
