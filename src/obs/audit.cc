#include "obs/audit.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "core/qexec.hh"
#include "exec/session.hh"
#include "obs/export.hh"
#include "obs/observer.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/table.hh"

namespace gobo {

namespace {

/**
 * Shortest-round-trip double for JSON. Fidelity errors span many
 * decades (an MSE of 1e-9 is a *good* result), so fixed precision
 * would round the interesting values to zero.
 */
std::string
jsonNum(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

/** Compact scientific cell for console tables. */
std::string
sci(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3g", v);
    return buf;
}

} // namespace

LayerFidelity
layerFidelity(std::string name, std::string span_label,
              const Tensor &fp32, const QuantizedTensor &q)
{
    fatalIf(fp32.rows() != q.rows || fp32.cols() != q.cols,
            "layerFidelity shape mismatch: fp32 [", fp32.rows(), ", ",
            fp32.cols(), "] vs quantized [", q.rows, ", ", q.cols, "]");

    LayerFidelity f;
    f.name = std::move(name);
    f.spanLabel = std::move(span_label);
    f.elements = q.elementCount();
    f.bits = q.bits;
    f.outlierFraction = q.outlierFraction();

    if (f.elements > 0) {
        f.compressionRatio = q.compressionRatio();
        Tensor rec = q.dequantize();
        auto a = fp32.flat();
        auto b = rec.flat();
        double l1 = 0.0, l2 = 0.0, mx = 0.0;
        for (std::size_t i = 0; i < a.size(); ++i) {
            double d = std::abs(static_cast<double>(a[i])
                                - static_cast<double>(b[i]));
            l1 += d;
            l2 += d * d;
            mx = std::max(mx, d);
        }
        auto n = static_cast<double>(f.elements);
        f.l1 = l1 / n;
        f.mse = l2 / n;
        f.maxAbs = mx;
    }

    f.occupancy = q.centroidOccupancy();
    std::uint64_t top = 0;
    for (std::uint64_t c : f.occupancy) {
        if (c == 0)
            ++f.deadCentroids;
        top = std::max(top, c);
    }
    if (f.elements > 0)
        f.topCentroidShare = static_cast<double>(top)
                             / static_cast<double>(f.elements);
    f.saturated = f.topCentroidShare >= 0.9;
    return f;
}

AuditReport
auditModel(const BertModel &model, const AuditOptions &options)
{
    fatalIf(options.sequences == 0 || options.seqLen == 0,
            "audit needs a non-empty workload");
    fatalIf(options.seqLen > model.config().maxPosition, "audit seq-len ",
            options.seqLen, " exceeds maxPosition ",
            model.config().maxPosition);

    AuditReport report;
    report.model = model.config().name;
    report.bits = options.quant.base.bits;
    report.sequences = options.sequences;
    report.seqLen = options.seqLen;
    report.seed = options.seed;

    // Pillar 1: quantize once and zip the compressed layers with the
    // FP32 originals (forEachLayer visits in fcLayers order). Labels
    // and per-forward MAC counts are copied out as values here because
    // the model object moves into the session below.
    QuantizedBertModel qmodel(model, options.quant);
    auto refs = model.fcLayers();
    std::vector<std::string> labels;
    std::vector<double> per_forward_macs;
    std::size_t zip = 0;
    qmodel.forEachLayer([&](const QuantizedLinear &layer) {
        fatalIf(zip >= refs.size(), "audit layer zip overflow at ",
                layer.spanLabel());
        report.fidelity.push_back(
            layerFidelity(refs[zip].name, layer.spanLabel(),
                          *refs[zip].weight, layer.compressed()));
        labels.push_back(layer.spanLabel());
        // The pooler consumes only the [CLS] row, so its forward runs
        // at sequence length 1 regardless of the workload seq-len.
        // These are GOBO's bucket datapath's multiplies (opCounts), the
        // hardware model memsim prices, not the CPU kernel's work.
        std::size_t seq = layer.spanLabel() == "pooler" ? 1
                                                        : options.seqLen;
        per_forward_macs.push_back(static_cast<double>(
            layer.opCounts(seq).multiplications));
        ++zip;
    });
    fatalIf(zip != refs.size(), "audit visited ", zip, " layers but the "
            "model has ", refs.size());

    // Shared workload: same tokens for both engines.
    Rng rng(options.seed * 31 + 5);
    TokenBatch batch;
    for (std::size_t s = 0; s < options.sequences; ++s) {
        std::vector<std::int32_t> seq;
        seq.reserve(options.seqLen);
        for (std::size_t t = 0; t < options.seqLen; ++t)
            seq.push_back(static_cast<std::int32_t>(rng.integer(
                0,
                static_cast<std::int64_t>(model.config().vocabSize)
                    - 1)));
        batch.push_back(std::move(seq));
    }

    // Pillar 2: capture FP32 references, then compare the quantized
    // engine against them. Serial single-sequence calls keep emission
    // order deterministic — the probe's comparison key.
    ActivationProbe probe(ProbeMode::Capture);
    {
        Observer ref_obs;
        ref_obs.probe = &probe;
        ExecContext ctx = ExecContext::serial();
        ctx.obs = &ref_obs;
        InferenceSession session(model, ctx);
        for (const auto &seq : batch)
            session.headLogits(seq);
    }
    probe.setMode(ProbeMode::Compare);
    Observer qobs;
    qobs.probe = &probe;
    {
        ExecContext ctx = ExecContext::serial();
        ctx.obs = &qobs;
        InferenceSession session(std::move(qmodel), ctx);
        for (const auto &seq : batch)
            session.headLogits(seq);
    }
    report.divergence = probe.divergence();

    // Pillar 3: read back what the observed quantized run streamed.
    MetricsSnapshot snap = qobs.metrics.snapshot();
    auto counter = [&](const std::string &name) -> std::uint64_t {
        const auto *c = snap.findCounter(name);
        return c ? c->value : 0;
    };
    for (std::size_t k = 0; k < labels.size(); ++k) {
        MeasuredTraffic t;
        t.layer = labels[k];
        std::string prefix = "qexec.layer." + labels[k];
        t.forwards = counter(prefix + ".forwards");
        t.bytesStreamed = counter(prefix + ".bytes_streamed");
        t.rowsDecoded = counter(prefix + ".rows_decoded");
        t.outlierCorrections = counter(prefix + ".outlier_corrections");
        t.macs = static_cast<double>(t.forwards) * per_forward_macs[k];
        report.traffic.push_back(std::move(t));
    }
    report.attribution = attributeMeasured(report.traffic, options.mem);

    for (const auto &t : report.traffic) {
        report.totalBytesStreamed += t.bytesStreamed;
        report.totalMacs += t.macs;
    }
    for (const auto &a : report.attribution) {
        report.totalEnergyMicroJ += a.totalEnergyMicroJ;
        report.totalLatencyMs += a.latencyMs;
    }
    return report;
}

void
writeAuditJson(const AuditReport &r, std::ostream &os)
{
    os << "{\n  \"schema\": \"gobo-audit-v3\",\n  \"model\": \""
       << jsonEscape(r.model) << "\",\n  \"bits\": " << r.bits
       << ",\n  \"workload\": {\"sequences\": " << r.sequences
       << ", \"seq_len\": " << r.seqLen << ", \"seed\": " << r.seed
       << "},\n  \"fidelity\": [";
    bool first = true;
    for (const auto &f : r.fidelity) {
        os << (first ? "\n" : ",\n") << "    {\"layer\": \""
           << jsonEscape(f.name) << "\", \"span\": \""
           << jsonEscape(f.spanLabel) << "\", \"elements\": "
           << f.elements << ", \"bits\": " << f.bits
           << ", \"outlier_fraction\": " << jsonNum(f.outlierFraction)
           << ", \"compression_ratio\": " << jsonNum(f.compressionRatio)
           << ", \"l1\": " << jsonNum(f.l1) << ", \"mse\": "
           << jsonNum(f.mse) << ", \"max_abs\": " << jsonNum(f.maxAbs)
           << ", \"dead_centroids\": " << f.deadCentroids
           << ", \"top_centroid_share\": "
           << jsonNum(f.topCentroidShare) << ", \"saturated\": "
           << (f.saturated ? "true" : "false") << ", \"occupancy\": [";
        for (std::size_t i = 0; i < f.occupancy.size(); ++i)
            os << (i ? ", " : "") << f.occupancy[i];
        os << "]}";
        first = false;
    }
    os << "\n  ],\n  \"divergence\": [";
    first = true;
    for (const auto &d : r.divergence) {
        os << (first ? "\n" : ",\n") << "    {\"point\": \""
           << jsonEscape(d.point) << "\", \"samples\": " << d.samples
           << ", \"mismatches\": " << d.mismatches << ", \"max_abs\": "
           << jsonNum(d.maxAbs) << ", \"mean_cosine\": "
           << jsonNum(d.meanCosine) << ", \"min_cosine\": "
           << jsonNum(d.minCosine) << "}";
        first = false;
    }
    os << "\n  ],\n  \"traffic\": [";
    first = true;
    for (const auto &t : r.traffic) {
        os << (first ? "\n" : ",\n") << "    {\"layer\": \""
           << jsonEscape(t.layer) << "\", \"forwards\": " << t.forwards
           << ", \"bytes_streamed\": " << t.bytesStreamed
           << ", \"rows_decoded\": " << t.rowsDecoded
           << ", \"outlier_corrections\": " << t.outlierCorrections
           << ", \"macs\": " << jsonNum(t.macs) << "}";
        first = false;
    }
    os << "\n  ],\n  \"attribution\": [";
    first = true;
    for (const auto &a : r.attribution) {
        os << (first ? "\n" : ",\n") << "    {\"layer\": \""
           << jsonEscape(a.layer) << "\", \"off_chip_energy_uj\": "
           << jsonNum(a.offChipEnergyMicroJ)
           << ", \"compute_energy_uj\": "
           << jsonNum(a.computeEnergyMicroJ) << ", \"total_energy_uj\": "
           << jsonNum(a.totalEnergyMicroJ) << ", \"memory_latency_ms\": "
           << jsonNum(a.memoryLatencyMs) << ", \"compute_latency_ms\": "
           << jsonNum(a.computeLatencyMs) << ", \"latency_ms\": "
           << jsonNum(a.latencyMs) << ", \"memory_bound\": "
           << (a.memoryBound ? "true" : "false") << "}";
        first = false;
    }
    os << "\n  ],\n  \"totals\": {\"bytes_streamed\": "
       << r.totalBytesStreamed << ", \"macs\": " << jsonNum(r.totalMacs)
       << ", \"energy_uj\": " << jsonNum(r.totalEnergyMicroJ)
       << ", \"latency_ms\": " << jsonNum(r.totalLatencyMs) << "}\n}\n";
}

void
printAuditReport(const AuditReport &r, std::ostream &os)
{
    os << "audit: " << r.model << ", " << r.bits << "b base, packed, "
       << r.sequences
       << " x " << r.seqLen << " tokens (seed " << r.seed << ")\n\n";

    ConsoleTable fid({"Layer", "Bits", "Outliers", "L1", "MSE",
                      "MaxAbs", "Dead", "TopShare"});
    for (const auto &f : r.fidelity)
        fid.addRow({f.name, std::to_string(f.bits),
                    ConsoleTable::pct(100.0 * f.outlierFraction, 2),
                    sci(f.l1), sci(f.mse), sci(f.maxAbs),
                    std::to_string(f.deadCentroids),
                    ConsoleTable::pct(100.0 * f.topCentroidShare, 1)});
    fid.print(os);
    os << "\n";

    ConsoleTable div({"Point", "Samples", "MaxAbs", "MeanCos", "MinCos",
                      "Mismatch"});
    for (const auto &d : r.divergence)
        div.addRow({d.point, std::to_string(d.samples), sci(d.maxAbs),
                    ConsoleTable::num(d.meanCosine, 6),
                    ConsoleTable::num(d.minCosine, 6),
                    std::to_string(d.mismatches)});
    div.print(os);
    os << "\n";

    ConsoleTable tr({"Layer", "Fwd", "KiB streamed", "MACs", "E (uJ)",
                     "Lat (ms)", "Bound"});
    for (std::size_t i = 0; i < r.traffic.size(); ++i) {
        const auto &t = r.traffic[i];
        const auto &a = r.attribution[i];
        tr.addRow({t.layer, std::to_string(t.forwards),
                   ConsoleTable::num(
                       static_cast<double>(t.bytesStreamed) / 1024.0, 1),
                   sci(t.macs), ConsoleTable::num(a.totalEnergyMicroJ, 2),
                   sci(a.latencyMs),
                   a.memoryBound ? "memory" : "compute"});
    }
    tr.print(os);
    os << "\ntotals: " << ConsoleTable::num(
              static_cast<double>(r.totalBytesStreamed) / 1024.0, 1)
       << " KiB streamed, " << sci(r.totalMacs) << " MACs, "
       << ConsoleTable::num(r.totalEnergyMicroJ, 2) << " uJ, "
       << sci(r.totalLatencyMs) << " ms (modeled)\n";
}

} // namespace gobo
