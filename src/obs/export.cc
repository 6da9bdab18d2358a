#include "obs/export.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "exec/threadpool.hh"
#include "util/table.hh"

namespace gobo {

namespace {

/**
 * Escape a string for a JSON literal. Names are ASCII in practice,
 * but a hostile or buggy name (control bytes, raw 0x80..0xFF that may
 * not be valid UTF-8) must still produce *valid* JSON: anything
 * outside printable ASCII is emitted as a \u00xx escape, so the
 * output is parseable regardless of what went in. Multi-byte UTF-8
 * renders as per-byte escapes — ugly but lossless at the byte level
 * and never malformed.
 */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default: {
            auto byte = static_cast<unsigned char>(c);
            if (byte < 0x20 || byte >= 0x7f) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", byte);
                out += buf;
            } else {
                out += c;
            }
          }
        }
    }
    return out;
}

/** Fixed-precision double for JSON (avoids locale surprises). */
std::string
jsonNum(double v, int precision = 3)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", precision, v);
    return buf;
}

/**
 * jsonNum, except non-finite values (the NaN an empty histogram's
 * quantile returns by contract) become JSON null — "nan" is not valid
 * JSON and 0 would fake a measurement that never happened.
 */
std::string
jsonNumOrNull(double v, int precision = 3)
{
    return std::isfinite(v) ? jsonNum(v, precision) : "null";
}

} // namespace

void
writeChromeTrace(const Tracer &tracer, std::ostream &os)
{
    auto events = tracer.events();
    auto names = tracer.threadNames();
    os << "{\"traceEvents\": [\n";
    // Metadata ("ph":"M") first: without process_name/thread_name,
    // Perfetto shows anonymous numeric tracks and every trace reads
    // like a different program. tid 0 is the observer's constructing
    // thread ("main"); pool workers carry their default track names.
    os << "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
          "\"args\": {\"name\": \"gobo\"}}";
    for (const auto &[tid, name] : names)
        os << ",\n  {\"name\": \"thread_name\", \"ph\": \"M\", "
              "\"pid\": 1, \"tid\": "
           << tid << ", \"args\": {\"name\": \"" << jsonEscape(name)
           << "\"}}";
    for (const TraceEvent &e : events) {
        os << ",\n  {\"name\": \"" << jsonEscape(e.name)
           << "\", \"cat\": \"gobo\", \"ph\": \"X\", \"ts\": "
           << jsonNum(e.tsUs) << ", \"dur\": " << jsonNum(e.durUs)
           << ", \"pid\": 1, \"tid\": " << e.tid;
        if (!e.args.empty()) {
            os << ", \"args\": {";
            for (std::size_t a = 0; a < e.args.size(); ++a)
                os << (a ? ", " : "") << "\""
                   << jsonEscape(e.args[a].first)
                   << "\": " << e.args[a].second;
            os << "}";
        }
        os << "}";
    }
    os << "\n],\n\"displayTimeUnit\": \"ms\"";
    if (std::uint64_t dropped = tracer.droppedEvents()) {
        os << ",\n\"gobo_dropped_events\": " << dropped;
        // The JSON field is easy to miss; a truncated trace silently
        // misleads whoever loads it, so say so where humans look.
        std::fprintf(stderr,
                     "warning: trace dropped %llu events (per-thread "
                     "buffer full); the exported trace is incomplete\n",
                     static_cast<unsigned long long>(dropped));
    }
    os << "}\n";
}

void
printMetrics(const MetricsSnapshot &snap, std::ostream &os)
{
    ConsoleTable counters({"Counter", "Value"});
    for (const auto &c : snap.counters)
        if (c.value != 0)
            counters.addRow({c.name, std::to_string(c.value)});
    if (counters.rowCount() > 0) {
        counters.print(os);
        os << "\n";
    }

    ConsoleTable gauges({"Gauge", "Value"});
    for (const auto &g : snap.gauges)
        gauges.addRow({g.name, ConsoleTable::num(g.value, 4)});
    if (gauges.rowCount() > 0) {
        gauges.print(os);
        os << "\n";
    }

    ConsoleTable hists({"Histogram", "Count", "Overflow", "Mean", "p50",
                        "p90", "p99"});
    for (const auto &h : snap.histograms) {
        if (h.count == 0)
            continue;
        // Quantiles clamp at the last finite bound, so once a
        // meaningful share of samples overflowed they are only lower
        // bounds — mark them instead of printing a misleading p99.
        auto quantile = [&](double q) {
            std::string cell = h.quantilesAreLowerBounds() ? ">=" : "";
            return cell += ConsoleTable::num(h.quantile(q), 1);
        };
        hists.addRow({h.name, std::to_string(h.count),
                      std::to_string(h.overflow()),
                      ConsoleTable::num(h.mean(), 1), quantile(0.50),
                      quantile(0.90), quantile(0.99)});
    }
    if (hists.rowCount() > 0)
        hists.print(os);
}

void
writeMetricsJson(const MetricsSnapshot &snap, std::ostream &os)
{
    os << "{\n  \"counters\": {";
    bool first = true;
    for (const auto &c : snap.counters) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(c.name)
           << "\": " << c.value;
        first = false;
    }
    os << "\n  },\n  \"gauges\": {";
    first = true;
    for (const auto &g : snap.gauges) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(g.name)
           << "\": " << jsonNumOrNull(g.value, 6);
        first = false;
    }
    os << "\n  },\n  \"histograms\": [";
    first = true;
    for (const auto &h : snap.histograms) {
        os << (first ? "\n" : ",\n") << "    {\"name\": \""
           << jsonEscape(h.name) << "\", \"count\": " << h.count
           << ", \"overflow\": " << h.overflow()
           << ", \"quantiles_lower_bound\": "
           << (h.quantilesAreLowerBounds() ? "true" : "false")
           << ", \"sum\": " << jsonNum(h.sum)
           << ", \"mean\": " << jsonNum(h.mean())
           << ", \"p50\": " << jsonNumOrNull(h.quantile(0.50))
           << ", \"p90\": " << jsonNumOrNull(h.quantile(0.90))
           << ", \"p99\": " << jsonNumOrNull(h.quantile(0.99)) << "}";
        first = false;
    }
    os << "\n  ]\n}\n";
}

void
appendPoolCounters(MetricsSnapshot &snap, const PoolTelemetry &pool)
{
    auto put = [&](std::string name, std::uint64_t value) {
        snap.counters.push_back({std::move(name), value});
    };
    put("pool.jobs", pool.jobs);
    put("pool.inline_runs", pool.inlineRuns);
    put("pool.nested_jobs", pool.nestedJobs);
    put("pool.worker_wakes", pool.wakes);
    put("pool.steals", pool.steals);
    put("pool.items_drained", pool.itemsDrained);
    for (std::size_t w = 0; w < pool.workerItems.size(); ++w)
        put("pool.worker[" + std::to_string(w) + "].items",
            pool.workerItems[w]);
}

void
appendTraceCounters(MetricsSnapshot &snap, const Tracer &tracer)
{
    snap.counters.push_back(
        {"trace.dropped_events", tracer.droppedEvents()});
}

void
appendPmuMetrics(MetricsSnapshot &snap, const PmuSnapshot &pmu)
{
    snap.gauges.push_back({"pmu.available", pmu.available ? 1.0 : 0.0});
    if (!pmu.available || !pmu.total.valid)
        return;
    auto put = [&](std::string name, std::uint64_t value) {
        snap.counters.push_back({std::move(name), value});
    };
    put("pmu.cycles", pmu.total.cycles);
    put("pmu.instructions", pmu.total.instructions);
    put("pmu.llc_misses", pmu.total.llcMisses);
    put("pmu.llc_references", pmu.total.llcReferences);
    put("pmu.stalled_backend", pmu.total.stalledBackend);
    for (const auto &w : pmu.workers)
        if (w.sample.valid)
            put("pmu.worker[" + std::to_string(w.worker) + "].llc_misses",
                w.sample.llcMisses);
    snap.gauges.push_back({"pmu.ipc", pmu.ipc()});
    snap.gauges.push_back({"pmu.llc_miss_ratio", pmu.llcMissRatio()});
    snap.gauges.push_back({"pmu.llc_miss_gbps", pmu.llcMissGBps()});
}

std::vector<SpanSummary>
summarizeSpans(const Tracer &tracer)
{
    std::map<std::string, SpanSummary> by_name;
    for (const auto &e : tracer.events()) {
        SpanSummary &s = by_name[e.name];
        s.name = e.name;
        ++s.count;
        s.totalUs += e.durUs;
    }
    std::vector<SpanSummary> out;
    out.reserve(by_name.size());
    for (auto &[name, s] : by_name) {
        s.meanUs = s.totalUs / static_cast<double>(s.count);
        out.push_back(std::move(s));
    }
    std::sort(out.begin(), out.end(),
              [](const SpanSummary &a, const SpanSummary &b) {
                  return a.totalUs > b.totalUs;
              });
    return out;
}

std::vector<PmuSpanSummary>
summarizePmuSpans(const Tracer &tracer)
{
    std::map<std::string, PmuSpanSummary> by_name;
    for (const auto &e : tracer.events()) {
        // A span carries PMU data iff the ScopedSpan dtor appended the
        // triple; other args (request ids) share the vector, so find
        // by key rather than position.
        const std::uint64_t *miss = nullptr, *instr = nullptr,
                            *cyc = nullptr;
        for (const auto &[key, value] : e.args) {
            if (key == "llc_miss")
                miss = &value;
            else if (key == "instructions")
                instr = &value;
            else if (key == "cycles")
                cyc = &value;
        }
        if (!miss || !instr || !cyc)
            continue;
        PmuSpanSummary &s = by_name[e.name];
        s.name = e.name;
        ++s.count;
        s.llcMisses += *miss;
        s.instructions += *instr;
        s.cycles += *cyc;
        s.totalUs += e.durUs;
    }
    std::vector<PmuSpanSummary> out;
    out.reserve(by_name.size());
    for (auto &[name, s] : by_name)
        out.push_back(std::move(s));
    std::sort(out.begin(), out.end(),
              [](const PmuSpanSummary &a, const PmuSpanSummary &b) {
                  return a.llcMisses > b.llcMisses;
              });
    return out;
}

} // namespace gobo
