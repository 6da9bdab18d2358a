/**
 * @file
 * Exporters over the observability subsystem.
 *
 * Three output shapes: Chrome trace-event JSON from a Tracer (loads in
 * Perfetto / chrome://tracing), a console rendering of a
 * MetricsSnapshot (counters + p50/p90/p99 latency tables via
 * util/table), and machine-readable metrics JSON. Plus two folds:
 * thread-pool telemetry into snapshot counters, and per-name span
 * summaries (count/total/mean) out of a trace — what `gobo infer
 * --metrics` prints per layer.
 */

#ifndef GOBO_OBS_EXPORT_HH
#define GOBO_OBS_EXPORT_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace gobo {

struct PoolTelemetry;

/**
 * Escape a string for a JSON string literal. Anything outside
 * printable ASCII (control bytes, raw 0x7f..0xff that may not be
 * valid UTF-8) becomes a \u00xx escape, so a hostile or buggy name
 * still yields valid JSON; multi-byte UTF-8 renders as per-byte
 * escapes — lossless at the byte level and never malformed.
 */
std::string jsonEscape(const std::string &s);

/**
 * Write `tracer`'s events as Chrome trace-event JSON
 * ({"traceEvents": [...]}; "ph":"X" complete events, microsecond
 * timestamps). Loadable in Perfetto and chrome://tracing.
 */
void writeChromeTrace(const Tracer &tracer, std::ostream &os);

/**
 * Render the snapshot for humans: a counter table (zero-valued
 * counters are skipped) and one row per histogram with count, mean and
 * p50/p90/p99.
 */
void printMetrics(const MetricsSnapshot &snap, std::ostream &os);

/** Write the snapshot as machine JSON (counters + histograms). */
void writeMetricsJson(const MetricsSnapshot &snap, std::ostream &os);

/**
 * Fold thread-pool telemetry into `snap` as `pool.*` counters (jobs,
 * inline runs, nested jobs, wakes, steals, items drained, per-worker
 * drain counts) so one exporter covers the whole stack.
 */
void appendPoolCounters(MetricsSnapshot &snap, const PoolTelemetry &pool);

/**
 * Fold tracer health into `snap` as `trace.*` counters — today just
 * `trace.dropped_events`, the spans discarded because a per-thread
 * buffer filled. Nonzero means every trace-derived number (span
 * summaries, Chrome export) undercounts.
 */
void appendTraceCounters(MetricsSnapshot &snap, const Tracer &tracer);

/** Aggregate of every span sharing one name. */
struct SpanSummary
{
    std::string name;
    std::uint64_t count = 0;
    double totalUs = 0.0;
    double meanUs = 0.0;
};

/** Per-name span aggregates, sorted by total time descending. */
std::vector<SpanSummary> summarizeSpans(const Tracer &tracer);

} // namespace gobo

#endif // GOBO_OBS_EXPORT_HH
