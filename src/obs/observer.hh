/**
 * @file
 * Observer — the one handle instrumented code touches.
 *
 * Bundles a MetricsRegistry and a Tracer and pre-interns every
 * hot-path metric the execution stack records, so instrumentation
 * sites pay an id-indexed shard update instead of a name lookup. The
 * handle is threaded through ExecContext as a nullable pointer; a null
 * observer is the default and costs exactly one branch per span or
 * counter — no clock read, no string construction, no allocation.
 *
 * Determinism contract: observers only *read* timestamps and *count*
 * events around compute; they never participate in float arithmetic or
 * alter scheduling, so 1-vs-N-thread outputs stay bit-identical with
 * observability on (asserted in tests/test_obs.cc).
 */

#ifndef GOBO_OBS_OBSERVER_HH
#define GOBO_OBS_OBSERVER_HH

#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace gobo {

class ActivationProbe; // obs/probe.hh; observers only carry the pointer.

/** Metrics + tracing for one run; see file comment for the contract. */
class Observer
{
  public:
    Observer()
        : qexecForwards(metrics.counter("qexec.forwards")),
          qexecRowsDecoded(metrics.counter("qexec.rows_decoded")),
          qexecBytesStreamed(metrics.counter("qexec.bytes_streamed")),
          qexecOutlierCorrections(
              metrics.counter("qexec.outlier_corrections")),
          sessionSequences(metrics.counter("session.sequences")),
          sessionBatches(metrics.counter("session.batches")),
          sessionTokens(metrics.counter("session.tokens")),
          sequenceLatencyUs(metrics.histogram(
              "session.sequence_latency_us", latencyBoundsUs())),
          batchLatencyUs(metrics.histogram("session.batch_latency_us",
                                           latencyBoundsUs())),
          serveAdmitted(metrics.counter("serve.admitted")),
          serveShedOverload(metrics.counter("serve.shed_overload")),
          serveShedDeadline(metrics.counter("serve.shed_deadline")),
          serveBatches(metrics.counter("serve.batches")),
          serveLanesFilled(metrics.counter("serve.lanes_filled")),
          serveLanesTotal(metrics.counter("serve.lanes_total")),
          serveLatencyUs(metrics.histogram("serve.request_latency_us",
                                           latencyBoundsUs())),
          serveQueueWaitUs(metrics.histogram("serve.queue_wait_us",
                                             latencyBoundsUs()))
    {
        // The constructing thread is the run's main thread: naming its
        // track here is what lets the Chrome trace distinguish it from
        // the pool workers (which render as "worker-<tid>").
        tracer.nameThread("main");
    }

    MetricsRegistry metrics;
    Tracer tracer;

    /**
     * Optional divergence probe (obs/probe.hh); null by default.
     * Engines hand activations to it through probeActivation(), which
     * costs two branches when no sampling probe is attached.
     */
    ActivationProbe *probe = nullptr;

    // Pre-interned ids for the instrumented hot paths. Counter names
    // follow the `subsystem.event[.variant]` scheme DESIGN.md §9
    // documents; histograms carry a `_us` unit suffix.
    CounterId qexecForwards;
    CounterId qexecRowsDecoded;
    CounterId qexecBytesStreamed;
    CounterId qexecOutlierCorrections;
    CounterId sessionSequences;
    CounterId sessionBatches;
    CounterId sessionTokens;
    HistogramId sequenceLatencyUs;
    HistogramId batchLatencyUs;
    // Serving-layer ids (src/serve): admission outcome counters, tile
    // accounting, and the per-request virtual-latency histograms.
    CounterId serveAdmitted;
    CounterId serveShedOverload;
    CounterId serveShedDeadline;
    CounterId serveBatches;
    CounterId serveLanesFilled;
    CounterId serveLanesTotal;
    HistogramId serveLatencyUs;
    HistogramId serveQueueWaitUs;

    /** One branch when `obs` is null — the null-observer contract. */
    static void
    count(Observer *obs, CounterId id, std::uint64_t delta = 1)
    {
        if (obs)
            obs->metrics.add(id, delta);
    }

    /** Per-layer qexec counter ids (qexec.layer.<label>.*). */
    struct QexecLayerIds
    {
        CounterId forwards;
        CounterId rowsDecoded;
        CounterId bytesStreamed;
        CounterId outlierCorrections;
    };

    /**
     * Intern (or look up) the per-layer counter quartet for one span
     * label. These feed the audit layer's measured-traffic energy
     * attribution, so they are keyed by the same labels the trace
     * spans use ("enc[0].query", "pooler"). One mutex + map lookup per
     * observed layer forward — heavier than the pre-interned global
     * ids, but still outside every kernel loop; the returned reference
     * stays valid for the observer's lifetime (std::map nodes are
     * stable).
     */
    const QexecLayerIds &
    layerIds(const std::string &label)
    {
        std::lock_guard lock(layerIdsMutex);
        auto it = layerIdsByLabel.find(label);
        if (it == layerIdsByLabel.end()) {
            QexecLayerIds ids;
            std::string prefix = "qexec.layer." + label;
            ids.forwards = metrics.counter(prefix + ".forwards");
            ids.rowsDecoded = metrics.counter(prefix + ".rows_decoded");
            ids.bytesStreamed =
                metrics.counter(prefix + ".bytes_streamed");
            ids.outlierCorrections =
                metrics.counter(prefix + ".outlier_corrections");
            it = layerIdsByLabel.emplace(label, ids).first;
        }
        return it->second;
    }

  private:
    std::mutex layerIdsMutex;
    std::map<std::string, Observer::QexecLayerIds> layerIdsByLabel;
};

/**
 * RAII span: records [construction, destruction) on the calling
 * thread's trace track. With a null observer the constructor is a
 * single branch; name formatting and clock reads happen only when an
 * observer is attached.
 */
class ScopedSpan
{
  public:
    ScopedSpan(Observer *obs, const char *name) : obs(obs)
    {
        if (obs) {
            spanName = name;
            begin();
        }
    }

    /** Span named "prefix[index]" — per-layer / per-sequence spans. */
    ScopedSpan(Observer *obs, const char *prefix, std::size_t index)
        : obs(obs)
    {
        if (obs) {
            spanName = prefix;
            spanName += '[';
            spanName += std::to_string(index);
            spanName += ']';
            begin();
        }
    }

    ScopedSpan(Observer *obs, std::string name) : obs(obs)
    {
        if (obs) {
            spanName = std::move(name);
            begin();
        }
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /**
     * Annotate the span with a key=value arg ("request": 17) rendered
     * into the Chrome trace's args object — request/batch correlation
     * for serve spans. One branch with a null observer, like the
     * constructor.
     */
    void
    arg(const char *key, std::uint64_t value)
    {
        if (obs)
            spanArgs.emplace_back(key, value);
    }

    ~ScopedSpan()
    {
        if (obs)
            obs->tracer.record(std::move(spanName), beginUs,
                               obs->tracer.nowUs() - beginUs,
                               std::move(spanArgs));
    }

  private:
    /** Shared begin path once the span is known to be live. */
    void
    begin()
    {
        beginUs = obs->tracer.nowUs();
    }

    Observer *obs;
    std::string spanName;
    std::vector<TraceArg> spanArgs;
    double beginUs = 0.0;
};

} // namespace gobo

#endif // GOBO_OBS_OBSERVER_HH
