#include "serve/server.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <ostream>

#include "kernels/kernels.hh"
#include "obs/observer.hh"
#include "util/logging.hh"
#include "util/timer.hh"

namespace gobo {

const char *
serveStatusName(ServeStatus s)
{
    switch (s) {
      case ServeStatus::Ok:
        return "ok";
      case ServeStatus::ShedOverload:
        return "shed_overload";
      case ServeStatus::ShedDeadline:
        return "shed_deadline";
    }
    return "?";
}

std::uint64_t
foldResponseChecksum(std::uint64_t h, const ServeResponse &r)
{
    h = mix64(h ^ (r.id * 0x9e3779b97f4a7c15ULL));
    h = mix64(h ^ static_cast<std::uint64_t>(r.status));
    for (std::size_t i = 0; i < r.logits.size(); ++i)
        h = mix64(h ^ std::bit_cast<std::uint32_t>(r.logits(i)));
    return h;
}

ServeServer::ServeServer(const InferenceSession &session,
                         ServeOptions options)
    : session(session), opt(options)
{
    if (opt.tileLanes == 0)
        opt.tileLanes = resolveKernels(session.context().kernels).seqTile;
    fatalIf(opt.tileLanes == 0, "serve: tileLanes must be positive");
    fatalIf(opt.bandWidth == 0, "serve: bandWidth must be positive");
    fatalIf(opt.maxQueue == 0, "serve: maxQueue must be positive");
    fatalIf(opt.serviceTokensPerSec <= 0.0,
            "serve: serviceTokensPerSec must be positive");
}

ServeRun
ServeServer::runTrace(const std::vector<TraceRequest> &trace)
{
    // Metric handles. The registry is per-run state conceptually, but
    // interning is idempotent so reusing the server just accumulates.
    CounterId cAdmitted = registry.counter("serve.admitted");
    CounterId cShedOverload = registry.counter("serve.shed_overload");
    CounterId cShedDeadline = registry.counter("serve.shed_deadline");
    CounterId cBatches = registry.counter("serve.batches");
    CounterId cLanesFilled = registry.counter("serve.lanes_filled");
    CounterId cLanesTotal = registry.counter("serve.lanes_total");
    HistogramId hLatency = registry.histogram(
        "serve.request_latency_us", latencyBoundsUs());
    HistogramId hQueueWait =
        registry.histogram("serve.queue_wait_us", latencyBoundsUs());
    HistogramId hExec =
        registry.histogram("serve.batch_exec_us", latencyBoundsUs());
    Observer *obs = opt.obs;

    ServeRun run;
    run.responses.resize(trace.size());
    ServeSummary &sum = run.summary;
    sum.requests = trace.size();

    /** One queued request: its trace index and admission time. */
    struct Pending
    {
        std::size_t idx;
        std::uint64_t admitUs;
    };
    // Band queues, keyed by (len - 1) / bandWidth. std::map so the
    // earliest-deadline scan below breaks ties by band index — part of
    // the determinism contract, not a style choice.
    std::map<std::size_t, std::vector<Pending>> bands;
    std::map<std::size_t, ServeBandStats> bandStats;
    // Virtual single-server service model: completion times are
    // monotonic, so a deque suffices for the completion "heap".
    std::deque<std::pair<std::uint64_t, std::uint64_t>> completions;
    std::uint64_t inSystem = 0;
    std::uint64_t serverFreeAtUs = 0;

    // Timeline + flight recorder. Both consume only virtual-time
    // lifecycle events, so everything they produce inherits the
    // determinism of the queue dynamics. Neither feeds back into any
    // scheduling or shed decision — responses are bit-identical with
    // the recorder on or off (pinned in tests/test_timeline.cc).
    TimelineBuilder timeline(
        {opt.timelineWindowUs, opt.timelineMaxWindows});
    FlightRecorder recorder(opt.recorderCapacity,
                            opt.recorderShedCapacity);
    std::int64_t nextBatchId = 0;

    auto shed = [&](std::size_t idx, ServeStatus status,
                    std::uint64_t waitUs) {
        ScopedSpan span(obs, "serve.shed");
        span.arg("request", trace[idx].id);
        ServeResponse &r = run.responses[idx];
        r.id = trace[idx].id;
        r.status = status;
        r.queueWaitUs = waitUs;
        r.latencyUs = waitUs;
        // Admission happens at the arrival instant, so the shed
        // instant is arrival + wait for both causes (overload sheds
        // carry waitUs == 0).
        std::uint64_t tUs = trace[idx].arrivalUs + waitUs;
        RequestRecord rec;
        rec.id = trace[idx].id;
        rec.band = static_cast<std::uint32_t>(
            (trace[idx].tokens.size() - 1) / opt.bandWidth);
        rec.tokens =
            static_cast<std::uint32_t>(trace[idx].tokens.size());
        rec.arrivalUs = trace[idx].arrivalUs;
        rec.queueWaitUs = waitUs;
        if (status == ServeStatus::ShedOverload) {
            rec.shed = ShedCause::Overload;
            timeline.shedOverload(tUs);
            ++sum.shedOverload;
            registry.add(cShedOverload);
            Observer::count(obs, obs ? obs->serveShedOverload
                                     : CounterId{});
        } else {
            // Deadline sheds were admitted and dropped at dispatch:
            // their record keeps the admit instant and stamps the
            // dispatch instant the drop happened at.
            rec.shed = ShedCause::Deadline;
            rec.admitUs = trace[idx].arrivalUs;
            rec.dispatchUs = tUs;
            timeline.shedDeadline(tUs);
            ++sum.shedDeadline;
            registry.add(cShedDeadline);
            Observer::count(obs, obs ? obs->serveShedDeadline
                                     : CounterId{});
        }
        recorder.record(rec);
    };

    auto flushBand = [&](std::size_t band, std::uint64_t nowUs) {
        auto node = bands.extract(band);
        std::vector<Pending> tile = std::move(node.mapped());
        std::uint64_t batchStartUs =
            std::max(nowUs, serverFreeAtUs);

        // Deadline shedding happens at dispatch, against the virtual
        // queue wait: a request that already blew its SLO is dropped
        // instead of occupying a lane.
        std::vector<Pending> kept;
        kept.reserve(tile.size());
        for (const Pending &p : tile) {
            if (opt.requestDeadlineUs != 0
                && batchStartUs - p.admitUs > opt.requestDeadlineUs) {
                shed(p.idx, ServeStatus::ShedDeadline,
                     batchStartUs - p.admitUs);
                --inSystem;
            } else {
                kept.push_back(p);
            }
        }
        if (kept.empty())
            return;
        std::int64_t batchId = nextBatchId++;

        // Real execution of the tile. Composition never changes the
        // math: headLogitsBatch is bit-identical to one-at-a-time
        // serial calls, so *when* a request got batched is invisible
        // in its logits.
        TokenBatch batch;
        std::vector<std::uint64_t> requestIds;
        batch.reserve(kept.size());
        requestIds.reserve(kept.size());
        for (const Pending &p : kept) {
            batch.push_back(trace[p.idx].tokens);
            requestIds.push_back(trace[p.idx].id);
        }
        WallTimer timer;
        std::vector<Tensor> logits;
        {
            ScopedSpan span(obs, "serve.batch");
            span.arg("batch", static_cast<std::uint64_t>(batchId));
            span.arg("requests", kept.size());
            logits = session.headLogitsBatch(batch, requestIds);
        }
        registry.observe(hExec, timer.seconds() * 1e6);

        // Virtual service accounting: the tile occupies the server for
        // its token count over the modeled rate, plus fixed overhead.
        std::size_t tokens = batchTokens(batch);
        sum.tokensServed += tokens;
        auto serviceUs = static_cast<std::uint64_t>(
            static_cast<double>(tokens) / opt.serviceTokensPerSec
            * 1e6);
        std::uint64_t completionUs =
            batchStartUs + opt.batchOverheadUs + serviceUs;
        serverFreeAtUs = completionUs;
        completions.emplace_back(completionUs, kept.size());

        // Completion events are emitted now, with future timestamps —
        // the builder re-sorts by (timestamp, emission seq), and
        // emission order already matches the server's same-instant
        // tie-break (this tile's completions were emitted before any
        // later tile's dispatch).
        timeline.dispatch(batchStartUs, kept.size(), opt.tileLanes);
        timeline.batchComplete(completionUs, tokens);

        ++sum.batches;
        sum.lanesFilled += kept.size();
        sum.lanesTotal += opt.tileLanes;
        registry.add(cBatches);
        registry.add(cLanesFilled, kept.size());
        registry.add(cLanesTotal, opt.tileLanes);
        if (obs) {
            obs->metrics.add(obs->serveBatches);
            obs->metrics.add(obs->serveLanesFilled, kept.size());
            obs->metrics.add(obs->serveLanesTotal, opt.tileLanes);
        }

        ServeBandStats &bs = bandStats[band];
        bs.band = band;
        bs.minLen = band * opt.bandWidth + 1;
        bs.maxLen = (band + 1) * opt.bandWidth;
        bs.requests += kept.size();
        ++bs.batches;

        for (std::size_t i = 0; i < kept.size(); ++i) {
            const Pending &p = kept[i];
            ServeResponse &r = run.responses[p.idx];
            r.id = trace[p.idx].id;
            r.status = ServeStatus::Ok;
            r.logits = std::move(logits[i]);
            r.queueWaitUs = batchStartUs - p.admitUs;
            r.latencyUs = completionUs - p.admitUs;
            timeline.complete(completionUs, r.queueWaitUs);
            RequestRecord rec;
            rec.id = r.id;
            rec.band = static_cast<std::uint32_t>(band);
            rec.lane = static_cast<std::uint32_t>(i);
            rec.batchId = batchId;
            rec.tokens = static_cast<std::uint32_t>(
                trace[p.idx].tokens.size());
            rec.arrivalUs = p.admitUs;
            rec.admitUs = p.admitUs;
            rec.dispatchUs = batchStartUs;
            rec.completeUs = completionUs;
            rec.queueWaitUs = r.queueWaitUs;
            recorder.record(rec);
            ++sum.completed;
            registry.observe(hLatency,
                             static_cast<double>(r.latencyUs));
            registry.observe(hQueueWait,
                             static_cast<double>(r.queueWaitUs));
            if (obs) {
                obs->metrics.observe(obs->serveLatencyUs,
                                     static_cast<double>(r.latencyUs));
                obs->metrics.observe(
                    obs->serveQueueWaitUs,
                    static_cast<double>(r.queueWaitUs));
            }
        }
    };

    // Advance virtual time to `nowUs`, retiring completions and
    // flushing deadline-expired tiles in event order. Completions at
    // the same instant run first: the server frees capacity before the
    // next dispatch claims it.
    auto advance = [&](std::uint64_t nowUs) {
        for (;;) {
            std::uint64_t compT = completions.empty()
                                      ? UINT64_MAX
                                      : completions.front().first;
            std::uint64_t flushT = UINT64_MAX;
            std::size_t flushIdx = 0;
            for (const auto &[b, q] : bands) {
                if (q.empty())
                    continue;
                std::uint64_t d =
                    q.front().admitUs + opt.flushDeadlineUs;
                if (d < flushT) {
                    flushT = d;
                    flushIdx = b;
                }
            }
            std::uint64_t t = std::min(compT, flushT);
            if (t > nowUs)
                break;
            if (compT <= flushT) {
                inSystem -= completions.front().second;
                completions.pop_front();
            } else {
                flushBand(flushIdx, flushT);
            }
        }
    };

    WallTimer wall;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const TraceRequest &req = trace[i];
        fatalIf(req.tokens.empty(), "serve: request ", req.id,
                " has no tokens");
        advance(req.arrivalUs);
        timeline.arrival(req.arrivalUs);

        ScopedSpan span(obs, "serve.admit");
        span.arg("request", req.id);
        if (inSystem >= opt.maxQueue) {
            // Backpressure: reject now with an explicit status rather
            // than letting the queue (and every queued request's
            // latency) grow without bound.
            shed(i, ServeStatus::ShedOverload, 0);
            continue;
        }
        registry.add(cAdmitted);
        Observer::count(obs, obs ? obs->serveAdmitted : CounterId{});
        timeline.admit(req.arrivalUs);
        std::size_t band = (req.tokens.size() - 1) / opt.bandWidth;
        auto &queue = bands[band];
        queue.push_back({i, req.arrivalUs});
        ++inSystem;
        if (queue.size() >= opt.tileLanes)
            flushBand(band, req.arrivalUs);
    }
    // Shutdown drain: advancing past every pending deadline flushes
    // the remaining partial tiles, so no admitted request is lost.
    advance(UINT64_MAX - 1);
    sum.wallSeconds = wall.seconds();

    fatalIf(inSystem != 0, "serve: ", inSystem,
            " requests still in system after drain");
    sum.tileOccupancy =
        sum.lanesTotal
            ? static_cast<double>(sum.lanesFilled)
                  / static_cast<double>(sum.lanesTotal)
            : 0.0;
    sum.tokensPerSec = sum.wallSeconds > 0.0
                           ? static_cast<double>(sum.tokensServed)
                                 / sum.wallSeconds
                           : 0.0;
    for (auto &[band, bs] : bandStats) {
        bs.occupancy =
            bs.batches ? static_cast<double>(bs.requests)
                             / static_cast<double>(bs.batches
                                                   * opt.tileLanes)
                       : 0.0;
        sum.bands.push_back(bs);
    }

    MetricsSnapshot snap = registry.snapshot();
    if (const HistogramSnapshot *h =
            snap.findHistogram("serve.request_latency_us")) {
        sum.latencyP50Us = h->quantile(0.50);
        sum.latencyP95Us = h->quantile(0.95);
        sum.latencyP99Us = h->quantile(0.99);
    }
    if (const HistogramSnapshot *h =
            snap.findHistogram("serve.queue_wait_us")) {
        sum.queueWaitP50Us = h->quantile(0.50);
        sum.queueWaitP95Us = h->quantile(0.95);
        sum.queueWaitP99Us = h->quantile(0.99);
    }
    if (const HistogramSnapshot *h =
            snap.findHistogram("serve.batch_exec_us")) {
        sum.execP50Us = h->quantile(0.50);
        sum.execP95Us = h->quantile(0.95);
        sum.execP99Us = h->quantile(0.99);
    }

    std::uint64_t checksum = 0x243f6a8885a308d3ULL; // pi, arbitrary
    for (const ServeResponse &r : run.responses)
        checksum = foldResponseChecksum(checksum, r);
    sum.responseChecksum = checksum;

    sum.timeline = timeline.build();
    run.flightRecords = recorder.tail();
    run.flightRecorded = recorder.recorded();
    return run;
}

namespace {

/** Shortest-roundtrip double for JSON; NaN (undefined quantile on an
 * all-shed run) becomes null. */
std::string
jnum(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

/** kNeverUs (lifecycle stage never happened) becomes JSON null. */
std::string
jstamp(std::uint64_t tUs)
{
    return tUs == kNeverUs ? "null" : std::to_string(tUs);
}

/**
 * The admission-options object, shared by writeServeJson and
 * writeTimelineJson. One writer on purpose: every knob that shapes the
 * deterministic outcome — including the timeline window and recorder
 * capacities — appears in both reports, so two reports can only be
 * compared when their options blocks agree.
 */
void
writeOptionsJson(const ServeOptions &opt, std::ostream &os)
{
    os << "{\"max_queue\": " << opt.maxQueue
       << ", \"flush_deadline_us\": " << opt.flushDeadlineUs
       << ", \"request_deadline_us\": " << opt.requestDeadlineUs
       << ", \"tile_lanes\": " << opt.tileLanes
       << ", \"band_width\": " << opt.bandWidth
       << ", \"service_tokens_per_sec\": "
       << jnum(opt.serviceTokensPerSec)
       << ", \"batch_overhead_us\": " << opt.batchOverheadUs
       << ", \"timeline_window_us\": " << opt.timelineWindowUs
       << ", \"timeline_max_windows\": " << opt.timelineMaxWindows
       << ", \"recorder_capacity\": " << opt.recorderCapacity
       << ", \"recorder_shed_capacity\": " << opt.recorderShedCapacity
       << "}";
}

/** The environment stamp both report formats open with. */
void
writeMetaJson(const ServeReportMeta &meta, std::ostream &os)
{
    os << "  \"trace\": \"" << meta.trace << "\",\n";
    os << "  \"kernel_tier\": \"" << meta.kernelTier << "\",\n";
    os << "  \"threads\": " << meta.threads << ",\n";
    os << "  \"engine\": \"" << meta.engine << "\",\n";
}

} // namespace

void
writeServeJson(const ServeSummary &sum, const ServeOptions &opt,
               const ServeReportMeta &meta, std::ostream &os)
{
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(sum.responseChecksum));
    os << "{\n";
    writeMetaJson(meta, os);
    os << "  \"options\": ";
    writeOptionsJson(opt, os);
    os << ",\n";
    os << "  \"requests\": " << sum.requests << ",\n";
    os << "  \"completed\": " << sum.completed << ",\n";
    os << "  \"shed_overload\": " << sum.shedOverload << ",\n";
    os << "  \"shed_deadline\": " << sum.shedDeadline << ",\n";
    os << "  \"batches\": " << sum.batches << ",\n";
    os << "  \"lanes_filled\": " << sum.lanesFilled << ",\n";
    os << "  \"lanes_total\": " << sum.lanesTotal << ",\n";
    os << "  \"tile_occupancy\": " << jnum(sum.tileOccupancy) << ",\n";
    os << "  \"bands\": [";
    for (std::size_t i = 0; i < sum.bands.size(); ++i) {
        const ServeBandStats &b = sum.bands[i];
        os << (i ? ",\n            " : "\n            ")
           << "{\"band\": " << b.band << ", \"min_len\": " << b.minLen
           << ", \"max_len\": " << b.maxLen
           << ", \"requests\": " << b.requests
           << ", \"batches\": " << b.batches
           << ", \"occupancy\": " << jnum(b.occupancy) << "}";
    }
    os << "],\n";
    os << "  \"latency_virtual_us\": {\"p50\": " << jnum(sum.latencyP50Us)
       << ", \"p95\": " << jnum(sum.latencyP95Us)
       << ", \"p99\": " << jnum(sum.latencyP99Us) << "},\n";
    os << "  \"queue_wait_virtual_us\": {\"p50\": "
       << jnum(sum.queueWaitP50Us)
       << ", \"p95\": " << jnum(sum.queueWaitP95Us)
       << ", \"p99\": " << jnum(sum.queueWaitP99Us) << "},\n";
    // Wall-clock block: machine-dependent, never gated exactly.
    os << "  \"batch_exec_us\": {\"p50\": " << jnum(sum.execP50Us)
       << ", \"p95\": " << jnum(sum.execP95Us)
       << ", \"p99\": " << jnum(sum.execP99Us) << "},\n";
    os << "  \"tokens_served\": " << sum.tokensServed << ",\n";
    os << "  \"wall_seconds\": " << jnum(sum.wallSeconds) << ",\n";
    os << "  \"tokens_per_sec\": " << jnum(sum.tokensPerSec) << ",\n";
    // Deterministic like the counters above; the serve golden in
    // tests/test_serve.cc pins every window.
    os << "  \"timeline\": {\"window_us\": " << sum.timeline.windowUs
       << ", \"clamped\": " << (sum.timeline.clamped ? "true" : "false")
       << ", \"windows\": ";
    writeTimelineWindows(sum.timeline, os, 4);
    os << "},\n";
    os << "  \"response_checksum\": \"" << hex << "\"\n";
    os << "}\n";
}

void
writeTimelineJson(const ServeRun &run, const ServeOptions &opt,
                  const ServeReportMeta &meta, std::ostream &os)
{
    const ServeSummary &sum = run.summary;
    os << "{\n";
    os << "  \"format\": \"gobo-timeline-v1\",\n";
    writeMetaJson(meta, os);
    os << "  \"options\": ";
    writeOptionsJson(opt, os);
    os << ",\n";
    os << "  \"window_us\": " << sum.timeline.windowUs << ",\n";
    os << "  \"clamped\": " << (sum.timeline.clamped ? "true" : "false")
       << ",\n";
    os << "  \"windows\": ";
    writeTimelineWindows(sum.timeline, os, 2);
    os << ",\n";
    os << "  \"flight_recorder\": {\"recorded\": " << run.flightRecorded
       << ", \"retained\": " << run.flightRecords.size()
       << ", \"records\": [";
    for (std::size_t i = 0; i < run.flightRecords.size(); ++i) {
        const RequestRecord &r = run.flightRecords[i];
        os << (i ? ",\n    " : "\n    ") << "{\"id\": " << r.id
           << ", \"band\": " << r.band << ", \"lane\": "
           << (r.lane == UINT32_MAX ? "null" : std::to_string(r.lane))
           << ", \"batch\": "
           << (r.batchId < 0 ? "null" : std::to_string(r.batchId))
           << ", \"tokens\": " << r.tokens
           << ", \"shed\": \"" << shedCauseName(r.shed) << "\""
           << ", \"arrival_us\": " << r.arrivalUs
           << ", \"admit_us\": " << jstamp(r.admitUs)
           << ", \"dispatch_us\": " << jstamp(r.dispatchUs)
           << ", \"complete_us\": " << jstamp(r.completeUs)
           << ", \"queue_wait_us\": " << r.queueWaitUs << "}";
    }
    os << "]}\n";
    os << "}\n";
}

} // namespace gobo
