/**
 * @file
 * Tests for the timeline layer (obs/timeline) and its serve plumbing:
 * exact per-window aggregates from a hand-built event stream,
 * out-of-order emission, maxWindows clamping, flight-recorder
 * boundedness and shed pinning, and the contracts the serve
 * integration must keep — the windowed series is byte-identical
 * across backends, window sums reconcile with the
 * run summary, the recorder never alters a response bit, and every
 * shed request is reconstructable from the recorder tail.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/qexec.hh"
#include "exec/session.hh"
#include "jsonlint.hh"
#include "model/generate.hh"
#include "obs/timeline.hh"
#include "serve/loadgen.hh"
#include "serve/server.hh"
#include "util/rng.hh"

namespace gobo {
namespace {

TEST(TimelineBuilder, WindowAggregatesAreExact)
{
    // Hand-built lifecycle: one request admitted at t=100 and served
    // at t=1500 (wait 1400), one rejected at t=200, one 1-lane tile of
    // 30 tokens dispatched at t=500. Window width 1000us.
    TimelineBuilder tb({1000, 100});
    tb.arrival(100);
    tb.admit(100);
    tb.arrival(200);
    tb.shedOverload(200);
    tb.dispatch(500, 1, 8);
    tb.complete(1500, 1400);
    tb.batchComplete(1500, 30);

    TimelineSeries s = tb.build();
    EXPECT_EQ(s.windowUs, 1000u);
    EXPECT_EQ(s.spanUs, 1500u);
    EXPECT_FALSE(s.clamped);
    ASSERT_EQ(s.windows.size(), 2u);

    const TimelineWindow &w0 = s.windows[0];
    EXPECT_EQ(w0.index, 0u);
    EXPECT_EQ(w0.startUs, 0u);
    EXPECT_EQ(w0.arrivals, 2u);
    EXPECT_EQ(w0.admitted, 1u);
    EXPECT_EQ(w0.completed, 0u);
    EXPECT_EQ(w0.shedOverload, 1u);
    EXPECT_EQ(w0.shedDeadline, 0u);
    EXPECT_EQ(w0.batches, 1u);
    EXPECT_EQ(w0.lanesFilled, 1u);
    EXPECT_EQ(w0.lanesTotal, 8u);
    EXPECT_EQ(w0.tokens, 0u);
    EXPECT_DOUBLE_EQ(w0.tokensPerSec, 0.0);
    // Depth 1 from the admit at t=100 to the window edge at t=1000:
    // 900 depth-us over a 1000us window.
    EXPECT_DOUBLE_EQ(w0.meanQueueDepth, 0.9);
    EXPECT_DOUBLE_EQ(w0.occupancy, 0.125);
    // Nothing completed here: the quantiles are NaN by contract.
    EXPECT_TRUE(std::isnan(w0.queueWaitP50Us));
    EXPECT_TRUE(std::isnan(w0.queueWaitP99Us));

    const TimelineWindow &w1 = s.windows[1];
    EXPECT_EQ(w1.arrivals, 0u);
    EXPECT_EQ(w1.completed, 1u);
    EXPECT_EQ(w1.batches, 0u);
    EXPECT_EQ(w1.tokens, 30u);
    // 30 tokens over a 1ms window = 30000 tok/s, exactly.
    EXPECT_DOUBLE_EQ(w1.tokensPerSec, 30000.0);
    // Depth 1 from t=1000 until the completion at t=1500.
    EXPECT_DOUBLE_EQ(w1.meanQueueDepth, 0.5);
    EXPECT_DOUBLE_EQ(w1.occupancy, 0.0);
    ASSERT_TRUE(std::isfinite(w1.queueWaitP50Us));
    ASSERT_TRUE(std::isfinite(w1.queueWaitP99Us));
    EXPECT_GT(w1.queueWaitP50Us, 0.0);
    EXPECT_GE(w1.queueWaitP99Us, w1.queueWaitP50Us);
}

TEST(TimelineBuilder, EmptySeriesHasNoWindows)
{
    TimelineBuilder tb({1000, 100});
    TimelineSeries s = tb.build();
    EXPECT_EQ(s.windows.size(), 0u);
    EXPECT_EQ(s.spanUs, 0u);
    EXPECT_FALSE(s.clamped);
}

TEST(TimelineBuilder, EmissionOrderDoesNotMatterAtDistinctTimes)
{
    // The serve loop emits a tile's completion at dispatch time (the
    // virtual completion is computed then), so events arrive out of
    // time order. build() must produce the same series either way for
    // events with distinct timestamps.
    TimelineBuilder inOrder({500, 100});
    inOrder.admit(100);
    inOrder.dispatch(300, 2, 8);
    inOrder.complete(900, 800);
    inOrder.complete(901, 801);
    inOrder.batchComplete(902, 40);

    TimelineBuilder scrambled({500, 100});
    scrambled.batchComplete(902, 40);
    scrambled.complete(901, 801);
    scrambled.admit(100);
    scrambled.complete(900, 800);
    scrambled.dispatch(300, 2, 8);

    std::ostringstream a, b;
    writeTimelineWindows(inOrder.build(), a, 2);
    writeTimelineWindows(scrambled.build(), b, 2);
    EXPECT_EQ(a.str(), b.str());
}

TEST(TimelineBuilder, ClampsTailIntoLastWindow)
{
    TimelineBuilder tb({1000, 2});
    tb.arrival(100);
    tb.arrival(2500);
    tb.arrival(5500);
    TimelineSeries s = tb.build();
    EXPECT_TRUE(s.clamped);
    EXPECT_EQ(s.spanUs, 5500u);
    ASSERT_EQ(s.windows.size(), 2u);
    EXPECT_EQ(s.windows[0].arrivals, 1u);
    // Both post-cap arrivals fold into the final window.
    EXPECT_EQ(s.windows[1].arrivals, 2u);
}

RequestRecord
okRecord(std::uint64_t id)
{
    RequestRecord r;
    r.id = id;
    r.admitUs = id;
    r.dispatchUs = id + 1;
    r.completeUs = id + 2;
    r.lane = 0;
    r.batchId = 0;
    return r;
}

RequestRecord
shedRecord(std::uint64_t id, ShedCause cause)
{
    RequestRecord r;
    r.id = id;
    r.shed = cause;
    return r;
}

TEST(FlightRecorderTest, TailRingKeepsLastCapacityRecords)
{
    FlightRecorder rec(4, 2);
    EXPECT_TRUE(rec.enabled());
    for (std::uint64_t id = 0; id < 10; ++id)
        rec.record(okRecord(id));
    EXPECT_EQ(rec.recorded(), 10u);
    auto tail = rec.tail();
    ASSERT_EQ(tail.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(tail[i].id, 6u + i); // sorted by id, last 4 survive
}

TEST(FlightRecorderTest, ShedRecordsSurviveTailRollover)
{
    FlightRecorder rec(4, 2);
    rec.record(shedRecord(0, ShedCause::Overload));
    rec.record(shedRecord(1, ShedCause::Deadline));
    for (std::uint64_t id = 2; id < 10; ++id)
        rec.record(okRecord(id));
    auto tail = rec.tail();
    // Last 4 Ok records plus the two pinned sheds, sorted, no dupes.
    ASSERT_EQ(tail.size(), 6u);
    EXPECT_EQ(tail[0].id, 0u);
    EXPECT_EQ(tail[0].shed, ShedCause::Overload);
    EXPECT_EQ(tail[1].id, 1u);
    EXPECT_EQ(tail[1].shed, ShedCause::Deadline);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(tail[2 + i].id, 6u + i);

    // The shed ring is itself bounded: a third shed evicts the oldest.
    rec.record(shedRecord(10, ShedCause::Overload));
    tail = rec.tail();
    bool has0 = false, has1 = false, has10 = false;
    for (const RequestRecord &r : tail) {
        has0 |= r.id == 0;
        has1 |= r.id == 1;
        has10 |= r.id == 10;
    }
    EXPECT_FALSE(has0); // rolled out of both rings
    EXPECT_TRUE(has1);
    EXPECT_TRUE(has10);
}

TEST(FlightRecorderTest, ZeroCapacityDisablesRecording)
{
    FlightRecorder rec(0, 8);
    EXPECT_FALSE(rec.enabled());
    rec.record(okRecord(1));
    rec.record(shedRecord(2, ShedCause::Overload));
    EXPECT_EQ(rec.recorded(), 0u);
    EXPECT_TRUE(rec.tail().empty());
}

// ---------------------------------------------------------------------
// Serve integration: the same mini model / stress trace the serve
// tests pin their determinism contracts on.

/** Shared mini model with a filled task head (generateModel leaves it
 * zeroed; identity checks need real logits). Built once. */
const BertModel &
testModel()
{
    static const BertModel model = [] {
        BertModel m = generateModel(miniConfig(ModelFamily::BertBase), 42);
        Rng rng(42 * 31 + 5);
        m.resizeHead(3);
        rng.fillGaussian(m.headW.data(), 0.0, 0.5);
        rng.fillGaussian(m.headB.data(), 0.0, 0.5);
        return m;
    }();
    return model;
}

InferenceSession
makeSession(bool parallel)
{
    ModelQuantOptions qopt;
    qopt.base.bits = 3;
    ExecContext ctx =
        parallel ? ExecContext::parallel(2) : ExecContext::serial();
    return InferenceSession(QuantizedBertModel(testModel(), qopt), ctx);
}

/** Small near-saturation trace: bursts against maxQueue=8 force
 * overload sheds and a tight deadline forces deadline sheds, so the
 * timeline and recorder exercise every lifecycle path. */
TraceSpec
stressSpec()
{
    auto spec = parseTraceSpec(
        "n=160,seed=7,rate=400,len=1:64,long=0.25,burst=6x0.3,"
        "period=50000");
    EXPECT_TRUE(spec.has_value());
    return *spec;
}

ServeOptions
stressOptions()
{
    ServeOptions opt;
    opt.maxQueue = 8;
    opt.requestDeadlineUs = 30000;
    // ~400ms of trace at 50ms windows: several nonempty windows.
    opt.timelineWindowUs = 50000;
    // Pin the tile width (the default resolves to the executing
    // tier's seqTile) so lane bounds and shed decisions are the same
    // on every host these tests run on.
    opt.tileLanes = 8;
    return opt;
}

TEST(ServeTimeline, ByteIdenticalAcrossBackendsAndFormats)
{
    // Serial vs parallel. (The name predates the single weight format.)
    auto trace = generateTrace(stressSpec(), testModel().config().vocabSize);
    ServeOptions opt = stressOptions();

    std::string first;
    for (bool parallel : {false, true}) {
        InferenceSession session = makeSession(parallel);
        ServeServer server(session, opt);
        ServeRun run = server.runTrace(trace);
        std::ostringstream os;
        writeTimelineWindows(run.summary.timeline, os, 2);
        if (first.empty()) {
            first = os.str();
            EXPECT_GT(run.summary.timeline.windows.size(), 3u);
        } else {
            EXPECT_EQ(os.str(), first) << "parallel=" << parallel;
        }
    }
}

TEST(ServeTimeline, WindowSumsReconcileWithSummary)
{
    auto trace = generateTrace(stressSpec(), testModel().config().vocabSize);
    InferenceSession session = makeSession(false);
    ServeServer server(session, stressOptions());
    ServeRun run = server.runTrace(trace);
    const ServeSummary &sum = run.summary;
    EXPECT_GT(sum.shedOverload, 0u);
    EXPECT_GT(sum.shedDeadline, 0u);

    TimelineWindow total;
    for (const TimelineWindow &w : sum.timeline.windows) {
        total.arrivals += w.arrivals;
        total.admitted += w.admitted;
        total.completed += w.completed;
        total.shedOverload += w.shedOverload;
        total.shedDeadline += w.shedDeadline;
        total.batches += w.batches;
        total.lanesFilled += w.lanesFilled;
        total.lanesTotal += w.lanesTotal;
        total.tokens += w.tokens;
    }
    EXPECT_EQ(total.arrivals, sum.requests);
    EXPECT_EQ(total.admitted, sum.completed + sum.shedDeadline);
    EXPECT_EQ(total.completed, sum.completed);
    EXPECT_EQ(total.shedOverload, sum.shedOverload);
    EXPECT_EQ(total.shedDeadline, sum.shedDeadline);
    EXPECT_EQ(total.batches, sum.batches);
    EXPECT_EQ(total.lanesFilled, sum.lanesFilled);
    EXPECT_EQ(total.lanesTotal, sum.lanesTotal);
    EXPECT_EQ(total.tokens, sum.tokensServed);
}

TEST(ServeTimeline, RecorderNeverAltersResponses)
{
    auto trace = generateTrace(stressSpec(), testModel().config().vocabSize);
    InferenceSession session = makeSession(false);

    ServeOptions on = stressOptions();
    ServeServer serverOn(session, on);
    ServeRun runOn = serverOn.runTrace(trace);
    EXPECT_GT(runOn.flightRecorded, 0u);
    EXPECT_FALSE(runOn.flightRecords.empty());

    ServeOptions off = stressOptions();
    off.recorderCapacity = 0;
    off.recorderShedCapacity = 0;
    ServeServer serverOff(session, off);
    ServeRun runOff = serverOff.runTrace(trace);
    EXPECT_EQ(runOff.flightRecorded, 0u);
    EXPECT_TRUE(runOff.flightRecords.empty());

    EXPECT_EQ(runOn.summary.responseChecksum,
              runOff.summary.responseChecksum);
    ASSERT_EQ(runOn.responses.size(), runOff.responses.size());
    for (std::size_t i = 0; i < runOn.responses.size(); ++i)
        EXPECT_EQ(runOn.responses[i].status, runOff.responses[i].status);
}

TEST(ServeTimeline, RecorderReconstructsEveryShedLifecycle)
{
    auto trace = generateTrace(stressSpec(), testModel().config().vocabSize);
    ServeOptions opt = stressOptions();
    // Capacity above the trace size: nothing rolls out, so the tail
    // is the complete lifecycle log and must explain every response.
    opt.recorderCapacity = 1024;
    opt.recorderShedCapacity = 1024;
    InferenceSession session = makeSession(false);
    ServeServer server(session, opt);
    ServeRun run = server.runTrace(trace);
    ASSERT_EQ(run.flightRecords.size(), trace.size());
    ASSERT_EQ(run.flightRecorded, trace.size());

    for (std::size_t i = 0; i < trace.size(); ++i) {
        const RequestRecord &rec = run.flightRecords[i];
        const ServeResponse &resp = run.responses[i];
        ASSERT_EQ(rec.id, resp.id);
        EXPECT_EQ(rec.tokens, trace[i].tokens.size());
        EXPECT_EQ(rec.arrivalUs, trace[i].arrivalUs);
        switch (resp.status) {
          case ServeStatus::Ok:
            EXPECT_EQ(rec.shed, ShedCause::None);
            EXPECT_LT(rec.lane, opt.tileLanes);
            EXPECT_GE(rec.batchId, 0);
            EXPECT_NE(rec.admitUs, kNeverUs);
            EXPECT_NE(rec.dispatchUs, kNeverUs);
            EXPECT_NE(rec.completeUs, kNeverUs);
            EXPECT_EQ(rec.queueWaitUs, resp.queueWaitUs);
            break;
          case ServeStatus::ShedOverload:
            // Never entered the queue: no admission, no dispatch.
            EXPECT_EQ(rec.shed, ShedCause::Overload);
            EXPECT_EQ(rec.lane, UINT32_MAX);
            EXPECT_EQ(rec.batchId, -1);
            EXPECT_EQ(rec.admitUs, kNeverUs);
            EXPECT_EQ(rec.dispatchUs, kNeverUs);
            EXPECT_EQ(rec.completeUs, kNeverUs);
            break;
          case ServeStatus::ShedDeadline:
            // Admitted, dropped at dispatch, never served.
            EXPECT_EQ(rec.shed, ShedCause::Deadline);
            EXPECT_EQ(rec.lane, UINT32_MAX);
            EXPECT_EQ(rec.batchId, -1);
            EXPECT_NE(rec.admitUs, kNeverUs);
            EXPECT_NE(rec.dispatchUs, kNeverUs);
            EXPECT_EQ(rec.completeUs, kNeverUs);
            EXPECT_EQ(rec.queueWaitUs, resp.queueWaitUs);
            break;
        }
    }
}

TEST(ServeTimeline, TimelineDocumentIsValidJson)
{
    auto spec = stressSpec();
    auto trace = generateTrace(spec, testModel().config().vocabSize);
    ServeOptions opt = stressOptions();
    InferenceSession session = makeSession(false);
    ServeServer server(session, opt);
    ServeRun run = server.runTrace(trace);

    ServeReportMeta meta;
    meta.trace = traceSpecString(spec);
    meta.kernelTier = "generic";
    meta.threads = 1;
    meta.engine = "qexec";

    std::ostringstream tl;
    writeTimelineJson(run, opt, meta, tl);
    std::string doc = tl.str();
    EXPECT_TRUE(jsonValid(doc)) << doc.substr(0, 400);
    EXPECT_NE(doc.find("\"format\": \"gobo-timeline-v1\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"flight_recorder\""), std::string::npos);
    EXPECT_NE(doc.find("\"shed\": \"deadline\""), std::string::npos);
    EXPECT_EQ(doc.find("nan"), std::string::npos);

    // The serve report embeds the same windows byte for byte: both
    // documents render through writeTimelineWindows, so the bench gate
    // and the standalone timeline can never drift.
    std::ostringstream sj;
    writeServeJson(run.summary, opt, meta, sj);
    EXPECT_TRUE(jsonValid(sj.str()));
    std::ostringstream windows;
    writeTimelineWindows(run.summary.timeline, windows, 4);
    EXPECT_NE(sj.str().find(windows.str()), std::string::npos);
}

} // namespace
} // namespace gobo
