/**
 * @file
 * Tests for the serving layer (src/serve): load-generator determinism
 * and spec grammar, batch-forming bit-identity against one-at-a-time
 * serial replay, queue drain on shutdown (every request answered
 * exactly once), explicit overload/deadline shedding, tile occupancy
 * accounting with summary counts that reconcile with the responses,
 * identical runs across backends and on a reused server — the
 * properties that make a 100k-request soak a replayable CI scenario.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/qexec.hh"
#include "exec/session.hh"
#include "kernels/kernels.hh"
#include "model/generate.hh"
#include "serve/loadgen.hh"
#include "serve/server.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace gobo {
namespace {

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
 * overload sheds, deadline below the worst queue wait forces deadline
 * sheds, and len spans every band the mini model can hold. */
TraceSpec
stressSpec()
{
    auto spec = parseTraceSpec(
        "n=160,seed=7,rate=400,len=1:64,long=0.25,burst=6x0.3,"
        "period=50000");
    EXPECT_TRUE(spec.has_value());
    return *spec;
}

TEST(Loadgen, SpecGrammarAcceptsAndRoundtrips)
{
    auto spec = parseTraceSpec(
        "n=100000,seed=7,rate=250.5,len=4:96,long=0.4,burst=4x0.2,"
        "period=100000");
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(spec->requests, 100000u);
    EXPECT_EQ(spec->seed, 7u);
    EXPECT_DOUBLE_EQ(spec->ratePerSec, 250.5);
    EXPECT_EQ(spec->minLen, 4u);
    EXPECT_EQ(spec->maxLen, 96u);
    EXPECT_DOUBLE_EQ(spec->longFraction, 0.4);
    EXPECT_DOUBLE_EQ(spec->burstFactor, 4.0);
    EXPECT_DOUBLE_EQ(spec->burstDuty, 0.2);
    EXPECT_EQ(spec->burstPeriodUs, 100000u);

    // Canonical string parses back to the same spec.
    auto again = parseTraceSpec(traceSpecString(*spec));
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(traceSpecString(*again), traceSpecString(*spec));

    // Defaults apply for omitted keys.
    auto minimal = parseTraceSpec("n=10");
    ASSERT_TRUE(minimal.has_value());
    EXPECT_EQ(minimal->requests, 10u);
    EXPECT_EQ(minimal->seed, TraceSpec{}.seed);
}

TEST(Loadgen, SpecGrammarRejectsMalformedInput)
{
    const char *bad[] = {
        "",            // empty
        "n=0",         // zero requests
        "n=10000001",  // over the cap
        "n=-5",        // sign
        "n=5x",        // trailing junk
        "n=5,n",       // key with no value
        "rate=0",      // non-positive rate
        "rate=-3",     // sign
        "rate=0x10",   // hex float
        "len=0:8",     // zero min
        "len=9:8",     // min > max
        "len=8",       // missing colon
        "long=1.5",    // out of [0,1]
        "burst=0.5x0.2", // factor < 1
        "burst=4x1.5", // duty out of [0,1]
        "burst=4",     // missing duty
        "period=0",    // zero period
        "frogs=7",     // unknown key
        "n=5,,rate=3", // empty pair
    };
    for (const char *text : bad)
        EXPECT_FALSE(parseTraceSpec(text).has_value()) << text;
}

TEST(Loadgen, ReplayIsDeterministic)
{
    auto spec = stressSpec();
    auto a = generateTrace(spec, 512);
    auto b = generateTrace(spec, 512);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.size(), spec.requests);
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, i);
        EXPECT_EQ(a[i].arrivalUs, b[i].arrivalUs);
        EXPECT_EQ(a[i].tokens, b[i].tokens);
        EXPECT_GE(a[i].arrivalUs, prev); // arrivals are sorted
        prev = a[i].arrivalUs;
        EXPECT_GE(a[i].tokens.size(), spec.minLen);
        EXPECT_LE(a[i].tokens.size(), spec.maxLen);
        for (std::int32_t t : a[i].tokens) {
            EXPECT_GE(t, 0);
            EXPECT_LT(t, 512);
        }
    }

    // A different seed changes the trace (arrivals or tokens).
    spec.seed = 8;
    auto c = generateTrace(spec, 512);
    bool differs = false;
    for (std::size_t i = 0; i < a.size() && !differs; ++i)
        differs = a[i].arrivalUs != c[i].arrivalUs
                  || a[i].tokens != c[i].tokens;
    EXPECT_TRUE(differs);
}

TEST(Serve, BatchFormingIsInvisibleInLogits)
{
    // Skewed lengths across every band; the batched tiles the server
    // forms must reproduce one-at-a-time serial logits bit for bit.
    auto spec = stressSpec();
    spec.requests = 96;
    auto trace = generateTrace(spec, testModel().config().vocabSize);

    InferenceSession parallel = makeSession(true);
    ServeOptions opt; // generous queue: nothing sheds
    ServeServer server(parallel, opt);
    ServeRun run = server.runTrace(trace);
    EXPECT_EQ(run.summary.completed, trace.size());

    InferenceSession serial = makeSession(false);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const ServeResponse &r = run.responses[i];
        ASSERT_EQ(r.status, ServeStatus::Ok);
        Tensor ref = serial.headLogits(trace[i].tokens);
        ASSERT_EQ(ref.size(), r.logits.size());
        for (std::size_t j = 0; j < ref.size(); ++j)
            EXPECT_EQ(ref(j), r.logits(j))
                << "request " << i << " logit " << j;
    }
}

TEST(Serve, DrainAnswersEveryRequestExactlyOnce)
{
    auto spec = stressSpec();
    auto trace = generateTrace(spec, testModel().config().vocabSize);
    InferenceSession session = makeSession(false);
    ServeOptions opt;
    opt.maxQueue = 8;
    opt.requestDeadlineUs = 30000;
    ServeServer server(session, opt);
    ServeRun run = server.runTrace(trace);
    const ServeSummary &sum = run.summary;

    // One response per request id, none lost, none duplicated.
    ASSERT_EQ(run.responses.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(run.responses[i].id, trace[i].id);
        if (run.responses[i].status == ServeStatus::Ok)
            EXPECT_GT(run.responses[i].logits.size(), 0u);
        else
            EXPECT_EQ(run.responses[i].logits.size(), 0u);
    }
    EXPECT_EQ(sum.completed + sum.shedOverload + sum.shedDeadline,
              sum.requests);
    EXPECT_EQ(sum.requests, trace.size());
}

TEST(Serve, OverloadAndDeadlineShedExplicitlyAndDeterministically)
{
    auto spec = stressSpec();
    auto trace = generateTrace(spec, testModel().config().vocabSize);
    InferenceSession session = makeSession(false);
    ServeOptions opt;
    opt.maxQueue = 8;          // bursts overflow this
    opt.requestDeadlineUs = 30000; // below worst-case queue wait
    ServeServer a(session, opt);
    ServeRun ra = a.runTrace(trace);
    EXPECT_GT(ra.summary.shedOverload, 0u);
    EXPECT_GT(ra.summary.shedDeadline, 0u);
    EXPECT_GT(ra.summary.completed, 0u);

    // Same trace + options => identical shed decisions and checksum:
    // the queue dynamics run in virtual time, not wall time.
    ServeServer b(session, opt);
    ServeRun rb = b.runTrace(trace);
    EXPECT_EQ(ra.summary.shedOverload, rb.summary.shedOverload);
    EXPECT_EQ(ra.summary.shedDeadline, rb.summary.shedDeadline);
    EXPECT_EQ(ra.summary.batches, rb.summary.batches);
    EXPECT_EQ(ra.summary.responseChecksum, rb.summary.responseChecksum);
    EXPECT_DOUBLE_EQ(ra.summary.latencyP99Us, rb.summary.latencyP99Us);
    for (std::size_t i = 0; i < ra.responses.size(); ++i)
        EXPECT_EQ(ra.responses[i].status, rb.responses[i].status);
}

TEST(Serve, TileOccupancyAccountsFilledLanes)
{
    // Hand-built trace: 16 same-length requests arriving back to back
    // form exactly two full tiles -> occupancy 1.0; one more request
    // flushes alone on the deadline timer -> overall 17/24.
    std::vector<TraceRequest> trace;
    SplitMix64 tok(99);
    for (std::size_t i = 0; i < 17; ++i) {
        TraceRequest r;
        r.id = i;
        r.arrivalUs = i * 10;
        for (int t = 0; t < 8; ++t)
            r.tokens.push_back(static_cast<std::int32_t>(tok.next() % 512));
        trace.push_back(std::move(r));
    }
    InferenceSession session = makeSession(false);
    ServeOptions opt;
    // The default resolves to the executing tier's seqTile (8 or 16);
    // pin the width the hand-built arithmetic below assumes.
    opt.tileLanes = 8;
    ServeServer server(session, opt);
    ServeRun run = server.runTrace(trace);
    EXPECT_EQ(run.summary.completed, 17u);
    EXPECT_EQ(run.summary.batches, 3u);
    EXPECT_EQ(run.summary.lanesFilled, 17u);
    EXPECT_EQ(run.summary.lanesTotal, 24u);
    EXPECT_NEAR(run.summary.tileOccupancy, 17.0 / 24.0, 1e-12);
    ASSERT_EQ(run.summary.bands.size(), 1u);
    EXPECT_EQ(run.summary.bands[0].band, 0u);
    EXPECT_EQ(run.summary.bands[0].minLen, 1u);
    EXPECT_EQ(run.summary.bands[0].maxLen, 16u);
    EXPECT_EQ(run.summary.bands[0].requests, 17u);
}

TEST(Serve, ChecksumStableAcrossBackendsAndFormats)
{
    // Serial vs parallel. (The name predates the single weight format.)
    auto spec = stressSpec();
    spec.requests = 64;
    auto trace = generateTrace(spec, testModel().config().vocabSize);
    ServeOptions opt;
    opt.maxQueue = 8;
    opt.requestDeadlineUs = 30000;

    std::uint64_t checksum = 0;
    bool first = true;
    for (bool parallel : {false, true}) {
        InferenceSession session = makeSession(parallel);
        ServeServer server(session, opt);
        ServeRun run = server.runTrace(trace);
        if (first) {
            checksum = run.summary.responseChecksum;
            first = false;
        } else {
            EXPECT_EQ(run.summary.responseChecksum, checksum)
                << "parallel=" << parallel;
        }
    }
    EXPECT_NE(checksum, 0u);
}

// ---------------------------------------------------------------------
// The virtual-time account of a shedding run. The suite and test names
// date from a windowed timeline and a flight recorder that once held
// this account; the same contracts now hold on ServeRun::responses and
// ServeSummary directly.

ServeOptions
stressOptions()
{
    ServeOptions opt;
    opt.maxQueue = 8;
    opt.requestDeadlineUs = 30000;
    // Pin the tile width (the default resolves to the executing
    // tier's seqTile) so lane bounds and shed decisions are the same
    // on every host these tests run on.
    opt.tileLanes = 8;
    return opt;
}

TEST(ServeTimeline, ByteIdenticalAcrossBackendsAndFormats)
{
    // Serial vs parallel on a run that sheds both ways: every response
    // and every virtual-time outcome is a function of (trace, options)
    // alone. (The name predates the single weight format.)
    auto trace = generateTrace(stressSpec(), testModel().config().vocabSize);
    ServeOptions opt = stressOptions();
    InferenceSession serialSession = makeSession(false);
    InferenceSession parallelSession = makeSession(true);
    ServeRun a = ServeServer(serialSession, opt).runTrace(trace);
    ServeRun b = ServeServer(parallelSession, opt).runTrace(trace);

    EXPECT_GT(a.summary.shedOverload, 0u);
    EXPECT_GT(a.summary.shedDeadline, 0u);
    EXPECT_NE(a.summary.responseChecksum, 0u);
    EXPECT_EQ(a.summary.responseChecksum, b.summary.responseChecksum);
    EXPECT_EQ(a.summary.shedOverload, b.summary.shedOverload);
    EXPECT_EQ(a.summary.shedDeadline, b.summary.shedDeadline);
    EXPECT_EQ(a.summary.batches, b.summary.batches);
    EXPECT_EQ(a.summary.lanesTotal, b.summary.lanesTotal);
    EXPECT_EQ(a.summary.tokensServed, b.summary.tokensServed);
    EXPECT_EQ(a.summary.latencyP99Us, b.summary.latencyP99Us);
    EXPECT_EQ(a.summary.queueWaitP99Us, b.summary.queueWaitP99Us);
    ASSERT_EQ(a.responses.size(), b.responses.size());
    for (std::size_t i = 0; i < a.responses.size(); ++i) {
        EXPECT_EQ(a.responses[i].status, b.responses[i].status) << i;
        EXPECT_EQ(a.responses[i].queueWaitUs, b.responses[i].queueWaitUs)
            << i;
        EXPECT_EQ(a.responses[i].latencyUs, b.responses[i].latencyUs)
            << i;
    }
}

TEST(ServeTimeline, WindowSumsReconcileWithSummary)
{
    // The summary counts are the responses counted.
    auto trace = generateTrace(stressSpec(), testModel().config().vocabSize);
    InferenceSession session = makeSession(false);
    ServeServer server(session, stressOptions());
    ServeRun run = server.runTrace(trace);
    const ServeSummary &sum = run.summary;
    EXPECT_GT(sum.shedOverload, 0u);
    EXPECT_GT(sum.shedDeadline, 0u);

    ASSERT_EQ(run.responses.size(), trace.size());
    std::uint64_t ok = 0, overload = 0, deadline = 0, tokens = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        switch (run.responses[i].status) {
          case ServeStatus::Ok:
            ++ok;
            tokens += trace[i].tokens.size();
            break;
          case ServeStatus::ShedOverload:
            ++overload;
            break;
          case ServeStatus::ShedDeadline:
            ++deadline;
            break;
        }
    }
    EXPECT_EQ(sum.requests, trace.size());
    EXPECT_EQ(ok, sum.completed);
    EXPECT_EQ(overload, sum.shedOverload);
    EXPECT_EQ(deadline, sum.shedDeadline);
    EXPECT_EQ(tokens, sum.tokensServed);
    EXPECT_EQ(sum.lanesFilled, sum.completed);
    EXPECT_EQ(sum.lanesTotal, sum.batches * server.options().tileLanes);
    std::uint64_t bandRequests = 0, bandBatches = 0;
    for (const ServeBandStats &b : sum.bands) {
        bandRequests += b.requests;
        bandBatches += b.batches;
    }
    EXPECT_EQ(bandRequests, sum.completed);
    EXPECT_EQ(bandBatches, sum.batches);
}

TEST(ServeTimeline, RecorderReconstructsEveryShedLifecycle)
{
    // Every response's timing fits its status.
    auto trace = generateTrace(stressSpec(), testModel().config().vocabSize);
    ServeOptions opt = stressOptions();
    InferenceSession session = makeSession(false);
    ServeServer server(session, opt);
    ServeRun run = server.runTrace(trace);
    EXPECT_GT(run.summary.shedOverload, 0u);
    EXPECT_GT(run.summary.shedDeadline, 0u);

    ASSERT_EQ(run.responses.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const ServeResponse &r = run.responses[i];
        ASSERT_EQ(r.id, trace[i].id);
        EXPECT_EQ(r.logits.size() > 0, r.status == ServeStatus::Ok) << i;
        switch (r.status) {
          case ServeStatus::Ok:
            // Waited, then held the server for its tile.
            EXPECT_GT(r.latencyUs, r.queueWaitUs) << i;
            break;
          case ServeStatus::ShedOverload:
            // Rejected on arrival: never queued.
            EXPECT_EQ(r.queueWaitUs, 0u) << i;
            EXPECT_EQ(r.latencyUs, 0u) << i;
            break;
          case ServeStatus::ShedDeadline:
            // Dropped at dispatch, after its wait blew the deadline.
            EXPECT_GT(r.queueWaitUs, opt.requestDeadlineUs) << i;
            EXPECT_EQ(r.latencyUs, r.queueWaitUs) << i;
            break;
        }
    }
}

TEST(Serve, ReusedServerMatchesFreshServer)
{
    // A second trace on the same server must summarize exactly like a
    // fresh server on that trace: no state carries over between runs.
    auto heavy = parseTraceSpec("n=200,seed=3,rate=400,len=1:64,long=0.25");
    auto light = parseTraceSpec("n=120,seed=9,rate=50,len=1:8");
    ASSERT_TRUE(heavy && light);
    std::size_t vocab = testModel().config().vocabSize;
    auto first = generateTrace(*heavy, vocab);
    auto second = generateTrace(*light, vocab);

    InferenceSession session = makeSession(false);
    ServeOptions opt;
    opt.tileLanes = 8;
    ServeServer reused(session, opt);
    reused.runTrace(first);
    const ServeSummary again = reused.runTrace(second).summary;
    ServeServer fresh(session, opt);
    const ServeSummary want = fresh.runTrace(second).summary;

    EXPECT_EQ(again.requests, want.requests);
    EXPECT_EQ(again.completed, want.completed);
    EXPECT_EQ(again.batches, want.batches);
    EXPECT_EQ(again.latencyP50Us, want.latencyP50Us);
    EXPECT_EQ(again.latencyP95Us, want.latencyP95Us);
    EXPECT_EQ(again.latencyP99Us, want.latencyP99Us);
    EXPECT_EQ(again.queueWaitP50Us, want.queueWaitP50Us);
    EXPECT_EQ(again.queueWaitP95Us, want.queueWaitP95Us);
    EXPECT_EQ(again.queueWaitP99Us, want.queueWaitP99Us);
    EXPECT_EQ(again.responseChecksum, want.responseChecksum);
    // The exec quantiles come from the same per-run registry, but they
    // are wall-clock times, so no two runs can be compared exactly.
    EXPECT_GT(again.execP50Us, 0.0);
}

TEST(Serve, RejectsNonFiniteServiceRate)
{
    // NaN passes a `<= 0` check and casts to garbage service times;
    // inf makes every tile free. Both must fail at construction.
    InferenceSession session = makeSession(false);
    for (double rate : {std::nan(""), HUGE_VAL, -HUGE_VAL, 0.0, -1.0}) {
        ServeOptions opt;
        opt.serviceTokensPerSec = rate;
        EXPECT_THROW(ServeServer(session, opt), FatalError) << rate;
    }
}

TEST(Serve, HugeFlushDeadlineNeverFlushesEarly)
{
    // admitUs + flushDeadlineUs must saturate, not wrap: a deadline of
    // 2^64 - 1 us means "wait for a full tile", exactly like one far
    // past the trace's end.
    auto spec = parseTraceSpec("n=64,seed=3,rate=400,len=1:8");
    ASSERT_TRUE(spec);
    auto trace = generateTrace(*spec, testModel().config().vocabSize);
    InferenceSession session = makeSession(false);
    ServeOptions opt;
    opt.tileLanes = 16;
    opt.flushDeadlineUs = 1000000000;
    const ServeSummary far =
        ServeServer(session, opt).runTrace(trace).summary;
    opt.flushDeadlineUs = UINT64_MAX;
    const ServeSummary huge =
        ServeServer(session, opt).runTrace(trace).summary;
    EXPECT_EQ(far.batches, 4u);
    EXPECT_EQ(huge.batches, far.batches);
    EXPECT_EQ(huge.tileOccupancy, 1.0);
    EXPECT_EQ(huge.latencyP99Us, far.latencyP99Us);
    EXPECT_EQ(huge.responseChecksum, far.responseChecksum);
}

TEST(Serve, TinyServiceRateSaturatesVirtualTime)
{
    // One token at 1e-300 tok/s takes ~1e306 us, past what a uint64
    // holds: the service time must saturate, not cast to garbage.
    auto spec = parseTraceSpec("n=40,seed=5,rate=400,len=1:8");
    ASSERT_TRUE(spec);
    auto trace = generateTrace(*spec, testModel().config().vocabSize);
    InferenceSession session = makeSession(false);
    ServeOptions opt;
    opt.tileLanes = 8;
    opt.serviceTokensPerSec = 1e-300;
    ServeRun run = ServeServer(session, opt).runTrace(trace);
    std::size_t ok = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const ServeResponse &r = run.responses[i];
        if (r.status != ServeStatus::Ok)
            continue;
        ++ok;
        ASSERT_GE(r.latencyUs, r.queueWaitUs) << "request " << r.id;
        // Requests are admitted on arrival, so arrival + latency is
        // the completion instant; it must not have wrapped.
        EXPECT_LE(r.latencyUs, UINT64_MAX - trace[i].arrivalUs)
            << "request " << r.id;
        // So every tile completes at the far end of virtual time.
        EXPECT_GE(trace[i].arrivalUs + r.latencyUs, UINT64_MAX / 2)
            << "request " << r.id;
    }
    EXPECT_EQ(ok, run.summary.completed);
    EXPECT_GT(ok, 8u);
}

void
expectRel(double got, double want, const char *what)
{
    EXPECT_NEAR(got, want, 1e-6 * std::abs(want)) << what;
}

TEST(Serve, GoldenTraceMatchesCommittedBaseline)
{
    // The near-saturation reference scenario: ~150 req/s of mean ~24.5
    // tokens against the 4000 tok/s virtual server with 4x bursts, so
    // both shed paths fire. Everything below is a pure function of
    // (trace, options, kernel tier); the tier and tile width are pinned
    // so the golden holds under every GOBO_KERNEL/GOBO_THREADS cell,
    // while the thread count is left to the environment.
    auto spec = parseTraceSpec(
        "n=2000,seed=42,rate=150,len=1:64,long=0.25,burst=4x0.2,"
        "period=200000");
    ASSERT_TRUE(spec.has_value());
    auto trace = generateTrace(*spec, testModel().config().vocabSize);

    ModelQuantOptions qopt; // 3-bit GOBO FCs, 4-bit embedding
    qopt.base.bits = 3;
    qopt.base.method = CentroidMethod::Gobo;
    qopt.embeddingBits = 4;
    ExecContext ctx = ExecContext::parallel();
    ctx.kernels = &genericKernels();
    InferenceSession session(QuantizedBertModel(testModel(), qopt), ctx);

    ServeOptions opt;
    opt.maxQueue = 24;
    opt.requestDeadlineUs = 150000;
    opt.tileLanes = 8;
    ServeServer server(session, opt);
    const ServeSummary sum = server.runTrace(trace).summary;

    EXPECT_EQ(sum.requests, 2000u);
    EXPECT_EQ(sum.completed, 1400u);
    EXPECT_EQ(sum.shedOverload, 483u);
    EXPECT_EQ(sum.shedDeadline, 117u);
    EXPECT_EQ(sum.batches, 676u);
    EXPECT_EQ(sum.lanesFilled, 1400u);
    EXPECT_EQ(sum.lanesTotal, 5408u);
    EXPECT_EQ(sum.tokensServed, 34673u);
    expectRel(sum.tileOccupancy, 0.2588757396, "tile_occupancy");

    const ServeBandStats bands[] = {
        {0, 1, 16, 528, 220, 0.3},
        {1, 17, 32, 524, 231, 0.2835497835},
        {2, 33, 48, 163, 108, 0.1886574074},
        {3, 49, 64, 185, 117, 0.1976495726},
    };
    ASSERT_EQ(sum.bands.size(), std::size(bands));
    for (std::size_t i = 0; i < std::size(bands); ++i) {
        SCOPED_TRACE("band " + std::to_string(i));
        EXPECT_EQ(sum.bands[i].band, bands[i].band);
        EXPECT_EQ(sum.bands[i].minLen, bands[i].minLen);
        EXPECT_EQ(sum.bands[i].maxLen, bands[i].maxLen);
        EXPECT_EQ(sum.bands[i].requests, bands[i].requests);
        EXPECT_EQ(sum.bands[i].batches, bands[i].batches);
        expectRel(sum.bands[i].occupancy, bands[i].occupancy,
                  "occupancy");
    }

    expectRel(sum.latencyP50Us, 126153.3154, "latency p50");
    expectRel(sum.latencyP95Us, 163618.9333, "latency p95");
    expectRel(sum.latencyP99Us, 192344.7719, "latency p99");
    expectRel(sum.queueWaitP50Us, 109671.922, "queue wait p50");
    expectRel(sum.queueWaitP95Us, 152452.8789, "queue wait p95");
    expectRel(sum.queueWaitP99Us, 157282.0312, "queue wait p99");

    EXPECT_EQ(sum.responseChecksum, 0x222885aa6566de3fULL);
}

TEST(Serve, JsonReportIsWellFormed)
{
    auto spec = stressSpec();
    spec.requests = 32;
    auto trace = generateTrace(spec, testModel().config().vocabSize);
    InferenceSession session = makeSession(false);
    ServeOptions opt;
    ServeServer server(session, opt);
    ServeRun run = server.runTrace(trace);

    ServeReportMeta meta;
    meta.trace = traceSpecString(spec);
    meta.kernelTier = "generic";
    meta.threads = 1;
    meta.engine = "qexec";
    std::ostringstream os;
    writeServeJson(run.summary, opt, meta, os);
    std::string json = os.str();
    EXPECT_NE(json.find("\"trace\": \"n=32,"), std::string::npos);
    EXPECT_NE(json.find("\"response_checksum\": \"0x"),
              std::string::npos);
    EXPECT_NE(json.find("\"tile_occupancy\""), std::string::npos);
    EXPECT_EQ(json.find("nan"), std::string::npos);
    int braces = 0, brackets = 0;
    for (char c : json) {
        braces += c == '{' ? 1 : c == '}' ? -1 : 0;
        brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
}

} // namespace
} // namespace gobo
