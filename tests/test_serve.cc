/**
 * @file
 * Tests for the serving layer (src/serve): load-generator determinism
 * and spec grammar, batch-forming bit-identity against one-at-a-time
 * serial replay, queue drain on shutdown (every request answered
 * exactly once), explicit overload/deadline shedding, tile occupancy
 * accounting, and checksum stability across backends — the
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

/** One timeline window of the committed serve golden: counts are
 * exact, the rates/quantiles are gated at 1e-6 relative. */
struct GoldenWindow
{
    std::uint64_t arrivals, admitted, completed, shedOverload,
        shedDeadline, batches, lanesFilled, lanesTotal, tokens;
    double tokensPerSec, meanQueueDepth, occupancy, queueWaitP50Us,
        queueWaitP99Us;
};

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

    const GoldenWindow windows[] = {
        {221, 172, 145, 49, 4, 71, 149, 568, 3819, 3819, 20.205524,
         0.2623239437, 107508.8369, 157211.8779},
        {239, 171, 173, 68, 11, 83, 170, 664, 3962, 3962, 21.272903,
         0.2560240964, 110471.2483, 157263.3969},
        {235, 175, 152, 60, 17, 73, 152, 584, 3945, 3945, 22.565174,
         0.2602739726, 113981.9722, 157554.4683},
        {215, 170, 158, 45, 14, 78, 159, 624, 3920, 3920, 21.596272,
         0.2548076923, 111143.6253, 156974.5278},
        {232, 175, 159, 57, 5, 79, 160, 632, 3896, 3896, 21.389653,
         0.253164557, 108029.9653, 156416.1642},
        {198, 171, 174, 27, 7, 80, 173, 640, 3925, 3925, 18.176959,
         0.2703125, 90321.32869, 156126.0528},
        {245, 174, 145, 71, 19, 73, 144, 584, 3959, 3959, 24.108218,
         0.2465753425, 122284.5641, 157750.7985},
        {239, 179, 176, 60, 8, 83, 178, 664, 3964, 3964, 19.730345,
         0.2680722892, 99336.54269, 156850.167},
        {176, 130, 118, 46, 32, 56, 115, 448, 3283, 3283, 20.266193,
         0.2566964286, 126435.8208, 157848.2493},
    };
    EXPECT_EQ(sum.timeline.windowUs, 1000000u);
    EXPECT_FALSE(sum.timeline.clamped);
    ASSERT_EQ(sum.timeline.windows.size(), std::size(windows));
    for (std::size_t i = 0; i < std::size(windows); ++i) {
        SCOPED_TRACE("window " + std::to_string(i));
        const TimelineWindow &got = sum.timeline.windows[i];
        const GoldenWindow &want = windows[i];
        EXPECT_EQ(got.index, i);
        EXPECT_EQ(got.startUs, i * 1000000u);
        EXPECT_EQ(got.arrivals, want.arrivals);
        EXPECT_EQ(got.admitted, want.admitted);
        EXPECT_EQ(got.completed, want.completed);
        EXPECT_EQ(got.shedOverload, want.shedOverload);
        EXPECT_EQ(got.shedDeadline, want.shedDeadline);
        EXPECT_EQ(got.batches, want.batches);
        EXPECT_EQ(got.lanesFilled, want.lanesFilled);
        EXPECT_EQ(got.lanesTotal, want.lanesTotal);
        EXPECT_EQ(got.tokens, want.tokens);
        expectRel(got.tokensPerSec, want.tokensPerSec, "tokens/s");
        expectRel(got.meanQueueDepth, want.meanQueueDepth,
                  "mean queue depth");
        expectRel(got.occupancy, want.occupancy, "occupancy");
        expectRel(got.queueWaitP50Us, want.queueWaitP50Us,
                  "queue wait p50");
        expectRel(got.queueWaitP99Us, want.queueWaitP99Us,
                  "queue wait p99");
    }

    EXPECT_EQ(sum.responseChecksum, 0xe20da9a2962f43cfULL);
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
