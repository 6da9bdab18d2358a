/**
 * @file
 * Tests for the hardware-counter telemetry layer (obs/pmu.hh): the
 * deterministic fake backend, the GOBO_PMU grammar, registry
 * snapshots and derived metrics, span PMU annotation and per-name
 * aggregation, metrics-export folding, and the two load-bearing
 * contracts — logits are bit-identical with PMU on or off, and the
 * audit's modeled-vs-measured pillar stays finite and well-formed.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "exec/session.hh"
#include "jsonlint.hh"
#include "model/generate.hh"
#include "obs/audit.hh"
#include "obs/export.hh"
#include "obs/observer.hh"
#include "obs/pmu.hh"
#include "util/rng.hh"

namespace gobo {
namespace {

// The fake backend's documented per-read increments; every derived
// assertion below follows from these.
constexpr std::uint64_t kCycles = 1000;
constexpr std::uint64_t kInstructions = 1500;
constexpr std::uint64_t kReferences = 100;
constexpr std::uint64_t kMisses = 10;
constexpr std::uint64_t kStalled = 200;

TEST(PmuModeTest, SpecGrammar)
{
    EXPECT_EQ(pmuModeFromSpec(nullptr), PmuMode::Probe);
    EXPECT_EQ(pmuModeFromSpec(""), PmuMode::Probe);
    EXPECT_EQ(pmuModeFromSpec("off"), PmuMode::Off);
    EXPECT_EQ(pmuModeFromSpec("0"), PmuMode::Off);
    EXPECT_EQ(pmuModeFromSpec("disabled"), PmuMode::Off);
    EXPECT_EQ(pmuModeFromSpec("fake"), PmuMode::Fake);
    // Anything unrecognized probes: the env var can never brick a run.
    EXPECT_EQ(pmuModeFromSpec("linux"), PmuMode::Probe);
    EXPECT_EQ(pmuModeFromSpec("ON"), PmuMode::Probe);
}

TEST(FakePmuBackendTest, DeterministicDeltasPerHandle)
{
    FakePmuSource be;
    int h = be.openGroup(0);
    ASSERT_GE(h, 0);

    PmuSample a = be.readGroup(h);
    PmuSample b = be.readGroup(h);
    ASSERT_TRUE(a.valid);
    ASSERT_TRUE(b.valid);
    PmuSample d = b.since(a);
    ASSERT_TRUE(d.valid);
    EXPECT_EQ(d.cycles, kCycles);
    EXPECT_EQ(d.instructions, kInstructions);
    EXPECT_EQ(d.llcReferences, kReferences);
    EXPECT_EQ(d.llcMisses, kMisses);
    EXPECT_EQ(d.stalledBackend, kStalled);

    // A second handle ticks independently of the first.
    int h2 = be.openGroup(42);
    ASSERT_GE(h2, 0);
    PmuSample first2 = be.readGroup(h2);
    EXPECT_EQ(first2.cycles, kCycles);

    be.closeGroup(h);
    be.closeGroup(h2);
    // Reading a closed handle is invalid, not a crash.
    EXPECT_FALSE(be.readGroup(h).valid);
}

TEST(PmuSampleTest, SinceRequiresBothSamplesValid)
{
    PmuSample valid;
    valid.valid = true;
    valid.cycles = 100;
    PmuSample invalid;

    EXPECT_FALSE(valid.since(invalid).valid);
    EXPECT_FALSE(invalid.since(valid).valid);
    EXPECT_FALSE(invalid.since(invalid).valid);
    EXPECT_TRUE(valid.since(valid).valid);
    EXPECT_EQ(valid.since(valid).cycles, 0u);
}

TEST(PmuGroupTest, RaiiAndMoveTransferOwnership)
{
    FakePmuSource be;
    PmuGroup g(be, 0);
    ASSERT_TRUE(g.ok());
    EXPECT_TRUE(g.sample().valid);

    PmuGroup moved(std::move(g));
    EXPECT_TRUE(moved.ok());
    EXPECT_FALSE(g.ok()); // NOLINT(bugprone-use-after-move): contract
    EXPECT_FALSE(g.sample().valid);
    EXPECT_TRUE(moved.sample().valid);

    PmuGroup empty;
    EXPECT_FALSE(empty.ok());
    EXPECT_FALSE(empty.sample().valid);
}

TEST(PmuRegistryTest, FakeSnapshotHasExactDerivedMetrics)
{
    FakePmuSource be;
    PmuRegistry reg(be);
    ASSERT_TRUE(reg.available());
    EXPECT_STREQ(reg.sourceName(), "fake");

    // First call opens the calling thread's group and stores the
    // baseline; subsequent reads advance the fake tick.
    ASSERT_TRUE(reg.threadSample().valid);
    reg.threadSample();
    reg.threadSample();

    PmuSnapshot snap = reg.snapshot();
    EXPECT_TRUE(snap.available);
    EXPECT_EQ(snap.backend, "fake");
    ASSERT_TRUE(snap.total.valid);
    EXPECT_GT(snap.total.cycles, 0u);
    // The fake ratios are machine-independent by construction.
    EXPECT_DOUBLE_EQ(snap.ipc(), 1.5);
    EXPECT_DOUBLE_EQ(snap.llcMissRatio(), 0.1);
    EXPECT_GE(snap.llcMissGBps(), 0.0);
}

TEST(PmuRegistryTest, AttachWorkersMonitorsEachTid)
{
    FakePmuSource be;
    PmuRegistry reg(be);
    reg.attachWorkers({101, 102, 0, 103}); // tid 0 = no gettid: skipped

    PmuSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.workers.size(), 3u);
    for (const auto &w : snap.workers)
        EXPECT_TRUE(w.sample.valid);

    // Re-attaching replaces the previous worker set, not appends.
    reg.attachWorkers({201});
    EXPECT_EQ(reg.snapshot().workers.size(), 1u);
}

TEST(PmuRegistryTest, UnavailableSnapshotNeverDividesByZero)
{
    PmuSnapshot snap; // available=false, zero totals
    EXPECT_DOUBLE_EQ(snap.ipc(), 0.0);
    EXPECT_DOUBLE_EQ(snap.llcMissRatio(), 0.0);
    EXPECT_DOUBLE_EQ(snap.llcMissGBps(), 0.0);
}

TEST(PmuSpanTest, SpansCarryDeltasAndSummarizeByName)
{
    FakePmuSource be;
    PmuRegistry reg(be);
    Observer obs;
    obs.pmu = &reg;

    { ScopedSpan s(&obs, "alpha"); }
    { ScopedSpan s(&obs, "alpha"); }
    { ScopedSpan s(&obs, "beta"); }

    auto sums = summarizePmuSpans(obs.tracer);
    ASSERT_EQ(sums.size(), 2u);
    // Sorted by LLC misses descending: alpha folded two spans.
    EXPECT_EQ(sums[0].name, "alpha");
    EXPECT_EQ(sums[0].count, 2u);
    EXPECT_EQ(sums[0].llcMisses, 2 * kMisses);
    EXPECT_EQ(sums[0].instructions, 2 * kInstructions);
    EXPECT_EQ(sums[0].cycles, 2 * kCycles);
    EXPECT_EQ(sums[1].name, "beta");
    EXPECT_EQ(sums[1].llcMisses, kMisses);

    // Spans traced without a PMU registry carry no args and are
    // invisible to the PMU aggregation (but still traced normally).
    Observer plain;
    { ScopedSpan s(&plain, "gamma"); }
    EXPECT_TRUE(summarizePmuSpans(plain.tracer).empty());
    EXPECT_EQ(summarizeSpans(plain.tracer).size(), 1u);
}

TEST(PmuMetricsTest, AppendPmuMetricsFoldsCountersAndGauges)
{
    FakePmuSource be;
    PmuRegistry reg(be);
    reg.threadSample();
    reg.threadSample();
    reg.attachWorkers({7});

    MetricsSnapshot snap;
    appendPmuMetrics(snap, reg.snapshot());

    ASSERT_NE(snap.findGauge("pmu.available"), nullptr);
    EXPECT_DOUBLE_EQ(snap.findGauge("pmu.available")->value, 1.0);
    ASSERT_NE(snap.findCounter("pmu.cycles"), nullptr);
    ASSERT_NE(snap.findCounter("pmu.llc_misses"), nullptr);
    ASSERT_NE(snap.findCounter("pmu.worker[0].llc_misses"), nullptr);
    ASSERT_NE(snap.findGauge("pmu.ipc"), nullptr);
    EXPECT_DOUBLE_EQ(snap.findGauge("pmu.ipc")->value, 1.5);
    ASSERT_NE(snap.findGauge("pmu.llc_miss_ratio"), nullptr);
    EXPECT_DOUBLE_EQ(snap.findGauge("pmu.llc_miss_ratio")->value, 0.1);
    ASSERT_NE(snap.findGauge("pmu.llc_miss_gbps"), nullptr);
}

TEST(PmuMetricsTest, UnavailableBackendAppendsOnlyAvailabilityGauge)
{
    MetricsSnapshot snap;
    appendPmuMetrics(snap, PmuSnapshot{});
    ASSERT_NE(snap.findGauge("pmu.available"), nullptr);
    EXPECT_DOUBLE_EQ(snap.findGauge("pmu.available")->value, 0.0);
    EXPECT_EQ(snap.findCounter("pmu.cycles"), nullptr);
    EXPECT_EQ(snap.findGauge("pmu.ipc"), nullptr);
}

/** Mini model with a live head, like the audit tests use. */
class PmuModelFixture : public ::testing::Test
{
  protected:
    PmuModelFixture()
        : model(generateModel(miniConfig(ModelFamily::BertBase), 11))
    {
        model.resizeHead(3);
        Rng rng(23);
        rng.fillGaussian(model.headW.data(), 0.0, 0.5);
        rng.fillGaussian(model.headB.data(), 0.0, 0.5);
        for (int s = 0; s < 2; ++s) {
            std::vector<std::int32_t> seq;
            for (int t = 0; t < 8; ++t)
                seq.push_back(static_cast<std::int32_t>(rng.integer(
                    0,
                    static_cast<int>(model.config().vocabSize) - 1)));
            batch.push_back(std::move(seq));
        }
    }

    BertModel model;
    TokenBatch batch;
};

TEST_F(PmuModelFixture, LogitsBitIdenticalWithPmuOnOrOff)
{
    // The determinism contract: PMU sampling only *reads* counters
    // around compute, so an instrumented run must reproduce an
    // uninstrumented run bit for bit, on every backend.
    ModelQuantOptions qopt;
    qopt.base.bits = 3;
    InferenceSession plain(QuantizedBertModel(model, qopt),
                           ExecContext::serial());
    auto expected = plain.headLogitsBatch(batch);

    FakePmuSource be;
    PmuRegistry reg(be);
    for (bool parallel : {false, true}) {
        Observer obs;
        obs.pmu = &reg;
        ExecContext ctx = parallel ? ExecContext::parallel(4)
                                   : ExecContext::serial();
        ctx.obs = &obs;
        InferenceSession session(QuantizedBertModel(model, qopt), ctx);
        auto got = session.headLogitsBatch(batch);
        ASSERT_EQ(got.size(), expected.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i].size(), expected[i].size());
            for (std::size_t j = 0; j < got[i].size(); ++j)
                EXPECT_EQ(got[i](j), expected[i](j))
                    << "parallel=" << parallel << " [" << i << "]["
                    << j << "]";
        }
        // And the instrumentation really ran: spans carried deltas.
        EXPECT_FALSE(summarizePmuSpans(obs.tracer).empty());
    }
}

TEST_F(PmuModelFixture, AuditPillarFourIsFinitePerLayer)
{
    FakePmuSource be;
    PmuRegistry reg(be);

    AuditOptions opt;
    opt.quant.base.bits = 3;
    opt.sequences = 2;
    opt.seqLen = 8;
    opt.seed = 9;
    opt.pmu = &reg;

    AuditReport r = auditModel(model, opt);
    EXPECT_TRUE(r.pmuAvailable);
    EXPECT_EQ(r.pmuBackend, "fake");
    EXPECT_GT(r.pmuCacheLineBytes, 0u);
    ASSERT_EQ(r.pmuValidation.size(), r.traffic.size());
    for (std::size_t i = 0; i < r.pmuValidation.size(); ++i) {
        const auto &v = r.pmuValidation[i];
        EXPECT_EQ(v.layer, r.traffic[i].layer);
        EXPECT_GT(v.spans, 0u) << v.layer;
        EXPECT_GT(v.measuredBytes, 0u) << v.layer;
        EXPECT_EQ(v.modeledBytes, r.traffic[i].bytesStreamed);
        EXPECT_TRUE(std::isfinite(v.modeledOverMeasured)) << v.layer;
        EXPECT_GT(v.modeledOverMeasured, 0.0) << v.layer;
    }

    std::ostringstream js;
    writeAuditJson(r, js);
    std::string json = js.str();
    EXPECT_TRUE(jsonValid(json)) << json.substr(0, 400);
    EXPECT_NE(json.find("\"schema\": \"gobo-audit-v2\""),
              std::string::npos);
    EXPECT_NE(json.find("\"pmu\""), std::string::npos);
    EXPECT_NE(json.find("\"modeled_over_measured\""), std::string::npos);

    std::ostringstream console;
    printAuditReport(r, console);
    EXPECT_NE(console.str().find("model validation"), std::string::npos);
}

TEST_F(PmuModelFixture, AuditWithoutPmuKeepsV1BlocksAndRecordsAbsence)
{
    AuditOptions opt;
    opt.quant.base.bits = 3;
    opt.sequences = 1;
    opt.seqLen = 6;

    AuditReport r = auditModel(model, opt);
    EXPECT_FALSE(r.pmuAvailable);
    EXPECT_TRUE(r.pmuValidation.empty());

    std::ostringstream js;
    writeAuditJson(r, js);
    std::string json = js.str();
    EXPECT_TRUE(jsonValid(json)) << json.substr(0, 400);
    // v2 is a superset: every v1 block still present, and the pmu
    // block records that counters were off rather than vanishing.
    EXPECT_NE(json.find("\"fidelity\""), std::string::npos);
    EXPECT_NE(json.find("\"divergence\""), std::string::npos);
    EXPECT_NE(json.find("\"attribution\""), std::string::npos);
    EXPECT_NE(json.find("\"available\": false"), std::string::npos);
}

} // namespace
} // namespace gobo
