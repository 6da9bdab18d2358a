/**
 * @file
 * One parameterized strict-JSON gate over every machine-readable
 * document the repo writes: the serve report (`gobo serve --json`), the
 * standalone gobo-timeline-v1 document, the gobo-audit-v2 report
 * (with and without the pmu pillar), and the --metrics-json snapshot.
 * Each case renders a document through the *real* writer — synthetic
 * inputs where the structs are plain data, a miniature end-to-end run
 * where they are not — and validates it with tests/jsonlint.hh, so a
 * writer that emits a bare `nan`, an unescaped byte, or an unbalanced
 * bracket fails here instead of in a downstream consumer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "core/qexec.hh"
#include "exec/session.hh"
#include "jsonlint.hh"
#include "model/generate.hh"
#include "obs/audit.hh"
#include "obs/export.hh"
#include "obs/pmu.hh"
#include "serve/loadgen.hh"
#include "serve/server.hh"
#include "util/rng.hh"

namespace gobo {
namespace {

const BertModel &
testModel()
{
    static const BertModel model = [] {
        BertModel m =
            generateModel(miniConfig(ModelFamily::BertBase), 42);
        Rng rng(42 * 31 + 5);
        m.resizeHead(3);
        rng.fillGaussian(m.headW.data(), 0.0, 0.5);
        rng.fillGaussian(m.headB.data(), 0.0, 0.5);
        return m;
    }();
    return model;
}

/** One near-saturation serve run shared by the serve/timeline cases
 * (sheds + deadline drops populate every nullable field once). */
const ServeRun &
serveRun()
{
    static const ServeRun run = [] {
        auto spec = parseTraceSpec(
            "n=120,seed=7,rate=400,len=1:64,long=0.25,burst=6x0.3,"
            "period=50000");
        EXPECT_TRUE(spec.has_value());
        auto trace =
            generateTrace(*spec, testModel().config().vocabSize);
        ModelQuantOptions qopt;
        qopt.base.bits = 3;
        InferenceSession session(QuantizedBertModel(testModel(), qopt),
                                 ExecContext::serial());
        ServeOptions opt;
        opt.maxQueue = 8;
        opt.requestDeadlineUs = 30000;
        opt.timelineWindowUs = 50000;
        ServeServer server(session, opt);
        return server.runTrace(trace);
    }();
    return run;
}

ServeOptions
serveOptions()
{
    ServeOptions opt;
    opt.maxQueue = 8;
    opt.requestDeadlineUs = 30000;
    opt.timelineWindowUs = 50000;
    return opt;
}

ServeReportMeta
serveMeta()
{
    ServeReportMeta meta;
    meta.trace = "n=120,seed=7";
    meta.kernelTier = "generic";
    meta.threads = 1;
    meta.engine = "qexec";
    return meta;
}

std::string
renderServe()
{
    std::ostringstream os;
    writeServeJson(serveRun().summary, serveOptions(), serveMeta(), os);
    return os.str();
}

std::string
renderTimeline()
{
    std::ostringstream os;
    writeTimelineJson(serveRun(), serveOptions(), serveMeta(), os);
    return os.str();
}

AuditReport
auditReport(PmuRegistry *pmu)
{
    AuditOptions opt;
    opt.quant.base.bits = 3;
    opt.sequences = 1;
    opt.seqLen = 6;
    opt.pmu = pmu;
    return auditModel(testModel(), opt);
}

std::string
renderAudit()
{
    std::ostringstream os;
    writeAuditJson(auditReport(nullptr), os);
    return os.str();
}

std::string
renderAuditWithPmu()
{
    static FakePmuSource backend;
    PmuRegistry reg(backend);
    std::ostringstream os;
    writeAuditJson(auditReport(&reg), os);
    return os.str();
}

std::string
renderMetrics()
{
    MetricsSnapshot snap;
    snap.counters.push_back({"qexec.layer.enc[0].query.forwards", 4});
    snap.counters.push_back({"pmu.llc_misses", 1234});
    snap.gauges.push_back({"pmu.available", 1.0});
    snap.gauges.push_back({"pmu.ipc", 1.5});
    // A non-finite gauge must render as null, never as a nan token.
    snap.gauges.push_back({"hostile.gauge", std::nan("")});
    HistogramSnapshot h;
    h.name = "serve.latency_us";
    h.bounds = {10.0, 100.0};
    h.counts = {1, 2, 3};
    h.count = 6;
    h.sum = 420.0;
    snap.histograms.push_back(std::move(h));
    std::ostringstream os;
    writeMetricsJson(snap, os);
    return os.str();
}

struct WriterCase
{
    const char *name;
    std::string (*render)();
};

const WriterCase kCases[] = {
    {"serve", renderServe},
    {"timeline", renderTimeline},
    {"audit", renderAudit},
    {"audit_pmu", renderAuditWithPmu},
    {"metrics", renderMetrics},
};

// Print a case as its name. The test then lists as
// ".../WriterEmitsStrictJson/<name>", not as the raw bytes of two
// pointers, which change with every load address.
void
PrintTo(const WriterCase &c, std::ostream *os)
{
    *os << c.name;
}

class JsonOutputs : public ::testing::TestWithParam<WriterCase>
{
};

TEST_P(JsonOutputs, WriterEmitsStrictJson)
{
    std::string doc = GetParam().render();
    ASSERT_FALSE(doc.empty());
    EXPECT_TRUE(jsonValid(doc)) << doc.substr(0, 400);
    // Belt and suspenders on top of the grammar: non-finite floats
    // must have been rewritten as null by the writers.
    EXPECT_EQ(doc.find("nan"), std::string::npos);
    EXPECT_EQ(doc.find("inf"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(AllWriters, JsonOutputs,
                         ::testing::ValuesIn(kCases));

} // namespace
} // namespace gobo
