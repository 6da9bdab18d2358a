// Batched serving with InferenceSession.
//
// Shows the execution stack end to end: build a mini BERT-Base, stand
// up one session per (engine, backend) combination, and push the same
// batch of sequences through all of them. The parallel backend is
// bit-identical to serial — the program checks the logits match
// exactly — so the throughput difference is pure scheduling.
//
// Per-batch wall times feed the obs latency histogram, so each engine
// reports tail latency (p50/p95/p99) next to its throughput — the
// serving-oriented view the paper's latency claims are about.
//
// Run: ./serve_batch [threads]

#include <cstdio>
#include <cstdlib>

#include "core/qexec.hh"
#include "exec/session.hh"
#include "exec/threadpool.hh"
#include "model/generate.hh"
#include "obs/metrics.hh"
#include "util/rng.hh"
#include "util/timer.hh"

using namespace gobo;

namespace {

/** Throughput plus the latency distribution behind it. */
struct ServeStats
{
    double tokensPerSec = 0.0;
    HistogramSnapshot latency;
};

ServeStats
serve(const InferenceSession &session, const TokenBatch &batch,
      std::size_t reps)
{
    session.headLogitsBatch(batch); // warm-up, excluded from stats

    MetricsRegistry reg;
    HistogramId h = reg.histogram("batch_latency_us",
                                  latencyBoundsUs());
    WallTimer total;
    for (std::size_t r = 0; r < reps; ++r) {
        WallTimer t;
        session.headLogitsBatch(batch);
        reg.observe(h, t.seconds() * 1e6);
    }
    ServeStats s;
    // batchTokens sums actual per-sequence lengths; batch.size() *
    // batch[0].size() over-counts as soon as lengths are mixed.
    s.tokensPerSec = static_cast<double>(reps * batchTokens(batch))
                     / total.seconds();
    auto snap = reg.snapshot();
    s.latency = *snap.findHistogram("batch_latency_us");
    return s;
}

void
printStats(const char *label, const ServeStats &s)
{
    std::printf("%s %8.0f tokens/sec   batch p50 %6.1f ms"
                "  p95 %6.1f ms  p99 %6.1f ms\n",
                label, s.tokensPerSec,
                s.latency.quantile(0.50) / 1e3,
                s.latency.quantile(0.95) / 1e3,
                s.latency.quantile(0.99) / 1e3);
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t threads = defaultThreads();
    if (argc > 1) {
        auto parsed = parseThreadsSpec(argv[1]);
        if (!parsed) {
            std::fprintf(stderr,
                         "serve_batch: invalid thread count '%s' "
                         "(want a positive integer <= 65536)\n",
                         argv[1]);
            return 1;
        }
        threads = *parsed;
    }

    auto cfg = miniConfig(ModelFamily::BertBase);
    BertModel model = generateModel(cfg, 42);

    // A batch of 16 random 32-token "requests".
    Rng rng(7);
    // generateModel leaves the task head zeroed; fill it so the
    // bit-identity check compares real logits.
    model.resizeHead(3);
    rng.fillGaussian(model.headW.data(), 0.0, 0.5);
    rng.fillGaussian(model.headB.data(), 0.0, 0.5);
    TokenBatch batch;
    for (int s = 0; s < 16; ++s) {
        std::vector<std::int32_t> seq;
        for (int t = 0; t < 32; ++t)
            seq.push_back(static_cast<std::int32_t>(
                rng.integer(0, static_cast<int>(cfg.vocabSize) - 1)));
        batch.push_back(std::move(seq));
    }

    InferenceSession serial(model, ExecContext::serial());
    InferenceSession parallel(model, ExecContext::parallel(threads));

    // Determinism contract: backends agree bit for bit.
    auto a = serial.headLogitsBatch(batch);
    auto b = parallel.headLogitsBatch(batch);
    bool identical = true;
    for (std::size_t i = 0; i < batch.size(); ++i)
        for (std::size_t j = 0; j < a[i].size(); ++j)
            identical &= a[i](j) == b[i](j);
    std::printf("serial == parallel logits: %s\n",
                identical ? "bit-identical" : "MISMATCH");

    constexpr std::size_t reps = 8;
    ServeStats st = serve(serial, batch, reps);
    ServeStats pt = serve(parallel, batch, reps);
    printStats("fp32  serial:  ", st);
    printStats("fp32  parallel:", pt);
    std::printf("                (%zu threads, %.2fx serial)\n",
                threads, pt.tokensPerSec / st.tokensPerSec);

    // The compressed-domain engine serves from the GOBO format
    // directly — same session API, no decode step up front. Only the
    // 3-bit index stream stays resident; rows are decoded on the fly.
    ModelQuantOptions qopt;
    qopt.base.bits = 3;
    qopt.threads = threads;
    InferenceSession packed(QuantizedBertModel(model, qopt),
                            ExecContext::parallel(threads));

    ServeStats qt = serve(packed, batch, reps);
    printStats("qexec packed:  ", qt);
    std::printf("                (3-bit weights, resident %zu /"
                " %zu KiB fp32)\n",
                packed.residentWeightBytes() / 1024,
                serial.residentWeightBytes() / 1024);
    return 0;
}
