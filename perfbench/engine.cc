/**
 * @file
 * The serving benchmark's measuring half (run.py is the other half:
 * it builds this program, runs it, checks the outputs it dumps and
 * turns its raw samples into metrics).
 *
 *   perfbench_engine --workload short-single|long-batch|serve-mixed
 *                    --seed N --seconds S --trace 0|1
 *                    --models DIR --out RAW.json
 *
 * Everything runs through the public API with shipped defaults: the
 * packed 3-bit QuantizedBertModel behind an InferenceSession on
 * ExecContext::parallel() is the engine under test, and the FP32
 * BertModel session on the same inputs is the reference. The model is
 * full-width DistilBERT generated from the seed, with a nonzero task
 * head so logit checks compare real numbers.
 *
 * --trace 0 takes the end-to-end samples (set-up times, per-request
 * latencies, tokens, RSS) with no observer anywhere on the compute
 * path; the packed and FP32 engines take turns on the same requests.
 * --trace 1 is a separate pass: it replays a seeded sample of the
 * workload's requests one public call at a time under the benchmark's
 * own timers, and records pool / scratch / serve counter deltas.
 *
 * The raw file holds samples and every logit (as hex floats, so run.py
 * can compare bits); this program decides nothing about correctness.
 */

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/qexec.hh"
#include "core/quantizer.hh"
#include "exec/context.hh"
#include "exec/scratch.hh"
#include "exec/session.hh"
#include "exec/threadpool.hh"
#include "kernels/kernels.hh"
#include "model/config.hh"
#include "model/generate.hh"
#include "model/serialize.hh"
#include "nn/encoder.hh"
#include "obs/observer.hh"
#include "serve/loadgen.hh"
#include "serve/server.hh"
#include "tensor/ops.hh"
#include "util/rng.hh"
#include "util/timer.hh"

extern char **environ;

namespace {

using namespace gobo;

constexpr std::size_t kHeadOutputs = 3;
/**
 * generateModel seed of the weights, the same in every run: generating
 * full-width DistilBERT takes ~6 s, too long to repeat per run, and the
 * weights barely move the timings. --seed draws the head and requests.
 */
constexpr std::uint64_t kWeightSeed = 2020;
/** Set-ups per --trace 0 run; setup_s is their median. */
constexpr int kSetupRepeats = 2;
/** short-single must hold this many requests so that its p95 has at
 * least ten samples beyond it. */
constexpr std::size_t kMinShortRequests = 200;
/** short-single requests per turn of each engine in the timed phase
 * (two length permutations, so every turn carries the same tokens). */
constexpr std::size_t kShortBlock = 16;
/** Requests per generated serve-mixed trace chunk. */
constexpr std::size_t kServeChunk = 16;
/** serve-mixed runs at least this many chunks, so every run's latency
 * percentiles come from at least the same 64 requests and tiles. */
constexpr std::size_t kMinServeChunks = 4;
constexpr const char *kServeSpec =
    "rate=300,len=1:64,long=0.25,burst=4x0.2";

// ---------------------------------------------------------------------
// Small utilities.

/** Progress line on stderr, stamped with seconds since start. */
void
note(const std::string &what)
{
    static const WallTimer start;
    std::cerr << "perfbench_engine: " << start.seconds() << " s: " << what
              << "\n";
}

[[noreturn]] void
die(const std::string &msg)
{
    std::cerr << "perfbench_engine: " << msg << "\n";
    std::exit(2);
}

std::string
hexFloat(float v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", static_cast<double>(v));
    return buf;
}

std::string
jsonLogits(const Tensor &t)
{
    std::string s = "[";
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (i)
            s += ",";
        s += "\"" + hexFloat(t.flat()[i]) + "\"";
    }
    return s + "]";
}

std::string
jsonNumbers(const std::vector<double> &xs)
{
    std::ostringstream os;
    os.precision(17);
    os << "[";
    for (std::size_t i = 0; i < xs.size(); ++i)
        os << (i ? "," : "") << xs[i];
    os << "]";
    return os.str();
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

/** Resident set size in bytes, from /proc/self/statm. */
std::uint64_t
rssBytes()
{
    std::ifstream f("/proc/self/statm");
    std::uint64_t size = 0, resident = 0;
    f >> size >> resident;
    return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

/** FNV-1a digest of a file's bytes, as 16 hex digits. */
std::string
fileDigest(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    std::vector<char> buf(1 << 20);
    while (f) {
        f.read(buf.data(), static_cast<std::streamsize>(buf.size()));
        std::streamsize got = f.gcount();
        for (std::streamsize i = 0; i < got; ++i) {
            h ^= static_cast<unsigned char>(buf[static_cast<std::size_t>(i)]);
            h *= 0x100000001b3ULL;
        }
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(h));
    return hex;
}

// ---------------------------------------------------------------------
// Inputs: the task head and every workload's requests come from the
// seed; the weights are fixed (kWeightSeed).

ModelConfig
benchConfig()
{
    return fullConfig(ModelFamily::DistilBert);
}

/**
 * Write the run's model to `dir`/model.gobm and return that path. The
 * weights are generateModel(kWeightSeed), generated once (~6 s) into
 * `dir`/weights.gobm and reused while its FNV-1a digest matches the
 * sidecar written with it; `seed` draws the 3-class task head, which
 * generateModel leaves at zero.
 */
std::string
writeModel(const std::string &dir, std::uint64_t seed)
{
    const std::string weights = dir + "/weights.gobm";
    const std::string digest = weights + ".fnv";
    std::string want;
    if (!(std::ifstream(digest) >> want)
        || !std::filesystem::exists(weights)
        || want != fileDigest(weights)) {
        note("generating the weights");
        std::filesystem::remove(digest);
        saveModel(weights, generateModel(benchConfig(), kWeightSeed));
        std::ofstream(digest) << fileDigest(weights) << "\n";
    }
    BertModel m = loadModel(weights);
    m.resizeHead(kHeadOutputs);
    Rng rng(mix64(seed ^ 0x4ead5eedULL));
    for (auto &v : m.headW.flat())
        v = static_cast<float>(rng.gaussian(0.0, 0.05));
    for (auto &v : m.headB.flat())
        v = static_cast<float>(rng.gaussian(0.0, 0.02));
    const std::string path = dir + "/model.gobm";
    saveModel(path, m);
    return path;
}

using Sequence = std::vector<std::int32_t>;

Sequence
randomTokens(Rng &rng, std::size_t len, std::size_t vocab)
{
    Sequence s(len);
    for (auto &t : s)
        t = static_cast<std::int32_t>(
            rng.integer(0, static_cast<std::int64_t>(vocab) - 1));
    return s;
}

/**
 * short-single requests: one sequence of 1..8 tokens each. Lengths are
 * uniform, drawn as a shuffled permutation of 1..8 per block of eight
 * requests, so every seed carries the same token total per block and
 * the throughput spread across seeds measures the engine, not the
 * length draw.
 */
std::vector<Sequence>
shortRequests(std::uint64_t seed, std::size_t count, std::size_t vocab)
{
    Rng rng(mix64(seed ^ 0x5401ULL));
    std::vector<Sequence> out;
    out.reserve(count);
    std::vector<std::size_t> lens(8);
    while (out.size() < count) {
        for (std::size_t i = 0; i < lens.size(); ++i)
            lens[i] = i + 1;
        rng.shuffle(lens);
        for (std::size_t len : lens)
            if (out.size() < count)
                out.push_back(randomTokens(rng, len, vocab));
    }
    return out;
}

/** long-batch calls: 8 sequences x 128 tokens each. */
std::vector<TokenBatch>
longBatches(std::uint64_t seed, std::size_t count, std::size_t vocab)
{
    Rng rng(mix64(seed ^ 0x1096ULL));
    std::vector<TokenBatch> out(count);
    for (auto &b : out)
        for (int i = 0; i < 8; ++i)
            b.push_back(randomTokens(rng, 128, vocab));
    return out;
}

/**
 * serve-mixed trace chunk `c`: kServeChunk requests of kServeSpec. The
 * traffic shape (arrivals, lengths) of chunk c is the same for every
 * seed, so throughput across seeds compares the engine and not the
 * length draw of a 16-request chunk; `seed` draws every token.
 */
std::vector<TraceRequest>
serveChunk(std::uint64_t seed, std::size_t c, std::size_t vocab)
{
    std::string spec = std::string(kServeSpec) + ",n="
                       + std::to_string(kServeChunk) + ",seed="
                       + std::to_string(c + 1);
    auto parsed = parseTraceSpec(spec);
    if (!parsed)
        die("bad trace spec " + spec);
    auto trace = generateTrace(*parsed, vocab);
    Rng rng(mix64(seed ^ (0x5e7e0000ULL + c)));
    for (TraceRequest &r : trace)
        r.tokens = randomTokens(rng, r.tokens.size(), vocab);
    return trace;
}

ServeOptions
serveOptions()
{
    ServeOptions o;
    // Nothing sheds and nothing misses a deadline, so every request
    // gets an Ok response and failed_frac counts wrong answers only.
    o.maxQueue = std::size_t{1} << 20;
    o.requestDeadlineUs = 0;
    o.recorderCapacity = 0;
    return o;
}

/** A fixed 8-token request: the first forward of every set-up. */
Sequence
warmupSequence(std::size_t vocab)
{
    Rng rng(0x3a7e);
    return randomTokens(rng, 8, vocab);
}

ModelQuantOptions
packedOptions()
{
    ModelQuantOptions o; // 3-bit GOBO centroids, the shipped defaults.
    o.format = WeightFormat::Packed;
    return o;
}

// ---------------------------------------------------------------------
// Raw output: one record per sequence, grouped into requests.

struct SeqRecord
{
    std::size_t request = 0;
    Tensor packed;
    Tensor fp32;
    Tensor serial;  ///< empty unless sampled for the serial re-run.
    Tensor ref;     ///< empty unless sampled for decodedReference.
    Tensor replay;  ///< empty unless sampled for a direct replay.
};

std::string
recordsJson(const std::vector<SeqRecord> &recs)
{
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const SeqRecord &r = recs[i];
        os << (i ? ",\n" : "\n") << "{\"request\":" << r.request
           << ",\"packed\":" << jsonLogits(r.packed)
           << ",\"fp32\":" << jsonLogits(r.fp32);
        if (r.serial.size())
            os << ",\"serial\":" << jsonLogits(r.serial);
        if (r.replay.size())
            os << ",\"replay\":" << jsonLogits(r.replay);
        if (r.ref.size())
            os << ",\"ref\":" << jsonLogits(r.ref);
        os << "}";
    }
    os << "]";
    return os.str();
}

std::string
stampJson()
{
    const KernelSet &kn = activeKernels();
    std::ostringstream os;
    os << "{\"kernel_tier\":" << jsonString(kn.name)
       << ",\"seq_tile\":" << kn.seqTile
       << ",\"threads\":" << ExecContext::parallel().threads
       << ",\"cores\":" << std::thread::hardware_concurrency()
       << ",\"decode_cache_budget_bytes\":" << decodeCacheBudgetBytes()
       << ",\"model\":\"DistilBERT full width, packed 3-bit GOBO\""
       << ",\"gobo_env\":{";
    bool first = true;
    for (char **e = environ; e && *e; ++e) {
        std::string kv = *e;
        if (kv.rfind("GOBO_", 0) != 0)
            continue;
        auto eq = kv.find('=');
        os << (first ? "" : ",") << jsonString(kv.substr(0, eq)) << ":"
           << jsonString(eq == std::string::npos ? "" : kv.substr(eq + 1));
        first = false;
    }
    os << "}}";
    return os.str();
}

// ---------------------------------------------------------------------
// Set-up: load the GOBM file, quantize, build the session, first forward.

struct SetupTimes
{
    double loadS = 0, quantizeS = 0, firstForwardS = 0, totalS = 0;
};

/**
 * FP32 logits of `sample` on the packed model's own decoded weights:
 * the function the packed engine computes, up to FP reassociation, so
 * unlike the original FP32 model it bounds the packed logits tightly.
 * `m` is the FP32 model `qm` was built from; its FC weights are
 * replaced by their GOBO reconstructions.
 */
std::vector<Tensor>
decodedReference(BertModel m, const QuantizedBertModel &qm,
                 const std::vector<Sequence> &sample)
{
    auto refs = m.fcLayers();
    std::size_t i = 0;
    qm.forEachLayer([&](const QuantizedLinear &l) {
        *refs[i++].weight = l.compressed().dequantize();
    });
    InferenceSession r(std::move(m), ExecContext::parallel());
    std::vector<Tensor> out;
    for (const Sequence &seq : sample)
        out.push_back(r.headLogits(seq));
    return out;
}

/**
 * One set-up. When `refSample` is given, decodedReference runs on it
 * between quantizing and building the session, outside the timings.
 */
std::optional<InferenceSession>
setUpPacked(const std::string &modelPath, SetupTimes &t,
            const std::vector<Sequence> *refSample = nullptr,
            std::vector<Tensor> *refOut = nullptr)
{
    WallTimer w;
    std::optional<BertModel> m(loadModel(modelPath));
    t.loadS = w.seconds();
    w.reset();
    QuantizedBertModel qm(*m, packedOptions());
    t.quantizeS = w.seconds();
    if (refSample)
        *refOut = decodedReference(std::move(*m), qm, *refSample);

    w.reset();
    m.reset();
    std::optional<InferenceSession> s;
    s.emplace(std::move(qm), ExecContext::parallel());
    s->headLogits(warmupSequence(s->config().vocabSize));
    t.firstForwardS = w.seconds();
    t.totalS = t.loadS + t.quantizeS + t.firstForwardS;
    return s;
}

// ---------------------------------------------------------------------
// The timed phases (--trace 0).

/** One engine's samples on one workload. */
struct Phase
{
    std::vector<double> latencyMs; ///< per request (call or tile).
    std::size_t tokens = 0;
    double wallS = 0;
    std::size_t calls = 0;   ///< requests / calls / chunks run.
};

std::string
phaseJson(const Phase &p)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"latency_ms\":" << jsonNumbers(p.latencyMs)
       << ",\"tokens\":" << p.tokens << ",\"wall_s\":" << p.wallS
       << ",\"calls\":" << p.calls << "}";
    return os.str();
}

/** Run fn() as one request of `tokens` tokens, sampled into p. */
template <typename F>
auto
timedCall(Phase &p, std::size_t tokens, F &&fn)
{
    WallTimer t;
    auto r = fn();
    p.latencyMs.push_back(t.milliseconds());
    p.tokens += tokens;
    return r;
}

/**
 * serve-mixed: one trace chunk through ServeServer::runTrace. A latency
 * sample is the wall time of one tile (one headLogitsBatch call, whose
 * lanes all complete together); queueing itself happens in runTrace's
 * virtual time and is not a wall-clock quantity. Samples are per tile,
 * not per request: weighting each tile by its lanes puts the median
 * wherever the few 16-lane tiles fall, which made it about twice as
 * noisy across runs (README.md). The tile times come from the serve.batch
 * spans of an observer attached to the server only — the session's
 * context carries no observer.
 */
std::vector<ServeResponse>
serveChunkTimed(const InferenceSession &s,
                const std::vector<TraceRequest> &trace, Phase &p)
{
    Observer obs;
    ServeOptions o = serveOptions();
    o.obs = &obs;
    ServeServer server(s, o);
    ServeRun run = server.runTrace(trace);
    p.tokens += run.summary.tokensServed;
    for (const TraceEvent &ev : obs.tracer.events())
        if (ev.name == "serve.batch")
            p.latencyMs.push_back(ev.durUs / 1e3);
    return std::move(run.responses);
}

/** One engine in the timed phase: warm() is an untimed forward, and
 * call(i, p) runs request i (a call, or a serve chunk) into p. */
struct Engine
{
    std::function<void()> warm;
    std::function<void(std::size_t, Phase &)> call;
};

/**
 * Closed loop, one client, the two engines taking turns: turn b sends
 * requests [b*block, (b+1)*block) to the packed engine, then the same
 * requests to the FP32 one, each after one untimed warm-up forward of
 * its engine (the other engine's weights have just gone through the
 * caches). Turns continue until the packed engine has spent `seconds`
 * and run at least `minCalls` requests, or the inputs run out. Taking
 * turns spreads both engines' samples over the whole phase, so a slow
 * stretch of the host lands on both rather than on whichever engine
 * happened to run during it.
 */
void
takeTurns(double seconds, std::size_t minCalls, std::size_t maxCalls,
          std::size_t block, const Engine &packedEngine,
          const Engine &fp32Engine, Phase &packed, Phase &fp32)
{
    auto turn = [](const Engine &e, std::size_t b, std::size_t end,
                   Phase &p) {
        e.warm();
        WallTimer t;
        for (std::size_t i = b; i < end; ++i)
            e.call(i, p);
        p.wallS += t.seconds();
        p.calls += end - b;
    };
    while (packed.calls < maxCalls
           && (packed.wallS < seconds || packed.calls < minCalls)) {
        std::size_t b = packed.calls;
        std::size_t end = std::min(b + block, maxCalls);
        turn(packedEngine, b, end, packed);
        turn(fp32Engine, b, end, fp32);
    }
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    std::string modelDir;
    std::string modelPath; ///< written by writeModel.
    std::string outPath;
};

void
runTimed(const Args &a, std::ostream &out)
{
    const std::size_t vocab = benchConfig().vocabSize;
    const bool isShort = a.workload == "short-single";
    const bool isLong = a.workload == "long-batch";

    std::vector<Sequence> shortReqs;
    std::vector<TokenBatch> longCalls;
    std::vector<std::vector<TraceRequest>> traces;
    if (isShort)
        shortReqs = shortRequests(a.seed, 1 << 14, vocab);
    else if (isLong)
        longCalls = longBatches(a.seed, 64, vocab);
    else
        for (std::size_t c = 0; c < 256; ++c)
            traces.push_back(serveChunk(a.seed, c, vocab));

    // A seeded sample of requests every run is sure to send, with the
    // record index each one lands at, for the decoded-weight reference.
    std::vector<Sequence> refSample;
    std::vector<std::size_t> refRecs;
    {
        Rng rng(mix64(a.seed ^ 0x7e7ULL));
        for (int k = 0; k < (isLong ? 2 : 8); ++k) {
            if (isShort) {
                auto i = static_cast<std::size_t>(rng.integer(
                    0, static_cast<std::int64_t>(kMinShortRequests) - 1));
                refSample.push_back(shortReqs[i]);
                refRecs.push_back(i);
            } else if (isLong) {
                auto c = static_cast<std::size_t>(rng.integer(0, 1));
                auto l = static_cast<std::size_t>(rng.integer(0, 7));
                refSample.push_back(longCalls[c][l]);
                refRecs.push_back(c * 8 + l);
            } else {
                auto i = static_cast<std::size_t>(rng.integer(
                    0, static_cast<std::int64_t>(traces[0].size()) - 1));
                refSample.push_back(traces[0][i].tokens);
                refRecs.push_back(i);
            }
        }
    }

    // Set-up, repeated; the last session is the one measured.
    std::vector<double> setupS, loadS, quantizeS, firstS;
    std::vector<Tensor> refLogits;
    std::optional<InferenceSession> s;
    for (int i = 0; i < kSetupRepeats; ++i) {
        note("set-up " + std::to_string(i + 1));
        s.reset();
        SetupTimes t;
        bool last = i + 1 == kSetupRepeats;
        s = setUpPacked(a.modelPath, t, last ? &refSample : nullptr,
                        &refLogits);
        setupS.push_back(t.totalS);
        loadS.push_back(t.loadS);
        quantizeS.push_back(t.quantizeS);
        firstS.push_back(t.firstForwardS);
    }

    // The FP32 reference on the same inputs, and an untimed warm-up of
    // both engines on inputs outside the measured stream.
    std::optional<InferenceSession> f;
    f.emplace(loadModel(a.modelPath), ExecContext::parallel());
    {
        Rng rng(mix64(a.seed ^ 0x3a73ULL));
        for (int i = 0; i < 2; ++i) {
            Sequence seq = randomTokens(rng, isLong ? 64 : 8, vocab);
            s->headLogits(seq);
            f->headLogits(seq);
        }
    }
    const Sequence warm = warmupSequence(vocab);
    Engine packedEngine{[&] { s->headLogits(warm); }, {}};
    Engine fp32Engine{[&] { f->headLogits(warm); }, {}};

    note("timed phase");
    std::vector<SeqRecord> recs;
    std::vector<std::vector<ServeResponse>> served, servedFp32;
    Phase packed, fp32;
    if (isShort) {
        packedEngine.call = [&](std::size_t i, Phase &p) {
            recs.push_back({i, timedCall(p, shortReqs[i].size(), [&] {
                                return s->headLogits(shortReqs[i]);
                            }), {}, {}, {}, {}});
        };
        fp32Engine.call = [&](std::size_t i, Phase &p) {
            recs[i].fp32 = timedCall(p, shortReqs[i].size(),
                                     [&] { return f->headLogits(shortReqs[i]); });
        };
        takeTurns(a.seconds, kMinShortRequests, shortReqs.size(), kShortBlock,
                  packedEngine, fp32Engine, packed, fp32);
    } else if (isLong) {
        packedEngine.call = [&](std::size_t i, Phase &p) {
            auto logits = timedCall(p, batchTokens(longCalls[i]), [&] {
                return s->headLogitsBatch(longCalls[i]);
            });
            for (auto &l : logits)
                recs.push_back({i, std::move(l), {}, {}, {}, {}});
        };
        fp32Engine.call = [&](std::size_t i, Phase &p) {
            auto logits = timedCall(p, batchTokens(longCalls[i]), [&] {
                return f->headLogitsBatch(longCalls[i]);
            });
            for (std::size_t j = 0; j < logits.size(); ++j)
                recs[i * 8 + j].fp32 = std::move(logits[j]);
        };
        takeTurns(a.seconds, 2, longCalls.size(), 1, packedEngine,
                  fp32Engine, packed, fp32);
    } else {
        packedEngine.call = [&](std::size_t i, Phase &p) {
            served.push_back(serveChunkTimed(*s, traces[i], p));
        };
        fp32Engine.call = [&](std::size_t i, Phase &p) {
            servedFp32.push_back(serveChunkTimed(*f, traces[i], p));
        };
        takeTurns(a.seconds, kMinServeChunks, traces.size(), 1,
                  packedEngine, fp32Engine, packed, fp32);
    }

    note("checks");
    // The serving footprint: the packed session alone. The FP32 copy
    // and freed set-up memory are handed back first, so RSS shows the
    // packed engine's live state only.
    f.reset();
    malloc_trim(0);
    const std::uint64_t rss = rssBytes();
    const std::size_t resident = s->residentWeightBytes();

    // serve-mixed: flatten responses into records (request = position
    // in the run), and replay a sample of chunk 0 through
    // headLogitsBatch directly, which must reproduce the served bits.
    std::vector<std::string> serveIds;
    if (!isShort && !isLong) {
        std::size_t req = 0;
        for (std::size_t c = 0; c < served.size(); ++c) {
            std::ostringstream ids;
            ids << "[";
            for (std::size_t i = 0; i < served[c].size(); ++i) {
                const ServeResponse &r = served[c][i];
                ids << (i ? "," : "") << "[" << r.id << ","
                    << (r.status == ServeStatus::Ok ? 1 : 0) << "]";
                recs.push_back({req++, r.logits, {}, {}, {}, {}});
            }
            ids << "]";
            serveIds.push_back(ids.str());
        }
        req = 0;
        for (const auto &chunk : servedFp32)
            for (const ServeResponse &r : chunk)
                recs[req++].fp32 = r.logits;
        TokenBatch batch;
        std::vector<std::size_t> which;
        Rng rng(mix64(a.seed ^ 0x4e91ULL));
        for (std::size_t i = 0; i < traces[0].size(); ++i)
            if (rng.bernoulli(0.5)) {
                batch.push_back(traces[0][i].tokens);
                which.push_back(i);
            }
        auto replay = s->headLogitsBatch(batch);
        for (std::size_t j = 0; j < which.size(); ++j)
            recs[which[j]].replay = std::move(replay[j]);
    }

    for (std::size_t k = 0; k < refRecs.size(); ++k)
        recs[refRecs[k]].ref = refLogits[k];

    // Seeded sample re-run through a serial-context packed session.
    {
        s->setContext(ExecContext::serial());
        Rng rng(mix64(a.seed ^ 0x5e71ULL));
        std::size_t picks = isLong ? 1 : 2;
        for (std::size_t k = 0; k < picks; ++k) {
            std::size_t r = static_cast<std::size_t>(
                rng.integer(0, static_cast<std::int64_t>(recs.size()) - 1));
            Sequence seq;
            if (isShort) {
                seq = shortReqs[recs[r].request];
            } else if (isLong) {
                std::size_t lane = r % 8;
                seq = longCalls[recs[r].request][lane];
            } else {
                std::size_t c = 0, i = r;
                while (i >= traces[c].size())
                    i -= traces[c++].size();
                seq = traces[c][i].tokens;
            }
            recs[r].serial = s->headLogits(seq);
        }
    }
    s.reset();

    out.precision(17);
    out << "{\"mode\":\"timed\",\"workload\":" << jsonString(a.workload)
        << ",\"seed\":" << a.seed << ",\"stamp\":" << stampJson()
        << ",\"head_outputs\":" << kHeadOutputs
        << ",\"setup_s\":" << jsonNumbers(setupS)
        << ",\"load_s\":" << jsonNumbers(loadS)
        << ",\"quantize_s\":" << jsonNumbers(quantizeS)
        << ",\"first_forward_s\":" << jsonNumbers(firstS)
        << ",\"resident_weight_bytes\":" << resident
        << ",\"rss_bytes\":" << rss << ",\"packed\":" << phaseJson(packed)
        << ",\"fp32\":" << phaseJson(fp32) << ",\"serve_ids\":[";
    for (std::size_t c = 0; c < serveIds.size(); ++c)
        out << (c ? "," : "") << serveIds[c];
    out << "],\"serve_chunk\":" << kServeChunk
        << ",\"records\":" << recordsJson(recs) << "}\n";
}

// ---------------------------------------------------------------------
// The traced pass (--trace 1).

/** Named self-time accumulators; every replayed call is a leaf span. */
class Spans
{
  public:
    template <typename F>
    auto
    time(const std::string &name, F &&fn)
    {
        WallTimer t;
        if constexpr (std::is_void_v<decltype(fn())>) {
            fn();
            ms[name] += t.milliseconds();
        } else {
            auto r = fn();
            ms[name] += t.milliseconds();
            return r;
        }
    }

    std::map<std::string, double> ms;
};

const char *const kFcKinds[6] = {"query", "key", "value",
                                 "attn_out", "inter", "out"};

/** Packed replay of QuantizedBertModel::classify, call by call. */
Tensor
replayPacked(const ExecContext &ctx, const BertModel &fm,
             const std::vector<const QuantizedLinear *> &fc,
             const Sequence &tokens, Spans &sp)
{
    const std::size_t heads = fm.config().numHeads;
    Tensor x = sp.time("nn.embed_ms",
                       [&] { return embedTokens(ctx, fm, tokens); });
    for (std::size_t e = 0; e < fm.encoders.size(); ++e) {
        const EncoderWeights &enc = fm.encoders[e];
        auto fwd = [&](std::size_t k, const Tensor &in) {
            return sp.time(std::string("core.qexec.") + kFcKinds[k]
                               + ".self_ms",
                           [&] { return fc[e * 6 + k]->forward(ctx, in); });
        };
        Tensor q = fwd(0, x), k = fwd(1, x), v = fwd(2, x);
        Tensor c = sp.time("nn.attention_ms", [&] {
            return multiHeadAttention(ctx, q, k, v, heads);
        });
        Tensor ao = fwd(3, c);
        Tensor a = sp.time("tensor.add_ms", [&] { return add(x, ao); });
        sp.time("tensor.layernorm_ms", [&] {
            layerNormInplace(ctx, a, enc.attnLnGamma.flat(),
                             enc.attnLnBeta.flat());
        });
        Tensor inter = fwd(4, a);
        sp.time("tensor.gelu_ms", [&] { geluInplace(ctx, inter); });
        Tensor o = fwd(5, inter);
        Tensor y = sp.time("tensor.add_ms", [&] { return add(a, o); });
        sp.time("tensor.layernorm_ms", [&] {
            layerNormInplace(ctx, y, enc.outLnGamma.flat(),
                             enc.outLnBeta.flat());
        });
        x = std::move(y);
    }
    Tensor first = sp.time("tensor.pool_head_ms", [&] {
        Tensor f(1, x.cols());
        std::copy(x.row(0).begin(), x.row(0).end(), f.row(0).begin());
        return f;
    });
    Tensor pooled = sp.time("core.qexec.pooler.self_ms",
                            [&] { return fc.back()->forward(ctx, first); });
    return sp.time("tensor.pool_head_ms", [&] {
        tanhInplace(ctx, pooled);
        Tensor l2 = linear(ctx, pooled, fm.headW, fm.headB);
        Tensor l(l2.cols());
        std::copy(l2.row(0).begin(), l2.row(0).end(), l.flat().begin());
        return l;
    });
}

/** FP32 replay of the session's encodeSequence + pool + headLogits;
 * only the FC time (tensor.fp32_fc_ms) is reported. */
Tensor
replayFp32(const ExecContext &ctx, const BertModel &fm,
           const Sequence &tokens, Spans &sp)
{
    auto fcTime = [&](const Tensor &in, const Tensor &w, const Tensor &b) {
        return sp.time("tensor.fp32_fc_ms",
                       [&] { return linear(ctx, in, w, b); });
    };
    Tensor x = embedTokens(ctx, fm, tokens);
    for (const EncoderWeights &enc : fm.encoders) {
        Tensor q = fcTime(x, enc.queryW, enc.queryB);
        Tensor k = fcTime(x, enc.keyW, enc.keyB);
        Tensor v = fcTime(x, enc.valueW, enc.valueB);
        Tensor c = multiHeadAttention(ctx, q, k, v, fm.config().numHeads);
        Tensor a = add(x, fcTime(c, enc.attnOutW, enc.attnOutB));
        layerNormInplace(ctx, a, enc.attnLnGamma.flat(),
                         enc.attnLnBeta.flat());
        Tensor inter = fcTime(a, enc.interW, enc.interB);
        geluInplace(ctx, inter);
        Tensor y = add(a, fcTime(inter, enc.outW, enc.outB));
        layerNormInplace(ctx, y, enc.outLnGamma.flat(),
                         enc.outLnBeta.flat());
        x = std::move(y);
    }
    Tensor first(1, x.cols());
    std::copy(x.row(0).begin(), x.row(0).end(), first.row(0).begin());
    Tensor pooled = fcTime(first, fm.poolerW, fm.poolerB);
    tanhInplace(ctx, pooled);
    Tensor l2 = linear(ctx, pooled, fm.headW, fm.headB);
    Tensor l(l2.cols());
    std::copy(l2.row(0).begin(), l2.row(0).end(), l.flat().begin());
    return l;
}

/**
 * Streaming ceiling: fold-left dot over two buffers that together
 * exceed the last-level cache, split across the pool's threads the way
 * a parallel forward is. Bytes are the operands read.
 */
double
streamGbps(const ExecContext &ctx)
{
    const KernelSet &kn = activeKernels();
    const std::size_t n = std::size_t{24} << 20; // 2 x 96 MiB
    std::vector<float> x(n, 1.0f), y(n, 0.5f);
    const std::size_t parts = std::max<std::size_t>(ctx.threads, 1);
    std::vector<float> sink(parts);
    std::vector<double> gbps;
    for (int rep = 0; rep < 5; ++rep) {
        WallTimer t;
        ctx.parallelFor(parts, [&](std::size_t p) {
            std::size_t b = n / parts * p;
            std::size_t e = p + 1 == parts ? n : b + n / parts;
            sink[p] = kn.dot(0.0f, x.data() + b, y.data() + b, e - b);
        });
        gbps.push_back(2.0 * n * sizeof(float) / t.seconds() / 1e9);
    }
    if (!std::isfinite(sink[0]))
        die("stream probe produced a non-finite sum");
    std::sort(gbps.begin(), gbps.end());
    return gbps[gbps.size() / 2];
}

/** Packed-row decode over the model's own rows, one core. Bytes are
 * the packed input read plus the widened output written. */
double
decodeGbps(const std::vector<const QuantizedLinear *> &fc)
{
    const KernelSet &kn = activeKernels();
    std::vector<std::uint8_t> row;
    double bytes = 0;
    WallTimer t;
    for (int rep = 0; rep < 3; ++rep)
        for (const QuantizedLinear *l : fc) {
            const QuantizedTensor &q = l->compressed();
            row.resize(q.cols);
            for (std::size_t r = 0; r < q.rows; ++r)
                kn.decodePackedRow(q.packedIndexes.data(),
                                   q.packedIndexes.size(),
                                   r * q.cols * q.bits, q.bits, q.cols,
                                   row.data());
            bytes += static_cast<double>(q.packedIndexes.size())
                     + static_cast<double>(q.rows * q.cols);
        }
    return bytes / t.seconds() / 1e9;
}

void
runTraced(const Args &a, std::ostream &out)
{
    const std::size_t vocab = benchConfig().vocabSize;
    const bool isShort = a.workload == "short-single";
    const bool isLong = a.workload == "long-batch";
    const ExecContext ctx = ExecContext::parallel();
    std::map<std::string, double> m;

    // Set-up with its parts timed; the FP32 model stays alive here
    // because the replay reads the FP32-resident embeddings, norms and
    // head from it (the packed model holds identical copies).
    WallTimer w;
    BertModel fm0 = loadModel(a.modelPath);
    m["model.load_s"] = w.seconds();
    w.reset();
    QuantizedBertModel qm(fm0, packedOptions());
    m["core.quantize_s"] = w.seconds();
    {
        GoboConfig cfg = packedOptions().base;
        LayerQuantStats hh, ih;
        w.reset();
        quantizeTensor(fm0.encoders[0].queryW, cfg, &hh);
        m["core.quantize.hh_ms"] = w.milliseconds();
        w.reset();
        quantizeTensor(fm0.encoders[0].interW, cfg, &ih);
        m["core.quantize.ih_ms"] = w.milliseconds();
        m["core.quantize.iterations"] =
            static_cast<double>(hh.iterations + ih.iterations);
    }
    InferenceSession ps(qm, ctx);
    InferenceSession fs(std::move(fm0), ctx);
    const BertModel &fm = fs.model();
    std::vector<const QuantizedLinear *> fc;
    qm.forEachLayer([&](const QuantizedLinear &l) { fc.push_back(&l); });
    double residentFc = 0;
    for (const QuantizedLinear *l : fc)
        residentFc += static_cast<double>(l->residentBytes());

    note("kernel probes");
    m["kernels.stream_gbps"] = streamGbps(ctx);
    m["kernels.decode_gbps"] = decodeGbps(fc);

    ps.headLogits(warmupSequence(vocab));
    fs.headLogits(warmupSequence(vocab));

    // The seeded sample, replayed one sequence at a time.
    std::vector<Sequence> sample;
    std::vector<TokenBatch> longCalls;
    std::vector<TraceRequest> chunk;
    Rng pick(mix64(a.seed ^ 0x7ace5ULL));
    if (isShort) {
        auto reqs = shortRequests(a.seed, 256, vocab);
        for (int i = 0; i < 16; ++i)
            sample.push_back(reqs[static_cast<std::size_t>(
                pick.integer(0, static_cast<std::int64_t>(reqs.size()) - 1))]);
    } else if (isLong) {
        longCalls = longBatches(a.seed, 1, vocab);
        sample.push_back(longCalls[0][static_cast<std::size_t>(
            pick.integer(0, 7))]);
    } else {
        chunk = serveChunk(a.seed, 0, vocab);
        for (int i = 0; i < 8; ++i)
            sample.push_back(chunk[static_cast<std::size_t>(
                pick.integer(0, static_cast<std::int64_t>(chunk.size()) - 1))]
                                 .tokens);
    }

    note("replay");
    const int passes = isLong ? 2 : 3;
    Spans sp, fsp;
    double sessionMs = 0, replayMs = 0;
    std::vector<SeqRecord> recs;
    for (int p = -1; p < passes; ++p) { // pass -1 warms caches, untimed
        Spans scratchSpans;
        for (std::size_t i = 0; i < sample.size(); ++i) {
            Spans &use = p < 0 ? scratchSpans : sp;
            WallTimer t;
            Tensor sess = ps.headLogits(sample[i]);
            double sMs = t.milliseconds();
            t.reset();
            Tensor rep = replayPacked(ctx, fm, fc, sample[i], use);
            double rMs = t.milliseconds();
            Tensor fsess = fs.headLogits(sample[i]);
            Tensor frep = replayFp32(ctx, fm, sample[i],
                                     p < 0 ? scratchSpans : fsp);
            if (p < 0)
                continue;
            sessionMs += sMs;
            replayMs += rMs;
            if (p == 0) {
                // Packed replay vs packed session, and the FP32 replay
                // vs the FP32 session, both must match bit for bit: a
                // record's `replay` is checked against its `packed`
                // slot, which for the second record holds the FP32
                // session's logits.
                recs.push_back({i, sess, fsess, {}, {}, rep});
                recs.push_back({i, fsess, fsess, {}, {}, frep});
            }
        }
    }
    const double forwards = static_cast<double>(passes * sample.size());
    double selfSum = 0, qexecSum = 0;
    for (const auto &[name, ms] : sp.ms) {
        m[name] = ms / forwards;
        selfSum += ms / forwards;
        if (name.rfind("core.qexec.", 0) == 0)
            qexecSum += ms / forwards;
    }
    for (const char *k : kFcKinds)
        m.try_emplace(std::string("core.qexec.") + k + ".self_ms", 0.0);
    m["tensor.fp32_fc_ms"] = fsp.ms["tensor.fp32_fc_ms"] / forwards;
    m["core.qexec.self_ms"] = qexecSum;
    m["core.qexec.weight_gbps"] = residentFc / (qexecSum / 1e3) / 1e9;
    m["core.qexec.stream_frac"] =
        m["core.qexec.weight_gbps"] / m["kernels.stream_gbps"];
    m["exec.session.forward_ms"] = sessionMs / forwards;
    m["unattributed_ms"] = sessionMs / forwards - selfSum;
    const double overhead = (replayMs - sessionMs) / sessionMs;

    note("counter pass");
    // Counter deltas over one pass of the workload's own call shape.
    PoolTelemetry p0 = ThreadPool::shared().telemetry();
    ScratchStats s0 = scratchStats();
    double shapeForwards = 0;
    ServeSummary sum;
    if (isShort) {
        for (const Sequence &seq : sample)
            ps.headLogits(seq);
        shapeForwards = static_cast<double>(sample.size());
    } else if (isLong) {
        ps.headLogitsBatch(longCalls[0]);
        shapeForwards = static_cast<double>(longCalls[0].size());
    } else {
        ServeServer server(ps, serveOptions());
        sum = server.runTrace(chunk).summary;
        shapeForwards = static_cast<double>(sum.completed);
    }
    PoolTelemetry p1 = ThreadPool::shared().telemetry();
    ScratchStats s1 = scratchStats();
    // Jobs handed to the workers, top-level or nested inside a batch.
    const double jobs = static_cast<double>(p1.jobs - p0.jobs)
                        + static_cast<double>(p1.nestedJobs - p0.nestedJobs);
    const double inl = static_cast<double>(p1.inlineRuns - p0.inlineRuns);
    m["exec.pool.jobs_per_forward"] = jobs / shapeForwards;
    m["exec.pool.inline_frac"] = jobs + inl > 0 ? inl / (jobs + inl) : 0;
    m["exec.pool.steals_per_forward"] =
        static_cast<double>(p1.steals - p0.steals) / shapeForwards;
    m["exec.pool.wakes_per_forward"] =
        static_cast<double>(p1.wakes - p0.wakes) / shapeForwards;
    const double hits =
        static_cast<double>(s1.decodeRowHits - s0.decodeRowHits);
    const double lookups =
        hits + static_cast<double>(s1.decodeRowMisses - s0.decodeRowMisses);
    m["exec.scratch.decode_lookups"] = lookups / shapeForwards;
    m["exec.scratch.decode_hit_rate"] = lookups > 0 ? hits / lookups : 0;
    m["exec.scratch.evictions_per_forward"] =
        static_cast<double>(s1.decodeCacheEvictions - s0.decodeCacheEvictions)
        / shapeForwards;
    m["serve.run_s"] = sum.wallSeconds;
    m["serve.tiles"] = static_cast<double>(sum.batches);
    m["serve.requests_per_tile"] =
        sum.batches ? static_cast<double>(sum.completed)
                          / static_cast<double>(sum.batches)
                    : 0;
    m["serve.lanes_total"] = static_cast<double>(sum.lanesTotal);
    m["serve.tile_occupancy"] = sum.tileOccupancy;

    out.precision(17);
    out << "{\"mode\":\"traced\",\"workload\":" << jsonString(a.workload)
        << ",\"seed\":" << a.seed << ",\"stamp\":" << stampJson()
        << ",\"head_outputs\":" << kHeadOutputs
        << ",\"sample_sequences\":" << sample.size()
        << ",\"passes\":" << passes
        << ",\"trace_overhead_frac\":" << overhead << ",\"layers\":{";
    bool first = true;
    for (const auto &[name, v] : m) {
        out << (first ? "" : ",") << jsonString(name) << ":" << v;
        first = false;
    }
    out << "},\"records\":" << recordsJson(recs) << "}\n";
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed") {
            auto s = parseUint64Spec(v.c_str());
            if (!s)
                die("bad --seed " + v);
            a.seed = *s;
        } else if (k == "--seconds") {
            a.seconds = std::atof(v.c_str());
        } else if (k == "--trace") {
            a.trace = v == "1";
        } else if (k == "--models") {
            a.modelDir = v;
        } else if (k == "--out") {
            a.outPath = v;
        } else {
            die("unknown flag " + k);
        }
    }
    if (a.workload != "short-single" && a.workload != "long-batch"
        && a.workload != "serve-mixed")
        die("--workload must be short-single, long-batch or serve-mixed");
    if (!(a.seconds > 0) || a.modelDir.empty() || a.outPath.empty())
        die("need --seconds > 0, --models and --out");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parseArgs(argc, argv);
    note("start");
    a.modelPath = writeModel(a.modelDir, a.seed);
    std::ofstream out(a.outPath);
    if (!out)
        die("cannot write " + a.outPath);
    if (a.trace)
        runTraced(a, out);
    else
        runTimed(a, out);
    note("done");
    return out.good() ? 0 : 1;
}
