/**
 * @file
 * gobo — command-line front end for the library.
 *
 *   gobo generate  --family bert-base [--scale mini|full] [--seed N]
 *                  --out model.gobm
 *   gobo compress  model.gobm --out model.gobc [--bits B]
 *                  [--embedding-bits E] [--method gobo|kmeans|linear]
 *                  [--threshold T] [--threads N]
 *   gobo decompress model.gobc --out model.gobm
 *   gobo inspect   model.gobm | model.gobc
 *   gobo infer     model.gobm | model.gobc [--batch B] [--seq-len S]
 *                  [--threads N] [--kernel generic|avx2|avx512|native]
 *                  [--engine fp32|qexec] [--seed N] [--trace OUT.json]
 *                  [--metrics] [--metrics-json OUT.json]
 *   gobo audit     model.gobm [--bits B] [--embedding-bits E]
 *                  [--method gobo|kmeans|linear] [--threshold T]
 *                  [--sequences N] [--seq-len S] [--seed N]
 *                  [--json OUT.json]
 *   gobo serve     model.gobm | model.gobc --trace SPEC
 *                  [--threads N] [--kernel generic|avx2|avx512|native]
 *                  [--engine fp32|qexec] [--max-queue N]
 *                  [--flush-deadline-us N] [--deadline-us N]
 *                  [--band-width N] [--service-rate TOK/S]
 *                  [--json OUT.json] [--metrics]
 *                  [--metrics-json OUT.json] [--trace-out OUT.json]
 *   gobo kernels
 *
 * `generate` writes a synthetic FP32 checkpoint (see model/generate);
 * `compress` produces the GOBC container and prints the per-layer
 * accounting, quantizing layers on `--threads` threads (0, the
 * default, means every core; the file is byte-identical at any
 * count); `decompress` decodes back to a plain FP32 model any
 * engine can consume; `inspect` prints what a file contains; `infer`
 * serves a batch of random sequences through an InferenceSession on
 * `--threads` threads (1 runs inline) and reports logits — decimal
 * and hex-float, so a diff of two runs compares exact bits — and
 * tokens/sec.
 * With `--trace` the run is recorded as Chrome trace-event JSON
 * (load it in chrome://tracing or ui.perfetto.dev); `--metrics`
 * prints the counter/histogram registry plus a span summary and the
 * thread-pool telemetry after the run; `--metrics-json` writes the
 * same registry as machine JSON. `audit` quantizes the model and runs
 * the three-pillar quality/traffic audit (per-layer fidelity, FP32 vs
 * quantized divergence, measured-traffic energy attribution); see
 * DESIGN.md §10. `serve` replays a deterministic synthetic request
 * trace through the continuous-batching admission layer (src/serve)
 * and reports completion/shed counts, tile occupancy, and virtual
 * p50/p95/p99 latency; see DESIGN.md §13. Note `infer --trace` writes
 * a Chrome trace, while `serve --trace` *consumes* a load spec —
 * serve's Chrome trace output flag is `--trace-out`. `kernels`
 * probes the host: one line per SIMD tier (runnable or not, with its
 * sequence-tile width) plus the active tier — CI uses it to decide
 * which GOBO_KERNEL matrix cells the runner supports. A flag the
 * command does not read is a usage error (exit 2), like a bad value.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/container.hh"
#include "core/qexec.hh"
#include "core/quantizer.hh"
#include "exec/session.hh"
#include "exec/threadpool.hh"
#include "kernels/kernels.hh"
#include "model/footprint.hh"
#include "model/generate.hh"
#include "model/serialize.hh"
#include "obs/audit.hh"
#include "obs/export.hh"
#include "obs/observer.hh"
#include "serve/loadgen.hh"
#include "serve/server.hh"
#include "tensor/ops.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/table.hh"
#include "util/timer.hh"

namespace {

using namespace gobo;

[[noreturn]] void
usage(const char *msg = nullptr)
{
    if (msg)
        std::fprintf(stderr, "error: %s\n\n", msg);
    std::fputs(
        "usage:\n"
        "  gobo generate  --family F [--scale mini|full] [--seed N]"
        " --out PATH\n"
        "  gobo compress  IN.gobm --out OUT.gobc [--bits B]"
        " [--embedding-bits E]\n"
        "                 [--method gobo|kmeans|linear]"
        " [--threshold T] [--threads N]\n"
        "  gobo decompress IN.gobc --out OUT.gobm\n"
        "  gobo inspect   FILE\n"
        "  gobo infer     FILE [--batch B] [--seq-len S] [--threads N]\n"
        "                 [--kernel generic|avx2|avx512|native]\n"
        "                 [--engine fp32|qexec] [--seed N]\n"
        "                 [--trace OUT.json] [--metrics]"
        " [--metrics-json OUT.json]\n"
        "  gobo audit     FILE [--bits B] [--embedding-bits E]"
        " [--method M]\n"
        "                 [--threshold T] [--sequences N] [--seq-len S] [--seed N]\n"
        "                 [--json OUT.json]\n"
        "  gobo serve     FILE --trace SPEC [--threads N]\n"
        "                 [--kernel generic|avx2|avx512|native]\n"
        "                 [--engine fp32|qexec] [--max-queue N]\n"
        "                 [--flush-deadline-us N] [--deadline-us N]\n"
        "                 [--band-width N] [--service-rate TOK/S]\n"
        "                 [--json OUT.json] [--metrics]"
        " [--metrics-json OUT.json]\n"
        "                 [--trace-out OUT.json]\n"
        "  gobo kernels   (probe: one line per SIMD tier on this"
        " host)\n"
        "\nfamilies: bert-base bert-large distilbert roberta"
        " roberta-large\n"
        "trace spec: n=1000,seed=42,rate=300,len=1:32,long=0.25"
        ",burst=4x0.2,period=200000\n",
        stderr);
    std::exit(2);
}

/**
 * Flat flag parser: positional args plus --key value pairs. Only the
 * command's `known` flags are accepted — any other --flag is a usage
 * error naming it, so a typo never silently runs with a default — and
 * at most `files` positional args; one past them (`infer m.gobm 4` for
 * `--threads 4`) is a usage error naming it too.
 * `--metrics` is the one boolean switch and consumes no value.
 */
struct Args
{
    std::vector<std::string> positional;
    std::map<std::string, std::string> flags;

    static Args
    parse(int argc, char **argv, int first, const char *cmd,
          const std::vector<std::string_view> &known, std::size_t files)
    {
        Args a;
        for (int i = first; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg.rfind("--", 0) == 0) {
                std::string key = arg.substr(2);
                if (std::find(known.begin(), known.end(), key)
                    == known.end())
                    usage(("unknown flag " + arg + " for " + cmd).c_str());
                if (key == "metrics") {
                    a.flags[key] = "1";
                    continue;
                }
                if (i + 1 >= argc)
                    usage(("missing value for " + arg).c_str());
                a.flags[key] = argv[++i];
            } else {
                if (a.positional.size() == files)
                    usage(("unexpected argument " + arg + " for " + cmd)
                              .c_str());
                a.positional.push_back(arg);
            }
        }
        return a;
    }

    std::string
    get(const std::string &key, const std::string &fallback) const
    {
        auto it = flags.find(key);
        return it == flags.end() ? fallback : it->second;
    }

    bool
    has(const std::string &key) const
    {
        return flags.count(key) != 0;
    }
};

ModelFamily
parseFamily(const std::string &name)
{
    if (name == "bert-base")
        return ModelFamily::BertBase;
    if (name == "bert-large")
        return ModelFamily::BertLarge;
    if (name == "distilbert")
        return ModelFamily::DistilBert;
    if (name == "roberta")
        return ModelFamily::RoBerta;
    if (name == "roberta-large")
        return ModelFamily::RoBertaLarge;
    usage(("unknown family: " + name).c_str());
}

CentroidMethod
parseMethod(const std::string &name)
{
    if (name == "gobo")
        return CentroidMethod::Gobo;
    if (name == "kmeans")
        return CentroidMethod::KMeans;
    if (name == "linear")
        return CentroidMethod::Linear;
    usage(("unknown method: " + name).c_str());
}

/**
 * Strict unsigned flag value via parseUint64Spec. The permissive
 * strtoull idiom this replaces turned "--seed banana" into seed 0 and
 * "--seed -1" into 2^64-1 without a word; a malformed value is a
 * usage error, not a silently different run.
 */
std::uint64_t
parseU64Flag(const Args &args, const std::string &key,
             const std::string &fallback)
{
    std::string text = args.get(key, fallback);
    auto v = parseUint64Spec(text.c_str());
    if (!v)
        usage(("--" + key + " wants an unsigned decimal integer, got '"
               + text + "'")
                  .c_str());
    return *v;
}

/**
 * Strict finite flag value via parseFiniteDouble (the trace-spec
 * grammar) plus an optional leading '-'. Like parseU64Flag, a
 * malformed value ("4000abc", "nan", "inf") is a usage error, not a
 * silently different run.
 */
double
parseDoubleFlag(const Args &args, const std::string &key,
                const std::string &fallback)
{
    std::string text = args.get(key, fallback);
    bool negative = text.rfind('-', 0) == 0;
    auto v = parseFiniteDouble(std::string_view(text).substr(negative));
    if (!v)
        usage(("--" + key + " wants a finite decimal number, got '" + text
               + "'")
                  .c_str());
    return negative ? -*v : *v;
}

/**
 * True for a GOBC container, false for a GOBM FP32 model; fatal for
 * anything else. Magic words are written as little-endian u32, so the
 * bytes on disk read "CBOG" or "MBOG".
 */
bool
isContainer(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    fatalIf(!is, "cannot open ", path);
    char magic[4] = {};
    is.read(magic, 4);
    fatalIf(!is, "cannot read ", path);
    bool container = std::memcmp(magic, "CBOG", 4) == 0;
    fatalIf(!container && std::memcmp(magic, "MBOG", 4) != 0, path,
            " is neither a GOBM model nor a GOBC container");
    return container;
}

/** An FP32 model from either file kind (a container decoded). */
BertModel
loadFp32Model(const std::string &path)
{
    return isContainer(path) ? loadCompressedModel(path) : loadModel(path);
}

/**
 * The session `--engine` names. fp32 runs the file's model in FP32.
 * qexec serves a container's own packed layers as stored, and
 * quantizes a GOBM model with the default options on ctx's threads.
 */
InferenceSession
openSession(const std::string &path, const std::string &engine,
            const ExecContext &ctx)
{
    if (engine == "fp32")
        return InferenceSession(loadFp32Model(path), ctx);
    if (engine != "qexec")
        usage(("unknown engine: " + engine).c_str());
    if (isContainer(path))
        return InferenceSession(loadPackedModel(path), ctx);
    ModelQuantOptions qopt;
    qopt.threads = ctx.threads;
    return InferenceSession(QuantizedBertModel(loadModel(path), qopt), ctx);
}

int
cmdGenerate(const Args &args)
{
    auto family = parseFamily(args.get("family", ""));
    std::string scale = args.get("scale", "mini");
    std::uint64_t seed = parseU64Flag(args, "seed", "42");
    std::string out = args.get("out", "");
    if (out.empty())
        usage("generate needs --out");

    ModelConfig cfg = scale == "full" ? fullConfig(family)
                                      : miniConfig(family);
    std::printf("generating %s (%zu encoders, hidden %zu, seed %llu)"
                "...\n",
                cfg.name.c_str(), cfg.numLayers, cfg.hidden,
                static_cast<unsigned long long>(seed));
    WallTimer timer;
    BertModel model = generateModel(cfg, seed);
    saveModel(out, model);
    std::printf("wrote %s (%.2f MiB) in %.1f s\n", out.c_str(),
                toMiB(std::filesystem::file_size(out)), timer.seconds());
    return 0;
}

int
cmdCompress(const Args &args)
{
    if (args.positional.empty())
        usage("compress needs an input model");
    std::string in = args.positional[0];
    std::string out = args.get("out", "");
    if (out.empty())
        usage("compress needs --out");

    ModelQuantOptions options;
    options.base.bits =
        static_cast<unsigned>(parseU64Flag(args, "bits", "3"));
    options.embeddingBits =
        static_cast<unsigned>(parseU64Flag(args, "embedding-bits", "4"));
    options.base.method = parseMethod(args.get("method", "gobo"));
    options.base.outlierThreshold =
        parseDoubleFlag(args, "threshold", "-4");
    options.threads =
        static_cast<std::size_t>(parseU64Flag(args, "threads", "0"));

    BertModel model = loadModel(in);
    WallTimer timer;
    auto report = saveCompressedModel(out, model, options);
    double secs = timer.seconds();

    ConsoleTable t({"Layer", "Bits", "Outliers", "KiB", "Iters"});
    for (const auto &l : report.layers)
        t.addRow({l.name, std::to_string(l.bits),
                  ConsoleTable::pct(100.0 * l.stats.outlierFraction, 3),
                  ConsoleTable::num(
                      static_cast<double>(l.payloadBytes) / 1024.0, 1),
                  std::to_string(l.stats.iterations)});
    t.print(std::cout);

    std::printf("\n%s -> %s in %.2f s\n", in.c_str(), out.c_str(), secs);
    std::printf("weights:    %.2f -> %.2f MiB (%.2fx)\n",
                toMiB(report.weightOriginalBytes),
                toMiB(report.weightPayloadBytes),
                report.weightCompressionRatio());
    std::printf("embeddings: %.2f -> %.2f MiB (%.2fx)\n",
                toMiB(report.embeddingOriginalBytes),
                toMiB(report.embeddingPayloadBytes),
                report.embeddingCompressionRatio());
    std::printf("total:      %.2fx  (file: %.2f MiB)\n",
                report.totalCompressionRatio(),
                toMiB(std::filesystem::file_size(out)));
    return 0;
}

int
cmdDecompress(const Args &args)
{
    if (args.positional.empty())
        usage("decompress needs an input container");
    std::string in = args.positional[0];
    std::string out = args.get("out", "");
    if (out.empty())
        usage("decompress needs --out");
    BertModel model = loadCompressedModel(in);
    saveModel(out, model);
    std::printf("decoded %s -> %s (%.2f MiB FP32)\n", in.c_str(),
                out.c_str(), toMiB(std::filesystem::file_size(out)));
    return 0;
}

int
cmdInspect(const Args &args)
{
    if (args.positional.empty())
        usage("inspect needs a file");
    std::string path = args.positional[0];
    bool is_container = isContainer(path);
    BertModel model = is_container ? loadCompressedModel(path)
                                   : loadModel(path);
    const auto &cfg = model.config();
    std::printf("%s: %s (%s)\n", path.c_str(),
                is_container ? "GOBC compressed container"
                             : "GOBM FP32 model",
                cfg.name.c_str());
    std::printf("  encoders %zu, hidden %zu, intermediate %zu, heads "
                "%zu\n",
                cfg.numLayers, cfg.hidden, cfg.intermediate,
                cfg.numHeads);
    std::printf("  vocab %zu, max position %zu, head outputs %zu\n",
                cfg.vocabSize, cfg.maxPosition, model.headW.rows());
    std::printf("  FC layers %zu (%zu weight params), parameters "
                "%zu\n",
                cfg.numFcLayers(), cfg.fcWeightParams(),
                model.parameterCount());
    std::printf("  file size %.2f MiB\n",
                toMiB(std::filesystem::file_size(path)));
    return 0;
}

int
cmdInfer(const Args &args)
{
    if (args.positional.empty())
        usage("infer needs a model file");
    std::string path = args.positional[0];

    // Execution flags: --threads 0 (the default) means
    // defaultThreads(), which honours GOBO_THREADS; 1 runs inline.
    ExecContext ctx = ExecContext::parallel(
        static_cast<std::size_t>(parseU64Flag(args, "threads", "0")));

    // SIMD kernel tier. Default: whatever the process resolved (cpuid
    // best, or GOBO_KERNEL — so the env override must not be shadowed
    // by pinning "native" here); an explicit flag pins this run's
    // context, fatal on a tier the CPU cannot run.
    const KernelSet &kernels = args.has("kernel")
                                   ? kernelsByName(args.get("kernel", ""))
                                   : activeKernels();
    ctx.kernels = &kernels;

    auto batch_size =
        static_cast<std::size_t>(parseU64Flag(args, "batch", "8"));
    auto seq_len =
        static_cast<std::size_t>(parseU64Flag(args, "seq-len", "32"));
    std::uint64_t seed = parseU64Flag(args, "seed", "42");
    std::string engine = args.get("engine", "fp32");
    if (batch_size == 0 || seq_len == 0)
        usage("batch and seq-len must be positive");

    // Observability: any of these flags attaches an Observer to the
    // context before the session captures it. The default (no flags)
    // keeps ctx.obs null, so the forward pass pays one untaken branch
    // per instrumentation site and nothing else.
    std::string trace_path = args.get("trace", "");
    std::string metrics_json_path = args.get("metrics-json", "");
    bool show_metrics = args.has("metrics");
    std::optional<Observer> observer;
    if (!trace_path.empty() || show_metrics || !metrics_json_path.empty()) {
        observer.emplace();
        ctx.obs = &*observer;
    }
    InferenceSession session = openSession(path, engine, ctx);
    const ModelConfig &cfg = session.config();
    fatalIf(seq_len > cfg.maxPosition, "seq-len ", seq_len,
            " exceeds maxPosition ", cfg.maxPosition);

    Rng rng(seed * 31 + 5);
    TokenBatch batch;
    for (std::size_t s = 0; s < batch_size; ++s) {
        std::vector<std::int32_t> seq;
        for (std::size_t t = 0; t < seq_len; ++t)
            seq.push_back(static_cast<std::int32_t>(
                rng.integer(0, static_cast<int>(cfg.vocabSize) - 1)));
        batch.push_back(std::move(seq));
    }

    std::printf("%s engine (%s weights, %.1f KiB resident), %zu threads,"
                " %s kernels, batch %zu x %zu tokens\n",
                engine.c_str(), engine == "qexec" ? "packed" : "fp32",
                toKiB(session.residentWeightBytes()), ctx.threads,
                kernels.name, batch_size, seq_len);
    WallTimer timer;
    auto logits = session.headLogitsBatch(batch);
    double secs = timer.seconds();

    for (std::size_t i = 0; i < logits.size(); ++i) {
        std::printf("seq %2zu: argmax %zu, logits [", i,
                    argmax(logits[i].flat()));
        for (std::size_t j = 0; j < logits[i].size(); ++j)
            std::printf("%s%.4f", j ? ", " : "", logits[i](j));
        std::printf("] hex [");
        for (std::size_t j = 0; j < logits[i].size(); ++j)
            std::printf("%s%a", j ? ", " : "", logits[i](j));
        std::puts("]");
    }
    std::printf("\n%.1f tokens/sec (%.1f ms for %zu tokens)\n",
                static_cast<double>(batch_size * seq_len) / secs,
                secs * 1e3, batch_size * seq_len);

    if (!trace_path.empty()) {
        std::ofstream os(trace_path, std::ios::binary);
        fatalIf(!os, "cannot write ", trace_path);
        writeChromeTrace(observer->tracer, os);
        std::printf("\nwrote %zu trace events to %s (open in "
                    "chrome://tracing or ui.perfetto.dev)\n",
                    observer->tracer.events().size(),
                    trace_path.c_str());
    }
    if (show_metrics || !metrics_json_path.empty()) {
        MetricsSnapshot snap = observer->metrics.snapshot();
        appendPoolCounters(snap, ThreadPool::shared().telemetry());
        appendTraceCounters(snap, observer->tracer);
        if (show_metrics) {
            std::puts("");
            printMetrics(snap, std::cout);

            auto spans = summarizeSpans(observer->tracer);
            ConsoleTable st({"Span", "Count", "Total ms", "Mean us"});
            for (const auto &s : spans)
                st.addRow({s.name, std::to_string(s.count),
                           ConsoleTable::num(s.totalUs / 1e3, 2),
                           ConsoleTable::num(s.meanUs, 1)});
            std::puts("");
            st.print(std::cout);
        }
        if (!metrics_json_path.empty()) {
            std::ofstream os(metrics_json_path, std::ios::binary);
            fatalIf(!os, "cannot write ", metrics_json_path);
            writeMetricsJson(snap, os);
            std::printf("\nwrote metrics JSON to %s\n",
                        metrics_json_path.c_str());
        }
    }
    return 0;
}

int
cmdAudit(const Args &args)
{
    if (args.positional.empty())
        usage("audit needs a model file");
    std::string path = args.positional[0];

    AuditOptions opt;
    opt.quant.base.bits =
        static_cast<unsigned>(parseU64Flag(args, "bits", "3"));
    opt.quant.embeddingBits =
        static_cast<unsigned>(parseU64Flag(args, "embedding-bits", "0"));
    opt.quant.base.method = parseMethod(args.get("method", "gobo"));
    opt.quant.base.outlierThreshold =
        parseDoubleFlag(args, "threshold", "-4");
    opt.sequences =
        static_cast<std::size_t>(parseU64Flag(args, "sequences", "4"));
    opt.seqLen =
        static_cast<std::size_t>(parseU64Flag(args, "seq-len", "32"));
    opt.seed = parseU64Flag(args, "seed", "42");
    if (opt.sequences == 0 || opt.seqLen == 0)
        usage("sequences and seq-len must be positive");

    // A container decodes to FP32 first; the audit then measures its
    // re-quantization under the requested settings.
    BertModel model = loadFp32Model(path);

    WallTimer timer;
    AuditReport report = auditModel(model, opt);
    double secs = timer.seconds();

    printAuditReport(report, std::cout);
    std::printf("\naudited %zu layers in %.2f s\n",
                report.fidelity.size(), secs);

    std::string json_path = args.get("json", "");
    if (!json_path.empty()) {
        std::ofstream os(json_path, std::ios::binary);
        fatalIf(!os, "cannot write ", json_path);
        writeAuditJson(report, os);
        std::printf("wrote audit JSON to %s\n", json_path.c_str());
    }
    return 0;
}

int
cmdServe(const Args &args)
{
    if (args.positional.empty())
        usage("serve needs a model file");
    std::string path = args.positional[0];

    std::string spec_text = args.get("trace", "");
    if (spec_text.empty())
        usage("serve needs --trace \"n=...,rate=...\" (a load spec, "
              "not a Chrome trace path — that is --trace-out)");
    auto spec = parseTraceSpec(spec_text);
    if (!spec)
        usage(("invalid trace spec: " + spec_text).c_str());

    // Execution stack flags, same shape as infer. Serving defaults to
    // the compressed-domain engine — the configuration the paper's
    // latency story is about.
    ExecContext ctx = ExecContext::parallel(
        static_cast<std::size_t>(parseU64Flag(args, "threads", "0")));
    const KernelSet &kernels = args.has("kernel")
                                   ? kernelsByName(args.get("kernel", ""))
                                   : activeKernels();
    ctx.kernels = &kernels;

    ServeOptions sopt;
    sopt.maxQueue =
        static_cast<std::size_t>(parseU64Flag(args, "max-queue", "256"));
    sopt.flushDeadlineUs = parseU64Flag(args, "flush-deadline-us",
                                        "20000");
    sopt.requestDeadlineUs = parseU64Flag(args, "deadline-us", "0");
    sopt.bandWidth =
        static_cast<std::size_t>(parseU64Flag(args, "band-width", "16"));
    sopt.serviceTokensPerSec =
        parseDoubleFlag(args, "service-rate", "4000");
    if (sopt.serviceTokensPerSec <= 0.0)
        usage("--service-rate must be positive");

    std::string trace_out = args.get("trace-out", "");
    std::string metrics_json_path = args.get("metrics-json", "");
    bool show_metrics = args.has("metrics");
    std::optional<Observer> observer;
    if (!trace_out.empty() || show_metrics
        || !metrics_json_path.empty()) {
        observer.emplace();
        ctx.obs = &*observer;
        sopt.obs = &*observer;
    }

    std::string engine = args.get("engine", "qexec");
    InferenceSession session = openSession(path, engine, ctx);
    const ModelConfig &cfg = session.config();
    fatalIf(spec->maxLen > cfg.maxPosition, "trace len max ",
            spec->maxLen, " exceeds maxPosition ", cfg.maxPosition);

    auto trace = generateTrace(*spec, cfg.vocabSize);

    ServeReportMeta meta;
    meta.trace = traceSpecString(*spec);
    meta.kernelTier = kernels.name;
    meta.threads = ctx.threads;
    meta.engine = engine;

    std::printf("serving trace %s\n", meta.trace.c_str());
    std::printf("%s engine (%s weights), %zu threads, %s kernels\n",
                engine.c_str(), engine == "qexec" ? "packed" : "fp32",
                ctx.threads, kernels.name);

    ServeServer server(session, sopt);
    const ServeSummary sum = server.runTrace(trace).summary;

    std::printf("\n%llu requests: %llu completed, %llu shed"
                " (overload %llu, deadline %llu)\n",
                static_cast<unsigned long long>(sum.requests),
                static_cast<unsigned long long>(sum.completed),
                static_cast<unsigned long long>(sum.shedOverload
                                                + sum.shedDeadline),
                static_cast<unsigned long long>(sum.shedOverload),
                static_cast<unsigned long long>(sum.shedDeadline));
    std::printf("%llu tiles dispatched, occupancy %.3f"
                " (%llu/%llu lanes)\n",
                static_cast<unsigned long long>(sum.batches),
                sum.tileOccupancy,
                static_cast<unsigned long long>(sum.lanesFilled),
                static_cast<unsigned long long>(sum.lanesTotal));
    ConsoleTable bt({"Band", "Len", "Requests", "Tiles", "Occupancy"});
    for (const auto &b : sum.bands)
        bt.addRow({std::to_string(b.band),
                   std::to_string(b.minLen) + ".."
                       + std::to_string(b.maxLen),
                   std::to_string(b.requests), std::to_string(b.batches),
                   ConsoleTable::num(b.occupancy, 3)});
    bt.print(std::cout);
    std::printf("\nvirtual latency   p50 %8.0f us  p95 %8.0f us"
                "  p99 %8.0f us\n",
                sum.latencyP50Us, sum.latencyP95Us, sum.latencyP99Us);
    std::printf("virtual queue     p50 %8.0f us  p95 %8.0f us"
                "  p99 %8.0f us\n",
                sum.queueWaitP50Us, sum.queueWaitP95Us,
                sum.queueWaitP99Us);
    std::printf("wall: %.2f s, %.0f tokens/sec (%llu tokens served)\n",
                sum.wallSeconds, sum.tokensPerSec,
                static_cast<unsigned long long>(sum.tokensServed));
    std::printf("response checksum 0x%016llx\n",
                static_cast<unsigned long long>(sum.responseChecksum));

    std::string json_path = args.get("json", "");
    if (!json_path.empty()) {
        std::ofstream os(json_path, std::ios::binary);
        fatalIf(!os, "cannot write ", json_path);
        // The server's options, not sopt: the stamp must record the
        // resolved tile width (the kernel tier's seqTile by default).
        writeServeJson(sum, server.options(), meta, os);
        std::printf("wrote serve JSON to %s\n", json_path.c_str());
    }
    if (!trace_out.empty()) {
        std::ofstream os(trace_out, std::ios::binary);
        fatalIf(!os, "cannot write ", trace_out);
        writeChromeTrace(observer->tracer, os);
        std::printf("wrote %zu trace events to %s\n",
                    observer->tracer.events().size(), trace_out.c_str());
    }
    if (show_metrics || !metrics_json_path.empty()) {
        MetricsSnapshot snap = observer->metrics.snapshot();
        appendPoolCounters(snap, ThreadPool::shared().telemetry());
        appendTraceCounters(snap, observer->tracer);
        if (show_metrics) {
            std::puts("");
            printMetrics(snap, std::cout);
        }
        if (!metrics_json_path.empty()) {
            std::ofstream os(metrics_json_path, std::ios::binary);
            fatalIf(!os, "cannot write ", metrics_json_path);
            writeMetricsJson(snap, os);
            std::printf("wrote metrics JSON to %s\n",
                        metrics_json_path.c_str());
        }
    }
    return 0;
}

/**
 * Host probe: which SIMD tiers this machine can run, each with its
 * sequence-tile width, plus the tier the process resolved (cpuid best
 * or GOBO_KERNEL). Machine-parsable one-liner per tier so CI can gate
 * matrix cells: `grep -q '^avx512 runnable' || skip`.
 */
int
cmdKernels(const Args &)
{
    struct
    {
        const char *name;
        const KernelSet *set;
    } tiers[] = {{"generic", &genericKernels()},
                 {"avx2", avx2Kernels()},
                 {"avx512", avx512Kernels()}};
    for (const auto &t : tiers) {
        if (t.set)
            std::printf("%-8s runnable seq_tile=%zu\n", t.name,
                        t.set->seqTile);
        else
            std::printf("%-8s unavailable\n", t.name);
    }
    std::printf("active: %s\n", activeKernels().name);
    return 0;
}

/** One subcommand: its entry point, the positional files it takes
 * (0 or 1) and every --flag it reads. */
struct Command
{
    const char *name;
    int (*run)(const Args &);
    std::size_t files;
    std::vector<std::string_view> flags;
};

const Command kCommands[] = {
    {"generate", cmdGenerate, 0, {"family", "scale", "seed", "out"}},
    {"compress",
     cmdCompress,
     1,
     {"out", "bits", "embedding-bits", "method", "threshold", "threads"}},
    {"decompress", cmdDecompress, 1, {"out"}},
    {"inspect", cmdInspect, 1, {}},
    {"infer",
     cmdInfer,
     1,
     {"batch", "seq-len", "threads", "kernel", "engine", "seed", "trace",
      "metrics", "metrics-json"}},
    {"audit",
     cmdAudit,
     1,
     {"bits", "embedding-bits", "method", "threshold", "sequences",
      "seq-len", "seed", "json"}},
    {"serve",
     cmdServe,
     1,
     {"trace", "threads", "kernel", "engine", "max-queue",
      "flush-deadline-us", "deadline-us", "band-width", "service-rate",
      "json", "metrics", "metrics-json", "trace-out"}},
    {"kernels", cmdKernels, 0, {}},
};

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    std::string cmd = argv[1];
    const Command *command = nullptr;
    for (const Command &c : kCommands)
        if (cmd == c.name)
            command = &c;
    if (!command)
        usage(("unknown command: " + cmd).c_str());
    Args args = Args::parse(argc, argv, 2, command->name, command->flags,
                            command->files);
    try {
        return command->run(args);
    } catch (const gobo::FatalError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    } catch (const std::exception &e) {
        // Anything else a command throws, e.g. a std::filesystem error.
        std::fprintf(stderr, "error: bad argument (%s)\n", e.what());
        return 2;
    }
}
