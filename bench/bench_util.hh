/**
 * @file
 * Shared plumbing for the experiment binaries: flag parsing and the
 * build-task / quantize / evaluate cycle every accuracy table uses.
 *
 * Every bench accepts:
 *   --seed N      experiment seed (default 42)
 *   --fast        shrink evaluation sets ~4x for quick smoke runs
 */

#ifndef GOBO_BENCH_BENCH_UTIL_HH
#define GOBO_BENCH_BENCH_UTIL_HH

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "core/quantizer.hh"
#include "exec/context.hh"
#include "exec/threadpool.hh"
#include "model/generate.hh"
#include "task/task.hh"

namespace gobo::bench {

/** Parsed common flags. */
struct Options
{
    std::uint64_t seed = 42;
    bool fast = false;
};

inline Options
parseOptions(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (std::strcmp(argv[i], "--fast") == 0) {
            opt.fast = true;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--seed N] [--fast]\n", argv[0]);
            std::exit(2);
        }
    }
    return opt;
}

/** A fine-tuned mini model with its labelled evaluation set. */
struct TaskSetup
{
    BertModel model;
    Dataset data;
    double baseline = 0.0;
};

/**
 * Generate the family's mini model, fine-tune it for the task (head +
 * noisy-teacher labels), and score the FP32 baseline.
 */
inline TaskSetup
makeTask(ModelFamily family, TaskKind kind, const Options &opt)
{
    auto cfg = miniConfig(family);
    BertModel model = generateModel(cfg, opt.seed);
    TaskSpec spec = defaultSpec(kind, family, opt.seed);
    if (opt.fast)
        spec.numExamples = std::max<std::size_t>(100,
                                                 spec.numExamples / 4);
    Dataset data = buildTask(model, spec);
    // Parallel across examples; bit-identical to a serial evaluate.
    double baseline = evaluate(ExecContext::parallel(), model, data);
    return {std::move(model), std::move(data), baseline};
}

/** Quantize a copy of the setup's model and score it. */
inline double
evalQuantized(const TaskSetup &setup, const ModelQuantOptions &options)
{
    BertModel copy = setup.model;
    quantizeModelInPlace(copy, options);
    return evaluate(ExecContext::parallel(), copy, setup.data);
}

/** Convenience: uniform-bits options with a method. */
inline ModelQuantOptions
uniformOptions(unsigned bits, CentroidMethod method,
               unsigned embedding_bits = 0)
{
    ModelQuantOptions opt;
    opt.base.bits = bits;
    opt.base.method = method;
    opt.embeddingBits = embedding_bits;
    // Benches use every core; results are bit-identical to serial
    // (micro_quantizer measures the single-core claim separately).
    opt.threads = defaultThreads();
    return opt;
}

/** "32-bit over B-bit" potential compression ratio column. */
inline double
potentialRatio(unsigned bits)
{
    return 32.0 / static_cast<double>(bits);
}

} // namespace gobo::bench

#endif // GOBO_BENCH_BENCH_UTIL_HH
