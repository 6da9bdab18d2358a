/**
 * @file
 * Trace-driven load generator for the serving daemon.
 *
 * A trace is a fully deterministic function of its spec: SplitMix64
 * seeds a xoshiro256++ stream for arrivals and lengths, every request's
 * token content comes from its own SplitMix64 stream keyed by (seed,
 * id), and the exponential inter-arrival draw goes through an embedded
 * inverse-CDF table instead of libm's log() — basic IEEE arithmetic is
 * correctly rounded everywhere, so the same spec produces the same
 * trace byte for byte on every platform. That is what makes a
 * 100k-request soak a replayable CI scenario rather than a demo: the
 * serve golden in tests/test_serve.cc pins shed counts and the
 * response checksum exactly.
 *
 * The spec grammar is strict (parseTraceSpec): unknown keys, trailing
 * junk, or out-of-range values are rejected, never guessed at.
 */

#ifndef GOBO_SERVE_LOADGEN_HH
#define GOBO_SERVE_LOADGEN_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gobo {

/**
 * SplitMix64 — the seeding/hashing generator (Steele et al.). One
 * 64-bit state word, invertible finalizer, passes BigCrush; the
 * standard way to expand one seed into independent streams.
 */
struct SplitMix64
{
    std::uint64_t state;

    explicit SplitMix64(std::uint64_t seed) : state(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
};

/** One stateless SplitMix64 finalization step — a 64-bit mixer for
 * checksums and per-request stream keys. */
inline std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * xoshiro256++ (Blackman & Vigna) — the trace's main stream. Seeded
 * through SplitMix64 so a zero or small seed still yields a
 * well-mixed state.
 */
class Xoshiro256pp
{
  public:
    explicit Xoshiro256pp(std::uint64_t seed)
    {
        SplitMix64 sm(seed);
        for (auto &w : s)
            w = sm.next();
    }

    std::uint64_t
    next()
    {
        std::uint64_t result = rotl(s[0] + s[3], 23) + s[0];
        std::uint64_t t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        return result;
    }

    /** Uniform double in [0, 1) from the top 53 bits. */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s[4];
};

/** One generated request: virtual arrival time plus its tokens. */
struct TraceRequest
{
    std::uint64_t id = 0;
    std::uint64_t arrivalUs = 0; ///< virtual arrival timestamp.
    std::vector<std::int32_t> tokens;
};

/**
 * Everything that determines a trace. Arrivals are a Poisson-like
 * process at `ratePerSec`, optionally modulated by a periodic burst
 * pattern: for the first `burstDuty` fraction of every
 * `burstPeriodUs` window the rate is multiplied by `burstFactor`.
 * Sequence lengths draw from two uniform bands — the lower half of
 * [minLen, maxLen] with probability 1 - longFraction, the upper half
 * otherwise — which is enough to make length-band batch formation and
 * tile occupancy mean something.
 */
struct TraceSpec
{
    std::size_t requests = 1000;
    std::uint64_t seed = 42;
    double ratePerSec = 300.0;
    std::size_t minLen = 1;
    std::size_t maxLen = 32;
    double longFraction = 0.25;
    double burstFactor = 1.0;
    double burstDuty = 0.0;
    std::uint64_t burstPeriodUs = 200000;
};

/**
 * Parse a trace spec string: comma-separated key=value pairs, all
 * optional, every value checked with no trailing junk accepted.
 *
 *   n=100000        requests (1 .. 10^7)
 *   seed=7          stream seed (any u64)
 *   rate=300        mean arrivals per second (> 0)
 *   len=1:64        sequence length range (1 <= min <= max)
 *   long=0.25       fraction drawn from the upper length band [0, 1]
 *   burst=4x0.2     burst rate factor (>= 1) x duty fraction [0, 1]
 *   period=200000   burst period in microseconds (> 0)
 *
 * Returns nullopt on any violation — an unparsable load scenario must
 * never silently degrade into a different one.
 */
std::optional<TraceSpec> parseTraceSpec(std::string_view text);

/**
 * Strict full-string finite double: a plain non-negative decimal
 * (digits, '.', exponent) with no sign, whitespace, "inf"/"nan" or
 * trailing junk. The grammar of every fractional trace-spec value;
 * the CLI's numeric flags use it too.
 */
std::optional<double> parseFiniteDouble(std::string_view text);

/** Canonical spec string (parses back to the same spec); stamped into
 * the serve reports so a reader knows which scenario produced them. */
std::string traceSpecString(const TraceSpec &spec);

/**
 * Generate the trace: `spec.requests` requests sorted by arrival time,
 * token ids uniform in [0, vocab). Deterministic in (spec, vocab).
 */
std::vector<TraceRequest> generateTrace(const TraceSpec &spec,
                                        std::size_t vocab);

} // namespace gobo

#endif // GOBO_SERVE_LOADGEN_HH
