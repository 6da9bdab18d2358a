#include "serve/loadgen.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace gobo {

namespace {

/**
 * Inverse CDF of Exp(1) tabulated at k/64, k = 0..63, with the tail
 * clamped at -ln(1/256) ≈ 5.545 (a draw can never exceed ~5.5 mean
 * gaps). Sampling interpolates linearly between adjacent entries —
 * additions and multiplications only, so unlike -log(u) the draw is
 * bit-identical across libm implementations. The clamp shaves a hair
 * off the true mean of 1; for a load generator the shape is what
 * matters, and the shape is documented by this table.
 */
constexpr double kExpInvCdf[65] = {
    0.0, 0.015748356968139168, 0.0317486983145803,
    0.048009219186360606, 0.06453852113757118, 0.0813456394539524,
    0.09844007281325252, 0.1158318155251217, 0.13353139262452263,
    0.15154989812720093, 0.16989903679539747, 0.18859116980755003,
    0.2076393647782445, 0.22705745063534608, 0.24686007793152578,
    0.26706278524904525, 0.2876820724517809, 0.3087354816496133,
    0.33024168687057687, 0.3522205935893521, 0.3746934494414107,
    0.39768296766610944, 0.42121346507630353, 0.44531101665536404,
    0.4700036292457356, 0.4953214372300254, 0.5212969236332861,
    0.5479651707154474, 0.5753641449035618, 0.6035350218702582,
    0.6325225587435105, 0.6623755218931916, 0.6931471805599453,
    0.7248958788745256, 0.7576857016975165, 0.7915872533731978,
    0.8266785731844679, 0.8630462173553428, 0.9007865453381898,
    0.9400072584914712, 0.9808292530117262, 1.0233888674305223,
    1.067840630001356, 1.114360645636249, 1.1631508098056809,
    1.2144441041932315, 1.2685113254635072, 1.3256697393034558,
    1.3862943611198906, 1.4508328822574619, 1.5198257537444133,
    1.5939337258981352, 1.6739764335716716, 1.7609878105613013,
    1.8562979903656263, 1.9616585060234524, 2.0794415416798357,
    2.2129729343043585, 2.367123614131617, 2.5494451709255714,
    2.772588722239781, 3.0602707946915624, 3.4657359027997265,
    4.1588830833596715, 5.545177444479562,
};

/** Exp(1) draw from a uniform u in [0, 1) via the table above. */
double
expDraw(double u)
{
    double x = u * 64.0;
    auto k = static_cast<std::size_t>(x);
    if (k >= 64)
        k = 63;
    return kExpInvCdf[k]
           + (kExpInvCdf[k + 1] - kExpInvCdf[k]) * (x - static_cast<double>(k));
}

/** Strict full-string u64 parse: digits only, no overflow. */
std::optional<std::uint64_t>
parseU64(std::string_view text)
{
    if (text.empty())
        return std::nullopt;
    std::uint64_t v = 0;
    auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), v, 10);
    if (ec != std::errc{} || ptr != text.data() + text.size())
        return std::nullopt;
    return v;
}

} // namespace

std::optional<double>
parseFiniteDouble(std::string_view text)
{
    if (text.empty())
        return std::nullopt;
    // std::from_chars for double is not universally available in
    // libstdc++'s older dialects; strtod with a bounded copy keeps the
    // same strictness (whole string or nothing).
    std::string buf(text);
    // Reject what strtod would accept beyond that grammar: leading
    // signs or whitespace, "inf"/"nan", and hex floats ("0x1p3").
    if ((buf[0] != '.' && (buf[0] < '0' || buf[0] > '9'))
        || buf.find_first_not_of("0123456789.eE+-") != std::string::npos)
        return std::nullopt;
    char *end = nullptr;
    double v = std::strtod(buf.c_str(), &end);
    if (end != buf.c_str() + buf.size() || !(v == v)
        || v > 1e300 || v < -1e300)
        return std::nullopt;
    return v;
}

std::optional<TraceSpec>
parseTraceSpec(std::string_view text)
{
    TraceSpec spec;
    if (text.empty())
        return std::nullopt;
    while (!text.empty()) {
        std::size_t comma = text.find(',');
        std::string_view pair = text.substr(0, comma);
        text = comma == std::string_view::npos
                   ? std::string_view{}
                   : text.substr(comma + 1);
        std::size_t eq = pair.find('=');
        if (eq == std::string_view::npos)
            return std::nullopt;
        std::string_view key = pair.substr(0, eq);
        std::string_view val = pair.substr(eq + 1);
        if (key == "n") {
            auto v = parseU64(val);
            if (!v || *v == 0 || *v > 10'000'000)
                return std::nullopt;
            spec.requests = static_cast<std::size_t>(*v);
        } else if (key == "seed") {
            auto v = parseU64(val);
            if (!v)
                return std::nullopt;
            spec.seed = *v;
        } else if (key == "rate") {
            auto v = parseFiniteDouble(val);
            if (!v || *v <= 0.0)
                return std::nullopt;
            spec.ratePerSec = *v;
        } else if (key == "len") {
            std::size_t colon = val.find(':');
            if (colon == std::string_view::npos)
                return std::nullopt;
            auto lo = parseU64(val.substr(0, colon));
            auto hi = parseU64(val.substr(colon + 1));
            if (!lo || !hi || *lo == 0 || *hi < *lo || *hi > 1'000'000)
                return std::nullopt;
            spec.minLen = static_cast<std::size_t>(*lo);
            spec.maxLen = static_cast<std::size_t>(*hi);
        } else if (key == "long") {
            auto v = parseFiniteDouble(val);
            if (!v || *v < 0.0 || *v > 1.0)
                return std::nullopt;
            spec.longFraction = *v;
        } else if (key == "burst") {
            std::size_t x = val.find('x');
            if (x == std::string_view::npos)
                return std::nullopt;
            auto factor = parseFiniteDouble(val.substr(0, x));
            auto duty = parseFiniteDouble(val.substr(x + 1));
            if (!factor || *factor < 1.0 || !duty || *duty < 0.0
                || *duty > 1.0)
                return std::nullopt;
            spec.burstFactor = *factor;
            spec.burstDuty = *duty;
        } else if (key == "period") {
            auto v = parseU64(val);
            if (!v || *v == 0)
                return std::nullopt;
            spec.burstPeriodUs = *v;
        } else {
            return std::nullopt;
        }
    }
    return spec;
}

std::string
traceSpecString(const TraceSpec &spec)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "n=%zu,seed=%llu,rate=%g,len=%zu:%zu,long=%g,"
                  "burst=%gx%g,period=%llu",
                  spec.requests,
                  static_cast<unsigned long long>(spec.seed),
                  spec.ratePerSec, spec.minLen, spec.maxLen,
                  spec.longFraction, spec.burstFactor, spec.burstDuty,
                  static_cast<unsigned long long>(spec.burstPeriodUs));
    return buf;
}

std::vector<TraceRequest>
generateTrace(const TraceSpec &spec, std::size_t vocab)
{
    std::vector<TraceRequest> trace;
    trace.reserve(spec.requests);

    Xoshiro256pp stream(spec.seed);
    double clockUs = 0.0;
    std::size_t halfSpan = (spec.maxLen - spec.minLen) / 2;
    for (std::size_t i = 0; i < spec.requests; ++i) {
        // Arrival: exponential inter-arrival at the effective rate. The
        // burst window is evaluated at the previous arrival's clock, so
        // the draw sequence stays a pure function of the spec.
        double rate = spec.ratePerSec;
        if (spec.burstDuty > 0.0 && spec.burstFactor > 1.0) {
            double phase = clockUs
                           - static_cast<double>(spec.burstPeriodUs)
                                 * std::floor(
                                     clockUs
                                     / static_cast<double>(
                                         spec.burstPeriodUs));
            if (phase < spec.burstDuty
                            * static_cast<double>(spec.burstPeriodUs))
                rate *= spec.burstFactor;
        }
        clockUs += expDraw(stream.nextDouble()) / rate * 1e6;

        // Length: lower band [minLen, minLen + halfSpan] or upper band
        // (minLen + halfSpan, maxLen], chosen by longFraction.
        bool upper = stream.nextDouble() < spec.longFraction
                     && halfSpan + spec.minLen < spec.maxLen;
        std::size_t lo = upper ? spec.minLen + halfSpan + 1 : spec.minLen;
        std::size_t hi = upper ? spec.maxLen : spec.minLen + halfSpan;
        std::size_t len = lo + stream.next() % (hi - lo + 1);

        TraceRequest req;
        req.id = i;
        req.arrivalUs = static_cast<std::uint64_t>(clockUs);
        // Token content from a per-request stream keyed by (seed, id):
        // independent of the arrival/length draw order, so a request's
        // tokens are reproducible in isolation.
        SplitMix64 tok(mix64(spec.seed ^ (i + 1) * 0x9e3779b97f4a7c15ULL));
        req.tokens.reserve(len);
        for (std::size_t t = 0; t < len; ++t)
            req.tokens.push_back(static_cast<std::int32_t>(
                tok.next() % static_cast<std::uint64_t>(vocab)));
        trace.push_back(std::move(req));
    }
    return trace;
}

} // namespace gobo
