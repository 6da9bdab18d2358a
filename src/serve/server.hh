/**
 * @file
 * Continuous-batching admission layer in front of InferenceSession.
 *
 * Requests enter an admission queue, a batch former coalesces them
 * into sequence tiles — tileLanes lanes (the executing kernel tier's
 * seqTile by default: 8 for generic/avx2, 16 for avx512), grouped by
 * length band so a tile never mixes a 3-token probe with a 500-token
 * document — and
 * each tile is dispatched as one batched forward. A band flushes when
 * its tile fills or when its oldest request has waited
 * `flushDeadlineUs`, whichever comes first; under overload the server
 * sheds instead of queuing unboundedly (`maxQueue` bound, explicit
 * ShedOverload status) and drops requests whose queue wait already
 * blew their deadline (ShedDeadline) rather than burning service time
 * on an answer nobody is waiting for.
 *
 * Determinism is the design center: queue dynamics run in *virtual*
 * time. Arrivals come timestamped by the trace, and service occupancy
 * advances by a configured token-rate model, so batch composition,
 * shed decisions, and virtual latency quantiles are pure functions of
 * (trace, options) — bit-identical across machines, thread counts,
 * and kernel tiers (they never read a logit). The actual forward passes
 * still execute for real on the session's backend; their wall-clock
 * times feed separate (non-deterministic) histograms. Replaying the
 * same trace against a serial session one request at a time must
 * reproduce every Ok response's logits exactly — the batched forward
 * is bit-identical to one-at-a-time calls by the session contract —
 * and tests/test_serve.cc pins that.
 *
 * SLO tracking runs through the obs layer: each run fills its own
 * latency/queue-wait/exec histograms, which set the summary quantiles,
 * and mirrors counters and the serve.admit / serve.batch / serve.shed
 * span taxonomy onto an attached Observer.
 */

#ifndef GOBO_SERVE_SERVER_HH
#define GOBO_SERVE_SERVER_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "exec/session.hh"
#include "serve/loadgen.hh"
#include "tensor/tensor.hh"

namespace gobo {

class Observer;

/** Terminal state of one request. */
enum class ServeStatus
{
    Ok,           ///< executed; logits populated.
    ShedOverload, ///< rejected at admission: queue at maxQueue.
    ShedDeadline, ///< dropped at dispatch: queue wait blew the deadline.
};

/** Printable status name. */
const char *serveStatusName(ServeStatus s);

/** One request's outcome. Latencies are virtual-time (deterministic). */
struct ServeResponse
{
    std::uint64_t id = 0;
    ServeStatus status = ServeStatus::ShedOverload;
    Tensor logits;                  ///< empty unless status == Ok.
    std::uint64_t queueWaitUs = 0;  ///< admission -> dispatch.
    std::uint64_t latencyUs = 0;    ///< admission -> completion.
};

/** Admission/batching policy plus the virtual service model. */
struct ServeOptions
{
    /** Requests allowed in the system (queued + in service) before
     * admission sheds with ShedOverload. */
    std::size_t maxQueue = 256;
    /** Max virtual wait of a band's oldest request before a partial
     * tile flushes anyway. */
    std::uint64_t flushDeadlineUs = 20000;
    /** Per-request SLO: shed at dispatch once queue wait exceeds this.
     * 0 disables deadline shedding. */
    std::uint64_t requestDeadlineUs = 0;
    /** Lanes per dispatch tile. 0 (the default) resolves to the
     * executing kernel tier's KernelSet::seqTile (the tokens one
     * lutDot call takes) at server construction; the resolved
     * value is what gets stamped into the options JSON. */
    std::size_t tileLanes = 0;
    /** Length-band granularity: band = (len - 1) / bandWidth. */
    std::size_t bandWidth = 16;
    /** Virtual service model: tokens per second one server drains. */
    double serviceTokensPerSec = 4000.0;
    /** Virtual fixed cost per dispatched tile. */
    std::uint64_t batchOverheadUs = 200;
    /** Unused: nothing reads it. Kept only so existing callers that
     * assign it still compile; remove with them. */
    std::size_t recorderCapacity = 0;
    /** Span/counter sink; null disables the serve.* span taxonomy. */
    Observer *obs = nullptr;
};

/** Per-band occupancy accounting for one run. */
struct ServeBandStats
{
    std::size_t band = 0;
    std::size_t minLen = 0; ///< smallest length this band covers.
    std::size_t maxLen = 0; ///< largest length this band covers.
    std::uint64_t requests = 0;
    std::uint64_t batches = 0;
    /** requests / (batches * tileLanes): 1.0 = every lane useful. */
    double occupancy = 0.0;
};

/** Deterministic + measured outcomes of one trace run. */
struct ServeSummary
{
    std::uint64_t requests = 0;
    std::uint64_t completed = 0;
    std::uint64_t shedOverload = 0;
    std::uint64_t shedDeadline = 0;
    std::uint64_t batches = 0;
    std::uint64_t lanesFilled = 0;
    std::uint64_t lanesTotal = 0;
    /** lanesFilled / lanesTotal across all dispatched tiles. */
    double tileOccupancy = 0.0;
    std::vector<ServeBandStats> bands;

    // Virtual-time quantiles (deterministic, from the obs histograms).
    double latencyP50Us = 0.0, latencyP95Us = 0.0, latencyP99Us = 0.0;
    double queueWaitP50Us = 0.0, queueWaitP95Us = 0.0,
           queueWaitP99Us = 0.0;

    // Wall-clock execution measurements (machine-dependent).
    double execP50Us = 0.0, execP95Us = 0.0, execP99Us = 0.0;
    std::uint64_t tokensServed = 0;
    double wallSeconds = 0.0;
    double tokensPerSec = 0.0;

    /** Digest over (id, status, logits bits) of every response,
     * folded in request-id order so completion order is invisible:
     * the replay-identity gate the serve golden pins. Stable across
     * thread counts — but only within a kernel
     * tier: the fp32 task head behind headLogits reassociates on AVX2
     * (DESIGN.md §11), so the logit bits (and this digest) differ
     * across tiers even for quantized engines. The golden therefore
     * pins the generic tier. */
    std::uint64_t responseChecksum = 0;
};

/** Everything runTrace() produces. */
struct ServeRun
{
    /** One response per trace request, indexed by request id. */
    std::vector<ServeResponse> responses;
    ServeSummary summary;
};

/**
 * The serving loop bound to one session. The session's ExecContext
 * decides how each dispatched tile executes (threads, kernel tier);
 * the server only decides *what* gets batched together and when —
 * decisions it makes in virtual time (see file comment).
 */
class ServeServer
{
  public:
    /** `session` must outlive the server. Fatal on a tile width, band
     * width or queue bound of 0, or a service rate that is not finite
     * and positive. */
    ServeServer(const InferenceSession &session, ServeOptions options);

    /**
     * Run a trace to completion: admit every request in arrival order,
     * flush deadline-expired tiles as virtual time advances, and drain
     * every queued request at the end — shutdown loses nothing, and
     * each request id gets exactly one response. Runs share no state:
     * the same trace gives the same summary on a fresh or a reused
     * server.
     */
    ServeRun runTrace(const std::vector<TraceRequest> &trace);

    /** The options the server actually runs under — defaults resolved
     * (tileLanes = the kernel tier's seqTile). Pass *these* to the
     * JSON writers, never the caller's pre-construction copy: the
     * stamp exists so diffs refuse across different geometry, and an
     * unresolved 0 would make different tile widths compare equal. */
    const ServeOptions &options() const { return opt; }

  private:
    const InferenceSession &session;
    ServeOptions opt;
};

/** Fold one response into a running checksum (see
 * ServeSummary::responseChecksum); exposed for replay tests. */
std::uint64_t foldResponseChecksum(std::uint64_t h,
                                   const ServeResponse &r);

/** Execution-environment stamp for the serve JSON report; diff
 * tooling refuses to compare reports whose stamps differ. */
struct ServeReportMeta
{
    std::string trace;      ///< canonical spec string (traceSpecString).
    std::string kernelTier; ///< resolved SIMD tier name.
    std::size_t threads = 1;
    std::string engine; ///< "qexec" or "fp32".
};

/**
 * Write the serve report (`gobo serve --json`): environment stamp,
 * admission options, and the summary (deterministic virtual-time fields
 * plus the machine-dependent wall-clock ones). Undefined quantiles (empty
 * histograms) are emitted as JSON null; the response checksum as a hex
 * string so 64-bit exactness survives JSON number parsing.
 */
void writeServeJson(const ServeSummary &sum, const ServeOptions &opt,
                    const ServeReportMeta &meta, std::ostream &os);

} // namespace gobo

#endif // GOBO_SERVE_SERVER_HH
