/**
 * @file
 * Request-lifecycle flight recorder and windowed time-series telemetry.
 *
 * End-of-run aggregates (obs/metrics) answer "how did the run go";
 * they cannot answer "when did the queue saturate" or "which requests
 * were shed at 14:02". This layer adds the time axis, in *virtual*
 * time so everything stays deterministic and exactly gateable:
 *
 *  - A **flight recorder**: every request's terminal lifecycle record
 *    (arrival/admit/dispatch/complete timestamps, band, lane, batch
 *    id, queue wait, shed cause) lands in a bounded ring buffer. The
 *    last N records are always retrievable, and shed requests are
 *    additionally pinned in their own ring so a postmortem can see
 *    every recent shed's full lifecycle even after thousands of Ok
 *    responses have rolled the main ring over. The serve loop is the
 *    single writer, so recording is a cursor bump and a slot copy —
 *    no lock, no allocation past the up-front reserve.
 *
 *  - A **timeline builder**: lifecycle events accumulate into
 *    fixed-width virtual-time windows — per-window arrival/admission/
 *    completion/shed counts, dispatched tiles and lane occupancy,
 *    virtual tokens/sec, time-weighted mean queue depth, and p50/p99
 *    queue wait through the same bucket-interpolation machinery the
 *    metrics histograms use. The series is a pure function of the
 *    event stream, which for the serve layer is a pure function of
 *    (trace, options): byte-identical across machines, backends
 *    and thread counts, so a test can pin it exactly. Events may be
 *    emitted out of time order (a tile's completion is known at
 *    dispatch); build() orders them by (timestamp, emission seq),
 *    which reproduces the server's completions-retire-before-dispatch
 *    tie-break.
 */

#ifndef GOBO_OBS_TIMELINE_HH
#define GOBO_OBS_TIMELINE_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

namespace gobo {

/** Why a request never produced logits. */
enum class ShedCause : std::uint8_t
{
    None,     ///< completed normally.
    Overload, ///< rejected at admission (queue at maxQueue).
    Deadline, ///< dropped at dispatch (queue wait blew the deadline).
};

/** Printable shed-cause name ("none" / "overload" / "deadline"). */
const char *shedCauseName(ShedCause c);

/** Timestamp value meaning "this lifecycle stage never happened". */
inline constexpr std::uint64_t kNeverUs = UINT64_MAX;

/** One request's complete lifecycle, written at its terminal event. */
struct RequestRecord
{
    std::uint64_t id = 0;
    std::uint32_t band = 0;   ///< length band, (len - 1) / bandWidth.
    std::uint32_t lane = UINT32_MAX; ///< lane in its tile; ~0 if shed.
    std::int64_t batchId = -1;       ///< dispatch tile id; -1 if shed
                                     ///< before dispatch.
    std::uint32_t tokens = 0;        ///< sequence length.
    std::uint64_t arrivalUs = 0;     ///< trace arrival (virtual).
    std::uint64_t admitUs = kNeverUs;    ///< admission; never if
                                         ///< overload-shed.
    std::uint64_t dispatchUs = kNeverUs; ///< tile dispatch; never if
                                         ///< shed before one.
    std::uint64_t completeUs = kNeverUs; ///< service completion.
    std::uint64_t queueWaitUs = 0;
    ShedCause shed = ShedCause::None;
};

/**
 * Bounded ring of terminal RequestRecords. Two rings: the tail ring
 * holds the last `capacity` records of any outcome; the shed ring
 * pins the last `shedCapacity` shed records so they survive being
 * rolled out of the tail by later completions. Single-writer by
 * design (the serve loop); readers call tail() after the run.
 * Capacity 0 disables recording entirely (record() is a branch).
 */
class FlightRecorder
{
  public:
    FlightRecorder(std::size_t capacity, std::size_t shedCapacity);

    bool enabled() const { return capacity != 0; }

    /** Append one terminal record (no-op when disabled). */
    void record(const RequestRecord &r);

    /** Lifecycle records ever handed to record(). */
    std::uint64_t recorded() const { return total; }

    /**
     * Every still-retrievable record — the tail ring merged with the
     * pinned shed ring, deduplicated by request id (a record rolled
     * out of the tail may survive in the shed ring), sorted by id.
     */
    std::vector<RequestRecord> tail() const;

  private:
    std::size_t capacity;
    std::size_t shedCapacity;
    std::vector<RequestRecord> ring;     ///< tail ring, cursor-indexed.
    std::vector<RequestRecord> shedRing; ///< pinned shed records.
    std::size_t cursor = 0;
    std::size_t shedCursor = 0;
    std::uint64_t total = 0;
};

/** Windowing policy for the time series. */
struct TimelineOptions
{
    /** Virtual width of one aggregation window. */
    std::uint64_t windowUs = 1000000;
    /**
     * Upper bound on emitted windows — the series must stay bounded
     * no matter how long the trace runs. Events past the cap fold
     * into the final window (and the series marks itself clamped).
     */
    std::size_t maxWindows = 4096;
};

/** Aggregates for one virtual-time window [startUs, startUs + width). */
struct TimelineWindow
{
    std::uint64_t index = 0;
    std::uint64_t startUs = 0;
    std::uint64_t arrivals = 0;
    std::uint64_t admitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t shedOverload = 0;
    std::uint64_t shedDeadline = 0;
    std::uint64_t batches = 0;     ///< tiles dispatched this window.
    std::uint64_t lanesFilled = 0;
    std::uint64_t lanesTotal = 0;
    std::uint64_t tokens = 0; ///< tokens in tiles *completing* here.
    /** Virtual throughput: tokens / window width. */
    double tokensPerSec = 0.0;
    /** Time-weighted mean of in-system requests over the window. */
    double meanQueueDepth = 0.0;
    /** lanesFilled / lanesTotal; 0 when nothing dispatched. */
    double occupancy = 0.0;
    /** Queue-wait quantiles of completions in this window, via the
     * metrics bucket interpolation; NaN when nothing completed. */
    double queueWaitP50Us = 0.0;
    double queueWaitP99Us = 0.0;
};

/** The built series: every window from virtual t=0 to the last event. */
struct TimelineSeries
{
    std::uint64_t windowUs = 0;
    std::vector<TimelineWindow> windows;
    /** Virtual timestamp of the last event folded in. */
    std::uint64_t spanUs = 0;
    /** True when maxWindows clipped the tail into the last window. */
    bool clamped = false;
};

/**
 * Accumulates lifecycle events and builds the windowed series. All
 * timestamps are virtual; emission order need not be time order (see
 * file comment). Depth bookkeeping: admit() is +1, shedDeadline() and
 * complete() are -1, shedOverload() never entered the queue.
 */
class TimelineBuilder
{
  public:
    explicit TimelineBuilder(TimelineOptions opt);

    void arrival(std::uint64_t tUs);
    void admit(std::uint64_t tUs);
    void shedOverload(std::uint64_t tUs);
    void shedDeadline(std::uint64_t tUs);
    void dispatch(std::uint64_t tUs, std::size_t lanesFilled,
                  std::size_t lanesTotal);
    /** One request's service completion, with its virtual queue wait. */
    void complete(std::uint64_t tUs, std::uint64_t queueWaitUs);
    /** One tile's service completion, carrying its token count. */
    void batchComplete(std::uint64_t tUs, std::uint64_t tokens);

    /** Order events, integrate queue depth, emit every window. */
    TimelineSeries build() const;

  private:
    enum class Kind : std::uint8_t
    {
        Arrival,
        Admit,
        ShedOverload,
        ShedDeadline,
        Dispatch,
        Complete,
        BatchComplete,
    };

    struct Event
    {
        std::uint64_t tUs;
        std::uint64_t seq; ///< emission order, the time tie-break.
        Kind kind;
        std::uint64_t a = 0; ///< lanesFilled / queueWaitUs / tokens.
        std::uint64_t b = 0; ///< lanesTotal.
    };

    void push(Kind kind, std::uint64_t tUs, std::uint64_t a = 0,
              std::uint64_t b = 0);

    TimelineOptions opt;
    std::vector<Event> events;
};

/**
 * Serialize the windows array as JSON (an array of window objects,
 * one per line, `indent` spaces deep). Shared by the serve report's
 * `timeline` block and the standalone gobo-timeline-v1 document so
 * the two can never drift. NaN quantiles become null.
 */
void writeTimelineWindows(const TimelineSeries &series, std::ostream &os,
                          int indent);

/**
 * Console rendering of the series — the `gobo top` view: one row per
 * window with arrival/completion/shed counts, virtual tok/s, mean
 * queue depth (plus a depth bar), occupancy, and p99 queue wait.
 */
void printTimeline(const TimelineSeries &series, std::ostream &os);

/**
 * Console table of the `worst` windows by shed count (skipping
 * windows that shed nothing) — the first place to look when a soak
 * went bad. No-op when nothing was shed.
 */
void printWorstShedWindows(const TimelineSeries &series, std::size_t worst,
                           std::ostream &os);

} // namespace gobo

#endif // GOBO_OBS_TIMELINE_HH
