/**
 * @file
 * Low-overhead tracer emitting Chrome trace-event / Perfetto JSON
 * (docs/OBSERVABILITY.md).
 *
 * RAII `Span` objects mark begin/end ("ph":"B"/"E") pairs on the
 * calling thread; each thread keeps a span stack (thread-local) so
 * nesting renders as a flame graph in the viewer.  Events land in
 * one fixed-capacity ring buffer: when it is full the oldest event
 * is dropped and the `trace.dropped` metric counter incremented,
 * so a long campaign keeps the *latest* window of activity instead
 * of growing without bound.
 *
 * Everything is gated on a process-wide `enabled` atomic checked
 * before any other work: with tracing off (the default) a Span
 * costs one relaxed load per end of the scope, and "disabled mode
 * emits zero events" is tested (tests/test_obs.cc).
 *
 * renderChromeTrace() produces `{"traceEvents": [...]}` JSON that
 * loads directly in Perfetto (https://ui.perfetto.dev) or
 * chrome://tracing; parseChromeTrace() is the minimal reader used
 * for round-trip validation.
 */

#ifndef WSEL_OBS_TRACE_HH
#define WSEL_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace wsel::obs
{

namespace detail
{

extern std::atomic<bool> gTraceEnabled;

} // namespace detail

/** Is tracing on?  One relaxed load. */
inline bool
tracingEnabled()
{
    return detail::gTraceEnabled.load(std::memory_order_relaxed);
}

/**
 * Turn tracing on with a ring of @p capacity events (the previous
 * buffer and drop count are discarded).  Capacity is clamped to
 * [16, 1<<22].
 */
void enableTracing(std::size_t capacity = 1 << 16);

/** Turn tracing off; the already-collected events remain. */
void disableTracing();

/** One recorded event (B/E span edge or i instant). */
struct TraceEvent
{
    std::string name;
    std::string args; ///< free-form "k=v,k=v" detail; may be empty
    std::uint64_t tsNs = 0; ///< steady_clock ns since process start
    std::uint32_t tid = 0;  ///< stable small per-thread id
    char ph = 'i';          ///< 'B', 'E' or 'i'
};

/**
 * Record a raw event (no-op while tracing is disabled).  Prefer
 * Span / instant().
 */
void emitEvent(char ph, std::string name, std::string args = {});

/** Record a zero-duration marker event. */
void instant(std::string name, std::string args = {});

/** Open spans on the calling thread (0 when tracing is off). */
std::size_t spanDepth();

/**
 * RAII span: emits "B" on construction and "E" on destruction,
 * maintaining the thread-local span stack.  @p name must outlive
 * the span (string literals).  Build @p args only when
 * tracingEnabled() to keep disabled call sites free:
 *
 *     obs::Span span("campaign.shard",
 *                    obs::tracingEnabled() ? makeArgs() : "");
 */
class Span
{
  public:
    explicit Span(const char *name, std::string args = {});
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    const char *name_;
    bool active_;
};

/** Consistent copy of the ring (oldest first) plus drop count. */
struct TraceSnapshot
{
    std::vector<TraceEvent> events;
    std::uint64_t dropped = 0;
};

TraceSnapshot traceSnapshot();

/** Render a snapshot as Chrome trace-event JSON. */
std::string renderChromeTrace(const TraceSnapshot &snap);

/**
 * Write the current ring as Chrome trace-event JSON to @p path
 * (WSEL_FATAL on I/O error).
 */
void writeChromeTrace(const std::string &path);

/** One event as read back by the minimal parser. */
struct ParsedTraceEvent
{
    std::string name;
    char ph = '?';
    std::uint64_t pid = 0;
    std::uint64_t tid = 0;
    double tsUs = 0.0;
};

/**
 * Minimal Chrome trace-event JSON reader: parses the
 * `"traceEvents"` array of objects with string/number/flat-object
 * values — exactly the subset renderChromeTrace() emits — and
 * throws wsel::FatalError on malformed input.  Used by the
 * round-trip tests and `ci.sh` artifact validation.
 */
std::vector<ParsedTraceEvent>
parseChromeTrace(const std::string &json);

} // namespace wsel::obs

#endif // WSEL_OBS_TRACE_HH
