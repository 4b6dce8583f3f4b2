/**
 * @file
 * The benchmark's own span recorder.  Spans wrap the harness's calls
 * into the library's public functions (model store, trace store,
 * shard simulation, persistence, uncore, scheduler, fidelity and
 * serve); nothing inside src/ is traced.  Recording is off unless
 * the run is a traced one (--trace 1); a Span always measures its
 * own elapsed time, so untraced code can use it as a stopwatch.
 *
 * Records live in memory until the run ends.  Each has a name, a
 * start and end in host seconds since the recorder was enabled, and
 * the id of the span that caused it; all records of a run share one
 * run id.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct SpanRecord
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = a root span
    std::string name;
    double start = 0.0; ///< seconds since SpanLog::enable
    double end = 0.0;
};

/** Process-wide span store; thread-safe. */
class SpanLog
{
  public:
    static SpanLog &instance();

    /** Start recording; @p run_id tags every record. */
    void enable(std::uint64_t run_id);

    /** Stop or restart recording; records and epoch are kept. */
    void setRecording(bool on) { enabled_ = on; }

    bool enabled() const { return enabled_; }

    std::uint64_t open(const std::string &name, std::uint64_t parent,
                       Clock::time_point start);
    void close(std::uint64_t id, Clock::time_point end);

    std::vector<SpanRecord> records() const;

    /** {"run_id": ..., "spans": [...]} */
    std::string toJson() const;

  private:
    mutable std::mutex mu_;
    std::atomic<bool> enabled_{false};
    std::uint64_t runId_ = 0;
    Clock::time_point epoch_{};
    std::vector<SpanRecord> spans_; ///< index = id - 1
};

/**
 * RAII span.  Its parent is the innermost open span of the calling
 * thread unless one is given (tasks on pool threads pass the span
 * that submitted them).
 */
class Span
{
  public:
    static constexpr std::uint64_t kInherit = ~0ULL;

    explicit Span(const std::string &name,
                  std::uint64_t parent = kInherit);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Host seconds since the span opened. */
    double seconds() const { return secondsSince(start_); }

    std::uint64_t id() const { return id_; }

  private:
    Clock::time_point start_;
    std::uint64_t id_ = 0;
    std::uint64_t prevTop_ = 0;
};

/** Innermost open span of the calling thread (0 = none). */
std::uint64_t currentSpan();

/** Per-name totals derived from the records. */
struct SpanTotals
{
    std::uint64_t count = 0;
    double total = 0.0; ///< summed durations
    double self = 0.0;  ///< duration not covered by child spans
};

/**
 * Self time of every span: its duration minus the union of its
 * children's intervals (children on parallel threads may overlap).
 */
std::map<std::string, SpanTotals>
spanTotals(const std::vector<SpanRecord> &spans);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
