/**
 * @file
 * Parallel execution engine shared by campaigns, characterization
 * and the figure/table benches: a fixed pool of workers over a FIFO
 * of index jobs, driven through parallel_for (docs/PARALLELISM.md).
 *
 * Each parallel_for call pushes one job; the pool's threads and the
 * calling thread claim the job's indices from one shared atomic
 * cursor.  Design constraints, in priority order:
 *
 *  1. Determinism of *results*: the pool never decides what an
 *     index computes, only when and where it runs.  Callers write
 *     results into per-index slots and perform reductions in index
 *     order after the parallel region, so an N-worker run is
 *     bitwise identical to a serial one.
 *  2. No deadlock under nesting: a caller runs its own job's
 *     indices, then waits only for the indices already in flight on
 *     other threads, so nested parallel_for on the same pool
 *     finishes at any worker count.
 *  3. Fail fast: the first exception an index throws stops further
 *     claims, is rethrown to the caller, and leaves the pool
 *     reusable.
 */

#ifndef WSEL_EXEC_SCHEDULER_HH
#define WSEL_EXEC_SCHEDULER_HH

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wsel::exec
{

/** std::thread::hardware_concurrency, never 0. */
unsigned hardwareConcurrency();

/**
 * Default worker count: $WSEL_JOBS when set to an integer in
 * [1, 1024], else hardwareConcurrency().  An invalid WSEL_JOBS is
 * warned about once and ignored.
 */
unsigned defaultJobs();

/** Resolve a user job request: 0 means defaultJobs(). */
unsigned resolveJobs(std::size_t requested);

/**
 * Fixed pool of workers.  The thread that calls run() (or
 * parallel_for) is one of the workers, so a pool of N workers
 * starts N - 1 threads and ThreadPool(1) starts none.  Jobs are
 * served in FIFO order; every index of a job is claimed exactly
 * once.
 */
class ThreadPool
{
  public:
    /** @param threads Worker count; 0 means defaultJobs(). */
    explicit ThreadPool(std::size_t threads = 0);

    /** Stops and joins the pool's threads. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned threads() const { return workers_; }

    /**
     * Run body(0) .. body(n - 1) on the pool and the calling
     * thread; return when every index has finished or been
     * skipped.  The first exception stops further claims and is
     * rethrown here.  parallel_for is the intended front end.
     */
    void run(std::size_t n,
             const std::function<void(std::size_t)> &body);

  private:
    struct Job;

    void workerLoop();

    /** Claim and run @p job's indices until none is left. */
    void drain(Job &job);

    /** Drop @p job from the queue if it is still there (mu_ held). */
    void retire(Job &job);

    unsigned workers_;
    std::vector<std::thread> threads_;
    std::mutex mu_; ///< guards jobs_, stop_ and each job's active/error
    std::condition_variable cv_; ///< a job arrived or the pool stops
    std::deque<Job *> jobs_;
    bool stop_ = false;
};

/**
 * Apply @p fn to every index in [begin, end), @p grain indices per
 * claim.  Runs inline (exact serial order, no pool traffic) when
 * the pool has one worker or the range fits a single grain.
 * @p fn must be safe to invoke concurrently on distinct indices;
 * the first exception stops the remaining claims and is rethrown.
 */
template <typename Fn>
void
parallel_for(ThreadPool &pool, std::size_t begin, std::size_t end,
             Fn &&fn, std::size_t grain = 1)
{
    if (begin >= end)
        return;
    if (grain == 0)
        grain = 1;
    if (pool.threads() <= 1 || end - begin <= grain) {
        for (std::size_t i = begin; i < end; ++i)
            fn(i);
        return;
    }
    pool.run((end - begin + grain - 1) / grain, [&](std::size_t c) {
        const std::size_t lo = begin + c * grain;
        const std::size_t hi = lo + std::min(grain, end - lo);
        for (std::size_t i = lo; i < hi; ++i)
            fn(i);
    });
}

/**
 * parallel_for on a pool of its own: min(resolveJobs(@p jobs),
 * end - begin) workers, or inline in serial order when that is 1.
 */
template <typename Fn>
void
parallel_for(std::size_t jobs, std::size_t begin, std::size_t end,
             Fn &&fn)
{
    if (begin >= end)
        return;
    const std::size_t workers =
        std::min<std::size_t>(resolveJobs(jobs), end - begin);
    if (workers <= 1) {
        for (std::size_t i = begin; i < end; ++i)
            fn(i);
        return;
    }
    ThreadPool pool(workers);
    parallel_for(pool, begin, end, fn);
}

/**
 * Run the cells of stored units (campaign shards, fidelity batches):
 * the unit is resumed and written whole, the cell is scheduled.
 *
 *  1. try_resume(u) for every unit u in [0, @p units), in parallel;
 *     it returns true when u was restored from storage.
 *  2. One parallel_for(@p jobs, ...) over the cells of every unit
 *     not resumed, in unit-then-cell order: run_cell(u, c) for c in
 *     [0, cells_in(u)), cells_in(u) > 0.  The thread that finishes a
 *     unit's last cell calls commit(u), which sees every cell's
 *     writes.
 *
 * At one job everything runs inline: every try_resume in unit
 * order, then the cells in order, each unit committed right after
 * its last cell.  Returns the units not resumed, ascending.
 */
template <typename CellsIn, typename TryResume, typename RunCell,
          typename Commit>
std::vector<std::size_t>
fanOutStored(std::size_t jobs, std::size_t units, CellsIn &&cells_in,
             TryResume &&try_resume, RunCell &&run_cell,
             Commit &&commit)
{
    std::vector<std::uint8_t> resumed(units, 0);
    parallel_for(jobs, std::size_t{0}, units, [&](std::size_t u) {
        resumed[u] = try_resume(u) ? 1 : 0;
    });

    // Pending unit i owns cells [first[i], first[i + 1]).
    std::vector<std::size_t> pending;
    std::vector<std::size_t> first{0};
    for (std::size_t u = 0; u < units; ++u) {
        if (!resumed[u]) {
            pending.push_back(u);
            first.push_back(first.back() + cells_in(u));
        }
    }
    std::vector<std::atomic<std::size_t>> left(pending.size());
    for (std::size_t i = 0; i < pending.size(); ++i)
        left[i] = first[i + 1] - first[i];

    parallel_for(jobs, std::size_t{0}, first.back(), [&](std::size_t x) {
        const std::size_t i = static_cast<std::size_t>(
            std::upper_bound(first.begin(), first.end(), x) -
            first.begin() - 1);
        run_cell(pending[i], x - first[i]);
        if (--left[i] == 0)
            commit(pending[i]);
    });
    return pending;
}

} // namespace wsel::exec

#endif // WSEL_EXEC_SCHEDULER_HH
