/**
 * @file
 * Parallel execution engine shared by campaigns, characterization
 * and the figure/table benches: a fixed-size thread pool with
 * per-worker work-stealing deques, a TaskGroup/TaskGraph/
 * parallel_for front-end, cancellation on first error, and per-task
 * scheduling metrics (docs/PARALLELISM.md).
 *
 * Design constraints, in priority order:
 *
 *  1. Determinism of *results*: the scheduler never decides what a
 *     task computes, only when and where it runs.  Callers write
 *     results into per-index slots and perform reductions in index
 *     order after the parallel region, so an N-thread run is
 *     bitwise identical to a 1-thread run.
 *  2. No deadlock under nesting: a thread blocked in
 *     TaskGroup::wait or parallel_for executes other pool tasks
 *     while it waits, so nested parallel_for on the same pool makes
 *     progress even with a single worker.
 *  3. Fail fast: the first exception a task throws cancels every
 *     task of its group that has not started, is rethrown to the
 *     waiter, and leaves the pool reusable.
 */

#ifndef WSEL_EXEC_SCHEDULER_HH
#define WSEL_EXEC_SCHEDULER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
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
 * Snapshot of scheduler counters since pool construction.  Queue
 * latency is submit-to-start; run time is the task body only.
 * A task is counted under one mutex when its body starts (so a
 * TaskGroup::wait() caller sees every task it waited for) and its
 * run time is added when the body returns; tasksStolen + tasksHelped
 * <= tasksRun in every snapshot.
 */
struct SchedulerStats
{
    unsigned threads = 0;             ///< pool worker count
    std::uint64_t tasksRun = 0;       ///< bodies executed
    std::uint64_t tasksCancelled = 0; ///< bodies skipped (cancel)
    std::uint64_t tasksStolen = 0;    ///< run by a non-home worker
    std::uint64_t tasksHelped = 0;    ///< run by a waiting thread
    double queueSeconds = 0.0;        ///< total submit-to-start
    double runSeconds = 0.0;          ///< total body wall time
    double maxQueueSeconds = 0.0;     ///< worst single queue wait
    double maxRunSeconds = 0.0;       ///< longest single task
};

/**
 * Fixed-size worker pool with per-worker deques.  Submission goes
 * to the submitting worker's own deque (locality for nested work)
 * or round-robin from external threads; an idle worker first drains
 * its own deque front-to-back, then steals from the back of a
 * sibling's deque.  Tasks are claimed exactly once.
 *
 * The pool itself is task-agnostic; use TaskGroup, TaskGraph or
 * parallel_for rather than submitting raw tasks.
 */
class ThreadPool
{
  public:
    /** @param threads Worker count; 0 means defaultJobs(). */
    explicit ThreadPool(std::size_t threads = 0);

    /** Joins workers; outstanding tasks are drained first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned threads() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** Consistent snapshot of the counters. */
    SchedulerStats stats() const;

    /**
     * Run one queued task on the calling thread if any is
     * available; never blocks.  Used by waiters so that a blocked
     * parallel region lends its thread to the pool.
     * @return true when a task was executed.
     */
    bool helpOne();

  private:
    friend class TaskGroup;

    struct Task
    {
        std::function<void()> body;
        std::chrono::steady_clock::time_point enqueued;
    };

    /** One worker's deque; the mutex covers only this deque. */
    struct Worker
    {
        std::mutex mu;
        std::deque<Task> q;
    };

    /** Enqueue a task (TaskGroup wraps all bookkeeping around it). */
    void submit(std::function<void()> body);

    /**
     * Claim one task: own deque front first (when the caller is
     * worker @p self), then steal from siblings' backs.
     * @param self Caller's worker index, or SIZE_MAX for external.
     */
    bool claim(std::size_t self, Task &out, bool &stolen);

    /** Decrement pending_ and refresh the queue-depth gauge. */
    void noteClaimed();

    /** Claim-and-run helper shared by workers and helpOne. */
    bool runOne(std::size_t self, bool helping);

    void workerLoop(std::size_t idx);

    /** Called by TaskGroup when a body is skipped by cancellation. */
    void noteCancelled();

    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<std::thread> threads_;

    /** Queued-but-unclaimed task count (wake predicate). */
    std::atomic<std::size_t> pending_{0};
    std::atomic<std::uint64_t> rr_{0}; ///< round-robin submit cursor
    std::atomic<bool> stop_{false};
    std::mutex waitMu_;
    std::condition_variable cv_;

    mutable std::mutex statsMu_;
    SchedulerStats stats_;
};

/**
 * A set of tasks that completes (or fails) together.  The first
 * exception thrown by a task cancels all not-yet-started tasks of
 * the group and is rethrown from wait().  wait() helps execute pool
 * tasks, so groups nest without deadlock.  A group is single-use:
 * submit, wait, destroy.
 */
class TaskGroup
{
  public:
    explicit TaskGroup(ThreadPool &pool) : pool_(pool) {}

    /** Drains outstanding tasks; any error is swallowed here. */
    ~TaskGroup();

    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    /** Submit one task (skipped if the group is cancelled). */
    void run(std::function<void()> fn);

    /**
     * Block until every submitted task has finished or been
     * skipped, executing pool tasks while waiting.  Rethrows the
     * first error any task raised.
     */
    void wait();

    /** Skip every task that has not started yet. */
    void
    cancel()
    {
        cancelled_.store(true, std::memory_order_release);
    }

    bool
    cancelled() const
    {
        return cancelled_.load(std::memory_order_acquire);
    }

  private:
    ThreadPool &pool_;
    std::atomic<bool> cancelled_{false};
    std::mutex mu_;               ///< guards pending_, error_
    std::condition_variable cv_;  ///< signalled when pending_ -> 0
    std::size_t pending_ = 0;
    std::exception_ptr error_;
};

/**
 * Explicit dependency graph over the pool: nodes are tasks, edges
 * are happens-before constraints.  run() releases nodes as their
 * dependencies complete, cancels the graph on the first error
 * (dependents of a failed node never run) and rethrows it;
 * an unsatisfiable graph (dependency cycle) is WSEL_FATAL.
 * Single-use, single-threaded construction.
 */
class TaskGraph
{
  public:
    using NodeId = std::size_t;

    explicit TaskGraph(ThreadPool &pool) : pool_(pool) {}

    TaskGraph(const TaskGraph &) = delete;
    TaskGraph &operator=(const TaskGraph &) = delete;

    /**
     * Add a node that runs after every node in @p deps.
     * @return Id to use as a dependency of later nodes.
     */
    NodeId add(std::function<void()> fn,
               const std::vector<NodeId> &deps = {});

    /** Execute the whole graph; rethrows the first task error. */
    void run();

  private:
    struct Node
    {
        std::function<void()> fn;
        std::vector<NodeId> dependents;
        std::size_t waits = 0; ///< unmet dependency count
    };

    void release(TaskGroup &group, NodeId id);

    ThreadPool &pool_;
    std::mutex mu_; ///< guards waits/executed_ during run()
    std::vector<std::unique_ptr<Node>> nodes_;
    std::size_t executed_ = 0;
    bool running_ = false;
};

/**
 * Apply @p fn to every index in [begin, end), @p grain indices per
 * task.  Runs inline (exact serial order, no pool traffic) when the
 * pool has one worker or the range fits a single grain; otherwise
 * submits chunks and helps execute while waiting.  @p fn must be
 * safe to invoke concurrently on distinct indices; the first
 * exception cancels remaining chunks and is rethrown.
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
    TaskGroup group(pool);
    for (std::size_t at = begin; at < end; at += grain) {
        const std::size_t hi = std::min(end, at + grain);
        group.run([&fn, at, hi] {
            for (std::size_t i = at; i < hi; ++i)
                fn(i);
        });
    }
    group.wait();
}

} // namespace wsel::exec

#endif // WSEL_EXEC_SCHEDULER_HH
