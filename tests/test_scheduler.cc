/**
 * @file
 * Unit tests for the exec/ shared-index pool: bitwise serial
 * equivalence, inline execution at one worker, exactly-once claims
 * under skewed costs, progress when an index blocks on a later
 * one, first-error cancellation, deadlock-free nesting, the jobs
 * overload of parallel_for, fanOutStored, the scheduler.* metrics,
 * and the WSEL_JOBS resolution rules.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/scheduler.hh"
#include "obs/metrics.hh"

namespace wsel
{

namespace
{

using exec::ThreadPool;

/** Metrics on for one test, off again after it. */
struct MetricsOn
{
    MetricsOn() { obs::enableMetrics(); }
    ~MetricsOn() { obs::enableMetrics(false); }
};

std::uint64_t
counterValue(const char *name)
{
    return obs::counter(name).value();
}

TEST(Scheduler, ResolveJobsAndWselJobsEnv)
{
    unsetenv("WSEL_JOBS");
    EXPECT_GE(exec::hardwareConcurrency(), 1u);
    EXPECT_EQ(exec::defaultJobs(), exec::hardwareConcurrency());
    EXPECT_EQ(exec::resolveJobs(0), exec::defaultJobs());
    EXPECT_EQ(exec::resolveJobs(1), 1u);
    EXPECT_EQ(exec::resolveJobs(7), 7u);
    EXPECT_EQ(exec::resolveJobs(1 << 20), 1024u); // clamped

    setenv("WSEL_JOBS", "3", 1);
    EXPECT_EQ(exec::defaultJobs(), 3u);
    EXPECT_EQ(exec::resolveJobs(0), 3u);
    EXPECT_EQ(exec::resolveJobs(2), 2u); // explicit beats env

    // Invalid values are ignored (with a warning), not fatal.
    for (const char *bad : {"abc", "0", "2048", "-4", "3x"}) {
        setenv("WSEL_JOBS", bad, 1);
        EXPECT_EQ(exec::defaultJobs(), exec::hardwareConcurrency())
            << "WSEL_JOBS='" << bad << "'";
    }
    unsetenv("WSEL_JOBS");
}

TEST(Scheduler, PoolHasRequestedThreadCount)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.threads(), 3u);
}

TEST(Scheduler, ParallelForMatchesSerialBitwise)
{
    const std::size_t n = 257;
    std::vector<double> serial(n), parallel(n);
    auto f = [](std::size_t i) {
        // A value whose bits depend on evaluation being identical.
        double x = static_cast<double>(i) + 0.1;
        for (int k = 0; k < 20; ++k)
            x = x * 1.0000001 + 1.0 / (x + 1.0);
        return x;
    };
    for (std::size_t i = 0; i < n; ++i)
        serial[i] = f(i);
    ThreadPool pool(4);
    exec::parallel_for(pool, std::size_t{0}, n,
                       [&](std::size_t i) { parallel[i] = f(i); });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(serial[i], parallel[i]) << "index " << i;

    // Index-ordered reduction over per-slot results is bitwise
    // reproducible too (this is the campaign aggregation pattern).
    double s1 = 0.0, s2 = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        s1 += serial[i];
    for (std::size_t i = 0; i < n; ++i)
        s2 += parallel[i];
    EXPECT_EQ(s1, s2);

    // Chunked claims (grain > 1) cover the range exactly once.
    std::vector<int> hits(n, 0);
    exec::parallel_for(
        pool, std::size_t{3}, n, [&](std::size_t i) { ++hits[i]; },
        10);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i], i < 3 ? 0 : 1) << "index " << i;
}

TEST(Scheduler, SingleWorkerPoolRunsInlineInOrder)
{
    MetricsOn on;
    const std::uint64_t before = counterValue("scheduler.tasks_run");
    ThreadPool pool(1);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    exec::parallel_for(pool, std::size_t{0}, std::size_t{16},
                       [&](std::size_t i) {
                           EXPECT_EQ(std::this_thread::get_id(),
                                     caller);
                           order.push_back(i);
                       });
    ASSERT_EQ(order.size(), 16u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
    // Inline execution generates no pool traffic at all.
    EXPECT_EQ(counterValue("scheduler.tasks_run"), before);
}

TEST(Scheduler, BlockedIndexDoesNotStallLaterOnes)
{
    // Index 0 parks until index 2 has run.  Whichever of the two
    // workers (the pool thread or the caller) claims index 0, the
    // other one must go on claiming 1 and 2 from the shared cursor,
    // so the loop completes; a scheduler that tied later indices
    // to the blocked thread would hang here.
    ThreadPool pool(2);
    std::mutex mu;
    std::condition_variable cv;
    bool set = false;
    std::atomic<int> ran{0};
    exec::parallel_for(pool, std::size_t{0}, std::size_t{3},
                       [&](std::size_t i) {
                           if (i == 0) {
                               std::unique_lock<std::mutex> lk(mu);
                               cv.wait(lk, [&] { return set; });
                           } else if (i == 2) {
                               {
                                   std::lock_guard<std::mutex> g(mu);
                                   set = true;
                               }
                               cv.notify_all();
                           }
                           ++ran;
                       });
    EXPECT_EQ(ran.load(), 3);
}

TEST(Scheduler, SkewedParallelForRunsEveryIndexOnce)
{
    MetricsOn on;
    const std::uint64_t before = counterValue("scheduler.tasks_run");
    ThreadPool pool(4);
    const std::size_t n = 64;
    std::vector<std::atomic<int>> hits(n);
    for (auto &h : hits)
        h.store(0);
    exec::parallel_for(pool, std::size_t{0}, n, [&](std::size_t i) {
        if (i % 16 == 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        }
        hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    EXPECT_EQ(counterValue("scheduler.tasks_run") - before, n);
}

TEST(Scheduler, ExceptionCancelsOutstandingTasks)
{
    MetricsOn on;
    const std::uint64_t run0 = counterValue("scheduler.tasks_run");
    const std::uint64_t cancelled0 =
        counterValue("scheduler.tasks_cancelled");
    ThreadPool pool(2);
    const std::size_t n = 64;
    std::atomic<std::size_t> ran{0};
    EXPECT_THROW(
        exec::parallel_for(pool, std::size_t{0}, n,
                           [&](std::size_t i) {
                               ++ran;
                               if (i == 0)
                                   throw std::runtime_error("failed");
                               std::this_thread::sleep_for(
                                   std::chrono::milliseconds(2));
                           }),
        std::runtime_error);
    // Every index either ran or was skipped, never both: the
    // unclaimed tail after the failure is counted as cancelled.
    const std::uint64_t cancelled =
        counterValue("scheduler.tasks_cancelled") - cancelled0;
    EXPECT_EQ(counterValue("scheduler.tasks_run") - run0, ran.load());
    EXPECT_EQ(ran.load() + cancelled, n);
    EXPECT_GE(cancelled, 1u);

    // The pool survives a failed loop and stays usable.
    std::atomic<int> after{0};
    exec::parallel_for(pool, std::size_t{0}, std::size_t{8},
                       [&](std::size_t) { ++after; });
    EXPECT_EQ(after.load(), 8);
}

TEST(Scheduler, ParallelForRethrowsFirstError)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        exec::parallel_for(pool, std::size_t{0}, std::size_t{100},
                           [&](std::size_t i) {
                               if (i == 17)
                                   throw std::runtime_error("boom");
                           }),
        std::runtime_error);
    // Two failing indices still surface exactly one error.
    try {
        exec::parallel_for(pool, std::size_t{0}, std::size_t{100},
                           [&](std::size_t i) {
                               if (i == 3 || i == 4)
                                   throw std::runtime_error("boom");
                           });
        FAIL() << "no exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "boom");
    }
}

TEST(Scheduler, NestedParallelForDoesNotDeadlock)
{
    // Outer indices block in the inner loop's wait, which only
    // waits for inner indices already running elsewhere.  A lost
    // wakeup or a worker parked forever shows up here as a test
    // timeout.
    for (const std::size_t threads : {1, 2, 4}) {
        ThreadPool pool(threads);
        const std::size_t n = 8;
        std::vector<std::vector<int>> out(
            n, std::vector<int>(n, 0));
        exec::parallel_for(
            pool, std::size_t{0}, n, [&](std::size_t i) {
                exec::parallel_for(
                    pool, std::size_t{0}, n, [&](std::size_t j) {
                        out[i][j] = static_cast<int>(i * n + j);
                    });
            });
        long sum = 0;
        for (const auto &row : out)
            sum = std::accumulate(row.begin(), row.end(), sum);
        EXPECT_EQ(sum, static_cast<long>(n * n * (n * n - 1) / 2))
            << threads << " threads";
    }
}

TEST(Scheduler, JobsOverloadRunsInlineWhenOneWorkerSuffices)
{
    MetricsOn on;
    const std::uint64_t before = counterValue("scheduler.tasks_run");
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    auto record = [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    };
    exec::parallel_for(1, std::size_t{0}, std::size_t{12}, record);
    exec::parallel_for(8, std::size_t{5}, std::size_t{6}, record);
    exec::parallel_for(8, std::size_t{6}, std::size_t{6}, record);
    const std::vector<std::size_t> want = {0, 1, 2, 3, 4,  5,
                                           6, 7, 8, 9, 10, 11, 5};
    EXPECT_EQ(order, want);
    EXPECT_EQ(counterValue("scheduler.tasks_run"), before);

    // More than one index and more than one job: a real pool.
    std::vector<std::atomic<int>> hits(10);
    for (auto &h : hits)
        h.store(0);
    exec::parallel_for(4, std::size_t{0}, hits.size(),
                       [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    EXPECT_EQ(counterValue("scheduler.tasks_run") - before,
              hits.size());
}

TEST(Scheduler, FanOutStoredCommitsEveryPendingUnitOnce)
{
    // Uneven units (a short one in the middle), every third one
    // resumed: each pending unit's cells run once, and its commit,
    // called once, sees every cell's write.
    const std::size_t units = 9;
    auto cells_in = [](std::size_t u) { return 1 + (u * 5) % 7; };
    std::vector<std::vector<int>> slots(units);
    for (std::size_t u = 0; u < units; ++u)
        slots[u].assign(cells_in(u), 0);
    std::vector<std::atomic<int>> commits(units);
    std::vector<std::atomic<int>> resumes(units);
    for (std::size_t u = 0; u < units; ++u) {
        commits[u] = 0;
        resumes[u] = 0;
    }
    const std::vector<std::size_t> pending = exec::fanOutStored(
        4, units, cells_in,
        [&](std::size_t u) {
            ++resumes[u];
            return u % 3 == 0;
        },
        [&](std::size_t u, std::size_t c) { ++slots[u][c]; },
        [&](std::size_t u) {
            ++commits[u];
            for (std::size_t c = 0; c < cells_in(u); ++c)
                EXPECT_EQ(slots[u][c], 1) << u << "/" << c;
        });
    EXPECT_EQ(pending, (std::vector<std::size_t>{1, 2, 4, 5, 7, 8}));
    for (std::size_t u = 0; u < units; ++u) {
        EXPECT_EQ(resumes[u].load(), 1) << u;
        EXPECT_EQ(commits[u].load(), u % 3 == 0 ? 0 : 1) << u;
        for (int hit : slots[u])
            EXPECT_EQ(hit, u % 3 == 0 ? 0 : 1) << u;
    }
}

TEST(Scheduler, FanOutStoredRunsInlineInOrderAtOneJob)
{
    std::vector<std::string> log;
    const std::vector<std::size_t> pending = exec::fanOutStored(
        1, 3, [](std::size_t u) { return u + 1; },
        [&](std::size_t u) {
            log.push_back("r" + std::to_string(u));
            return u == 1;
        },
        [&](std::size_t u, std::size_t c) {
            log.push_back("c" + std::to_string(u) + std::to_string(c));
        },
        [&](std::size_t u) { log.push_back("w" + std::to_string(u)); });
    const std::vector<std::string> want = {"r0",  "r1",  "r2", "c00",
                                           "w0",  "c20", "c21", "c22",
                                           "w2"};
    EXPECT_EQ(log, want);
    EXPECT_EQ(pending, (std::vector<std::size_t>{0, 2}));
}

TEST(Scheduler, StatsAreInternallyConsistent)
{
    MetricsOn on;
    obs::LatencyHistogram &queue = obs::histogram("scheduler.queue_ns");
    obs::LatencyHistogram &run = obs::histogram("scheduler.run_ns");
    const std::uint64_t run0 = counterValue("scheduler.tasks_run");
    const std::uint64_t cancelled0 =
        counterValue("scheduler.tasks_cancelled");
    const std::uint64_t queued0 = queue.count();
    const std::uint64_t timed0 = run.count();
    ThreadPool pool(4);
    const std::size_t n = 100;
    std::atomic<int> ran{0};
    exec::parallel_for(pool, std::size_t{0}, n,
                       [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran.load(), static_cast<int>(n));
    EXPECT_EQ(counterValue("scheduler.tasks_run") - run0, n);
    EXPECT_EQ(counterValue("scheduler.tasks_cancelled"), cancelled0);
    EXPECT_EQ(queue.count() - queued0, n);
    EXPECT_EQ(run.count() - timed0, n);
    EXPECT_LE(queue.maxNs(), queue.sumNs());
    EXPECT_LE(run.maxNs(), run.sumNs());
}

} // namespace
} // namespace wsel
