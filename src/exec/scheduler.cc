#include "exec/scheduler.hh"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "stats/logging.hh"

namespace wsel::exec
{

unsigned
hardwareConcurrency()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

unsigned
defaultJobs()
{
    const char *env = std::getenv("WSEL_JOBS");
    if (env && *env) {
        char *end = nullptr;
        const unsigned long v = std::strtoul(env, &end, 10);
        if (end && *end == '\0' && v >= 1 && v <= 1024)
            return static_cast<unsigned>(v);
        warn(std::string("ignoring invalid WSEL_JOBS '") + env +
             "' (want an integer in [1, 1024])");
    }
    return hardwareConcurrency();
}

unsigned
resolveJobs(std::size_t requested)
{
    if (requested == 0)
        return defaultJobs();
    return static_cast<unsigned>(std::min<std::size_t>(requested,
                                                       1024));
}

/** One run() call: lives on the caller's stack until it returns. */
struct ThreadPool::Job
{
    Job(const std::function<void(std::size_t)> &b, std::size_t count)
        : body(b), n(count), pushed(std::chrono::steady_clock::now())
    {}

    const std::function<void(std::size_t)> &body;
    const std::size_t n;
    const std::chrono::steady_clock::time_point pushed;
    /** Next unclaimed index; set to n on the first error (cancel). */
    std::atomic<std::size_t> next{0};
    std::size_t active = 0;      ///< pool threads inside drain()
    std::exception_ptr error;    ///< first exception an index threw
    std::condition_variable idle; ///< signalled when active -> 0
};

ThreadPool::ThreadPool(std::size_t threads)
    : workers_(resolveJobs(threads))
{
    threads_.reserve(workers_ - 1);
    for (unsigned i = 1; i < workers_; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> g(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
ThreadPool::run(std::size_t n,
                const std::function<void(std::size_t)> &body)
{
    Job job(body, n);
    {
        std::lock_guard<std::mutex> g(mu_);
        jobs_.push_back(&job);
    }
    cv_.notify_all();
    drain(job);
    std::unique_lock<std::mutex> lk(mu_);
    retire(job);
    // Every index is claimed; wait for the ones still running on
    // pool threads.  The last thread to leave notifies under mu_,
    // so the job cannot go out of scope while it is being touched.
    job.idle.wait(lk, [&job] { return job.active == 0; });
    if (job.error)
        std::rethrow_exception(job.error);
}

void
ThreadPool::retire(Job &job)
{
    const auto it = std::find(jobs_.begin(), jobs_.end(), &job);
    if (it != jobs_.end())
        jobs_.erase(it);
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        cv_.wait(lk, [this] { return stop_ || !jobs_.empty(); });
        if (jobs_.empty())
            return;
        Job &job = *jobs_.front();
        ++job.active;
        lk.unlock();
        drain(job);
        lk.lock();
        retire(job);
        if (--job.active == 0)
            job.idle.notify_all();
    }
}

void
ThreadPool::drain(Job &job)
{
    using Clock = std::chrono::steady_clock;
    const bool metrics = obs::metricsEnabled();
    for (;;) {
        const std::size_t i =
            job.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= job.n)
            return;
        Clock::time_point start;
        if (metrics) {
            static obs::Counter &run =
                obs::counter("scheduler.tasks_run");
            static obs::LatencyHistogram &queueNs =
                obs::histogram("scheduler.queue_ns");
            start = Clock::now();
            // Counted before the body runs, so a caller that reads
            // the counter right after run() returns sees it.
            run.inc();
            queueNs.record(start - job.pushed);
        }
        try {
            obs::Span span("exec.task");
            job.body(i);
        } catch (...) {
            // Stop further claims: the unclaimed tail never runs.
            const std::size_t left = job.next.exchange(job.n);
            if (metrics && left < job.n) {
                static obs::Counter &cancelled =
                    obs::counter("scheduler.tasks_cancelled");
                cancelled.inc(job.n - left);
            }
            std::lock_guard<std::mutex> g(mu_);
            if (!job.error)
                job.error = std::current_exception();
        }
        if (metrics) {
            static obs::LatencyHistogram &runNs =
                obs::histogram("scheduler.run_ns");
            runNs.record(Clock::now() - start);
        }
    }
}

} // namespace wsel::exec
