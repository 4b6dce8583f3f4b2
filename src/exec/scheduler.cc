#include "exec/scheduler.hh"

#include <algorithm>
#include <cstdlib>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "stats/logging.hh"

namespace wsel::exec
{

namespace
{

/** Worker identity of the current thread, for submit locality. */
struct WorkerTls
{
    ThreadPool *pool = nullptr;
    std::size_t index = SIZE_MAX;
};

thread_local WorkerTls tls;

double
seconds(std::chrono::steady_clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

} // namespace

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

// -------------------------------------------------------------------
// ThreadPool
// -------------------------------------------------------------------

ThreadPool::ThreadPool(std::size_t threads)
{
    const unsigned n = resolveJobs(threads);
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers_.push_back(std::make_unique<Worker>());
    stats_.threads = n;
    threads_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    stop_.store(true, std::memory_order_release);
    {
        // Pair with the waiters' predicate check so no worker can
        // miss the shutdown notification.
        std::lock_guard<std::mutex> g(waitMu_);
    }
    cv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
ThreadPool::submit(std::function<void()> body)
{
    Task t{std::move(body), std::chrono::steady_clock::now()};
    std::size_t target;
    if (tls.pool == this && tls.index < workers_.size()) {
        target = tls.index; // locality for nested submissions
    } else {
        target = static_cast<std::size_t>(
                     rr_.fetch_add(1, std::memory_order_relaxed)) %
                 workers_.size();
    }
    {
        std::lock_guard<std::mutex> g(workers_[target]->mu);
        workers_[target]->q.push_back(std::move(t));
    }
    const std::uint64_t depth =
        pending_.fetch_add(1, std::memory_order_release) + 1;
    if (obs::metricsEnabled()) {
        static obs::Gauge &g = obs::gauge("scheduler.queue_depth");
        g.setAlways(static_cast<double>(depth));
    }
    {
        std::lock_guard<std::mutex> g(waitMu_);
    }
    cv_.notify_one();
}

bool
ThreadPool::claim(std::size_t self, Task &out, bool &stolen)
{
    const std::size_t n = workers_.size();
    if (self < n) {
        Worker &own = *workers_[self];
        std::lock_guard<std::mutex> g(own.mu);
        if (!own.q.empty()) {
            out = std::move(own.q.front());
            own.q.pop_front();
            noteClaimed();
            stolen = false;
            return true;
        }
    }
    const std::size_t start = self < n ? self + 1 : 0;
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t v = (start + k) % n;
        if (v == self)
            continue;
        Worker &victim = *workers_[v];
        std::lock_guard<std::mutex> g(victim.mu);
        if (!victim.q.empty()) {
            out = std::move(victim.q.back());
            victim.q.pop_back();
            noteClaimed();
            stolen = true;
            return true;
        }
    }
    if (obs::metricsEnabled()) {
        static obs::Counter &fails =
            obs::counter("scheduler.steal_fail");
        fails.inc();
    }
    return false;
}

void
ThreadPool::noteClaimed()
{
    const std::uint64_t depth =
        pending_.fetch_sub(1, std::memory_order_release) - 1;
    if (obs::metricsEnabled()) {
        static obs::Gauge &g = obs::gauge("scheduler.queue_depth");
        g.setAlways(static_cast<double>(depth));
    }
}

bool
ThreadPool::runOne(std::size_t self, bool helping)
{
    Task t;
    bool stolen = false;
    if (!claim(self, t, stolen))
        return false;
    const auto start = std::chrono::steady_clock::now();
    const double queued = seconds(start - t.enqueued);
    const bool metrics = obs::metricsEnabled();
    // Count the task before its body runs: a group wrapper's last
    // act releases TaskGroup::wait(), whose caller may read stats()
    // at once and must see every task it waited for.
    if (metrics) {
        static obs::Counter &run = obs::counter("scheduler.tasks_run");
        static obs::Counter &stole =
            obs::counter("scheduler.tasks_stolen");
        static obs::Counter &helped =
            obs::counter("scheduler.tasks_helped");
        static obs::LatencyHistogram &queueNs =
            obs::histogram("scheduler.queue_ns");
        run.inc();
        if (stolen && !helping)
            stole.inc();
        if (helping)
            helped.inc();
        queueNs.record(start - t.enqueued);
    }
    {
        std::lock_guard<std::mutex> g(statsMu_);
        ++stats_.tasksRun;
        if (stolen && !helping)
            ++stats_.tasksStolen;
        if (helping)
            ++stats_.tasksHelped;
        stats_.queueSeconds += queued;
        stats_.maxQueueSeconds =
            std::max(stats_.maxQueueSeconds, queued);
    }
    {
        obs::Span span(helping ? "exec.task.helped" : "exec.task");
        t.body(); // group wrappers never let exceptions escape
    }
    const auto end = std::chrono::steady_clock::now();
    const double ran = seconds(end - start);
    if (metrics) {
        static obs::LatencyHistogram &runNs =
            obs::histogram("scheduler.run_ns");
        runNs.record(end - start);
    }
    std::lock_guard<std::mutex> g(statsMu_);
    stats_.runSeconds += ran;
    stats_.maxRunSeconds = std::max(stats_.maxRunSeconds, ran);
    return true;
}

bool
ThreadPool::helpOne()
{
    const std::size_t self =
        tls.pool == this ? tls.index : SIZE_MAX;
    return runOne(self, /*helping=*/tls.pool != this);
}

void
ThreadPool::workerLoop(std::size_t idx)
{
    tls.pool = this;
    tls.index = idx;
    for (;;) {
        if (runOne(idx, /*helping=*/false))
            continue;
        std::unique_lock<std::mutex> lk(waitMu_);
        cv_.wait(lk, [this] {
            return stop_.load(std::memory_order_acquire) ||
                   pending_.load(std::memory_order_acquire) > 0;
        });
        if (stop_.load(std::memory_order_acquire) &&
            pending_.load(std::memory_order_acquire) == 0)
            break;
    }
    tls.pool = nullptr;
    tls.index = SIZE_MAX;
}

void
ThreadPool::noteCancelled()
{
    if (obs::metricsEnabled()) {
        static obs::Counter &c =
            obs::counter("scheduler.tasks_cancelled");
        c.inc();
    }
    std::lock_guard<std::mutex> g(statsMu_);
    ++stats_.tasksCancelled;
}

SchedulerStats
ThreadPool::stats() const
{
    std::lock_guard<std::mutex> g(statsMu_);
    return stats_;
}

// -------------------------------------------------------------------
// TaskGroup
// -------------------------------------------------------------------

TaskGroup::~TaskGroup()
{
    // Outstanding tasks reference this group; they must finish (or
    // be skipped) before the group's storage goes away.
    for (;;) {
        {
            std::unique_lock<std::mutex> lk(mu_);
            if (pending_ == 0)
                return;
        }
        if (pool_.helpOne())
            continue;
        std::unique_lock<std::mutex> lk(mu_);
        if (pending_ == 0)
            return;
        cv_.wait_for(lk, std::chrono::milliseconds(1));
    }
}

void
TaskGroup::run(std::function<void()> fn)
{
    {
        std::lock_guard<std::mutex> g(mu_);
        ++pending_;
    }
    pool_.submit([this, fn = std::move(fn)] {
        if (!cancelled()) {
            try {
                fn();
            } catch (...) {
                std::lock_guard<std::mutex> g(mu_);
                if (!error_)
                    error_ = std::current_exception();
                cancelled_.store(true, std::memory_order_release);
            }
        } else {
            pool_.noteCancelled();
        }
        std::lock_guard<std::mutex> g(mu_);
        if (--pending_ == 0)
            cv_.notify_all();
    });
}

void
TaskGroup::wait()
{
    for (;;) {
        {
            std::unique_lock<std::mutex> lk(mu_);
            if (pending_ == 0)
                break;
        }
        if (pool_.helpOne())
            continue;
        // Nothing claimable right now (our remaining tasks are
        // in flight on workers, or queued behind other groups'
        // work): sleep briefly, then look again.  The timed wait
        // keeps a waiter live even when the finish notification
        // cannot reach it (e.g. dependents submitted by a nested
        // graph while every worker is busy elsewhere).
        std::unique_lock<std::mutex> lk(mu_);
        if (pending_ == 0)
            break;
        cv_.wait_for(lk, std::chrono::milliseconds(1));
    }
    std::lock_guard<std::mutex> g(mu_);
    if (error_)
        std::rethrow_exception(error_);
}

// -------------------------------------------------------------------
// TaskGraph
// -------------------------------------------------------------------

TaskGraph::NodeId
TaskGraph::add(std::function<void()> fn,
               const std::vector<NodeId> &deps)
{
    if (running_)
        WSEL_FATAL("TaskGraph::add while the graph is running");
    auto node = std::make_unique<Node>();
    node->fn = std::move(fn);
    node->waits = deps.size();
    const NodeId id = nodes_.size();
    for (NodeId d : deps) {
        if (d >= id)
            WSEL_FATAL("TaskGraph dependency " << d
                       << " is not an earlier node of the graph");
        nodes_[d]->dependents.push_back(id);
    }
    nodes_.push_back(std::move(node));
    return id;
}

void
TaskGraph::release(TaskGroup &group, NodeId id)
{
    group.run([this, &group, id] {
        nodes_[id]->fn();
        // Release dependents before this task reports completion,
        // so the group's pending count can never reach zero while
        // runnable nodes remain.
        std::vector<NodeId> ready;
        {
            std::lock_guard<std::mutex> g(mu_);
            ++executed_;
            for (NodeId dep : nodes_[id]->dependents) {
                if (--nodes_[dep]->waits == 0)
                    ready.push_back(dep);
            }
        }
        for (NodeId r : ready)
            release(group, r);
    });
}

void
TaskGraph::run()
{
    if (running_)
        WSEL_FATAL("TaskGraph::run called twice");
    running_ = true;
    TaskGroup group(pool_);
    // Collect the initially ready nodes before submitting any of
    // them: once a node runs, workers decrement dependents' waits
    // concurrently, and reading waits here unsynchronized could
    // observe a dependent hitting zero mid-scan and release it a
    // second time.
    std::vector<NodeId> ready;
    for (NodeId id = 0; id < nodes_.size(); ++id) {
        if (nodes_[id]->waits == 0)
            ready.push_back(id);
    }
    for (NodeId id : ready)
        release(group, id);
    group.wait(); // rethrows the first node error
    std::lock_guard<std::mutex> g(mu_);
    if (executed_ != nodes_.size())
        WSEL_FATAL("TaskGraph has a dependency cycle: "
                   << executed_ << " of " << nodes_.size()
                   << " nodes runnable");
}

} // namespace wsel::exec
