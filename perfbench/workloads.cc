#include "workloads.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <thread>


#include "cache/tagscan.hh"
#include "check.hh"
#include "core/metrics/throughput.hh"
#include "exec/scheduler.hh"
#include "fidelity/calibrate.hh"
#include "fidelity/escalation.hh"
#include "fidelity/persist_fidelity.hh"
#include "host.hh"
#include "mem/uncore.hh"
#include "obs/metrics.hh"
#include "serve/coordinator.hh"
#include "serve/protocol.hh"
#include "serve/spawn.hh"
#include "serve/store.hh"
#include "sim/campaign.hh"
#include "sim/hybrid.hh"
#include "sim/multicore.hh"
#include "sim/population.hh"
#include "spans.hh"
#include "stats/logging.hh"
#include "stats/persist.hh"
#include "trace/trace_store.hh"

namespace fs = std::filesystem;

namespace perfbench
{

using namespace wsel;

namespace
{

constexpr std::uint32_t kCores = 4;

/** Set-ups per run; setup_s is their median. */
constexpr std::size_t kSetups = 3;

/** Repetitions of each short layer probe; the median is reported. */
constexpr int kProbeReps = 5;

/** wsel_cli hybrid's default calibration size (--calibrate). */
constexpr std::size_t kCalibrationWorkloads = 24;

/**
 * The seed of the reference window: window 0 of this seed is run by
 * every run, whatever its own seed, and must reproduce the digest
 * committed in the reference book.
 */
constexpr std::uint64_t kReferenceSeed = 0;

/** obs counters the traced copies are credited with. */
const char *const kTracedCounters[] = {
    "scheduler.tasks_run",   "trace_store.chunk_hits",
    "trace_store.chunks_built", "serve.leases_granted",
    "serve.leases_requeued"};

enum class Kind
{
    Population,
    Hybrid,
    Serve,
};

struct Def
{
    const char *name;
    Kind kind;
    std::uint64_t uops;
    std::vector<PolicyKind> policies;
    /** Ranks per campaign; small windows, many per run, so a run
     * averages over many benchmark mixes. */
    std::uint64_t windowRows;
    /** serve: rows per shard, hence per lease. */
    std::uint64_t shardRows;
};

const std::vector<PolicyKind> kAllPolicies = {
    PolicyKind::LRU, PolicyKind::Random, PolicyKind::FIFO,
    PolicyKind::DIP, PolicyKind::DRRIP};

const std::vector<Def> &
defs()
{
    static const std::vector<Def> d = {
        {"pop4-badco", Kind::Population, 100000, kAllPolicies, 16, 0},
        {"hybrid-detailed", Kind::Hybrid, 10000,
         {PolicyKind::LRU, PolicyKind::DIP}, 4, 0},
        {"serve-3w", Kind::Serve, 20000, kAllPolicies, 64, 8},
    };
    return d;
}

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile @p q in [0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t idx = static_cast<std::size_t>(std::ceil(
        q * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, idx == 0 ? 0 : idx - 1)];
}

std::map<std::string, obs::MetricsEntry>
obsSnapshot()
{
    std::map<std::string, obs::MetricsEntry> out;
    for (obs::MetricsEntry &e : obs::metricsSnapshot().entries)
        out[e.name] = std::move(e);
    return out;
}

/** Counter/histogram-count (@p sum false) or histogram-sum delta. */
double
obsDelta(const std::map<std::string, obs::MetricsEntry> &a,
         const std::map<std::string, obs::MetricsEntry> &b,
         const std::string &name, bool sum = false)
{
    auto get = [&](const std::map<std::string, obs::MetricsEntry> &m) {
        const auto it = m.find(name);
        if (it == m.end())
            return 0.0;
        return sum ? static_cast<double>(it->second.sumNs)
                   : it->second.value;
    };
    return get(b) - get(a);
}

std::string
campaignDir(const std::string &root, const std::string &phase,
            std::size_t i)
{
    return root + "/" + phase + "/c" + std::to_string(i);
}

/** A campaign's key in the digest books: its ranks and seed. */
std::string
windowKey(const Window &w)
{
    return std::to_string(w.first) + "-" + std::to_string(w.last) + ":" +
           std::to_string(w.seed);
}

/** Table IV MPKI-class slot counts {High, Medium, Low}. */
std::array<std::uint64_t, 3>
classMix(const SimContext &ctx, std::uint64_t first, std::uint64_t last)
{
    std::array<std::uint64_t, 3> n{};
    ctx.pop.forEach(first, last,
                    [&](std::uint64_t,
                        std::span<const std::uint32_t> benches) {
                        for (std::uint32_t b : benches) {
                            switch (ctx.suite[b].paperClass) {
                            case MpkiClass::High: ++n[0]; break;
                            case MpkiClass::Medium: ++n[1]; break;
                            case MpkiClass::Low: ++n[2]; break;
                            }
                        }
                    });
    return n;
}

/** Mean over cores of |badco - detailed| / detailed. */
double
cellError(const double *badco, const double *detailed, std::uint32_t k)
{
    double e = 0.0;
    for (std::uint32_t c = 0; c < k; ++c)
        e += detailed[c] > 0.0
                 ? std::abs(badco[c] - detailed[c]) / detailed[c]
                 : 0.0;
    return e / static_cast<double>(k);
}

/**
 * BADCO-vs-detailed error over the escalated cells of the hybrid
 * campaign in @p dir, from its shards and fidelity batches.
 */
void
escalatedError(const std::string &dir, Outcome &o)
{
    const persist::V3Manifest m = persist::readV3Manifest(dir);
    const fidelity::EscalationRecord rec =
        fidelity::readEscalationRecord(dir);
    const std::size_t np = m.policies.size();
    const std::uint32_t k = m.cores;
    for (std::uint64_t b = 0;
         fs::exists(fidelity::fidelityBatchPath(dir, b)); ++b) {
        const fidelity::FidelityBatch batch =
            fidelity::readFidelityBatch(dir, rec.detailedFingerprint,
                                        b);
        for (std::size_t r = 0; r < batch.ranks.size(); ++r) {
            const std::vector<double> bad =
                readRows(dir, batch.ranks[r], batch.ranks[r] + 1);
            for (std::size_t p = 0; p < np; ++p) {
                o.errSum += cellError(bad.data() + p * k,
                                      batch.ipc.data() +
                                          (r * np + p) * k,
                                      k);
                ++o.errCells;
            }
        }
    }
}

/**
 * The serve-3w fleet: an in-process coordinator loop and N spawned
 * wsel_worker processes.  The destructor drains the coordinator,
 * joins its thread and reaps every worker (SIGKILL after a
 * deadline), so no process outlives the run.
 */
class ServeFleet
{
  public:
    ServeFleet(const std::string &socket, const std::string &store,
               const std::string &cache, std::size_t jobs,
               const std::string &worker_bin, std::size_t workers)
        : coord_(options(socket, store, cache, jobs))
    {
        loop_ = std::thread([this] {
            try {
                coord_.run();
            } catch (const std::exception &e) {
                warn(std::string("perfbench: coordinator died: ") +
                     e.what());
            }
        });
        try {
            obs::Gauge &active = obs::gauge("serve.workers_active");
            const double base = active.value();
            const auto t0 = Clock::now();
            {
                Span s("serve.spawn");
                for (std::size_t i = 0; i < workers; ++i)
                    pids_.push_back(serve::spawnProcess(
                        {worker_bin, "--socket", socket, "--cache-dir",
                         cache}));
            }
            {
                Span s("serve.hello");
                while (active.value() <
                       base + static_cast<double>(workers)) {
                    if (secondsSince(t0) > 60.0)
                        WSEL_FATAL("workers did not say hello "
                                   "within 60 s");
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(200));
                }
            }
            readySeconds_ = secondsSince(t0);
            Span s("serve.connect");
            client_ = std::make_unique<serve::Client>(socket);
        } catch (...) {
            shutdown();
            throw;
        }
    }

    ~ServeFleet() { shutdown(); }

    ServeFleet(const ServeFleet &) = delete;
    ServeFleet &operator=(const ServeFleet &) = delete;

    serve::Client &client() { return *client_; }

    /** Seconds from the first spawn to the last worker's hello. */
    double readySeconds() const { return readySeconds_; }

    double
    workerCpuSeconds() const
    {
        double s = 0.0;
        for (pid_t p : pids_)
            s += std::max(0.0, pidCpuSeconds(p));
        return s;
    }

    double
    workerPeakRssMib() const
    {
        double mib = 0.0;
        for (pid_t p : pids_) {
            std::ifstream st("/proc/" + std::to_string(p) + "/status");
            for (std::string line; std::getline(st, line);)
                if (line.rfind("VmHWM:", 0) == 0)
                    mib += std::strtod(line.c_str() + 6, nullptr) /
                           1024.0;
        }
        return mib;
    }

  private:
    static serve::CoordinatorOptions
    options(const std::string &socket, const std::string &store,
            const std::string &cache, std::size_t jobs)
    {
        serve::CoordinatorOptions o;
        o.socketPath = socket;
        o.storeRoot = store;
        o.cacheDir = cache;
        o.jobs = jobs;
        return o;
    }

    void
    shutdown()
    {
        client_.reset();
        coord_.requestStop();
        if (loop_.joinable())
            loop_.join();
        const auto t0 = Clock::now();
        for (pid_t p : pids_) {
            while (!serve::pollProcess(p)) {
                if (secondsSince(t0) > 10.0) {
                    ::kill(p, SIGKILL);
                    (void)serve::waitProcess(p);
                    break;
                }
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2));
            }
        }
        pids_.clear();
    }

    serve::Coordinator coord_;
    std::thread loop_;
    std::vector<pid_t> pids_;
    std::unique_ptr<serve::Client> client_;
    double readySeconds_ = 0.0;
};

volatile std::uint64_t gSink = 0;

/** Keeps a probe loop's result alive so the loop is not optimised out. */
void
keep(std::uint64_t v)
{
    gSink = v;
}

Metric
metric(const std::string &name, const std::string &unit, double v)
{
    return Metric{name, unit, v};
}

/** One run of one workload. */
class Bench
{
  public:
    Bench(const RunConfig &cfg, const Def &def)
        : cfg_(cfg), def_(def),
          ctx_(def.uops, def.policies, cfg.jobs)
    {
    }

    RunResult run();

  private:
    /** The traced run's measured phase; see measurePaired(). */
    struct Paired
    {
        std::vector<Outcome> untraced;
        std::vector<Outcome> traced;
        double tracedWall = 0.0; ///< host seconds of the traced copies
        double tracedCpu = 0.0;  ///< this process's CPU seconds in them
        double workerCpu = 0.0;  ///< serve workers' CPU seconds in them
        std::map<std::string, double> counters; ///< kTracedCounters
    };

    void runPhases();
    Window windowAt(std::uint64_t seed, std::size_t i) const;
    double setupOnce(std::size_t i, bool keep);
    std::vector<Outcome> measure(double seconds);
    Paired measurePaired(double seconds);
    Outcome campaign(const Window &w, const std::string &dir);
    Outcome hybridCampaign(const Window &w, const std::string &dir);
    Outcome serveCampaign(const Window &w);
    void resetProfile(const fidelity::ErrorProfile &p);
    void verify(const std::vector<Outcome> &outs);
    void checkReference();
    double referenceError(const std::vector<Outcome> &outs);
    void probes(const std::vector<Outcome> &outs,
                std::vector<Metric> &out);
    void probeShard(const Outcome &first, std::vector<Metric> &out);
    void probeDetailed(const std::vector<Outcome> &outs,
                       const Outcome &first, std::vector<Metric> &out);
    void probeUncore(const Window &w, std::vector<Metric> &out);
    void probeStore(const std::string &dir0, std::vector<Metric> &out);
    void probeFrameCodec(const std::string &dir0, std::vector<Metric> &out);
    void probeFidelity(const std::vector<Outcome> &outs,
                       const Outcome &first, std::vector<Metric> &out);
    void startFleet(const std::string &dir);
    /** A metric this workload has no layer for: 0, and why. */
    void na(std::vector<Metric> &out, const std::string &name,
            const std::string &unit, const std::string &why)
    {
        out.push_back(Metric{name, unit, 0.0});
        note(name + " unavailable on " + def_.name + ": " + why);
    }
    void note(const std::string &s)
    {
        result_.notes.push_back(s);
        warn("perfbench: " + s);
    }

    const RunConfig &cfg_;
    const Def &def_;
    SimContext ctx_;
    RunResult result_;

    fidelity::ErrorProfile profile_;
    fidelity::ErrorProfile calibrated_;
    std::string profilePath_;
    std::unique_ptr<ServeFleet> fleet_;
    std::size_t workers_ = 0;

    std::vector<double> setupSecs_;
    std::vector<double> modelBuildSecs_;
    std::vector<double> calibrateSecs_;
    std::vector<double> spawnSecs_;
    double chunkBuildMs_ = 0.0;
};

/**
 * Window i starts at frac(u0 + i / phi) of the population, u0 drawn
 * from the seed: every prefix of the sequence spreads evenly over
 * the rank space, and nearby ranks share benchmarks, so each seed
 * sees the same spread of benchmark mixes however many campaigns fit
 * in the run.
 */
Window
Bench::windowAt(std::uint64_t seed, std::size_t i) const
{
    // serve submits [first, first + W) and then the same window
    // shifted by W/2, so it needs 1.5 W ranks.
    const std::uint64_t span = def_.kind == Kind::Serve
                                   ? def_.windowRows * 3 / 2
                                   : def_.windowRows;
    const std::uint64_t room = ctx_.pop.size() - span + 1;
    const double u0 =
        static_cast<double>(splitmix(seed) >> 11) * 0x1.0p-53;
    const double u =
        std::fmod(u0 + 0.6180339887498949 * static_cast<double>(i), 1.0);
    Window w;
    w.first = std::min(room - 1, static_cast<std::uint64_t>(
                                     u * static_cast<double>(room)));
    w.last = w.first + def_.windowRows;
    w.seed = 1 + splitmix(splitmix(seed) ^ (0x51ed27ULL * (i + 1))) %
                     1000000007ULL;
    return w;
}

double
Bench::setupOnce(std::size_t i, bool keep)
{
    const std::string dir = cfg_.runDir + "/setup-" + std::to_string(i);
    const std::string cache = dir + "/cache";
    persist::ensureDirTree(cache);
    fleet_.reset();
    // Code that reads defaultCacheDir() (the calibration campaigns,
    // spawned workers) must see this setup's empty cache too.
    ::setenv("WSEL_CACHE_DIR", cache.c_str(), 1);
    TraceStore::global().clear();
    const auto before = obsSnapshot();
    const auto t0 = Clock::now();
    {
        Span setup("setup");
        {
            Span s("badco.getSuite.cold");
            ctx_.loadModels(cache);
            modelBuildSecs_.push_back(s.seconds());
        }
        {
            Span s("trace.ensureBuilt");
            const std::uint64_t parent = s.id();
            exec::ThreadPool pool(ctx_.jobs);
            exec::parallel_for(
                pool, std::size_t{0}, ctx_.suite.size(),
                [&](std::size_t b) {
                    Span c("trace.ensureBuilt.benchmark", parent);
                    TraceStore::global().ensureBuilt(ctx_.suite[b],
                                                     ctx_.uops);
                });
        }
        if (def_.kind == Kind::Hybrid) {
            Span s("fidelity.calibrateErrorProfile");
            // Seed 1 (the CLI default) for every run seed: set-up is
            // the same work whatever the windows, so setup_s compares
            // across seeds.
            profile_ = fidelity::calibrateErrorProfile(
                kCores, ctx_.uops, kCalibrationWorkloads, 1, ctx_.suite,
                ctx_.policies, cache, ctx_.jobs);
            profilePath_ = fidelity::errorProfilePath(cache);
            fidelity::writeErrorProfile(profilePath_, profile_);
            calibrated_ = profile_;
            calibrateSecs_.push_back(s.seconds());
        }
        if (def_.kind == Kind::Serve) {
            Span s("serve.start");
            startFleet(dir);
            spawnSecs_.push_back(fleet_->readySeconds());
        }
    }
    const double secs = secondsSince(t0);
    const auto after = obsSnapshot();
    const double chunks =
        obsDelta(before, after, "trace_store.build_ns");
    if (chunks > 0)
        chunkBuildMs_ =
            1e-6 * obsDelta(before, after, "trace_store.build_ns", true) /
            chunks;
    if (!keep)
        fleet_.reset();
    return secs;
}

void
Bench::startFleet(const std::string &dir)
{
    persist::ensureDirTree(dir);
    // The socket path is relative to the checkout so it stays under
    // the sun_path limit wherever the checkout lives.
    fleet_ = std::make_unique<ServeFleet>(
        fs::relative(dir + "/s.sock").string(), dir + "/store",
        ctx_.cacheDir, ctx_.jobs, cfg_.workerBin, workers_);
}

Outcome
Bench::campaign(const Window &w, const std::string &dir)
{
    switch (def_.kind) {
    case Kind::Population:
        return runPopulationCampaign(ctx_, w, dir);
    case Kind::Hybrid:
        return hybridCampaign(w, dir);
    case Kind::Serve:
        break;
    }
    return serveCampaign(w);
}

/** Make @p p hybrid's error profile, in memory and on disk. */
void
Bench::resetProfile(const fidelity::ErrorProfile &p)
{
    profile_ = p;
    fidelity::writeErrorProfile(profilePath_, profile_);
}

Outcome
Bench::hybridCampaign(const Window &w, const std::string &dir)
{
    Outcome o;
    o.window = w;
    o.rows = w.last - w.first;
    const std::size_t np = ctx_.policies.size();
    o.attempted = o.rows * np;
    try {
        HybridOptions opts;
        opts.seed = w.seed;
        opts.jobs = ctx_.jobs;
        opts.firstRank = w.first;
        opts.lastRank = w.last;
        opts.resume = false;
        HybridResult r;
        {
            Span s("runHybridCampaign");
            r = runHybridCampaign(ctx_.pop, ctx_.policies[0],
                                  ctx_.policies[1],
                                  ThroughputMetric::IPCT, ctx_.uops,
                                  *ctx_.store, ctx_.suite, profile_,
                                  dir, opts);
        }
        if (r.profileUpdated) {
            Span s("fidelity.writeErrorProfile");
            fidelity::writeErrorProfile(profilePath_, profile_);
        }
        o.escalatedRows = r.report.escalated;
        o.attempted += o.escalatedRows * np;
        o.committed = o.attempted;
        o.dirs.push_back(dir);
    } catch (const std::exception &e) {
        o.error = e.what();
        return o;
    }
    try {
        o.digest = campaignDigest(dir);
        escalatedError(dir, o);
    } catch (const std::exception &e) {
        o.digestOk = false;
        note("hybrid campaign " + dir + " unreadable: " + e.what());
    }
    return o;
}

Outcome
Bench::serveCampaign(const Window &w)
{
    Outcome o;
    o.window = w;
    const std::uint64_t rows = w.last - w.first;
    const std::uint64_t np = ctx_.policies.size();
    serve::CampaignSpec spec;
    spec.cores = kCores;
    spec.targetUops = ctx_.uops;
    spec.seed = w.seed;
    spec.shardRows = def_.shardRows;
    for (PolicyKind p : ctx_.policies)
        spec.policies.push_back(toString(p));
    for (const BenchmarkProfile &b : ctx_.suite)
        spec.benchmarks.push_back(b.name);

    serve::Client &client = fleet_->client();
    persist::Fnv1a digest;
    for (std::uint64_t part = 0; part < 2; ++part) {
        spec.firstRank = w.first + part * (rows / 2);
        spec.lastRank = spec.firstRank + rows;
        o.attempted += rows * np;
        try {
            Span s("serve.campaign");
            std::uint64_t id;
            {
                Span sub("serve.Client.submit");
                id = client.submit(spec);
            }
            serve::StatusMsg st;
            auto last = Clock::now();
            const auto t0 = last;
            std::uint64_t done = 0;
            {
                Span poll("serve.Client.status");
                for (;;) {
                    st = client.status(id);
                    if (st.shardsDone > done) {
                        const auto now = Clock::now();
                        for (; done < st.shardsDone; ++done)
                            o.commitGaps.push_back(
                                std::chrono::duration<double>(now -
                                                              last)
                                    .count());
                        last = now;
                    }
                    if (st.state != serve::CampaignState::Queued &&
                        st.state != serve::CampaignState::Running)
                        break;
                    if (secondsSince(t0) > 120.0)
                        WSEL_FATAL("serve campaign " << id
                                   << " not finished after 120 s");
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
                }
            }
            o.shards += st.shardsTotal;
            if (part == 1)
                o.deduped += st.shardsDeduped;
            if (st.state == serve::CampaignState::Done) {
                o.committed += rows * np;
                o.dirs.push_back(st.dir);
                Span d("perfbench.campaignDigest");
                digest.updateU64(campaignDigest(st.dir));
            } else {
                o.committed +=
                    std::min(rows, st.shardsDone * spec.shardRows) * np;
                o.error = std::string("campaign ") +
                          serve::toString(st.state) + ": " + st.message;
            }
        } catch (const std::exception &e) {
            o.error = e.what();
        }
    }
    o.digest = digest.digest();
    if (o.dirs.size() == 2) {
        // Both submissions hold rows [W/2, W) of the window; cell
        // values depend only on (fingerprint, seed, policy, rank).
        try {
            const std::uint64_t a = w.first + rows / 2;
            o.digestOk = readRows(o.dirs[0], a, w.last) ==
                         readRows(o.dirs[1], a, w.last);
        } catch (const std::exception &e) {
            o.digestOk = false;
        }
        if (!o.digestOk)
            note("serve overlap rows differ between " + o.dirs[0] +
                 " and " + o.dirs[1]);
    }
    return o;
}

std::vector<Outcome>
Bench::measure(double seconds)
{
    std::vector<Outcome> out;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i == 0 || secondsSince(t0) < seconds; ++i) {
        Span s("campaign");
        out.push_back(campaign(windowAt(cfg_.seed, i),
                               campaignDir(cfg_.runDir, "m", i)));
        out.back().seconds = s.seconds();
    }
    return out;
}

/**
 * The traced run's measured phase.  Every window runs twice, once
 * with spans off and once with spans on, in alternating order so
 * that host drift and warm-up fall on both copies alike.  Both copies
 * start from the same state: hybrid's learned error profile is put
 * back before the second, and a serve copy's results are moved out of
 * the store, so the other copy recomputes its shards instead of
 * deduplicating them.
 */
Bench::Paired
Bench::measurePaired(double seconds)
{
    Paired p;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i == 0 || secondsSince(t0) < seconds; ++i) {
        const Window w = windowAt(cfg_.seed, i);
        const fidelity::ErrorProfile start = profile_;
        for (int k = 0; k < 2; ++k) {
            const bool traced = (k == 1) != (i % 2 == 1);
            if (k == 1 && def_.kind == Kind::Hybrid)
                resetProfile(start);
            SpanLog::instance().setRecording(traced);
            const std::string dir =
                campaignDir(cfg_.runDir, traced ? "t" : "m", i);
            const auto before = obsSnapshot();
            const double cpu0 = processCpuSeconds();
            const double wcpu0 = fleet_ ? fleet_->workerCpuSeconds() : 0.0;
            Outcome o;
            {
                Span s("campaign");
                o = campaign(w, dir);
                o.seconds = s.seconds();
            }
            const auto after = obsSnapshot();
            const double cpu = processCpuSeconds() - cpu0;
            const double wcpu =
                fleet_ ? fleet_->workerCpuSeconds() - wcpu0 : 0.0;
            if (def_.kind == Kind::Serve) {
                persist::ensureDirTree(fs::path(dir).parent_path().string());
                for (std::size_t j = 0; j < o.dirs.size(); ++j) {
                    const std::string to = dir + "-" + std::to_string(j);
                    fs::rename(o.dirs[j], to);
                    o.dirs[j] = to;
                }
            }
            if (!traced) {
                p.untraced.push_back(std::move(o));
                continue;
            }
            p.tracedWall += o.seconds;
            p.tracedCpu += cpu;
            p.workerCpu += wcpu;
            for (const char *name : kTracedCounters)
                p.counters[name] += obsDelta(before, after, name);
            p.traced.push_back(std::move(o));
        }
    }
    SpanLog::instance().setRecording(true);
    return p;
}

void
Bench::verify(const std::vector<Outcome> &outs)
{
    Span s("perfbench.verify");
    DigestBook book(cfg_.stateDir + "/digests/" + def_.name + "-seed" +
                    std::to_string(cfg_.seed) + ".txt");
    std::vector<const Outcome *> ok;
    for (const Outcome &o : outs) {
        if (!o.digestOk)
            result_.correct = false;
        if (!o.ok() || o.dirs.empty())
            continue;
        // Keyed by window, so the traced copy of a window and any
        // later run of the same seed must reproduce the digest.
        const std::string key = windowKey(o.window);
        if (!book.record(key, o.digest)) {
            result_.correct = false;
            note("digest mismatch for campaign " + key + " (" +
                 o.dirs.front() + ")");
        }
        ok.push_back(&o);
    }
    book.save();
    checkReference();
    if (ok.empty())
        return;

    // Seeded rows recomputed on the serial engine, one per sampled
    // campaign directory.
    std::uint64_t h = splitmix(cfg_.seed ^ 0xc0ffeeULL);
    const std::size_t samples = std::min<std::size_t>(4, ok.size());
    for (std::size_t j = 0; j < samples; ++j) {
        h = splitmix(h);
        const Outcome &o = *ok[h % ok.size()];
        const std::string &dir = o.dirs[(h >> 20) % o.dirs.size()];
        const persist::V3Manifest m = persist::readV3Manifest(dir);
        const std::uint64_t rank =
            m.firstRank + (h >> 32) % m.rows();
        const std::size_t bad =
            recheckBadcoRows(dir, ctx_.pop, ctx_.ucfgs, ctx_.models,
                             o.window.seed, {rank});
        if (bad != 0) {
            result_.correct = false;
            note("serial recompute of rank " + std::to_string(rank) +
                 " differs from " + dir);
        }
    }
    if (def_.kind == Kind::Hybrid) {
        const Outcome &o = *ok[splitmix(h) % ok.size()];
        if (o.escalatedRows > 0 &&
            recheckDetailedRows(o.dirs[0], ctx_.pop, ctx_.ucfgs,
                                ctx_.suite, o.window.seed, 1) != 0) {
            result_.correct = false;
            note("detailed recompute differs from " + o.dirs[0]);
        }
    }
}

/**
 * Run the reference window through this workload's own path and
 * compare its digest with the committed one.  The other checks
 * compare a tree only with itself; this one catches a change that
 * moves simulated results in code every engine shares (the uncore,
 * the tag scan, the BADCO walk).  A change meant to move results
 * records the new digest, which the note prints.
 */
void
Bench::checkReference()
{
    const Window w = windowAt(kReferenceSeed, 0);
    const fidelity::ErrorProfile learned = profile_;
    if (def_.kind == Kind::Hybrid)
        resetProfile(calibrated_);
    Outcome o;
    {
        Span s("reference.campaign");
        o = campaign(w, campaignDir(cfg_.runDir, "ref", 0));
    }
    if (def_.kind == Kind::Hybrid)
        resetProfile(learned);
    const std::string key = std::string(def_.name) + ":" + windowKey(w);
    std::printf("perfbench: reference campaign %s: %llu cells, %llu "
                "escalated rows, digest %s\n",
                key.c_str(), static_cast<unsigned long long>(o.committed),
                static_cast<unsigned long long>(o.escalatedRows),
                persist::toHex(o.digest).c_str());
    const std::uint64_t *want = DigestBook(cfg_.referenceFile).find(key);
    if (o.ok() && o.digestOk && want != nullptr && *want == o.digest)
        return;
    result_.correct = false;
    if (!o.ok() || !o.digestOk)
        note("reference campaign " + key + " failed: " + o.error);
    else
        note("reference campaign " + key + " digest " +
             persist::toHex(o.digest) +
             (want ? " differs from " + persist::toHex(*want)
                   : std::string(" has no entry")) +
             " in " + cfg_.referenceFile);
}

/**
 * badco_ipc_err_pct: BADCO's single-core reference IPCs (the first
 * committed manifest's refIpc: each benchmark alone on the LRU
 * uncore) against the detailed core's on the same machine and seed,
 * over the whole suite.  The escalated cells of hybrid-detailed are
 * too few per run for a steady figure (fidelity.escalated_err_pct
 * reports them).
 */
double
Bench::referenceError(const std::vector<Outcome> &outs)
{
    Span s("perfbench.referenceError");
    const Outcome *o = nullptr;
    for (const Outcome &c : outs)
        if (c.ok() && !c.dirs.empty()) {
            o = &c;
            break;
        }
    if (o == nullptr)
        return 0.0;
    const persist::V3Manifest m = persist::readV3Manifest(o->dirs[0]);
    std::vector<double> err(ctx_.suite.size(), 0.0);
    const std::uint64_t parent = s.id();
    exec::ThreadPool pool(ctx_.jobs);
    exec::parallel_for(
        pool, std::size_t{0}, ctx_.suite.size(), [&](std::size_t b) {
            Span cs("DetailedMulticoreSim.referenceIpcs", parent);
            const DetailedMulticoreSim sim(
                CoreConfig{},
                UncoreConfig::forCores(kCores, PolicyKind::LRU), 1,
                ctx_.uops, o->window.seed);
            const double det = sim.referenceIpcs({ctx_.suite[b]})[0];
            err[b] = cellError(&m.refIpc[b], &det, 1);
        });
    double sum = 0.0;
    for (double e : err)
        sum += e;
    return 100.0 * sum / static_cast<double>(err.size());
}

RunResult
Bench::run()
{
    workers_ = std::max<std::size_t>(
        1, std::min<std::size_t>(
               3, std::thread::hardware_concurrency() - 1));
    if (cfg_.trace)
        SpanLog::instance().enable(splitmix(
            cfg_.seed ^ static_cast<std::uint64_t>(::getpid()) ^
            static_cast<std::uint64_t>(
                Clock::now().time_since_epoch().count())));
    {
        Span root("run");
        runPhases();
    }
    fleet_.reset();
    if (!cfg_.trace)
        return result_;

    // Self time per span name: what each blocking step cost once its
    // children are taken out.  The traced campaigns' own self time is
    // the part of the measured phase no span accounts for.
    const std::vector<SpanRecord> spans = SpanLog::instance().records();
    const std::map<std::string, SpanTotals> totals = spanTotals(spans);
    const SpanTotals &measured = totals.at("campaign");
    result_.metrics.push_back(metric("obs.unattributed_pct", "%",
                                     100.0 * measured.self /
                                         measured.total));
    std::vector<std::pair<std::string, SpanTotals>> rows(totals.begin(),
                                                         totals.end());
    std::sort(rows.begin(), rows.end(), [](const auto &a, const auto &b) {
        return a.second.self > b.second.self;
    });
    std::printf("perfbench: %-40s %7s %10s %10s\n", "span", "count",
                "total s", "self s");
    for (const auto &[name, t] : rows)
        std::printf("perfbench: %-40s %7llu %10.4f %10.4f\n",
                    name.c_str(), static_cast<unsigned long long>(t.count),
                    t.total, t.self);
    const std::string path = cfg_.stateDir + "/spans/" + def_.name +
                             "-seed" + std::to_string(cfg_.seed) +
                             ".json";
    persist::ensureDirTree(fs::path(path).parent_path().string());
    persist::atomicWriteFile(path, SpanLog::instance().toJson());
    std::printf("perfbench: spans written to %s\n", path.c_str());
    return result_;
}

void
Bench::runPhases()
{
    for (std::size_t i = 0; i < kSetups; ++i)
        setupSecs_.push_back(setupOnce(i, i + 1 == kSetups));

    // Trace 0: the end-to-end phase, no spans.  Trace 1: every window
    // once untraced and once traced (measurePaired).
    const auto t0 = Clock::now();
    Paired paired;
    if (cfg_.trace) {
        Span s("measure.paired");
        paired = measurePaired(cfg_.seconds);
    } else {
        paired.untraced = measure(cfg_.seconds);
    }
    const std::vector<Outcome> &outs = paired.untraced;
    const std::vector<Outcome> &traced = paired.traced;
    const double wall = secondsSince(t0);
    double peak_rss = peakRssMib();
    if (fleet_)
        peak_rss += fleet_->workerPeakRssMib();

    std::uint64_t committed = 0;
    for (const Outcome &o : outs)
        committed += o.committed;
    const double cells_per_s = static_cast<double>(committed) / wall;

    std::vector<Outcome> all = outs;
    std::vector<Metric> per_layer;
    if (cfg_.trace) {
        std::vector<double> ratio;
        for (std::size_t i = 0; i < traced.size(); ++i) {
            std::printf("perfbench:   window %zu untraced %.3f s traced "
                        "%.3f s\n",
                        i, outs[i].seconds, traced[i].seconds);
            ratio.push_back(traced[i].seconds / outs[i].seconds);
        }
        const double twall = paired.tracedWall;
        auto counter = [&](const char *name) {
            return paired.counters[name];
        };

        per_layer.push_back(metric(
            "exec.busy_frac", "ratio",
            paired.tracedCpu / (twall * static_cast<double>(ctx_.jobs))));
        per_layer.push_back(
            metric("exec.tasks_run", "count", counter("scheduler.tasks_run")));
        const double hits = counter("trace_store.chunk_hits");
        const double built = counter("trace_store.chunks_built");
        if (hits + built > 0)
            per_layer.push_back(metric("trace.chunk_hit_ratio", "ratio",
                                       hits / (hits + built)));
        else
            na(per_layer, "trace.chunk_hit_ratio", "ratio",
               "no chunk lookups in this process");
        per_layer.push_back(metric(
            "trace.resident_mib", "MiB",
            static_cast<double>(TraceStore::global().residentBytes()) /
                (1024.0 * 1024.0)));
        per_layer.push_back(metric("obs.trace_overhead_pct", "%",
                                   100.0 * (median(ratio) - 1.0)));

        if (def_.kind == Kind::Serve) {
            std::vector<double> gaps;
            std::uint64_t shards = 0, deduped = 0;
            for (const Outcome &o : traced) {
                gaps.insert(gaps.end(), o.commitGaps.begin(),
                            o.commitGaps.end());
                shards += o.shards;
                deduped += o.deduped;
            }
            per_layer.push_back(metric("serve.commit_interval_ms_p50",
                                       "ms",
                                       1e3 * percentile(gaps, 0.50)));
            per_layer.push_back(metric("serve.commit_interval_ms_p99",
                                       "ms",
                                       1e3 * percentile(gaps, 0.99)));
            per_layer.push_back(metric(
                "serve.dedup_frac", "ratio",
                shards ? static_cast<double>(deduped) /
                             static_cast<double>(shards)
                       : 0.0));
            const double granted = counter("serve.leases_granted");
            per_layer.push_back(metric(
                "serve.lease_retry_frac", "ratio",
                granted > 0 ? counter("serve.leases_requeued") / granted
                            : 0.0));
            per_layer.push_back(metric(
                "serve.worker_busy_frac", "ratio",
                paired.workerCpu /
                    (twall * static_cast<double>(workers_))));
        }
        all.insert(all.end(), traced.begin(), traced.end());
    }

    verify(all);
    const Tally t = tally(all);
    result_.attempted = t.attempted;
    result_.failed = t.failed;

    const double err_pct = cfg_.trace ? 0.0 : referenceError(outs);

    // Window mix, reported with every result.
    std::array<std::uint64_t, 3> mix{};
    for (const Outcome &o : outs) {
        const auto m = classMix(ctx_, o.window.first, o.window.last);
        for (std::size_t c = 0; c < 3; ++c)
            mix[c] += m[c];
    }
    const double slots = static_cast<double>(mix[0] + mix[1] + mix[2]);

    std::printf("perfbench: setup times");
    for (double t : setupSecs_)
        std::printf(" %.3f", t);
    std::printf(" s\n");
    std::printf("perfbench: %s seed %llu: %zu campaigns in %.3f s, "
                "%llu cells committed; MPKI mix high %.3f medium %.3f "
                "low %.3f\n",
                def_.name, static_cast<unsigned long long>(cfg_.seed),
                outs.size(), wall,
                static_cast<unsigned long long>(committed),
                mix[0] / slots, mix[1] / slots, mix[2] / slots);
    for (std::size_t i = 0; i < outs.size(); ++i) {
        const Outcome &o = outs[i];
        const auto m = classMix(ctx_, o.window.first, o.window.last);
        const double n = static_cast<double>(m[0] + m[1] + m[2]);
        std::printf("perfbench:   window %zu ranks [%llu, %llu) seed "
                    "%llu mix %.3f/%.3f/%.3f %.3f s%s%s\n",
                    i, static_cast<unsigned long long>(o.window.first),
                    static_cast<unsigned long long>(o.window.last),
                    static_cast<unsigned long long>(o.window.seed),
                    m[0] / n, m[1] / n, m[2] / n, o.seconds,
                    o.ok() ? "" : " FAILED: ", o.error.c_str());
    }

    if (!cfg_.trace) {
        result_.metrics = {
            metric("setup_s", "s", median(setupSecs_)),
            metric("cells_per_s", "1/s", cells_per_s),
            metric("peak_rss_mib", "MiB", peak_rss),
            metric("badco_ipc_err_pct", "%", err_pct),
        };
        return;
    }

    probes(outs, per_layer);
    result_.metrics = per_layer;
}

void
Bench::probes(const std::vector<Outcome> &outs, std::vector<Metric> &out)
{
    Span probe("probes");
    out.push_back(
        metric("badco.model_build_s", "s", median(modelBuildSecs_)));
    {
        Span s("BadcoModelStore.getSuite.warm");
        const UncoreConfig ucfg =
            UncoreConfig::forCores(kCores, PolicyKind::LRU);
        BadcoModelStore store(CoreConfig{}, ctx_.uops,
                              ucfg.llcHitLatency, ctx_.cacheDir);
        (void)store.getSuite(ctx_.suite, ctx_.jobs);
        out.push_back(metric("badco.model_load_ms", "ms",
                             1e3 * s.seconds()));
    }
    out.push_back(metric("trace.chunk_build_ms", "ms", chunkBuildMs_));
    {
        const double n = static_cast<double>(ctx_.suite.size() * ctx_.uops);
        std::uint64_t sink = 0;
        std::vector<double> ns;
        for (int rep = 0; rep < kProbeReps; ++rep) {
            Span s("TraceCursor.next");
            for (const BenchmarkProfile &p : ctx_.suite) {
                TraceCursor cur = TraceStore::global().cursor(p);
                for (std::uint64_t i = 0; i < ctx_.uops; ++i) {
                    const MicroOp u = cur.next();
                    sink += u.addr ^ static_cast<std::uint64_t>(u.kind);
                }
            }
            ns.push_back(1e9 * s.seconds() / n);
        }
        keep(sink);
        out.push_back(metric("trace.cursor_ns_per_uop", "ns", median(ns)));
    }

    const Outcome *first = nullptr;
    for (const Outcome &o : outs) {
        if (o.ok() && !o.dirs.empty()) {
            first = &o;
            break;
        }
    }
    if (first == nullptr) {
        note("no campaign committed; shard, uncore and store probes "
             "skipped");
        result_.correct = false;
        return;
    }
    probeShard(*first, out);
    probeDetailed(outs, *first, out);
    probeUncore(first->window, out);
    probeStore(first->dirs[0], out);
    probeFrameCodec(first->dirs[0], out);

    probeFidelity(outs, *first, out);

    if (def_.kind == Kind::Serve) {
        out.push_back(metric("serve.spawn_ms", "ms", 1e3 * median(spawnSecs_)));
    } else {
        const std::string why = "no coordinator or workers in this workload";
        na(out, "serve.spawn_ms", "ms", why);
        na(out, "serve.commit_interval_ms_p50", "ms", why);
        na(out, "serve.commit_interval_ms_p99", "ms", why);
        na(out, "serve.dedup_frac", "ratio", why);
        na(out, "serve.lease_retry_frac", "ratio", why);
        na(out, "serve.worker_busy_frac", "ratio", why);
    }
}

/**
 * Escalation selection over the first window, and the escalated
 * cells' share and BADCO-vs-detailed error over the run.
 */
void
Bench::probeFidelity(const std::vector<Outcome> &outs, const Outcome &first,
                     std::vector<Metric> &out)
{
    if (def_.kind == Kind::Hybrid) {
        out.push_back(
            metric("fidelity.calibrate_s", "s", median(calibrateSecs_)));
        const Window &w = first.window;
        const std::string &dir0 = first.dirs[0];
        const persist::V3Manifest m = persist::readV3Manifest(dir0);
        const std::size_t np = ctx_.policies.size();
        std::uint64_t rows = 0, escalated = 0;
        for (const Outcome &o : outs) {
            rows += o.rows;
            escalated += o.escalatedRows;
        }
        Span s("fidelity.selectEscalations");
        fidelity::EscalationOracle oracle(ThroughputMetric::IPCT, profile_,
                                          0.95, m.refIpc);
        const std::vector<double> ipc = readRows(dir0, w.first, w.last);
        std::vector<fidelity::CellInterval> cells;
        WorkloadCursor cur(ctx_.pop, w.first);
        for (std::uint64_t r = 0; r < w.last - w.first; ++r, cur.next()) {
            const double *row = ipc.data() + r * np * kCores;
            cells.push_back(oracle.interval(cur.benchmarks(),
                                            {row, kCores},
                                            {row + kCores, kCores}));
        }
        (void)fidelity::selectEscalations(cells, 0.0, 0.25);
        out.push_back(metric("fidelity.select_ms", "ms", 1e3 * s.seconds()));
        double err = 0.0;
        std::uint64_t err_cells = 0;
        for (const Outcome &o : outs) {
            err += o.errSum;
            err_cells += o.errCells;
        }
        out.push_back(metric("fidelity.escalated_err_pct", "%",
                             err_cells ? 100.0 * err /
                                             static_cast<double>(err_cells)
                                       : 0.0));
        out.push_back(metric("fidelity.escalated_frac", "ratio",
                             rows ? static_cast<double>(escalated) /
                                        static_cast<double>(rows)
                                  : 0.0));
    } else {
        const std::string why = "no escalation in this workload";
        na(out, "fidelity.calibrate_s", "s", why);
        na(out, "fidelity.select_ms", "ms", why);
        na(out, "fidelity.escalated_frac", "ratio", why);
        na(out, "fidelity.escalated_err_pct", "%", why);
    }
}

/**
 * One shard over the first window's leading rows, through the
 * batched engine (default batch and wave), the serial engine and
 * wave 8; all three must agree bitwise.
 */
void
Bench::probeShard(const Outcome &first, std::vector<Metric> &out)
{
    const Window &w = first.window;
    const std::string &dir0 = first.dirs[0];
    const persist::V3Manifest m = persist::readV3Manifest(dir0);
    const std::size_t np = ctx_.policies.size();
    const std::uint64_t n = std::min<std::uint64_t>(16, w.last - w.first);
    persist::V3Manifest pm = m;
    pm.firstRank = w.first;
    pm.lastRank = w.first + n;
    pm.shardRows = n;
    std::vector<double> batched, serial, wave8;
    double tb, ts, tw;
    {
        Span s("simulatePopulationShardBatched");
        simulatePopulationShardBatched(pm, ctx_.pop, ctx_.ucfgs,
                                       ctx_.models, w.seed, 0, 0, 0,
                                       batched);
        tb = s.seconds();
    }
    {
        Span s("simulatePopulationShard");
        simulatePopulationShard(pm, ctx_.pop, ctx_.ucfgs, ctx_.models,
                                w.seed, 0, serial);
        ts = s.seconds();
    }
    {
        Span s("simulatePopulationShardBatched.wave8");
        simulatePopulationShardBatched(pm, ctx_.pop, ctx_.ucfgs,
                                       ctx_.models, w.seed, 0, 0, 8,
                                       wave8);
        tw = s.seconds();
    }
    if (batched != serial || batched != wave8 ||
        batched != readRows(dir0, pm.firstRank, pm.lastRank)) {
        result_.correct = false;
        note("batched, serial and wave-8 shards disagree on " + dir0);
    }
    const double cells = static_cast<double>(n * np);
    out.push_back(metric("sim.shard_ms", "ms", 1e3 * tb));
    out.push_back(metric("sim.badco_cell_us", "us", 1e6 * tb / cells));
    out.push_back(metric("sim.serial_cell_us", "us", 1e6 * ts / cells));
    out.push_back(metric("sim.batch_speedup", "x", ts / tb));
    out.push_back(metric("sim.wave_speedup", "x", tb / tw));
}

/**
 * Detailed cells: up to 16 escalated cells of the hybrid campaigns,
 * else a few cells of the first window.
 */
void
Bench::probeDetailed(const std::vector<Outcome> &outs, const Outcome &first,
                     std::vector<Metric> &out)
{
    const Window &w = first.window;
    const std::size_t np = ctx_.policies.size();
    struct Cell
    {
        std::uint64_t rank;
        std::size_t policy;
        double seconds = 0.0;
        std::uint64_t uops = 0;
    };
    std::vector<Cell> cells;
    std::vector<std::uint64_t> seeds;
    if (def_.kind == Kind::Hybrid) {
        for (const Outcome &o : outs) {
            if (!o.ok() || o.dirs.empty())
                continue;
            const fidelity::EscalationRecord rec =
                fidelity::readEscalationRecord(o.dirs[0]);
            for (std::uint64_t r = 0;
                 r < rec.rows() && cells.size() < 16; ++r)
                if (rec.escalated(r))
                    for (std::size_t p = 0; p < np; ++p) {
                        cells.push_back({rec.firstRank + r, p});
                        seeds.push_back(o.window.seed);
                    }
        }
    } else {
        const std::size_t want = ctx_.uops > 50000 ? 4 : 8;
        for (std::size_t j = 0; j < want; ++j) {
            cells.push_back({w.first + j % (w.last - w.first),
                             j % np});
            seeds.push_back(w.seed);
        }
    }
    const std::uint64_t detailed_fp = campaignFingerprint(
        "detailed", kCores, ctx_.uops, ctx_.policies, ctx_.suite);
    Span s("detailed.cells");
    const std::uint64_t parent = s.id();
    exec::ThreadPool pool(ctx_.jobs);
    exec::parallel_for(
        pool, std::size_t{0}, cells.size(), [&](std::size_t j) {
            Cell &c = cells[j];
            Span cs("DetailedMulticoreSim.run", parent);
            const DetailedMulticoreSim sim(
                CoreConfig{}, ctx_.ucfgs[c.policy], kCores, ctx_.uops,
                campaignCellSeed(detailed_fp, seeds[j], c.policy,
                                 c.rank));
            const SimResult res =
                sim.run(ctx_.pop.unrank(c.rank), ctx_.suite);
            c.seconds = cs.seconds();
            c.uops = res.instructions;
        });
    std::vector<double> ms;
    double secs = 0.0, uops = 0.0;
    for (const Cell &c : cells) {
        ms.push_back(1e3 * c.seconds);
        secs += c.seconds;
        uops += static_cast<double>(c.uops);
    }
    out.push_back(metric("sim.detailed_cell_ms_p50", "ms",
                         percentile(ms, 0.50)));
    out.push_back(metric("sim.detailed_cell_ms_p99", "ms",
                         percentile(ms, 0.99)));
    out.push_back(metric("cpu.detailed_ns_per_uop", "ns",
                         uops > 0 ? 1e9 * secs / uops : 0.0));
    note("sim.detailed_cell_ms_p99 is over " +
         std::to_string(cells.size()) +
         " cells: fewer than ten lie beyond it");
}

/**
 * The first workload's interleaved per-core address streams through
 * Uncore::access, then the same addresses as LLC tag scans.
 */
void
Bench::probeUncore(const Window &w, std::vector<Metric> &out)
{
    const Workload wl = ctx_.pop.unrank(w.first);
    struct Access
    {
        std::uint32_t core;
        bool write;
        std::uint64_t addr;
        std::uint64_t pc;
    };
    std::vector<std::vector<Access>> per_core(kCores);
    for (std::uint32_t c = 0; c < kCores; ++c) {
        TraceCursor cur = TraceStore::global().cursor(
            ctx_.suite[wl.benchmarks()[c]]);
        for (std::uint64_t i = 0; i < ctx_.uops; ++i) {
            const MicroOp u = cur.next();
            if (u.kind == OpKind::Load || u.kind == OpKind::Store)
                per_core[c].push_back(
                    {c, u.kind == OpKind::Store, u.addr, u.pc});
        }
    }
    std::vector<Access> stream;
    for (std::size_t i = 0;; ++i) {
        bool any = false;
        for (const auto &pc : per_core)
            if (i < pc.size()) {
                stream.push_back(pc[i]);
                any = true;
            }
        if (!any)
            break;
    }
    const UncoreConfig ucfg = ctx_.ucfgs[0];
    const double n = static_cast<double>(stream.size());
    std::uint64_t sink = 0;
    std::vector<double> ns;
    double miss_ratio = 0.0;
    for (int rep = 0; rep < kProbeReps; ++rep) {
        Uncore uncore(ucfg, kCores, w.seed);
        std::uint64_t cycle = 0;
        Span s("Uncore.access");
        for (const Access &a : stream) {
            sink += uncore.access(cycle, a.core, a.addr, a.write, a.pc);
            cycle += 2;
        }
        ns.push_back(1e9 * s.seconds() / n);
        const CacheStats &llc = uncore.llcStats();
        miss_ratio = llc.demandAccesses
                         ? static_cast<double>(llc.demandMisses) /
                               static_cast<double>(llc.demandAccesses)
                         : 0.0;
    }
    out.push_back(metric("mem.uncore_ns_per_access", "ns", median(ns)));
    out.push_back(metric("mem.llc_miss_ratio", "ratio", miss_ratio));

    const std::uint32_t ways = ucfg.llc.ways;
    const std::uint64_t sets =
        ucfg.llc.sizeBytes / (ucfg.llc.ways * ucfg.llc.lineBytes);
    std::vector<std::uint32_t> tags(sets * ways, 0);
    std::vector<std::uint32_t> fill(sets, 0);
    auto set_of = [&](std::uint64_t addr) { return (addr >> 6) % sets; };
    auto tag_of = [&](std::uint64_t addr) {
        return static_cast<std::uint32_t>((addr >> 6) / sets) | 1u;
    };
    for (const Access &a : stream) {
        const std::uint64_t st = set_of(a.addr);
        tags[st * ways + fill[st]++ % ways] = tag_of(a.addr);
    }
    ns.clear();
    for (int rep = 0; rep < kProbeReps; ++rep) {
        Span s("tagscan.find");
        for (const Access &a : stream)
            sink += tagscan::find(&tags[set_of(a.addr) * ways], ways,
                                  tag_of(a.addr));
        ns.push_back(1e9 * s.seconds() / n);
    }
    keep(sink);
    out.push_back(metric("cache.tagscan_ns_per_probe", "ns", median(ns)));
}

/** Shard persistence on a committed campaign's first shard. */
void
Bench::probeStore(const std::string &dir0, std::vector<Metric> &out)
{
    const persist::V3Manifest m = persist::readV3Manifest(dir0);
    const std::vector<double> payload =
        persist::readV3Shard(dir0, m, 0);
    const std::string scratch = cfg_.runDir + "/probe-stats";
    persist::ensureDirTree(scratch);
    std::vector<double> wr, rd, mw, commit;
    serve::ResultStore store(cfg_.runDir + "/probe-store");
    for (int rep = 0; rep < 4 * kProbeReps; ++rep) {
        {
            Span s("writeV3Shard");
            persist::writeV3Shard(scratch, m, 0, payload);
            wr.push_back(1e3 * s.seconds());
        }
        {
            Span s("readV3Shard");
            (void)persist::readV3Shard(scratch, m, 0);
            rd.push_back(1e3 * s.seconds());
        }
        {
            Span s("writeV3Manifest");
            persist::writeV3Manifest(scratch, m);
            mw.push_back(1e3 * s.seconds());
        }
        const std::string cdir = store.campaignDir(
            m.fingerprint, static_cast<std::uint64_t>(rep));
        store.ensureCampaignDir(cdir);
        {
            Span s("ResultStore.commitShard");
            serve::ResultStore::commitShard(cdir, m, 0, payload);
            commit.push_back(1e3 * s.seconds());
        }
    }
    out.push_back(metric("stats.shard_write_ms", "ms", median(wr)));
    out.push_back(metric("stats.shard_read_ms", "ms", median(rd)));
    out.push_back(metric("stats.manifest_write_ms", "ms", median(mw)));
    out.push_back(
        metric("serve.store_commit_ms", "ms", median(commit)));
}

/** Lease frame encode -> reassemble -> decode round trips. */
void
Bench::probeFrameCodec(const std::string &dir0, std::vector<Metric> &out)
{
    serve::LeaseMsg lm;
    lm.leaseId = 7;
    lm.campaignId = 1;
    lm.dir = dir0;
    lm.spec.cores = kCores;
    lm.spec.targetUops = ctx_.uops;
    for (PolicyKind p : ctx_.policies)
        lm.spec.policies.push_back(toString(p));
    for (const BenchmarkProfile &b : ctx_.suite)
        lm.spec.benchmarks.push_back(b.name);
    constexpr int kReps = 20000;
    std::uint64_t sink = 0;
    Span s("serve.frameCodec");
    for (int i = 0; i < kReps; ++i) {
        lm.shard = static_cast<std::uint64_t>(i);
        const std::string frame = serve::encodeFrame(
            serve::MsgType::Lease, serve::encodeLease(lm));
        serve::FrameBuffer fb;
        fb.feed(frame.data(), frame.size());
        sink += serve::decodeLease(fb.next()->body).shard;
    }
    keep(sink);
    out.push_back(
        metric("serve.frame_codec_ns", "ns", 1e9 * s.seconds() / kReps));
}

} // namespace

Tally
tally(const std::vector<Outcome> &outcomes)
{
    Tally t;
    for (const Outcome &o : outcomes) {
        t.attempted += o.attempted;
        t.failed += o.attempted - std::min(o.attempted, o.committed);
    }
    return t;
}

SimContext::SimContext(std::uint64_t target_uops,
                       std::vector<PolicyKind> pols, std::size_t j)
    : suite(spec2006Suite()),
      pop(static_cast<std::uint32_t>(suite.size()), kCores),
      policies(std::move(pols)), uops(target_uops), jobs(j)
{
    for (PolicyKind p : policies)
        ucfgs.push_back(UncoreConfig::forCores(kCores, p));
}

void
SimContext::loadModels(const std::string &cache_dir)
{
    cacheDir = cache_dir;
    const UncoreConfig ucfg =
        UncoreConfig::forCores(kCores, PolicyKind::LRU);
    store = std::make_unique<BadcoModelStore>(
        CoreConfig{}, uops, ucfg.llcHitLatency, cache_dir);
    models = store->getSuite(suite, jobs);
}

Outcome
runPopulationCampaign(SimContext &ctx, const Window &w,
                      const std::string &dir)
{
    Outcome o;
    o.window = w;
    o.rows = w.last - w.first;
    o.attempted = o.rows * ctx.policies.size();
    try {
        PopulationOptions opts;
        opts.seed = w.seed;
        opts.jobs = ctx.jobs;
        opts.firstRank = w.first;
        opts.lastRank = w.last;
        opts.resume = false;
        // Every ordered policy pair, as `wsel_cli population` does.
        std::vector<PopulationPairSpec> pairs;
        for (std::size_t i = 0; i < ctx.policies.size(); ++i) {
            for (std::size_t j = i + 1; j < ctx.policies.size(); ++j) {
                PopulationPairSpec s;
                s.y = i;
                s.x = j;
                s.label = toString(ctx.policies[i]) + ">" +
                          toString(ctx.policies[j]);
                pairs.push_back(std::move(s));
            }
        }
        {
            Span s("runBadcoPopulationCampaign");
            runBadcoPopulationCampaign(ctx.pop, ctx.policies, ctx.uops,
                                       *ctx.store, ctx.suite, pairs,
                                       dir, opts);
        }
        o.committed = o.attempted;
        o.dirs.push_back(dir);
    } catch (const std::exception &e) {
        o.error = e.what();
        return o;
    }
    try {
        Span s("perfbench.campaignDigest");
        o.digest = campaignDigest(dir);
    } catch (const std::exception &e) {
        o.digestOk = false;
        warn(std::string("perfbench: campaign ") + dir +
             " unreadable: " + e.what());
    }
    return o;
}

RunResult
runWorkload(const RunConfig &cfg)
{
    for (const Def &d : defs())
        if (cfg.workload == d.name)
            return Bench(cfg, d).run();
    WSEL_FATAL("unknown workload '" << cfg.workload << "'");
}

} // namespace perfbench
