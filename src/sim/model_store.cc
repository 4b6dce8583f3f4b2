#include "sim/model_store.hh"

#include <chrono>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <optional>
#include <set>
#include <sstream>

#include "exec/scheduler.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "stats/logging.hh"
#include "stats/persist.hh"

namespace wsel
{

BadcoModelStore::BadcoModelStore(const CoreConfig &core_cfg,
                                 std::uint64_t target_uops,
                                 std::uint32_t llc_hit_latency,
                                 std::string cache_dir)
    : coreCfg_(core_cfg), targetUops_(target_uops),
      llcHitLatency_(llc_hit_latency), cacheDir_(std::move(cache_dir))
{
    if (!cacheDir_.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(cacheDir_, ec);
        if (ec) {
            warn("cannot create cache dir '" + cacheDir_ +
                 "'; continuing without persistence");
            cacheDir_.clear();
        }
    }
}

std::string
BadcoModelStore::cachePath(const BenchmarkProfile &profile) const
{
    std::ostringstream os;
    os << cacheDir_ << "/badco_v2_" << profile.name << "_"
       << targetUops_ << "u_" << llcHitLatency_ << "c_" << std::hex
       << profile.parameterHash() << ".bin";
    return os.str();
}

BadcoModel
BadcoModelStore::loadOrBuild(const BenchmarkProfile &profile,
                             double &build_seconds,
                             bool &built) const
{
    build_seconds = 0.0;
    built = false;

    if (!cacheDir_.empty()) {
        const std::string path = cachePath(profile);
        if (std::filesystem::exists(path)) {
            try {
                BadcoModel m = BadcoModel::loadFile(path);
                if (m.traceUops == targetUops_) {
                    obs::counter("persist.cache_hit").inc();
                    return m;
                }
                warn("stale BADCO model cache at " + path +
                     "; rebuilding");
            } catch (const FatalError &e) {
                // A damaged model cache must never abort a run:
                // quarantine it for inspection and rebuild.
                const std::string moved =
                    persist::quarantineFile(path);
                warn("corrupt BADCO model cache at " + path + " (" +
                     e.what() + ")" +
                     (moved.empty() ? ""
                                    : "; quarantined to " + moved) +
                     "; rebuilding");
            }
        }
    }

    obs::counter("persist.cache_miss").inc();
    const auto t0 = std::chrono::steady_clock::now();
    BadcoModel m;
    {
        obs::Span span("badco.build",
                       obs::tracingEnabled()
                           ? "benchmark=" + profile.name
                           : std::string());
        m = buildBadcoModel(profile, coreCfg_, targetUops_,
                            llcHitLatency_);
    }
    const auto t1 = std::chrono::steady_clock::now();
    build_seconds =
        std::chrono::duration<double>(t1 - t0).count();
    built = true;
    obs::counter("badco.models_built").inc();
    obs::histogram("badco.build_ns").record(t1 - t0);

    if (!cacheDir_.empty()) {
        // The directory may have vanished since construction (a
        // concurrent cleanup); recreate it, and if the model still
        // cannot be written, keep it in memory only — a cache
        // write must never fail the campaign.
        const std::string path = cachePath(profile);
        std::error_code ec;
        std::filesystem::create_directories(cacheDir_, ec);
        try {
            m.saveFile(path);
        } catch (const FatalError &e) {
            warn("cannot save BADCO model cache " + path + " (" +
                 e.what() + "); continuing without persistence");
        }
    }
    return m;
}

const BadcoModel &
BadcoModelStore::get(const BenchmarkProfile &profile)
{
    auto it = models_.find(profile.name);
    if (it != models_.end())
        return it->second;
    double secs = 0.0;
    bool built = false;
    BadcoModel m = loadOrBuild(profile, secs, built);
    buildSeconds_ += secs;
    built_ += built ? 1 : 0;
    return models_.emplace(profile.name, std::move(m)).first->second;
}

std::vector<const BadcoModel *>
BadcoModelStore::getSuite(const std::vector<BenchmarkProfile> &suite,
                          std::size_t jobs)
{
    const std::size_t resolved = exec::resolveJobs(jobs);
    if (resolved > 1) {
        // Phase 1: build or load every model not yet in memory,
        // concurrently.  Duplicate names are built once; the map
        // and the cost counters are only updated in the serial
        // phase below, in suite order.
        std::vector<const BenchmarkProfile *> missing;
        std::set<std::string> queued;
        for (const BenchmarkProfile &p : suite) {
            if (models_.count(p.name) || !queued.insert(p.name).second)
                continue;
            missing.push_back(&p);
        }
        if (missing.size() > 1) {
            std::vector<std::optional<BadcoModel>> slot(
                missing.size());
            std::vector<double> secs(missing.size(), 0.0);
            std::deque<bool> built(missing.size(), false);
            exec::ThreadPool pool(resolved);
            exec::parallel_for(
                pool, std::size_t{0}, missing.size(),
                [&](std::size_t i) {
                    bool b = false;
                    slot[i] = loadOrBuild(*missing[i], secs[i], b);
                    built[i] = b;
                });
            for (std::size_t i = 0; i < missing.size(); ++i) {
                models_.emplace(missing[i]->name,
                                std::move(*slot[i]));
                buildSeconds_ += secs[i];
                built_ += built[i] ? 1 : 0;
            }
        }
    }
    std::vector<const BadcoModel *> out;
    out.reserve(suite.size());
    for (const BenchmarkProfile &p : suite)
        out.push_back(&get(p));
    return out;
}

std::string
defaultCacheDir()
{
    // Results persist under ./.wsel_cache by default so repeated
    // bench/tool invocations share models and campaigns; set
    // WSEL_CACHE_DIR to move it, or to "" to disable persistence.
    const char *env = std::getenv("WSEL_CACHE_DIR");
    const std::string dir =
        env ? std::string(env) : std::string(".wsel_cache");
    if (dir.empty())
        return dir;
    // EEXIST-race-tolerant: several processes (workers sharing a
    // model cache) may create the tree at once and all must
    // succeed.
    persist::ensureDirTree(dir);
    return dir;
}

} // namespace wsel
