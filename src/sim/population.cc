#include "sim/population.hh"

#include <chrono>
#include <filesystem>
#include <optional>
#include <sstream>
#include <utility>

#include "exec/scheduler.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/batch.hh"
#include "sim/campaign.hh"
#include "sim/multicore.hh"
#include "stats/logging.hh"
#include "stats/persist.hh"
#include "trace/trace_store.hh"

namespace wsel
{

namespace
{

namespace fs = std::filesystem;

std::vector<PopulationPairSummary>
makeAccumulators(const std::vector<PopulationPairSpec> &pairs,
                 const PopulationOptions &opts)
{
    std::vector<PopulationPairSummary> acc;
    acc.reserve(pairs.size());
    for (const PopulationPairSpec &s : pairs)
        acc.emplace_back(s, opts.histLo, opts.histHi, opts.histBins,
                         opts.sketchCapacity);
    return acc;
}

/**
 * Visit the rows of @p shard in order: fn(row, seed position,
 * benchmarks).  Range mode streams a WorkloadCursor from the
 * shard's first rank; list mode unranks each listed rank.  The
 * span is only valid during the callback.
 */
template <typename Fn>
void
forEachShardRow(const persist::V3Manifest &m,
                const WorkloadPopulation &pop, std::uint64_t shard,
                Fn &&fn)
{
    const std::uint64_t first = m.shardFirstRank(shard);
    const std::uint64_t rows = m.rowsInShard(shard);
    if (m.listMode()) {
        std::vector<std::uint32_t> benches;
        for (std::uint64_t r = 0; r < rows; ++r) {
            pop.unrankInto(m.ranks[first + r], benches);
            fn(r, first + r,
               std::span<const std::uint32_t>(benches.data(),
                                              benches.size()));
        }
        return;
    }
    WorkloadCursor cur(pop, first);
    for (std::uint64_t r = 0; r < rows; ++r, cur.next())
        fn(r, first + r, cur.benchmarks());
}

/**
 * Stream one shard's payload through the pair accumulators.  The
 * cursor walk re-derives each row's benchmark multiset so the
 * reference IPCs for speedup metrics come from the row itself, not
 * from any stored per-row state.
 */
void
accumulateShard(const persist::V3Manifest &m,
                const WorkloadPopulation &pop, std::uint64_t shard,
                std::span<const double> payload,
                const std::vector<double> &ref_ipc,
                std::vector<PopulationPairSummary> &acc)
{
    const std::size_t np = m.policies.size();
    const std::size_t k = m.cores;
    std::vector<double> refs(k, 1.0);
    forEachShardRow(
        m, pop, shard,
        [&](std::uint64_t r, std::uint64_t rank,
            std::span<const std::uint32_t> benches) {
            for (std::size_t c = 0; c < k; ++c)
                refs[c] = ref_ipc[benches[c]];
            const double *row = payload.data() + r * np * k;
            for (PopulationPairSummary &a : acc) {
                const std::size_t px = a.spec.x;
                const std::size_t py = a.spec.y;
                const double tx = perWorkloadThroughput(
                    a.spec.metric, {row + px * k, k}, refs);
                const double ty = perWorkloadThroughput(
                    a.spec.metric, {row + py * k, k}, refs);
                const double d =
                    perWorkloadDifference(a.spec.metric, tx, ty);
                a.d.add(d);
                a.hist.add(d);
                a.sketch.add(rank, d);
            }
        });
}

/** Fatal unless @p ucfgs holds one config per manifest policy. */
void
checkUncoreConfigs(const persist::V3Manifest &m,
                   const std::vector<UncoreConfig> &ucfgs)
{
    if (ucfgs.size() != m.policies.size())
        WSEL_FATAL("shard simulation got " << ucfgs.size()
                   << " uncore configs for " << m.policies.size()
                   << " policies");
}

} // namespace

void
simulatePopulationShard(const persist::V3Manifest &m,
                        const WorkloadPopulation &pop,
                        const std::vector<UncoreConfig> &ucfgs,
                        const std::vector<const BadcoModel *> &models,
                        std::uint64_t base_seed, std::uint64_t shard,
                        std::vector<double> &payload,
                        const std::function<void()> &tick)
{
    checkUncoreConfigs(m, ucfgs);
    const std::size_t np = m.policies.size();
    const std::uint32_t k = m.cores;
    payload.assign(
        static_cast<std::size_t>(m.rowsInShard(shard)) * np * k, 0.0);
    forEachShardRow(
        m, pop, shard,
        [&](std::uint64_t r, std::uint64_t pos,
            std::span<const std::uint32_t> benches) {
            if (tick)
                tick();
            double *row = payload.data() + r * np * k;
            for (std::size_t p = 0; p < np; ++p) {
                persist::faultPoint("population.cell");
                const BadcoMulticoreSim sim(
                    ucfgs[p], k, m.targetUops,
                    campaignCellSeed(m.fingerprint, base_seed, p,
                                     pos));
                const SimResult res = sim.run(benches, models);
                for (std::uint32_t c = 0; c < k; ++c)
                    row[p * k + c] = res.ipc[c];
            }
        });
}

void
simulatePopulationShardBatched(
    const persist::V3Manifest &m, const WorkloadPopulation &pop,
    const std::vector<UncoreConfig> &ucfgs,
    const std::vector<const BadcoModel *> &models,
    std::uint64_t base_seed, std::uint64_t shard,
    std::uint32_t batch_cells, std::uint32_t /*batch_wave*/,
    std::vector<double> &payload,
    const std::function<void()> &tick)
{
    checkUncoreConfigs(m, ucfgs);
    const std::size_t np = m.policies.size();
    const std::uint32_t k = m.cores;
    payload.assign(
        static_cast<std::size_t>(m.rowsInShard(shard)) * np * k, 0.0);
    BadcoBatchRunner runner({ucfgs.data(), ucfgs.size()}, k,
                            m.targetUops, models,
                            resolveBatchCells(batch_cells));
    forEachShardRow(
        m, pop, shard,
        [&](std::uint64_t r, std::uint64_t pos,
            std::span<const std::uint32_t> benches) {
            if (tick)
                tick();
            double *row = payload.data() + r * np * k;
            for (std::size_t p = 0; p < np; ++p) {
                persist::faultPoint("population.cell");
                runner.add(campaignCellSeed(m.fingerprint, base_seed,
                                            p, pos),
                           static_cast<std::uint32_t>(p), benches,
                           row + p * k);
            }
        });
    runner.run();
}

void
simulateDetailedPopulationShard(
    const persist::V3Manifest &m, const WorkloadPopulation &pop,
    const CoreConfig &core_cfg,
    const std::vector<UncoreConfig> &ucfgs,
    const std::vector<BenchmarkProfile> &suite,
    std::uint64_t base_seed, std::uint64_t shard,
    std::vector<double> &payload,
    const std::function<void()> &tick)
{
    checkUncoreConfigs(m, ucfgs);
    const std::size_t np = m.policies.size();
    const std::uint32_t k = m.cores;
    payload.assign(
        static_cast<std::size_t>(m.rowsInShard(shard)) * np * k, 0.0);
    forEachShardRow(
        m, pop, shard,
        [&](std::uint64_t r, std::uint64_t pos,
            std::span<const std::uint32_t> benches) {
            if (tick)
                tick();
            const Workload w{std::vector<std::uint32_t>(
                benches.begin(), benches.end())};
            // Pin the row's trace chunks once: all np x k cursors of
            // this row read the same <= k benchmarks, so one pin per
            // row keeps a tight WSEL_TRACE_MEM budget from thrashing
            // a chunk out between cells only to rebuild it for the
            // next one. Dropped (and the budget re-converged) per
            // row.
            BatchPin pin;
            for (std::uint32_t bench : w.benchmarks()) {
                if (bench < suite.size())
                    pin.pin(TraceStore::global(), suite[bench],
                            m.targetUops);
            }
            double *row = payload.data() + r * np * k;
            for (std::size_t p = 0; p < np; ++p) {
                persist::faultPoint("fidelity.escalate");
                const DetailedMulticoreSim sim(
                    core_cfg, ucfgs[p], k, m.targetUops,
                    campaignCellSeed(m.fingerprint, base_seed, p,
                                     pos));
                const SimResult res = sim.run(w, suite);
                for (std::uint32_t c = 0; c < k; ++c)
                    row[p * k + c] = res.ipc[c];
            }
        });
}

ShardLoopStats
runV3Shards(const persist::V3Manifest &m, const std::string &dir,
            std::size_t jobs, bool verbose, const std::string &runner,
            const std::function<void(std::uint64_t,
                                     std::vector<double> &)> &simulate,
            const std::function<void(std::uint64_t,
                                     std::span<const double>)> &consume)
{
    struct Outcome
    {
        bool resumed = false;
        double wall = 0.0;
    };
    const std::uint64_t shards = m.shardCount();
    const std::uint64_t np = m.policies.size();
    std::vector<Outcome> outcomes(shards);
    const std::string span_name = runner + ".shard";
    if (!dir.empty()) {
        std::error_code ec;
        fs::create_directories(dir, ec);
        if (ec)
            WSEL_FATAL("cannot create campaign directory "
                       << dir << ": " << ec.message());
    }
    const auto t0 = std::chrono::steady_clock::now();

    auto run_shard = [&](std::size_t s) {
        const std::uint64_t cells = m.rowsInShard(s) * np;
        const std::string shard_path =
            dir.empty() ? "" : persist::v3ShardPath(dir, s);
        if (!dir.empty()) {
            try {
                const std::vector<double> payload =
                    persist::readV3Shard(dir, m, s);
                consume(s, {payload.data(), payload.size()});
                outcomes[s].resumed = true;
                obs::counter(runner + ".cells_resumed").inc(cells);
                return;
            } catch (const persist::CacheInvalid &e) {
                if (fs::exists(shard_path)) {
                    const std::string moved =
                        persist::quarantineFile(shard_path);
                    warn("corrupt campaign shard " + shard_path +
                         " (" + e.what() + ")" +
                         (moved.empty()
                              ? ""
                              : "; quarantined to " + moved) +
                         "; re-simulating");
                }
            }
        }

        obs::Span sspan(span_name.c_str(),
                        "shard=" + std::to_string(s));
        const auto s0 = std::chrono::steady_clock::now();
        std::vector<double> payload;
        simulate(s, payload);
        if (!dir.empty()) {
            const auto w0 = std::chrono::steady_clock::now();
            persist::writeV3Shard(dir, m, s,
                                  {payload.data(), payload.size()});
            if (obs::metricsEnabled()) {
                static obs::Counter &shardsC =
                    obs::counter("population.shards_written");
                static obs::Counter &bytesC =
                    obs::counter("population.bytes");
                static obs::LatencyHistogram &writeNs =
                    obs::histogram("population.shard_write_ns");
                shardsC.inc();
                bytesC.inc(payload.size() * sizeof(double));
                writeNs.recordNs(static_cast<std::uint64_t>(
                    std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - w0)
                        .count()));
            }
        }
        obs::counter(runner + ".cells").inc(cells);
        consume(s, {payload.data(), payload.size()});
        outcomes[s].wall = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - s0)
                               .count();
        if (verbose) {
            std::ostringstream os;
            os << "  [" << runner << "] shard " << (s + 1) << "/"
               << shards << " (" << cells << " cells)";
            logLine(os.str());
        }
    };

    const std::size_t threads = exec::resolveJobs(jobs);
    if (threads <= 1 || shards <= 1) {
        for (std::uint64_t s = 0; s < shards; ++s)
            run_shard(s);
    } else {
        exec::ThreadPool pool(std::min<std::size_t>(threads, shards));
        exec::parallel_for(pool, std::size_t{0}, shards, run_shard);
    }
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

    ShardLoopStats st;
    for (std::uint64_t s = 0; s < shards; ++s) {
        const std::uint64_t cells = m.rowsInShard(s) * np;
        if (outcomes[s].resumed) {
            st.cellsResumed += cells;
            ++st.shardsResumed;
        } else {
            st.cellsSimulated += cells;
            ++st.shardsWritten;
            st.simSeconds += outcomes[s].wall;
        }
    }
    if (obs::metricsEnabled() && wall > 0.0)
        obs::gauge(runner + ".cells_per_sec")
            .set(static_cast<double>(st.cellsSimulated) / wall);
    return st;
}

PopulationResult
runBadcoPopulationCampaign(
    const WorkloadPopulation &pop,
    const std::vector<PolicyKind> &policies,
    std::uint64_t target_uops, BadcoModelStore &store,
    const std::vector<BenchmarkProfile> &suite,
    const std::vector<PopulationPairSpec> &pairs,
    const std::string &out_dir, const PopulationOptions &opts)
{
    if (policies.empty())
        WSEL_FATAL("population campaign needs policies");
    if (pop.numBenchmarks() != suite.size())
        WSEL_FATAL("population is over " << pop.numBenchmarks()
                   << " benchmarks but the suite has "
                   << suite.size());
    const std::uint64_t last =
        opts.lastRank == 0 ? pop.size() : opts.lastRank;
    if (opts.firstRank >= last || last > pop.size())
        WSEL_FATAL("population rank range [" << opts.firstRank
                   << ", " << last << ") invalid for size "
                   << pop.size());
    for (const PopulationPairSpec &s : pairs) {
        if (s.x >= policies.size() || s.y >= policies.size())
            WSEL_FATAL("pair " << s.label
                       << " references a policy index outside the "
                          "campaign's " << policies.size()
                       << " policies");
    }

    const auto t0 = std::chrono::steady_clock::now();
    obs::Span span("population.run");
    const std::size_t jobs = exec::resolveJobs(opts.jobs);
    const std::size_t np = policies.size();
    const std::uint32_t k = pop.cores();

    persist::V3Manifest m;
    m.fingerprint = campaignFingerprint("badco", k, target_uops,
                                        policies, suite);
    m.simulator = "badco";
    m.cores = k;
    m.targetUops = target_uops;
    for (PolicyKind p : policies)
        m.policies.push_back(toString(p));
    for (const BenchmarkProfile &p : suite)
        m.benchmarks.push_back(p.name);
    m.popBenchmarks = pop.numBenchmarks();
    m.popCores = k;
    m.firstRank = opts.firstRank;
    m.lastRank = last;
    m.shardRows = std::max<std::uint64_t>(
        1, opts.shardCells / std::max<std::size_t>(1, np));

    const std::vector<const BadcoModel *> models =
        store.getSuite(suite, jobs);
    {
        UncoreConfig ref = UncoreConfig::forCores(k, PolicyKind::LRU);
        BadcoMulticoreSim ref_sim(ref, 1, target_uops, opts.seed);
        m.refIpc = ref_sim.referenceIpcs(models);
    }

    // A fresh run must not inherit shards from an older (maybe
    // differently-shaped) campaign in the same directory.
    if (!opts.resume)
        persist::clearV3Dir(out_dir);

    std::vector<UncoreConfig> ucfgs;
    ucfgs.reserve(np);
    for (PolicyKind p : policies)
        ucfgs.push_back(UncoreConfig::forCores(k, p));

    // Per-shard partials: one accumulator triple per pair, filled
    // while the shard's payload is in cache and merged in shard
    // order afterwards, so the result is independent of which
    // thread ran which shard.
    std::vector<std::vector<PopulationPairSummary>> parts(
        m.shardCount());
    const std::uint32_t batch_cells =
        resolveBatchCells(opts.batchCells);
    const ShardLoopStats st = runV3Shards(
        m, out_dir, jobs, opts.verbose, "population",
        [&](std::uint64_t s, std::vector<double> &payload) {
            simulatePopulationShardBatched(m, pop, ucfgs, models,
                                           opts.seed, s, batch_cells,
                                           0, payload);
        },
        [&](std::uint64_t s, std::span<const double> payload) {
            parts[s] = makeAccumulators(pairs, opts);
            accumulateShard(m, pop, s, payload, m.refIpc, parts[s]);
        });

    // Deterministic merge in shard (= rank) order; the Welford,
    // histogram and sketch merges are all order-insensitive in
    // value but merging in a fixed order keeps the floating-point
    // result reproducible across job counts.
    PopulationResult result;
    result.dir = out_dir;
    result.pairs = makeAccumulators(pairs, opts);
    for (const std::vector<PopulationPairSummary> &part : parts) {
        for (std::size_t i = 0; i < result.pairs.size(); ++i) {
            result.pairs[i].d.merge(part[i].d);
            result.pairs[i].hist.merge(part[i].hist);
            result.pairs[i].sketch.merge(part[i].sketch);
        }
    }
    result.cellsSimulated = st.cellsSimulated;
    result.cellsResumed = st.cellsResumed;
    result.shardsWritten = st.shardsWritten;
    result.shardsResumed = st.shardsResumed;
    m.simSeconds = st.simSeconds;
    // Instructions describe the whole artifact (resumed shards
    // included); simSeconds is this run's simulation wall only.
    m.instructions = m.rows() * np * k * target_uops;

    // The manifest is the commit point: it only exists once every
    // shard it describes does.
    persist::writeV3Manifest(out_dir, m);
    result.manifest = std::move(m);
    result.wallSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    return result;
}

} // namespace wsel
