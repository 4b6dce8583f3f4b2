#include "sim/population.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
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
 * Visit rows [@p row_begin, @p row_end) of @p shard in order:
 * fn(row, seed position, benchmarks).  Range mode seeks a
 * WorkloadCursor to the first row's rank and streams from there;
 * list mode unranks each listed rank.  The span is only valid
 * during the callback.
 */
template <typename Fn>
void
forEachShardRow(const persist::V3Manifest &m,
                const WorkloadPopulation &pop, std::uint64_t shard,
                std::uint64_t row_begin, std::uint64_t row_end,
                Fn &&fn)
{
    const std::uint64_t first = m.shardFirstRank(shard);
    if (m.listMode()) {
        std::vector<std::uint32_t> benches;
        for (std::uint64_t r = row_begin; r < row_end; ++r) {
            pop.unrankInto(m.ranks[first + r], benches);
            fn(r, first + r,
               std::span<const std::uint32_t>(benches.data(),
                                              benches.size()));
        }
        return;
    }
    WorkloadCursor cur(pop, first + row_begin);
    for (std::uint64_t r = row_begin; r < row_end; ++r, cur.next())
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
        m, pop, shard, 0, m.rowsInShard(shard),
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

/**
 * The row-range core of every shard simulator: check the geometry,
 * then fn(row pointer, seed position, benchmarks) for each row of
 * [@p row_begin, @p row_end), where the row pointer addresses that
 * row's policies x cores cells in @p out.
 */
template <typename RowFn>
void
simulateRowRange(const persist::V3Manifest &m,
                 const WorkloadPopulation &pop,
                 const std::vector<UncoreConfig> &ucfgs,
                 std::uint64_t shard, std::uint64_t row_begin,
                 std::uint64_t row_end, std::span<double> out,
                 RowFn &&fn)
{
    if (ucfgs.size() != m.policies.size())
        WSEL_FATAL("shard simulation got " << ucfgs.size()
                   << " uncore configs for " << m.policies.size()
                   << " policies");
    const std::size_t row_cells = m.policies.size() * m.cores;
    if (row_begin > row_end || row_end > m.rowsInShard(shard) ||
        out.size() != (row_end - row_begin) * row_cells)
        WSEL_FATAL("rows [" << row_begin << ", " << row_end
                   << ") of shard " << shard << " got "
                   << out.size() << " payload cells");
    forEachShardRow(m, pop, shard, row_begin, row_end,
                    [&](std::uint64_t r, std::uint64_t pos,
                        std::span<const std::uint32_t> benches) {
                        fn(out.data() + (r - row_begin) * row_cells,
                           pos, benches);
                    });
}

/** Resize @p payload to @p shard's cells. */
std::span<double>
shardPayload(const persist::V3Manifest &m, std::uint64_t shard,
             std::vector<double> &payload)
{
    payload.assign(static_cast<std::size_t>(m.rowsInShard(shard)) *
                       m.policies.size() * m.cores,
                   0.0);
    return {payload.data(), payload.size()};
}

} // namespace

void
simulatePopulationRows(const persist::V3Manifest &m,
                       const WorkloadPopulation &pop,
                       const std::vector<UncoreConfig> &ucfgs,
                       const std::vector<const BadcoModel *> &models,
                       std::uint64_t base_seed, std::uint64_t shard,
                       std::uint64_t row_begin, std::uint64_t row_end,
                       std::uint32_t batch_cells, std::span<double> out)
{
    const std::size_t np = m.policies.size();
    const std::uint32_t k = m.cores;
    // A batch never needs more slots than the range has cells.
    const std::uint64_t cells = (row_end - row_begin) * np;
    BadcoBatchRunner runner(
        {ucfgs.data(), ucfgs.size()}, k, m.targetUops, models,
        static_cast<std::uint32_t>(std::max<std::uint64_t>(
            1, std::min<std::uint64_t>(
                   resolveBatchCells(batch_cells), cells))));
    simulateRowRange(
        m, pop, ucfgs, shard, row_begin, row_end, out,
        [&](double *row, std::uint64_t pos,
            std::span<const std::uint32_t> benches) {
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
simulateDetailedPopulationRows(
    const persist::V3Manifest &m, const WorkloadPopulation &pop,
    const CoreConfig &core_cfg,
    const std::vector<UncoreConfig> &ucfgs,
    const std::vector<BenchmarkProfile> &suite,
    std::uint64_t base_seed, std::uint64_t shard,
    std::uint64_t row_begin, std::uint64_t row_end,
    std::span<double> out)
{
    const std::size_t np = m.policies.size();
    const std::uint32_t k = m.cores;
    simulateRowRange(
        m, pop, ucfgs, shard, row_begin, row_end, out,
        [&](double *row, std::uint64_t pos,
            std::span<const std::uint32_t> benches) {
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

void
simulatePopulationShard(const persist::V3Manifest &m,
                        const WorkloadPopulation &pop,
                        const std::vector<UncoreConfig> &ucfgs,
                        const std::vector<const BadcoModel *> &models,
                        std::uint64_t base_seed, std::uint64_t shard,
                        std::vector<double> &payload)
{
    const std::size_t np = m.policies.size();
    const std::uint32_t k = m.cores;
    simulateRowRange(
        m, pop, ucfgs, shard, 0, m.rowsInShard(shard),
        shardPayload(m, shard, payload),
        [&](double *row, std::uint64_t pos,
            std::span<const std::uint32_t> benches) {
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
    std::vector<double> &payload)
{
    simulatePopulationRows(m, pop, ucfgs, models, base_seed, shard, 0,
                           m.rowsInShard(shard), batch_cells,
                           shardPayload(m, shard, payload));
}

void
simulateDetailedPopulationShard(
    const persist::V3Manifest &m, const WorkloadPopulation &pop,
    const CoreConfig &core_cfg,
    const std::vector<UncoreConfig> &ucfgs,
    const std::vector<BenchmarkProfile> &suite,
    std::uint64_t base_seed, std::uint64_t shard,
    std::vector<double> &payload)
{
    simulateDetailedPopulationRows(m, pop, core_cfg, ucfgs, suite,
                                   base_seed, shard, 0,
                                   m.rowsInShard(shard),
                                   shardPayload(m, shard, payload));
}

ShardLoopStats
runV3Shards(const persist::V3Manifest &m, const std::string &dir,
            std::size_t jobs, bool verbose, const std::string &runner,
            const ShardRowSimulator &simulate,
            const std::function<void(std::uint64_t,
                                     std::span<const double>)> &consume)
{
    using Clock = std::chrono::steady_clock;
    const auto nanosSince = [](Clock::time_point t) {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t)
                .count());
    };
    const std::uint64_t shards = m.shardCount();
    const std::uint64_t np = m.policies.size();
    const std::size_t row_cells = np * m.cores;
    const std::string span_name = runner + ".shard";
    if (!dir.empty()) {
        std::error_code ec;
        fs::create_directories(dir, ec);
        if (ec)
            WSEL_FATAL("cannot create campaign directory "
                       << dir << ": " << ec.message());
    }

    // A shard still to simulate, from its first claimed row to its
    // commit.
    struct OpenShard
    {
        std::once_flag opened;
        std::vector<double> payload;
        std::atomic<std::uint64_t> busyNs{0}; ///< rows + commit
    };
    std::vector<OpenShard> open(shards);

    obs::Gauge *progress = obs::metricsEnabled()
                               ? &obs::gauge(runner + ".progress")
                               : nullptr;
    if (progress)
        progress->set(0.0);
    std::mutex progress_mu;
    std::atomic<std::uint64_t> rows_resumed{0};
    std::uint64_t rows_done = 0;

    // Resume: hand every intact shard to consume, quarantine the
    // damaged ones.
    auto try_resume = [&](std::size_t s) {
        if (dir.empty())
            return false;
        const std::string shard_path = persist::v3ShardPath(dir, s);
        try {
            const std::vector<double> payload =
                persist::readV3Shard(dir, m, s);
            consume(s, {payload.data(), payload.size()});
            rows_resumed += m.rowsInShard(s);
            obs::counter(runner + ".cells_resumed")
                .inc(m.rowsInShard(s) * np);
            return true;
        } catch (const persist::CacheInvalid &e) {
            if (fs::exists(shard_path)) {
                const std::string moved =
                    persist::quarantineFile(shard_path);
                warn("corrupt campaign shard " + shard_path + " (" +
                     e.what() + ")" +
                     (moved.empty() ? ""
                                    : "; quarantined to " + moved) +
                     "; re-simulating");
            }
            return false;
        }
    };

    auto run_row = [&](std::size_t s, std::size_t row) {
        OpenShard &o = open[s];
        const auto r0 = Clock::now();
        std::call_once(o.opened, [&] {
            o.payload.assign(m.rowsInShard(s) * row_cells, 0.0);
        });
        simulate(s, row, row + 1,
                 {o.payload.data() + row * row_cells, row_cells});
        o.busyNs += nanosSince(r0);
        if (progress) {
            std::lock_guard<std::mutex> g(progress_mu);
            progress->set(static_cast<double>(++rows_done) /
                          static_cast<double>(m.rows() - rows_resumed));
        }
    };

    auto commit = [&](std::size_t s) {
        OpenShard &o = open[s];
        const std::uint64_t cells = m.rowsInShard(s) * np;
        const auto c0 = Clock::now();
        {
            obs::Span sspan(span_name.c_str(),
                            "shard=" + std::to_string(s));
            if (!dir.empty()) {
                persist::writeV3Shard(
                    dir, m, s, {o.payload.data(), o.payload.size()});
                if (obs::metricsEnabled()) {
                    static obs::Counter &shardsC =
                        obs::counter("population.shards_written");
                    static obs::Counter &bytesC =
                        obs::counter("population.bytes");
                    static obs::LatencyHistogram &writeNs =
                        obs::histogram("population.shard_write_ns");
                    shardsC.inc();
                    bytesC.inc(o.payload.size() * sizeof(double));
                    writeNs.recordNs(nanosSince(c0));
                }
            }
            obs::counter(runner + ".cells").inc(cells);
            consume(s, {o.payload.data(), o.payload.size()});
        }
        o.busyNs += nanosSince(c0);
        std::vector<double>().swap(o.payload);
        if (verbose) {
            std::ostringstream os;
            os << "  [" << runner << "] shard " << (s + 1) << "/"
               << shards << " (" << cells << " cells)";
            logLine(os.str());
        }
    };

    const auto t0 = Clock::now();
    const std::vector<std::size_t> pending = exec::fanOutStored(
        jobs, shards,
        [&](std::size_t s) { return m.rowsInShard(s); }, try_resume,
        run_row, commit);
    const double wall = std::chrono::duration<double>(
                            Clock::now() - t0)
                            .count();
    if (progress && pending.empty())
        progress->set(1.0);

    ShardLoopStats st;
    st.shardsResumed = shards - pending.size();
    st.cellsResumed = rows_resumed * np;
    for (std::size_t s : pending) {
        st.cellsSimulated += m.rowsInShard(s) * np;
        ++st.shardsWritten;
        st.simSeconds +=
            1e-9 * static_cast<double>(open[s].busyNs.load());
    }
    // A pass that resumed every shard measured no rate: keep the
    // last real one.
    if (obs::metricsEnabled() && wall > 0.0 && st.cellsSimulated > 0)
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
        m.refIpc = ref_sim.referenceIpcs(models, jobs);
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
    const auto pass0 = std::chrono::steady_clock::now();
    const ShardLoopStats st = runV3Shards(
        m, out_dir, jobs, opts.verbose, "population",
        [&](std::uint64_t s, std::uint64_t row_begin,
            std::uint64_t row_end, std::span<double> out) {
            simulatePopulationRows(m, pop, ucfgs, models, opts.seed,
                                   s, row_begin, row_end, batch_cells,
                                   out);
        },
        [&](std::uint64_t s, std::span<const double> payload) {
            parts[s] = makeAccumulators(pairs, opts);
            accumulateShard(m, pop, s, payload, m.refIpc, parts[s]);
        });
    const double pass_seconds = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() -
                                    pass0)
                                    .count();

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
    result.passSeconds = pass_seconds;
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
