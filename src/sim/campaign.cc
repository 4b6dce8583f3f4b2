#include "sim/campaign.hh"

#include <functional>

#include "exec/scheduler.hh"
#include "sim/population.hh"
#include "stats/logging.hh"
#include "stats/persist.hh"
#include "stats/persist_v3.hh"
#include "trace/trace_store.hh"

namespace wsel
{

namespace
{

/**
 * Shards per campaign: a campaign of R rows has ceil(R / 64) rows
 * per shard.  The geometry depends only on R — never on the job
 * count — so shards written at one --jobs resume at any other, and
 * small campaigns (e.g. a 24-workload calibration) get one row per
 * shard and so spread over every thread.
 */
constexpr std::uint64_t kCampaignShards = 64;

/**
 * The campaign_v3 manifest of @p c.  A population range from rank 0
 * is stored as a rank range; any other workload set as a rank list
 * (a std::vector<Workload> is ranked over the suite-sized
 * population), so a cell's seed position is always its row index.
 */
persist::V3Manifest
manifestFor(const Campaign &c)
{
    persist::V3Manifest m;
    m.fingerprint = c.fingerprint;
    m.simulator = c.simulator;
    m.cores = c.cores;
    m.targetUops = c.targetUops;
    m.simSeconds = c.simSeconds;
    m.instructions = c.instructions;
    for (PolicyKind p : c.policies)
        m.policies.push_back(toString(p));
    m.benchmarks = c.benchmarks;
    m.refIpc = c.refIpc;
    m.popBenchmarks = static_cast<std::uint32_t>(c.benchmarks.size());
    m.popCores = c.cores;
    const WorkloadSet &ws = c.workloads;
    m.lastRank = ws.size();
    const bool range = ws.isPopulationRange() && ws.firstRank() == 0 &&
                       ws.population().numBenchmarks() ==
                           m.popBenchmarks &&
                       ws.population().cores() == m.popCores;
    if (!range) {
        const WorkloadPopulation pop(m.popBenchmarks, m.popCores);
        m.ranks.reserve(ws.size());
        ws.forEach([&](std::size_t, std::span<const std::uint32_t> b) {
            m.ranks.push_back(pop.rank(b));
        });
    }
    m.shardRows = std::max<std::uint64_t>(
        1, (m.rows() + kCampaignShards - 1) / kCampaignShards);
    return m;
}

/** Copy shard @p s's row-major payload into the policy-major matrix. */
void
scatterShard(IpcMatrix &ipc, const persist::V3Manifest &m,
             std::uint64_t s, std::span<const double> payload)
{
    const std::size_t np = m.policies.size();
    const std::size_t base = static_cast<std::size_t>(s * m.shardRows);
    const double *src = payload.data();
    for (std::size_t r = 0; r < m.rowsInShard(s); ++r) {
        for (std::size_t p = 0; p < np; ++p) {
            ipc.setCell(p, base + r, {src, m.cores});
            src += m.cores;
        }
    }
}

/**
 * Load a campaign_v3 directory; throws persist::CacheInvalid on any
 * validation failure.
 */
Campaign
loadV3(const std::string &path)
{
    if (!persist::isV3CampaignDir(path))
        throw persist::CacheInvalid("not a campaign_v3 directory");
    const persist::V3Manifest m = persist::readV3Manifest(path);
    Campaign c;
    c.fingerprint = m.fingerprint;
    c.simulator = m.simulator;
    c.cores = m.cores;
    c.targetUops = m.targetUops;
    c.simSeconds = m.simSeconds;
    c.instructions = m.instructions;
    try {
        for (const std::string &p : m.policies)
            c.policies.push_back(parsePolicyKind(p));
    } catch (const FatalError &e) {
        throw persist::CacheInvalid(
            std::string("campaign_v3 manifest: unknown policy: ") +
            e.what());
    }
    c.benchmarks = m.benchmarks;
    c.refIpc = m.refIpc;
    if (m.popBenchmarks == 0 || m.popCores == 0 ||
        m.popCores != m.cores ||
        m.popBenchmarks != m.benchmarks.size())
        throw persist::CacheInvalid(
            "campaign_v3 manifest: bad population shape");
    const WorkloadPopulation pop(m.popBenchmarks, m.popCores);
    if (m.lastRank > pop.size() || m.firstRank > m.lastRank)
        throw persist::CacheInvalid(
            "campaign_v3 manifest: rank range outside population");
    const std::size_t nw = static_cast<std::size_t>(m.rows());
    const std::size_t np = c.policies.size();
    // The manifest's counts drive the workload-list and matrix
    // allocations below; bound them (overflow-safely: divide,
    // don't multiply) BEFORE materializing anything so a
    // checksum-valid but hostile or corrupted manifest cannot ask
    // for an absurd materialization.  2^31 cells = 16 GiB is far
    // beyond any real campaign (the full 8-core population is
    // ~173M cells) but still refuses the 2^60-cell lies a flipped
    // size field can produce.
    constexpr std::uint64_t kMaxLoadCells = 1ULL << 31;
    const std::uint64_t cells_per_row =
        static_cast<std::uint64_t>(np) * c.cores;
    if (cells_per_row == 0 ||
        m.rows() > kMaxLoadCells / cells_per_row)
        throw persist::CacheInvalid(
            "campaign_v3 manifest: declared campaign too large to "
            "materialize (" + std::to_string(m.rows()) + " rows x " +
            std::to_string(np) + " policies x " +
            std::to_string(c.cores) + " cores)");
    c.workloads =
        m.listMode()
            ? WorkloadSet::fromRanks(pop, m.ranks)
            : WorkloadSet::populationRange(pop, m.firstRank,
                                           m.lastRank);
    c.ipc.reshape(np, nw, c.cores);
    for (std::uint64_t s = 0; s < m.shardCount(); ++s) {
        const std::vector<double> payload =
            persist::readV3Shard(path, m, s);
        scatterShard(c.ipc, m, s, {payload.data(), payload.size()});
    }
    return c;
}

/** A campaign's identity, before anything is simulated. */
Campaign
newCampaign(const std::string &simulator, const WorkloadSet &workloads,
            const std::vector<PolicyKind> &policies,
            std::uint32_t cores, std::uint64_t target_uops,
            const std::vector<BenchmarkProfile> &suite)
{
    if (workloads.empty() || policies.empty())
        WSEL_FATAL("campaign needs workloads and policies");
    Campaign c;
    c.simulator = simulator;
    c.cores = cores;
    c.targetUops = target_uops;
    c.policies = policies;
    for (const BenchmarkProfile &p : suite)
        c.benchmarks.push_back(p.name);
    c.workloads = workloads;
    c.fingerprint = campaignFingerprint(simulator, cores, target_uops,
                                        policies, suite);
    return c;
}

std::vector<UncoreConfig>
uncoreConfigs(std::uint32_t cores, const std::vector<PolicyKind> &policies)
{
    std::vector<UncoreConfig> ucfgs;
    ucfgs.reserve(policies.size());
    for (PolicyKind p : policies)
        ucfgs.push_back(UncoreConfig::forCores(cores, p));
    return ucfgs;
}

/** Simulate rows [begin, end) of a shard into its payload slice. */
using RowSimulator = std::function<void(
    const persist::V3Manifest &, const WorkloadPopulation &,
    std::uint64_t, std::uint64_t, std::uint64_t, std::span<double>)>;

/**
 * Run (or resume) @p c's shards through the shared shard loop into
 * its IPC matrix, committing opts.artifactDir when one is set.
 */
void
runCampaignShards(Campaign &c, const CampaignOptions &opts,
                  const RowSimulator &simulate)
{
    persist::V3Manifest m = manifestFor(c);
    const WorkloadPopulation pop(m.popBenchmarks, m.popCores);
    const std::string &dir = opts.artifactDir;
    c.ipc.reshape(c.policies.size(), c.workloads.size(), c.cores);
    const ShardLoopStats st = runV3Shards(
        m, dir, opts.jobs, opts.verbose, "campaign",
        [&](std::uint64_t s, std::uint64_t row_begin,
            std::uint64_t row_end, std::span<double> out) {
            simulate(m, pop, s, row_begin, row_end, out);
        },
        [&](std::uint64_t s, std::span<const double> payload) {
            scatterShard(c.ipc, m, s, payload);
        });
    if (st.cellsResumed > 0)
        logLine("  [campaign] resumed " +
                std::to_string(st.cellsResumed) + "/" +
                std::to_string(st.cellsResumed + st.cellsSimulated) +
                " cells from the shards in " + dir);
    c.simSeconds = st.simSeconds;
    c.instructions = static_cast<std::uint64_t>(c.policies.size()) *
                     c.workloads.size() * c.cores * c.targetUops;
    if (!dir.empty()) {
        m.simSeconds = c.simSeconds;
        m.instructions = c.instructions;
        persist::writeV3Manifest(dir, m);
    }
}

} // namespace

std::uint64_t
campaignFingerprint(const std::string &simulator,
                    std::uint32_t cores, std::uint64_t target_uops,
                    const std::vector<PolicyKind> &policies,
                    const std::vector<BenchmarkProfile> &suite)
{
    persist::Fnv1a h;
    h.update(simulator).update("|");
    h.updateU64(cores).updateU64(target_uops);
    h.updateU64(policies.size());
    for (PolicyKind p : policies)
        h.update(toString(p)).update(",");
    h.updateU64(suite.size());
    for (const BenchmarkProfile &p : suite) {
        h.update(p.name).update(",");
        h.updateU64(p.parameterHash());
    }
    return h.digest();
}

std::uint64_t
campaignCellSeed(std::uint64_t fingerprint,
                 std::uint64_t base_seed, std::size_t policy,
                 std::size_t workload)
{
    persist::Fnv1a h;
    h.updateU64(fingerprint);
    h.updateU64(base_seed);
    h.updateU64(policy);
    h.updateU64(workload);
    const std::uint64_t seed = h.digest();
    return seed ? seed : 0x9e3779b97f4a7c15ULL;
}

std::size_t
Campaign::policyIndex(PolicyKind kind) const
{
    for (std::size_t i = 0; i < policies.size(); ++i) {
        if (policies[i] == kind)
            return i;
    }
    WSEL_FATAL("campaign has no data for policy " << toString(kind));
}

std::vector<double>
Campaign::perWorkloadThroughputs(std::size_t policy_idx,
                                 ThroughputMetric m) const
{
    std::vector<double> t(workloads.size());
    perWorkloadThroughputsInto(policy_idx, m,
                               {t.data(), t.size()});
    return t;
}

void
Campaign::perWorkloadThroughputsInto(std::size_t policy_idx,
                                     ThroughputMetric m,
                                     std::span<double> out) const
{
    if (policy_idx >= policies.size())
        WSEL_FATAL("policy index " << policy_idx << " out of range");
    if (out.size() != workloads.size())
        WSEL_FATAL("throughput buffer has " << out.size()
                                            << " slots for "
                                            << workloads.size()
                                            << " workloads");
    std::vector<double> refs(cores, 1.0);
    workloads.forEach(
        [&](std::size_t w, std::span<const std::uint32_t> benches) {
            for (std::size_t k = 0; k < cores; ++k)
                refs[k] = refIpc[benches[k]];
            out[w] = perWorkloadThroughput(
                m, ipc.cell(policy_idx, w), refs);
        });
}

double
Campaign::mips() const
{
    if (simSeconds <= 0.0)
        return 0.0;
    return static_cast<double>(instructions) / simSeconds / 1e6;
}

void
Campaign::save(const std::string &dir) const
{
    const persist::V3Manifest m = manifestFor(*this);
    persist::ensureDirTree(dir);
    persist::clearV3Dir(dir);
    const std::size_t np = policies.size();
    std::vector<double> payload;
    for (std::uint64_t s = 0; s < m.shardCount(); ++s) {
        payload.clear();
        const std::size_t base =
            static_cast<std::size_t>(s * m.shardRows);
        for (std::size_t r = 0; r < m.rowsInShard(s); ++r)
            for (std::size_t p = 0; p < np; ++p) {
                const auto cell = ipc.cell(p, base + r);
                payload.insert(payload.end(), cell.begin(),
                               cell.end());
            }
        persist::writeV3Shard(dir, m, s,
                              {payload.data(), payload.size()});
    }
    persist::writeV3Manifest(dir, m);
}

Campaign
Campaign::load(const std::string &dir, LoadMode mode)
{
    try {
        return loadV3(dir);
    } catch (const persist::CacheInvalid &e) {
        if (mode == LoadMode::Strict)
            WSEL_FATAL("campaign " << dir << ": " << e.what());
        const std::string moved = persist::quarantineFile(dir);
        warn("corrupt campaign cache at " + dir + " (" + e.what() +
             ")" +
             (moved.empty() ? "" : "; quarantined to " + moved) +
             "; re-simulating");
        throw;
    }
}

Campaign
runBadcoCampaign(const WorkloadSet &workloads,
                 const std::vector<PolicyKind> &policies,
                 std::uint32_t cores, std::uint64_t target_uops,
                 BadcoModelStore &store,
                 const std::vector<BenchmarkProfile> &suite,
                 const CampaignOptions &opts)
{
    Campaign c = newCampaign("badco", workloads, policies, cores,
                             target_uops, suite);
    const std::vector<const BadcoModel *> models =
        store.getSuite(suite, exec::resolveJobs(opts.jobs));
    {
        UncoreConfig ref =
            UncoreConfig::forCores(cores, PolicyKind::LRU);
        BadcoMulticoreSim ref_sim(ref, 1, target_uops, opts.seed);
        c.refIpc = ref_sim.referenceIpcs(models, opts.jobs);
    }
    const std::vector<UncoreConfig> ucfgs =
        uncoreConfigs(cores, policies);
    runCampaignShards(
        c, opts,
        [&](const persist::V3Manifest &m, const WorkloadPopulation &pop,
            std::uint64_t s, std::uint64_t row_begin,
            std::uint64_t row_end, std::span<double> out) {
            simulatePopulationRows(m, pop, ucfgs, models, opts.seed,
                                   s, row_begin, row_end, 0, out);
        });
    return c;
}

Campaign
runDetailedCampaign(const WorkloadSet &workloads,
                    const std::vector<PolicyKind> &policies,
                    std::uint32_t cores, std::uint64_t target_uops,
                    const CoreConfig &core_cfg,
                    const std::vector<BenchmarkProfile> &suite,
                    const CampaignOptions &opts)
{
    Campaign c = newCampaign("detailed", workloads, policies, cores,
                             target_uops, suite);

    // Materialize each benchmark's trace chunks once, up front:
    // every cell's cursors then stream from the shared store instead
    // of re-generating the µop stream cores x cells times
    // (docs/PERFORMANCE.md).  Chunk content is a pure function of
    // the profile, so the build order across the suite is free.
    {
        TraceStore &ts = TraceStore::global();
        exec::parallel_for(opts.jobs, 0, suite.size(),
                           [&](std::size_t i) {
                               ts.ensureBuilt(suite[i], target_uops);
                           });
    }

    {
        UncoreConfig ref =
            UncoreConfig::forCores(cores, PolicyKind::LRU);
        DetailedMulticoreSim ref_sim(core_cfg, ref, 1, target_uops,
                                     opts.seed);
        c.refIpc = ref_sim.referenceIpcs(suite, opts.jobs);
    }
    const std::vector<UncoreConfig> ucfgs =
        uncoreConfigs(cores, policies);
    runCampaignShards(
        c, opts,
        [&](const persist::V3Manifest &m, const WorkloadPopulation &pop,
            std::uint64_t s, std::uint64_t row_begin,
            std::uint64_t row_end, std::span<double> out) {
            simulateDetailedPopulationRows(m, pop, core_cfg, ucfgs,
                                           suite, opts.seed, s,
                                           row_begin, row_end, out);
        });
    return c;
}

} // namespace wsel
