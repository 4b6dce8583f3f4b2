#include "serve/context.hh"

#include "serve/store.hh"
#include "sim/campaign.hh"
#include "sim/multicore.hh"
#include "stats/logging.hh"

namespace wsel::serve
{

namespace
{

std::vector<BenchmarkProfile>
resolveSuite(const CampaignSpec &spec)
{
    if (spec.benchmarks.empty())
        WSEL_FATAL("campaign spec has no benchmarks");
    if (spec.cores == 0)
        WSEL_FATAL("campaign spec has zero cores");
    if (spec.policies.empty())
        WSEL_FATAL("campaign spec has no policies");
    if (spec.shardRows == 0)
        WSEL_FATAL("campaign spec has zero shardRows");
    std::vector<BenchmarkProfile> suite;
    suite.reserve(spec.benchmarks.size());
    for (const std::string &name : spec.benchmarks)
        suite.push_back(findProfile(name)); // FATAL on unknown
    return suite;
}

} // namespace

CampaignContext::CampaignContext(const CampaignSpec &spec,
                                 const std::string &cache_dir,
                                 std::size_t jobs)
    : suite_(resolveSuite(spec)),
      pop_(static_cast<std::uint32_t>(suite_.size()), spec.cores),
      seed_(spec.seed)
{
    std::vector<PolicyKind> policies;
    policies.reserve(spec.policies.size());
    for (const std::string &p : spec.policies)
        policies.push_back(parsePolicyKind(p)); // FATAL on unknown

    const std::uint64_t last =
        spec.lastRank == 0 ? pop_.size() : spec.lastRank;
    if (spec.firstRank >= last || last > pop_.size())
        WSEL_FATAL("campaign spec rank range [" << spec.firstRank
                   << ", " << last << ") invalid for population of "
                   << pop_.size());

    fidelity_ = spec.fidelity;
    const char *sim_name = fidelity_ == 0 ? "badco" : "detailed";
    m_.fingerprint = campaignFingerprint(
        sim_name, spec.cores, spec.targetUops, policies, suite_);
    m_.simulator = sim_name;
    m_.cores = spec.cores;
    m_.targetUops = spec.targetUops;
    for (PolicyKind p : policies)
        m_.policies.push_back(toString(p));
    m_.benchmarks = spec.benchmarks;
    m_.popBenchmarks = static_cast<std::uint32_t>(suite_.size());
    m_.popCores = spec.cores;
    m_.firstRank = spec.firstRank;
    m_.lastRank = last;
    m_.shardRows = spec.shardRows;
    m_.instructions = m_.rows() * policies.size() * spec.cores *
                      spec.targetUops;

    ucfgs_.reserve(policies.size());
    for (PolicyKind p : policies)
        ucfgs_.push_back(UncoreConfig::forCores(spec.cores, p));

    const UncoreConfig ref =
        UncoreConfig::forCores(spec.cores, PolicyKind::LRU);
    if (fidelity_ == 0) {
        store_ = std::make_unique<BadcoModelStore>(
            CoreConfig{}, spec.targetUops, ref.llcHitLatency,
            cache_dir);
        models_ = store_->getSuite(suite_, jobs);
        const BadcoMulticoreSim ref_sim(ref, 1, spec.targetUops,
                                        seed_);
        m_.refIpc = ref_sim.referenceIpcs(models_, jobs);
    } else {
        // Detailed fidelity: no models; references come from the
        // cycle-level simulator (as runDetailedCampaign does).
        const DetailedMulticoreSim ref_sim(coreCfg_, ref, 1,
                                           spec.targetUops, seed_);
        m_.refIpc = ref_sim.referenceIpcs(suite_, jobs);
    }

    geomHash_ =
        campaignGeometryHash(seed_, m_.firstRank, m_.lastRank,
                             m_.shardRows, fidelity_);
}

} // namespace wsel::serve
