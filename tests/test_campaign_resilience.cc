/**
 * @file
 * Fault-tolerance tests for campaign persistence: checkpoint/resume
 * from campaign_v3 shards under injected kill-points, integrity
 * validation (truncation, bit flips, version skew, fingerprint
 * drift, foreign shards) with quarantine-and-regenerate semantics,
 * atomic file replacement, and advisory locking across processes.
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#define WSEL_TEST_HAVE_FORK 1
#endif

#include <gtest/gtest.h>

#include "fault_injection.hh"
#include "sim/campaign.hh"
#include "stats/logging.hh"
#include "stats/persist.hh"
#include "stats/persist_v3.hh"
#include "test_util.hh"

namespace wsel
{

namespace
{

namespace fs = std::filesystem;

constexpr std::uint64_t kUops = 4000;

std::vector<BenchmarkProfile>
testSuite()
{
    std::vector<BenchmarkProfile> s;
    s.push_back(test::lightProfile(7));
    s.push_back(test::heavyProfile(11));
    return s;
}

const std::vector<PolicyKind> kPolicies = {PolicyKind::LRU,
                                           PolicyKind::DIP};

/**
 * Run the 2-policy x 3-workload x 2-core BADCO campaign used
 * throughout these tests (3 one-row shards of 2 cells), writing its
 * campaign_v3 artifact to @p artifact when non-empty.  @p model_dir
 * (when non-empty) persists BADCO models so repeated runs in one
 * test skip rebuilding them.
 */
Campaign
runTiny(const std::string &artifact = "",
        const std::string &model_dir = "",
        const WorkloadSet &workloads = WorkloadPopulation(2, 2)
                                           .enumerateAll())
{
    const auto suite = testSuite();
    BadcoModelStore store(CoreConfig{}, kUops, 5, model_dir);
    CampaignOptions opts;
    opts.artifactDir = artifact;
    return runBadcoCampaign(workloads, kPolicies, 2, kUops, store,
                            suite, opts);
}

void
expectSameResults(const Campaign &a, const Campaign &b)
{
    ASSERT_EQ(a.policies.size(), b.policies.size());
    ASSERT_EQ(a.workloads.size(), b.workloads.size());
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    for (std::size_t p = 0; p < a.policies.size(); ++p) {
        for (std::size_t w = 0; w < a.workloads.size(); ++w) {
            ASSERT_EQ(a.ipc[p][w].size(), b.ipc[p][w].size());
            for (std::size_t k = 0; k < a.ipc[p][w].size(); ++k) {
                // Bitwise equality: a resumed campaign must be
                // indistinguishable from an uninterrupted one.
                EXPECT_EQ(a.ipc[p][w][k], b.ipc[p][w][k])
                    << "cell (" << p << "," << w << "," << k << ")";
            }
        }
    }
}

/** Per-test scratch directory, also exported as WSEL_CACHE_DIR. */
class Resilience : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = test::scratchPath("wsel_resilience").string();
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        setenv("WSEL_CACHE_DIR", dir_.c_str(), 1);
    }

    void
    TearDown() override
    {
        unsetenv("WSEL_CACHE_DIR");
        fs::remove_all(dir_);
    }

    std::string
    path(const std::string &name) const
    {
        return dir_ + "/" + name;
    }

    /** Entries of @p dir (default: the scratch dir) whose name
     * contains @p needle. */
    std::size_t
    countContaining(const std::string &needle,
                    const std::string &dir = "") const
    {
        std::size_t n = 0;
        for (const auto &e :
             fs::directory_iterator(dir.empty() ? dir_ : dir))
            if (e.path().filename().string().find(needle) !=
                std::string::npos)
                ++n;
        return n;
    }

    std::string dir_;
};

// ---------------------------------------------------------------
// campaign_v3 integrity: strict-load error reporting.
// ---------------------------------------------------------------

TEST_F(Resilience, TruncationAtEveryByteIsDetected)
{
    const Campaign c = runTiny();
    const std::string art = path("full");
    c.save(art);
    const std::string shard = persist::v3ShardPath(art, 1);
    const std::string bytes = test::readFile(shard);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        {
            std::ofstream os(shard, std::ios::binary | std::ios::trunc);
            os.write(bytes.data(), static_cast<std::streamsize>(cut));
        }
        EXPECT_THROW(Campaign::load(art), FatalError)
            << "truncation at byte " << cut << " went undetected";
    }
    // Sanity: the untruncated shard still loads.
    {
        std::ofstream os(shard, std::ios::binary | std::ios::trunc);
        os << bytes;
    }
    expectSameResults(Campaign::load(art), c);
}

TEST_F(Resilience, BitFlipFailsChecksum)
{
    const Campaign c = runTiny();
    const std::string art = path("flip");
    c.save(art);
    // Flip a low mantissa bit of an IPC value: the number stays
    // plausible, so only the checksum can catch it.
    const std::string shard = persist::v3ShardPath(art, 0);
    test::flipBit(shard, test::fileSize(shard) - 16, 0);
    try {
        Campaign::load(art);
        FAIL() << "loaded a damaged shard";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(art), std::string::npos)
            << "error lacks path context: " << e.what();
    }
}

// ---------------------------------------------------------------
// cachedCampaign: quarantine-and-regenerate, never abort.
// ---------------------------------------------------------------

TEST_F(Resilience, CorruptCacheIsQuarantinedAndRegenerated)
{
    int produced = 0;
    auto produce = [&]() {
        ++produced;
        return runTiny();
    };
    const Campaign a = cachedCampaign("resil", 0, produce);
    EXPECT_EQ(produced, 1);
    const std::string art = path("campaign_v3_resil");
    ASSERT_TRUE(persist::isV3CampaignDir(art));

    const std::string shard = persist::v3ShardPath(art, 0);
    test::flipBit(shard, test::fileSize(shard) - 16, 0);

    const Campaign b = cachedCampaign("resil", 0, produce);
    EXPECT_EQ(produced, 2);
    EXPECT_EQ(countContaining(".corrupt"), 1u);
    expectSameResults(a, b);
    // The regenerated campaign is valid again.
    EXPECT_NO_THROW(Campaign::load(art));
}

TEST_F(Resilience, TruncatedCacheIsQuarantinedAndRegenerated)
{
    int produced = 0;
    auto produce = [&]() {
        ++produced;
        return runTiny();
    };
    cachedCampaign("trunc", 0, produce);
    const std::string manifest =
        persist::v3ManifestPath(path("campaign_v3_trunc"));
    test::truncateFile(manifest, test::fileSize(manifest) / 2);
    cachedCampaign("trunc", 0, produce);
    EXPECT_EQ(produced, 2);
    EXPECT_EQ(countContaining(".corrupt"), 1u);
}

TEST_F(Resilience, FingerprintMismatchIsQuarantinedAndRegenerated)
{
    int produced = 0;
    auto produce = [&]() {
        ++produced;
        return runTiny();
    };
    const Campaign a = cachedCampaign("fpr", 0, produce);
    EXPECT_EQ(produced, 1);
    // Same key, different expected fingerprint: the config changed
    // in a way the cache key missed -> re-simulate.
    const Campaign b =
        cachedCampaign("fpr", a.fingerprint + 1, produce);
    EXPECT_EQ(produced, 2);
    EXPECT_EQ(countContaining(".corrupt"), 1u);
    // Matching fingerprint is served from cache.
    const Campaign d =
        cachedCampaign("fpr", a.fingerprint, produce);
    EXPECT_EQ(produced, 2);
    expectSameResults(b, d);
}

TEST_F(Resilience, VersionSkewedCacheIsQuarantinedAndRegenerated)
{
    int produced = 0;
    auto produce = [&]() {
        ++produced;
        return runTiny();
    };
    const Campaign a = cachedCampaign("skew", 0, produce);
    // Re-stamp the manifest with a format version this build does
    // not know, and re-seal its checksum so only the version skews.
    const std::string manifest =
        persist::v3ManifestPath(path("campaign_v3_skew"));
    std::string bytes = test::readFile(manifest);
    bytes.resize(bytes.size() - 8);
    bytes[8] = 99; // the u32 version follows the 8-byte magic
    const std::uint64_t sum = persist::fnv1a(bytes);
    for (int i = 0; i < 8; ++i)
        bytes.push_back(static_cast<char>((sum >> (8 * i)) & 0xff));
    {
        std::ofstream os(manifest, std::ios::binary | std::ios::trunc);
        os << bytes;
    }
    const Campaign b = cachedCampaign("skew", 0, produce);
    EXPECT_EQ(produced, 2);
    EXPECT_EQ(countContaining(".corrupt"), 1u);
    expectSameResults(a, b);
}

// ---------------------------------------------------------------
// Checkpoint/resume: kill-point injection at every cell.
// ---------------------------------------------------------------

TEST_F(Resilience, ResumeAfterKillAtEveryPointMatchesUninterrupted)
{
    const std::string models = path("models");
    const Campaign base = runTiny("", models);
    const std::size_t total =
        base.policies.size() * base.workloads.size();
    ASSERT_EQ(total, 6u);

    for (std::size_t n = 1; n <= total; ++n) {
        const std::string art = path("kill" + std::to_string(n));
        {
            test::FaultInjector kill("population.cell", n);
            EXPECT_THROW(runTiny(art, models), test::InjectedFault)
                << "kill #" << n;
        }
        // No manifest: the killed run never committed.
        EXPECT_FALSE(persist::isV3CampaignDir(art));
        // The resumed run must reproduce the uninterrupted campaign
        // bit for bit, and must only simulate the shards the killed
        // run had not written: one row of two cells per shard, so
        // the (n-1)/2 shards before the kill are reused.
        test::FaultInjector counting;
        const Campaign resumed = runTiny(art, models);
        expectSameResults(base, resumed);
        EXPECT_EQ(counting.hits("population.cell"),
                  total - 2 * ((n - 1) / 2))
            << "kill #" << n;
        EXPECT_TRUE(persist::isV3CampaignDir(art));
    }
}

TEST_F(Resilience, DetailedCampaignResumesToo)
{
    const auto suite = testSuite();
    const WorkloadPopulation pop(2, 2);
    CampaignOptions opts;
    const Campaign base =
        runDetailedCampaign(pop.enumerateAll(), {PolicyKind::LRU},
                            2, kUops, CoreConfig{}, suite, opts);
    for (std::size_t n : {1, 2, 3}) {
        opts.artifactDir = path("det" + std::to_string(n));
        {
            test::FaultInjector kill("fidelity.escalate", n);
            EXPECT_THROW(runDetailedCampaign(pop.enumerateAll(),
                                             {PolicyKind::LRU}, 2,
                                             kUops, CoreConfig{},
                                             suite, opts),
                         test::InjectedFault);
        }
        test::FaultInjector counting;
        const Campaign resumed = runDetailedCampaign(
            pop.enumerateAll(), {PolicyKind::LRU}, 2, kUops,
            CoreConfig{}, suite, opts);
        expectSameResults(base, resumed);
        // One single-cell shard per workload; n - 1 were written.
        EXPECT_EQ(counting.hits("fidelity.escalate"), 3 - (n - 1));
    }
}

TEST_F(Resilience, ForeignShardsAreQuarantinedAndIgnored)
{
    const std::string models = path("models");
    const Campaign base = runTiny("", models);
    // Leave the shards of another sample (same configuration, the
    // ranks in another order) behind, uncommitted, in the directory.
    const std::string art = path("foreign");
    runTiny(art, models,
            WorkloadSet::fromRanks(WorkloadPopulation(2, 2),
                                   {2, 1, 0}));
    fs::remove(persist::v3ManifestPath(art));
    test::FaultInjector counting;
    const Campaign c = runTiny(art, models);
    expectSameResults(base, c);
    EXPECT_EQ(counting.hits("population.cell"), 6u);
    EXPECT_EQ(countContaining(".corrupt", art), 3u);
}

TEST_F(Resilience, DamagedShardIsResimulatedOnResume)
{
    const std::string models = path("models");
    const Campaign base = runTiny("", models);
    const std::string art = path("tail");
    {
        test::FaultInjector kill("population.cell", 5);
        EXPECT_THROW(runTiny(art, models), test::InjectedFault);
    }
    // Shards 0 and 1 are on disk; damage shard 1 as a torn write
    // would.
    const std::string shard = persist::v3ShardPath(art, 1);
    test::truncateFile(shard, test::fileSize(shard) / 2);
    test::FaultInjector counting;
    const Campaign resumed = runTiny(art, models);
    expectSameResults(base, resumed);
    EXPECT_EQ(counting.hits("population.cell"), 4u); // shards 1, 2
    EXPECT_EQ(countContaining(".corrupt", art), 1u);
}

TEST_F(Resilience, CachedCampaignResumesAcrossCalls)
{
    const std::string models = path("models");
    const Campaign base = runTiny("", models);
    int produced = 0;
    auto produce = [&](const std::string &artifact) {
        ++produced;
        return runTiny(artifact, models);
    };
    {
        test::FaultInjector kill("population.cell", 3);
        EXPECT_THROW(cachedCampaign("resume", 0, produce),
                     test::InjectedFault);
    }
    const std::string art = path("campaign_v3_resume");
    EXPECT_TRUE(fs::exists(persist::v3ShardPath(art, 0)));
    EXPECT_FALSE(persist::isV3CampaignDir(art));
    test::FaultInjector counting;
    const Campaign c = cachedCampaign("resume", 0, produce);
    EXPECT_EQ(produced, 2);
    expectSameResults(base, c);
    EXPECT_EQ(counting.hits("population.cell"), 4u); // 6 cells - 2
    EXPECT_TRUE(persist::isV3CampaignDir(art));
    // A third call serves the cache without any simulation.
    const Campaign d = cachedCampaign("resume", 0, produce);
    EXPECT_EQ(produced, 2);
    expectSameResults(c, d);
}

// ---------------------------------------------------------------
// Atomic replacement, quarantine, locking, cache dir creation.
// ---------------------------------------------------------------

TEST_F(Resilience, AtomicWriteKilledBeforeRenameKeepsOldContents)
{
    const std::string file = path("atomic.txt");
    persist::atomicWriteFile(file, "generation-1");
    {
        test::FaultInjector kill("atomic.before-rename", 1);
        EXPECT_THROW(persist::atomicWriteFile(file, "generation-2"),
                     test::InjectedFault);
    }
    EXPECT_EQ(test::readFile(file), "generation-1");
    persist::atomicWriteFile(file, "generation-2");
    EXPECT_EQ(test::readFile(file), "generation-2");
}

TEST_F(Resilience, QuarantineRenamesWithoutDeleting)
{
    const std::string file = path("artifact.bin");
    persist::atomicWriteFile(file, "payload");
    const std::string moved = persist::quarantineFile(file);
    EXPECT_EQ(moved, file + ".corrupt");
    EXPECT_FALSE(fs::exists(file));
    EXPECT_EQ(test::readFile(moved), "payload");
    // A second corrupt generation gets a numbered suffix.
    persist::atomicWriteFile(file, "payload2");
    const std::string moved2 = persist::quarantineFile(file);
    EXPECT_EQ(moved2, file + ".corrupt.1");
}

TEST_F(Resilience, FileLockExcludesSecondHolder)
{
    const std::string lockfile = path("x.lock");
    persist::FileLock held(lockfile);
    ASSERT_TRUE(held.held());
    // A second open file description cannot take the lock...
    persist::FileLock second =
        persist::FileLock::tryAcquire(lockfile);
    EXPECT_FALSE(second.held());
    // ...until the first holder releases it.
    held.release();
    persist::FileLock third =
        persist::FileLock::tryAcquire(lockfile);
    EXPECT_TRUE(third.held());
}

#ifdef WSEL_TEST_HAVE_FORK
TEST_F(Resilience, FileLockExcludesAcrossProcesses)
{
    const std::string lockfile = path("proc.lock");
    persist::FileLock held(lockfile);
    ASSERT_TRUE(held.held());
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: the parent's lock must exclude us.
        persist::FileLock mine =
            persist::FileLock::tryAcquire(lockfile);
        ::_exit(mine.held() ? 1 : 0);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "child acquired a lock the parent held";

    held.release();
    pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        persist::FileLock mine =
            persist::FileLock::tryAcquire(lockfile);
        ::_exit(mine.held() ? 0 : 1);
    }
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "child failed to acquire a released lock";
}
#endif

TEST_F(Resilience, DefaultCacheDirCreatesDirectory)
{
    const std::string nested = path("nested/a/b");
    setenv("WSEL_CACHE_DIR", nested.c_str(), 1);
    EXPECT_EQ(defaultCacheDir(), nested);
    EXPECT_TRUE(fs::is_directory(nested));
    setenv("WSEL_CACHE_DIR", "", 1);
    EXPECT_EQ(defaultCacheDir(), "");
}

TEST_F(Resilience, CorruptModelCacheIsQuarantinedAndRebuilt)
{
    const auto profile = test::lightProfile(7);
    {
        BadcoModelStore store(CoreConfig{}, kUops, 5, dir_);
        store.get(profile);
        EXPECT_EQ(store.modelsBuilt(), 1u);
    }
    // Find and damage the persisted model.
    std::string model_file;
    for (const auto &e : fs::directory_iterator(dir_)) {
        const std::string name = e.path().filename().string();
        if (name.rfind("badco_", 0) == 0 &&
            name.find(".bin") != std::string::npos)
            model_file = e.path().string();
    }
    ASSERT_FALSE(model_file.empty());
    test::truncateFile(model_file, 16);
    // A fresh store must rebuild instead of aborting.
    BadcoModelStore store2(CoreConfig{}, kUops, 5, dir_);
    const BadcoModel &m = store2.get(profile);
    EXPECT_EQ(store2.modelsBuilt(), 1u);
    EXPECT_EQ(m.traceUops, kUops);
    EXPECT_EQ(countContaining(".corrupt"), 1u);
    // And the rewritten cache is valid for the next store.
    BadcoModelStore store3(CoreConfig{}, kUops, 5, dir_);
    store3.get(profile);
    EXPECT_EQ(store3.modelsBuilt(), 0u);
}

} // namespace
} // namespace wsel
