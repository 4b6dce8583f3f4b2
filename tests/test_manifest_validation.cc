/**
 * @file
 * Hostile-input tests for the campaign_v3 manifest reader: a
 * manifest is untrusted disk input (truncation, bit rot, a crafted
 * write), so readV3Manifest must answer every damaged byte stream
 * with CacheInvalid — never a crash, a giant allocation, or an
 * overflowed size computation.  Fuzz-ish coverage, over a range-mode
 * and a list-mode manifest alike: every prefix truncation, every
 * single-byte bit flip, plus crafted manifests whose individual
 * fields lie about their bounds.
 */

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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

persist::V3Manifest
validManifest()
{
    persist::V3Manifest m;
    m.fingerprint = 0xfeedface12345678ULL;
    m.simulator = "badco";
    m.cores = 2;
    m.targetUops = 50000;
    m.simSeconds = 1.5;
    m.instructions = 123456;
    m.policies = {"LRU", "DIP"};
    m.benchmarks = {"alpha", "beta", "gamma"};
    m.refIpc = {1.0, 0.9, 1.1};
    m.popBenchmarks = 3;
    m.popCores = 2;
    m.firstRank = 0;
    m.lastRank = 6;
    m.shardRows = 2;
    return m;
}

/** A list-mode manifest: explicit ranks, one of them repeated (as
 * sampling with replacement produces). */
persist::V3Manifest
validListManifest()
{
    persist::V3Manifest m = validManifest();
    m.ranks = {5, 2, 2, 0};
    m.lastRank = m.ranks.size();
    return m;
}

/** Both manifest modes, as sweep inputs. */
std::vector<persist::V3Manifest>
validManifests()
{
    return {validManifest(), validListManifest()};
}

/** Bytes from the body end to the end of shardRows: the rank list
 * and its count, in list mode. */
std::size_t
rankListBytes(const persist::V3Manifest &m)
{
    return m.listMode() ? 8 * (m.ranks.size() + 1) : 0;
}

class ManifestValidation : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = test::scratchPath("wsel_manifest_fuzz").string();
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string
    manifestBytes(const persist::V3Manifest &m)
    {
        persist::writeV3Manifest(dir_, m);
        std::ifstream in(persist::v3ManifestPath(dir_),
                         std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    }

    void
    putManifestBytes(const std::string &bytes)
    {
        std::ofstream out(persist::v3ManifestPath(dir_),
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }

    /**
     * Overwrite the u64 field @p offset_from_body_end bytes before
     * the end of the manifest BODY (in range mode shardRows is 8,
     * lastRank 16, firstRank 24; list mode adds rankListBytes) and
     * re-seal the trailing checksum — a crafted manifest the trusted
     * writer itself would refuse to produce.
     */
    std::string
    patchTailU64(std::string bytes,
                 std::size_t offset_from_body_end,
                 std::uint64_t value)
    {
        bytes.resize(bytes.size() - 8); // strip checksum
        const std::size_t at = bytes.size() - offset_from_body_end;
        for (int i = 0; i < 8; ++i)
            bytes[at + i] =
                static_cast<char>((value >> (8 * i)) & 0xff);
        const std::uint64_t sum = persist::fnv1a(bytes);
        for (int i = 0; i < 8; ++i)
            bytes.push_back(
                static_cast<char>((sum >> (8 * i)) & 0xff));
        return bytes;
    }

    std::string dir_;
};

TEST_F(ManifestValidation, IntactManifestRoundTrips)
{
    for (const persist::V3Manifest &m : validManifests()) {
        manifestBytes(m);
        const persist::V3Manifest back =
            persist::readV3Manifest(dir_);
        EXPECT_EQ(back.fingerprint, m.fingerprint);
        EXPECT_EQ(back.policies, m.policies);
        EXPECT_EQ(back.benchmarks, m.benchmarks);
        EXPECT_EQ(back.lastRank, m.lastRank);
        EXPECT_EQ(back.shardRows, m.shardRows);
        EXPECT_EQ(back.ranks, m.ranks);
    }
}

TEST_F(ManifestValidation, EveryTruncationRejected)
{
    for (const persist::V3Manifest &m : validManifests()) {
        const std::string full = manifestBytes(m);
        ASSERT_GT(full.size(), 16u);
        for (std::size_t len = 0; len < full.size(); ++len) {
            putManifestBytes(full.substr(0, len));
            EXPECT_THROW(persist::readV3Manifest(dir_),
                         persist::CacheInvalid)
                << "accepted a manifest truncated to " << len
                << " of " << full.size() << " bytes";
        }
    }
}

TEST_F(ManifestValidation, EverySingleBitFlipRejected)
{
    // The trailing FNV-1a covers every preceding byte and is itself
    // covered by the comparison, so ANY one-bit flip must surface
    // as CacheInvalid.
    for (const persist::V3Manifest &m : validManifests()) {
        const std::string full = manifestBytes(m);
        for (std::size_t byte = 0; byte < full.size(); ++byte) {
            for (int bit = 0; bit < 8; ++bit) {
                std::string damaged = full;
                damaged[byte] =
                    static_cast<char>(damaged[byte] ^ (1 << bit));
                putManifestBytes(damaged);
                EXPECT_THROW(persist::readV3Manifest(dir_),
                             persist::CacheInvalid)
                    << "byte " << byte << " bit " << bit;
            }
        }
    }
}

// Crafted manifests: checksum-valid bytes whose fields lie.  The
// writer is the trusted side and does not validate, which lets the
// tests produce well-formed files with implausible contents.

TEST_F(ManifestValidation, ImplausibleCoreCountRejected)
{
    persist::V3Manifest m = validManifest();
    m.cores = 100000;
    manifestBytes(m);
    EXPECT_THROW(persist::readV3Manifest(dir_),
                 persist::CacheInvalid);
}

TEST_F(ManifestValidation, ImplausibleNameLengthsRejected)
{
    persist::V3Manifest m = validManifest();
    m.simulator = std::string(4096, 'x');
    manifestBytes(m);
    EXPECT_THROW(persist::readV3Manifest(dir_),
                 persist::CacheInvalid);

    m = validManifest();
    m.benchmarks[1] = std::string(100000, 'b');
    manifestBytes(m);
    EXPECT_THROW(persist::readV3Manifest(dir_),
                 persist::CacheInvalid);
}

TEST_F(ManifestValidation, InvertedRankRangeRejected)
{
    // The trusted writer refuses an inverted range, so forge one
    // behind its back: patch firstRank past lastRank and re-seal.
    for (const persist::V3Manifest &m : validManifests()) {
        const std::string full = manifestBytes(m);
        putManifestBytes(patchTailU64(full, rankListBytes(m) + 24,
                                      10)); // firstRank = 10
        EXPECT_THROW(persist::readV3Manifest(dir_),
                     persist::CacheInvalid);
    }
}

TEST_F(ManifestValidation, ZeroShardRowsRejected)
{
    for (const persist::V3Manifest &m : validManifests()) {
        const std::string full = manifestBytes(m);
        putManifestBytes(patchTailU64(full, rankListBytes(m) + 8,
                                      0)); // shardRows = 0
        EXPECT_THROW(persist::readV3Manifest(dir_),
                     persist::CacheInvalid);
    }
}

TEST_F(ManifestValidation, RankOutsidePopulationRejected)
{
    // A 3-benchmark 2-core population has ranks [0, 6).
    persist::V3Manifest m = validListManifest();
    m.ranks[1] = 6;
    manifestBytes(m);
    EXPECT_THROW(persist::readV3Manifest(dir_),
                 persist::CacheInvalid);
    m.ranks[1] = ~0ULL;
    manifestBytes(m);
    EXPECT_THROW(persist::readV3Manifest(dir_),
                 persist::CacheInvalid);
}

TEST_F(ManifestValidation, RankCountMismatchRejected)
{
    const persist::V3Manifest m = validListManifest();
    const std::string full = manifestBytes(m);
    const std::size_t count_at = 8 * (m.ranks.size() + 1);
    for (std::uint64_t n : {m.ranks.size() - 1, m.ranks.size() + 1}) {
        putManifestBytes(patchTailU64(full, count_at, n));
        EXPECT_THROW(persist::readV3Manifest(dir_),
                     persist::CacheInvalid)
            << "count " << n;
    }
    // lastRank disagreeing with an intact list is the same lie.
    putManifestBytes(patchTailU64(full, count_at + 16, 3));
    EXPECT_THROW(persist::readV3Manifest(dir_),
                 persist::CacheInvalid);
}

TEST_F(ManifestValidation, OverflowingRankCountRejected)
{
    // count x 8 bytes wraps to a small number for 2^61 and above;
    // the reader must bound the count by the bytes left, not
    // multiply it.
    const persist::V3Manifest m = validListManifest();
    const std::string full = manifestBytes(m);
    for (std::uint64_t n : {1ULL << 61, (1ULL << 61) + 4, ~0ULL}) {
        putManifestBytes(
            patchTailU64(full, 8 * (m.ranks.size() + 1), n));
        EXPECT_THROW(persist::readV3Manifest(dir_),
                     persist::CacheInvalid)
            << "count " << n;
    }
}

TEST_F(ManifestValidation, AbsurdRowCountRejected)
{
    persist::V3Manifest m = validManifest();
    m.lastRank = 1ULL << 49; // rows() over the 2^48 cap
    manifestBytes(m);
    EXPECT_THROW(persist::readV3Manifest(dir_),
                 persist::CacheInvalid);
}

TEST_F(ManifestValidation, ShardPayloadOverflowRejected)
{
    // shardRows x policies x cores would overflow the per-shard
    // payload bound even though each factor alone looks sane.
    persist::V3Manifest m = validManifest();
    m.shardRows = 1ULL << 40;
    m.lastRank = 1ULL << 41;
    manifestBytes(m);
    EXPECT_THROW(persist::readV3Manifest(dir_),
                 persist::CacheInvalid);
}

TEST_F(ManifestValidation, OversizedMaterializationRefusedByLoad)
{
    // A checksum-valid manifest may still describe a campaign too
    // large to materialize in memory; Campaign::load must refuse
    // BEFORE allocating the workload list or the IPC matrix, not
    // OOM first.  A 65536-benchmark 2-core population is ~2.1e9
    // workloads, so ranks up to 2^30 are inside the population but
    // 2^30 rows x 2 policies x 2 cores = 2^32 cells is over the
    // materialization cap.
    persist::V3Manifest m = validManifest();
    m.popBenchmarks = 65536;
    m.benchmarks.clear();
    m.refIpc.clear();
    for (std::uint32_t i = 0; i < m.popBenchmarks; ++i) {
        std::string name = "b";
        name += std::to_string(i);
        m.benchmarks.push_back(std::move(name));
        m.refIpc.push_back(1.0);
    }
    m.firstRank = 0;
    m.lastRank = 1ULL << 30;
    m.shardRows = 1ULL << 20;
    manifestBytes(m);
    // LoadMode::Strict wraps cache damage in FatalError; the point
    // here is that it throws promptly instead of allocating.
    EXPECT_THROW(Campaign::load(dir_), FatalError);
}

} // namespace

} // namespace wsel
