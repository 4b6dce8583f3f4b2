/**
 * @file
 * Self-test of the benchmark's output check and failure count, on a
 * small BADCO population campaign (2k µops, two policies, 8 ranks):
 *
 *  - a digest book saved to disk reads back what was recorded;
 *  - a manifest that differs only in simSeconds keeps its digest;
 *  - a second identical campaign reproduces the digest bitwise and a
 *    serial recompute of a row matches the stored row;
 *  - one flipped shard byte changes the digest (the digest book
 *    rejects it) and fails the serial row recheck;
 *  - a campaign that fails counts every one of its cells as failed.
 *
 *   perfbench_selftest [WORK_DIR]
 *
 * Exit status 0 when every check passes.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "check.hh"
#include "obs/metrics.hh"
#include "stats/persist.hh"
#include "stats/persist_v3.hh"
#include "workloads.hh"

namespace fs = std::filesystem;

namespace
{

int failures = 0;
int checks = 0;

void
expect(bool ok, const char *what)
{
    ++checks;
    if (!ok) {
        ++failures;
        std::fprintf(stderr, "perfbench_selftest: FAILED: %s\n", what);
    }
}

void
flipByte(const std::string &path, std::uintmax_t offset)
{
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(offset));
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x10);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&c, 1);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const std::string work =
        fs::absolute(argc > 1 ? argv[1] : "perfbench-selftest").string();
    fs::remove_all(work);
    const std::string cache = work + "/cache";
    wsel::persist::ensureDirTree(cache);
    ::setenv("WSEL_CACHE_DIR", cache.c_str(), 1);
    wsel::obs::enableMetrics();

    SimContext ctx(2000, {wsel::PolicyKind::LRU, wsel::PolicyKind::DIP},
                   2);
    ctx.loadModels(cache);
    const Window w{100, 108, 7};

    const std::string dir_a = work + "/a";
    const Outcome a = runPopulationCampaign(ctx, w, dir_a);
    expect(a.ok() && a.committed == a.attempted && a.attempted == 16,
           "clean campaign commits all 16 cells");
    DigestBook book(work + "/digests/pop-seed1.txt");
    expect(book.record("c0", a.digest), "first digest is recorded");
    book.save();
    const DigestBook reloaded(work + "/digests/pop-seed1.txt");
    expect(reloaded.find("c0") && *reloaded.find("c0") == a.digest &&
               !reloaded.find("c1"),
           "a saved book reads back its digests and nothing else");

    wsel::persist::V3Manifest m = wsel::persist::readV3Manifest(dir_a);
    m.simSeconds += 12.5;
    wsel::persist::writeV3Manifest(dir_a, m);
    expect(campaignDigest(dir_a) == a.digest &&
               book.record("c0", campaignDigest(dir_a)),
           "a simSeconds-only manifest difference passes the check");

    const Outcome b = runPopulationCampaign(ctx, w, work + "/b");
    expect(b.ok() && b.digest == a.digest,
           "an identical campaign reproduces the digest");
    expect(recheckBadcoRows(dir_a, ctx.pop, ctx.ucfgs, ctx.models, w.seed,
                            {w.first + 3}) == 0,
           "serial recompute matches the stored row");

    const std::string shard = wsel::persist::v3ShardPath(dir_a, 0);
    flipByte(shard, fs::file_size(shard) / 2);
    const std::uint64_t flipped = campaignDigest(dir_a);
    expect(flipped != a.digest && !book.record("c0", flipped),
           "a flipped shard byte fails the digest check");
    expect(recheckBadcoRows(dir_a, ctx.pop, ctx.ucfgs, ctx.models, w.seed,
                            {w.first + 3}) == 1,
           "a flipped shard byte fails the serial row recheck");

    // A regular file where the campaign directory should go makes
    // the campaign fail before it commits anything.
    const std::string blocked = work + "/blocked";
    std::ofstream(blocked) << "not a directory\n";
    const Outcome f = runPopulationCampaign(ctx, w, blocked);
    const Tally t = tally({a, f});
    expect(!f.ok() && f.committed == 0, "the blocked campaign fails");
    expect(t.attempted == 32 && t.failed == 16,
           "the failed campaign's cells count as failed");

    fs::remove_all(work);
    std::printf("perfbench_selftest: %d of %d checks passed\n",
                checks - failures, checks);
    return failures == 0 ? 0 : 1;
}
