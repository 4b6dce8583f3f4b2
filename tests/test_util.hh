/**
 * @file
 * Shared helpers for the wsel test suite: small fast benchmark
 * profiles and simulation shortcuts so unit tests stay quick.
 */

#ifndef WSEL_TESTS_TEST_UTIL_HH
#define WSEL_TESTS_TEST_UTIL_HH

#include <cstdint>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "cpu/detailed_core.hh"
#include "mem/uncore.hh"
#include "trace/benchmark_profile.hh"
#include "trace/trace_store.hh"

namespace wsel::test
{

/**
 * temp_directory_path()/<name>.<pid>: a scratch path no other test
 * process shares (ctest runs every test in its own process, many at
 * once under -j).
 */
inline std::filesystem::path
scratchPath(const std::string &name)
{
    return std::filesystem::temp_directory_path() /
           (name + "." + std::to_string(::getpid()));
}

/** A light, fast profile for unit tests (mostly L1-resident). */
inline BenchmarkProfile
lightProfile(std::uint64_t seed = 7)
{
    BenchmarkProfile p;
    p.name = "test-light";
    p.seed = seed;
    p.loadFrac = 0.30;
    p.storeFrac = 0.10;
    p.branchFrac = 0.15;
    p.fpFrac = 0.05;
    p.l1Frac = 0.90;
    p.hotFrac = 0.08;
    p.streamFrac = 0.01;
    p.randomFrac = 0.01;
    p.chaseFrac = 0.0;
    p.l1Bytes = 4 * 1024;
    p.hotBytes = 12 * 1024;
    p.footprintBytes = 1 * 1024 * 1024;
    p.staticBlocks = 256;
    p.validate();
    return p;
}

/** A memory-heavy profile (streams, random, chase). */
inline BenchmarkProfile
heavyProfile(std::uint64_t seed = 11)
{
    BenchmarkProfile p;
    p.name = "test-heavy";
    p.seed = seed;
    p.loadFrac = 0.32;
    p.storeFrac = 0.10;
    p.branchFrac = 0.12;
    p.fpFrac = 0.02;
    p.l1Frac = 0.70;
    p.hotFrac = 0.10;
    p.streamFrac = 0.10;
    p.randomFrac = 0.06;
    p.chaseFrac = 0.04;
    p.l1Bytes = 4 * 1024;
    p.hotBytes = 24 * 1024;
    p.footprintBytes = 4 * 1024 * 1024;
    p.chaseBytes = 64 * 1024;
    p.staticBlocks = 256;
    p.validate();
    return p;
}

/** Run a single detailed core to its target and return it. */
inline CoreStats
runSingleCore(const BenchmarkProfile &profile, UncoreIf &uncore,
              std::uint64_t target, std::uint64_t seed = 1)
{
    CoreConfig cfg;
    DetailedCore core(cfg, TraceStore::global().cursor(profile),
                      uncore, 0, target, seed);
    std::uint64_t now = 0;
    while (!core.reachedTarget()) {
        core.tick(now);
        const std::uint64_t next = core.nextEventCycle(now);
        now = std::max(now + 1, next == UINT64_MAX ? now + 1 : next);
    }
    return core.stats();
}

/**
 * A core with a 2-entry DL1 MSHR file and a small ROB/RS/LDQ/STQ:
 * loads that miss DL1 while every MSHR is busy, and dispatch held
 * by a full structure, are common on it.
 */
inline CoreConfig
smallCore()
{
    CoreConfig c;
    c.dl1Mshrs = 2;
    c.robSize = 32;
    c.rsSize = 8;
    c.ldqSize = 4;
    c.stqSize = 4;
    return c;
}

/**
 * DetailedCore's ungated cycle: tick() without the skip of cycles
 * before the core's next work cycle, so a test can check that every
 * skipped cycle was one on which the core did nothing.
 */
struct DetailedCoreAccess
{
    static void
    work(DetailedCore &core, std::uint64_t now)
    {
        core.work(now);
    }
};

} // namespace wsel::test

#endif // WSEL_TESTS_TEST_UTIL_HH
