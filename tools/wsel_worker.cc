/**
 * @file
 * wsel_worker: one campaign-service worker process
 * (docs/ROBUSTNESS.md, "Distributed campaigns").
 *
 *   wsel_worker --socket PATH [--cache-dir DIR] [--jobs N]
 *       connect to the coordinator at PATH and lease shards until
 *       told to shut down (exit 0) or the coordinator disappears
 *       (exit 1); each leased shard's rows run on N threads
 *       (default 0: $WSEL_JOBS, else every hardware thread), and
 *       the shard is committed whole
 *
 *   wsel_worker --mkdir-race DIR
 *       test helper: create the directory tree DIR through
 *       persist::ensureDirTree and exit 0/1 — lets the two-process
 *       directory-creation race test exercise real concurrent
 *       processes without fork()ing inside a (tsan-instrumented)
 *       threaded test binary
 *
 * Fault injection for the crash-recovery tests is armed from the
 * environment (WSEL_KILL_POINT / WSEL_KILL_SHARD, see
 * src/serve/worker.hh): the armed point raises SIGKILL on this
 * process, which is exactly the failure the coordinator must
 * absorb.
 */

#include <cstdio>
#include <string>

#include "serve/worker.hh"
#include "stats/logging.hh"
#include "stats/persist.hh"

int
main(int argc, char **argv)
{
    using namespace wsel;

    std::string socket_path;
    std::string cache_dir;
    std::string mkdir_race;
    std::size_t jobs = 0;

    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        const char *val = i + 1 < argc ? argv[i + 1] : nullptr;
        if (key == "--socket" && val) {
            socket_path = val;
            ++i;
        } else if (key == "--cache-dir" && val) {
            cache_dir = val;
            ++i;
        } else if (key == "--jobs" && val) {
            jobs = static_cast<std::size_t>(
                std::strtoull(val, nullptr, 10));
            ++i;
        } else if (key == "--mkdir-race" && val) {
            mkdir_race = val;
            ++i;
        } else {
            std::fprintf(stderr,
                         "usage: wsel_worker --socket PATH "
                         "[--cache-dir DIR] [--jobs N]\n"
                         "       --jobs N  threads over a leased "
                         "shard's rows (0 = $WSEL_JOBS, else all "
                         "hardware threads; default 0)\n"
                         "       wsel_worker --mkdir-race DIR\n");
            return 2;
        }
    }

    try {
        if (!mkdir_race.empty()) {
            persist::ensureDirTree(mkdir_race);
            return 0;
        }
        if (socket_path.empty()) {
            std::fprintf(stderr, "wsel_worker: --socket PATH "
                                 "required\n");
            return 2;
        }
        serve::armKillPointsFromEnv();
        serve::WorkerOptions opts;
        opts.socketPath = socket_path;
        opts.cacheDir = cache_dir;
        opts.jobs = jobs;
        return serve::runWorker(opts);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "wsel_worker: %s\n", e.what());
        return 2;
    }
}
