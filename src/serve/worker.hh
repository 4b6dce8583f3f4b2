/**
 * @file
 * The wsel_worker process body: connect to the coordinator's Unix
 * socket, lease shards, simulate each one's rows on the worker's
 * threads (simulateShardRows), commit the shard to the
 * content-addressed result store, repeat until told to shut down.
 *
 * The worker is crash-fodder by design: the coordinator assumes
 * any worker can vanish (SIGKILL, OOM, disk-full abort) at any
 * instruction, and the shard commit protocol (store.hh) makes that
 * safe.  For the fault-injection tests the binary arms the persist
 * fault hook from environment variables so a *deterministic* cell
 * or commit boundary raises SIGKILL on the worker itself:
 *
 *     WSEL_KILL_POINT="population.cell:37"    die at the 37th cell
 *     WSEL_KILL_POINT="serve.shard-start:1"   die picking up work
 *     WSEL_KILL_POINT="serve.shard-committed:1"  die just after
 *         the shard file is durable but before Done is sent (the
 *         zombie-completion window)
 *     WSEL_KILL_SHARD=3   only count hits while holding shard 3
 *
 * A heartbeat thread renews the lease every ttl/4 while a shard
 * simulates and commits, so a cell slower than the TTL cannot
 * expire its own lease; a stopped or killed worker stops
 * heartbeating and loses the lease.
 */

#ifndef WSEL_SERVE_WORKER_HH
#define WSEL_SERVE_WORKER_HH

#include <cstdint>
#include <string>

namespace wsel::serve
{

struct WorkerOptions
{
    std::string socketPath;

    /** Model cache directory ("" = in-memory only). */
    std::string cacheDir;

    /**
     * Threads for model building and for the rows of a leased
     * shard; 0 = $WSEL_JOBS else hardware.
     */
    std::size_t jobs = 0;
};

/**
 * Run the lease loop until the coordinator says Shutdown (returns
 * 0), the coordinator disappears (returns 1), or a spec/config
 * error makes this worker useless (FatalError propagates).
 */
int runWorker(const WorkerOptions &opts);

/**
 * Install a persist fault hook from WSEL_KILL_POINT /
 * WSEL_KILL_SHARD (see file comment); no-op when unset.  Called by
 * the wsel_worker binary before runWorker.
 */
void armKillPointsFromEnv();

} // namespace wsel::serve

#endif // WSEL_SERVE_WORKER_HH
