/**
 * @file
 * Child-process helpers for the distributed campaign service:
 * spawning `wsel_worker` processes and reaping them.
 *
 * Spawning goes through posix_spawn, not fork+exec: the daemon and
 * the in-process campaign runner both live in (potentially)
 * threaded parents, where a raw fork may deadlock on locks held by
 * other threads between fork and exec — posix_spawn is
 * async-signal-safe by specification and keeps tsan happy.
 *
 * Worker-binary discovery order (findWorkerBinary):
 *   1. $WSEL_WORKER_BIN (tests and odd layouts),
 *   2. `wsel_worker` next to the calling executable
 *      (/proc/self/exe), the build-tree layout for tools,
 *   3. `../tools/wsel_worker` relative to it, the layout seen from
 *      test binaries in build/tests/.
 */

#ifndef WSEL_SERVE_SPAWN_HH
#define WSEL_SERVE_SPAWN_HH

#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include <sys/types.h>

namespace wsel::serve
{

/**
 * Spawn @p argv (argv[0] is the binary path) with the parent's
 * environment plus @p extra_env ("KEY=VALUE" entries, overriding
 * inherited keys of the same name).  WSEL_FATAL when the spawn
 * itself fails; a child that starts and then dies is reported
 * through waitProcess/pollProcess.
 */
pid_t spawnProcess(const std::vector<std::string> &argv,
                   const std::vector<std::string> &extra_env = {});

/**
 * Non-blocking reap: the raw waitpid status when @p pid has
 * exited, nullopt while it is still running.
 */
std::optional<int> pollProcess(pid_t pid);

/**
 * Blocking reap with no deadline; returns the raw waitpid status.
 * Only for a child known to be exiting (e.g. one just SIGKILLed):
 * anything else should go through reapProcess.
 */
int waitProcess(pid_t pid);

/** What reapProcess found. */
struct Reaped
{
    int status = 0;      ///< raw waitpid status
    bool killed = false; ///< the deadline expired: we sent SIGKILL
};

/**
 * Reap @p pid within @p deadline: poll until it exits, and on expiry
 * SIGKILL it and reap that.  A wedged child costs at most the
 * deadline, never a hang.
 */
Reaped reapProcess(pid_t pid, std::chrono::milliseconds deadline);

/** True when the raw status is a clean exit(0). */
bool exitedCleanly(int raw_status);

/** "exit 3" / "signal 9 (Killed)" for diagnostics. */
std::string describeExit(int raw_status);

/** Directory containing the current executable ("" if unknown). */
std::string selfExeDir();

/**
 * Locate the wsel_worker binary (see file comment); WSEL_FATAL
 * when none of the candidates exists.
 */
std::string findWorkerBinary();

} // namespace wsel::serve

#endif // WSEL_SERVE_SPAWN_HH
