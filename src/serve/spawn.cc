#include "serve/spawn.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "stats/logging.hh"

extern char **environ;

namespace wsel::serve
{

namespace fs = std::filesystem;

pid_t
spawnProcess(const std::vector<std::string> &argv,
             const std::vector<std::string> &extra_env)
{
    if (argv.empty())
        WSEL_FATAL("spawnProcess needs at least argv[0]");

    std::vector<char *> cargv;
    cargv.reserve(argv.size() + 1);
    for (const std::string &a : argv)
        cargv.push_back(const_cast<char *>(a.c_str()));
    cargv.push_back(nullptr);

    // Inherited environment with extra_env overriding same-name
    // keys; the strings must outlive posix_spawn, so keep the
    // overridden copies alive in `own`.
    std::vector<char *> cenv;
    std::vector<std::string> own(extra_env);
    for (char **e = environ; e && *e; ++e) {
        const std::string_view entry(*e);
        const std::size_t eq = entry.find('=');
        const std::string_view key = entry.substr(0, eq);
        bool overridden = false;
        for (const std::string &x : extra_env)
            if (x.size() > key.size() && x[key.size()] == '=' &&
                x.compare(0, key.size(), key) == 0) {
                overridden = true;
                break;
            }
        if (!overridden)
            cenv.push_back(*e);
    }
    for (std::string &x : own)
        cenv.push_back(x.data());
    cenv.push_back(nullptr);

    pid_t pid = -1;
    const int rc =
        ::posix_spawn(&pid, argv[0].c_str(), nullptr, nullptr,
                      cargv.data(), cenv.data());
    if (rc != 0)
        WSEL_FATAL("posix_spawn(" << argv[0]
                   << "): " << std::strerror(rc));
    return pid;
}

std::optional<int>
pollProcess(pid_t pid)
{
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid)
        return status;
    if (r < 0 && errno != EINTR && errno != ECHILD)
        WSEL_FATAL("waitpid(" << pid
                   << "): " << std::strerror(errno));
    return std::nullopt;
}

int
waitProcess(pid_t pid)
{
    for (;;) {
        int status = 0;
        const pid_t r = ::waitpid(pid, &status, 0);
        if (r == pid)
            return status;
        if (r < 0 && errno == EINTR)
            continue;
        WSEL_FATAL("waitpid(" << pid
                   << "): " << std::strerror(errno));
    }
}

Reaped
reapProcess(pid_t pid, std::chrono::milliseconds deadline)
{
    const auto until = std::chrono::steady_clock::now() + deadline;
    while (std::chrono::steady_clock::now() < until) {
        if (const std::optional<int> st = pollProcess(pid))
            return {*st, false};
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ::kill(pid, SIGKILL);
    return {waitProcess(pid), true};
}

bool
exitedCleanly(int raw_status)
{
    return WIFEXITED(raw_status) && WEXITSTATUS(raw_status) == 0;
}

std::string
describeExit(int raw_status)
{
    if (WIFEXITED(raw_status))
        return "exit " + std::to_string(WEXITSTATUS(raw_status));
    if (WIFSIGNALED(raw_status)) {
        const int sig = WTERMSIG(raw_status);
        const char *name = strsignal(sig);
        return "signal " + std::to_string(sig) +
               (name ? std::string(" (") + name + ")" : "");
    }
    return "status " + std::to_string(raw_status);
}

std::string
selfExeDir()
{
    std::error_code ec;
    const fs::path exe = fs::read_symlink("/proc/self/exe", ec);
    if (ec)
        return "";
    return exe.parent_path().string();
}

std::string
findWorkerBinary()
{
    if (const char *env = std::getenv("WSEL_WORKER_BIN");
        env && *env)
        return env;
    const std::string dir = selfExeDir();
    if (!dir.empty()) {
        for (const std::string &cand :
             {dir + "/wsel_worker",
              dir + "/../tools/wsel_worker"}) {
            std::error_code ec;
            if (fs::exists(cand, ec))
                return cand;
        }
    }
    WSEL_FATAL("cannot locate the wsel_worker binary (looked next "
               "to " << (dir.empty() ? "<unknown exe>" : dir)
               << " and in ../tools); set WSEL_WORKER_BIN");
}

} // namespace wsel::serve
