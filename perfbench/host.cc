#include "host.hh"

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include <linux/perf_event.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include "cache/tagscan.hh"

namespace perfbench
{

namespace
{

int
openCounter(std::uint32_t type, std::uint64_t config)
{
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof attr);
    attr.size = sizeof attr;
    attr.type = type;
    attr.config = config;
    attr.exclude_kernel = type == PERF_TYPE_HARDWARE ? 1 : 0;
    attr.exclude_hv = 1;
    return static_cast<int>(
        ::syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0));
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

} // namespace

std::string
HostInfo::toJson() const
{
    std::ostringstream os;
    os << "{\"nproc\": " << nproc
       << ", \"cpu_model\": " << jsonString(cpuModel)
       << ", \"compiler\": " << jsonString(compiler)
       << ", \"batch.simd_path\": " << jsonString(simdPath)
       << ", \"perf_task_clock\": " << (taskClock ? "true" : "false")
       << ", \"perf_hw_instructions\": "
       << (hwCounters ? "true" : "false");
    if (!hwCounters)
        os << ", \"perf_hw_error\": " << jsonString(hwCountersError);
    os << "}";
    return os.str();
}

HostInfo
probeHost()
{
    HostInfo h;
    h.nproc = std::thread::hardware_concurrency();
    std::ifstream cpu("/proc/cpuinfo");
    for (std::string line; std::getline(cpu, line);) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                h.cpuModel = line.substr(colon + 2);
            break;
        }
    }
    h.compiler = "gcc " __VERSION__;
    h.simdPath = wsel::tagscan::toString(wsel::tagscan::activePath());

    const int tc =
        openCounter(PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK);
    h.taskClock = tc >= 0;
    if (tc >= 0)
        ::close(tc);
    const int hw =
        openCounter(PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS);
    h.hwCounters = hw >= 0;
    if (hw >= 0)
        ::close(hw);
    else
        h.hwCountersError = std::strerror(errno);
    return h;
}

double
processCpuSeconds()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

double
peakRssMib()
{
    std::ifstream st("/proc/self/status");
    for (std::string line; std::getline(st, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
pidCpuSeconds(pid_t pid)
{
    std::ifstream st("/proc/" + std::to_string(pid) + "/stat");
    std::string all;
    if (!std::getline(st, all))
        return -1.0;
    // Fields after the parenthesised command name; utime and stime
    // are fields 14 and 15 of the whole line.
    const auto close = all.rfind(')');
    if (close == std::string::npos)
        return -1.0;
    std::istringstream rest(all.substr(close + 2));
    std::string field;
    unsigned long long utime = 0, stime = 0;
    for (int i = 3; i <= 15 && rest >> field; ++i) {
        if (i == 14)
            utime = std::strtoull(field.c_str(), nullptr, 10);
        if (i == 15)
            stime = std::strtoull(field.c_str(), nullptr, 10);
    }
    return static_cast<double>(utime + stime) /
           static_cast<double>(::sysconf(_SC_CLK_TCK));
}

} // namespace perfbench
