/**
 * @file
 * Host facts recorded with every result (CPU, compiler, SIMD path,
 * perf_event availability) and the process probes the benchmark
 * measures with: peak RSS and CPU time.
 */

#ifndef PERFBENCH_HOST_HH
#define PERFBENCH_HOST_HH

#include <string>

#include <sys/types.h>

namespace perfbench
{

struct HostInfo
{
    unsigned nproc = 0;
    std::string cpuModel;
    std::string compiler;
    std::string simdPath; ///< batch.simd_path: the tag-scan kernel
    bool taskClock = false;   ///< perf software task-clock opens
    bool hwCounters = false;  ///< perf hardware instructions opens
    std::string hwCountersError; ///< strerror when it does not

    std::string toJson() const;
};

HostInfo probeHost();

/** user + system seconds of this process (all threads). */
double processCpuSeconds();

/** Peak resident set of this process, MiB (VmHWM). */
double peakRssMib();

/** user + system seconds of a live process @p pid (-1 if gone). */
double pidCpuSeconds(pid_t pid);

} // namespace perfbench

#endif // PERFBENCH_HOST_HH
