/**
 * @file
 * wsel_perfbench: measure one workload of the wsel benchmark.
 *
 *   wsel_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  --run-dir DIR --state-dir DIR --worker-bin PATH
 *                  --reference FILE [--source-id ID]
 *
 * The last line of standard output is the result:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * with the end-to-end metrics, or with --trace 1 the per-layer ones.
 * Exit status 0 when the outputs checked correct, 1 when they did
 * not, 2 on a harness fault (no result line).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "host.hh"
#include "obs/metrics.hh"
#include "workloads.hh"

extern char **environ;

namespace
{

/**
 * Drop every WSEL_* variable so no knob from the caller's shell
 * (WSEL_JOBS, WSEL_BATCH_CELLS, WSEL_SIMD, WSEL_TRACE_MEM, ...) changes
 * the measured configuration.
 */
void
scrubEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e) {
        const std::string kv = *e;
        if (kv.rfind("WSEL_", 0) == 0)
            names.push_back(kv.substr(0, kv.find('=')));
    }
    for (const std::string &n : names)
        ::unsetenv(n.c_str());
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    scrubEnvironment();

    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) {
        if (std::strncmp(argv[i], "--", 2) != 0) {
            std::fprintf(stderr, "wsel_perfbench: bad argument %s\n",
                         argv[i]);
            return 2;
        }
        args[argv[i] + 2] = argv[i + 1];
    }
    for (const char *need : {"workload", "seed", "seconds", "trace",
                             "run-dir", "state-dir", "worker-bin",
                             "reference"}) {
        if (!args.count(need)) {
            std::fprintf(stderr, "wsel_perfbench: --%s is required\n",
                         need);
            return 2;
        }
    }

    RunConfig cfg;
    cfg.workload = args["workload"];
    cfg.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
    cfg.seconds = std::strtod(args["seconds"].c_str(), nullptr);
    cfg.trace = args["trace"] == "1";
    cfg.runDir = args["run-dir"];
    cfg.stateDir = args["state-dir"];
    cfg.workerBin = args["worker-bin"];
    cfg.referenceFile = args["reference"];
    cfg.sourceId = args.count("source-id") ? args["source-id"] : "";
    const unsigned nproc =
        std::max(1u, std::thread::hardware_concurrency());
    cfg.jobs = std::min(nproc, 4u);

    wsel::obs::enableMetrics();
    const HostInfo host = probeHost();
    std::printf("perfbench: host %s source %s jobs %zu\n",
                host.toJson().c_str(), cfg.sourceId.c_str(), cfg.jobs);
    std::fflush(stdout);

    RunResult r;
    try {
        r = runWorkload(cfg);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "wsel_perfbench: %s\n", e.what());
        return 2;
    }

    for (const Metric &m : r.metrics)
        std::printf("perfbench: %-32s %14.6g %s\n", m.name.c_str(),
                    m.value, m.unit.c_str());
    std::printf("perfbench: %s cells attempted %llu, failed %llu, "
                "output check %s\n",
                cfg.workload.c_str(),
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                r.correct ? "passed" : "FAILED");
    for (const std::string &n : r.notes)
        std::printf("perfbench: note: %s\n", n.c_str());

    std::string line = "{\"correct\": ";
    line += r.correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(r.attempted);
    line += ", \"failed\": " + std::to_string(r.failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                jsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    return r.correct ? 0 : 1;
}
