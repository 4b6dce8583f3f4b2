#include "badco/badco_machine.hh"

#include "stats/logging.hh"

namespace wsel
{

BadcoMachine::BadcoMachine(const BadcoModel &model, UncoreIf &uncore,
                           std::uint32_t core_id,
                           std::uint64_t target_uops,
                           std::uint32_t window,
                           std::uint32_t max_outstanding)
    : uncore_(uncore), outComp_(max_outstanding),
      outMark_(max_outstanding), loadComp_(model.loadCount),
      env_{&model, target_uops, window == 0 ? model.window : window,
           max_outstanding, core_id, outComp_.data(),
           outMark_.data(), loadComp_.data()}
{
    if (model.traceUops == 0 || model.intrinsicCycles == 0)
        WSEL_FATAL("empty BADCO model for " << model.benchmark);
    if (max_outstanding == 0 || env_.window == 0)
        WSEL_FATAL("degenerate BADCO machine limits");
    if (!model.finalized)
        WSEL_FATAL("BADCO model for " << model.benchmark
                   << " was not finalize()d");
}

double
BadcoMachine::ipc() const
{
    if (lane_.cyclesToTarget == 0)
        return 0.0;
    return static_cast<double>(env_.targetUops) /
           static_cast<double>(lane_.cyclesToTarget);
}

void
BadcoMachine::run(std::uint64_t until)
{
    if (stopAtTarget_)
        badco::runLane<true>(lane_, env_, uncore_, until);
    else
        badco::runLane<false>(lane_, env_, uncore_, until);
}

} // namespace wsel
