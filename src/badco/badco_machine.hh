/**
 * @file
 * The BADCO machine: an abstract core that fetches and executes the
 * nodes of a BadcoModel against a (shared) uncore. Much faster than
 * the detailed core because it processes one node — not one µop, not
 * one cycle — per step.
 *
 * A BadcoMachine owns the state of one lane of the BADCO step kernel
 * (badco/badco_step.hh), which defines the timing semantics; the
 * batched cell engine (sim/batch.hh) steps many lanes through the
 * same kernel.
 */

#ifndef WSEL_BADCO_BADCO_MACHINE_HH
#define WSEL_BADCO_BADCO_MACHINE_HH

#include <cstdint>
#include <vector>

#include "badco/badco_model.hh"
#include "badco/badco_step.hh"
#include "mem/uncore.hh"

namespace wsel
{

/** Counters exposed by a BadcoMachine. */
struct BadcoMachineStats
{
    std::uint64_t uops = 0;          ///< µops of progress so far
    std::uint64_t requests = 0;      ///< uncore requests replayed
    std::uint64_t cyclesToTarget = 0;    ///< clock when target hit
};

/**
 * Trace-driven behavioural core executing one BadcoModel.
 */
class BadcoMachine
{
  public:
    /**
     * @param model Behavioural model to execute (caller-owned;
     *        must be finalize()d — the machine walks the SoA view).
     * @param uncore Shared uncore (caller-owned).
     * @param core_id Core index at the uncore.
     * @param target_uops µop count after which IPC freezes.
     * @param window Effective out-of-order window in µops: how far
     *        the machine may run past an incomplete blocking load.
     *        0 (the default) uses the model's per-benchmark
     *        calibrated window (second-trace calibration); nonzero
     *        overrides it (for ablations).
     * @param max_outstanding Outstanding-load cap (MLP limit).
     */
    BadcoMachine(const BadcoModel &model, UncoreIf &uncore,
                 std::uint32_t core_id, std::uint64_t target_uops,
                 std::uint32_t window = 0,
                 std::uint32_t max_outstanding = 16);

    /** env_ points into this machine's own slabs. */
    BadcoMachine(const BadcoMachine &) = delete;
    BadcoMachine &operator=(const BadcoMachine &) = delete;

    /**
     * Execute nodes until the local clock reaches @p until (the end
     * of the current simulation quantum).
     */
    void run(std::uint64_t until);

    /**
     * Stop making progress once the target is reached instead of
     * restarting the thread (an alternative to the paper's §IV-A
     * restart protocol, for protocol ablations). Must be set before
     * running.
     */
    void stopAtTarget(bool stop) { stopAtTarget_ = stop; }

    /** True once target_uops µops of progress were made. */
    bool reachedTarget() const { return lane_.cyclesToTarget != 0; }

    /** IPC over the first target_uops µops. */
    double ipc() const;

    /** Local clock in core cycles. */
    std::uint64_t localClock() const { return lane_.clock; }

    /** requests counts every node issued: each restart walked
     *  all of the model's nodes. */
    BadcoMachineStats stats() const
    {
        return {lane_.uops,
                lane_.restarts * env_.model->nodeWeight.size() +
                    lane_.node,
                lane_.cyclesToTarget};
    }
    std::uint32_t coreId() const { return env_.core; }

  private:
    UncoreIf &uncore_;
    bool stopAtTarget_ = false;
    std::vector<std::uint64_t> outComp_;
    std::vector<std::uint64_t> outMark_;
    std::vector<std::uint64_t> loadComp_;
    badco::LaneEnv env_;
    badco::LaneState lane_;
};

} // namespace wsel

#endif // WSEL_BADCO_BADCO_MACHINE_HH
