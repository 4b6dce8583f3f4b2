/**
 * @file
 * The campaign coordinator: a single-threaded poll() loop that
 * owns the lease table, admits campaigns from clients, hands
 * shard leases to worker processes, and commits the campaign
 * manifest once every shard is in the result store.
 *
 * Failure handling (the full matrix is in docs/ROBUSTNESS.md,
 * "Distributed campaigns"):
 *
 *  - worker SIGKILL / crash: its connection EOFs, its leases fail
 *    back to Pending with backoff; the shard is re-leased
 *    elsewhere.  A worker that died *after* committing the shard
 *    file leaves a complete shard the next lease holder detects
 *    and reports as a dedup.
 *  - wedged worker: no heartbeat, the lease deadline passes,
 *    expire() reclaims it (counts as a death).
 *  - poison shard: quarantineAfter deaths on the same shard
 *    quarantine it; the campaign completes as Failed instead of
 *    killing workers forever.
 *  - coordinator kill: nothing in flight is lost — the store holds
 *    every committed shard, and a restarted coordinator's
 *    admission scan marks them done before leasing the rest.
 *  - coordinator stall (synchronous model build at admission): the
 *    loop measures its own gap and extends every outstanding
 *    deadline by it, so workers are not expired for the
 *    coordinator's pause.
 *
 * A lease request that finds nothing to grant is parked, not
 * refused: the coordinator answers it with a lease as soon as a
 * campaign activates or a lease is requeued, and with NoWork only
 * after it has waited kParkMax, so a fleet is never idle at a
 * campaign boundary for longer than admission takes.
 *
 * Admission control is a bounded queue: at most maxQueued
 * campaigns queued or running; beyond that Submit is rejected
 * immediately (`serve.campaigns_rejected`).  SIGTERM (via
 * requestStop(), self-pipe) starts a graceful drain: no new
 * leases, outstanding ones finish, workers get Shutdown, then
 * run() returns.
 */

#ifndef WSEL_SERVE_COORDINATOR_HH
#define WSEL_SERVE_COORDINATOR_HH

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "serve/context.hh"
#include "serve/lease.hh"
#include "serve/protocol.hh"
#include "serve/store.hh"

namespace wsel::serve
{

struct CoordinatorOptions
{
    std::string socketPath;

    /** Content-addressed result store root. */
    std::string storeRoot;

    /** Model cache for context building ("" = memory only). */
    std::string cacheDir;

    /** Max campaigns queued or running (admission bound). */
    std::size_t maxQueued = 8;

    /** Threads for model building at admission. */
    std::size_t jobs = 1;

    LeaseOptions lease;

    /**
     * Exit once every submitted campaign has finished and no
     * client connection remains — the `campaign --distributed`
     * mode, where the coordinator is an ephemeral child of the
     * CLI rather than a daemon.
     */
    bool exitWhenIdle = false;
};

class Coordinator
{
  public:
    /**
     * Longest a parked lease request waits before NoWork; far
     * inside the worker's 60 s reply deadline.
     */
    static constexpr std::chrono::milliseconds kParkMax{1000};

    explicit Coordinator(const CoordinatorOptions &opts);
    ~Coordinator();

    Coordinator(const Coordinator &) = delete;
    Coordinator &operator=(const Coordinator &) = delete;

    /**
     * Serve until drained (requestStop) or idle (exitWhenIdle).
     * Returns 0 on a clean drain.
     */
    int run();

    /**
     * Begin a graceful drain.  Async-signal-safe (writes one byte
     * to a self-pipe); callable from a SIGTERM handler.
     */
    void requestStop();

    const std::string &socketPath() const;

  private:
    struct Campaign
    {
        CampaignSpec spec;
        CampaignState state = CampaignState::Queued;
        std::string dir;
        std::string message;
        std::unique_ptr<CampaignContext> ctx;
        std::unique_ptr<LeaseTable> table;
        std::uint64_t deduped = 0; ///< shards satisfied by store

        /**
         * Mixed-fidelity escalation (docs/FIDELITY.md): a BADCO
         * campaign with spec.escalateBudget > 0 enters phase 1
         * after its sweep commits — spec/ctx/table/dir are
         * replaced by a detailed-fidelity campaign over just the
         * shards holding suspect rows, and the campaign stays
         * Running until those shards commit too.
         */
        std::uint32_t phase = 0;
        std::string badcoDir;          ///< phase-0 dir
        std::uint64_t escalatedRows = 0;
        std::uint64_t escalatedShards = 0;
    };

    struct Conn
    {
        Fd fd;
        FrameBuffer fb;
        enum class Kind { Unknown, Worker, Client } kind =
            Kind::Unknown;
        std::uint64_t workerPid = 0;
        std::vector<std::uint64_t> leases; ///< held by this worker

        /** When this worker's unanswered RequestLease arrived. */
        std::optional<LeaseClock::time_point> parkedSince;
    };

    struct LeaseInflight
    {
        std::uint64_t campaignId = 0;
        LeaseClock::time_point granted{};
    };

    void acceptConnection();
    bool handleFrame(Conn &conn, const Frame &f);
    void dropConnection(Conn &conn);
    void activateNext();
    void finalize(std::uint64_t id, Campaign &c);
    bool beginEscalation(std::uint64_t id, Campaign &c);
    void grantOrPark(Conn &conn);
    bool tryGrant(Conn &conn);
    void serviceParked(LeaseClock::time_point now);
    void noteLeaseClosed(std::uint64_t leaseId, Conn *conn);
    StatusMsg statusOf(std::uint64_t id) const;
    Campaign *active();

    CoordinatorOptions opts_;
    ResultStore store_;
    Fd listenFd_;
    int wakePipe_[2] = {-1, -1};
    std::vector<std::unique_ptr<Conn>> conns_;
    std::map<std::uint64_t, Campaign> campaigns_;
    std::deque<std::uint64_t> queue_; ///< ids awaiting activation
    std::uint64_t activeId_ = 0;      ///< 0 = none
    std::uint64_t nextCampaignId_ = 1;
    std::map<std::uint64_t, LeaseInflight> inflight_;
    bool draining_ = false;
    bool sawClient_ = false; ///< exitWhenIdle arms after first one
};

} // namespace wsel::serve

#endif // WSEL_SERVE_COORDINATOR_HH
