/**
 * @file
 * Wire protocol of the distributed campaign service
 * (docs/ROBUSTNESS.md, "Distributed campaigns"): length-prefixed
 * binary frames over a Unix-domain stream socket, shared by worker
 * processes (lease traffic) and clients (campaign submission,
 * status, metrics).
 *
 * Frame layout (all integers little-endian):
 *
 *     u32 payload length (type byte + body, <= kMaxFrameBytes)
 *     u8  MsgType
 *     ... body (per-message encoding below)
 *
 * The encoding deliberately mirrors the campaign_v3 style
 * (persist_v3.cc): u32/u64/f64/length-prefixed strings, every read
 * bounds-checked, malformed input raising ProtocolError — a peer
 * can be killed mid-write at any byte, so a receiver must treat
 * every frame as untrusted.
 *
 * Campaign identity travels as a CampaignSpec (suite benchmark
 * *names* resolved against the built-in suite by each process,
 * policies, cores, slice length, seed, rank range, shard
 * geometry); the coordinator also sends its computed
 * campaignFingerprint so a worker whose resolved configuration
 * drifts from the coordinator's refuses the lease instead of
 * silently writing wrong bytes.
 */

#ifndef WSEL_SERVE_PROTOCOL_HH
#define WSEL_SERVE_PROTOCOL_HH

#include <chrono>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace wsel::serve
{

/** Thrown on malformed, truncated or oversized frames. */
class ProtocolError : public std::runtime_error
{
  public:
    explicit ProtocolError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/** Upper bound on one frame's payload (type byte + body). */
inline constexpr std::uint32_t kMaxFrameBytes = 4u << 20;

enum class MsgType : std::uint8_t
{
    // worker -> coordinator
    HelloWorker = 1, ///< {u64 pid}
    RequestLease,    ///< {}
    Heartbeat,       ///< {u64 leaseId}
    Done,            ///< {u64 leaseId, u64 campaignId, u64 shard,
                     ///<  u8 dedup}
    Failed,          ///< {u64 leaseId, str message}

    // coordinator -> worker
    Lease = 16, ///< LeaseMsg
    NoWork,     ///< {u8 drain}: nothing grantable right now
    Shutdown,   ///< {}: drain complete, exit

    // client <-> coordinator
    HelloClient = 32, ///< {}
    Submit,           ///< CampaignSpec
    SubmitReply,      ///< {u8 accepted, u64 campaignId, str message}
    StatusReq,        ///< {u64 campaignId}
    StatusReply,      ///< StatusMsg
    MetricsReq,       ///< {}
    MetricsReply,     ///< {str json}
    StopReq,          ///< {u64 campaignId}: halt, keep done shards
    StopReply,        ///< {u8 ok, str message}
};

/**
 * Everything that identifies a population campaign's numbers and
 * shard geometry.  Benchmarks are suite names (resolved via
 * findProfile); lastRank 0 means "the full population".
 */
struct CampaignSpec
{
    std::uint32_t cores = 0;
    std::uint64_t targetUops = 0;
    std::uint64_t seed = 1;
    std::uint64_t firstRank = 0;
    std::uint64_t lastRank = 0; ///< 0 = population size
    std::uint64_t shardRows = 0;
    std::vector<std::string> policies;
    std::vector<std::string> benchmarks;

    /**
     * 0 = BADCO, 1 = detailed simulator.  Folded into the store's
     * geometry hash so the two fidelities of the same campaign
     * shape never collide on a result directory.
     */
    std::uint32_t fidelity = 0;

    /**
     * Escalation knobs (docs/FIDELITY.md): a BADCO campaign with
     * escalateBudget > 0 asks the coordinator to re-lease, at
     * detailed fidelity, the shards whose rows' d(w) error
     * interval (policies[0] as X vs policies[1] as Y, under
     * escalateMetric) straddles zero — bounded by this fraction of
     * the population.  Ignored when fidelity = 1.
     */
    double escalateBudget = 0.0;
    double escalateQuantile = 0.9;
    std::string escalateMetric = "IPCT";

    bool operator==(const CampaignSpec &) const = default;
};

/** One lease grant: the work unit plus how to report back. */
struct LeaseMsg
{
    std::uint64_t leaseId = 0;
    std::uint64_t campaignId = 0;
    std::uint64_t shard = 0;
    std::uint64_t ttlMs = 0;       ///< heartbeat before this expires
    std::uint64_t fingerprint = 0; ///< coordinator's, cross-checked
    std::string dir;               ///< result-store campaign dir
    CampaignSpec spec;
};

enum class CampaignState : std::uint8_t
{
    Queued = 0,
    Running,
    Done,
    Failed,
    Stopped, ///< halted by a client Stop; done shards are kept
    Unknown,
};

const char *toString(CampaignState s);

/** Status of one campaign (StatusReply body). */
struct StatusMsg
{
    CampaignState state = CampaignState::Unknown;
    std::uint64_t shardsTotal = 0;
    std::uint64_t shardsDone = 0;
    std::uint64_t shardsDeduped = 0; ///< served from the store
    std::uint64_t shardsQuarantined = 0;
    std::uint64_t leasesActive = 0;
    std::string dir;     ///< result-store campaign dir
    std::string message; ///< failure reason, rejection reason, ...
};

// -------------------------------------------------------------------
// Encoding
// -------------------------------------------------------------------

/** Append-only little-endian encoder (mirrors persist_v3). */
class WireWriter
{
  public:
    void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void str(std::string_view s);

    const std::string &bytes() const { return buf_; }
    std::string take() { return std::move(buf_); }

  private:
    std::string buf_;
};

/** Bounds-checked reader; throws ProtocolError on truncation. */
class WireReader
{
  public:
    explicit WireReader(std::string_view data) : data_(data) {}

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    std::string str();

    std::size_t remaining() const { return data_.size() - pos_; }

    /** Throws unless the whole payload was consumed. */
    void expectEnd() const;

  private:
    std::string_view data_;
    std::size_t pos_ = 0;
};

/** A parsed frame: type plus its body (after the type byte). */
struct Frame
{
    MsgType type;
    std::string body;
};

/** Render one frame (length prefix + type + body). */
std::string encodeFrame(MsgType type, std::string_view body);

/**
 * Incremental frame parser: feed() raw socket bytes, next() pops
 * complete frames in order.  Throws ProtocolError on an oversized
 * length prefix (a desynchronized or malicious peer).
 */
class FrameBuffer
{
  public:
    void feed(const char *data, std::size_t n);
    std::optional<Frame> next();

  private:
    std::string buf_;
};

void encodeSpec(WireWriter &w, const CampaignSpec &spec);
CampaignSpec decodeSpec(WireReader &r);

std::string encodeLease(const LeaseMsg &m);
LeaseMsg decodeLease(std::string_view body);

std::string encodeStatus(const StatusMsg &m);
StatusMsg decodeStatus(std::string_view body);

// -------------------------------------------------------------------
// Sockets
// -------------------------------------------------------------------

/**
 * RAII fd.  Movable, closes on destruction; -1 means empty.
 */
class Fd
{
  public:
    Fd() = default;
    explicit Fd(int fd) : fd_(fd) {}
    ~Fd() { reset(); }

    Fd(const Fd &) = delete;
    Fd &operator=(const Fd &) = delete;
    Fd(Fd &&o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
    Fd &operator=(Fd &&o) noexcept
    {
        if (this != &o) {
            reset();
            fd_ = o.fd_;
            o.fd_ = -1;
        }
        return *this;
    }

    int get() const { return fd_; }
    bool valid() const { return fd_ >= 0; }
    int release()
    {
        const int f = fd_;
        fd_ = -1;
        return f;
    }
    void reset();

  private:
    int fd_ = -1;
};

/**
 * Bind + listen on a Unix-domain stream socket at @p path (an
 * existing socket file is unlinked first — a daemon replacing a
 * stale socket from a crashed predecessor).  WSEL_FATAL on error
 * (path too long for sockaddr_un, permission, ...).
 */
Fd listenUnix(const std::string &path, int backlog = 64);

/**
 * Connect to the Unix-domain socket at @p path, retrying for up to
 * @p timeout_ms (workers often start before the coordinator has
 * bound).  Returns an invalid Fd on timeout.
 */
Fd connectUnix(const std::string &path, int timeout_ms = 5000);

/** Blocking send of a whole buffer; false on EPIPE/error. */
bool sendAll(int fd, std::string_view data);

/** Blocking send of one frame; false on EPIPE/error. */
bool sendFrame(int fd, MsgType type, std::string_view body);

/**
 * Blocking read of the next frame (nullopt on EOF / error /
 * @p timeout_ms elapsed without a complete frame).  @p fb carries
 * partial bytes between calls.
 */
std::optional<Frame> recvFrame(int fd, FrameBuffer &fb,
                               int timeout_ms = -1);

// -------------------------------------------------------------------
// Client
// -------------------------------------------------------------------

/**
 * Blocking client for the coordinator's campaign endpoints: used
 * by `wsel_cli serve submit/status/metrics` and tests.  Every call
 * throws ProtocolError on a malformed reply and FatalError when
 * the daemon is unreachable.
 */
class Client
{
  public:
    /** Connect and introduce ourselves; FATAL on timeout. */
    explicit Client(const std::string &socket_path,
                    int timeout_ms = 5000);

    /**
     * Submit a campaign.  On admission returns the (accepted)
     * status-pollable campaign id; on rejection (bounded queue
     * full, invalid spec) throws FatalError with the daemon's
     * reason.
     */
    std::uint64_t submit(const CampaignSpec &spec);

    /** Status of campaign @p id (state Unknown when never seen). */
    StatusMsg status(std::uint64_t id);

    /** The daemon's metrics snapshot as JSON. */
    std::string metricsJson();

    /**
     * Ask the daemon to halt campaign @p id: a queued campaign is
     * dropped immediately, a running one stops granting leases and
     * lets in-flight shards finish (their results are kept in the
     * store).  Returns the daemon's acknowledgement message;
     * throws FatalError when the id is unknown or already final.
     */
    std::string stop(std::uint64_t id);

    /**
     * Poll status every @p poll_ms until Done, Failed or Stopped;
     * returns the final status.  With a @p deadline, FatalError
     * once it elapses (tests, benches: a wedged campaign fails
     * fast); with std::nullopt, wait as long as the daemon answers
     * (the CLI: a long campaign making progress must not abort).
     */
    StatusMsg waitFinished(
        std::uint64_t id,
        std::optional<std::chrono::milliseconds> deadline,
        int poll_ms = 50);

  private:
    Frame roundTrip(MsgType type, std::string_view body,
                    MsgType expect);

    Fd fd_;
    FrameBuffer fb_;
};

} // namespace wsel::serve

#endif // WSEL_SERVE_PROTOCOL_HH
