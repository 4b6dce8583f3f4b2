#include "serve/protocol.hh"

#include <bit>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "stats/logging.hh"

namespace wsel::serve
{

namespace
{

/** Sane upper bounds for decoded containers (untrusted peers). */
constexpr std::uint32_t kMaxStringBytes = 1u << 20;
constexpr std::uint32_t kMaxListEntries = 1u << 20;

std::uint32_t
checkedCount(WireReader &r, const char *what,
             std::uint32_t max = kMaxListEntries)
{
    const std::uint32_t n = r.u32();
    if (n > max)
        throw ProtocolError(std::string("implausible ") + what +
                            " count " + std::to_string(n));
    return n;
}

} // namespace

const char *
toString(CampaignState s)
{
    switch (s) {
    case CampaignState::Queued:
        return "queued";
    case CampaignState::Running:
        return "running";
    case CampaignState::Done:
        return "done";
    case CampaignState::Failed:
        return "failed";
    case CampaignState::Stopped:
        return "stopped";
    case CampaignState::Unknown:
        break;
    }
    return "unknown";
}

// -------------------------------------------------------------------
// WireWriter / WireReader
// -------------------------------------------------------------------

void
WireWriter::u32(std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
WireWriter::u64(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
WireWriter::str(std::string_view s)
{
    if (s.size() > kMaxStringBytes)
        throw ProtocolError("refusing to encode " +
                            std::to_string(s.size()) +
                            " byte string");
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s.data(), s.size());
}

std::uint8_t
WireReader::u8()
{
    if (remaining() < 1)
        throw ProtocolError("truncated frame (u8)");
    return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint32_t
WireReader::u32()
{
    if (remaining() < 4)
        throw ProtocolError("truncated frame (u32)");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(
                 static_cast<std::uint8_t>(data_[pos_ + i]))
             << (8 * i);
    pos_ += 4;
    return v;
}

std::uint64_t
WireReader::u64()
{
    if (remaining() < 8)
        throw ProtocolError("truncated frame (u64)");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<std::uint8_t>(data_[pos_ + i]))
             << (8 * i);
    pos_ += 8;
    return v;
}

std::string
WireReader::str()
{
    const std::uint32_t n = u32();
    if (n > kMaxStringBytes)
        throw ProtocolError("implausible string length " +
                            std::to_string(n));
    if (remaining() < n)
        throw ProtocolError("truncated frame (string)");
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
}

void
WireReader::expectEnd() const
{
    if (remaining() != 0)
        throw ProtocolError(std::to_string(remaining()) +
                            " trailing bytes in frame");
}

// -------------------------------------------------------------------
// Frames
// -------------------------------------------------------------------

std::string
encodeFrame(MsgType type, std::string_view body)
{
    const std::uint64_t payload = 1 + body.size();
    if (payload > kMaxFrameBytes)
        throw ProtocolError("frame payload too large: " +
                            std::to_string(payload));
    WireWriter w;
    w.u32(static_cast<std::uint32_t>(payload));
    w.u8(static_cast<std::uint8_t>(type));
    std::string out = w.take();
    out.append(body.data(), body.size());
    return out;
}

void
FrameBuffer::feed(const char *data, std::size_t n)
{
    buf_.append(data, n);
}

std::optional<Frame>
FrameBuffer::next()
{
    if (buf_.size() < 4)
        return std::nullopt;
    WireReader r(buf_);
    const std::uint32_t len = r.u32();
    if (len == 0 || len > kMaxFrameBytes)
        throw ProtocolError("bad frame length " +
                            std::to_string(len));
    if (buf_.size() < 4u + len)
        return std::nullopt;
    Frame f;
    f.type = static_cast<MsgType>(
        static_cast<std::uint8_t>(buf_[4]));
    f.body.assign(buf_, 5, len - 1);
    buf_.erase(0, 4u + len);
    return f;
}

// -------------------------------------------------------------------
// Message bodies
// -------------------------------------------------------------------

void
encodeSpec(WireWriter &w, const CampaignSpec &spec)
{
    w.u32(spec.cores);
    w.u64(spec.targetUops);
    w.u64(spec.seed);
    w.u64(spec.firstRank);
    w.u64(spec.lastRank);
    w.u64(spec.shardRows);
    w.u32(static_cast<std::uint32_t>(spec.policies.size()));
    for (const std::string &p : spec.policies)
        w.str(p);
    w.u32(static_cast<std::uint32_t>(spec.benchmarks.size()));
    for (const std::string &b : spec.benchmarks)
        w.str(b);
    w.u32(spec.fidelity);
    w.u64(std::bit_cast<std::uint64_t>(spec.escalateBudget));
    w.u64(std::bit_cast<std::uint64_t>(spec.escalateQuantile));
    w.str(spec.escalateMetric);
}

CampaignSpec
decodeSpec(WireReader &r)
{
    CampaignSpec s;
    s.cores = r.u32();
    s.targetUops = r.u64();
    s.seed = r.u64();
    s.firstRank = r.u64();
    s.lastRank = r.u64();
    s.shardRows = r.u64();
    const std::uint32_t np = checkedCount(r, "policy", 4096);
    s.policies.reserve(np);
    for (std::uint32_t i = 0; i < np; ++i)
        s.policies.push_back(r.str());
    const std::uint32_t nb = checkedCount(r, "benchmark");
    s.benchmarks.reserve(nb);
    for (std::uint32_t i = 0; i < nb; ++i)
        s.benchmarks.push_back(r.str());
    s.fidelity = r.u32();
    if (s.fidelity > 1)
        throw ProtocolError("campaign spec fidelity " +
                            std::to_string(s.fidelity) +
                            " out of range");
    s.escalateBudget = std::bit_cast<double>(r.u64());
    s.escalateQuantile = std::bit_cast<double>(r.u64());
    s.escalateMetric = r.str();
    return s;
}

std::string
encodeLease(const LeaseMsg &m)
{
    WireWriter w;
    w.u64(m.leaseId);
    w.u64(m.campaignId);
    w.u64(m.shard);
    w.u64(m.ttlMs);
    w.u64(m.fingerprint);
    w.str(m.dir);
    encodeSpec(w, m.spec);
    return w.take();
}

LeaseMsg
decodeLease(std::string_view body)
{
    WireReader r(body);
    LeaseMsg m;
    m.leaseId = r.u64();
    m.campaignId = r.u64();
    m.shard = r.u64();
    m.ttlMs = r.u64();
    m.fingerprint = r.u64();
    m.dir = r.str();
    m.spec = decodeSpec(r);
    r.expectEnd();
    return m;
}

std::string
encodeStatus(const StatusMsg &m)
{
    WireWriter w;
    w.u8(static_cast<std::uint8_t>(m.state));
    w.u64(m.shardsTotal);
    w.u64(m.shardsDone);
    w.u64(m.shardsDeduped);
    w.u64(m.shardsQuarantined);
    w.u64(m.leasesActive);
    w.str(m.dir);
    w.str(m.message);
    return w.take();
}

StatusMsg
decodeStatus(std::string_view body)
{
    WireReader r(body);
    StatusMsg m;
    const std::uint8_t st = r.u8();
    m.state = st > static_cast<std::uint8_t>(CampaignState::Unknown)
                  ? CampaignState::Unknown
                  : static_cast<CampaignState>(st);
    m.shardsTotal = r.u64();
    m.shardsDone = r.u64();
    m.shardsDeduped = r.u64();
    m.shardsQuarantined = r.u64();
    m.leasesActive = r.u64();
    m.dir = r.str();
    m.message = r.str();
    r.expectEnd();
    return m;
}

// -------------------------------------------------------------------
// Sockets
// -------------------------------------------------------------------

void
Fd::reset()
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = -1;
}

Fd
listenUnix(const std::string &path, int backlog)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        WSEL_FATAL("socket path too long ("
                   << path.size() << " bytes, max "
                   << sizeof(addr.sun_path) - 1 << "): " << path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    Fd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!fd.valid())
        WSEL_FATAL("socket(AF_UNIX): " << std::strerror(errno));
    // A stale socket file from a crashed predecessor would make
    // bind fail with EADDRINUSE even though nobody is listening.
    (void)::unlink(path.c_str());
    if (::bind(fd.get(), reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        WSEL_FATAL("bind(" << path
                   << "): " << std::strerror(errno));
    if (::listen(fd.get(), backlog) != 0)
        WSEL_FATAL("listen(" << path
                   << "): " << std::strerror(errno));
    return fd;
}

Fd
connectUnix(const std::string &path, int timeout_ms)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        WSEL_FATAL("socket path too long ("
                   << path.size() << " bytes, max "
                   << sizeof(addr.sun_path) - 1 << "): " << path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    for (;;) {
        Fd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
        if (!fd.valid())
            WSEL_FATAL("socket(AF_UNIX): "
                       << std::strerror(errno));
        if (::connect(fd.get(),
                      reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0)
            return fd;
        if (std::chrono::steady_clock::now() >= deadline)
            return Fd();
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
}

bool
sendAll(int fd, std::string_view data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        // MSG_NOSIGNAL: a dead peer must surface as EPIPE, not as
        // SIGPIPE killing this process.
        const ssize_t n =
            ::send(fd, data.data() + off, data.size() - off,
                   MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

bool
sendFrame(int fd, MsgType type, std::string_view body)
{
    return sendAll(fd, encodeFrame(type, body));
}

std::optional<Frame>
recvFrame(int fd, FrameBuffer &fb, int timeout_ms)
{
    if (std::optional<Frame> f = fb.next())
        return f;
    const auto deadline =
        timeout_ms < 0
            ? std::chrono::steady_clock::time_point::max()
            : std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
    char chunk[4096];
    for (;;) {
        if (timeout_ms >= 0) {
            const auto now = std::chrono::steady_clock::now();
            if (now >= deadline)
                return std::nullopt;
            pollfd pfd{fd, POLLIN, 0};
            const int wait = static_cast<int>(
                std::chrono::duration_cast<
                    std::chrono::milliseconds>(deadline - now)
                    .count());
            const int pr = ::poll(&pfd, 1, std::max(1, wait));
            if (pr < 0 && errno != EINTR)
                return std::nullopt;
            if (pr <= 0)
                continue;
        }
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return std::nullopt;
        }
        if (n == 0)
            return std::nullopt; // EOF
        fb.feed(chunk, static_cast<std::size_t>(n));
        if (std::optional<Frame> f = fb.next())
            return f;
    }
}

// -------------------------------------------------------------------
// Client
// -------------------------------------------------------------------

Client::Client(const std::string &socket_path, int timeout_ms)
    : fd_(connectUnix(socket_path, timeout_ms))
{
    if (!fd_.valid())
        WSEL_FATAL("cannot reach campaign daemon at "
                   << socket_path << " within " << timeout_ms
                   << " ms");
    if (!sendFrame(fd_.get(), MsgType::HelloClient, {}))
        WSEL_FATAL("campaign daemon hung up during hello");
}

Frame
Client::roundTrip(MsgType type, std::string_view body,
                  MsgType expect)
{
    if (!sendFrame(fd_.get(), type, body))
        WSEL_FATAL("campaign daemon hung up mid-request");
    std::optional<Frame> f = recvFrame(fd_.get(), fb_, 30000);
    if (!f)
        WSEL_FATAL("no reply from campaign daemon");
    if (f->type != expect)
        throw ProtocolError(
            "unexpected reply type " +
            std::to_string(static_cast<int>(f->type)));
    return std::move(*f);
}

std::uint64_t
Client::submit(const CampaignSpec &spec)
{
    WireWriter w;
    encodeSpec(w, spec);
    const Frame f =
        roundTrip(MsgType::Submit, w.bytes(), MsgType::SubmitReply);
    WireReader r(f.body);
    const bool accepted = r.u8() != 0;
    const std::uint64_t id = r.u64();
    const std::string message = r.str();
    r.expectEnd();
    if (!accepted)
        WSEL_FATAL("campaign rejected: " << message);
    return id;
}

StatusMsg
Client::status(std::uint64_t id)
{
    WireWriter w;
    w.u64(id);
    const Frame f = roundTrip(MsgType::StatusReq, w.bytes(),
                              MsgType::StatusReply);
    return decodeStatus(f.body);
}

std::string
Client::metricsJson()
{
    const Frame f =
        roundTrip(MsgType::MetricsReq, {}, MsgType::MetricsReply);
    WireReader r(f.body);
    std::string json = r.str();
    r.expectEnd();
    return json;
}

std::string
Client::stop(std::uint64_t id)
{
    WireWriter w;
    w.u64(id);
    const Frame f = roundTrip(MsgType::StopReq, w.bytes(),
                              MsgType::StopReply);
    WireReader r(f.body);
    const bool ok = r.u8() != 0;
    std::string message = r.str();
    r.expectEnd();
    if (!ok)
        WSEL_FATAL("cannot stop campaign " << id << ": "
                   << message);
    return message;
}

StatusMsg
Client::waitFinished(std::uint64_t id,
                     std::optional<std::chrono::milliseconds> deadline,
                     int poll_ms)
{
    const auto t0 = std::chrono::steady_clock::now();
    for (;;) {
        const StatusMsg s = status(id);
        if (s.state == CampaignState::Done ||
            s.state == CampaignState::Failed ||
            s.state == CampaignState::Stopped)
            return s;
        if (s.state == CampaignState::Unknown)
            WSEL_FATAL("campaign " << id
                       << " unknown to the daemon");
        if (deadline &&
            std::chrono::steady_clock::now() - t0 >= *deadline)
            WSEL_FATAL("campaign " << id << " still "
                       << toString(s.state) << " after "
                       << deadline->count() << " ms");
        std::this_thread::sleep_for(
            std::chrono::milliseconds(poll_ms));
    }
}

} // namespace wsel::serve
