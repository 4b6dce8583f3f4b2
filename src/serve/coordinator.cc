#include "serve/coordinator.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/metrics/throughput.hh"
#include "fidelity/error_profile.hh"
#include "fidelity/escalation.hh"
#include "fidelity/persist_fidelity.hh"
#include "obs/metrics.hh"
#include "stats/logging.hh"
#include "stats/persist.hh"

namespace wsel::serve
{

namespace
{

std::uint64_t
ttlMillis(const LeaseOptions &l)
{
    return static_cast<std::uint64_t>(l.ttl.count());
}

} // namespace

Coordinator::Coordinator(const CoordinatorOptions &opts)
    : opts_(opts), store_(opts.storeRoot),
      listenFd_(listenUnix(opts.socketPath))
{
    if (::pipe(wakePipe_) != 0)
        WSEL_FATAL("pipe: " << std::strerror(errno));
    for (int fd : wakePipe_) {
        ::fcntl(fd, F_SETFL, O_NONBLOCK);
        ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    }
}

Coordinator::~Coordinator()
{
    for (int fd : wakePipe_)
        if (fd >= 0)
            ::close(fd);
    (void)::unlink(opts_.socketPath.c_str());
}

const std::string &
Coordinator::socketPath() const
{
    return opts_.socketPath;
}

void
Coordinator::requestStop()
{
    // Async-signal-safe: one write, no locks, no allocation.
    const char b = 's';
    (void)!::write(wakePipe_[1], &b, 1);
}

Coordinator::Campaign *
Coordinator::active()
{
    if (activeId_ == 0)
        return nullptr;
    auto it = campaigns_.find(activeId_);
    return it == campaigns_.end() ? nullptr : &it->second;
}

void
Coordinator::activateNext()
{
    while (activeId_ == 0 && !queue_.empty() && !draining_) {
        const std::uint64_t id = queue_.front();
        queue_.pop_front();
        Campaign &c = campaigns_.at(id);
        try {
            c.ctx = std::make_unique<CampaignContext>(
                c.spec, opts_.cacheDir, opts_.jobs);
        } catch (const FatalError &e) {
            c.state = CampaignState::Failed;
            c.message = e.what();
            warn("campaign " + std::to_string(id) +
                 " failed at admission: " + c.message);
            continue; // try the next queued campaign
        }
        const persist::V3Manifest &m = c.ctx->manifest();
        c.dir = store_.campaignDir(m.fingerprint,
                                   c.ctx->geometryHash());
        store_.ensureCampaignDir(c.dir);
        c.table = std::make_unique<LeaseTable>(m.shardCount(),
                                               opts_.lease);
        // Shards already in the store — from an earlier overlapping
        // campaign or from a previous coordinator's interrupted run
        // — are done before the first lease is granted.
        for (std::uint64_t s = 0; s < m.shardCount(); ++s) {
            if (ResultStore::hasShard(c.dir, m, s)) {
                c.table->markDone(s);
                ++c.deduped;
            }
        }
        if (c.deduped > 0)
            obs::counter("serve.dedup_hits").inc(c.deduped);
        c.state = CampaignState::Running;
        activeId_ = id;
        if (c.table->finished())
            finalize(id, c); // fully dedup'd: zero recomputation
    }
}

bool
Coordinator::beginEscalation(std::uint64_t id, Campaign &c)
{
    const persist::V3Manifest &m = c.ctx->manifest();
    if (opts_.cacheDir.empty()) {
        warn("campaign " + std::to_string(id) +
             ": escalation requested but the daemon has no cache "
             "dir to hold an error profile; finishing at BADCO "
             "fidelity");
        return false;
    }
    const std::string ppath =
        fidelity::errorProfilePath(opts_.cacheDir);
    fidelity::ErrorProfile profile;
    try {
        profile = fidelity::readErrorProfile(ppath);
    } catch (const persist::CacheInvalid &e) {
        warn("campaign " + std::to_string(id) +
             ": cannot load error profile " + ppath + " (" +
             e.what() + "); finishing at BADCO fidelity");
        return false;
    }
    if (profile.suiteHash() !=
        fidelity::ErrorProfile::hashSuite(c.ctx->suite())) {
        warn("campaign " + std::to_string(id) +
             ": error profile was calibrated for a different "
             "suite; finishing at BADCO fidelity");
        return false;
    }

    ThroughputMetric metric;
    try {
        metric = parseMetric(c.spec.escalateMetric);
    } catch (const FatalError &e) {
        warn("campaign " + std::to_string(id) + ": " + e.what() +
             "; finishing at BADCO fidelity");
        return false;
    }
    if (!(c.spec.escalateQuantile > 0.0 &&
          c.spec.escalateQuantile < 1.0) ||
        !(c.spec.escalateBudget <= 1.0)) {
        warn("campaign " + std::to_string(id) +
             ": escalation knobs out of range; finishing at BADCO "
             "fidelity");
        return false;
    }

    // Per-row d(w) intervals over the committed sweep; rows whose
    // interval straddles zero are suspects, budget-capped.
    const std::uint64_t rows = m.rows();
    std::vector<fidelity::CellInterval> cells(
        static_cast<std::size_t>(rows));
    {
        fidelity::EscalationOracle oracle(
            metric, profile, c.spec.escalateQuantile, m.refIpc);
        const std::size_t np = m.policies.size();
        const std::uint32_t k = m.cores;
        for (std::uint64_t s = 0; s < m.shardCount(); ++s) {
            const std::vector<double> payload =
                persist::readV3Shard(c.dir, m, s);
            const std::uint64_t first = m.shardFirstRank(s);
            WorkloadCursor cur(c.ctx->population(), first);
            const std::uint64_t n = m.rowsInShard(s);
            for (std::uint64_t r = 0; r < n; ++r, cur.next()) {
                const double *row = payload.data() + r * np * k;
                cells[static_cast<std::size_t>(
                    first - m.firstRank + r)] =
                    oracle.interval(cur.benchmarks(), {row, k},
                                    {row + k, k});
            }
        }
    }
    const std::vector<std::uint8_t> flags =
        fidelity::selectEscalations(cells, 0.0,
                                    c.spec.escalateBudget);

    // Phase-1 campaign: same geometry, detailed fidelity.
    CampaignSpec dspec = c.spec;
    dspec.fidelity = 1;
    dspec.escalateBudget = 0.0;
    std::unique_ptr<CampaignContext> dctx;
    try {
        dctx = std::make_unique<CampaignContext>(
            dspec, opts_.cacheDir, opts_.jobs);
    } catch (const FatalError &e) {
        warn("campaign " + std::to_string(id) +
             ": detailed-phase context failed: " + e.what() +
             "; finishing at BADCO fidelity");
        return false;
    }
    const persist::V3Manifest &dm = dctx->manifest();
    const std::string ddir =
        store_.campaignDir(dm.fingerprint, dctx->geometryHash());
    store_.ensureCampaignDir(ddir);

    fidelity::EscalationRecord rec;
    rec.badcoFingerprint = m.fingerprint;
    rec.detailedFingerprint = dm.fingerprint;
    rec.seed = c.spec.seed;
    rec.metric = c.spec.escalateMetric;
    rec.policyX = m.policies[0];
    rec.policyY = m.policies[1];
    rec.quantile = c.spec.escalateQuantile;
    rec.budgetFraction = c.spec.escalateBudget;
    rec.threshold = 0.0;
    rec.firstRank = m.firstRank;
    rec.lastRank = m.lastRank;
    rec.resizeBitmap();
    for (std::uint64_t r = 0; r < rows; ++r) {
        if (flags[static_cast<std::size_t>(r)]) {
            rec.setEscalated(r);
            ++rec.escalatedCount;
        }
    }
    fidelity::writeEscalationRecord(ddir, rec);

    auto table =
        std::make_unique<LeaseTable>(dm.shardCount(), opts_.lease);
    std::uint64_t flagged_shards = 0;
    for (std::uint64_t s = 0; s < dm.shardCount(); ++s) {
        const std::uint64_t first = dm.shardFirstRank(s);
        const std::uint64_t n = dm.rowsInShard(s);
        bool flagged = false;
        for (std::uint64_t r = 0; r < n && !flagged; ++r)
            flagged = rec.escalated(first - dm.firstRank + r);
        if (!flagged) {
            table->markDone(s);
        } else if (ResultStore::hasShard(ddir, dm, s)) {
            table->markDone(s);
            ++c.deduped;
            obs::counter("serve.dedup_hits").inc();
        } else {
            ++flagged_shards;
        }
    }

    c.badcoDir = c.dir;
    c.escalatedRows = rec.escalatedCount;
    c.escalatedShards = flagged_shards;
    c.phase = 1;
    c.spec = std::move(dspec);
    c.ctx = std::move(dctx);
    c.table = std::move(table);
    c.dir = ddir;
    obs::counter("serve.escalations_started").inc();
    if (obs::metricsEnabled())
        obs::gauge("serve.escalated_rows")
            .set(static_cast<double>(rec.escalatedCount));
    logLine("campaign " + std::to_string(id) + ": escalating " +
            std::to_string(rec.escalatedCount) + " row(s) in " +
            std::to_string(flagged_shards) +
            " shard(s) to detailed fidelity -> " + ddir);
    if (c.table->finished()) {
        finalize(id, c);
        return c.state == CampaignState::Running;
    }
    return true;
}

void
Coordinator::finalize(std::uint64_t id, Campaign &c)
{
    if (c.table->succeeded()) {
        if (c.phase == 0) {
            ResultStore::commitManifest(c.dir, c.ctx->manifest());
            if (c.spec.fidelity == 0 &&
                c.spec.escalateBudget > 0.0 &&
                c.spec.policies.size() >= 2 &&
                beginEscalation(id, c))
                return; // now Running in the detailed phase
        }
        if (c.phase == 1) {
            // The detailed dir holds only escalated shards (the
            // fidelity-bitmap sidecar names them), so no manifest:
            // a manifest claims a complete campaign.
            c.message =
                "escalated " + std::to_string(c.escalatedRows) +
                " row(s) at detailed fidelity; badco " +
                c.badcoDir + "; detailed " + c.dir;
        }
        c.state = CampaignState::Done;
    } else if (c.table->halted()) {
        // A client Stop: no manifest (the campaign is partial),
        // but every completed shard stays in the store for dedup.
        c.state = CampaignState::Stopped;
        c.message = "stopped by client after " +
                    std::to_string(c.table->doneCount()) + "/" +
                    std::to_string(c.table->shards()) + " shard(s)";
    } else {
        c.state = CampaignState::Failed;
        c.message = std::to_string(c.table->quarantinedCount()) +
                    " shard(s) quarantined as poison";
        warn("campaign " + std::to_string(id) + " failed: " +
             c.message);
    }
    c.ctx.reset(); // models are the heavy part; the table stays
                   // for status queries
    if (activeId_ == id)
        activeId_ = 0;
}

StatusMsg
Coordinator::statusOf(std::uint64_t id) const
{
    StatusMsg s;
    auto it = campaigns_.find(id);
    if (it == campaigns_.end())
        return s; // Unknown
    const Campaign &c = it->second;
    s.state = c.state;
    s.dir = c.dir;
    s.message = c.message;
    s.shardsDeduped = c.deduped;
    if (c.table) {
        s.shardsTotal = c.table->shards();
        s.shardsDone = c.table->doneCount();
        s.shardsQuarantined = c.table->quarantinedCount();
        s.leasesActive = c.table->activeLeases();
    }
    return s;
}

bool
Coordinator::tryGrant(Conn &conn)
{
    Campaign *c = active();
    if (!c || !c->table)
        return false;
    const auto now = LeaseClock::now();
    const std::optional<LeaseGrant> g = c->table->acquire(
        now, static_cast<std::int64_t>(conn.workerPid));
    if (!g)
        return false;
    LeaseMsg lm;
    lm.leaseId = g->leaseId;
    lm.campaignId = activeId_;
    lm.shard = g->shard;
    lm.ttlMs = ttlMillis(opts_.lease);
    lm.fingerprint = c->ctx->manifest().fingerprint;
    lm.dir = c->dir;
    lm.spec = c->spec;
    conn.leases.push_back(g->leaseId);
    inflight_[g->leaseId] = LeaseInflight{activeId_, now};
    obs::counter("serve.leases_granted").inc();
    if (!sendFrame(conn.fd.get(), MsgType::Lease, encodeLease(lm)))
        dropConnection(conn);
    return true;
}

void
Coordinator::grantOrPark(Conn &conn)
{
    if (draining_)
        (void)sendFrame(conn.fd.get(), MsgType::Shutdown, {});
    else if (!tryGrant(conn))
        conn.parkedSince = LeaseClock::now();
}

void
Coordinator::serviceParked(LeaseClock::time_point now)
{
    for (const auto &cp : conns_) {
        Conn &conn = *cp;
        if (!conn.parkedSince)
            continue;
        if (draining_) {
            (void)sendFrame(conn.fd.get(), MsgType::Shutdown, {});
        } else if (!tryGrant(conn)) {
            if (now - *conn.parkedSince < kParkMax)
                continue;
            WireWriter w;
            w.u8(0);
            (void)sendFrame(conn.fd.get(), MsgType::NoWork,
                            w.bytes());
        }
        conn.parkedSince.reset();
    }
}

void
Coordinator::noteLeaseClosed(std::uint64_t leaseId, Conn *conn)
{
    auto it = inflight_.find(leaseId);
    if (it != inflight_.end()) {
        const auto dur = LeaseClock::now() - it->second.granted;
        obs::histogram("serve.lease_ns")
            .recordNs(static_cast<std::uint64_t>(
                std::chrono::duration_cast<
                    std::chrono::nanoseconds>(dur)
                    .count()));
        inflight_.erase(it);
    }
    if (conn) {
        auto &v = conn->leases;
        v.erase(std::remove(v.begin(), v.end(), leaseId), v.end());
    }
}

bool
Coordinator::handleFrame(Conn &conn, const Frame &f)
{
    switch (f.type) {
    case MsgType::HelloWorker: {
        WireReader r(f.body);
        conn.kind = Conn::Kind::Worker;
        conn.workerPid = r.u64();
        obs::gauge("serve.workers_active").add(1.0);
        return true;
    }
    case MsgType::HelloClient:
        conn.kind = Conn::Kind::Client;
        sawClient_ = true;
        return true;
    case MsgType::RequestLease:
        grantOrPark(conn);
        return true;
    case MsgType::Heartbeat: {
        WireReader r(f.body);
        const std::uint64_t leaseId = r.u64();
        auto it = inflight_.find(leaseId);
        if (it == inflight_.end())
            return true; // expired & reclaimed; worker will learn
        auto cit = campaigns_.find(it->second.campaignId);
        if (cit != campaigns_.end() && cit->second.table)
            (void)cit->second.table->heartbeat(leaseId,
                                              LeaseClock::now());
        return true;
    }
    case MsgType::Done: {
        WireReader r(f.body);
        const std::uint64_t leaseId = r.u64();
        (void)r.u64(); // campaignId: inflight_ is authoritative
        const std::uint64_t shard = r.u64();
        const bool dedup = r.u8() != 0;
        auto it = inflight_.find(leaseId);
        if (it == inflight_.end()) {
            // A zombie (lease expired, maybe re-run elsewhere).
            // The store already holds the shard bytes either way;
            // nothing to update.
            obs::counter("serve.duplicate_completions").inc();
            return true;
        }
        const std::uint64_t cid = it->second.campaignId;
        Campaign &c = campaigns_.at(cid);
        const CompleteResult res =
            c.table->complete(leaseId, shard);
        noteLeaseClosed(leaseId, &conn);
        if (res == CompleteResult::Committed && dedup) {
            ++c.deduped;
            obs::counter("serve.dedup_hits").inc();
        }
        if (res == CompleteResult::Duplicate)
            obs::counter("serve.duplicate_completions").inc();
        if (c.state == CampaignState::Running &&
            c.table->finished())
            finalize(cid, c);
        return true;
    }
    case MsgType::Failed: {
        WireReader r(f.body);
        const std::uint64_t leaseId = r.u64();
        const std::string msg = r.str();
        auto it = inflight_.find(leaseId);
        if (it == inflight_.end())
            return true;
        const std::uint64_t cid = it->second.campaignId;
        Campaign &c = campaigns_.at(cid);
        const std::uint64_t qBefore =
            c.table->quarantinedCount();
        c.table->fail(leaseId, LeaseClock::now());
        noteLeaseClosed(leaseId, &conn);
        const std::uint64_t qAfter = c.table->quarantinedCount();
        if (qAfter > qBefore)
            obs::counter("serve.shards_quarantined")
                .inc(qAfter - qBefore);
        else
            obs::counter("serve.leases_requeued").inc();
        warn("lease " + std::to_string(leaseId) + " failed: " +
             msg);
        if (c.state == CampaignState::Running &&
            c.table->finished())
            finalize(cid, c);
        return true;
    }
    case MsgType::Submit: {
        WireReader r(f.body);
        CampaignSpec spec = decodeSpec(r);
        r.expectEnd();
        WireWriter w;
        const std::size_t pending =
            queue_.size() + (activeId_ != 0 ? 1 : 0);
        if (draining_) {
            w.u8(0);
            w.u64(0);
            w.str("daemon is draining");
            obs::counter("serve.campaigns_rejected").inc();
        } else if (pending >= opts_.maxQueued) {
            w.u8(0);
            w.u64(0);
            w.str("admission queue full (" +
                  std::to_string(pending) + "/" +
                  std::to_string(opts_.maxQueued) + ")");
            obs::counter("serve.campaigns_rejected").inc();
        } else {
            const std::uint64_t id = nextCampaignId_++;
            Campaign c;
            c.spec = std::move(spec);
            campaigns_.emplace(id, std::move(c));
            queue_.push_back(id);
            obs::counter("serve.campaigns_submitted").inc();
            w.u8(1);
            w.u64(id);
            w.str("");
        }
        return sendFrame(conn.fd.get(), MsgType::SubmitReply,
                         w.bytes());
    }
    case MsgType::StatusReq: {
        WireReader r(f.body);
        const std::uint64_t id = r.u64();
        return sendFrame(conn.fd.get(), MsgType::StatusReply,
                         encodeStatus(statusOf(id)));
    }
    case MsgType::MetricsReq: {
        WireWriter w;
        w.str(obs::metricsSnapshot().toJson());
        return sendFrame(conn.fd.get(), MsgType::MetricsReply,
                         w.bytes());
    }
    case MsgType::StopReq: {
        WireReader r(f.body);
        const std::uint64_t cid = r.u64();
        r.expectEnd();
        WireWriter w;
        auto it = campaigns_.find(cid);
        if (it == campaigns_.end()) {
            w.u8(0);
            w.str("unknown campaign " + std::to_string(cid));
        } else if (it->second.state == CampaignState::Queued) {
            Campaign &c = it->second;
            std::erase(queue_, cid);
            c.state = CampaignState::Stopped;
            c.message = "stopped before activation";
            obs::counter("serve.campaigns_stopped").inc();
            w.u8(1);
            w.str(c.message);
        } else if (it->second.state == CampaignState::Running) {
            Campaign &c = it->second;
            // Stop granting leases; in-flight shards finish and
            // their results stay in the store, so a later
            // re-submission dedups everything already paid for.
            c.table->halt();
            obs::counter("serve.campaigns_stopped").inc();
            w.u8(1);
            w.str("halting; " +
                  std::to_string(c.table->activeLeases()) +
                  " lease(s) in flight will finish");
            if (c.table->finished())
                finalize(cid, c);
        } else {
            w.u8(0);
            w.str("campaign already " +
                  std::string(toString(it->second.state)));
        }
        return sendFrame(conn.fd.get(), MsgType::StopReply,
                         w.bytes());
    }
    default:
        warn("coordinator: unexpected frame type " +
             std::to_string(static_cast<int>(f.type)));
        return false;
    }
}

void
Coordinator::dropConnection(Conn &conn)
{
    if (!conn.fd.valid())
        return;
    // A dead worker's leases fail back to the table (counted as
    // deaths; the backoff/quarantine path).
    const std::vector<std::uint64_t> leases = conn.leases;
    for (std::uint64_t leaseId : leases) {
        auto it = inflight_.find(leaseId);
        if (it == inflight_.end())
            continue;
        const std::uint64_t cid = it->second.campaignId;
        Campaign &c = campaigns_.at(cid);
        const std::uint64_t qBefore =
            c.table->quarantinedCount();
        c.table->fail(leaseId, LeaseClock::now());
        noteLeaseClosed(leaseId, nullptr);
        const std::uint64_t qAfter = c.table->quarantinedCount();
        if (qAfter > qBefore)
            obs::counter("serve.shards_quarantined")
                .inc(qAfter - qBefore);
        else
            obs::counter("serve.leases_requeued").inc();
        if (c.state == CampaignState::Running &&
            c.table->finished())
            finalize(cid, c);
    }
    conn.leases.clear();
    if (conn.kind == Conn::Kind::Worker)
        obs::gauge("serve.workers_active").add(-1.0);
    conn.kind = Conn::Kind::Unknown;
    conn.fd.reset();
}

void
Coordinator::acceptConnection()
{
    const int fd = ::accept(listenFd_.get(), nullptr, nullptr);
    if (fd < 0)
        return;
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    auto conn = std::make_unique<Conn>();
    conn->fd = Fd(fd);
    conns_.push_back(std::move(conn));
}

int
Coordinator::run()
{
    auto lastLoop = LeaseClock::now();
    for (;;) {
        std::vector<pollfd> pfds;
        pfds.push_back({listenFd_.get(), POLLIN, 0});
        pfds.push_back({wakePipe_[0], POLLIN, 0});
        for (const auto &c : conns_)
            pfds.push_back({c->fd.get(), POLLIN, 0});

        // Wake for the next lease deadline or backoff expiry and
        // for the oldest parked request's NoWork, at least every
        // 100 ms.
        std::optional<LeaseClock::time_point> wake;
        if (Campaign *c = active(); c && c->table)
            wake = c->table->nextEvent();
        for (const auto &c : conns_)
            if (c->parkedSince &&
                (!wake || *c->parkedSince + kParkMax < *wake))
                wake = *c->parkedSince + kParkMax;
        int timeout_ms = 100;
        if (wake) {
            const auto d =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    *wake - LeaseClock::now());
            timeout_ms = std::clamp<int>(
                static_cast<int>(d.count()) + 1, 1, 100);
        }
        const int pr =
            ::poll(pfds.data(),
                   static_cast<nfds_t>(pfds.size()), timeout_ms);
        if (pr < 0 && errno != EINTR)
            WSEL_FATAL("poll: " << std::strerror(errno));

        // Loop-stall compensation: if this iteration arrives much
        // later than the last (synchronous admission work, swap,
        // ptrace...), push every deadline out by the stall instead
        // of expiring workers that heartbeated into our buffer.
        const auto now = LeaseClock::now();
        const auto gap = now - lastLoop;
        lastLoop = now;
        if (gap > opts_.lease.ttl / 2) {
            if (Campaign *c = active(); c && c->table)
                c->table->extendAll(gap);
        }

        if (pfds[1].revents & POLLIN) {
            char buf[64];
            while (::read(wakePipe_[0], buf, sizeof(buf)) > 0) {
            }
            draining_ = true;
        }
        if (pfds[0].revents & POLLIN)
            acceptConnection();

        // conns_ indices line up with pfds[2..]; handle reads and
        // hangups.  dropConnection only closes the fd — erasure
        // happens below so indices stay stable.
        for (std::size_t i = 0; i < conns_.size() &&
                                i + 2 < pfds.size();
             ++i) {
            Conn &conn = *conns_[i];
            if (!(pfds[i + 2].revents & (POLLIN | POLLHUP)))
                continue;
            char chunk[4096];
            const ssize_t n =
                ::recv(conn.fd.get(), chunk, sizeof(chunk), 0);
            if (n <= 0) {
                dropConnection(conn);
                continue;
            }
            conn.fb.feed(chunk, static_cast<std::size_t>(n));
            try {
                while (std::optional<Frame> f = conn.fb.next()) {
                    if (!handleFrame(conn, *f)) {
                        dropConnection(conn);
                        break;
                    }
                }
            } catch (const ProtocolError &e) {
                warn(std::string(
                         "coordinator: dropping malformed "
                         "connection: ") +
                     e.what());
                dropConnection(conn);
            }
        }
        std::erase_if(conns_, [](const std::unique_ptr<Conn> &c) {
            return !c->fd.valid();
        });

        // Reclaim overdue leases.
        if (Campaign *c = active(); c && c->table) {
            const std::uint64_t qBefore =
                c->table->quarantinedCount();
            const std::vector<std::uint64_t> expired =
                c->table->expire(now);
            for (std::uint64_t leaseId : expired) {
                obs::counter("serve.leases_expired").inc();
                for (auto &cp : conns_)
                    if (std::count(cp->leases.begin(),
                                   cp->leases.end(), leaseId))
                        noteLeaseClosed(leaseId, cp.get());
                noteLeaseClosed(leaseId, nullptr);
            }
            const std::uint64_t qAfter =
                c->table->quarantinedCount();
            if (qAfter > qBefore)
                obs::counter("serve.shards_quarantined")
                    .inc(qAfter - qBefore);
            if (!expired.empty())
                obs::counter("serve.leases_requeued")
                    .inc(expired.size() - (qAfter - qBefore));
            if (c->state == CampaignState::Running &&
                c->table->finished())
                finalize(activeId_, *c);
        }

        activateNext();
        serviceParked(LeaseClock::now());

        if (draining_ && inflight_.empty()) {
            for (auto &c : conns_)
                if (c->kind == Conn::Kind::Worker)
                    (void)sendFrame(c->fd.get(),
                                    MsgType::Shutdown, {});
            return 0;
        }
        if (opts_.exitWhenIdle && sawClient_ && activeId_ == 0 &&
            queue_.empty()) {
            const bool clients_left = std::any_of(
                conns_.begin(), conns_.end(),
                [](const std::unique_ptr<Conn> &c) {
                    return c->kind == Conn::Kind::Client;
                });
            if (!clients_left) {
                for (auto &c : conns_)
                    if (c->kind == Conn::Kind::Worker)
                        (void)sendFrame(c->fd.get(),
                                        MsgType::Shutdown, {});
                return 0;
            }
        }
    }
}

} // namespace wsel::serve
