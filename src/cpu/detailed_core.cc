#include "cpu/detailed_core.hh"

#include <algorithm>
#include <sstream>

#include "stats/logging.hh"

namespace wsel
{

std::string
CoreConfig::describe() const
{
    std::ostringstream os;
    os << "decode/issue/commit " << decodeWidth << "/" << issueWidth
       << "/" << commitWidth << ", RS/LDQ/STQ/ROB " << rsSize << "/"
       << ldqSize << "/" << stqSize << "/" << robSize << ", IL1 "
       << il1.sizeBytes / 1024 << "kB, DL1 " << dl1.sizeBytes / 1024
       << "kB, TAGE " << (1u << tage.bimodalBits) << "+"
       << tage.numTables << "x" << (1u << tage.taggedBits);
    return os.str();
}

double
CoreStats::ipc(std::uint64_t target_uops) const
{
    if (cyclesToTarget == 0)
        return 0.0;
    return static_cast<double>(target_uops) /
           static_cast<double>(cyclesToTarget);
}

DetailedCore::DetailedCore(const CoreConfig &cfg,
                           TraceCursor trace, UncoreIf &uncore,
                           std::uint32_t core_id,
                           std::uint64_t target_uops,
                           std::uint64_t seed)
    : cfg_(cfg), trace_(std::move(trace)), uncore_(uncore),
      coreId_(core_id),
      targetUops_(target_uops), tage_(cfg.tage, seed ^ 0x7a6e),
      il1_(cfg.il1, PolicyKind::LRU, seed ^ 0x111, "il1"),
      dl1_(cfg.dl1, PolicyKind::LRU, seed ^ 0xdd1, "dl1"),
      itlb_(cfg.itlbEntries, cfg.itlbWays),
      dtlb_(cfg.dtlbEntries, cfg.dtlbWays),
      rob_(cfg.robSize), missDepRing_(kDepRing, -1)
{
    if (targetUops_ == 0)
        WSEL_FATAL("target µop count cannot be zero");
    if (cfg_.robSize == 0 || cfg_.rsSize == 0 ||
        cfg_.decodeWidth == 0 || cfg_.issueWidth == 0 ||
        cfg_.commitWidth == 0)
        WSEL_FATAL("degenerate core configuration");

    std::vector<std::unique_ptr<Prefetcher>> dparts;
    if (cfg_.dl1NextLinePrefetch)
        dparts.push_back(
            makeNextLinePrefetcher(cfg_.dl1PrefetchDegree));
    if (cfg_.dl1IpStridePrefetch)
        dparts.push_back(
            makeIpStridePrefetcher(64, cfg_.dl1PrefetchDegree));
    dl1Prefetcher_ = dparts.empty()
                         ? makeNullPrefetcher()
                         : makeCompositePrefetcher(std::move(dparts));
    il1Prefetcher_ = cfg_.il1NextLinePrefetch
                         ? makeNextLinePrefetcher(1)
                         : makeNullPrefetcher();
}

DetailedCore::RobEntry &
DetailedCore::entry(std::uint64_t seq)
{
    return rob_[seq % cfg_.robSize];
}

const DetailedCore::RobEntry &
DetailedCore::entry(std::uint64_t seq) const
{
    return rob_[seq % cfg_.robSize];
}

bool
DetailedCore::depReady(std::uint64_t dep_seq, std::uint64_t now) const
{
    if (dep_seq == kNoDep)
        return true;
    if (dep_seq < robHeadSeq_)
        return true; // producer already retired
    const RobEntry &p = entry(dep_seq);
    WSEL_ASSERT(p.valid && p.seq == dep_seq,
                "dependence on a µop not in the ROB");
    return p.done && p.completion <= now;
}

std::int64_t
DetailedCore::inheritedMissDep(const RobEntry &e) const
{
    std::int64_t dep = -1;
    if (e.dep1Seq != kNoDep)
        dep = std::max(dep, missDepRing_[e.dep1Seq % kDepRing]);
    if (e.dep2Seq != kNoDep)
        dep = std::max(dep, missDepRing_[e.dep2Seq % kDepRing]);
    return dep;
}

void
DetailedCore::emitEvent(const UncoreRequestEvent &ev)
{
    if (observer_)
        observer_->onUncoreRequest(ev);
}

void
DetailedCore::tick(std::uint64_t now)
{
    if (now >= nextWork_)
        work(now);
}

void
DetailedCore::work(std::uint64_t now)
{
    retire(now);
    issue(now);
    dispatch(now);
    fetch(now);
    plan(now);
}

// -------------------------------------------------------------------
// Commit stage
// -------------------------------------------------------------------

void
DetailedCore::retire(std::uint64_t now)
{
    for (std::uint32_t n = 0; n < cfg_.commitWidth; ++n) {
        if (robHeadSeq_ == robTailSeq_)
            return;
        RobEntry &e = entry(robHeadSeq_);
        WSEL_ASSERT(e.valid && e.seq == robHeadSeq_,
                    "ROB head corrupted");
        if (!e.done || e.completion > now)
            return;
        if (e.kind == OpKind::Store) {
            storeWrite(e, now);
            WSEL_ASSERT(stqUsed_ > 0, "STQ underflow");
            --stqUsed_;
        } else if (e.kind == OpKind::Load) {
            WSEL_ASSERT(ldqUsed_ > 0, "LDQ underflow");
            --ldqUsed_;
        }
        e.valid = false;
        ++robHeadSeq_;
        ++stats_.committed;
        if (stats_.committed == targetUops_ &&
            stats_.cyclesToTarget == 0) {
            stats_.cyclesToTarget = now + 1;
        }
    }
}

void
DetailedCore::storeWrite(const RobEntry &e, std::uint64_t now)
{
    if (!dtlb_.access(e.addr))
        ++stats_.dtlbMisses;
    if (dl1_.probe(e.addr)) {
        dl1_.access(e.addr, true);
        return;
    }
    // Write-allocate miss: posted (non-blocking) refill.
    ++stats_.dl1Misses;
    ++stats_.uncoreStores;
    uncore_.access(now, coreId_, e.addr, true, e.pc, false);
    UncoreRequestEvent ev;
    ev.uopSeq = e.seq;
    ev.vaddr = e.addr;
    ev.pc = e.pc;
    ev.isWrite = true;
    ev.issueCycle = now;
    ev.dependsOn = -1;
    emitEvent(ev);
    const Cache::Result r = dl1_.access(e.addr, true);
    if (r.evicted.valid && r.evicted.dirty) {
        ++stats_.uncoreWritebacks;
        const std::uint64_t wb_addr =
            r.evicted.lineAddr * cfg_.dl1.lineBytes;
        uncore_.writeback(now, coreId_, wb_addr);
        UncoreRequestEvent wb;
        wb.uopSeq = e.seq;
        wb.vaddr = wb_addr;
        wb.isWriteback = true;
        wb.issueCycle = now;
        emitEvent(wb);
    }
    runDl1Prefetch(now, e.pc, e.addr, true);
}

// -------------------------------------------------------------------
// Issue / execute stage
// -------------------------------------------------------------------

void
DetailedCore::issue(std::uint64_t now)
{
    std::uint32_t issued = 0;
    for (auto it = rsQueue_.begin();
         it != rsQueue_.end() && issued < cfg_.issueWidth;) {
        RobEntry &e = entry(*it);
        WSEL_ASSERT(e.valid && e.seq == *it && !e.issued,
                    "RS queue corrupted");
        if (!depReady(e.dep1Seq, now) || !depReady(e.dep2Seq, now)) {
            ++it;
            continue;
        }
        if (!tryExecute(e, now)) {
            ++it; // structural hazard (e.g. DL1 MSHRs full)
            continue;
        }
        e.issued = true;
        e.done = true;
        it = rsQueue_.erase(it);
        ++issued;
    }
}

bool
DetailedCore::tryExecute(RobEntry &e, std::uint64_t now)
{
    switch (e.kind) {
      case OpKind::IntAlu:
      case OpKind::FpAlu:
        e.completion = now + e.latency;
        missDepRing_[e.seq % kDepRing] = inheritedMissDep(e);
        return true;

      case OpKind::Branch:
        e.completion = now + 1;
        missDepRing_[e.seq % kDepRing] = inheritedMissDep(e);
        if (e.mispredicted && stalledBranchSeq_ == e.seq) {
            // Redirect the front-end once the branch resolves.
            stalledBranchSeq_ = kNoDep;
            fetchStallUntil_ =
                std::max(fetchStallUntil_, e.completion + 1);
        }
        return true;

      case OpKind::Store:
        // Address generation; data is written at commit.
        e.completion = now + 1;
        missDepRing_[e.seq % kDepRing] = inheritedMissDep(e);
        return true;

      case OpKind::Load: {
        const std::uint64_t line = dl1_.lineAddr(e.addr);
        if (dl1_.probe(e.addr)) {
            // Tag hit; the line may still be in flight (MSHR).
            std::uint64_t pending = 0;
            for (const Dl1Mshr &m : dl1Mshrs_) {
                if (m.lineAddr == line)
                    pending = std::max(pending, m.completion);
            }
            std::uint64_t extra = 0;
            if (!dtlb_.access(e.addr)) {
                ++stats_.dtlbMisses;
                extra = cfg_.pageWalkCycles;
            }
            dl1_.access(e.addr, false);
            e.completion =
                std::max(now + cfg_.dl1Latency + extra, pending);
            missDepRing_[e.seq % kDepRing] = inheritedMissDep(e);
            runDl1Prefetch(now, e.pc, e.addr, false);
            return true;
        }
        // DL1 miss: need a free MSHR.
        std::erase_if(dl1Mshrs_, [now](const Dl1Mshr &m) {
            return m.completion <= now;
        });
        if (dl1Mshrs_.size() >= cfg_.dl1Mshrs)
            return false;
        executeLoadMiss(e, now, now + cfg_.dl1Latency);
        return true;
      }
    }
    WSEL_PANIC("unreachable µop kind");
}

void
DetailedCore::executeLoadMiss(RobEntry &e, std::uint64_t now,
                              std::uint64_t start)
{
    std::uint64_t extra = 0;
    if (!dtlb_.access(e.addr)) {
        ++stats_.dtlbMisses;
        extra = cfg_.pageWalkCycles;
    }
    ++stats_.dl1Misses;
    ++stats_.uncoreLoads;

    const std::uint64_t completion =
        uncore_.access(start + extra, coreId_, e.addr, false, e.pc,
                       false);

    UncoreRequestEvent ev;
    ev.uopSeq = e.seq;
    ev.vaddr = e.addr;
    ev.pc = e.pc;
    ev.issueCycle = start + extra;
    ev.dependsOn = inheritedMissDep(e);
    emitEvent(ev);

    const std::int64_t req_idx = nextRequestIdx_++;
    missDepRing_[e.seq % kDepRing] = req_idx;

    dl1Mshrs_.push_back(Dl1Mshr{dl1_.lineAddr(e.addr), completion});

    const Cache::Result r = dl1_.access(e.addr, false);
    if (r.evicted.valid && r.evicted.dirty) {
        ++stats_.uncoreWritebacks;
        const std::uint64_t wb_addr =
            r.evicted.lineAddr * cfg_.dl1.lineBytes;
        uncore_.writeback(completion, coreId_, wb_addr);
        UncoreRequestEvent wb;
        wb.uopSeq = e.seq;
        wb.vaddr = wb_addr;
        wb.isWriteback = true;
        wb.issueCycle = completion;
        emitEvent(wb);
    }

    e.completion = completion;
    runDl1Prefetch(now, e.pc, e.addr, true);
}

void
DetailedCore::runDl1Prefetch(std::uint64_t now, std::uint64_t pc,
                             std::uint64_t addr, bool was_miss)
{
    prefetchScratch_.clear();
    dl1Prefetcher_->observe(pc, dl1_.lineAddr(addr), was_miss,
                            prefetchScratch_);
    for (std::uint64_t line : prefetchScratch_) {
        const std::uint64_t byte_addr = line * cfg_.dl1.lineBytes;
        if (dl1_.probe(byte_addr))
            continue;
        ++stats_.uncorePrefetches;
        uncore_.access(now + cfg_.dl1Latency, coreId_, byte_addr,
                       false, 0, true);
        UncoreRequestEvent ev;
        ev.uopSeq = robTailSeq_;
        ev.vaddr = byte_addr;
        ev.pc = pc;
        ev.isPrefetch = true;
        ev.issueCycle = now + cfg_.dl1Latency;
        emitEvent(ev);
        const Cache::Result r = dl1_.access(byte_addr, false, true);
        if (r.evicted.valid && r.evicted.dirty) {
            ++stats_.uncoreWritebacks;
            const std::uint64_t wb_addr =
                r.evicted.lineAddr * cfg_.dl1.lineBytes;
            uncore_.writeback(now + cfg_.dl1Latency, coreId_,
                              wb_addr);
            UncoreRequestEvent wb;
            wb.uopSeq = robTailSeq_;
            wb.vaddr = wb_addr;
            wb.isWriteback = true;
            wb.issueCycle = now + cfg_.dl1Latency;
            emitEvent(wb);
        }
    }
}

// -------------------------------------------------------------------
// Dispatch stage
// -------------------------------------------------------------------

void
DetailedCore::dispatch(std::uint64_t now)
{
    for (std::uint32_t n = 0; n < cfg_.decodeWidth; ++n) {
        if (fetchBuffer_.empty())
            return;
        const FetchedUop &f = fetchBuffer_.front();
        if (f.readyCycle > now || dispatchBlocked(f.uop.kind))
            return;

        WSEL_ASSERT(f.seq == robTailSeq_,
                    "fetch/dispatch sequence mismatch");
        RobEntry &e = entry(robTailSeq_);
        e = RobEntry{};
        e.valid = true;
        e.seq = f.seq;
        e.kind = f.uop.kind;
        e.addr = f.uop.addr;
        e.pc = f.uop.pc;
        e.latency = std::max<std::uint8_t>(f.uop.latency, 1);
        e.mispredicted = f.mispredicted;
        e.dep1Seq = (f.uop.dep1 > 0 && f.uop.dep1 <= f.seq)
                        ? f.seq - f.uop.dep1
                        : kNoDep;
        e.dep2Seq = (f.uop.dep2 > 0 && f.uop.dep2 <= f.seq)
                        ? f.seq - f.uop.dep2
                        : kNoDep;
        // A dependence that fell out of the ROB is already resolved.
        if (e.dep1Seq != kNoDep && e.dep1Seq < robHeadSeq_)
            e.dep1Seq = kNoDep;
        if (e.dep2Seq != kNoDep && e.dep2Seq < robHeadSeq_)
            e.dep2Seq = kNoDep;

        if (e.kind == OpKind::Load)
            ++ldqUsed_;
        if (e.kind == OpKind::Store)
            ++stqUsed_;
        rsQueue_.push_back(e.seq);
        ++robTailSeq_;
        fetchBuffer_.pop_front();
    }
}

bool
DetailedCore::dispatchBlocked(OpKind kind) const
{
    return robTailSeq_ - robHeadSeq_ >= cfg_.robSize ||
           rsQueue_.size() >= cfg_.rsSize ||
           (kind == OpKind::Load && ldqUsed_ >= cfg_.ldqSize) ||
           (kind == OpKind::Store && stqUsed_ >= cfg_.stqSize);
}

// -------------------------------------------------------------------
// Fetch stage
// -------------------------------------------------------------------

void
DetailedCore::fetch(std::uint64_t now)
{
    if (stalledBranchSeq_ != kNoDep)
        return;
    if (now < fetchStallUntil_)
        return;

    for (std::uint32_t n = 0; n < cfg_.decodeWidth; ++n) {
        if (fetchBuffer_.size() >= cfg_.fetchBufferSize)
            return;

        MicroOp uop;
        if (pendingUop_) {
            uop = *pendingUop_;
            pendingUop_.reset();
        } else {
            // Thread restart at the trace target (paper §IV-A).
            if (trace_.generated() >= targetUops_)
                trace_.reset();
            uop = trace_.next();
        }

        // Instruction fetch: IL1/ITLB accessed per line crossed.
        const std::uint64_t line = il1_.lineAddr(uop.pc);
        if (line != curFetchLine_) {
            curFetchLine_ = line;
            std::uint64_t penalty = 0;
            if (!itlb_.access(uop.pc)) {
                ++stats_.itlbMisses;
                penalty += cfg_.pageWalkCycles;
            }
            const Cache::Result r = il1_.access(uop.pc, false);
            prefetchScratch_.clear();
            il1Prefetcher_->observe(uop.pc, line, !r.hit,
                                    prefetchScratch_);
            if (!r.hit) {
                ++stats_.il1Misses;
                ++stats_.uncoreLoads;
                const std::uint64_t comp = uncore_.access(
                    now + cfg_.il1Latency + penalty, coreId_, uop.pc,
                    false, uop.pc, false);
                UncoreRequestEvent ev;
                ev.uopSeq = nextFetchSeq_;
                ev.vaddr = uop.pc;
                ev.pc = uop.pc;
                ev.isInstruction = true;
                ev.issueCycle = now + cfg_.il1Latency + penalty;
                ev.dependsOn = -1;
                emitEvent(ev);
                fetchStallUntil_ = comp;
                pendingUop_ = uop;
                issueIl1Prefetches(now);
                return;
            }
            issueIl1Prefetches(now);
            if (penalty > 0) {
                fetchStallUntil_ = now + penalty;
                pendingUop_ = uop;
                return;
            }
        }

        FetchedUop f;
        f.uop = uop;
        f.seq = nextFetchSeq_++;
        f.readyCycle = now + cfg_.frontendDepth;

        if (uop.kind == OpKind::Branch) {
            ++stats_.branches;
            const bool correct =
                tage_.predictAndUpdate(uop.pc, uop.taken);
            if (!correct) {
                ++stats_.branchMispredicts;
                f.mispredicted = true;
                fetchBuffer_.push_back(f);
                // Stall until the branch executes and redirects.
                stalledBranchSeq_ = f.seq;
                return;
            }
        }
        fetchBuffer_.push_back(f);
    }
}

void
DetailedCore::issueIl1Prefetches(std::uint64_t now)
{
    for (std::uint64_t pline : prefetchScratch_) {
        const std::uint64_t byte_addr = pline * cfg_.il1.lineBytes;
        if (il1_.probe(byte_addr))
            continue;
        ++stats_.uncorePrefetches;
        uncore_.access(now + cfg_.il1Latency, coreId_, byte_addr,
                       false, 0, true);
        UncoreRequestEvent ev;
        ev.uopSeq = nextFetchSeq_;
        ev.vaddr = byte_addr;
        ev.isPrefetch = true;
        ev.issueCycle = now + cfg_.il1Latency;
        emitEvent(ev);
        il1_.access(byte_addr, false, true);
    }
    prefetchScratch_.clear();
}

// -------------------------------------------------------------------
// Idle-cycle skipping support
// -------------------------------------------------------------------

void
DetailedCore::plan(std::uint64_t now)
{
    // Each stage's next chance to work, given the state this tick
    // left.  A stage waiting on another stage's work (a full fetch
    // buffer, a branch still to resolve, a producer not yet issued)
    // adds nothing: that work comes first and re-plans.
    std::uint64_t work = UINT64_MAX;
    std::uint64_t legacy = UINT64_MAX;
    auto both = [&](std::uint64_t c) {
        work = std::min(work, c);
        legacy = std::min(legacy, c);
    };

    if (stalledBranchSeq_ == kNoDep &&
        fetchBuffer_.size() < cfg_.fetchBufferSize)
        both(fetchStallUntil_);

    // A full ROB/RS/LDQ/STQ holds dispatch until a retire or an
    // issue frees it.
    if (!fetchBuffer_.empty()) {
        const FetchedUop &f = fetchBuffer_.front();
        legacy = std::min(legacy, f.readyCycle);
        if (!dispatchBlocked(f.uop.kind))
            work = std::min(work, f.readyCycle);
    }

    if (robHeadSeq_ != robTailSeq_) {
        const RobEntry &h = entry(robHeadSeq_);
        if (h.done)
            both(h.completion);
    }

    // An MSHR frees nothing by itself; it matters only to a load
    // that misses DL1 while every MSHR is busy.
    std::uint64_t mshr_free = 0;
    if (!dl1Mshrs_.empty()) {
        std::uint64_t first = UINT64_MAX;
        for (const Dl1Mshr &m : dl1Mshrs_)
            first = std::min(first, m.completion);
        legacy = std::min(legacy, first);
        if (dl1Mshrs_.size() >= cfg_.dl1Mshrs)
            mshr_free = first;
    }

    // An RS entry whose producers have all executed is ready at the
    // last producer's completion.
    for (std::uint64_t seq : rsQueue_) {
        const RobEntry &e = entry(seq);
        std::uint64_t ready = 0;
        bool known = true;
        for (std::uint64_t dep : {e.dep1Seq, e.dep2Seq}) {
            if (dep == kNoDep || dep < robHeadSeq_)
                continue;
            const RobEntry &p = entry(dep);
            if (!p.done) {
                known = false;
                break;
            }
            ready = std::max(ready, p.completion);
        }
        if (!known)
            continue;
        legacy = std::min(legacy, ready);
        if (e.kind == OpKind::Load && ready < mshr_free &&
            !dl1_.probe(e.addr))
            ready = mshr_free;
        work = std::min(work, ready);
    }

    nextWork_ = work == UINT64_MAX ? work : std::max(work, now + 1);
    legacyEvent_ = legacy;
}

std::uint64_t
DetailedCore::nextEventCycle(std::uint64_t now) const
{
    return nextWork_ == UINT64_MAX ? nextWork_
                                   : std::max(nextWork_, now + 1);
}

std::uint64_t
DetailedCore::legacyEventCycle(std::uint64_t now) const
{
    return legacyEvent_ == UINT64_MAX
               ? legacyEvent_
               : std::max(legacyEvent_, now + 1);
}

} // namespace wsel
