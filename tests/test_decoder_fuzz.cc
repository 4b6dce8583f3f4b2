/**
 * @file
 * Seeded mutation fuzzing of the decoders that read untrusted
 * bytes: campaign_v3 shards and manifests (persist_v3), adaptive
 * batch and decision files (persist_adaptive), mixed-fidelity
 * detailed batches (persist_fidelity), and the serve wire protocol
 * (decodeSpec, decodeLease, decodeStatus, FrameBuffer).
 *
 * Each decoder sees byte flips, truncations and splices of two
 * valid encodings.  Every mutant must either decode or be rejected
 * with the module's own error type — persist::CacheInvalid on disk,
 * serve::ProtocolError on the wire — never crash and never throw
 * anything else (a std::length_error or std::bad_alloc from a
 * damaged count is exactly the bug this hunts).  The disk formats
 * end in a checksum that rejects nearly every mutant at the first
 * check, so half of their mutants are re-sealed with a fresh
 * checksum to reach the field checks behind it.
 *
 * The seeds and iteration counts are fixed, so a failure reproduces
 * exactly and the whole suite stays well under two seconds; the
 * asan-ubsan preset runs it under the sanitizers like every other
 * test.  Self-contained: no libFuzzer or other engine needed.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <string>
#include <typeinfo>
#include <vector>

#include <gtest/gtest.h>

#include "fault_injection.hh"
#include "fidelity/persist_fidelity.hh"
#include "serve/protocol.hh"
#include "stats/binio.hh"
#include "stats/persist.hh"
#include "stats/persist_adaptive.hh"
#include "stats/persist_v3.hh"
#include "test_util.hh"

namespace wsel
{

namespace
{

namespace fs = std::filesystem;

/** Byte flips, truncations and splices of a two-input corpus. */
class Mutator
{
  public:
    explicit Mutator(std::uint64_t seed) : rng_(seed) {}

    std::size_t
    below(std::size_t n)
    {
        return n == 0 ? 0
                      : std::uniform_int_distribution<std::size_t>(
                            0, n - 1)(rng_);
    }

    std::string
    mutate(const std::vector<std::string> &corpus)
    {
        std::string s = corpus[below(corpus.size())];
        switch (below(3)) {
        case 0: { // flip 1-4 bytes, biased towards boundary values
            const std::size_t flips = 1 + below(4);
            for (std::size_t i = 0; i < flips && !s.empty(); ++i) {
                static constexpr unsigned char kPicks[] = {
                    0x00, 0xff, 0x7f, 0x80, 0x01};
                const std::size_t at = below(s.size());
                s[at] = static_cast<char>(
                    below(2) ? kPicks[below(sizeof(kPicks))]
                             : s[at] ^ (1 + below(255)));
            }
            break;
        }
        case 1: // truncate
            s.resize(below(s.size() + 1));
            break;
        default: { // head of one encoding, tail of another
            const std::string &t = corpus[below(corpus.size())];
            s = s.substr(0, below(s.size() + 1)) +
                t.substr(below(t.size() + 1));
            break;
        }
        }
        return s;
    }

    /**
     * Half the time, replace the trailing checksum with a valid
     * one for the mutated body.
     */
    std::string
    maybeReseal(std::string s)
    {
        if (s.size() >= 8 && below(2)) {
            s.resize(s.size() - 8);
            persist::appendChecksum(s);
        }
        return s;
    }

  private:
    std::mt19937_64 rng_;
};

/** How a fuzzing run's mutants fared. */
struct Tally
{
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    /** Rejections past the checksum: the re-sealed mutants reach
     *  the field checks. */
    std::size_t rejectedPastChecksum = 0;
};

std::string
hexHead(const std::string &s)
{
    std::string out;
    char buf[4];
    for (std::size_t i = 0; i < s.size() && i < 48; ++i) {
        std::snprintf(buf, sizeof(buf), "%02x",
                      static_cast<unsigned char>(s[i]));
        out += buf;
    }
    return out + (s.size() > 48 ? "..." : "");
}

/**
 * Feed @p iters mutants of @p corpus to @p decode; each must
 * return or throw Error.
 */
template <typename Error>
Tally
fuzz(const std::vector<std::string> &corpus, std::uint64_t seed,
     std::size_t iters, bool reseal,
     const std::function<void(const std::string &)> &decode)
{
    Mutator mut(seed);
    Tally t;
    for (std::size_t i = 0; i < iters; ++i) {
        std::string input = mut.mutate(corpus);
        if (reseal)
            input = mut.maybeReseal(std::move(input));
        try {
            decode(input);
            ++t.accepted;
        } catch (const Error &e) {
            ++t.rejected;
            if (std::string(e.what()).find("checksum") ==
                std::string::npos)
                ++t.rejectedPastChecksum;
        } catch (const std::exception &e) {
            ADD_FAILURE() << "iteration " << i << ": "
                          << typeid(e).name() << ": " << e.what()
                          << "\n  input (" << input.size()
                          << " bytes): " << hexHead(input);
            return t;
        } catch (...) {
            ADD_FAILURE() << "iteration " << i
                          << ": non-std exception\n  input: "
                          << hexHead(input);
            return t;
        }
    }
    return t;
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** Disk-format fuzzing runs in a per-process scratch directory. */
class DecoderFuzz : public ::testing::Test
{
  protected:
    static constexpr std::size_t kFileIters = 1000;
    static constexpr std::size_t kWireIters = 6000;

    void
    SetUp() override
    {
        dir_ = test::scratchPath("wsel_fuzz").string();
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    /** A range-mode manifest of 5 rows in 3-row shards. */
    static persist::V3Manifest
    rangeManifest()
    {
        persist::V3Manifest m;
        m.fingerprint = 0x1234abcd;
        m.simulator = "badco";
        m.cores = 2;
        m.targetUops = 1000;
        m.policies = {"LRU", "DIP"};
        m.benchmarks = {"a", "b", "c"};
        m.refIpc = {1.0, 0.5, 2.0};
        m.popBenchmarks = 3;
        m.popCores = 2;
        m.firstRank = 1;
        m.lastRank = 6;
        m.shardRows = 3;
        return m;
    }

    std::string dir_;
};

TEST_F(DecoderFuzz, CampaignShardReader)
{
    const persist::V3Manifest m = rangeManifest();
    std::vector<std::string> corpus;
    for (std::uint64_t s = 0; s < m.shardCount(); ++s) {
        std::vector<double> payload(m.rowsInShard(s) * 4);
        for (std::size_t i = 0; i < payload.size(); ++i)
            payload[i] = 0.25 * static_cast<double>(i + s);
        persist::writeV3Shard(dir_, m, s, payload);
        corpus.push_back(test::readFile(persist::v3ShardPath(dir_, s)));
    }
    const std::string target = persist::v3ShardPath(dir_, 0);
    const Tally t = fuzz<persist::CacheInvalid>(
        corpus, 1, kFileIters, true, [&](const std::string &in) {
            writeBytes(target, in);
            const std::vector<double> p =
                persist::readV3Shard(dir_, m, 0);
            EXPECT_EQ(p.size(), m.rowsInShard(0) * 4);
        });
    EXPECT_GT(t.rejectedPastChecksum, 0u);
}

TEST_F(DecoderFuzz, CampaignManifestReader)
{
    persist::V3Manifest range = rangeManifest();
    persist::V3Manifest list = range;
    list.firstRank = 0;
    list.lastRank = 4;
    list.ranks = {5, 0, 5, 2};
    std::vector<std::string> corpus;
    for (const persist::V3Manifest &m : {range, list}) {
        persist::writeV3Manifest(dir_, m);
        corpus.push_back(test::readFile(persist::v3ManifestPath(dir_)));
    }
    const std::string target = persist::v3ManifestPath(dir_);
    const Tally t = fuzz<persist::CacheInvalid>(
        corpus, 2, kFileIters, true, [&](const std::string &in) {
            writeBytes(target, in);
            const persist::V3Manifest m = persist::readV3Manifest(dir_);
            // Whatever decodes must describe a usable geometry.
            EXPECT_GT(m.shardCount(), 0u);
        });
    EXPECT_GT(t.rejectedPastChecksum, 0u);
}

TEST_F(DecoderFuzz, AdaptiveBatchAndDecisionReaders)
{
    constexpr std::uint64_t kFp = 0xfeedbeef;
    std::vector<std::string> batches;
    for (std::uint64_t rows : {3u, 6u}) {
        persist::AdaptiveBatch b;
        b.fingerprint = kFp;
        b.firstPosition = 7;
        for (std::uint64_t r = 0; r < rows; ++r) {
            b.ranks.push_back(r * 11);
            b.d.push_back(0.01 * static_cast<double>(r) - 0.02);
        }
        persist::writeAdaptiveBatch(dir_, b);
        batches.push_back(
            test::readFile(persist::adaptiveBatchPath(dir_, 0)));
    }
    const std::string batch_path = persist::adaptiveBatchPath(dir_, 0);
    const Tally tb = fuzz<persist::CacheInvalid>(
        batches, 3, kFileIters, true, [&](const std::string &in) {
            writeBytes(batch_path, in);
            const persist::AdaptiveBatch b =
                persist::readAdaptiveBatch(dir_, kFp, 0);
            EXPECT_EQ(b.ranks.size(), b.d.size());
        });
    EXPECT_GT(tb.rejectedPastChecksum, 0u);

    std::vector<std::string> decisions;
    for (std::size_t n : {0u, 5u}) {
        persist::AdaptiveDecisionRecord d;
        d.fingerprint = kFp;
        d.method = n ? "ranked-set" : "random";
        d.batches = n;
        d.workloads = 40 * n;
        d.confidence = 0.97;
        d.trajectory.assign(n, 0.5);
        persist::writeAdaptiveDecision(dir_, d);
        decisions.push_back(
            test::readFile(persist::adaptiveDecisionPath(dir_)));
    }
    const std::string decision_path =
        persist::adaptiveDecisionPath(dir_);
    const Tally td = fuzz<persist::CacheInvalid>(
        decisions, 4, kFileIters, true, [&](const std::string &in) {
            writeBytes(decision_path, in);
            (void)persist::readAdaptiveDecision(dir_);
        });
    EXPECT_GT(td.rejectedPastChecksum, 0u);
}

TEST_F(DecoderFuzz, FidelityBatchReader)
{
    constexpr std::uint64_t kFp = 0xd37a11ed;
    std::vector<std::string> corpus;
    for (std::uint64_t rows : {2u, 4u}) {
        fidelity::FidelityBatch b;
        b.detailedFingerprint = kFp;
        b.firstOrdinal = 3;
        b.cores = 2;
        b.numPolicies = 2;
        for (std::uint64_t r = 0; r < rows; ++r) {
            b.ranks.push_back(5 * r);
            for (int c = 0; c < 4; ++c)
                b.ipc.push_back(0.5 + 0.125 * c);
        }
        fidelity::writeFidelityBatch(dir_, b);
        corpus.push_back(
            test::readFile(fidelity::fidelityBatchPath(dir_, 0)));
    }
    const std::string target = fidelity::fidelityBatchPath(dir_, 0);
    const Tally t = fuzz<persist::CacheInvalid>(
        corpus, 10, kFileIters, true, [&](const std::string &in) {
            writeBytes(target, in);
            const fidelity::FidelityBatch b =
                fidelity::readFidelityBatch(dir_, kFp, 0);
            EXPECT_EQ(b.ipc.size(), b.ranks.size() * b.cores *
                                        b.numPolicies);
        });
    EXPECT_GT(t.rejectedPastChecksum, 0u);
}

serve::CampaignSpec
sampleSpec(std::uint32_t fidelity)
{
    serve::CampaignSpec s;
    s.cores = 4;
    s.targetUops = 20000;
    s.seed = 3;
    s.firstRank = 10;
    s.lastRank = 74;
    s.shardRows = 16;
    s.policies = {"LRU", "DIP", "DRRIP"};
    s.benchmarks = {"bzip2", "mcf", "lbm"};
    s.fidelity = fidelity;
    s.escalateBudget = fidelity ? 0.0 : 0.25;
    return s;
}

TEST_F(DecoderFuzz, WireMessageDecoders)
{
    std::vector<std::string> specs;
    for (std::uint32_t f : {0u, 1u}) {
        serve::WireWriter w;
        serve::encodeSpec(w, sampleSpec(f));
        specs.push_back(w.take());
    }
    const Tally ts = fuzz<serve::ProtocolError>(
        specs, 5, kWireIters, false, [](const std::string &in) {
            serve::WireReader r(in);
            (void)serve::decodeSpec(r);
            r.expectEnd();
        });
    EXPECT_GT(ts.rejected, 0u);

    std::vector<std::string> leases;
    for (std::uint32_t f : {0u, 1u}) {
        serve::LeaseMsg m;
        m.leaseId = 9 + f;
        m.campaignId = 2;
        m.shard = 3 * f;
        m.ttlMs = 2000;
        m.fingerprint = 0xabc;
        m.dir = f ? "store/c-1-2" : "store/c-3-4-detailed";
        m.spec = sampleSpec(f);
        leases.push_back(serve::encodeLease(m));
    }
    const Tally tl = fuzz<serve::ProtocolError>(
        leases, 6, kWireIters, false, [](const std::string &in) {
            (void)serve::decodeLease(in);
        });
    EXPECT_GT(tl.rejected, 0u);

    std::vector<std::string> statuses;
    for (std::uint64_t n : {0u, 7u}) {
        serve::StatusMsg m;
        m.state = n ? serve::CampaignState::Running
                    : serve::CampaignState::Failed;
        m.shardsTotal = 8;
        m.shardsDone = n;
        m.dir = "store/x";
        m.message = n ? "" : "worker died";
        statuses.push_back(serve::encodeStatus(m));
    }
    const Tally tst = fuzz<serve::ProtocolError>(
        statuses, 7, kWireIters, false, [](const std::string &in) {
            (void)serve::decodeStatus(in);
        });
    EXPECT_GT(tst.rejected, 0u);
}

TEST_F(DecoderFuzz, FrameBufferStreams)
{
    // Two streams of several back-to-back frames each; mutants are
    // fed in random pieces and every frame that pops out is decoded
    // by its type, as the coordinator and worker loops do.
    serve::WireWriter spec;
    serve::encodeSpec(spec, sampleSpec(0));
    serve::LeaseMsg lease;
    lease.dir = "store/c";
    lease.spec = sampleSpec(1);
    serve::StatusMsg status;
    status.dir = "d";
    const std::vector<std::string> corpus = {
        serve::encodeFrame(serve::MsgType::Submit, spec.bytes()) +
            serve::encodeFrame(serve::MsgType::RequestLease, "") +
            serve::encodeFrame(serve::MsgType::Lease,
                               serve::encodeLease(lease)),
        serve::encodeFrame(serve::MsgType::StatusReply,
                           serve::encodeStatus(status)) +
            serve::encodeFrame(serve::MsgType::Lease,
                               serve::encodeLease(lease)) +
            serve::encodeFrame(serve::MsgType::Shutdown, ""),
    };
    std::mt19937_64 pieces(8);
    std::size_t frames = 0;
    const Tally t = fuzz<serve::ProtocolError>(
        corpus, 9, kWireIters, false, [&](const std::string &in) {
            serve::FrameBuffer fb;
            std::size_t at = 0;
            while (at < in.size()) {
                const std::size_t n = std::min<std::size_t>(
                    in.size() - at, 1 + pieces() % 64);
                fb.feed(in.data() + at, n);
                at += n;
                while (const auto f = fb.next()) {
                    ++frames;
                    switch (f->type) {
                    case serve::MsgType::Submit: {
                        serve::WireReader r(f->body);
                        (void)serve::decodeSpec(r);
                        r.expectEnd();
                        break;
                    }
                    case serve::MsgType::Lease:
                        (void)serve::decodeLease(f->body);
                        break;
                    case serve::MsgType::StatusReply:
                        (void)serve::decodeStatus(f->body);
                        break;
                    default:
                        break;
                    }
                }
            }
        });
    EXPECT_GT(t.accepted, 0u);
    EXPECT_GT(t.rejected, 0u);
    EXPECT_GT(frames, 0u);
}

} // namespace

} // namespace wsel
