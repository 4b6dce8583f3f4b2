/**
 * @file
 * Hostile-input tests for the mixed-fidelity persistence layer
 * (fidelity/persist_fidelity.hh).  error_profile.bin, the
 * fidelity-bitmap escalation sidecar, fidelity batches and the
 * hybrid report are all untrusted disk input, so every reader must
 * answer damage with persist::CacheInvalid — never a crash, a giant
 * allocation, or an accepted lie.  Mirrors
 * test_manifest_validation.cc: every prefix truncation, every
 * single-byte bit flip, plus crafted files whose checksums are
 * re-sealed after individual fields are patched to lie.
 */

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fidelity/error_profile.hh"
#include "fidelity/persist_fidelity.hh"
#include "stats/persist.hh"
#include "test_util.hh"

namespace wsel
{

namespace
{

namespace fs = std::filesystem;

class FidelityPersist : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = test::scratchPath("wsel_fidelity_fuzz").string();
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    static std::string
    readBytes(const std::string &path)
    {
        std::ifstream in(path, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    }

    static void
    writeBytes(const std::string &path, const std::string &bytes)
    {
        std::ofstream out(path,
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }

    /** Re-seal the trailing FNV-1a after the body was patched. */
    static std::string
    reseal(std::string bytes)
    {
        bytes.resize(bytes.size() - 8);
        const std::uint64_t sum = persist::fnv1a(bytes);
        for (int i = 0; i < 8; ++i)
            bytes.push_back(
                static_cast<char>((sum >> (8 * i)) & 0xff));
        return bytes;
    }

    static std::string
    patchU32(std::string bytes, std::size_t at, std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            bytes[at + i] =
                static_cast<char>((v >> (8 * i)) & 0xff);
        return reseal(std::move(bytes));
    }

    static std::string
    patchU8(std::string bytes, std::size_t at, std::uint8_t v)
    {
        bytes[at] = static_cast<char>(v);
        return reseal(std::move(bytes));
    }

    /**
     * Patch the u64 @p offset_from_body_end bytes before the end
     * of the BODY (the file minus its 8-byte checksum) and
     * re-seal — a crafted file the trusted writer itself would
     * refuse to produce.
     */
    static std::string
    patchTailU64(std::string bytes,
                 std::size_t offset_from_body_end,
                 std::uint64_t value)
    {
        bytes.resize(bytes.size() - 8);
        const std::size_t at = bytes.size() - offset_from_body_end;
        for (int i = 0; i < 8; ++i)
            bytes[at + i] =
                static_cast<char>((value >> (8 * i)) & 0xff);
        const std::uint64_t sum = persist::fnv1a(bytes);
        for (int i = 0; i < 8; ++i)
            bytes.push_back(
                static_cast<char>((sum >> (8 * i)) & 0xff));
        return bytes;
    }

    std::string
    profilePath() const
    {
        return fidelity::errorProfilePath(dir_);
    }

    /**
     * A small deterministic profile: bench 0 ("alpha") has exactly
     * two observations — crafted-field tests below rely on that
     * count and on the 5-byte name length for byte offsets.
     */
    static fidelity::ErrorProfile
    sampleProfile()
    {
        fidelity::ErrorProfile p(
            0xabcdef1234567890ULL, {"alpha", "beta", "gamma"},
            {MpkiClass::Low, MpkiClass::Medium, MpkiClass::High},
            8);
        p.record(0, 1.00, 1.02);
        p.record(0, 0.97, 1.00);
        p.record(1, 0.88, 0.95);
        p.record(2, 0.70, 0.81);
        p.markApplied(42);
        return p;
    }

    std::string
    profileBytes()
    {
        fidelity::writeErrorProfile(profilePath(), sampleProfile());
        return readBytes(profilePath());
    }

    static fidelity::EscalationRecord
    sampleRecord()
    {
        fidelity::EscalationRecord rec;
        rec.badcoFingerprint = 0x1111222233334444ULL;
        rec.detailedFingerprint = 0x5555666677778888ULL;
        rec.seed = 7;
        rec.metric = "IPCT";
        rec.policyX = "LRU";
        rec.policyY = "DIP";
        rec.quantile = 0.95;
        rec.budgetFraction = 0.25;
        rec.threshold = 0.0;
        rec.firstRank = 0;
        rec.lastRank = 11; // 11 rows -> 2 bitmap bytes, 3 tail bits
        rec.resizeBitmap();
        rec.setEscalated(1);
        rec.setEscalated(4);
        rec.setEscalated(9);
        rec.escalatedCount = 3;
        return rec;
    }

    std::string
    recordBytes()
    {
        fidelity::writeEscalationRecord(dir_, sampleRecord());
        return readBytes(fidelity::escalationRecordPath(dir_));
    }

    static fidelity::FidelityBatch
    sampleBatch()
    {
        fidelity::FidelityBatch b;
        b.detailedFingerprint = 0x5555666677778888ULL;
        b.index = 0;
        b.firstOrdinal = 0;
        b.cores = 2;
        b.numPolicies = 2;
        b.ranks = {3, 5, 8};
        b.ipc.resize(3 * 2 * 2);
        for (std::size_t i = 0; i < b.ipc.size(); ++i)
            b.ipc[i] = 0.5 + 0.01 * static_cast<double>(i);
        return b;
    }

    std::string
    batchBytes()
    {
        fidelity::writeFidelityBatch(dir_, sampleBatch());
        return readBytes(fidelity::fidelityBatchPath(dir_, 0));
    }

    static fidelity::HybridReportRecord
    sampleReport()
    {
        fidelity::HybridReportRecord rep;
        rep.badcoFingerprint = 0x1111222233334444ULL;
        rep.detailedFingerprint = 0x5555666677778888ULL;
        rep.metric = "IPCT";
        rep.policyX = "LRU";
        rep.policyY = "DIP";
        rep.workloads = 11;
        rep.escalated = 3;
        rep.escalationFraction = 3.0 / 11.0;
        rep.meanD = 0.012;
        rep.sigma = 0.004;
        rep.se = 0.0012;
        rep.cv = 0.33;
        rep.confidence = 0.96;
        rep.modelLo = -0.002;
        rep.modelHi = 0.002;
        rep.comboLo = 0.007;
        rep.comboHi = 0.017;
        rep.yWins = 1;
        return rep;
    }

    std::string
    reportBytes()
    {
        fidelity::writeHybridReport(dir_, sampleReport());
        return readBytes(fidelity::hybridReportPath(dir_));
    }

    std::string dir_;
};

// ---------------------------------------------------------------
// error_profile.bin
// ---------------------------------------------------------------

TEST_F(FidelityPersist, ProfileRoundTrips)
{
    const fidelity::ErrorProfile p = sampleProfile();
    fidelity::writeErrorProfile(profilePath(), p);
    const fidelity::ErrorProfile back =
        fidelity::readErrorProfile(profilePath());
    EXPECT_EQ(back.suiteHash(), p.suiteHash());
    EXPECT_EQ(back.numBenchmarks(), p.numBenchmarks());
    EXPECT_EQ(back.benchmarkNames(), p.benchmarkNames());
    EXPECT_EQ(back.totalSamples(), p.totalSamples());
    EXPECT_TRUE(back.wasApplied(42));
    EXPECT_FALSE(back.wasApplied(43));
    for (std::uint32_t b = 0; b < 3; ++b)
        EXPECT_DOUBLE_EQ(back.errorBound(b, 0.95),
                         p.errorBound(b, 0.95))
            << "bench " << b;
}

TEST_F(FidelityPersist, ProfileMissingFileRejected)
{
    EXPECT_THROW(fidelity::readErrorProfile(profilePath()),
                 persist::CacheInvalid);
}

TEST_F(FidelityPersist, ProfileEveryTruncationRejected)
{
    const std::string full = profileBytes();
    ASSERT_GT(full.size(), 16u);
    for (std::size_t len = 0; len < full.size(); ++len) {
        writeBytes(profilePath(), full.substr(0, len));
        EXPECT_THROW(fidelity::readErrorProfile(profilePath()),
                     persist::CacheInvalid)
            << "accepted a profile truncated to " << len << " of "
            << full.size() << " bytes";
    }
}

TEST_F(FidelityPersist, ProfileEverySingleBitFlipRejected)
{
    const std::string full = profileBytes();
    for (std::size_t byte = 0; byte < full.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string damaged = full;
            damaged[byte] =
                static_cast<char>(damaged[byte] ^ (1 << bit));
            writeBytes(profilePath(), damaged);
            EXPECT_THROW(fidelity::readErrorProfile(profilePath()),
                         persist::CacheInvalid)
                << "byte " << byte << " bit " << bit;
        }
    }
}

// Crafted profiles: checksum-valid bytes whose fields lie.  Layout
// of the fixed prefix: magic[8], version u32 @8, suiteHash u64
// @12, window u32 @20, benchmark count u32 @24, then per benchmark
// name (u32 len @28 + bytes), MPKI class u8, and IntervalStats
// (n u64, mean f64, m2 f64, window-fill u32, values).

TEST_F(FidelityPersist, ProfileUnsupportedVersionRejected)
{
    writeBytes(profilePath(), patchU32(profileBytes(), 8, 99));
    EXPECT_THROW(fidelity::readErrorProfile(profilePath()),
                 persist::CacheInvalid);
}

TEST_F(FidelityPersist, ProfileZeroWindowRejected)
{
    writeBytes(profilePath(), patchU32(profileBytes(), 20, 0));
    EXPECT_THROW(fidelity::readErrorProfile(profilePath()),
                 persist::CacheInvalid);
}

TEST_F(FidelityPersist, ProfileImplausibleWindowRejected)
{
    writeBytes(profilePath(),
               patchU32(profileBytes(), 20, 100000));
    EXPECT_THROW(fidelity::readErrorProfile(profilePath()),
                 persist::CacheInvalid);
}

TEST_F(FidelityPersist, ProfileImplausibleBenchCountRejected)
{
    // Far over the cap: rejected before any allocation.
    writeBytes(profilePath(),
               patchU32(profileBytes(), 24, (1u << 20) + 1));
    EXPECT_THROW(fidelity::readErrorProfile(profilePath()),
                 persist::CacheInvalid);
    // Plausible-looking but one more benchmark than the payload
    // holds: the reader runs out of bytes, never over a buffer.
    writeBytes(profilePath(), patchU32(profileBytes(), 24, 4));
    EXPECT_THROW(fidelity::readErrorProfile(profilePath()),
                 persist::CacheInvalid);
}

TEST_F(FidelityPersist, ProfileImplausibleNameLengthRejected)
{
    writeBytes(profilePath(),
               patchU32(profileBytes(), 28, 100000));
    EXPECT_THROW(fidelity::readErrorProfile(profilePath()),
                 persist::CacheInvalid);
}

TEST_F(FidelityPersist, ProfileImplausibleMpkiClassRejected)
{
    // "alpha" is 5 bytes; its class byte sits at 28 + 4 + 5.
    writeBytes(profilePath(), patchU8(profileBytes(), 37, 7));
    EXPECT_THROW(fidelity::readErrorProfile(profilePath()),
                 persist::CacheInvalid);
}

TEST_F(FidelityPersist, ProfileWindowLargerThanLifetimeRejected)
{
    // Bench 0 has n = 2 lifetime samples and a window fill of 2;
    // claim a fill of 3 (still under the capacity of 8).  Fill
    // count u32 sits after the name (9), class (1) and the Welford
    // triple (24): 28 + 9 + 1 + 24 = 62.
    writeBytes(profilePath(), patchU32(profileBytes(), 62, 3));
    EXPECT_THROW(fidelity::readErrorProfile(profilePath()),
                 persist::CacheInvalid);
}

TEST_F(FidelityPersist, ProfileTrailingBytesRejected)
{
    std::string bytes = profileBytes();
    bytes.resize(bytes.size() - 8);
    bytes.push_back('\0');
    bytes = reseal(bytes + "XXXXXXXX"); // dummy sum, re-sealed
    writeBytes(profilePath(), bytes);
    EXPECT_THROW(fidelity::readErrorProfile(profilePath()),
                 persist::CacheInvalid);
}

// ---------------------------------------------------------------
// fidelity-bitmap.bin (the escalation sidecar)
// ---------------------------------------------------------------

TEST_F(FidelityPersist, EscalationRecordRoundTrips)
{
    const fidelity::EscalationRecord rec = sampleRecord();
    fidelity::writeEscalationRecord(dir_, rec);
    ASSERT_TRUE(fidelity::hasEscalationRecord(dir_));
    const fidelity::EscalationRecord back =
        fidelity::readEscalationRecord(dir_);
    EXPECT_EQ(back.badcoFingerprint, rec.badcoFingerprint);
    EXPECT_EQ(back.detailedFingerprint, rec.detailedFingerprint);
    EXPECT_EQ(back.seed, rec.seed);
    EXPECT_EQ(back.metric, rec.metric);
    EXPECT_EQ(back.policyX, rec.policyX);
    EXPECT_EQ(back.policyY, rec.policyY);
    EXPECT_DOUBLE_EQ(back.quantile, rec.quantile);
    EXPECT_DOUBLE_EQ(back.budgetFraction, rec.budgetFraction);
    EXPECT_EQ(back.firstRank, rec.firstRank);
    EXPECT_EQ(back.lastRank, rec.lastRank);
    EXPECT_EQ(back.escalatedCount, rec.escalatedCount);
    EXPECT_EQ(back.bitmap, rec.bitmap);
    for (std::uint64_t row = 0; row < rec.rows(); ++row)
        EXPECT_EQ(back.escalated(row), rec.escalated(row))
            << "row " << row;
}

TEST_F(FidelityPersist, EscalationRecordEveryTruncationRejected)
{
    const std::string full = recordBytes();
    const std::string path =
        fidelity::escalationRecordPath(dir_);
    for (std::size_t len = 0; len < full.size(); ++len) {
        writeBytes(path, full.substr(0, len));
        EXPECT_THROW(fidelity::readEscalationRecord(dir_),
                     persist::CacheInvalid)
            << "accepted a record truncated to " << len << " of "
            << full.size() << " bytes";
    }
}

TEST_F(FidelityPersist, EscalationRecordEverySingleBitFlipRejected)
{
    const std::string full = recordBytes();
    const std::string path =
        fidelity::escalationRecordPath(dir_);
    for (std::size_t byte = 0; byte < full.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string damaged = full;
            damaged[byte] =
                static_cast<char>(damaged[byte] ^ (1 << bit));
            writeBytes(path, damaged);
            EXPECT_THROW(fidelity::readEscalationRecord(dir_),
                         persist::CacheInvalid)
                << "byte " << byte << " bit " << bit;
        }
    }
}

// Crafted records: the body ends with firstRank u64, lastRank u64,
// escalatedCount u64, then the 2-byte bitmap, so from the body end
// the bitmap is at -2, escalatedCount at -10, lastRank at -18 and
// firstRank at -26.

TEST_F(FidelityPersist, EscalationRecordInvertedRangeRejected)
{
    const std::string path =
        fidelity::escalationRecordPath(dir_);
    writeBytes(path, patchTailU64(recordBytes(), 26, 100));
    EXPECT_THROW(fidelity::readEscalationRecord(dir_),
                 persist::CacheInvalid);
}

TEST_F(FidelityPersist, EscalationRecordBitmapSizeLieRejected)
{
    // lastRank claims 100 rows; the bitmap holds only 2 bytes.
    const std::string path =
        fidelity::escalationRecordPath(dir_);
    writeBytes(path, patchTailU64(recordBytes(), 18, 100));
    EXPECT_THROW(fidelity::readEscalationRecord(dir_),
                 persist::CacheInvalid);
}

TEST_F(FidelityPersist, EscalationRecordCountOverRowsRejected)
{
    const std::string path =
        fidelity::escalationRecordPath(dir_);
    writeBytes(path, patchTailU64(recordBytes(), 10, 50));
    EXPECT_THROW(fidelity::readEscalationRecord(dir_),
                 persist::CacheInvalid);
}

TEST_F(FidelityPersist, EscalationRecordPopcountLieRejected)
{
    // Three bits are set; claim four.
    const std::string path =
        fidelity::escalationRecordPath(dir_);
    writeBytes(path, patchTailU64(recordBytes(), 10, 4));
    EXPECT_THROW(fidelity::readEscalationRecord(dir_),
                 persist::CacheInvalid);
}

TEST_F(FidelityPersist, EscalationRecordStrayTailBitsRejected)
{
    // 11 rows use bits 0..2 of the last bitmap byte; set bit 5
    // (a row past the end).  The popcount over real rows still
    // matches, so only the stray-bit check can catch this.
    std::string bytes = recordBytes();
    const std::size_t last_body_byte = bytes.size() - 8 - 1;
    bytes[last_body_byte] = static_cast<char>(
        static_cast<unsigned char>(bytes[last_body_byte]) | 0x20);
    const std::string path =
        fidelity::escalationRecordPath(dir_);
    writeBytes(path, reseal(std::move(bytes)));
    EXPECT_THROW(fidelity::readEscalationRecord(dir_),
                 persist::CacheInvalid);
}

// ---------------------------------------------------------------
// fidelity-batch-*.bin
// ---------------------------------------------------------------

TEST_F(FidelityPersist, BatchRoundTrips)
{
    const fidelity::FidelityBatch b = sampleBatch();
    fidelity::writeFidelityBatch(dir_, b);
    const fidelity::FidelityBatch back =
        fidelity::readFidelityBatch(dir_, b.detailedFingerprint,
                                    0);
    EXPECT_EQ(back.ranks, b.ranks);
    EXPECT_EQ(back.ipc, b.ipc);
    EXPECT_EQ(back.cores, b.cores);
    EXPECT_EQ(back.numPolicies, b.numPolicies);
    EXPECT_EQ(back.firstOrdinal, b.firstOrdinal);
}

TEST_F(FidelityPersist, BatchFingerprintMismatchRejected)
{
    fidelity::writeFidelityBatch(dir_, sampleBatch());
    EXPECT_THROW(
        fidelity::readFidelityBatch(dir_, 0xdeadbeefULL, 0),
        persist::CacheInvalid);
}

TEST_F(FidelityPersist, BatchRenamedToWrongIndexRejected)
{
    // A batch file renamed to another index (e.g. by a hostile or
    // confused sync tool) must not be accepted as that index.
    const fidelity::FidelityBatch b = sampleBatch();
    fidelity::writeFidelityBatch(dir_, b);
    fs::copy_file(fidelity::fidelityBatchPath(dir_, 0),
                  fidelity::fidelityBatchPath(dir_, 1));
    EXPECT_THROW(fidelity::readFidelityBatch(
                     dir_, b.detailedFingerprint, 1),
                 persist::CacheInvalid);
}

TEST_F(FidelityPersist, BatchEveryTruncationRejected)
{
    const std::string full = batchBytes();
    const std::string path = fidelity::fidelityBatchPath(dir_, 0);
    const std::uint64_t fp = sampleBatch().detailedFingerprint;
    for (std::size_t len = 0; len < full.size(); ++len) {
        writeBytes(path, full.substr(0, len));
        EXPECT_THROW(fidelity::readFidelityBatch(dir_, fp, 0),
                     persist::CacheInvalid)
            << "accepted a batch truncated to " << len << " of "
            << full.size() << " bytes";
    }
}

TEST_F(FidelityPersist, BatchEverySingleBitFlipRejected)
{
    const std::string full = batchBytes();
    const std::string path = fidelity::fidelityBatchPath(dir_, 0);
    const std::uint64_t fp = sampleBatch().detailedFingerprint;
    for (std::size_t byte = 0; byte < full.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string damaged = full;
            damaged[byte] =
                static_cast<char>(damaged[byte] ^ (1 << bit));
            writeBytes(path, damaged);
            EXPECT_THROW(
                fidelity::readFidelityBatch(dir_, fp, 0),
                persist::CacheInvalid)
                << "byte " << byte << " bit " << bit;
        }
    }
}

// Crafted batches.  Fixed prefix layout: magic[8], version u32
// @8, index u32 @12, fingerprint u64 @16, cores u32 @24,
// numPolicies u32 @28, firstOrdinal u64 @32, row count u32 @40.

TEST_F(FidelityPersist, BatchDegenerateShapeRejected)
{
    const std::string path = fidelity::fidelityBatchPath(dir_, 0);
    const std::uint64_t fp = sampleBatch().detailedFingerprint;
    writeBytes(path, patchU32(batchBytes(), 24, 0)); // cores = 0
    EXPECT_THROW(fidelity::readFidelityBatch(dir_, fp, 0),
                 persist::CacheInvalid);
    writeBytes(path, patchU32(batchBytes(), 28, 0)); // policies
    EXPECT_THROW(fidelity::readFidelityBatch(dir_, fp, 0),
                 persist::CacheInvalid);
}

TEST_F(FidelityPersist, BatchRowCountLieRejected)
{
    const std::string path = fidelity::fidelityBatchPath(dir_, 0);
    const std::uint64_t fp = sampleBatch().detailedFingerprint;
    writeBytes(path, patchU32(batchBytes(), 40, 4)); // 3 -> 4
    EXPECT_THROW(fidelity::readFidelityBatch(dir_, fp, 0),
                 persist::CacheInvalid);
    writeBytes(path,
               patchU32(batchBytes(), 40, (1u << 20) + 1));
    EXPECT_THROW(fidelity::readFidelityBatch(dir_, fp, 0),
                 persist::CacheInvalid);
}

// ---------------------------------------------------------------
// hybrid.bin (the confidence report / commit point)
// ---------------------------------------------------------------

TEST_F(FidelityPersist, ReportRoundTrips)
{
    const fidelity::HybridReportRecord rep = sampleReport();
    fidelity::writeHybridReport(dir_, rep);
    ASSERT_TRUE(fidelity::hasHybridReport(dir_));
    const fidelity::HybridReportRecord back =
        fidelity::readHybridReport(dir_);
    EXPECT_EQ(back.badcoFingerprint, rep.badcoFingerprint);
    EXPECT_EQ(back.metric, rep.metric);
    EXPECT_EQ(back.workloads, rep.workloads);
    EXPECT_EQ(back.escalated, rep.escalated);
    EXPECT_DOUBLE_EQ(back.meanD, rep.meanD);
    EXPECT_DOUBLE_EQ(back.comboLo, rep.comboLo);
    EXPECT_DOUBLE_EQ(back.comboHi, rep.comboHi);
    EXPECT_EQ(back.yWins, rep.yWins);
}

TEST_F(FidelityPersist, ReportEveryTruncationRejected)
{
    const std::string full = reportBytes();
    const std::string path = fidelity::hybridReportPath(dir_);
    for (std::size_t len = 0; len < full.size(); ++len) {
        writeBytes(path, full.substr(0, len));
        EXPECT_THROW(fidelity::readHybridReport(dir_),
                     persist::CacheInvalid)
            << "accepted a report truncated to " << len << " of "
            << full.size() << " bytes";
    }
}

TEST_F(FidelityPersist, ReportEverySingleBitFlipRejected)
{
    const std::string full = reportBytes();
    const std::string path = fidelity::hybridReportPath(dir_);
    for (std::size_t byte = 0; byte < full.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string damaged = full;
            damaged[byte] =
                static_cast<char>(damaged[byte] ^ (1 << bit));
            writeBytes(path, damaged);
            EXPECT_THROW(fidelity::readHybridReport(dir_),
                         persist::CacheInvalid)
                << "byte " << byte << " bit " << bit;
        }
    }
}

// Crafted reports: the body ends with the yWins byte, preceded by
// ten f64s (comboHi at -9 ... escalationFraction at -81), then
// escalated u64 at -89 and workloads u64 at -97.

TEST_F(FidelityPersist, ReportEscalatedOverWorkloadsRejected)
{
    const std::string path = fidelity::hybridReportPath(dir_);
    writeBytes(path, patchTailU64(reportBytes(), 89, 12));
    EXPECT_THROW(fidelity::readHybridReport(dir_),
                 persist::CacheInvalid);
}

TEST_F(FidelityPersist, ReportNonBooleanVerdictRejected)
{
    std::string bytes = reportBytes();
    const std::size_t verdict_at = bytes.size() - 8 - 1;
    const std::string path = fidelity::hybridReportPath(dir_);
    writeBytes(path, patchU8(std::move(bytes), verdict_at, 2));
    EXPECT_THROW(fidelity::readHybridReport(dir_),
                 persist::CacheInvalid);
}

} // namespace

} // namespace wsel
