/**
 * @file
 * Crash-safe persistence primitives shared by every on-disk cache
 * writer (campaign_v3 shards and manifests, BADCO model binaries):
 * atomic file replacement, advisory file locking, a streaming
 * checksum, corrupt-artifact quarantine, and test-only fault
 * injection kill-points.
 *
 * The design goal (see docs/ROBUSTNESS.md) is that a reader never
 * observes a half-written cache file: writers prepare the full
 * contents, write them to a temporary file in the same directory,
 * fsync, and atomically rename over the destination.  Concurrent
 * processes sharing a cache directory serialize on an advisory
 * lock file.  Artifacts that fail validation are renamed to
 * `<name>.corrupt[.N]` (never deleted) so they can be inspected.
 */

#ifndef WSEL_STATS_PERSIST_HH
#define WSEL_STATS_PERSIST_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace wsel::persist
{

/**
 * Thrown when a *cached* artifact fails validation (truncated,
 * checksum mismatch, version skew, malformed field).  Distinct from
 * FatalError so cache readers can quarantine and regenerate instead
 * of aborting; strict readers convert it to WSEL_FATAL.
 */
class CacheInvalid : public std::runtime_error
{
  public:
    explicit CacheInvalid(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/** Streaming FNV-1a 64-bit hash (checksums and fingerprints). */
class Fnv1a
{
  public:
    Fnv1a &
    update(const void *data, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ULL;
        }
        return *this;
    }

    Fnv1a &
    update(std::string_view s)
    {
        return update(s.data(), s.size());
    }

    Fnv1a &
    updateU64(std::uint64_t v)
    {
        // Byte-by-byte in a fixed order so the digest is
        // endianness-independent.
        for (int i = 0; i < 8; ++i) {
            const unsigned char b =
                static_cast<unsigned char>(v >> (8 * i));
            update(&b, 1);
        }
        return *this;
    }

    std::uint64_t digest() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** One-shot FNV-1a of a byte string. */
std::uint64_t fnv1a(std::string_view s);

/** Lower-case hex rendering of a 64-bit value (no 0x prefix). */
std::string toHex(std::uint64_t v);

/** Parse toHex output; false on malformed input. */
bool parseHex(std::string_view s, std::uint64_t &out);

/**
 * Atomically replace @p path with @p contents: write a temporary
 * file in the same directory, fsync it, and rename it over the
 * destination (then fsync the directory).  A crash at any point
 * leaves either the old file or the new file, never a mix.
 * WSEL_FATAL on I/O errors.
 *
 * Kill-points: "atomic.begin", "atomic.before-rename",
 * "atomic.after-rename".
 */
void atomicWriteFile(const std::string &path,
                     std::string_view contents);

/**
 * Rename a corrupt cache artifact out of the way, to
 * `<path>.corrupt` (or `.corrupt.N` when that exists).
 *
 * @return The new path, or "" when the rename failed.
 */
std::string quarantineFile(const std::string &path);

/**
 * Create @p dir and every missing parent, tolerating concurrent
 * creation: when several processes race to create the same tree
 * (e.g. the shared result-store root, or .wsel_cache on first
 * use), every one of them succeeds.  Unlike
 * std::filesystem::create_directories, an EEXIST from a component
 * that appeared between our existence check and our mkdir is
 * treated as success, not an error.  WSEL_FATAL when the tree
 * cannot be created (permission, ENOSPC, or a non-directory in the
 * way).
 */
void ensureDirTree(const std::string &dir);

/**
 * RAII advisory file lock (POSIX flock) so concurrent processes
 * sharing a cache directory cannot interleave produce/save cycles.
 * The lock file itself is left in place (removing it would race
 * with other lockers).  On platforms without flock this degrades to
 * a no-op lock that always succeeds.
 */
class FileLock
{
  public:
    FileLock() = default;

    /** Blocking acquire; WSEL_FATAL when the file cannot open. */
    explicit FileLock(const std::string &path);

    /** Non-blocking acquire; `held()` is false on contention. */
    static FileLock tryAcquire(const std::string &path);

    ~FileLock() { release(); }

    FileLock(const FileLock &) = delete;
    FileLock &operator=(const FileLock &) = delete;

    FileLock(FileLock &&other) noexcept { *this = std::move(other); }

    FileLock &
    operator=(FileLock &&other) noexcept
    {
        if (this != &other) {
            release();
            fd_ = other.fd_;
            other.fd_ = -1;
        }
        return *this;
    }

    bool held() const { return fd_ >= 0; }

    /** Unlock and close; idempotent. */
    void release();

  private:
    int fd_ = -1;
};

/**
 * Test-only fault injection.  Persistence code calls
 * faultPoint("name") at each kill-point; when a hook is installed
 * it receives the point name and the 1-based hit count for that
 * point and may throw to simulate a crash.  No hook installed
 * (production) makes faultPoint a cheap no-op.
 */
using FaultHook =
    std::function<void(const char *point, std::uint64_t hits)>;

/** Install (or with nullptr remove) the global fault hook. */
void setFaultHook(FaultHook hook);

/** Reset all per-point hit counters. */
void resetFaultPoints();

/** Hits recorded for @p point since the last reset. */
std::uint64_t faultPointHits(const char *point);

/** Record a hit on @p point and invoke the hook, if any. */
void faultPoint(const char *point);

} // namespace wsel::persist

#endif // WSEL_STATS_PERSIST_HH
