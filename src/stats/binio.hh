/**
 * @file
 * The little-endian binary codec shared by the checksummed on-disk
 * formats (campaign_v3, adaptive, fidelity): append helpers for the
 * writers, a bounds-checked Reader, and the load-and-verify pair
 * slurp()/checkedBody(). Every decode failure throws CacheInvalid,
 * so cache readers can quarantine and regenerate.
 */

#ifndef WSEL_STATS_BINIO_HH
#define WSEL_STATS_BINIO_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>

#include "stats/persist.hh"

namespace wsel::persist
{

inline void
appendU8(std::string &out, std::uint8_t v)
{
    out.push_back(static_cast<char>(v));
}

inline void
appendU32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>(v >> (8 * i)));
}

inline void
appendU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>(v >> (8 * i)));
}

inline void
appendF64(std::string &out, double v)
{
    appendU64(out, std::bit_cast<std::uint64_t>(v));
}

/** u32 length, then the bytes. */
inline void
appendString(std::string &out, const std::string &s)
{
    appendU32(out, static_cast<std::uint32_t>(s.size()));
    out.append(s);
}

/** Append the FNV-1a of everything written so far. */
inline void
appendChecksum(std::string &out)
{
    appendU64(out, fnv1a(out));
}

/** Bounds-checked little-endian reader over a loaded file. */
class Reader
{
  public:
    Reader(std::string_view data, const std::string &what)
        : data_(data), what_(what)
    {
    }

    void
    expectMagic(const char (&magic)[8])
    {
        char got[8];
        bytes(got, 8);
        if (std::memcmp(got, magic, 8) != 0)
            throw CacheInvalid(what_ + ": bad magic");
    }

    std::uint8_t
    u8()
    {
        unsigned char b;
        bytes(&b, 1);
        return b;
    }

    std::uint32_t
    u32()
    {
        unsigned char b[4];
        bytes(b, 4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        unsigned char b[8];
        bytes(b, 8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
        return v;
    }

    double f64() { return std::bit_cast<double>(u64()); }

    std::string
    str()
    {
        const std::uint32_t n = u32();
        if (n > remaining())
            throw CacheInvalid(what_ + ": truncated string");
        std::string s(data_.substr(pos_, n));
        pos_ += n;
        return s;
    }

    std::size_t remaining() const { return data_.size() - pos_; }
    std::size_t pos() const { return pos_; }

    void
    bytes(void *out, std::size_t n)
    {
        if (n > remaining())
            throw CacheInvalid(what_ + ": truncated");
        std::memcpy(out, data_.data() + pos_, n);
        pos_ += n;
    }

  private:
    std::string_view data_;
    std::string what_;
    std::size_t pos_ = 0;
};

/** The whole file at @p path; CacheInvalid when unreadable. */
inline std::string
slurp(const std::string &path, const std::string &what)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw CacheInvalid(what + ": cannot open " + path);
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (!in.good() && !in.eof())
        throw CacheInvalid(what + ": read error on " + path);
    return data;
}

/** Split off and verify the trailing checksum; returns the body. */
inline std::string_view
checkedBody(const std::string &data, const std::string &what)
{
    if (data.size() < 8)
        throw CacheInvalid(what + ": too short for a checksum");
    const std::string_view body(data.data(), data.size() - 8);
    Reader tail(
        std::string_view(data.data() + body.size(), 8), what);
    const std::uint64_t want = tail.u64();
    if (fnv1a(body) != want)
        throw CacheInvalid(what + ": checksum mismatch");
    return body;
}

} // namespace wsel::persist

#endif // WSEL_STATS_BINIO_HH
