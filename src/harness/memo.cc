#include "memo.hh"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <system_error>

#include "sim/log.hh"

namespace swsm::memo
{

namespace
{

constexpr std::uint32_t kResultMagic = 0x32525753; // "SWR2"
constexpr std::uint32_t kBaselineMagic = 0x31425753; // "SWB1"

void
putU32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putF64(std::string &out, double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    putU64(out, bits);
}

void
putStr(std::string &out, std::string_view s)
{
    putU32(out, static_cast<std::uint32_t>(s.size()));
    out.append(s);
}

/** Bounds-checked little-endian reader over one blob. */
struct Reader
{
    std::string_view in;
    std::size_t pos = 0;
    bool ok = true;

    bool
    need(std::size_t n)
    {
        if (!ok || in.size() - pos < n)
            ok = false;
        return ok;
    }

    std::uint32_t
    u32()
    {
        if (!need(4))
            return 0;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(
                     static_cast<std::uint8_t>(in[pos + i]))
                << (8 * i);
        pos += 4;
        return v;
    }

    std::uint64_t
    u64()
    {
        if (!need(8))
            return 0;
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<std::uint8_t>(in[pos + i]))
                << (8 * i);
        pos += 8;
        return v;
    }

    double
    f64()
    {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, 8);
        return v;
    }

    std::uint8_t
    u8()
    {
        if (!need(1))
            return 0;
        return static_cast<std::uint8_t>(in[pos++]);
    }

    std::string
    str()
    {
        const std::uint32_t n = u32();
        if (!need(n))
            return {};
        std::string s(in.substr(pos, n));
        pos += n;
        return s;
    }
};

std::uint64_t
fnv1a(std::string_view data)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : data) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace

std::string
encodeResult(const ExperimentResult &r)
{
    std::string out;
    putU32(out, kResultMagic);
    putStr(out, r.workload);
    putStr(out, r.config);
    putStr(out, r.protocol);
    putU64(out, r.parallelCycles);
    out.push_back(r.verified ? 1 : 0);
    putF64(out, r.hostSeconds);

    putU64(out, r.stats.totalCycles);
    putU32(out, static_cast<std::uint32_t>(r.stats.finishTimes.size()));
    for (const Cycles t : r.stats.finishTimes)
        putU64(out, t);

    const MetricsSnapshot &m = r.stats.metrics;
    putU32(out, static_cast<std::uint32_t>(m.counters.size()));
    for (const auto &[name, v] : m.counters) {
        putStr(out, name);
        putU64(out, v);
    }
    putU32(out, static_cast<std::uint32_t>(m.gauges.size()));
    for (const auto &[name, v] : m.gauges) {
        putStr(out, name);
        putF64(out, v);
    }
    putU32(out, static_cast<std::uint32_t>(m.histograms.size()));
    for (const auto &[name, h] : m.histograms) {
        putStr(out, name);
        putU64(out, h.total);
        putU32(out, static_cast<std::uint32_t>(h.buckets.size()));
        for (const std::uint64_t count : h.buckets)
            putU64(out, count);
    }
    return out;
}

bool
decodeResult(std::string_view blob, ExperimentResult &out)
{
    Reader rd{blob};
    if (rd.u32() != kResultMagic || !rd.ok)
        return false;

    ExperimentResult r;
    r.workload = rd.str();
    r.config = rd.str();
    r.protocol = rd.str();
    r.parallelCycles = rd.u64();
    r.verified = rd.u8() != 0;
    r.hostSeconds = rd.f64();

    r.stats.totalCycles = rd.u64();
    const std::uint32_t np = rd.u32();
    for (std::uint32_t i = 0; i < np && rd.ok; ++i)
        r.stats.finishTimes.push_back(rd.u64());

    MetricsSnapshot &m = r.stats.metrics;
    const std::uint32_t nc = rd.u32();
    for (std::uint32_t i = 0; i < nc && rd.ok; ++i) {
        std::string name = rd.str();
        const std::uint64_t v = rd.u64();
        m.counters.emplace_back(std::move(name), v);
    }
    const std::uint32_t ng = rd.u32();
    for (std::uint32_t i = 0; i < ng && rd.ok; ++i) {
        std::string name = rd.str();
        const double v = rd.f64();
        m.gauges.emplace_back(std::move(name), v);
    }
    const std::uint32_t nh = rd.u32();
    for (std::uint32_t i = 0; i < nh && rd.ok; ++i) {
        std::string name = rd.str();
        HistogramData h;
        h.total = rd.u64();
        const std::uint32_t nb = rd.u32();
        for (std::uint32_t b = 0; b < nb && rd.ok; ++b)
            h.buckets.push_back(rd.u64());
        m.histograms.emplace_back(std::move(name), std::move(h));
    }
    if (!rd.ok || rd.pos != blob.size())
        return false;
    out = std::move(r);
    return true;
}

std::string
encodeBaseline(Cycles seq)
{
    std::string out;
    putU32(out, kBaselineMagic);
    putU64(out, seq);
    return out;
}

bool
decodeBaseline(std::string_view blob, Cycles &out)
{
    Reader rd{blob};
    if (rd.u32() != kBaselineMagic)
        return false;
    const std::uint64_t v = rd.u64();
    if (!rd.ok || rd.pos != blob.size())
        return false;
    out = v;
    return true;
}

bool
load(const std::string &dir, const std::string &key, std::string &blob)
{
    std::ifstream in(dir + "/" + key, std::ios::binary);
    if (!in)
        return false;
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (in.bad() || data.size() < 8)
        return false;
    const std::size_t n = data.size() - 8;
    Reader sum{std::string_view(data).substr(n)};
    if (sum.u64() != fnv1a(std::string_view(data).substr(0, n)))
        return false;
    data.resize(n);
    blob = std::move(data);
    return true;
}

bool
store(const std::string &dir, const std::string &key,
      std::string_view blob)
{
    namespace fs = std::filesystem;
    const fs::path path = fs::path(dir) / key;
    std::error_code ec;
    fs::create_directories(path.parent_path(), ec);
    if (ec) {
        SWSM_WARN("memo: cannot create %s: %s",
                  path.parent_path().c_str(), ec.message().c_str());
        return false;
    }

    std::string data(blob);
    putU64(data, fnv1a(blob));
    std::string tmp = path.string() + ".tmp.XXXXXX";
    const int fd = ::mkstemp(tmp.data());
    if (fd < 0) {
        SWSM_WARN("memo: cannot create a temporary file for %s: %s",
                  path.c_str(), std::strerror(errno));
        return false;
    }
    bool ok = ::write(fd, data.data(), data.size()) ==
        static_cast<ssize_t>(data.size());
    ok = ::close(fd) == 0 && ok;
    if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
        SWSM_WARN("memo: cannot write %s: %s", path.c_str(),
                  std::strerror(errno));
        ::unlink(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace swsm::memo
