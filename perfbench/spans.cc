#include "spans.hh"

#include <algorithm>
#include <sstream>

namespace perfbench
{

namespace
{

thread_local std::uint64_t tTop = 0;

} // namespace

SpanLog &
SpanLog::instance()
{
    static SpanLog log;
    return log;
}

void
SpanLog::enable(std::uint64_t run_id)
{
    std::lock_guard<std::mutex> g(mu_);
    enabled_ = true;
    runId_ = run_id;
    epoch_ = Clock::now();
    spans_.clear();
}

std::uint64_t
SpanLog::open(const std::string &name, std::uint64_t parent,
              Clock::time_point start)
{
    std::lock_guard<std::mutex> g(mu_);
    SpanRecord r;
    r.id = spans_.size() + 1;
    r.parent = parent;
    r.name = name;
    r.start = std::chrono::duration<double>(start - epoch_).count();
    spans_.push_back(std::move(r));
    return spans_.back().id;
}

void
SpanLog::close(std::uint64_t id, Clock::time_point end)
{
    std::lock_guard<std::mutex> g(mu_);
    spans_[id - 1].end =
        std::chrono::duration<double>(end - epoch_).count();
}

std::vector<SpanRecord>
SpanLog::records() const
{
    std::lock_guard<std::mutex> g(mu_);
    return spans_;
}

std::string
SpanLog::toJson() const
{
    const std::vector<SpanRecord> spans = records();
    std::ostringstream os;
    os.precision(9);
    os << "{\"run_id\": " << runId_ << ", \"spans\": [";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        os << (i ? ",\n" : "\n") << "{\"id\": " << s.id
           << ", \"parent\": " << s.parent << ", \"name\": \""
           << s.name << "\", \"start\": " << s.start
           << ", \"end\": " << s.end << "}";
    }
    os << "\n]}\n";
    return os.str();
}

Span::Span(const std::string &name, std::uint64_t parent)
    : start_(Clock::now()), prevTop_(tTop)
{
    SpanLog &log = SpanLog::instance();
    if (!log.enabled())
        return;
    id_ = log.open(name, parent == kInherit ? tTop : parent, start_);
    tTop = id_;
}

Span::~Span()
{
    if (id_ == 0)
        return;
    SpanLog::instance().close(id_, Clock::now());
    tTop = prevTop_;
}

std::uint64_t
currentSpan()
{
    return tTop;
}

std::map<std::string, SpanTotals>
spanTotals(const std::vector<SpanRecord> &spans)
{
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent != 0)
            children[spans[i].parent - 1].push_back(i);

    std::map<std::string, SpanTotals> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        std::vector<std::pair<double, double>> iv;
        for (std::size_t c : children[i])
            iv.emplace_back(std::max(spans[c].start, s.start),
                            std::min(spans[c].end, s.end));
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        double lo = 0.0, hi = -1.0;
        for (const auto &[a, b] : iv) {
            if (b <= a)
                continue;
            if (a > hi) {
                if (hi > lo)
                    covered += hi - lo;
                lo = a;
                hi = b;
            } else {
                hi = std::max(hi, b);
            }
        }
        if (hi > lo)
            covered += hi - lo;
        SpanTotals &t = out[s.name];
        ++t.count;
        t.total += s.end - s.start;
        t.self += std::max(0.0, s.end - s.start - covered);
    }
    return out;
}

} // namespace perfbench
