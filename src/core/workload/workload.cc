#include "core/workload/workload.hh"

#include <algorithm>

#include "stats/combinatorics.hh"
#include "stats/logging.hh"

namespace wsel
{

Workload::Workload(std::vector<std::uint32_t> benchmarks)
    : benchmarks_(std::move(benchmarks))
{
    if (benchmarks_.empty())
        WSEL_FATAL("a workload needs at least one benchmark");
    std::sort(benchmarks_.begin(), benchmarks_.end());
}

std::uint32_t
Workload::count(std::uint32_t b) const
{
    return static_cast<std::uint32_t>(
        std::count(benchmarks_.begin(), benchmarks_.end(), b));
}

void
workloadKeyInto(std::span<const std::uint32_t> benches,
                std::string &out)
{
    // "b" + up-to-10-digit index + "+" separator per entry.
    out.reserve(out.size() + benches.size() * 12);
    char buf[16];
    for (std::size_t i = 0; i < benches.size(); ++i) {
        if (i)
            out.push_back('+');
        out.push_back('b');
        char *p = buf + sizeof(buf);
        std::uint32_t v = benches[i];
        do {
            *--p = static_cast<char>('0' + v % 10);
            v /= 10;
        } while (v);
        out.append(p, buf + sizeof(buf));
    }
}

std::string
Workload::key() const
{
    std::string out;
    keyInto(out);
    return out;
}

void
Workload::keyInto(std::string &out) const
{
    workloadKeyInto({benchmarks_.data(), benchmarks_.size()}, out);
}

WorkloadPopulation::WorkloadPopulation(std::uint32_t num_benchmarks,
                                       std::uint32_t cores)
    : b_(num_benchmarks), k_(cores)
{
    if (b_ == 0 || k_ == 0)
        WSEL_FATAL("population needs benchmarks and cores");
    size_ = multisetCount(b_, k_);
}

void
WorkloadPopulation::unrankInto(std::uint64_t index,
                               std::vector<std::uint32_t> &out) const
{
    if (index >= size_)
        WSEL_FATAL("workload index " << index
                                     << " out of population of "
                                     << size_);
    out.resize(k_);
    std::uint32_t min_val = 0;
    for (std::uint32_t j = 0; j < k_; ++j) {
        const std::uint32_t remaining = k_ - j - 1;
        for (std::uint32_t val = min_val;; ++val) {
            WSEL_ASSERT(val < b_, "unrank walked off the suite");
            // Sequences with position j equal to val: the remaining
            // slots draw from [val, B).
            const std::uint64_t block =
                multisetCount(b_ - val, remaining);
            if (index < block) {
                out[j] = val;
                min_val = val;
                break;
            }
            index -= block;
        }
    }
}

Workload
WorkloadPopulation::unrank(std::uint64_t index) const
{
    std::vector<std::uint32_t> v;
    unrankInto(index, v);
    return Workload(std::move(v));
}

std::uint64_t
WorkloadPopulation::rank(std::span<const std::uint32_t> benches) const
{
    if (benches.size() != k_)
        WSEL_FATAL("workload has " << benches.size()
                                   << " threads, expected " << k_);
    std::uint64_t index = 0;
    std::uint32_t min_val = 0;
    for (std::uint32_t j = 0; j < k_; ++j) {
        const std::uint32_t val = benches[j];
        if (val >= b_ || val < min_val)
            WSEL_FATAL("workload outside population domain");
        const std::uint32_t remaining = k_ - j - 1;
        for (std::uint32_t x = min_val; x < val; ++x)
            index += multisetCount(b_ - x, remaining);
        min_val = val;
    }
    return index;
}

std::uint64_t
WorkloadPopulation::rank(const Workload &w) const
{
    const auto &b = w.benchmarks();
    return rank(std::span<const std::uint32_t>(b.data(), b.size()));
}

Workload
WorkloadPopulation::sampleUniform(Rng &rng) const
{
    return unrank(rng.nextInt(size_));
}

void
WorkloadPopulation::checkRange(std::uint64_t first,
                               std::uint64_t last) const
{
    if (first > last || last > size_)
        WSEL_FATAL("rank range [" << first << ", " << last
                                  << ") outside population of "
                                  << size_);
}

std::vector<Workload>
WorkloadPopulation::enumerateAll(std::uint64_t limit) const
{
    if (size_ > limit)
        WSEL_FATAL("population of " << size_
                                    << " exceeds enumeration limit "
                                    << limit);
    std::vector<Workload> out;
    out.reserve(size_);
    forEach([&](std::uint64_t,
                std::span<const std::uint32_t> benches) {
        out.push_back(Workload(
            std::vector<std::uint32_t>(benches.begin(),
                                       benches.end())));
    });
    WSEL_ASSERT(out.size() == size_, "enumeration miscounted");
    return out;
}

std::uint64_t
WorkloadPopulation::occurrencesPerBenchmark() const
{
    return size_ * k_ / b_;
}

WorkloadCursor::WorkloadCursor(const WorkloadPopulation &pop,
                               std::uint64_t first_rank)
    : b_(pop.b_), rank_(first_rank), size_(pop.size_)
{
    if (first_rank > size_)
        WSEL_FATAL("cursor rank " << first_rank
                                  << " outside population of "
                                  << size_);
    if (first_rank < size_)
        pop.unrankInto(first_rank, cur_);
    else
        cur_.assign(pop.k_, 0); // one-past-the-end; benchmarks()
                                // meaningless but sized.
}

void
WorkloadCursor::next()
{
    WSEL_ASSERT(rank_ < size_, "advancing a cursor past the end");
    ++rank_;
    // Lexicographic successor of a nondecreasing sequence: bump the
    // rightmost element below B-1 and level everything after it.
    std::size_t j = cur_.size();
    while (j > 0 && cur_[j - 1] == b_ - 1)
        --j;
    if (j == 0)
        return; // was the last sequence; rank_ == size_ now.
    const std::uint32_t v = cur_[j - 1] + 1;
    for (std::size_t i = j - 1; i < cur_.size(); ++i)
        cur_[i] = v;
}

// -------------------------------------------------------------------
// WorkloadSet
// -------------------------------------------------------------------

WorkloadSet
WorkloadSet::populationRange(const WorkloadPopulation &pop,
                             std::uint64_t first, std::uint64_t last)
{
    pop.checkRange(first, last);
    WorkloadSet s;
    s.mode_ = Mode::Range;
    s.pop_ = pop;
    s.first_ = first;
    s.last_ = last;
    return s;
}

WorkloadSet
WorkloadSet::fromRanks(const WorkloadPopulation &pop,
                       std::vector<std::uint64_t> ranks)
{
    for (std::uint64_t r : ranks)
        if (r >= pop.size())
            WSEL_FATAL("rank " << r << " outside population of "
                               << pop.size());
    WorkloadSet s;
    s.mode_ = Mode::Ranks;
    s.pop_ = pop;
    s.ranks_ = std::move(ranks);
    return s;
}

std::size_t
WorkloadSet::size() const
{
    switch (mode_) {
      case Mode::Explicit:
        return list_.size();
      case Mode::Range:
        return static_cast<std::size_t>(last_ - first_);
      case Mode::Ranks:
        return ranks_.size();
    }
    return 0;
}

std::uint32_t
WorkloadSet::cores() const
{
    if (mode_ != Mode::Explicit)
        return pop_->cores();
    if (list_.empty())
        return 0;
    return static_cast<std::uint32_t>(list_[0].size());
}

Workload
WorkloadSet::operator[](std::size_t i) const
{
    switch (mode_) {
      case Mode::Explicit:
        return list_[i];
      case Mode::Range:
        return pop_->unrank(first_ + i);
      case Mode::Ranks:
        return pop_->unrank(ranks_[i]);
    }
    WSEL_FATAL("bad workload-set mode");
}

const WorkloadPopulation &
WorkloadSet::population() const
{
    if (!pop_)
        WSEL_FATAL("explicit workload set has no population shape");
    return *pop_;
}

std::uint64_t
WorkloadSet::firstRank() const
{
    if (mode_ != Mode::Range)
        WSEL_FATAL("workload set is not a population range");
    return first_;
}

std::uint64_t
WorkloadSet::rankAt(std::size_t i) const
{
    switch (mode_) {
      case Mode::Range:
        return first_ + i;
      case Mode::Ranks:
        return ranks_[i];
      case Mode::Explicit:
        WSEL_FATAL("explicit workload set has no ranks");
    }
    WSEL_FATAL("bad workload-set mode");
}

void
WorkloadSet::checkIndexRange(std::size_t first,
                             std::size_t last) const
{
    if (first > last || last > size())
        WSEL_FATAL("index range [" << first << ", " << last
                                   << ") outside workload set of "
                                   << size());
}

bool
WorkloadSet::operator==(const WorkloadSet &o) const
{
    if (size() != o.size() || cores() != o.cores())
        return false;
    bool equal = true;
    forEach([&](std::size_t i, std::span<const std::uint32_t> a) {
        if (!equal)
            return;
        o.forEach(i, i + 1,
                  [&](std::size_t,
                      std::span<const std::uint32_t> b) {
                      equal = std::equal(a.begin(), a.end(),
                                         b.begin(), b.end());
                  });
    });
    return equal;
}

} // namespace wsel
