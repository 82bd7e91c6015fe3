// Shared pieces of afsbench: clock, seeded generator, series
// names, the in-memory span recorder and the metric list.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "afs.hpp"

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// SplitMix64: the benchmark owns its input generator so that inputs depend
// on the seed alone, never on library code.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

inline void FillRandom(afs::MutableByteSpan out, std::uint64_t seed) {
  Rng rng(seed);
  std::size_t i = 0;
  for (; i + 8 <= out.size(); i += 8) {
    const std::uint64_t v = rng.Next();
    std::memcpy(out.data() + i, &v, 8);
  }
  for (; i < out.size(); ++i) out[i] = static_cast<std::uint8_t>(rng.Next());
}

// The series of every workload: the four strategies that can seek and
// scatter, then the paper's Baseline for the workload's path.
inline constexpr int kSeriesCount = 5;
inline constexpr int kStrategyCount = 4;
inline constexpr int kDirect = 2;
inline constexpr int kBaseline = 4;
inline constexpr afs::core::Strategy kStrategies[kStrategyCount] = {
    afs::core::Strategy::kProcessControl, afs::core::Strategy::kThread,
    afs::core::Strategy::kDirect, afs::core::Strategy::kLoop};

inline std::string SeriesName(int series) {
  return series == kBaseline
             ? std::string("baseline")
             : std::string(afs::core::StrategyName(kStrategies[series]));
}

// Nearest-rank percentile, q in [0, 1].
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const std::size_t k = std::min(
      v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 0.5);
}

// Latency histogram over nanoseconds: 1 ns bins below 4096 ns, then 128
// bins per power of two (under 0.8% wide).  Percentiles interpolate
// linearly inside the bin that holds the rank, so a median of clock ticks
// still reads as a continuous value.
class Histogram {
 public:
  void Add(std::int64_t ns) {
    ++bins_[Bin(ns > 0 ? static_cast<std::uint64_t>(ns) : 0)];
    ++count_;
  }
  std::uint64_t count() const { return count_; }
  double PercentileUs(double q) const {
    const double rank = q * static_cast<double>(count_);
    double below = 0;
    for (std::size_t b = 0; b < kBins; ++b) {
      const auto n = static_cast<double>(bins_[b]);
      if (n > 0 && below + n >= rank) {
        const auto [low, width] = Bounds(b);
        return (low + width * (rank - below) / n) / 1e3;
      }
      below += n;
    }
    return 0;
  }
  // Mean of the values ranked between q_lo and q_hi, each bin's count
  // spread evenly over its width.  Around the median this is a smoothed
  // median: it moves smoothly with the mix of a multimodal distribution
  // instead of jumping between modes.
  double MeanBetweenUs(double q_lo, double q_hi) const {
    const double lo = q_lo * static_cast<double>(count_);
    const double hi = q_hi * static_cast<double>(count_);
    double below = 0, sum = 0, mass = 0;
    for (std::size_t b = 0; b < kBins && below < hi; ++b) {
      const auto n = static_cast<double>(bins_[b]);
      const double from = std::max(lo, below), to = std::min(hi, below + n);
      if (n > 0 && to > from) {
        const auto [low, width] = Bounds(b);
        const double mid = ((from - below) + (to - below)) / (2 * n);
        sum += (to - from) * (low + width * mid);
        mass += to - from;
      }
      below += n;
    }
    return mass > 0 ? sum / mass / 1e3 : 0;
  }

 private:
  static constexpr std::size_t kLinear = 4096;  // 2^12
  static constexpr std::size_t kSub = 128;      // 2^7
  static constexpr int kMaxExp = 44;            // ~4.8 hours
  static constexpr std::size_t kBins = kLinear + (kMaxExp - 12 + 1) * kSub;

  static std::size_t Bin(std::uint64_t v) {
    if (v < kLinear) return static_cast<std::size_t>(v);
    const int e = std::min(63 - __builtin_clzll(v), kMaxExp);
    const std::uint64_t sub = std::min<std::uint64_t>((v >> (e - 7)) - kSub, kSub - 1);
    return kLinear + static_cast<std::size_t>(e - 12) * kSub +
           static_cast<std::size_t>(sub);
  }
  static std::pair<double, double> Bounds(std::size_t bin) {
    if (bin < kLinear) return {static_cast<double>(bin), 1.0};
    const std::size_t j = bin - kLinear;
    const int shift = static_cast<int>(12 + j / kSub) - 7;
    return {static_cast<double>((kSub + j % kSub) << shift),
            static_cast<double>(std::uint64_t{1} << shift)};
  }

  std::vector<std::uint64_t> bins_ = std::vector<std::uint64_t>(kBins);
  std::uint64_t count_ = 0;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;
};
using Metrics = std::vector<Metric>;

// Spans kept in memory and written as JSON lines when the run ends.  Spans
// of one op or session share a trace id; `parent` links a span to the
// span that caused it (0 for a root).
struct Span {
  std::uint32_t name = 0;
  std::int32_t series = -1;
  std::uint64_t trace = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(std::size_t capacity) : capacity_(capacity) {
    spans_.reserve(capacity);
  }
  std::uint32_t Name(std::string_view name) {
    auto it = ids_.find(std::string(name));
    if (it != ids_.end()) return it->second;
    names_.emplace_back(name);
    return ids_[std::string(name)] = static_cast<std::uint32_t>(names_.size() - 1);
  }
  std::uint64_t NewId() { return ++next_id_; }
  void Record(const Span& span) {
    if (spans_.size() < capacity_) {
      spans_.push_back(span);
    } else {
      ++dropped_;
    }
  }
  std::uint64_t Record(std::uint32_t name, int series, std::uint64_t trace,
                       std::uint64_t parent, std::int64_t start_ns,
                       std::int64_t end_ns) {
    const std::uint64_t id = NewId();
    Record(Span{name, series, trace, id, parent, start_ns, end_ns});
    return id;
  }
  const std::vector<Span>& spans() const { return spans_; }
  const std::string& name(std::uint32_t id) const { return names_[id]; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::uint64_t next_id_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace perfbench
