// Clock abstraction.  The simulated network (net::SimNet) models latency and
// bandwidth against a clock; tests use ManualClock for determinism while the
// benchmarks use the real steady clock.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "common/mutex.hpp"

namespace afs {

using Micros = std::chrono::microseconds;

// A millisecond count from outside the program (a spec key) as Micros,
// saturating at Micros::max() instead of overflowing; a negative count is
// 0.  A saturated budget is no deadline under Deadline::In.
constexpr Micros MillisToMicros(std::int64_t ms) noexcept {
  constexpr std::int64_t kLimit = Micros::max().count() / 1000;
  if (ms > kLimit) return Micros::max();
  return Micros{ms > 0 ? ms * 1000 : 0};
}

// One operation's time budget: a steady-clock instant, or never.  An op
// computes its deadline once and hands that one value to every wait it
// makes, so the budget covers the whole call, not each leg of it.
class Deadline {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  static constexpr Deadline Never() noexcept { return Deadline(kNever); }
  // `budget` from now; a non-positive budget means never (no clock read).
  static Deadline In(Micros budget) noexcept;
  // Implicit, so a `Micros` timeout passes wherever a deadline is taken.
  Deadline(Micros budget) noexcept : Deadline(In(budget)) {}  // NOLINT

  bool never() const noexcept { return at_ == kNever; }
  TimePoint at() const noexcept { return at_; }
  // poll(2) timeout: -1 when never, 0 once passed (an immediate kTimeout,
  // not "wait forever"), else the milliseconds left, rounded up.
  int PollMillis() const noexcept;
  // One slice of a sliced futex/condvar wait: `cap`, or what is left when
  // that is less; zero once passed.
  Micros Slice(Micros cap) const noexcept;
  friend bool operator<(Deadline a, Deadline b) { return a.at_ < b.at_; }

 private:
  static constexpr TimePoint kNever = TimePoint::max();
  constexpr explicit Deadline(TimePoint at) noexcept : at_(at) {}
  TimePoint at_;
};

class Clock {
 public:
  virtual ~Clock() = default;

  // Monotonic time since an arbitrary epoch.
  virtual Micros Now() const = 0;

  // Blocks the calling thread for the given duration (real or simulated).
  virtual void SleepFor(Micros duration) = 0;
};

// Wall-clock-backed implementation used by benchmarks and examples.
class SteadyClock final : public Clock {
 public:
  Micros Now() const override {
    return std::chrono::duration_cast<Micros>(
        std::chrono::steady_clock::now().time_since_epoch());
  }

  void SleepFor(Micros duration) override;

  // Process-wide instance; the clock is stateless so sharing is safe.
  static SteadyClock& Instance();
};

// Manually-advanced clock for deterministic tests.  SleepFor blocks until
// another thread Advance()s past the deadline, which lets tests single-step
// latency-sensitive code without real waiting.
class ManualClock final : public Clock {
 public:
  Micros Now() const override {
    return Micros(now_us_.load(std::memory_order_acquire));
  }

  void SleepFor(Micros duration) override;

  // Moves time forward and wakes sleepers whose deadlines passed.
  void Advance(Micros delta);

 private:
  // now_us_ is atomic rather than mu_-guarded: Now() is the hot read path
  // and must not contend with sleepers.  mu_ only serializes the
  // Advance/SleepFor wakeup protocol.
  std::atomic<std::int64_t> now_us_{0};
  Mutex mu_;
  CondVar cv_;
};

}  // namespace afs
