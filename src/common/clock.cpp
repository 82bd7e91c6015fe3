#include "common/clock.hpp"

#include <algorithm>
#include <climits>
#include <thread>

namespace afs {

Deadline Deadline::In(Micros budget) noexcept {
  if (budget.count() <= 0) return Never();
  const TimePoint now = std::chrono::steady_clock::now();
  // A budget past the clock's range is no deadline at all.
  if (budget >= std::chrono::duration_cast<Micros>(kNever - now)) {
    return Never();
  }
  return Deadline(now + budget);
}

int Deadline::PollMillis() const noexcept {
  if (never()) return -1;
  const auto left = std::chrono::ceil<std::chrono::milliseconds>(
      at_ - std::chrono::steady_clock::now());
  return static_cast<int>(std::clamp<std::int64_t>(left.count(), 0, INT_MAX));
}

Micros Deadline::Slice(Micros cap) const noexcept {
  if (never()) return cap;
  return std::clamp(
      std::chrono::ceil<Micros>(at_ - std::chrono::steady_clock::now()),
      Micros{0}, cap);
}

void SteadyClock::SleepFor(Micros duration) {
  if (duration.count() > 0) std::this_thread::sleep_for(duration);
}

SteadyClock& SteadyClock::Instance() {
  static SteadyClock clock;
  return clock;
}

void ManualClock::SleepFor(Micros duration) {
  if (duration.count() <= 0) return;
  const std::int64_t deadline =
      now_us_.load(std::memory_order_acquire) + duration.count();
  MutexLock lock(mu_);
  while (now_us_.load(std::memory_order_acquire) < deadline) cv_.Wait(mu_);
}

void ManualClock::Advance(Micros delta) {
  {
    MutexLock lock(mu_);
    now_us_.fetch_add(delta.count(), std::memory_order_acq_rel);
  }
  cv_.NotifyAll();
}

}  // namespace afs
