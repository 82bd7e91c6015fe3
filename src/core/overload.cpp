#include "core/overload.hpp"

#include <algorithm>
#include <cstdlib>

#include "obs/metrics.hpp"

namespace afs::core {

namespace {

// Retry hint when no token bucket is configured to derive one from: long
// enough that a retry loop is not a busy loop, short enough that a burst
// drains promptly once capacity frees.
constexpr Micros kDefaultRetryAfter{5'000};

// kBlock waits are sliced so a Release (or Close) is never missed for
// longer than this even if a notify races the wait.
constexpr Micros kBlockWaitSlice{10'000};

std::uint64_t BurstFor(const AdmissionGate::Limits& limits) {
  if (limits.burst_bytes != 0) return limits.burst_bytes;
  return std::max<std::uint64_t>(limits.rate_bytes_per_second, 4096);
}

// Process-wide shed/admit accounting (core.overload.* in
// docs/OBSERVABILITY.md).
void RecordAdmitted() {
  static obs::Counter& admitted =
      obs::Registry::Global().GetCounter("core.overload.admitted");
  admitted.Add(1);
}

void RecordShed(Micros retry_after) {
  static obs::Counter& shed =
      obs::Registry::Global().GetCounter("core.overload.shed");
  static obs::Histogram& hint =
      obs::Registry::Global().GetHistogram("core.overload.retry_after_ms");
  shed.Add(1);
  hint.Record(static_cast<std::uint64_t>(
      std::max<std::int64_t>(retry_after.count() / 1000, 0)));
}

void AddQueueBytes(std::int64_t delta) {
  static obs::Gauge& queue_bytes =
      obs::Registry::Global().GetGauge("core.overload.queue_bytes");
  queue_bytes.Add(delta);
}

}  // namespace

AdmissionGate::Limits AdmissionLimitsFromSpec(
    const std::map<std::string, std::string>& config) {
  AdmissionGate::Limits limits;
  auto parse = [&config](const char* key) -> std::uint64_t {
    auto it = config.find(key);
    if (it == config.end()) return 0;
    return std::strtoull(it->second.c_str(), nullptr, 10);
  };
  limits.rate_bytes_per_second = parse("admit_bps");
  limits.burst_bytes = parse("admit_burst");
  return limits;
}

bool AdmissionConfigured(const AdmissionGate::Limits& limits) noexcept {
  return limits.max_queue_bytes != 0 || limits.rate_bytes_per_second != 0;
}

Status AdmitWithPolicy(AdmissionGate& gate, std::size_t cost,
                       OverloadPolicy policy, Deadline deadline) {
  // kBrownout's grace: long enough for a draining queue to free capacity,
  // short enough that a saturated one still sheds promptly.
  constexpr Micros kBrownoutGrace{5'000};
  constexpr Micros kDefaultBlockBound{1'000'000};
  switch (policy) {
    case OverloadPolicy::kShed:
      return gate.Admit(cost);
    case OverloadPolicy::kBrownout:
      return gate.AdmitFor(cost,
                           std::min(deadline, Deadline::In(kBrownoutGrace)));
    case OverloadPolicy::kBlock:
      return gate.AdmitFor(cost, deadline.never()
                                     ? Deadline::In(kDefaultBlockBound)
                                     : deadline);
  }
  return gate.Admit(cost);
}

std::size_t ControlMessageCost(const sentinel::ControlMessage& message)
    noexcept {
  // Fixed per-op overhead keeps zero-byte ops (seek, flush, lock) from
  // admitting for free: a rate budget must see them too.
  constexpr std::size_t kMessageOverhead = 64;
  std::size_t bulk = message.inline_in.size();
  for (ByteSpan segment : message.vec_in) bulk += segment.size();
  bulk = std::max<std::size_t>(bulk, message.length);
  return kMessageOverhead + message.payload.size() + bulk;
}

std::string_view OverloadPolicyName(OverloadPolicy policy) noexcept {
  switch (policy) {
    case OverloadPolicy::kShed: return "shed";
    case OverloadPolicy::kBrownout: return "brownout";
    case OverloadPolicy::kBlock: return "block";
  }
  return "?";
}

Result<OverloadPolicy> ParseOverloadPolicy(std::string_view name) {
  if (name == "shed") return OverloadPolicy::kShed;
  if (name == "brownout") return OverloadPolicy::kBrownout;
  if (name == "block") return OverloadPolicy::kBlock;
  return InvalidArgumentError("unknown overload policy: " + std::string(name));
}

Result<OverloadPolicy> OverloadPolicyFromSpec(
    const std::map<std::string, std::string>& config) {
  auto it = config.find("overload");
  if (it == config.end()) return OverloadPolicy::kShed;
  return ParseOverloadPolicy(it->second);
}

AdmissionGate::AdmissionGate(Limits limits)
    : limits_(limits),
      limiter_(SteadyClock::Instance(), limits.rate_bytes_per_second,
               BurstFor(limits)) {}

Status AdmissionGate::TryAdmitLocked(std::size_t bytes, Micros* retry_after) {
  *retry_after = kDefaultRetryAfter;
  if (limits_.max_queue_bytes > 0 &&
      queue_bytes_ + bytes > limits_.max_queue_bytes && queue_bytes_ > 0) {
    // An op larger than the whole budget still admits into an empty gate —
    // a budget must bound queue growth, not ban big transfers outright.
    return OverloadedError("queue-byte budget exhausted");
  }
  Micros bucket_wait{0};
  if (!limiter_.TryReserve(bytes, &bucket_wait)) {
    *retry_after = bucket_wait;
    return OverloadedError("admission rate exceeded");
  }
  queue_bytes_ += bytes;
  return Status::Ok();
}

Status AdmissionGate::ShedLocked(Micros retry_after) {
  RecordShed(retry_after);
  const std::int64_t hint_ms =
      std::max<std::int64_t>(retry_after.count() / 1000, 1);
  return OverloadedError("admission shed", hint_ms);
}

Status AdmissionGate::Admit(std::size_t bytes) {
  MutexLock lock(mu_);
  Micros retry_after{0};
  Status admitted = TryAdmitLocked(bytes, &retry_after);
  if (!admitted.ok()) {
    return ShedLocked(retry_after);
  }
  RecordAdmitted();
  AddQueueBytes(static_cast<std::int64_t>(bytes));
  return Status::Ok();
}

Status AdmissionGate::AdmitFor(std::size_t bytes, Deadline deadline) {
  MutexLock lock(mu_);
  Micros retry_after{0};
  while (true) {
    Status admitted = TryAdmitLocked(bytes, &retry_after);
    if (admitted.ok()) {
      RecordAdmitted();
      AddQueueBytes(static_cast<std::int64_t>(bytes));
      return Status::Ok();
    }
    const Micros slice = deadline.Slice(kBlockWaitSlice);
    if (slice.count() <= 0) return ShedLocked(retry_after);
    (void)capacity_.WaitUntil(mu_, Deadline::In(slice).at());
  }
}

void AdmissionGate::Release(std::size_t bytes) {
  {
    MutexLock lock(mu_);
    queue_bytes_ = bytes > queue_bytes_ ? 0 : queue_bytes_ - bytes;
  }
  AddQueueBytes(-static_cast<std::int64_t>(bytes));
  capacity_.NotifyAll();
}

std::size_t AdmissionGate::queue_bytes() const {
  MutexLock lock(mu_);
  return queue_bytes_;
}

}  // namespace afs::core
