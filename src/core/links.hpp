// Concrete SentinelLink / SentinelEndpoint transports.
//
//   PipeLink / PipeEndpoint  — three anonymous pipes (control, response,
//     write-data), the paper's process-plus-control strategy (Section 4.2).
//     Every operation costs kernel copies and two protection-domain
//     crossings; that cost is the point of the Figure 6 comparison.
//
//   ThreadRendezvous — one in-process rendezvous slot guarded by a mutex
//     and condition variables ("events and shared memory", Appendix A.3),
//     the DLL-with-thread strategy.  Data moves through the inline lanes of
//     ControlMessage, giving one user-level copy per transfer.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "core/overload.hpp"
#include "ipc/pipe.hpp"
#include "ipc/shm_ring.hpp"
#include "sentinel/endpoint.hpp"

namespace afs::sentinel {
struct CacheGrant;  // sentinel/context.hpp
}  // namespace afs::sentinel

namespace afs::core {

class Lease;              // core/supervisor.hpp
class CacheLeaseChannel;  // core/cache.hpp

// Shared-memory data-plane knobs parsed from the active-file spec
// (docs/SHM_DATA_PLANE.md): `shm_threshold` is the payload size at which
// bulk bytes leave the pipes for the ring ("off" disables the ring
// entirely), `shm_ring_bytes` the per-direction ring capacity.
struct ShmConfig {
  bool enabled = true;
  std::size_t threshold = 4096;
  std::size_t ring_bytes = std::size_t{1} << 20;
};

ShmConfig ParseShmConfig(const std::map<std::string, std::string>& config);

struct PipeLinkFds {
  // Application side.
  ipc::PipeEnd control_write;   // command frames ->
  ipc::PipeEnd response_read;   // <- response frames (the "read pipe")
  ipc::PipeEnd data_write;      // raw write payloads -> (the "write pipe")
};

struct PipeEndpointFds {
  // Sentinel side.
  ipc::PipeEnd control_read;
  ipc::PipeEnd response_write;
  ipc::PipeEnd data_read;
};

// Creates the three pipes and deals the ends to each side.  All six ends
// are O_NONBLOCK from here on (the flag survives fork and exec), so every
// transfer on them is a syscall plus, only on EAGAIN, a bounded wait.
Result<std::pair<PipeLinkFds, PipeEndpointFds>> CreatePipePair();

class PipeLink final : public sentinel::SentinelLink {
 public:
  explicit PipeLink(PipeLinkFds fds) : fds_(std::move(fds)) {}

  Status AF_SendControl(const sentinel::ControlMessage& message)
      AFS_NONBLOCKING override;
  Result<sentinel::ControlResponse> AF_GetResponse() AFS_NONBLOCKING
      override;

  // Bounds every AF_GetResponse wait: a sentinel that never answers costs
  // the application kTimeout instead of a hang.  Non-positive (the default)
  // waits forever.
  void set_response_timeout(Micros timeout) noexcept {
    response_timeout_ = timeout;
  }

  // Installs the liveness lease this link renews whenever any frame —
  // heartbeat or real response — arrives from the sentinel.
  void set_lease(std::shared_ptr<Lease> lease) noexcept {
    lease_ = std::move(lease);
  }

  // Installs the client-cache lease channel (docs/CACHING.md).  The link
  // feeds every decoded frame — including idle heartbeats, which is how a
  // sentinel-pushed recall reaches an idle client — into its Observe.
  void set_cache_channel(std::shared_ptr<CacheLeaseChannel> channel) noexcept {
    cache_channel_ = std::move(channel);
  }

  // Monitor-thread entry: drains frames that are already pending without
  // blocking.  Heartbeats renew the lease and are discarded; a real
  // response that races the poll is stashed for the next AF_GetResponse.
  // A no-op while an application operation owns the read side (that
  // operation observes liveness itself).
  void PollHeartbeats() AFS_NONBLOCKING;

  // Closes all application-side ends; the sentinel sees EOF.
  void Shutdown();

  // Marks all application-side ends close-on-exec (exec-mode sentinels).
  Status SetCloexec();

  // Attaches the shared ring (docs/SHM_DATA_PLANE.md): payloads of at
  // least `threshold` bytes ride it.  The opener drops it again (null
  // ring) when the open banner says the sentinel could not attach.
  // Configure before the link is shared.
  void set_shm(std::shared_ptr<ipc::ShmRing> ring, std::size_t threshold);

  // Per-link admission budgets (docs/OVERLOAD.md): every op charges its
  // cost before the control frame leaves; a shed op fails with kOverloaded
  // before any byte hits the wire, so the stream stays usable.  Configure
  // before the link is shared.
  void set_admission(AdmissionGate::Limits limits, OverloadPolicy policy);

  // What a congested shm ring does to a bulk payload (docs/OVERLOAD.md):
  // kBrownout (the default) drops back to the pipe lane for this op,
  // kShed fails it with kOverloaded, kBlock keeps the classic bounded
  // ring write.  Configure before the link is shared.
  void set_overload(OverloadPolicy policy) noexcept { overload_ = policy; }

 private:
  // For a shm-lane response, pulls its payload off the ring — into the
  // stashed destination spans of the op in flight when present, into
  // response.payload otherwise.
  Status AdoptResponse(sentinel::ControlResponse& response)
      AFS_REQUIRES(read_mu_);

  Result<sentinel::ControlResponse> GetResponseInternal() AFS_NONBLOCKING;

  void ReleaseAdmission();

  // afs-lint: allow(guarded-member: fd table fixed at construction; read_mu_ serializes response readers)
  PipeLinkFds fds_;
  // afs-lint: allow(guarded-member: configured before the link is shared)
  Micros response_timeout_{0};
  // afs-lint: allow(guarded-member: configured before the link is shared)
  std::shared_ptr<Lease> lease_;
  // afs-lint: allow(guarded-member: configured before the link is shared; internally lock-free)
  std::shared_ptr<CacheLeaseChannel> cache_channel_;
  // afs-lint: allow(guarded-member: configured before the link is shared)
  std::shared_ptr<ipc::ShmRing> ring_;
  // afs-lint: allow(guarded-member: configured before the link is shared)
  std::size_t shm_threshold_ = 4096;
  // afs-lint: allow(guarded-member: configured before the link is shared)
  std::unique_ptr<AdmissionGate> gate_;
  // afs-lint: allow(guarded-member: configured before the link is shared)
  OverloadPolicy overload_ = OverloadPolicy::kBrownout;

  // Serializes readers of the response pipe: the application operation in
  // flight vs. the supervisor's heartbeat drain.
  Mutex read_mu_;
  std::optional<sentinel::ControlResponse> pending_ AFS_GUARDED_BY(read_mu_);
  // Cost of the admitted op in flight; zero when none.  Swap-to-zero on
  // release keeps the gate balanced when Shutdown races a response.
  std::size_t admitted_cost_ AFS_GUARDED_BY(read_mu_) = 0;
  // Destination spans of the op in flight (inline_out / vec_out), stashed
  // at send so a shm-lane response scatters ring bytes straight into the
  // caller's buffers — the zero-extra-copy read path.
  std::vector<MutableByteSpan> scatter_ AFS_GUARDED_BY(read_mu_);
};

class PipeEndpoint final : public sentinel::SentinelEndpoint {
 public:
  explicit PipeEndpoint(PipeEndpointFds fds) : fds_(std::move(fds)) {}

  Result<sentinel::ControlMessage> AF_GetControl() AFS_NONBLOCKING override;
  Result<Buffer> AF_GetDataFromAppl(std::size_t length)
      AFS_NONBLOCKING override;
  Status AF_SendResponse(const sentinel::ControlResponse& response)
      AFS_NONBLOCKING override;

  // When positive, an idle AF_GetControl emits a heartbeat response every
  // `interval` instead of blocking forever — the sentinel side of the
  // lease protocol.  Set before the dispatch loop starts.
  void set_heartbeat_interval(Micros interval) noexcept {
    heartbeat_interval_ = interval;
  }

  // Attaches the shared ring (set before the dispatch loop starts).  Once
  // attached, every response — the open banner first — declares the ring,
  // payloads of at least `threshold` bytes ride it, and inbound shm-lane
  // writes are drained from it instead of the data pipe.
  void set_shm(std::shared_ptr<ipc::ShmRing> ring,
               std::size_t threshold) noexcept {
    ring_ = std::move(ring);
    shm_threshold_ = threshold;
  }

  // Congested-ring behavior for response payloads (docs/OVERLOAD.md).  A
  // response cannot be dropped, so kShed degrades to kBrownout here: the
  // payload rides the response frame instead of the stalled ring.  kBlock
  // keeps the classic bounded ring write.  Set before the loop starts.
  void set_overload(OverloadPolicy policy) noexcept { overload_ = policy; }

  // Points at the sentinel context's CacheGrant so idle heartbeats carry
  // the current grant/recall state (docs/CACHING.md) — the push half of
  // the recall protocol.  The context must outlive the dispatch loop.
  // Set before the loop starts.
  void set_cache_state(const sentinel::CacheGrant* grant) noexcept {
    cache_state_ = grant;
  }

 private:
  PipeEndpointFds fds_;
  Micros heartbeat_interval_{0};
  std::shared_ptr<ipc::ShmRing> ring_;
  std::size_t shm_threshold_ = 4096;
  OverloadPolicy overload_ = OverloadPolicy::kBrownout;
  const sentinel::CacheGrant* cache_state_ = nullptr;
  // Lane byte of the command being served (single dispatch thread): tells
  // AF_GetDataFromAppl which lane carries the write payload.
  std::uint8_t last_lane_ = 0;
};

// Both halves of the thread strategy's connection in one object.  The
// application stub and the sentinel thread rendezvous on a single
// in-flight command; ControlMessage's inline lanes pass application
// buffers to the sentinel by reference.
class ThreadRendezvous final : public sentinel::SentinelLink,
                               public sentinel::SentinelEndpoint {
 public:
  ThreadRendezvous() = default;

  // SentinelLink (application side).
  Status AF_SendControl(const sentinel::ControlMessage& message)
      AFS_NONBLOCKING override;
  Result<sentinel::ControlResponse> AF_GetResponse() AFS_NONBLOCKING
      override;

  // SentinelEndpoint (sentinel side).
  Result<sentinel::ControlMessage> AF_GetControl() AFS_NONBLOCKING override;
  Result<Buffer> AF_GetDataFromAppl(std::size_t length)
      AFS_NONBLOCKING override;
  Status AF_SendResponse(const sentinel::ControlResponse& response)
      AFS_NONBLOCKING override;

  // Wakes both sides with kClosed; further traffic fails.
  void Shutdown();

  // Bounds the application's AF_GetResponse wait; kTimeout when the
  // sentinel thread does not answer in time.  Non-positive waits forever.
  void set_response_timeout(Micros timeout) noexcept;

  // Installs the shared-memory lease the sentinel thread renews from
  // inside its waits (the in-process analogue of heartbeat frames).  The
  // thread wakes every `interval` while idle just to stamp the lease.
  void set_lease(std::shared_ptr<Lease> lease, Micros interval);

  // Per-link admission budgets (docs/OVERLOAD.md); configure before the
  // sentinel thread starts.  A shed op fails with kOverloaded without
  // touching the rendezvous slot, so the command stream stays usable.
  void set_admission(AdmissionGate::Limits limits, OverloadPolicy policy);

 private:
  enum class SlotState { kIdle, kCommand, kResponse };

  void ReleaseAdmission();

  // afs-lint: allow(guarded-member: configured before the link is shared)
  std::unique_ptr<AdmissionGate> gate_;
  // afs-lint: allow(guarded-member: configured before the link is shared)
  OverloadPolicy overload_ = OverloadPolicy::kShed;

  Mutex mu_;
  CondVar cv_;
  SlotState state_ AFS_GUARDED_BY(mu_) = SlotState::kIdle;
  // Shutdown is a flag, not a slot state: a response already posted when
  // Shutdown() lands (the failed-open banner) must still reach the
  // application before AF_GetResponse starts reporting kClosed.
  bool shutdown_ AFS_GUARDED_BY(mu_) = false;
  Micros response_timeout_ AFS_GUARDED_BY(mu_){0};
  std::shared_ptr<Lease> lease_ AFS_GUARDED_BY(mu_);
  Micros lease_interval_ AFS_GUARDED_BY(mu_){0};
  // Cost of the admitted op in flight; zero when none (swap-to-zero
  // release keeps the gate balanced when Shutdown races a response).
  std::size_t admitted_cost_ AFS_GUARDED_BY(mu_) = 0;
  sentinel::ControlMessage message_ AFS_GUARDED_BY(mu_);
  sentinel::ControlResponse response_ AFS_GUARDED_BY(mu_);
};

}  // namespace afs::core
