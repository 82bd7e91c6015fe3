// Concrete SentinelLink / SentinelEndpoint transports.
//
//   PipeLink / PipeEndpoint  — three anonymous pipes (control, response,
//     write-data), the paper's process-plus-control strategy (Section 4.2).
//     Every operation costs kernel copies and two protection-domain
//     crossings; that cost is the point of the Figure 6 comparison.
//
//   MailboxSlot — the one-command mailbox the in-process strategies share
//     ("events and shared memory", Appendix A.3).  ThreadRendezvous wraps
//     it for the DLL-with-thread strategy; LoopSession (core/loop_host.hpp)
//     holds one for the event-loop strategy.  Data moves through the inline
//     lanes of ControlMessage, giving one user-level copy per transfer.
//
// Admission, the cache lease and the open banner are the command stub's
// business (LinkHandle, core/strategies.cpp): a link only crosses.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "ipc/pipe.hpp"
#include "ipc/shm_ring.hpp"
#include "sentinel/endpoint.hpp"

namespace afs::core {

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

  // Each send leg waits until `deadline` or the stall bound
  // (ipc::kStallTimeout), whichever comes first.
  Status AF_SendControl(const sentinel::ControlMessage& message,
                        Deadline deadline) AFS_NONBLOCKING override;
  Result<sentinel::ControlResponse> AF_GetResponse(Deadline deadline)
      AFS_NONBLOCKING override;

  // Closes all application-side ends; the sentinel sees EOF.
  void Shutdown();

  // Marks all application-side ends close-on-exec (exec-mode sentinels).
  Status SetCloexec();

  // Attaches the shared ring (docs/SHM_DATA_PLANE.md): payloads of at
  // least `threshold` bytes ride it.  The opener drops it again (null
  // ring) when the open banner says the sentinel could not attach.
  // Configure before the link is shared.
  void set_shm(std::shared_ptr<ipc::ShmRing> ring, std::size_t threshold);

 private:
  // For a shm-lane response, pulls its payload off the ring — into the
  // stashed destination spans of the op in flight when present, into
  // response.payload otherwise — by `deadline` or the stall bound.
  Status AdoptResponse(sentinel::ControlResponse& response, Deadline deadline)
      AFS_REQUIRES(read_mu_);

  // afs-lint: allow(guarded-member: fd table fixed at construction; read_mu_ serializes response readers)
  PipeLinkFds fds_;
  // afs-lint: allow(guarded-member: configured before the link is shared)
  std::shared_ptr<ipc::ShmRing> ring_;
  // afs-lint: allow(guarded-member: configured before the link is shared)
  std::size_t shm_threshold_ = 4096;

  // Serializes the in-flight op's send (which stashes its scatter spans)
  // with the response read, and both with Shutdown.
  Mutex read_mu_;
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

  // Attaches the shared ring (set before the dispatch loop starts).  Once
  // attached, every response — the open banner first — declares the ring,
  // payloads of at least `threshold` bytes ride it, and inbound shm-lane
  // writes are drained from it instead of the data pipe.
  void set_shm(std::shared_ptr<ipc::ShmRing> ring,
               std::size_t threshold) noexcept {
    ring_ = std::move(ring);
    shm_threshold_ = threshold;
  }

 private:
  PipeEndpointFds fds_;
  std::shared_ptr<ipc::ShmRing> ring_;
  std::size_t shm_threshold_ = 4096;
  // Lane byte of the command being served (single dispatch thread): tells
  // AF_GetDataFromAppl which lane carries the write payload.
  std::uint8_t last_lane_ = 0;
};

// The one-command mailbox between an application stub and an in-process
// sentinel.  The application posts a command into the idle slot and waits
// for the answer; the sentinel side takes the command and delivers the
// response (kIdle -> kCommand -> kResponse -> kIdle).  Close() latches the
// slot shut and wakes every waiter with kClosed, but a delivered response
// outranks the latch: the failed-open banner and the close acknowledgement
// arrive with the latch already set and must not be dropped.  Fault points
// belong to the wrappers.
class MailboxSlot {
 public:
  // Application side.  Waits for the slot to be idle (it is at every send:
  // a stub runs one op at a time), then posts `message` (its inline lanes
  // pass application buffers by reference).
  Status Post(const sentinel::ControlMessage& message);
  // Waits for the answer and frees the slot; kTimeout once `deadline`
  // passes, kClosed once latched with no answer.
  Result<sentinel::ControlResponse> Collect(Deadline deadline);

  // Sentinel side.  The posted command, waiting at most `wait` for one
  // (zero only looks): kTimeout when none came, kClosed once latched.  The
  // slot stays occupied until Deliver.
  Result<sentinel::ControlMessage> Take(Micros wait);
  // Answers the taken command; `closing` also sets the latch.  False, with
  // nothing delivered, when the latch is already set (the waiter is gone).
  bool Deliver(sentinel::ControlResponse response, bool closing = false);

  void Close();

 private:
  enum class SlotState : std::uint8_t { kIdle, kCommand, kResponse };

  Mutex mu_;
  CondVar cv_;
  SlotState state_ AFS_GUARDED_BY(mu_) = SlotState::kIdle;
  bool closed_ AFS_GUARDED_BY(mu_) = false;
  sentinel::ControlMessage message_ AFS_GUARDED_BY(mu_);
  sentinel::ControlResponse response_ AFS_GUARDED_BY(mu_);
};

// Both halves of the thread strategy's connection in one object: a
// MailboxSlot between the application stub and the sentinel thread, plus
// the link's fault points.
class ThreadRendezvous final : public sentinel::SentinelLink,
                               public sentinel::SentinelEndpoint {
 public:
  ThreadRendezvous() = default;

  // SentinelLink (application side).  The defaults serve callers that
  // drive the rendezvous without a stub (benchmark probes).
  Status AF_SendControl(const sentinel::ControlMessage& message,
                        Deadline deadline = Deadline::Never())
      AFS_NONBLOCKING override;
  Result<sentinel::ControlResponse> AF_GetResponse(
      Deadline deadline = Deadline::Never()) AFS_NONBLOCKING override;

  // SentinelEndpoint (sentinel side).
  Result<sentinel::ControlMessage> AF_GetControl() AFS_NONBLOCKING override;
  Result<Buffer> AF_GetDataFromAppl(std::size_t length)
      AFS_NONBLOCKING override;
  Status AF_SendResponse(const sentinel::ControlResponse& response)
      AFS_NONBLOCKING override;

  // Wakes both sides with kClosed; further traffic fails.
  void Shutdown() { slot_.Close(); }

 private:
  MailboxSlot slot_;
};

}  // namespace afs::core
