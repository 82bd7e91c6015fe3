// Event-loop sentinel host: many sentinels per process, one shard thread
// per event loop, no per-session descriptors.
//
// A LoopSession is the loop-strategy sibling of ThreadRendezvous: both
// hold a MailboxSlot (core/links.hpp) that the application posts its one
// in-flight command into.  Instead of a dedicated sentinel thread taking
// it, the session rings its shard's doorbell (core/event_loop.hpp); the
// shard's loop thread services the command through
// sentinel::PerformControlOp and delivers the response into the slot.
// The shard's run queue is the data plane: one eventfd doorbell per shard,
// batched drains, and the inline ControlMessage lanes carrying payloads by
// reference — which is how ≥100k concurrent handles fit under an ordinary
// RLIMIT_NOFILE (see docs/EVENT_LOOP.md).
//
// Supervision: a wedged loop or a wedged sentinel op shows up as an op
// that runs past its op_timeout_ms deadline, and the supervised handle
// then forces the session down before it restarts it: waiters wake with
// kClosed, and the session is released with close semantics once the
// shard is done with it.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "core/event_loop.hpp"
#include "core/links.hpp"
#include "core/overload.hpp"
#include "core/strategies.hpp"
#include "sentinel/endpoint.hpp"
#include "sentinel/sentinel.hpp"

namespace afs::core {

class LoopSession final : public sentinel::SentinelLink,
                          public std::enable_shared_from_this<LoopSession> {
 public:
  ~LoopSession() override;

  LoopSession(const LoopSession&) = delete;
  LoopSession& operator=(const LoopSession&) = delete;

  // SentinelLink (application side).
  Status AF_SendControl(const sentinel::ControlMessage& message,
                        Deadline deadline) AFS_NONBLOCKING override;
  Result<sentinel::ControlResponse> AF_GetResponse(Deadline deadline)
      AFS_NONBLOCKING override;

  // The supervised handle's force-down: Shutdown, then wait until the
  // shard has released the session.  An op already running there cannot
  // be stopped, so it finishes first; then OnClose and the cache writeback
  // run, so a wedged session keeps the writes it acknowledged.  No op
  // still holds the application's buffers when the handle retries (the
  // thread strategy's join gives the same).  The wait has no bound: if the
  // op never returns, neither does ForceDown.
  void ForceDown();

  // Application cleanup without the close protocol (handle destruction,
  // failed banner): latches the slot shut and posts the one release of the
  // loop-side state, an implicit close so sentinel side effects still
  // complete, mirroring the dispatch loop's application-vanished path.
  void Shutdown();

  // The shard this session lives on (LoopHost::ShardGate's index).
  std::size_t shard_index() const noexcept { return shard_index_; }

 private:
  friend class LoopHost;

  // kImplicitClose runs OnClose and the cache writeback first; kDrop drops
  // the sentinel without them (crash semantics, or nothing left to do).
  enum class Release : std::uint8_t { kImplicitClose, kDrop };

  LoopSession(EventLoop& shard, std::size_t shard_index,
              std::unique_ptr<sentinel::Sentinel> sent,
              sentinel::SentinelContext ctx, CacheAssembly cache);

  // Loop-thread entries.
  void ServiceOpen();
  void Service();
  void ReleaseLoopState(Release how);

  // Loop thread: drops the sentinel state now (no OnClose, no writeback).
  void Drop();

  EventLoop& shard_;
  const std::size_t shard_index_;

  // Loop-thread-confined sentinel state (only ServiceOpen/Service/
  // ReleaseLoopState touch these, all on the shard thread).
  std::unique_ptr<sentinel::Sentinel> sentinel_;
  sentinel::SentinelContext ctx_;
  CacheAssembly cache_;
  bool opened_ = false;
  // Set by the shard thread once the sentinel state is gone; ForceDown
  // waits on it.
  std::atomic<bool> released_{false};

  // Set by whichever path first takes charge of releasing the loop-side
  // state, so it is released once.
  std::atomic<bool> release_posted_{false};
  MailboxSlot slot_;
};

// The process-wide shard pool hosting loop-strategy sessions.  Sized by
// AFS_LOOP_SHARDS (default 2); per-wakeup batching by AFS_LOOP_BATCH; one
// admission gate per shard, budgeted by AFS_LOOP_MAX_QUEUE_BYTES.
class LoopHost {
 public:
  // Lazily constructed, torn down (loops joined) at process exit.
  static LoopHost& Global();

  LoopHost(int shards, EventLoop::Options options);
  ~LoopHost();

  LoopHost(const LoopHost&) = delete;
  LoopHost& operator=(const LoopHost&) = delete;

  int shard_count() const noexcept;

  // Stands up one session: places it on a shard (`shard_pin` >= 0 pins, see
  // the "loop_shard" spec key; negative round-robins) and posts the OnOpen
  // banner task.  The caller must wait for the banner via AF_GetResponse.
  Result<std::shared_ptr<LoopSession>> Open(
      std::unique_ptr<sentinel::Sentinel> sent, sentinel::SentinelContext ctx,
      CacheAssembly cache, int shard_pin);

  // The admission gate guarding shard `index`'s run queue: the byte budget
  // from AFS_LOOP_MAX_QUEUE_BYTES, shared by the shard's co-tenants and
  // charged by each session's command stub (docs/OVERLOAD.md).
  AdmissionGate& ShardGate(std::size_t index) { return *gates_[index]; }

 private:
  EventLoopPool pool_;
  // One gate per shard, sized like the pool; immutable after construction.
  std::vector<std::unique_ptr<AdmissionGate>> gates_;
};

}  // namespace afs::core
