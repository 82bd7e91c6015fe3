#include "core/loop_host.hpp"

#include <cstdlib>
#include <utility>

#include "common/faultpoint.hpp"
#include "obs/metrics.hpp"
#include "sentinel/dispatch.hpp"

namespace afs::core {

using sentinel::ControlMessage;
using sentinel::ControlOp;
using sentinel::ControlResponse;

namespace {

obs::Gauge& SessionsGauge() {
  static obs::Gauge& gauge =
      obs::Registry::Global().GetGauge("core.loop.sessions");
  return gauge;
}

ControlResponse StatusResponse(Status status) {
  ControlResponse response;
  response.status = std::move(status);
  return response;
}

int EnvInt(const char* name, int fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  const long parsed = std::strtol(raw, nullptr, 10);
  return parsed > 0 ? static_cast<int>(parsed) : fallback;
}

// Unsigned env knob where an explicit 0 is meaningful ("unlimited"), so
// only an unset/empty variable falls back.
std::uint64_t EnvU64(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  return std::strtoull(raw, nullptr, 10);
}

}  // namespace

// ---------------------------------------------------------------------
// LoopSession

LoopSession::LoopSession(EventLoop& shard, std::size_t shard_index,
                         std::unique_ptr<sentinel::Sentinel> sent,
                         sentinel::SentinelContext ctx, CacheAssembly cache)
    : shard_(shard),
      shard_index_(shard_index),
      sentinel_(std::move(sent)),
      ctx_(std::move(ctx)),
      cache_(std::move(cache)) {
  ctx_.cache = cache_.store.get();
  SessionsGauge().Add(1);
}

LoopSession::~LoopSession() {
  // Backstop for sessions torn down without ever reaching the shard (open
  // that failed before posting).  Normal paths released on the loop thread.
  sentinel_.reset();
  SessionsGauge().Add(-1);
}

Status LoopSession::AF_SendControl(const ControlMessage& message,
                                   Deadline /*deadline*/) {
  AFS_FAULT_POINT("core.link.send");
  AFS_RETURN_IF_ERROR(slot_.Post(message));
  // The doorbell, not a dedicated thread: the command is a task on the
  // session's shard, batched with every other ready session's commands.
  // Bound, not a lambda: Service() runs on the loop thread, and the member
  // pointer keeps its body out of this caller's non-blocking call graph.
  // (Once the loop has stopped, Post runs the task inline.)
  shard_.Post(std::bind(&LoopSession::Service, shared_from_this()));
  return Status::Ok();
}

Result<ControlResponse> LoopSession::AF_GetResponse(Deadline deadline) {
  AFS_FAULT_POINT("core.link.recv");
  return slot_.Collect(deadline);
}

void LoopSession::ForceDown() {
  // A session the shard already dropped (crash site, crashed op) is gone;
  // a live but wedged one still closes implicitly once its op returns, so
  // writes it acknowledged reach the bundle before a fresh session opens.
  Shutdown();
  released_.wait(false, std::memory_order_acquire);
}

void LoopSession::Shutdown() {
  slot_.Close();
  if (release_posted_.exchange(true)) return;
  shard_.Post([self = shared_from_this()] {
    self->ReleaseLoopState(Release::kImplicitClose);
  });
}

void LoopSession::Drop() {
  release_posted_ = true;
  ReleaseLoopState(Release::kDrop);
}

void LoopSession::ServiceOpen() {
  // Crash window before the open is acknowledged — same recoverable point
  // the forked strategies expose (the application is parked on the banner).
  if (!fault::Hit("sentinel.dispatch.openack").ok()) {
    slot_.Close();
    Drop();
    return;
  }
  const Status open_status = sentinel_->OnOpen(ctx_);
  opened_ = open_status.ok();
  // The banner carries the cache grant OnOpen decided on (same contract as
  // RunSentinelLoop): a caching client holds its lease before the first op.
  ControlResponse banner = StatusResponse(open_status);
  sentinel::StampCacheGrant(ctx_, banner);
  if (!opened_) {
    // Mirror the dispatch loop's lifecycle: a failed OnOpen means no
    // session — OnClose must not run.  The banner still ships below.
    Drop();
  }
  slot_.Deliver(std::move(banner), /*closing=*/!opened_);
}

void LoopSession::Service() {
  // Spans in the message still reference the parked application's buffers.
  Result<ControlMessage> msg = slot_.Take(Micros{0});
  if (!msg.ok()) return;  // raced ForceDown: the op will never be served

  // The loop-host crash site: tears this session down without a response —
  // the application's waiter wakes with kClosed and supervision replays the
  // session — while every co-hosted session on the shard keeps serving.
  if (!fault::Hit("core.loop.crash").ok()) {
    slot_.Close();
    Drop();
    return;
  }

  sentinel::OpOutcome out =
      sentinel::PerformControlOp(*sentinel_, ctx_, *msg, nullptr);
  switch (out.verdict) {
    case sentinel::OpVerdict::kCrashed:
    case sentinel::OpVerdict::kChannelBroken:
      slot_.Close();
      Drop();
      return;
    case sentinel::OpVerdict::kClosed:
      // OnClose already ran inside PerformControlOp; finalize and drop the
      // sentinel before acknowledging, like the worker-thread epilogue.
      // afs-lint: allow(status-discard: close response carries OnClose's status)
      (void)cache_.Finalize();
      Drop();
      slot_.Deliver(std::move(out.response), /*closing=*/true);
      return;
    case sentinel::OpVerdict::kRespond:
      slot_.Deliver(std::move(out.response));
      return;
  }
}

void LoopSession::ReleaseLoopState(Release how) {
  if (released_.load(std::memory_order_relaxed)) return;
  if (how == Release::kImplicitClose && opened_ && sentinel_ != nullptr) {
    // Application vanished without the close protocol: implicit close so
    // aggregation/distribution side effects still complete.
    // afs-lint: allow(status-discard: nobody is left to receive the status)
    (void)sentinel_->OnClose(ctx_);
    // afs-lint: allow(status-discard: best-effort writeback on implicit close)
    (void)cache_.Finalize();
  }
  // Release::kDrop: no OnClose, no writeback — un-finalized state is lost.
  sentinel_.reset();
  cache_ = CacheAssembly{};
  released_.store(true, std::memory_order_release);
  released_.notify_all();
}

// ---------------------------------------------------------------------
// LoopHost

LoopHost& LoopHost::Global() {
  static LoopHost host(
      EnvInt("AFS_LOOP_SHARDS", 2),
      EventLoop::Options{EnvInt("AFS_LOOP_BATCH", 64)});
  return host;
}

LoopHost::LoopHost(int shards, EventLoop::Options options)
    : pool_(shards, options) {
  // Per-shard admission budget (docs/OVERLOAD.md).  The default queue-byte
  // budget is a backstop against runaway buffering, far above any healthy
  // working set; 0 disables it.
  AdmissionGate::Limits limits;
  limits.max_queue_bytes = static_cast<std::size_t>(
      EnvU64("AFS_LOOP_MAX_QUEUE_BYTES", std::uint64_t{256} << 20));
  gates_.reserve(static_cast<std::size_t>(pool_.shard_count()));
  for (int i = 0; i < pool_.shard_count(); ++i) {
    gates_.push_back(std::make_unique<AdmissionGate>(limits));
  }
  // Touch the metric registries before any loop thread exists so their
  // singletons outlive the pool's threads at static teardown.
  SessionsGauge();
}

LoopHost::~LoopHost() { pool_.Stop(); }

int LoopHost::shard_count() const noexcept { return pool_.shard_count(); }

Result<std::shared_ptr<LoopSession>> LoopHost::Open(
    std::unique_ptr<sentinel::Sentinel> sent, sentinel::SentinelContext ctx,
    CacheAssembly cache, int shard_pin) {
  AFS_RETURN_IF_ERROR(pool_.Start());
  const std::size_t index = pool_.PickShard(shard_pin);
  EventLoop& shard = pool_.ShardAt(index);
  auto session = std::shared_ptr<LoopSession>(new LoopSession(
      shard, index, std::move(sent), std::move(ctx), std::move(cache)));
  shard.Post([session] { session->ServiceOpen(); });
  return session;
}

}  // namespace afs::core
