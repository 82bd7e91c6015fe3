#include "core/strategies.hpp"

#include <array>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <thread>
#include <utility>

#include "common/faultpoint.hpp"
#include "common/mutex.hpp"
#include "core/cache.hpp"
#include "core/links.hpp"
#include "core/loop_host.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "core/supervisor.hpp"
#include "ipc/process.hpp"
#include "sentinel/dispatch.hpp"
#include "sentinel/stream.hpp"

namespace afs::core {

using sentinel::ControlMessage;
using sentinel::ControlOp;
using sentinel::ControlResponse;
using sentinel::SentinelContext;

std::string_view StrategyName(Strategy strategy) noexcept {
  switch (strategy) {
    case Strategy::kProcess: return "process";
    case Strategy::kProcessControl: return "process_control";
    case Strategy::kThread: return "thread";
    case Strategy::kDirect: return "direct";
    case Strategy::kLoop: return "loop";
  }
  return "?";
}

Result<Strategy> ParseStrategy(std::string_view name) {
  if (name == "process") return Strategy::kProcess;
  if (name == "process_control") return Strategy::kProcessControl;
  if (name == "thread") return Strategy::kThread;
  if (name == "direct") return Strategy::kDirect;
  if (name == "loop") return Strategy::kLoop;
  return InvalidArgumentError("unknown strategy: " + std::string(name));
}

std::string_view CacheModeName(CacheMode mode) noexcept {
  switch (mode) {
    case CacheMode::kNone: return "none";
    case CacheMode::kDisk: return "disk";
    case CacheMode::kMemory: return "memory";
  }
  return "?";
}

Result<CacheMode> ParseCacheMode(std::string_view name) {
  if (name == "none" || name == "off") return CacheMode::kNone;
  if (name == "disk") return CacheMode::kDisk;
  // The client-cache faces of the key (cache=read|write, docs/CACHING.md)
  // keep the sentinel's data part in memory: the sentinel stays the
  // authority the client's lease is checked against, with no bundle region
  // to hold stale bytes on disk.
  if (name == "memory" || name == "read" || name == "write") {
    return CacheMode::kMemory;
  }
  return InvalidArgumentError("unknown cache mode: " + std::string(name));
}

Status CacheAssembly::Finalize() {
  if (mode != CacheMode::kMemory || !writeback || store == nullptr ||
      bundle == nullptr) {
    return Status::Ok();
  }
  auto* memory = static_cast<sentinel::MemoryDataStore*>(store.get());
  return bundle->ReplaceData(ByteSpan(memory->contents()));
}

Result<CacheAssembly> AssembleCache(const std::string& host_path,
                                    const sentinel::SentinelSpec& spec) {
  CacheAssembly assembly;
  auto cache_it = spec.config.find("cache");
  if (cache_it != spec.config.end()) {
    AFS_ASSIGN_OR_RETURN(assembly.mode, ParseCacheMode(cache_it->second));
  }
  auto wb_it = spec.config.find("writeback");
  if (wb_it != spec.config.end()) assembly.writeback = wb_it->second != "0";

  if (assembly.mode == CacheMode::kNone) return assembly;

  AFS_ASSIGN_OR_RETURN(std::unique_ptr<BundleFile> opened,
                       BundleFile::Open(host_path));
  assembly.bundle = std::shared_ptr<BundleFile>(std::move(opened));
  if (assembly.mode == CacheMode::kDisk) {
    assembly.store = std::make_unique<BundleDataStore>(assembly.bundle);
  } else {
    AFS_ASSIGN_OR_RETURN(Buffer data, assembly.bundle->ReadAllData());
    assembly.store =
        std::make_unique<sentinel::MemoryDataStore>(std::move(data));
    if (!assembly.writeback) {
      // Nothing will be written back at close, so the bundle — and its
      // descriptor — is dead weight for the rest of the session.  Dropping
      // it here is what keeps a memory-cache open descriptor-free, which
      // the loop strategy's 100k-handle saturation target depends on.
      assembly.bundle.reset();
    }
  }
  return assembly;
}

namespace {

// Per-operation response deadline from the "op_timeout_ms" config key.
// Zero (the default) preserves the historical block-forever behavior; any
// positive value is the strategy-independent bound on how long one file
// operation may wait for its sentinel, and the only bound under which a
// supervised handle declares a wedged sentinel dead.  For the in-process
// strategies (thread, loop) that recovery still waits for the wedged op
// to return before it retries.  A value past the clock's range saturates,
// which Deadline::In reads as no deadline.
Micros OpTimeout(const OpenRequest& request) {
  auto it = request.spec.config.find("op_timeout_ms");
  if (it == request.spec.config.end()) return Micros{0};
  return MillisToMicros(std::strtoll(it->second.c_str(), nullptr, 10));
}

// The per-link admission gate built from the spec's admit_* budgets
// (docs/OVERLOAD.md); null when none of them bounds anything.
std::unique_ptr<AdmissionGate> LinkGate(const OpenRequest& request) {
  const AdmissionGate::Limits limits =
      AdmissionLimitsFromSpec(request.spec.config);
  if (!AdmissionConfigured(limits)) return nullptr;
  return std::make_unique<AdmissionGate>(limits);
}

// Poll cadence for ring-mode stream reads: each elapsed slice re-checks
// peer liveness before re-arming the wait.
constexpr Micros kRingPollSlice{200'000};

// Wire segment table of a vectored op: u32 count then the u32 segment
// lengths; `total` receives the summed payload size.
template <typename Seg>
Buffer EncodeVecTable(std::span<Seg> segments, std::size_t* total) {
  Buffer table;
  table.reserve(4 + 4 * segments.size());
  AppendU32(table, static_cast<std::uint32_t>(segments.size()));
  *total = 0;
  for (const auto& segment : segments) {
    AppendU32(table, static_cast<std::uint32_t>(segment.size()));
    *total += segment.size();
  }
  return table;
}

// Counts an open whose bulk bytes fall back to the pipes because the ring
// could not be created here or attached by the sentinel.
void CountShmFallback() {
  static obs::Counter& fallbacks =
      obs::Registry::Global().GetCounter("ipc.shm.fallbacks");
  fallbacks.Add(1);
}

// Creates the shared ring for a process-strategy open, or null when the
// spec disabled it / setup failed (counted; pipes carry everything then).
std::shared_ptr<ipc::ShmRing> CreateRingOrFallback(const ShmConfig& shm) {
  if (!shm.enabled) return nullptr;
  Result<std::shared_ptr<ipc::ShmRing>> created =
      ipc::ShmRing::Create(shm.ring_bytes);
  if (created.ok()) return std::move(*created);
  CountShmFallback();
  return nullptr;
}

SentinelContext BuildContext(const OpenRequest& request,
                             const CacheAssembly& cache) {
  SentinelContext ctx;
  ctx.cache = cache.store.get();
  ctx.config = request.spec.config;
  ctx.resolver = request.resolver;
  ctx.lock_dir = request.lock_dir;
  ctx.path = request.vfs_path;
  return ctx;
}

// ---------------------------------------------------------------------
// Stub for the command strategies (process-plus-control, thread and loop):
// a FileHandle whose every operation becomes a control message.  Everything
// but the crossing lives here, once: admission, the cache lease, tracing
// and poisoning.  `shard_gate` is the loop session's shard gate (null for
// the other strategies).
class LinkHandle final : public vfs::FileHandle, public ActiveHandle {
 public:
  LinkHandle(sentinel::SentinelLink* link, std::shared_ptr<void> keepalive,
             std::function<void()> cleanup, const OpenRequest& request,
             OverloadPolicy policy, AdmissionGate* shard_gate)
      : link_(link),
        keepalive_(std::move(keepalive)),
        cache_channel_(request.cache_channel),
        link_gate_(LinkGate(request)),
        gates_{link_gate_.get(), shard_gate},
        policy_(policy),
        budget_(OpTimeout(request)),
        cleanup_(std::move(cleanup)) {}

  ~LinkHandle() override {
    MutexLock lock(mu_);
    if (!closed_) RunCleanup();
  }

  Result<std::size_t> Read(MutableByteSpan out) override {
    MutexLock lock(mu_);
    ControlMessage msg;
    msg.op = ControlOp::kRead;
    msg.length = static_cast<std::uint32_t>(out.size());
    msg.inline_out = out;
    AFS_ASSIGN_OR_RETURN(ControlResponse resp, RoundTrip(msg));
    if (!resp.payload.empty()) {
      // Pipe lane: the data arrived in the response frame.
      const std::size_t n = std::min(resp.payload.size(), out.size());
      std::memcpy(out.data(), resp.payload.data(), n);
      return n;
    }
    return static_cast<std::size_t>(resp.number);
  }

  Result<std::size_t> Write(ByteSpan data) override {
    MutexLock lock(mu_);
    ControlMessage msg;
    msg.op = ControlOp::kWrite;
    msg.length = static_cast<std::uint32_t>(data.size());
    msg.inline_in = data;
    AFS_ASSIGN_OR_RETURN(ControlResponse resp, RoundTrip(msg));
    return static_cast<std::size_t>(resp.number);
  }

  Result<std::uint64_t> Seek(std::int64_t offset,
                             vfs::SeekOrigin origin) override {
    MutexLock lock(mu_);
    ControlMessage msg;
    msg.op = ControlOp::kSeek;
    msg.offset = offset;
    msg.origin = static_cast<std::uint8_t>(origin);
    AFS_ASSIGN_OR_RETURN(ControlResponse resp, RoundTrip(msg));
    return resp.number;
  }

  Result<std::uint64_t> Size() override {
    MutexLock lock(mu_);
    ControlMessage msg;
    msg.op = ControlOp::kGetSize;
    AFS_ASSIGN_OR_RETURN(ControlResponse resp, RoundTrip(msg));
    return resp.number;
  }

  Status SetEndOfFile() override { return SimpleOp(ControlOp::kSetEof); }
  Status Flush() override { return SimpleOp(ControlOp::kFlush); }

  // Vectored ops take the whole list in one crossing: the segment table
  // rides the control frame, and the bytes travel the data lanes (ring or
  // pipe) concatenated.
  Result<std::size_t> ReadScatter(
      std::span<MutableByteSpan> segments) override {
    MutexLock lock(mu_);
    ControlMessage msg;
    msg.op = ControlOp::kReadVec;
    std::size_t total = 0;
    msg.payload = EncodeVecTable(segments, &total);
    msg.length = static_cast<std::uint32_t>(total);
    msg.vec_out.assign(segments.begin(), segments.end());
    AFS_ASSIGN_OR_RETURN(ControlResponse resp, RoundTrip(msg));
    if (resp.payload.empty()) return static_cast<std::size_t>(resp.number);
    // Pipe lane: scatter the concatenated frame payload.
    std::size_t at = 0;
    for (auto& segment : segments) {
      const std::size_t n = std::min(segment.size(), resp.payload.size() - at);
      std::memcpy(segment.data(), resp.payload.data() + at, n);
      at += n;
      if (at == resp.payload.size()) break;
    }
    return at;
  }

  Result<std::size_t> WriteGather(std::span<ByteSpan> segments) override {
    MutexLock lock(mu_);
    ControlMessage msg;
    msg.op = ControlOp::kWriteVec;
    std::size_t total = 0;
    msg.payload = EncodeVecTable(segments, &total);
    msg.length = static_cast<std::uint32_t>(total);
    msg.vec_in.assign(segments.begin(), segments.end());
    AFS_ASSIGN_OR_RETURN(ControlResponse resp, RoundTrip(msg));
    return static_cast<std::size_t>(resp.number);
  }

  Status LockRange(std::uint64_t offset, std::uint64_t length) override {
    return RangeOp(ControlOp::kLock, offset, length);
  }
  Status UnlockRange(std::uint64_t offset, std::uint64_t length) override {
    return RangeOp(ControlOp::kUnlock, offset, length);
  }

  // Application-specific command (exposed via ActiveFileManager::Control).
  Result<Buffer> Control(ByteSpan request) override {
    MutexLock lock(mu_);
    ControlMessage msg;
    msg.op = ControlOp::kCustom;
    msg.payload.assign(request.begin(), request.end());
    AFS_ASSIGN_OR_RETURN(ControlResponse resp, RoundTrip(msg));
    return std::move(resp.payload);
  }

  // Tears the connection down without the close protocol; used when the
  // open banner reports failure (the sentinel loop has already exited).
  void Abort() {
    MutexLock lock(mu_);
    RunCleanup();
  }

  Status Close() override {
    MutexLock lock(mu_);
    if (closed_) return Status::Ok();
    ControlMessage msg;
    msg.op = ControlOp::kClose;
    Status status = Status::Ok();
    Result<ControlResponse> resp = RoundTrip(msg);
    if (resp.ok()) {
      status = resp->status;
    } else if (resp.status().code() != ErrorCode::kClosed) {
      status = resp.status();
    }
    RunCleanup();
    return status;
  }

 private:
  // One command/response exchange with the sentinel — the rendezvous
  // path the event-loop refactor must multiplex.
  Result<ControlResponse> RoundTrip(ControlMessage& msg)
      AFS_NONBLOCKING AFS_REQUIRES(mu_) {
    if (closed_) return ClosedError("handle closed");
    if (poisoned_) return ClosedError("handle poisoned by transport failure");
    // The op's one deadline: admission, the send legs and the response
    // wait all spend from it.
    const Deadline deadline = Deadline::In(budget_);
    // The link leg of the trace: the sentinel parents its own span on this
    // one (the ids travel in the control message), and the spans it ships
    // back in the response are adopted below — after this hop the local
    // TraceLog holds the full app→link→sentinel tree.
    obs::Span span("link.roundtrip");
    msg.trace_id = span.trace_id();
    msg.parent_span = span.span_id();
    static obs::Counter& roundtrips =
        obs::Registry::Global().GetCounter("core.link.roundtrips");
    static obs::Histogram& latency =
        obs::Registry::Global().GetHistogram("core.link.roundtrip_us");
    const std::uint64_t n = roundtrips.Increment();
    obs::ScopedLatencyTimer timer((n & 63) == 0 ? &latency : nullptr);
    AFS_FAULT_POINT("core.link.roundtrip");
    if (cache_channel_ != nullptr) {
      // Lease request / recall ack ride the message's cache flags.
      msg.cache_flags = cache_channel_->OutgoingFlags();
    }
    // Admission precedes the crossing, and is the only place a command op
    // is refused: a shed op fails with kOverloaded while the
    // command/response stream is still synchronized, so the handle
    // survives to retry it.  Teardown ops are exempt — a shed close
    // leaks.  The charge is released once, when the exchange returns,
    // however it ends (answer, timeout, poison, kClosed).
    if (AdmissionExempt(msg.op)) return Exchange(msg, deadline);
    const std::size_t cost = ControlMessageCost(msg);
    AFS_RETURN_IF_ERROR(Admit(cost, deadline));
    Result<ControlResponse> resp = Exchange(msg, deadline);
    Release(cost, gates_.size());
    return resp;
  }

  // Charges `cost` to every gate in order; a shed gives the charge back to
  // the gates already passed and fails the op with the shed status.
  Status Admit(std::size_t cost, Deadline deadline) AFS_REQUIRES(mu_) {
    for (std::size_t i = 0; i < gates_.size(); ++i) {
      if (gates_[i] == nullptr) continue;
      Status admitted = AdmitWithPolicy(*gates_[i], cost, policy_, deadline);
      if (!admitted.ok()) {
        Release(cost, i);
        return admitted;
      }
    }
    return Status::Ok();
  }

  // Returns `cost` to the first `count` gates.
  void Release(std::size_t cost, std::size_t count) AFS_REQUIRES(mu_) {
    for (std::size_t i = 0; i < count; ++i) {
      if (gates_[i] != nullptr) gates_[i]->Release(cost);
    }
  }

  // The crossing itself: the link carries the command and its answer.
  Result<ControlResponse> Exchange(const ControlMessage& msg,
                                   Deadline deadline)
      AFS_NONBLOCKING AFS_REQUIRES(mu_) {
    Status sent = link_->AF_SendControl(msg, deadline);
    if (!sent.ok()) return Poison(std::move(sent));
    Result<ControlResponse> resp = link_->AF_GetResponse(deadline);
    if (!resp.ok()) return Poison(resp.status());
    if (cache_channel_ != nullptr) {
      // Every decoded answer re-arms (or revokes) the client's lease —
      // including error responses, which still carry the grant triple.
      cache_channel_->Observe(*resp);
    }
    if (!resp->remote_spans.empty()) {
      obs::TraceLog::Global().AppendAll(std::move(resp->remote_spans));
    }
    if (msg.op != ControlOp::kClose && !resp->status.ok()) {
      if (resp->status.code() == ErrorCode::kOverloaded &&
          resp->retry_after_ms > 0 && RetryAfterHintMs(resp->status) == 0) {
        // Fold the wire's typed retry-after back into the status so
        // Status-only seams above us keep the hint.
        return OverloadedError(resp->status.message(), resp->retry_after_ms);
      }
      return resp->status;  // sentinel-side failure becomes the op's status
    }
    return std::move(*resp);
  }

  // A transport failure mid-round-trip desynchronizes the command/response
  // stream (a late response would answer the wrong command), so the handle
  // is dead from here on: this op reports what happened — kTimeout stays
  // kTimeout, anything else collapses to kClosed — and every later op gets
  // kClosed immediately instead of blocking on a broken link.
  Status Poison(Status cause) AFS_REQUIRES(mu_) {
    poisoned_ = true;
    if (cause.code() == ErrorCode::kTimeout ||
        cause.code() == ErrorCode::kClosed) {
      return cause;
    }
    return ClosedError("sentinel link failed: " + cause.ToString());
  }

  Status SimpleOp(ControlOp op) {
    MutexLock lock(mu_);
    ControlMessage msg;
    msg.op = op;
    AFS_ASSIGN_OR_RETURN(ControlResponse resp, RoundTrip(msg));
    (void)resp;
    return Status::Ok();
  }

  Status RangeOp(ControlOp op, std::uint64_t offset, std::uint64_t length) {
    MutexLock lock(mu_);
    ControlMessage msg;
    msg.op = op;
    msg.offset = static_cast<std::int64_t>(offset);
    msg.range_len = length;
    AFS_ASSIGN_OR_RETURN(ControlResponse resp, RoundTrip(msg));
    (void)resp;
    return Status::Ok();
  }

  void RunCleanup() AFS_REQUIRES(mu_) {
    closed_ = true;
    if (cleanup_) {
      cleanup_();
      cleanup_ = nullptr;
    }
  }

  Mutex mu_;
  sentinel::SentinelLink* link_ AFS_GUARDED_BY(mu_);
  // afs-lint: allow(guarded-member: set at construction; only extends the resource bundle's lifetime)
  std::shared_ptr<void> keepalive_;
  // afs-lint: allow(guarded-member: set at construction; the channel is internally lock-free)
  const std::shared_ptr<CacheLeaseChannel> cache_channel_;
  // Admission (docs/OVERLOAD.md): the per-link gate from the spec's admit_*
  // budgets, then the loop's shard gate; either may be null.
  const std::unique_ptr<AdmissionGate> link_gate_;
  const std::array<AdmissionGate*, 2> gates_;
  const OverloadPolicy policy_;
  const Micros budget_;  // op_timeout_ms; zero means no deadline
  std::function<void()> cleanup_ AFS_GUARDED_BY(mu_);
  bool closed_ AFS_GUARDED_BY(mu_) = false;
  bool poisoned_ AFS_GUARDED_BY(mu_) = false;
};

// ---------------------------------------------------------------------
// DLL-only strategy: operations call the sentinel directly.
class DirectHandle final : public vfs::FileHandle, public ActiveHandle {
 public:
  DirectHandle(std::unique_ptr<sentinel::Sentinel> sent, SentinelContext ctx,
               CacheAssembly cache)
      : sentinel_(std::move(sent)),
        ctx_(std::move(ctx)),
        cache_(std::move(cache)) {
    ctx_.cache = cache_.store.get();
  }

  ~DirectHandle() override {
    MutexLock lock(mu_);
    if (!closed_) (void)DoClose();
  }

  Result<std::size_t> Read(MutableByteSpan out) override {
    MutexLock lock(mu_);
    if (closed_) return ClosedError("handle closed");
    // Same span name the dispatch loop uses, so direct-strategy traces
    // have the same shape as command-strategy ones minus the link leg.
    obs::Span span("sentinel.read");
    AFS_FAULT_POINT("core.direct.op");
    AFS_ASSIGN_OR_RETURN(std::size_t n, sentinel_->OnRead(ctx_, out));
    ctx_.position += n;
    return n;
  }

  Result<std::size_t> Write(ByteSpan data) override {
    MutexLock lock(mu_);
    if (closed_) return ClosedError("handle closed");
    obs::Span span("sentinel.write");
    AFS_FAULT_POINT("core.direct.op");
    AFS_ASSIGN_OR_RETURN(std::size_t n, sentinel_->OnWrite(ctx_, data));
    ctx_.position += n;
    return n;
  }

  Result<std::uint64_t> Seek(std::int64_t offset,
                             vfs::SeekOrigin origin) override {
    MutexLock lock(mu_);
    if (closed_) return ClosedError("handle closed");
    return sentinel_->OnSeek(ctx_, offset, origin);
  }

  Result<std::uint64_t> Size() override {
    MutexLock lock(mu_);
    if (closed_) return ClosedError("handle closed");
    return sentinel_->OnGetSize(ctx_);
  }

  Status SetEndOfFile() override {
    MutexLock lock(mu_);
    if (closed_) return ClosedError("handle closed");
    return sentinel_->OnSetEof(ctx_);
  }

  Status Flush() override {
    MutexLock lock(mu_);
    if (closed_) return ClosedError("handle closed");
    return sentinel_->OnFlush(ctx_);
  }

  Result<std::size_t> ReadScatter(
      std::span<MutableByteSpan> segments) override {
    std::size_t total = 0;
    for (auto& segment : segments) {
      AFS_ASSIGN_OR_RETURN(std::size_t n, Read(segment));
      total += n;
      if (n < segment.size()) break;
    }
    return total;
  }

  Status LockRange(std::uint64_t offset, std::uint64_t length) override {
    MutexLock lock(mu_);
    return sentinel_->OnLock(ctx_, offset, length);
  }
  Status UnlockRange(std::uint64_t offset, std::uint64_t length) override {
    MutexLock lock(mu_);
    return sentinel_->OnUnlock(ctx_, offset, length);
  }

  Result<Buffer> Control(ByteSpan request) override {
    MutexLock lock(mu_);
    if (closed_) return ClosedError("handle closed");
    return sentinel_->OnControl(ctx_, request);
  }

  Status Close() override {
    MutexLock lock(mu_);
    return DoClose();
  }

  Status Open() {
    MutexLock lock(mu_);
    const Status status = sentinel_->OnOpen(ctx_);
    // Mirror the dispatch loop's lifecycle: a failed OnOpen means no
    // session — OnClose must not run and nothing is written back.
    opened_ = status.ok();
    if (!opened_) closed_ = true;
    return status;
  }

 private:
  Status DoClose() AFS_REQUIRES(mu_) {
    if (closed_) return Status::Ok();
    closed_ = true;
    const Status status = sentinel_->OnClose(ctx_);
    const Status flushed = cache_.Finalize();
    return status.ok() ? flushed : status;
  }

  Mutex mu_;
  std::unique_ptr<sentinel::Sentinel> sentinel_ AFS_GUARDED_BY(mu_);
  SentinelContext ctx_ AFS_GUARDED_BY(mu_);
  CacheAssembly cache_ AFS_GUARDED_BY(mu_);
  bool opened_ AFS_GUARDED_BY(mu_) = false;
  bool closed_ AFS_GUARDED_BY(mu_) = false;
};

// ---------------------------------------------------------------------
// Plain process strategy stub: raw pipe ends, no control channel.
class ProcessHandle final : public vfs::FileHandle {
 public:
  ProcessHandle(ipc::PipeEnd to_sentinel, ipc::PipeEnd from_sentinel,
                std::shared_ptr<ipc::ProcessWatch> child, Micros read_timeout,
                std::shared_ptr<ipc::ShmRing> ring = nullptr)
      : to_sentinel_(std::move(to_sentinel)),
        from_sentinel_(std::move(from_sentinel)),
        child_(std::move(child)),
        read_timeout_(read_timeout),
        ring_(std::move(ring)) {}

  Result<std::size_t> Read(MutableByteSpan out) override {
    MutexLock lock(mu_);
    if (closed_) return ClosedError("handle closed");
    // Raw byte stream, no control frames: the trace cannot cross into the
    // sentinel here, so this app-side span is the leaf of the trace.
    obs::Span span("link.stream.read");
    const Deadline deadline = Deadline::In(read_timeout_);
    if (ring_) {
      // Ring mode: bytes only ever travel the ring; the pipes stay open
      // purely as liveness probes.  Each elapsed slice re-checks the
      // outbound pipe — it turns readable (EOF) exactly when a sentinel
      // died without closing the ring.
      while (true) {
        const Micros slice = deadline.Slice(kRingPollSlice);
        if (slice.count() <= 0) {
          return TimeoutError("stream sentinel stopped producing");
        }
        Result<std::size_t> n =
            ring_->ReadSome(ipc::ShmRing::kToApp, out, slice);
        if (n.ok() || n.status().code() != ErrorCode::kTimeout) return n;
        Result<bool> eof = from_sentinel_.Poll();
        if (!eof.ok() || *eof) return std::size_t{0};  // sentinel is gone
      }
    }
    // A sentinel that stops producing must cost kTimeout, not a hang; a
    // dead one closes its end and the read below reports EOF.
    AFS_RETURN_IF_ERROR(from_sentinel_.WaitReadable(deadline));
    return from_sentinel_.ReadSome(out);
  }

  Result<std::size_t> Write(ByteSpan data) override {
    MutexLock lock(mu_);
    if (closed_) return ClosedError("handle closed");
    obs::Span span("link.stream.write");
    if (ring_) {
      AFS_RETURN_IF_ERROR(
          ring_->Write(ipc::ShmRing::kToSentinel, data, ipc::kStallTimeout));
      return data.size();
    }
    AFS_RETURN_IF_ERROR(to_sentinel_.WriteAll(data));
    return data.size();
  }

  // No control channel: these cannot travel to the sentinel (paper §4.1 —
  // "operations such as ReadFileScatter (or seek in Unix) and GetFileSize
  // cannot be implemented").
  Result<std::uint64_t> Seek(std::int64_t, vfs::SeekOrigin) override {
    return UnsupportedError("seek not supported by process strategy");
  }
  Result<std::uint64_t> Size() override {
    return UnsupportedError("GetFileSize not supported by process strategy");
  }

  Status Close() override {
    MutexLock lock(mu_);
    if (closed_) return Status::Ok();
    closed_ = true;
    if (ring_) ring_->CloseAll();  // ring-mode EOF for the sentinel's pump
    to_sentinel_.Close();    // sentinel's writer loop sees EOF
    from_sentinel_.Close();  // unblocks an eagerly-pushing sentinel (EPIPE)
    // Bounded reap: a wedged sentinel is escalated TERM -> KILL rather
    // than blocking Close forever.
    const ipc::ExitStatus ended = child_->Shutdown();
    if (!ended.clean()) {
      return InternalError("sentinel exited with code " +
                           std::to_string(ended.code));
    }
    return Status::Ok();
  }

 private:
  Mutex mu_;
  ipc::PipeEnd to_sentinel_ AFS_GUARDED_BY(mu_);
  ipc::PipeEnd from_sentinel_ AFS_GUARDED_BY(mu_);
  std::shared_ptr<ipc::ProcessWatch> child_ AFS_GUARDED_BY(mu_);
  const Micros read_timeout_;
  // Bulk data plane when non-null (fork mode only; an exec'd stream binary
  // has no handshake to learn about the ring).
  std::shared_ptr<ipc::ShmRing> ring_ AFS_GUARDED_BY(mu_);
  bool closed_ AFS_GUARDED_BY(mu_) = false;
};

// ---------------------------------------------------------------------

// The open epilogue of every command strategy: wraps `link` in its stub
// and waits for the open banner, whose status (OnOpen's) decides whether
// the open succeeds.  A failed open tears the connection down without the
// close protocol (the sentinel loop has already exited).  The banner also
// carries the sentinel's open-time grant, so a caching client holds its
// lease before the first data op; `banner_out`, when set, receives it.
Result<std::unique_ptr<vfs::FileHandle>> OpenLinkHandle(
    const OpenRequest& request, OverloadPolicy policy,
    sentinel::SentinelLink* link, std::shared_ptr<void> keepalive,
    std::function<void()> cleanup, AdmissionGate* shard_gate = nullptr,
    ControlResponse* banner_out = nullptr) {
  auto handle = std::make_unique<LinkHandle>(link, std::move(keepalive),
                                             std::move(cleanup), request,
                                             policy, shard_gate);
  Result<ControlResponse> banner =
      link->AF_GetResponse(Deadline::In(OpTimeout(request)));
  if (!banner.ok() || !banner->status.ok()) {
    handle->Abort();
    return banner.ok() ? banner->status : banner.status();
  }
  if (request.cache_channel != nullptr) {
    request.cache_channel->Observe(*banner);
  }
  if (banner_out != nullptr) *banner_out = std::move(*banner);
  return std::unique_ptr<vfs::FileHandle>(std::move(handle));
}

Result<std::unique_ptr<vfs::FileHandle>> OpenDirect(
    const sentinel::SentinelRegistry& registry, const OpenRequest& request) {
  AFS_ASSIGN_OR_RETURN(CacheAssembly cache,
                       AssembleCache(request.host_path, request.spec));
  AFS_ASSIGN_OR_RETURN(std::unique_ptr<sentinel::Sentinel> sent,
                       registry.Create(request.spec));
  SentinelContext ctx = BuildContext(request, cache);
  auto handle = std::make_unique<DirectHandle>(std::move(sent),
                                               std::move(ctx),
                                               std::move(cache));
  AFS_RETURN_IF_ERROR(handle->Open());
  return std::unique_ptr<vfs::FileHandle>(std::move(handle));
}

Result<std::unique_ptr<vfs::FileHandle>> OpenThread(
    const sentinel::SentinelRegistry& registry, const OpenRequest& request,
    OverloadPolicy overload, SessionProbe* probe) {
  struct Resources {
    ThreadRendezvous rendezvous;
    std::unique_ptr<sentinel::Sentinel> sent;
    SentinelContext ctx;
    CacheAssembly cache;
    std::thread worker;
  };
  auto res = std::make_shared<Resources>();
  AFS_ASSIGN_OR_RETURN(res->cache,
                       AssembleCache(request.host_path, request.spec));
  AFS_ASSIGN_OR_RETURN(res->sent, registry.Create(request.spec));
  res->ctx = BuildContext(request, res->cache);

  if (probe != nullptr) {
    probe->force_down = [res] { res->rendezvous.Shutdown(); };
  }

  // "Inject" the sentinel: a thread inside the application's process.
  Resources* raw = res.get();
  res->worker = std::thread([raw] {
    (void)sentinel::RunSentinelLoop(*raw->sent, raw->rendezvous, raw->ctx);
    // afs-lint: allow(status-discard: loop already exited; cache dir is temp-scoped)
    (void)raw->cache.Finalize();
    // The loop can exit on its own (injected fault, dispatch failure)
    // while the stub still waits for a response; close the slot so that
    // wait ends in kClosed instead of hanging.
    raw->rendezvous.Shutdown();
  });

  auto cleanup = [res]() {
    res->rendezvous.Shutdown();
    if (res->worker.joinable()) res->worker.join();
  };
  return OpenLinkHandle(request, overload, &res->rendezvous, res, cleanup);
}

// Event-loop strategy: the sentinel is neither a process nor a dedicated
// thread — it is state serviced by a shard of the global LoopHost pool.
Result<std::unique_ptr<vfs::FileHandle>> OpenLoop(
    const sentinel::SentinelRegistry& registry, const OpenRequest& request,
    OverloadPolicy overload, SessionProbe* probe) {
  AFS_ASSIGN_OR_RETURN(CacheAssembly cache,
                       AssembleCache(request.host_path, request.spec));
  AFS_ASSIGN_OR_RETURN(std::unique_ptr<sentinel::Sentinel> sent,
                       registry.Create(request.spec));
  SentinelContext ctx = BuildContext(request, cache);

  // "loop_shard" pins co-tenant bundles onto one shard (shared-fate tests,
  // cache locality); unset falls back to round-robin placement.
  int shard_pin = -1;
  if (auto it = request.spec.config.find("loop_shard");
      it != request.spec.config.end()) {
    shard_pin = static_cast<int>(std::strtol(it->second.c_str(), nullptr, 10));
  }

  LoopHost& host = LoopHost::Global();
  AFS_ASSIGN_OR_RETURN(
      std::shared_ptr<LoopSession> session,
      host.Open(std::move(sent), std::move(ctx), std::move(cache), shard_pin));
  if (probe != nullptr) {
    probe->force_down = [session] { session->ForceDown(); };
  }

  // Every command charges the shard's gate, shared with its co-tenants, on
  // top of the per-link gate.
  auto cleanup = [session]() { session->Shutdown(); };
  return OpenLinkHandle(request, overload, session.get(), session, cleanup,
                        &host.ShardGate(session->shard_index()));
}

// The "exec" config key switches the process strategies to the paper's
// literal model: the active part is an external sentinel executable,
// launched fresh rather than forked from the application.
std::string ExecPath(const OpenRequest& request) {
  auto it = request.spec.config.find("exec");
  return it == request.spec.config.end() ? std::string() : it->second;
}

// A child sentinel's force-down: SIGKILL, so a wedged child does not hold
// the teardown for ChildProcess::Shutdown's grace.  Null for a child whose
// data part is a memory cache that only its clean exit writes back:
// killing it would lose writes it acknowledged, so it keeps the bounded
// grace, finishes its op, finds the link closed and closes implicitly.
std::function<void()> ChildForceDown(
    const OpenRequest& request, std::shared_ptr<ipc::ProcessWatch> watch) {
  const auto& config = request.spec.config;
  auto cache = config.find("cache");
  auto writeback = config.find("writeback");
  const bool writes_back =
      cache != config.end() &&
      ParseCacheMode(cache->second).value_or(CacheMode::kNone) ==
          CacheMode::kMemory &&
      (writeback == config.end() || writeback->second != "0");
  if (writes_back) return nullptr;
  return [watch] { watch->Kill(); };
}

Result<std::unique_ptr<vfs::FileHandle>> OpenProcessControl(
    const sentinel::SentinelRegistry& registry, const OpenRequest& request,
    OverloadPolicy overload, SessionProbe* probe) {
  struct Resources {
    std::unique_ptr<PipeLink> link;
    std::shared_ptr<ipc::ProcessWatch> child;
  };
  ipc::IgnoreSigpipe();

  AFS_ASSIGN_OR_RETURN(auto pipes, CreatePipePair());
  auto res = std::make_shared<Resources>();
  res->link = std::make_unique<PipeLink>(std::move(pipes.first));

  // Shared-memory bulk data plane (docs/SHM_DATA_PLANE.md): the
  // application creates the ring; the sentinel attaches via fork
  // inheritance or the --shm-fd handle.  Any setup failure falls back to
  // pipes — the classic data plane stays fully functional.
  const ShmConfig shm = ParseShmConfig(request.spec.config);
  std::shared_ptr<ipc::ShmRing> ring = CreateRingOrFallback(shm);

  const std::string exec_path = ExecPath(request);
  if (!exec_path.empty()) {
    // fork+exec of the sentinel executable; it reopens the bundle itself.
    // The app-side ends must not leak into the exec'd image, or the
    // sentinel never observes EOF when the application closes.  (The ring
    // descriptor, by contrast, is deliberately inheritable.)
    AFS_RETURN_IF_ERROR(res->link->SetCloexec());
    PipeEndpointFds fds = std::move(pipes.second);
    std::vector<std::string> argv = {
        exec_path, "--mode=control",
        "--control-fd=" + std::to_string(fds.control_read.fd()),
        "--response-fd=" + std::to_string(fds.response_write.fd()),
        "--data-fd=" + std::to_string(fds.data_read.fd()),
        "--bundle=" + request.host_path, "--path=" + request.vfs_path,
        "--lockdir=" + request.lock_dir};
    if (ring) {
      // The open banner says whether the attach worked (see below).
      argv.push_back("--shm-fd=" + std::to_string(ring->fd()));
      argv.push_back("--shm-threshold=" + std::to_string(shm.threshold));
    }
    Result<ipc::ChildProcess> spawned = ipc::SpawnExec(argv);
    AFS_RETURN_IF_ERROR(spawned.status());
    res->child = std::make_shared<ipc::ProcessWatch>(std::move(*spawned));
    // fds destruct here: the parent's copies close, the child's survive
    // the exec.
  } else {
    AFS_ASSIGN_OR_RETURN(CacheAssembly cache,
                         AssembleCache(request.host_path, request.spec));
    AFS_ASSIGN_OR_RETURN(std::unique_ptr<sentinel::Sentinel> sent,
                         registry.Create(request.spec));
    SentinelContext ctx = BuildContext(request, cache);

    PipeEndpoint endpoint(std::move(pipes.second));
    if (ring) endpoint.set_shm(ring, shm.threshold);
    // The child's copy of the stack keeps every referenced object alive:
    // it runs the loop inside this call frame and _exit()s.
    Result<ipc::ChildProcess> spawned = ipc::SpawnFunction([&]() -> int {
      // NOTE: the link has no ring attached yet (set_shm below runs only
      // in the parent, after the fork), so this Shutdown touches only the
      // child's copies of the app-side pipe ends — a ring CloseAll here
      // would poison the shared mapping for the parent too.
      res->link->Shutdown();
      const int code = sentinel::RunSentinelLoop(*sent, endpoint, ctx);
      // afs-lint: allow(status-discard: child is about to _exit; exit code is the loop's)
      (void)cache.Finalize();
      // Mark the shared rings closed before _exit so application-side
      // waits end in EOF/kClosed now instead of a timeout later.
      if (ring) ring->CloseAll();
      return code;
    });
    AFS_RETURN_IF_ERROR(spawned.status());
    res->child = std::make_shared<ipc::ProcessWatch>(std::move(*spawned));
    // Parent's copies of the sentinel-side ends close here (scope exit),
    // so EOF propagates if either side dies.
  }
  // Attach the ring to the application side only after the child exists:
  // the fork-mode child's frame must not carry a ring-owning link (see the
  // Shutdown note above).
  if (ring) res->link->set_shm(ring, shm.threshold);

  if (probe != nullptr) {
    probe->child = res->child;
    probe->force_down = ChildForceDown(request, res->child);
  }

  auto cleanup = [res]() {
    res->link->Shutdown();
    (void)res->child->Shutdown();
  };
  ControlResponse banner;
  AFS_ASSIGN_OR_RETURN(
      std::unique_ptr<vfs::FileHandle> handle,
      OpenLinkHandle(request, overload, res->link.get(), res, cleanup,
                     nullptr, &banner));
  if (ring && !banner.shm_ring) {
    // The sentinel could not attach the ring: every payload stays on the
    // pipes for this session.
    res->link->set_shm(nullptr, shm.threshold);
    CountShmFallback();
  }
  return handle;
}

// Fills the probe for a freshly spawned stream/exec sentinel child.
void FillChildProbe(SessionProbe* probe, const OpenRequest& request,
                    const std::shared_ptr<ipc::ProcessWatch>& watch,
                    int to_sentinel_fd) {
  if (probe == nullptr) return;
  probe->child = watch;
  probe->force_down = ChildForceDown(request, watch);
  // The fd stays stable when the PipeEnd moves into the handle; the
  // supervised handle clears this closure before that handle is destroyed.
  probe->peer_alive = [to_sentinel_fd] {
    return ipc::PipeWriterHasReader(to_sentinel_fd);
  };
}

Result<std::unique_ptr<vfs::FileHandle>> OpenProcess(
    const sentinel::SentinelRegistry& registry, const OpenRequest& request,
    SessionProbe* probe) {
  ipc::IgnoreSigpipe();
  // app -> sentinel (the sentinel's standard input in the paper's model).
  AFS_ASSIGN_OR_RETURN(ipc::Pipe inbound, ipc::Pipe::Create());
  // sentinel -> app (its standard output).
  AFS_ASSIGN_OR_RETURN(ipc::Pipe outbound, ipc::Pipe::Create());

  const std::string exec_path = ExecPath(request);
  if (!exec_path.empty()) {
    AFS_RETURN_IF_ERROR(inbound.write_end.SetCloexec());
    AFS_RETURN_IF_ERROR(outbound.read_end.SetCloexec());
    std::vector<std::string> argv = {
        exec_path, "--mode=stream",
        "--in-fd=" + std::to_string(inbound.read_end.fd()),
        "--out-fd=" + std::to_string(outbound.write_end.fd()),
        "--bundle=" + request.host_path, "--path=" + request.vfs_path,
        "--lockdir=" + request.lock_dir};
    if (request.resume_read_pos > 0 || request.resume_write_pos > 0) {
      argv.push_back("--resume-read=" +
                     std::to_string(request.resume_read_pos));
      argv.push_back("--resume-write=" +
                     std::to_string(request.resume_write_pos));
    }
    Result<ipc::ChildProcess> spawned = ipc::SpawnExec(argv);
    AFS_RETURN_IF_ERROR(spawned.status());
    inbound.read_end.Close();
    outbound.write_end.Close();
    auto watch = std::make_shared<ipc::ProcessWatch>(std::move(*spawned));
    FillChildProbe(probe, request, watch, inbound.write_end.fd());
    return std::unique_ptr<vfs::FileHandle>(std::make_unique<ProcessHandle>(
        std::move(inbound.write_end), std::move(outbound.read_end),
        std::move(watch), OpTimeout(request)));
  }

  AFS_ASSIGN_OR_RETURN(CacheAssembly cache,
                       AssembleCache(request.host_path, request.spec));
  AFS_ASSIGN_OR_RETURN(std::unique_ptr<sentinel::Sentinel> sent,
                       registry.Create(request.spec));
  SentinelContext ctx = BuildContext(request, cache);
  const sentinel::StreamResume resume{request.resume_read_pos,
                                      request.resume_write_pos};

  // Fork-mode streams ride the shared ring (same image on both sides, no
  // handshake needed); the pipes stay open as pure liveness probes.  An
  // exec'd stream binary keeps the classic pipe plane — the raw byte
  // protocol has no banner to advertise the ring through.
  const ShmConfig shm = ParseShmConfig(request.spec.config);
  std::shared_ptr<ipc::ShmRing> ring = CreateRingOrFallback(shm);

  Result<ipc::ChildProcess> spawned = ipc::SpawnFunction([&]() -> int {
    // Child's copies of the application-side ends must close for EOF.
    inbound.write_end.Close();
    outbound.read_end.Close();
    sentinel::StreamIo io;
    if (ring) {
      io.read_from_app = [&](MutableByteSpan out) -> Result<std::size_t> {
        // Bounded slices with a liveness probe between them: an
        // application that died without closing the ring leaves its pipe
        // end — which carries no data in ring mode — at EOF (readable).
        while (true) {
          Result<std::size_t> n = ring->ReadSome(ipc::ShmRing::kToSentinel,
                                                 out, kRingPollSlice);
          if (n.ok() || n.status().code() != ErrorCode::kTimeout) return n;
          Result<bool> eof = inbound.read_end.Poll();
          if (!eof.ok() || *eof) return std::size_t{0};  // app is gone
        }
      };
      io.write_to_app = [&](ByteSpan data) {
        return ring->Write(ipc::ShmRing::kToApp, data, ipc::kStallTimeout);
      };
      io.finish_output = [&]() {
        ring->CloseDir(ipc::ShmRing::kToApp);
        outbound.write_end.Close();
      };
    } else {
      io.read_from_app = [&](MutableByteSpan out) {
        return inbound.read_end.ReadSome(out);
      };
      io.write_to_app = [&](ByteSpan data) {
        return outbound.write_end.WriteAll(data);
      };
      io.finish_output = [&]() { outbound.write_end.Close(); };
    }
    const int code = sentinel::RunStreamPump(*sent, io, ctx, resume);
    // afs-lint: allow(status-discard: child is about to _exit; exit code is the pump's)
    (void)cache.Finalize();
    // Mark the rings closed before _exit so application-side waits end in
    // EOF now instead of a liveness-probe round trip later.
    if (ring) ring->CloseAll();
    return code;
  });
  AFS_RETURN_IF_ERROR(spawned.status());

  // Parent's copies of the sentinel-side ends.
  inbound.read_end.Close();
  outbound.write_end.Close();

  auto watch = std::make_shared<ipc::ProcessWatch>(std::move(*spawned));
  FillChildProbe(probe, request, watch, inbound.write_end.fd());
  return std::unique_ptr<vfs::FileHandle>(std::make_unique<ProcessHandle>(
      std::move(inbound.write_end), std::move(outbound.read_end),
      std::move(watch), OpTimeout(request), std::move(ring)));
}

}  // namespace

Result<std::unique_ptr<vfs::FileHandle>> OpenWithStrategy(
    Strategy strategy, const sentinel::SentinelRegistry& registry,
    const OpenRequest& request, SessionProbe* probe) {
  AFS_FAULT_POINT("core.strategy.open");
  // One open counter per strategy (core.open.process, core.open.thread,
  // ...).  Opens fork/spawn anyway, so the registry lookup is noise here.
  obs::Registry::Global()
      .GetCounter(std::string("core.open.") +
                  std::string(StrategyName(strategy)))
      .Add(1);
  if (strategy == Strategy::kProcess) {
    return OpenProcess(registry, request, probe);
  }
  if (strategy == Strategy::kDirect) return OpenDirect(registry, request);
  // The command strategies admit every op under the spec's `overload`
  // policy.  A bad value fails the open here, before any sentinel exists.
  AFS_ASSIGN_OR_RETURN(const OverloadPolicy overload,
                       OverloadPolicyFromSpec(request.spec.config));
  switch (strategy) {
    case Strategy::kProcessControl:
      return OpenProcessControl(registry, request, overload, probe);
    case Strategy::kThread:
      return OpenThread(registry, request, overload, probe);
    case Strategy::kLoop:
      return OpenLoop(registry, request, overload, probe);
    case Strategy::kProcess:
    case Strategy::kDirect:
      break;
  }
  return InvalidArgumentError("bad strategy");
}

}  // namespace afs::core
