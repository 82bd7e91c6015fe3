#include "core/cache.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "common/clock.hpp"
#include "common/faultpoint.hpp"
#include "obs/metrics.hpp"

namespace afs::core {
namespace {

// Client cache granularity.  The resident set, dirty blocks included, is
// capped at cache_bytes / kBlockSize blocks (EvictForInsertLocked), which
// is also what bounds un-flushed write-behind.
constexpr std::size_t kBlockSize = 4096;

std::int64_t SteadyNowMicros() {
  return SteadyClock::Instance().Now().count();
}

}  // namespace

// ---------------------------------------------------------------------------
// CacheLeaseChannel

void CacheLeaseChannel::Observe(const sentinel::ControlResponse& response) {
  if (fault::Enabled() && !fault::Hit("core.cache.grant").ok()) {
    // Injected grant loss: this observation never reaches the client, so
    // the lease ages toward expiry exactly as if the response were
    // delayed on the wire.
    return;
  }
  grant_.store(response.cache_grant, std::memory_order_relaxed);
  lease_ms_.store(response.cache_lease_ms, std::memory_order_relaxed);
  epoch_.store(response.cache_epoch, std::memory_order_relaxed);
  if ((response.cache_grant &
       (sentinel::kGrantRead | sentinel::kGrantWrite)) != 0) {
    ever_granted_.store(true, std::memory_order_relaxed);
    deadline_us_.store(
        SteadyNowMicros() +
            static_cast<std::int64_t>(response.cache_lease_ms) * 1000,
        std::memory_order_relaxed);
  } else {
    deadline_us_.store(0, std::memory_order_relaxed);
  }
  if ((response.cache_grant & sentinel::kGrantRecall) == 0) {
    // The sentinel no longer shows a recall in flight; any pending ack
    // has been consumed.
    ack_pending_.store(false, std::memory_order_relaxed);
  }
}

std::uint8_t CacheLeaseChannel::OutgoingFlags() const noexcept {
  std::uint8_t flags = sentinel::kCacheWantLease;
  if (ack_pending_.load(std::memory_order_relaxed)) {
    flags |= sentinel::kCacheRecallAck;
  }
  return flags;
}

void CacheLeaseChannel::AckRecall() noexcept {
  ack_pending_.store(true, std::memory_order_relaxed);
}

void CacheLeaseChannel::Revoke() noexcept {
  grant_.store(0, std::memory_order_relaxed);
  deadline_us_.store(0, std::memory_order_relaxed);
  revocations_.fetch_add(1, std::memory_order_relaxed);
}

CacheLeaseChannel::State CacheLeaseChannel::Snapshot() const noexcept {
  State state;
  const std::uint8_t grant = grant_.load(std::memory_order_relaxed);
  state.read = (grant & sentinel::kGrantRead) != 0;
  state.write = (grant & sentinel::kGrantWrite) != 0;
  state.recall = (grant & sentinel::kGrantRecall) != 0;
  state.epoch = epoch_.load(std::memory_order_relaxed);
  state.revocations = revocations_.load(std::memory_order_relaxed);
  state.granted_once = ever_granted_.load(std::memory_order_relaxed);
  state.live =
      (state.read || state.write) &&
      SteadyNowMicros() <= deadline_us_.load(std::memory_order_relaxed);
  return state;
}

// ---------------------------------------------------------------------------
// Spec parsing

Result<ClientCacheMode> ParseClientCacheMode(std::string_view name) {
  if (name == "off" || name == "none" || name == "disk" ||
      name == "memory" || name.empty()) {
    return ClientCacheMode::kOff;
  }
  if (name == "read") return ClientCacheMode::kRead;
  if (name == "write") return ClientCacheMode::kWrite;
  return InvalidArgumentError("unknown cache mode: " + std::string(name));
}

ClientCacheOptions ClientCacheOptionsFromSpec(
    const std::map<std::string, std::string>& config) {
  ClientCacheOptions options;
  options.mode = ClientCacheMode::kOff;
  auto it = config.find("cache");
  if (it != config.end()) {
    auto mode = ParseClientCacheMode(it->second);
    if (mode.ok()) options.mode = *mode;
  }
  it = config.find("cache_bytes");
  if (it != config.end()) {
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(it->second.c_str(),
                                                    &end, 10);
    if (end != nullptr && *end == '\0' && parsed > 0) {
      options.cache_bytes = static_cast<std::size_t>(parsed);
    }
  }
  // The budget must hold at least one block or the cache can never admit
  // anything.
  options.cache_bytes = std::max(options.cache_bytes, kBlockSize);
  return options;
}

// ---------------------------------------------------------------------------
// CachedHandle

namespace {

namespace cache_metrics {

obs::Counter& Hits() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("core.cache.hits");
  return counter;
}

obs::Counter& Misses() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("core.cache.misses");
  return counter;
}

obs::Counter& Recalls() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("core.cache.recalls");
  return counter;
}

obs::Counter& LeaseRenews() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("core.cache.lease_renews");
  return counter;
}

obs::Gauge& DirtyBytes() {
  static obs::Gauge& gauge =
      obs::Registry::Global().GetGauge("core.cache.dirty_bytes");
  return gauge;
}

}  // namespace cache_metrics

// The lease-consuming block cache wrapped around a strategy stub.  All
// public ops serialize on mu_ (FileApi permits concurrent calls against
// one handle); the channel is lock-free and shared with the link's
// transport threads.
class CachedHandle final : public vfs::FileHandle, public ActiveHandle {
 public:
  CachedHandle(std::unique_ptr<vfs::FileHandle> inner,
               std::shared_ptr<CacheLeaseChannel> channel,
               const ClientCacheOptions& options)
      : inner_(std::move(inner)),
        channel_(std::move(channel)),
        options_(options) {}

  ~CachedHandle() override = default;

  Result<std::size_t> Read(MutableByteSpan out) override {
    MutexLock lock(mu_);
    CacheLeaseChannel::State lease;
    AFS_RETURN_IF_ERROR(PrepareOpLocked(lease));
    if (!(lease.live && lease.read)) {
      // No read lease: pass through so the sentinel (which revalidates
      // against its upstream) serves the bytes.
      AFS_RETURN_IF_ERROR(SeekInnerLocked(position_));
      auto got = inner_->Read(out);
      if (!got.ok()) {
        inner_pos_known_ = false;
        return got;
      }
      inner_pos_ += *got;
      position_ += *got;
      return got;
    }
    std::size_t total = 0;
    while (total < out.size()) {
      const std::uint64_t index = position_ / kBlockSize;
      const std::size_t offset =
          static_cast<std::size_t>(position_ % kBlockSize);
      Block* block = nullptr;
      AFS_RETURN_IF_ERROR(EnsureBlockLocked(index, &block));
      if (offset >= block->len) break;  // EOF inside this block
      const std::size_t n = std::min(out.size() - total, block->len - offset);
      std::memcpy(out.data() + total, block->data.data() + offset, n);
      position_ += n;
      total += n;
      if (block->len < kBlockSize) break;  // the block ends at EOF
    }
    return total;
  }

  Result<std::size_t> Write(ByteSpan data) override {
    MutexLock lock(mu_);
    CacheLeaseChannel::State lease;
    AFS_RETURN_IF_ERROR(PrepareOpLocked(lease));
    const bool write_behind = options_.mode == ClientCacheMode::kWrite &&
                              lease.live && lease.write;
    if (!write_behind) {
      // Writes bypass the cache: flush anything pending first (ordering),
      // drop cached blocks the write would invalidate, then pass through.
      AFS_RETURN_IF_ERROR(FlushDirtyLocked());
      DropAllLocked();
      AFS_RETURN_IF_ERROR(SeekInnerLocked(position_));
      auto wrote = inner_->Write(data);
      if (!wrote.ok()) {
        inner_pos_known_ = false;
        return wrote;
      }
      inner_pos_ += *wrote;
      position_ += *wrote;
      return wrote;
    }
    std::size_t total = 0;
    while (total < data.size()) {
      const std::uint64_t index = position_ / kBlockSize;
      const std::size_t offset =
          static_cast<std::size_t>(position_ % kBlockSize);
      const std::size_t n = std::min(data.size() - total, kBlockSize - offset);
      Block* block = nullptr;
      if (offset == 0 && n == kBlockSize) {
        // Full overwrite: no read-modify-write fetch needed.
        AFS_RETURN_IF_ERROR(BlankBlockLocked(index, &block));
      } else {
        AFS_RETURN_IF_ERROR(EnsureBlockLocked(index, &block));
      }
      if (!block->dirty) {
        block->dirty = true;
        cache_metrics::DirtyBytes().Add(static_cast<std::int64_t>(kBlockSize));
      }
      std::memcpy(block->data.data() + offset, data.data() + total, n);
      block->len = std::max(block->len, offset + n);
      position_ += n;
      total += n;
    }
    return total;
  }

  Result<std::uint64_t> Seek(std::int64_t offset, vfs::SeekOrigin origin)
      override {
    MutexLock lock(mu_);
    std::int64_t base = 0;
    switch (origin) {
      case vfs::SeekOrigin::kBegin:
        base = 0;
        break;
      case vfs::SeekOrigin::kCurrent:
        base = static_cast<std::int64_t>(position_);
        break;
      case vfs::SeekOrigin::kEnd: {
        // End-relative seeks need the authoritative size, which includes
        // un-flushed write-behind.
        AFS_RETURN_IF_ERROR(FlushDirtyLocked());
        AFS_ASSIGN_OR_RETURN(std::uint64_t size, inner_->Size());
        base = static_cast<std::int64_t>(size);
        break;
      }
    }
    const std::int64_t target = base + offset;
    if (target < 0) {
      return OutOfRangeError("seek before start of file");
    }
    position_ = static_cast<std::uint64_t>(target);
    return position_;
  }

  Result<std::uint64_t> Size() override {
    MutexLock lock(mu_);
    AFS_RETURN_IF_ERROR(FlushDirtyLocked());
    return inner_->Size();
  }

  Status SetEndOfFile() override {
    MutexLock lock(mu_);
    AFS_RETURN_IF_ERROR(FlushDirtyLocked());
    DropAllLocked();
    AFS_RETURN_IF_ERROR(SeekInnerLocked(position_));
    Status status = inner_->SetEndOfFile();
    if (!status.ok()) inner_pos_known_ = false;
    return status;
  }

  Status Flush() override {
    MutexLock lock(mu_);
    AFS_RETURN_IF_ERROR(FlushDirtyLocked());
    return inner_->Flush();
  }

  Status LockRange(std::uint64_t offset, std::uint64_t length) override {
    MutexLock lock(mu_);
    // Range locks coordinate with other openers; anything cached here may
    // be invalidated by what the lock now protects against.
    AFS_RETURN_IF_ERROR(FlushDirtyLocked());
    DropAllLocked();
    return inner_->LockRange(offset, length);
  }

  Status UnlockRange(std::uint64_t offset, std::uint64_t length) override {
    MutexLock lock(mu_);
    AFS_RETURN_IF_ERROR(FlushDirtyLocked());
    return inner_->UnlockRange(offset, length);
  }

  Status Close() override {
    MutexLock lock(mu_);
    // Write-behind must land before the session tears down; a flush
    // failure still closes the inner handle but wins the return value.
    Status flush = FlushDirtyLocked();
    DropAllLocked();
    Status close = inner_->Close();
    return flush.ok() ? close : flush;
  }

  Result<Buffer> Control(ByteSpan request) override {
    MutexLock lock(mu_);
    // OnControl may mutate the data part arbitrarily.
    AFS_RETURN_IF_ERROR(FlushDirtyLocked());
    DropAllLocked();
    auto* active = dynamic_cast<ActiveHandle*>(inner_.get());
    if (active == nullptr) {
      return UnsupportedError("inner handle has no control channel");
    }
    return active->Control(request);
  }

 private:
  struct Block {
    Buffer data;
    std::size_t len = 0;  // valid bytes; < kBlockSize only at EOF
    bool dirty = false;
    std::uint64_t lru = 0;
  };

  // Reconciles the cached blocks with the channel's lease state, then
  // renews a stale lease with one cheap crossing so a hit-only workload
  // cannot coast past its deadline on stale blocks.
  Status PrepareOpLocked(CacheLeaseChannel::State& lease) AFS_REQUIRES(mu_) {
    if (channel_ == nullptr) {
      lease = CacheLeaseChannel::State{};
      return Status::Ok();
    }
    AFS_RETURN_IF_ERROR(SyncLeaseLocked(lease));
    if (!lease.live && lease.granted_once) {
      // Only sentinels that have granted before are worth a renewal
      // crossing; one that never grants stays pure passthrough with zero
      // extra round trips.
      AFS_RETURN_IF_ERROR(RenewLeaseLocked());
      AFS_RETURN_IF_ERROR(SyncLeaseLocked(lease));
    }
    return Status::Ok();
  }

  Status SyncLeaseLocked(CacheLeaseChannel::State& lease) AFS_REQUIRES(mu_) {
    lease = channel_->Snapshot();
    if (lease.revocations != seen_revocations_) {
      // A supervised restart voided the lease (sentinel death or wedge).
      // Dirty blocks are committed application writes: flush them
      // through the supervised inner handle, whose recovery has already
      // replayed the session onto the new sentinel, then drop the rest
      // rather than serve blocks from a dead incarnation.
      AFS_RETURN_IF_ERROR(FlushDirtyLocked());
      DropAllLocked();
      seen_revocations_ = lease.revocations;
      seen_epoch_ = 0;
      acked_epoch_ = 0;
      cache_metrics::Recalls().Add(1);
      lease = channel_->Snapshot();
    }
    const bool epoch_changed = lease.epoch != seen_epoch_;
    const bool unacked_recall = lease.recall && acked_epoch_ != lease.epoch;
    if (epoch_changed || unacked_recall) {
      if (fault::Enabled() && !fault::Hit("core.cache.recall").ok()) {
        // Injected recall loss: the drop is deferred to a later crossing;
        // the lease deadline still bounds how long stale blocks can be
        // served (docs/CACHING.md).
        return Status::Ok();
      }
      const bool counted = lease.recall || seen_epoch_ != 0;
      AFS_RETURN_IF_ERROR(FlushDirtyLocked());
      DropAllLocked();
      seen_epoch_ = lease.epoch;
      if (lease.recall) {
        acked_epoch_ = lease.epoch;
        channel_->AckRecall();
      }
      if (counted) cache_metrics::Recalls().Add(1);
    }
    return Status::Ok();
  }

  // One cheap crossing whose response re-arms the lease via the
  // link's Observe.  A seek to the current position is position-neutral
  // on the sentinel and gives consistency=always sentinels their upstream
  // revalidation point.
  Status RenewLeaseLocked() AFS_REQUIRES(mu_) {
    auto pos = inner_->Seek(0, vfs::SeekOrigin::kCurrent);
    if (!pos.ok()) {
      inner_pos_known_ = false;
      return pos.status();
    }
    inner_pos_ = *pos;
    inner_pos_known_ = true;
    cache_metrics::LeaseRenews().Add(1);
    return Status::Ok();
  }

  Status SeekInnerLocked(std::uint64_t target) AFS_REQUIRES(mu_) {
    if (inner_pos_known_ && inner_pos_ == target) return Status::Ok();
    auto pos = inner_->Seek(static_cast<std::int64_t>(target),
                            vfs::SeekOrigin::kBegin);
    if (!pos.ok()) {
      inner_pos_known_ = false;
      return pos.status();
    }
    inner_pos_ = *pos;
    inner_pos_known_ = true;
    return Status::Ok();
  }

  Status EnsureBlockLocked(std::uint64_t index, Block** out)
      AFS_REQUIRES(mu_) {
    auto it = blocks_.find(index);
    if (it != blocks_.end()) {
      cache_metrics::Hits().Add(1);
      it->second.lru = ++lru_tick_;
      *out = &it->second;
      return Status::Ok();
    }
    cache_metrics::Misses().Add(1);
    AFS_RETURN_IF_ERROR(SeekInnerLocked(index * kBlockSize));
    Block block;
    block.data.resize(kBlockSize);  // zero-filled; short fetches keep zeros
    std::size_t got = 0;
    while (got < kBlockSize) {
      auto n = inner_->Read(
          MutableByteSpan(block.data.data() + got, kBlockSize - got));
      if (!n.ok()) {
        inner_pos_known_ = false;
        return n.status();
      }
      if (*n == 0) break;
      got += *n;
      inner_pos_ += *n;
    }
    block.len = got;
    block.lru = ++lru_tick_;
    AFS_RETURN_IF_ERROR(EvictForInsertLocked());
    auto inserted = blocks_.emplace(index, std::move(block));
    *out = &inserted.first->second;
    return Status::Ok();
  }

  // A block about to be fully overwritten needs no fetch.
  Status BlankBlockLocked(std::uint64_t index, Block** out)
      AFS_REQUIRES(mu_) {
    auto it = blocks_.find(index);
    if (it != blocks_.end()) {
      cache_metrics::Hits().Add(1);
      it->second.lru = ++lru_tick_;
      *out = &it->second;
      return Status::Ok();
    }
    AFS_RETURN_IF_ERROR(EvictForInsertLocked());
    Block block;
    block.data.resize(kBlockSize);
    block.lru = ++lru_tick_;
    auto inserted = blocks_.emplace(index, std::move(block));
    *out = &inserted.first->second;
    return Status::Ok();
  }

  // Keeps the resident set within cache_bytes, preferring clean victims;
  // when every block is dirty, the pending write-behind flushes first.
  Status EvictForInsertLocked() AFS_REQUIRES(mu_) {
    const std::size_t budget_blocks =
        std::max<std::size_t>(1, options_.cache_bytes / kBlockSize);
    while (blocks_.size() >= budget_blocks) {
      auto victim = blocks_.end();
      for (auto it = blocks_.begin(); it != blocks_.end(); ++it) {
        if (it->second.dirty) continue;
        if (victim == blocks_.end() || it->second.lru < victim->second.lru) {
          victim = it;
        }
      }
      if (victim == blocks_.end()) {
        AFS_RETURN_IF_ERROR(FlushDirtyLocked());
        continue;  // every block is clean now; re-pick a victim
      }
      blocks_.erase(victim);
    }
    return Status::Ok();
  }

  // Pushes every dirty block through the inner handle's positional write
  // path (seek + write), in ascending offset order.  Under supervision
  // each write is a retried op whose file pointer the supervised handle
  // replays, which is what makes kill-with-dirty-blocks byte-exact.
  Status FlushDirtyLocked() AFS_REQUIRES(mu_) {
    AFS_FAULT_POINT("core.cache.flush");
    for (auto& [index, block] : blocks_) {
      if (!block.dirty) continue;
      AFS_RETURN_IF_ERROR(SeekInnerLocked(index * kBlockSize));
      std::size_t written = 0;
      while (written < block.len) {
        auto n = inner_->Write(
            ByteSpan(block.data.data() + written, block.len - written));
        if (!n.ok()) {
          inner_pos_known_ = false;
          return n.status();
        }
        if (*n == 0) {
          inner_pos_known_ = false;
          return IoError("short write flushing cache block");
        }
        written += *n;
        inner_pos_ += *n;
      }
      block.dirty = false;
      cache_metrics::DirtyBytes().Add(-static_cast<std::int64_t>(kBlockSize));
    }
    return Status::Ok();
  }

  void DropAllLocked() AFS_REQUIRES(mu_) {
    // Callers flush first; any block still dirty here is being discarded
    // deliberately, so the gauge must give its bytes back.
    for (auto& [index, block] : blocks_) {
      if (!block.dirty) continue;
      cache_metrics::DirtyBytes().Add(-static_cast<std::int64_t>(kBlockSize));
    }
    blocks_.clear();
  }

  const std::unique_ptr<vfs::FileHandle> inner_;
  const std::shared_ptr<CacheLeaseChannel> channel_;
  const ClientCacheOptions options_;

  Mutex mu_;
  std::map<std::uint64_t, Block> blocks_ AFS_GUARDED_BY(mu_);
  std::uint64_t position_ AFS_GUARDED_BY(mu_) = 0;
  std::uint64_t inner_pos_ AFS_GUARDED_BY(mu_) = 0;
  bool inner_pos_known_ AFS_GUARDED_BY(mu_) = true;  // opens at offset zero
  std::uint32_t seen_epoch_ AFS_GUARDED_BY(mu_) = 0;
  std::uint32_t acked_epoch_ AFS_GUARDED_BY(mu_) = 0;
  std::uint64_t seen_revocations_ AFS_GUARDED_BY(mu_) = 0;
  std::uint64_t lru_tick_ AFS_GUARDED_BY(mu_) = 0;
};

}  // namespace

std::unique_ptr<vfs::FileHandle> WrapCached(
    std::unique_ptr<vfs::FileHandle> inner,
    std::shared_ptr<CacheLeaseChannel> channel,
    const ClientCacheOptions& options) {
  return std::make_unique<CachedHandle>(std::move(inner), std::move(channel),
                                        options);
}

}  // namespace afs::core
