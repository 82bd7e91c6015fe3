#include "core/supervisor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdlib>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "core/cache.hpp"
#include "obs/metrics.hpp"

namespace afs::core {

namespace {

// Replaying a crashed stream session means re-sending every write the
// application ever issued (stream writes are unacknowledged, so all are in
// doubt).  Past this many logged bytes the handle stops being restartable
// and a crash degrades instead.
constexpr std::size_t kWriteLogCap = 4u << 20;  // 4 MiB

long long ParseIntKey(const std::map<std::string, std::string>& config,
                      const char* key, long long fallback) {
  auto it = config.find(key);
  if (it == config.end()) return fallback;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

// The failure an op reported, for both return shapes of FileHandle ops.
const Status& StatusOf(const Status& status) { return status; }
template <typename T>
const Status& StatusOf(const Result<T>& result) {
  return result.status();
}

}  // namespace

// ---------------------------------------------------------------------
// DegradeMode / RestartPolicy

std::string_view DegradeModeName(DegradeMode mode) noexcept {
  switch (mode) {
    case DegradeMode::kFail: return "fail";
    case DegradeMode::kReadonly: return "readonly";
    case DegradeMode::kPassthrough: return "passthrough";
  }
  return "?";
}

Result<DegradeMode> ParseDegradeMode(std::string_view name) {
  if (name == "fail") return DegradeMode::kFail;
  if (name == "readonly") return DegradeMode::kReadonly;
  if (name == "passthrough") return DegradeMode::kPassthrough;
  return InvalidArgumentError("unknown degrade mode: " + std::string(name));
}

Result<RestartPolicy> RestartPolicy::FromSpec(
    const std::map<std::string, std::string>& config) {
  RestartPolicy policy;
  auto it = config.find("supervise");
  policy.supervised = it != config.end() && it->second == "1";

  policy.max_restarts = static_cast<int>(
      std::clamp(ParseIntKey(config, "restart_max", policy.max_restarts),
                 0LL, static_cast<long long>(INT_MAX)));

  const long long backoff_ms =
      ParseIntKey(config, "restart_backoff_ms", -1);
  if (backoff_ms >= 0) policy.backoff_initial = MillisToMicros(backoff_ms);
  const long long cap_ms =
      ParseIntKey(config, "restart_backoff_cap_ms", -1);
  if (cap_ms >= 0) policy.backoff_cap = MillisToMicros(cap_ms);

  auto degrade_it = config.find("degrade");
  if (degrade_it != config.end()) {
    AFS_ASSIGN_OR_RETURN(policy.degrade, ParseDegradeMode(degrade_it->second));
  }
  return policy;
}

// ---------------------------------------------------------------------
// Degraded fallback: serves the bundle's data part directly once the
// sentinel is permanently gone.  Thread-compatible — the owning
// SupervisedHandle serializes all calls.

namespace {

class DegradedHandle final : public vfs::FileHandle {
 public:
  // `split_pointers` mirrors stream-strategy semantics (independent read
  // and write streams, no seek); otherwise one shared file pointer.
  DegradedHandle(std::unique_ptr<BundleFile> bundle, bool writable,
                 bool split_pointers, std::uint64_t read_pos,
                 std::uint64_t write_pos)
      : bundle_(std::move(bundle)),
        writable_(writable),
        split_(split_pointers),
        read_pos_(read_pos),
        write_pos_(write_pos) {}

  Result<std::size_t> Read(MutableByteSpan out) override {
    AFS_ASSIGN_OR_RETURN(std::size_t n, bundle_->ReadDataAt(read_pos_, out));
    read_pos_ += n;
    if (!split_) write_pos_ = read_pos_;
    return n;
  }

  Result<std::size_t> Write(ByteSpan data) override {
    if (!writable_) {
      return PermissionDeniedError("active file degraded to readonly");
    }
    AFS_ASSIGN_OR_RETURN(std::size_t n,
                         bundle_->WriteDataAt(write_pos_, data));
    write_pos_ += n;
    if (!split_) read_pos_ = write_pos_;
    return n;
  }

  Result<std::uint64_t> Seek(std::int64_t offset,
                             vfs::SeekOrigin origin) override {
    if (split_) {
      return UnsupportedError("seek not supported by process strategy");
    }
    std::int64_t base = 0;
    switch (origin) {
      case vfs::SeekOrigin::kBegin: base = 0; break;
      case vfs::SeekOrigin::kCurrent:
        base = static_cast<std::int64_t>(read_pos_);
        break;
      case vfs::SeekOrigin::kEnd: {
        AFS_ASSIGN_OR_RETURN(std::uint64_t size, bundle_->DataSize());
        base = static_cast<std::int64_t>(size);
        break;
      }
    }
    const std::int64_t target = base + offset;
    if (target < 0) return OutOfRangeError("seek before start of file");
    read_pos_ = static_cast<std::uint64_t>(target);
    write_pos_ = read_pos_;
    return read_pos_;
  }

  Result<std::uint64_t> Size() override {
    if (split_) {
      return UnsupportedError("GetFileSize not supported by process strategy");
    }
    return bundle_->DataSize();
  }

  Status SetEndOfFile() override {
    if (split_) return UnsupportedError("SetEndOfFile");
    if (!writable_) {
      return PermissionDeniedError("active file degraded to readonly");
    }
    return bundle_->TruncateData(read_pos_);
  }

  Status Flush() override { return bundle_->Flush(); }

  Status Close() override {
    if (bundle_ == nullptr) return Status::Ok();
    const Status flushed = bundle_->Flush();
    bundle_.reset();
    return flushed;
  }

  BundleFile* bundle() noexcept { return bundle_.get(); }

 private:
  std::unique_ptr<BundleFile> bundle_;
  const bool writable_;
  const bool split_;
  std::uint64_t read_pos_;
  std::uint64_t write_pos_;
};

// ---------------------------------------------------------------------
// SupervisedHandle: the tentpole.  Wraps a strategy-opened stub and keeps
// the application's view of the file intact across sentinel crashes.

class SupervisedHandle final : public vfs::FileHandle, public ActiveHandle {
 public:
  SupervisedHandle(const sentinel::SentinelRegistry& registry,
                   Strategy strategy, OpenRequest request,
                   RestartPolicy policy)
      : registry_(registry),
        strategy_(strategy),
        stream_(strategy == Strategy::kProcess),
        request_(std::move(request)),
        policy_(policy) {}

  ~SupervisedHandle() override {
    MutexLock lock(mu_);
    if (!closed_) {
      DropProbe();
      inner_.reset();
      degraded_.reset();
      closed_ = true;
    }
  }

  // First open; crash-class failures (a sentinel killed before the open
  // acknowledgement) consume restart budget like any later crash.
  Status Open() {
    MutexLock lock(mu_);
    while (true) {
      Status opened = OpenSessionLocked();
      if (opened.ok()) return Status::Ok();
      if (!CrashClass(opened)) return opened;  // legitimate open failure
      AFS_RETURN_IF_ERROR(NextRestartLocked("open"));
      if (mode_ == Mode::kDegraded) return Status::Ok();
    }
  }

  Result<std::size_t> Read(MutableByteSpan out) override {
    MutexLock lock(mu_);
    AFS_RETURN_IF_ERROR(Ready());
    Result<std::size_t> got = Replayable(
        "read",
        [&](vfs::FileHandle& h) AFS_REQUIRES(mu_) -> Result<std::size_t> {
          Result<std::size_t> n = h.Read(out);
          if (n.ok() && *n == 0 && stream_ && StreamEofWasCrash()) {
            return ClosedError("sentinel died mid-stream");
          }
          return n;
        });
    if (!got.ok()) return got;
    if (stream_) {
      read_pos_ += *got;
    } else {
      position_ += static_cast<std::int64_t>(*got);
    }
    return got;
  }

  Result<std::size_t> Write(ByteSpan data) override {
    MutexLock lock(mu_);
    AFS_RETURN_IF_ERROR(Ready());
    if (stream_ && mode_ == Mode::kActive) return StreamWrite(data);
    Result<std::size_t> wrote = Replayable(
        "write", [&](vfs::FileHandle& h) { return h.Write(data); });
    if (wrote.ok()) position_ += static_cast<std::int64_t>(*wrote);
    return wrote;
  }

  // The stream strategy's stub answers Seek, Size and SetEndOfFile with
  // kUnsupported locally, which is not crash-class: it passes straight
  // through the retry loop.
  Result<std::uint64_t> Seek(std::int64_t offset,
                             vfs::SeekOrigin origin) override {
    MutexLock lock(mu_);
    AFS_RETURN_IF_ERROR(Ready());
    Result<std::uint64_t> pos = Replayable(
        "seek", [&](vfs::FileHandle& h) { return h.Seek(offset, origin); });
    if (pos.ok()) position_ = static_cast<std::int64_t>(*pos);
    return pos;
  }

  Result<std::uint64_t> Size() override {
    MutexLock lock(mu_);
    AFS_RETURN_IF_ERROR(Ready());
    return Replayable("size", [](vfs::FileHandle& h) { return h.Size(); });
  }

  Status SetEndOfFile() override {
    MutexLock lock(mu_);
    AFS_RETURN_IF_ERROR(Ready());
    return Replayable("seteof",
                      [](vfs::FileHandle& h) { return h.SetEndOfFile(); });
  }

  Status Flush() override {
    MutexLock lock(mu_);
    AFS_RETURN_IF_ERROR(Ready());
    return Replayable("flush", [](vfs::FileHandle& h) { return h.Flush(); });
  }

  Result<std::size_t> ReadScatter(
      std::span<MutableByteSpan> segments) override {
    if (stream_) {
      return UnsupportedError("ReadFileScatter not supported on this handle");
    }
    std::size_t total = 0;
    for (auto& segment : segments) {
      AFS_ASSIGN_OR_RETURN(std::size_t n, Read(segment));
      total += n;
      if (n < segment.size()) break;
    }
    return total;
  }

  Status LockRange(std::uint64_t offset, std::uint64_t length) override {
    return NonReplayable("lock", [&](vfs::FileHandle& h) {
      return h.LockRange(offset, length);
    });
  }
  Status UnlockRange(std::uint64_t offset, std::uint64_t length) override {
    return NonReplayable("unlock", [&](vfs::FileHandle& h) {
      return h.UnlockRange(offset, length);
    });
  }

  // A degraded handle serves only the data part, so it has no control
  // channel either.
  Result<Buffer> Control(ByteSpan request) override {
    return NonReplayable("custom", [&](vfs::FileHandle& h) -> Result<Buffer> {
      auto* active = dynamic_cast<ActiveHandle*>(&h);
      if (active == nullptr) {
        return UnsupportedError("handle has no control channel");
      }
      return active->Control(request);
    });
  }

  Status Close() override {
    MutexLock lock(mu_);
    if (closed_) return Status::Ok();
    Status status = Status::Ok();
    if (mode_ == Mode::kDegraded) {
      status = degraded_->Close();
    } else if (mode_ == Mode::kActive) {
      while (true) {
        status = inner_->Close();
        // The control strategies tolerate a sentinel that vanishes instead
        // of acking the close (their Close reports OK); under supervision a
        // child that died abnormally means OnClose never ran, so that is a
        // crash regardless of what the inner handle reported.
        if (status.ok() && ChildDiedAbnormally()) {
          status = ClosedError("sentinel died during close");
        }
        if (status.ok() || !CloseCrashClass(status)) break;
        // Crash during close: the sentinel's OnClose side effects are in
        // doubt.  Restart so they run on a live sentinel; when the budget
        // runs out, fall back per the degrade mode (a degraded close
        // flushes the data part, which is all that is left to do).
        Status recovered = RecoverLocked("close");
        if (!recovered.ok()) {
          status = recovered;
          break;
        }
        if (mode_ == Mode::kDegraded) {
          status = degraded_->Close();
          break;
        }
      }
    }
    DropProbe();
    inner_.reset();
    degraded_.reset();
    closed_ = true;
    return status;
  }

 private:
  enum class Mode : std::uint8_t { kActive, kDegraded, kFailed };

  Status Ready() AFS_REQUIRES(mu_) {
    if (closed_) return ClosedError("handle closed");
    if (mode_ == Mode::kFailed) {
      return ClosedError("active file failed permanently (degrade=fail)");
    }
    return Status::Ok();
  }

  bool ChildDiedAbnormally() AFS_REQUIRES(mu_) {
    if (probe_.child == nullptr) return false;
    const std::optional<ipc::ExitStatus> ended = probe_.child->Poll();
    return ended.has_value() && !ended->clean();
  }

  // A raw-stream EOF is ambiguous: a finished pump closes its output end,
  // but so does the kernel tearing down a killed sentinel.  The teardown is
  // not atomic: the EOF routinely becomes visible to the application before
  // either the child is reapable or the companion pipe reports its reader
  // gone (measured up to ~8ms apart under load).  So no single instant
  // probe can classify the EOF; instead, wait for whichever durable signal
  // settles first:
  //   - child exits            -> crash iff the exit was abnormal;
  //   - reader present, and it STAYS present across the teardown window
  //                            -> genuine end-of-data (a healthy pump holds
  //                               the app->sentinel read end until close);
  //   - reader gone but child never reapable within the deadline
  //                            -> the child is mid-exit: a crash.
  bool StreamEofWasCrash() AFS_REQUIRES(mu_) {
    if (probe_.child == nullptr) return false;
    constexpr auto kStep = std::chrono::microseconds(500);
    constexpr int kIters = 200;        // 100ms hard deadline
    constexpr int kConfirmStreak = 40;  // reader must hold ~20ms to be trusted
    int alive_streak = 0;
    bool reader_gone = false;
    for (int i = 0; i < kIters; ++i) {
      const std::optional<ipc::ExitStatus> ended = probe_.child->Poll();
      if (ended.has_value()) return !ended->clean();
      if (probe_.peer_alive) {
        if (probe_.peer_alive()) {
          if (++alive_streak >= kConfirmStreak) return false;
        } else {
          alive_streak = 0;
          reader_gone = true;
        }
      }
      std::this_thread::sleep_for(kStep);
    }
    // Deadline passed with the child running.  A live pump would have held
    // its read end the whole time; if the reader ever vanished, the child
    // is stuck mid-exit and the EOF was its death, not end-of-data.
    return reader_gone;
  }

  // Transport failures that mean "the sentinel is gone" (kClosed: it
  // closed the link) or "the sentinel is wedged" (kTimeout: the op ran
  // past op_timeout_ms), as opposed to sentinel-side operation errors
  // (which pass through untouched).
  bool CrashClass(const Status& status) AFS_REQUIRES(mu_) {
    switch (status.code()) {
      case ErrorCode::kClosed:
      case ErrorCode::kTimeout:
        return true;
      case ErrorCode::kIoError:
        return ChildDiedAbnormally();
      default:
        return false;
    }
  }

  // Close additionally reports an abnormal child exit as kInternal
  // ("sentinel exited with code N"); that is a crash too.
  bool CloseCrashClass(const Status& status) AFS_REQUIRES(mu_) {
    if (CrashClass(status)) return true;
    return status.code() == ErrorCode::kInternal && ChildDiedAbnormally();
  }

  // The one retry loop of the replayable ops.  Runs `attempt` on the live
  // session; a crash-class failure recovers (force down, restart, replay)
  // and runs it again, on the degraded fallback once the restart budget is
  // spent.  Callers update the replay state from the result; after a
  // degrade nothing replays, so that bookkeeping is inert.
  template <typename Attempt,
            typename R = std::invoke_result_t<Attempt&, vfs::FileHandle&>>
  R Replayable(const char* op, Attempt&& attempt) AFS_REQUIRES(mu_) {
    if (mode_ == Mode::kDegraded) return attempt(*degraded_);
    while (true) {
      R result = attempt(*inner_);
      if (result.ok() || !CrashClass(StatusOf(result))) return result;
      AFS_RETURN_IF_ERROR(RecoverLocked(op));
      if (mode_ == Mode::kDegraded) return attempt(*degraded_);
    }
  }

  // Locks and application-specific commands are not idempotent, so a crash
  // mid-operation is NOT retried: the handle heals (the next operation
  // works) but this call reports the failure.
  template <typename Attempt,
            typename R = std::invoke_result_t<Attempt&, vfs::FileHandle&>>
  R NonReplayable(const char* op, Attempt&& attempt) {
    MutexLock lock(mu_);
    AFS_RETURN_IF_ERROR(Ready());
    if (mode_ == Mode::kDegraded) return attempt(*degraded_);
    R result = attempt(*inner_);
    if (!result.ok() && CrashClass(StatusOf(result))) {
      (void)RecoverLocked(op);  // heal the handle, report the failure
    }
    return result;
  }

  // Stream writes are fire-and-forget, so the crash retry IS the replay:
  // the restarted pump re-applies the whole logged write sequence from
  // position zero (positional OnWrite makes that idempotent), and this
  // write rides along — it must not be sent again afterwards.
  Result<std::size_t> StreamWrite(ByteSpan data) AFS_REQUIRES(mu_) {
    AppendWriteLog(data);
    Result<std::size_t> wrote = inner_->Write(data);
    if (wrote.ok()) {
      write_pos_ += *wrote;
      return wrote;
    }
    if (!CrashClass(wrote.status())) return wrote;
    AFS_RETURN_IF_ERROR(RecoverLocked("write"));
    if (mode_ == Mode::kDegraded) return degraded_->Write(data);
    // Recovery replayed the log (this write included).
    write_pos_ += data.size();
    return data.size();
  }

  void AppendWriteLog(ByteSpan data) AFS_REQUIRES(mu_) {
    if (write_log_bytes_ + data.size() > kWriteLogCap) {
      if (!write_log_overflow_) {
        write_log_overflow_ = true;
        AFS_LOG(kWarn, "afs.supervisor")
            << request_.vfs_path << ": write log exceeded "
            << kWriteLogCap << " bytes; a crash now degrades instead of "
            << "restarting";
      }
      return;
    }
    write_log_.emplace_back(data.begin(), data.end());
    write_log_bytes_ += data.size();
  }

  // Spawns one session (sentinel + probe).  On success the handle is
  // active.
  Status OpenSessionLocked() AFS_REQUIRES(mu_) {
    OpenRequest request = request_;
    if (stream_) {
      request.resume_read_pos = read_pos_;
      request.resume_write_pos = 0;  // the write log replays from zero
    }
    SessionProbe probe;
    Result<std::unique_ptr<vfs::FileHandle>> opened =
        OpenWithStrategy(strategy_, registry_, request, &probe);
    AFS_RETURN_IF_ERROR(opened.status());
    DropProbe();  // drop any previous incarnation before installing
    probe_ = std::move(probe);
    inner_ = std::move(*opened);
    return Status::Ok();
  }

  // Replays the session record onto a fresh sentinel: file pointer for
  // command strategies, the write log for the stream strategy.
  Status ReplayLocked() AFS_REQUIRES(mu_) {
    static obs::Counter& replays =
        obs::Registry::Global().GetCounter("core.supervisor.session_replays");
    replays.Add(1);
    if (stream_) {
      for (const Buffer& logged : write_log_) {
        AFS_ASSIGN_OR_RETURN(std::size_t n, inner_->Write(ByteSpan(logged)));
        if (n != logged.size()) {
          return IoError("short write during session replay");
        }
      }
      return Status::Ok();
    }
    if (position_ == 0) return Status::Ok();
    AFS_ASSIGN_OR_RETURN(std::uint64_t pos,
                         inner_->Seek(position_, vfs::SeekOrigin::kBegin));
    if (static_cast<std::int64_t>(pos) != position_) {
      return IoError("seek replay landed at the wrong position");
    }
    return Status::Ok();
  }

  // Consumes one unit of restart budget (with backoff) or degrades.
  // Returns OK when the caller may retry (restarted or degraded); an error
  // when the handle is permanently failed.
  Status NextRestartLocked(const char* why) AFS_REQUIRES(mu_) {
    DropProbe();
    inner_.reset();
    if (restarts_ >= policy_.max_restarts ||
        (stream_ && write_log_overflow_)) {
      return DegradeLocked(why);
    }
    ++restarts_;
    static obs::Counter& restarts =
        obs::Registry::Global().GetCounter("core.supervisor.restarts");
    restarts.Add(1);
    // Doubling delay, recomputed from the attempt number so the budget is
    // global to the handle rather than per-operation.  Comparing against
    // half the cap keeps the doubling from overflowing.
    Micros delay = policy_.backoff_initial;
    for (int i = 1; i < restarts_ && delay < policy_.backoff_cap; ++i) {
      delay = delay > policy_.backoff_cap / 2 ? policy_.backoff_cap
                                              : delay * 2;
    }
    if (delay.count() > 0) SteadyClock::Instance().SleepFor(delay);
    AFS_LOG(kWarn, "afs.supervisor")
        << request_.vfs_path << ": restarting sentinel after crash during "
        << why << " (attempt " << restarts_ << "/" << policy_.max_restarts
        << ")";
    return Status::Ok();
  }

  // Full crash recovery: tear down, restart with backoff, re-attach,
  // replay.  OK = retry the interrupted operation (active again or
  // degraded); error = permanently failed.
  Status RecoverLocked(const char* why) AFS_REQUIRES(mu_) {
    // Dead or wedged, the old sentinel goes down before the handle lets
    // go of it, so a wedged child does not hold up the teardown for its
    // shutdown grace.  Writes it acknowledged into a memory cache survive:
    // in-process sessions still close implicitly once their op returns,
    // and such a child gets no force_down (see SessionProbe).
    if (probe_.force_down) probe_.force_down();
    if (request_.cache_channel != nullptr) {
      // Void the client cache's lease before a restarted sentinel (whose
      // epoch numbering starts over) answers anything.
      request_.cache_channel->Revoke();
    }
    while (true) {
      AFS_RETURN_IF_ERROR(NextRestartLocked(why));
      if (mode_ == Mode::kDegraded) return Status::Ok();
      Status opened = OpenSessionLocked();
      if (!opened.ok()) continue;  // crashed again before the open-ack
      Status replayed = ReplayLocked();
      if (!replayed.ok()) {
        AFS_LOG(kWarn, "afs.supervisor")
            << request_.vfs_path << ": session replay failed ("
            << replayed.ToString() << "); retrying";
        continue;
      }
      return Status::Ok();
    }
  }

  // Restart budget exhausted (or restart impossible): fall back to the
  // bundle's data part per the declared degrade mode.
  Status DegradeLocked(const char* why) AFS_REQUIRES(mu_) {
    DropProbe();
    inner_.reset();
    static obs::Counter& degrades =
        obs::Registry::Global().GetCounter("core.supervisor.degrades");
    degrades.Add(1);
    if (policy_.degrade == DegradeMode::kFail) {
      mode_ = Mode::kFailed;
      AFS_LOG(kError, "afs.supervisor")
          << request_.vfs_path << ": sentinel permanently failed during "
          << why << " after " << restarts_ << " restart(s)";
      return ClosedError("sentinel permanently failed (crash during " +
                         std::string(why) + ")");
    }
    Result<std::unique_ptr<BundleFile>> bundle =
        BundleFile::Open(request_.host_path);
    if (!bundle.ok()) {
      mode_ = Mode::kFailed;
      return ClosedError("cannot degrade: " + bundle.status().ToString());
    }
    const bool writable = policy_.degrade == DegradeMode::kPassthrough;
    auto fallback = std::make_unique<DegradedHandle>(
        std::move(*bundle), writable, stream_,
        stream_ ? read_pos_ : static_cast<std::uint64_t>(position_),
        stream_ ? write_pos_ : static_cast<std::uint64_t>(position_));
    if (stream_ && writable && !write_log_overflow_) {
      // Make the data part byte-exact: unacknowledged stream writes may or
      // may not have been applied by the dead sentinel, so re-apply the
      // whole log positionally.
      std::uint64_t offset = 0;
      for (const Buffer& logged : write_log_) {
        Result<std::size_t> n =
            fallback->bundle()->WriteDataAt(offset, ByteSpan(logged));
        if (!n.ok()) {
          mode_ = Mode::kFailed;
          return ClosedError("cannot degrade: " + n.status().ToString());
        }
        offset += *n;
      }
    }
    degraded_ = std::move(fallback);
    mode_ = Mode::kDegraded;
    AFS_LOG(kWarn, "afs.supervisor")
        << request_.vfs_path << ": degraded to "
        << DegradeModeName(policy_.degrade) << " after crash during " << why;
    return Status::Ok();
  }

  // Must run before inner_ is dropped: peer_alive probes a descriptor the
  // inner handle owns.
  void DropProbe() AFS_REQUIRES(mu_) { probe_ = SessionProbe{}; }

  const sentinel::SentinelRegistry& registry_;
  const Strategy strategy_;
  const bool stream_;
  const OpenRequest request_;
  const RestartPolicy policy_;

  Mutex mu_;
  std::unique_ptr<vfs::FileHandle> inner_ AFS_GUARDED_BY(mu_);
  std::unique_ptr<DegradedHandle> degraded_ AFS_GUARDED_BY(mu_);
  SessionProbe probe_ AFS_GUARDED_BY(mu_);
  Mode mode_ AFS_GUARDED_BY(mu_) = Mode::kActive;
  bool closed_ AFS_GUARDED_BY(mu_) = false;
  int restarts_ AFS_GUARDED_BY(mu_) = 0;

  // The session record: what recovery replays onto a fresh sentinel.
  std::int64_t position_ AFS_GUARDED_BY(mu_) = 0;   // command strategies
  std::uint64_t read_pos_ AFS_GUARDED_BY(mu_) = 0;  // stream strategy
  std::uint64_t write_pos_ AFS_GUARDED_BY(mu_) = 0;
  std::vector<Buffer> write_log_ AFS_GUARDED_BY(mu_);
  std::size_t write_log_bytes_ AFS_GUARDED_BY(mu_) = 0;
  bool write_log_overflow_ AFS_GUARDED_BY(mu_) = false;
};

}  // namespace

Result<std::unique_ptr<vfs::FileHandle>> OpenSupervised(
    const sentinel::SentinelRegistry& registry, Strategy strategy,
    const OpenRequest& request, const RestartPolicy& policy) {
  if (strategy == Strategy::kDirect) {
    return UnsupportedError(
        "direct strategy runs the sentinel in the caller's frame and "
        "cannot be supervised");
  }
  const auto& config = request.spec.config;
  if (config.count("lease_ms") != 0 && config.count("op_timeout_ms") == 0) {
    // Before op-path detection, lease_ms also bounded a supervised
    // sentinel's liveness; say once that it no longer does.
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
      AFS_LOG(kWarn, "afs.supervisor")
          << request.vfs_path
          << ": lease_ms is only the client-cache lease; set op_timeout_ms "
             "to bound how long a wedged sentinel can block an op";
    }
  }
  auto handle = std::make_unique<SupervisedHandle>(
      registry, strategy, request, policy);
  AFS_RETURN_IF_ERROR(handle->Open());
  return std::unique_ptr<vfs::FileHandle>(std::move(handle));
}

}  // namespace afs::core
