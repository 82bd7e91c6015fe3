// afs::core supervision layer: keeps active files usable across sentinel
// crashes (the paper's Section 3 contract — "the application sees an
// ordinary file" — extended to hold when the sentinel dies).
//
// Three cooperating pieces:
//
//   Lease / SessionProbe — per-link liveness.  Process-backed sentinels are
//     watched with waitpid (non-blocking) plus heartbeat frames on the
//     response pipe; in-process (DLL-with-thread) sentinels renew a
//     shared-memory lease stamp from inside their dispatch wait.  A
//     sentinel is declared dead on lease expiry or child exit — not only
//     when a pipe finally reports EPIPE.
//
//   Supervisor — a monitor thread polling every attached session.  A dead
//     or wedged sentinel is forced down (SIGKILL / rendezvous shutdown) so
//     any application operation blocked on it wakes immediately with a
//     transport error instead of hanging.
//
//   OpenSupervised — wraps a strategy-opened handle in a stub that owns a
//     replayable session record (SessionJournal): on a crash it restarts
//     the sentinel with bounded backoff (RestartPolicy), re-attaches by
//     replaying the file-pointer position, retries the interrupted
//     idempotent operation exactly once, and — when restarts are exhausted
//     — degrades per the bundle's declared mode (passthrough/readonly)
//     instead of poisoning the handle.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/mutex.hpp"
#include "common/status.hpp"
#include "core/event_loop.hpp"
#include "core/strategies.hpp"
#include "ipc/process.hpp"
#include "vfs/file_handle.hpp"

namespace afs::core {

class SessionJournal;

// A monotonically renewed liveness stamp shared between the sentinel side
// (which renews) and the supervisor (which measures age).  Lock-free: the
// renewing side may be an injected thread's wait loop or a pipe drain.
class Lease {
 public:
  Lease() { Renew(); }

  void Renew() noexcept {
    stamp_us_.store(NowUs(), std::memory_order_release);
  }

  Micros Age() const noexcept {
    return Micros{NowUs() - stamp_us_.load(std::memory_order_acquire)};
  }

  static std::int64_t NowUs() noexcept {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  std::atomic<std::int64_t> stamp_us_{0};
};

// What a bundle falls back to when its sentinel is permanently dead
// (restart budget exhausted or restart disabled).
enum class DegradeMode : std::uint8_t {
  kFail = 0,         // poisoned handle (historical behavior)
  kReadonly = 1,     // serve the bundle's data part, reject writes
  kPassthrough = 2,  // serve the bundle's data part read-write
};

std::string_view DegradeModeName(DegradeMode mode) noexcept;
Result<DegradeMode> ParseDegradeMode(std::string_view name);

// Per-bundle supervision settings, parsed from reserved spec config keys:
//   "supervise"          : "1" enables the supervisor wrapper
//   "restart_max"        : restart budget per handle lifetime (default 3)
//   "restart_backoff_ms" : initial restart backoff (default 2ms, doubling)
//   "restart_backoff_cap_ms" : backoff ceiling (default 100ms)
//   "lease_ms"           : liveness lease; 0 (default) disables proactive
//                          heartbeat/lease checking (transport errors and
//                          waitpid still detect death)
//   "degrade"            : fail | readonly | passthrough (default fail)
struct RestartPolicy {
  bool supervised = false;
  int max_restarts = 3;
  Micros backoff_initial{2'000};
  Micros backoff_cap{100'000};
  Micros lease{0};
  DegradeMode degrade = DegradeMode::kFail;

  static Result<RestartPolicy> FromSpec(
      const std::map<std::string, std::string>& config);
};

// Introspection a strategy hands back so one open can be supervised.
// Everything here must be safe to use from the monitor thread while the
// owning handle runs operations.
struct SessionProbe {
  // Renewed by the sentinel side (pipe heartbeat drain or rendezvous wait).
  std::shared_ptr<Lease> lease;

  // The sentinel's host process for the process strategies; null when the
  // sentinel shares the application's process.
  std::shared_ptr<ipc::ProcessWatch> child;

  // Forces the link down so blocked application operations wake with a
  // transport error (SIGKILL the child / shut the rendezvous).
  std::function<void()> force_down;

  // Drains pending heartbeat frames into the lease (pipe transports).
  std::function<void()> poll_heartbeats;

  // Voids the client-side cache lease the moment this session is declared
  // dead (docs/CACHING.md): a lease expiring during a supervised restart
  // must re-validate, never serve stale blocks.  Set by OpenSupervised
  // when the open carries a cache channel; null otherwise.
  std::function<void()> cache_revoke;

  // Stream strategy only: true while the sentinel still holds the read end
  // of the app->sentinel pipe.  A raw-stream EOF is ambiguous (finished
  // pump vs. killed child before waitpid can see it); this probe resolves
  // it instantly.  Valid only while the owning handle's inner session is
  // alive — the supervised handle drops it before tearing the session down.
  std::function<bool()> peer_alive;
};

// The monitor.  One instance per ActiveFileManager; its sweep runs on a
// private event loop's timer wheel (core/event_loop.hpp), started lazily
// with the first attached session and stopped with the supervisor.
class Supervisor {
 public:
  Supervisor() = default;
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  // One supervised open's liveness state, shared between the monitor and
  // the owning handle.
  struct Session;

  // Registers a session; `lease` of 0 disables lease-expiry checking for
  // it (child-exit detection still applies when the probe has a child).
  std::shared_ptr<Session> Attach(SessionProbe probe, Micros lease);

  // Replaces the probe after a restart (new child / new rendezvous).
  void Rebind(const std::shared_ptr<Session>& session, SessionProbe probe);

  // Unregisters; the session's probe is dropped.
  void Detach(const std::shared_ptr<Session>& session);

  // True when the monitor (or a failed operation) declared the sentinel
  // behind `session` dead and it has not been rebound since.
  static bool DeclaredDead(const std::shared_ptr<Session>& session);

  // Marks a session dead from the op path (transport failure observed).
  static void MarkDead(const std::shared_ptr<Session>& session);

 private:
  void EnsureLoopLocked() AFS_REQUIRES(mu_);
  void MonitorTick();

  Mutex mu_;
  std::vector<std::shared_ptr<Session>> sessions_ AFS_GUARDED_BY(mu_);
  bool stop_ AFS_GUARDED_BY(mu_) = false;
  bool running_ AFS_GUARDED_BY(mu_) = false;
  // The monitor's timer wheel: a self-rearming kMonitorTick timer sweeps
  // the sessions.  Start/Stop are internally synchronized.
  // afs-lint: allow(guarded-member: EventLoop is internally synchronized)
  EventLoop loop_;
};

// Opens `request` under supervision: the returned handle transparently
// restarts its sentinel per `policy` and replays position/state so the
// application never observes the crash (or degrades per the declared
// mode).  `journal` records the replayable session state write-ahead.
// Direct-strategy opens are not supervisable (the sentinel runs in the
// caller's frame) and are rejected with kUnsupported.
Result<std::unique_ptr<vfs::FileHandle>> OpenSupervised(
    Supervisor& supervisor, SessionJournal& journal,
    const sentinel::SentinelRegistry& registry, Strategy strategy,
    const OpenRequest& request, const RestartPolicy& policy);

}  // namespace afs::core
