// afs::core supervision layer: keeps active files usable across sentinel
// crashes (the paper's Section 3 contract — "the application sees an
// ordinary file" — extended to hold when the sentinel dies).
//
// Failure is detected on the op path only, by two signals every
// supervised op already waits on:
//
//   - a dead sentinel closes its ends of the link, so the blocked op sees
//     EOF / kClosed at once;
//   - a wedged sentinel runs the op past its `op_timeout_ms` deadline, so
//     the op sees kTimeout.
//
// No monitor thread, timer or heartbeat watches an idle session.  On
// either signal OpenSupervised's stub forces the old sentinel down
// (SessionProbe::force_down),
// restarts it with bounded backoff (RestartPolicy), re-attaches by
// replaying the session record the handle keeps in memory (the file
// pointer for the command strategies, the write log for the stream
// strategy), retries the interrupted idempotent operation, and — when
// restarts are exhausted — degrades per the bundle's declared mode
// (passthrough/readonly) instead of poisoning the handle.  The restart,
// degrade and permanent-failure log lines and the core.supervisor.*
// counters are the audit record.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/clock.hpp"
#include "common/status.hpp"
#include "core/strategies.hpp"
#include "ipc/process.hpp"
#include "vfs/file_handle.hpp"

namespace afs::core {

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
//   "degrade"            : fail | readonly | passthrough (default fail)
// The liveness bound is the strategy's "op_timeout_ms"; "lease_ms" is only
// the client-cache lease and detects nothing.
struct RestartPolicy {
  bool supervised = false;
  int max_restarts = 3;
  Micros backoff_initial{2'000};
  Micros backoff_cap{100'000};
  DegradeMode degrade = DegradeMode::kFail;

  static Result<RestartPolicy> FromSpec(
      const std::map<std::string, std::string>& config);
};

// Introspection a strategy hands back so one open can be supervised.
// Used only by the owning handle, between its operations.
struct SessionProbe {
  // The sentinel's host process for the process strategies; null when the
  // sentinel shares the application's process.
  std::shared_ptr<ipc::ProcessWatch> child;

  // Forces the link down before the handle abandons it: SIGKILL the child,
  // so a wedged one does not hold the teardown for its shutdown grace;
  // shut the rendezvous; shut the loop session and wait for its shard.
  // The in-process strategies still run OnClose and the cache writeback
  // once the op in flight returns.  Null for a child whose memory cache
  // only a clean exit writes back: it keeps the grace rather than lose
  // acknowledged writes.
  std::function<void()> force_down;

  // Stream strategy only: true while the sentinel still holds the read end
  // of the app->sentinel pipe.  A raw-stream EOF is ambiguous (finished
  // pump vs. killed child before waitpid can see it); this probe resolves
  // it instantly.  Valid only while the owning handle's inner session is
  // alive — the supervised handle drops it before tearing the session down.
  std::function<bool()> peer_alive;
};

// Opens `request` under supervision: the returned handle transparently
// restarts its sentinel per `policy` and replays position/state so the
// application never observes the crash (or degrades per the declared
// mode).  Direct-strategy opens are not supervisable (the sentinel runs in
// the caller's frame) and are rejected with kUnsupported.
Result<std::unique_ptr<vfs::FileHandle>> OpenSupervised(
    const sentinel::SentinelRegistry& registry, Strategy strategy,
    const OpenRequest& request, const RestartPolicy& policy);

}  // namespace afs::core
