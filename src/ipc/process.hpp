// Child-process management.  The process-based strategies launch the active
// part as a real OS process (paper Section 4.1); ChildProcess owns its
// lifetime.  Two launch modes:
//   - SpawnFunction: fork() and run a callable in the child — used by the
//     strategies, whose sentinel logic is registered in-process.
//   - SpawnExec: fork()+execv() of an external sentinel executable — used by
//     the sentineld example, matching the paper's literal model.
#pragma once

#include <sys/types.h>

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/mutex.hpp"
#include "common/status.hpp"

namespace afs::ipc {

// How a child ended.  `signal` is 0 for a normal exit; for a signalled
// death `code` carries the conventional 128+signal encoding.
struct ExitStatus {
  int code = 0;
  int signal = 0;

  bool clean() const noexcept { return signal == 0 && code == 0; }
};

class ChildProcess {
 public:
  ChildProcess() noexcept = default;
  explicit ChildProcess(pid_t pid) noexcept : pid_(pid) {}
  ~ChildProcess();

  ChildProcess(ChildProcess&& other) noexcept;
  ChildProcess& operator=(ChildProcess&& other) noexcept;
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  bool valid() const noexcept { return pid_ > 0; }
  pid_t pid() const noexcept { return pid_; }

  // Blocks until the child exits; returns its exit code.  Idempotent —
  // subsequent calls return the first result.
  Result<int> Wait();

  // Non-blocking liveness probe: nullopt while the child still runs;
  // otherwise reaps (once) and returns how it ended.  The supervised
  // handle uses it to tell a crash from a clean exit.
  Result<std::optional<ExitStatus>> TryWait();

  // Bounded teardown: wait up to `grace` for a voluntary exit (sentinels
  // exit on pipe EOF), then escalate SIGTERM -> wait `grace` -> SIGKILL ->
  // wait `grace` -> as an absolute last resort a blocking reap (SIGKILL
  // makes that prompt).  A
  // wedged sentinel can therefore never block manager shutdown, and the
  // child is always reaped — no zombie survives this call.  The exit
  // status/signal is surfaced both in the return value and in a log line.
  ExitStatus Shutdown(Micros grace = Micros{500'000}) noexcept;

  // SIGKILLs the child if still running, then reaps it.
  void Kill() noexcept;

 private:
  // Reaps an already-waited status into the cached exit fields.
  void Absorb(int status) noexcept;

  pid_t pid_ = -1;
  bool reaped_ = false;
  int exit_code_ = 0;
  int exit_signal_ = 0;
};

// Thread-safe shared view of one child.  The supervised handle polls and
// kills it while the strategy stub owns its teardown; ChildProcess itself
// is single-threaded, so both go through this wrapper.
class ProcessWatch {
 public:
  explicit ProcessWatch(ChildProcess child) : child_(std::move(child)) {}

  pid_t pid() const;

  // Non-blocking: the exit summary once the child has died, else nullopt.
  // The result is sticky — after the first reap every call returns the
  // same summary.
  std::optional<ExitStatus> Poll();

  // Bounded TERM->KILL teardown (see ChildProcess::Shutdown).
  ExitStatus Shutdown(Micros grace = Micros{500'000});

  // Immediate SIGKILL + reap; used to force a wedged sentinel down so the
  // application sides of its pipes observe EOF.
  void Kill();

  // Blocking reap (clean-close path).
  Result<int> Wait();

 private:
  mutable Mutex mu_;
  ChildProcess child_ AFS_GUARDED_BY(mu_);
  std::optional<ExitStatus> exit_ AFS_GUARDED_BY(mu_);
};

// Forks and runs `body` in the child; the child exits with body's return
// value via _exit (no atexit handlers, no stack unwinding into the parent's
// state).  `body` must not touch parent-owned threads, which do not survive
// the fork.
Result<ChildProcess> SpawnFunction(std::function<int()> body);

// Forks and execs argv[0] with the given arguments.
Result<ChildProcess> SpawnExec(const std::vector<std::string>& argv);

// Installs SIG_IGN for SIGPIPE once per process.  Pipe-based strategies
// must see EPIPE as an error return, not a fatal signal.
void IgnoreSigpipe();

}  // namespace afs::ipc
