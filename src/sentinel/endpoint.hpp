// The two halves of an active-file connection, named after the library
// calls of paper Appendix A.3.
//
//   application stub  --AF_SendControl-->   sentinel  (AF_GetControl)
//   application stub  <--AF_GetResponse--   sentinel  (AF_SendResponse)
//   write data        --(write lane)---->             (AF_GetDataFromAppl)
//   read data         <--(response payload or inline_out)--
//
// Implementations: core::PipeLink/PipeEndpoint (three real pipes, the
// process-plus-control strategy), core::ThreadRendezvous (events +
// shared memory, the DLL-with-thread strategy) and core::LoopSession (the
// application side of the event-loop strategy).
#pragma once

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "common/thread_annotations.hpp"
#include "common/status.hpp"
#include "sentinel/control.hpp"

namespace afs::sentinel {

// Application side.
class SentinelLink {
 public:
  virtual ~SentinelLink() = default;

  // Ships a command (and, for kWrite, its data) to the sentinel; every
  // wait it makes ends by `deadline`, the op's deadline.
  virtual Status AF_SendControl(const ControlMessage& message,
                                Deadline deadline) AFS_NONBLOCKING = 0;

  // Waits for the sentinel's response to the last command until
  // `deadline` (kTimeout after): what is left of the op's one
  // op_timeout_ms budget once admission and the send spent from it.
  // Implementations are AFS_NONBLOCKING so an event loop can multiplex
  // them (see docs/STATIC_ANALYSIS.md).
  virtual Result<ControlResponse> AF_GetResponse(Deadline deadline)
      AFS_NONBLOCKING = 0;
};

// Sentinel side.
class SentinelEndpoint {
 public:
  virtual ~SentinelEndpoint() = default;

  // Blocks until the application issues a command; kClosed when the
  // application side has gone away (treated as an implicit close).
  virtual Result<ControlMessage> AF_GetControl() AFS_NONBLOCKING = 0;

  // Retrieves the data bytes accompanying a kWrite whose inline lane is
  // empty (pipe transport).  Must be called exactly once per such write.
  virtual Result<Buffer> AF_GetDataFromAppl(std::size_t length)
      AFS_NONBLOCKING = 0;

  // Completes the current command.
  virtual Status AF_SendResponse(const ControlResponse& response)
      AFS_NONBLOCKING = 0;
};

}  // namespace afs::sentinel
