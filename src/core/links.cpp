#include "core/links.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "common/faultpoint.hpp"
#include "ipc/framing.hpp"

namespace afs::core {

using sentinel::ControlMessage;
using sentinel::ControlOp;
using sentinel::ControlResponse;
using sentinel::DecodeControlMessage;
using sentinel::DecodeControlResponse;
using sentinel::EncodeControlMessage;
using sentinel::EncodeControlResponse;

namespace {

// Idle re-arm slice for the endpoint's command wait: the wait becomes a
// sequence of bounded polls.
constexpr Micros kIdleWaitSlice{500'000};

// Total bulk bytes a message would push through the write lane.
std::size_t OutboundPayloadSize(const ControlMessage& message) {
  if (message.op == ControlOp::kWrite) return message.inline_in.size();
  if (message.op == ControlOp::kWriteVec) {
    std::size_t total = 0;
    for (ByteSpan segment : message.vec_in) total += segment.size();
    return total;
  }
  return 0;
}

}  // namespace

ShmConfig ParseShmConfig(const std::map<std::string, std::string>& config) {
  ShmConfig parsed;
  if (auto it = config.find("shm_threshold"); it != config.end()) {
    if (it->second == "off") {
      parsed.enabled = false;
    } else {
      const long value = std::strtol(it->second.c_str(), nullptr, 10);
      if (value > 0) parsed.threshold = static_cast<std::size_t>(value);
    }
  }
  if (auto it = config.find("shm_ring_bytes"); it != config.end()) {
    const long value = std::strtol(it->second.c_str(), nullptr, 10);
    if (value > 0) parsed.ring_bytes = static_cast<std::size_t>(value);
  }
  return parsed;
}

Result<std::pair<PipeLinkFds, PipeEndpointFds>> CreatePipePair() {
  AFS_ASSIGN_OR_RETURN(ipc::Pipe control, ipc::Pipe::Create());
  AFS_ASSIGN_OR_RETURN(ipc::Pipe response, ipc::Pipe::Create());
  AFS_ASSIGN_OR_RETURN(ipc::Pipe data, ipc::Pipe::Create());
  for (ipc::Pipe* pipe : {&control, &response, &data}) {
    AFS_RETURN_IF_ERROR(pipe->read_end.SetNonblocking());
    AFS_RETURN_IF_ERROR(pipe->write_end.SetNonblocking());
  }
  PipeLinkFds link;
  link.control_write = std::move(control.write_end);
  link.response_read = std::move(response.read_end);
  link.data_write = std::move(data.write_end);
  PipeEndpointFds endpoint;
  endpoint.control_read = std::move(control.read_end);
  endpoint.response_write = std::move(response.write_end);
  endpoint.data_read = std::move(data.read_end);
  return std::make_pair(std::move(link), std::move(endpoint));
}

void PipeLink::set_shm(std::shared_ptr<ipc::ShmRing> ring,
                       std::size_t threshold) {
  ring_ = std::move(ring);
  shm_threshold_ = threshold;
}

Status PipeLink::AF_SendControl(const ControlMessage& message,
                                Deadline deadline) {
  AFS_FAULT_POINT("core.link.send");
  // A sentinel that stopped draining its control pipe costs this op
  // kTimeout, never a parked application, even when the op has no deadline.
  const Deadline bound =
      std::min(deadline, Deadline::In(ipc::kStallTimeout));
  // Bulk payloads at/above the threshold leave the pipes for the ring.
  const std::size_t out_len = OutboundPayloadSize(message);
  const bool use_ring =
      ring_ != nullptr && out_len >= shm_threshold_ && out_len > 0;
  {
    // Stash the op's destination spans so a shm-lane response can scatter
    // ring bytes straight into the caller's buffers.
    MutexLock lock(read_mu_);
    scatter_.clear();
    if (!message.inline_out.empty()) scatter_.push_back(message.inline_out);
    scatter_.insert(scatter_.end(), message.vec_out.begin(),
                    message.vec_out.end());
  }
  AFS_RETURN_IF_ERROR(ipc::WriteFrame(
      fds_.control_write,
      EncodeControlMessage(message, use_ring ? sentinel::kLaneShm : 0),
      bound));
  // The paper's write path: command on the control channel, then the
  // payload bytes on the write lane.  Gather segments travel concatenated;
  // the sentinel slices them back apart from the message's segment table.
  const std::span<const ByteSpan> segments =
      message.op == ControlOp::kWrite
          ? std::span<const ByteSpan>(&message.inline_in, 1)
          : std::span<const ByteSpan>(message.vec_in);
  for (ByteSpan segment : segments) {
    if (segment.empty()) continue;
    AFS_RETURN_IF_ERROR(
        use_ring ? ring_->Write(ipc::ShmRing::kToSentinel, segment, bound)
                 : fds_.data_write.WriteAll(segment, bound));
  }
  return Status::Ok();
}

Status PipeLink::AdoptResponse(ControlResponse& response, Deadline deadline) {
  if ((response.lane & sentinel::kLaneShm) == 0 || response.lane_len == 0) {
    return Status::Ok();
  }
  if (!ring_) {
    return ProtocolError("shm-lane response without an attached ring");
  }
  // The payload trails its frame: a stall here is a dead peer, not a slow
  // answer.
  const Deadline bound =
      std::min(deadline, Deadline::In(ipc::kStallTimeout));
  std::size_t remaining = response.lane_len;
  for (MutableByteSpan dst : scatter_) {
    if (remaining == 0) break;
    MutableByteSpan take = dst.first(std::min(dst.size(), remaining));
    AFS_RETURN_IF_ERROR(ring_->ReadExact(ipc::ShmRing::kToApp, take, bound));
    remaining -= take.size();
  }
  if (remaining > 0) {
    // No (or not enough) stashed spans — kCustom replies and any overflow
    // land in the payload buffer, exactly as a pipe-lane frame would.
    const std::size_t at = response.payload.size();
    response.payload.resize(at + remaining);
    AFS_RETURN_IF_ERROR(
        ring_->ReadExact(ipc::ShmRing::kToApp,
                         MutableByteSpan(response.payload).subspan(at),
                         bound));
  }
  return Status::Ok();
}

Result<ControlResponse> PipeLink::AF_GetResponse(Deadline deadline) {
  AFS_FAULT_POINT("core.link.recv");
  MutexLock lock(read_mu_);
  AFS_ASSIGN_OR_RETURN(Buffer frame,
                       ipc::ReadFrame(fds_.response_read, deadline));
  AFS_ASSIGN_OR_RETURN(ControlResponse response,
                       DecodeControlResponse(ByteSpan(frame)));
  // A shm-lane answer drains its ring payload.
  AFS_RETURN_IF_ERROR(AdoptResponse(response, deadline));
  return response;
}

void PipeLink::Shutdown() {
  MutexLock lock(read_mu_);
  fds_.control_write.Close();
  fds_.response_read.Close();
  fds_.data_write.Close();
  if (ring_) ring_->CloseAll();
}

Status PipeLink::SetCloexec() {
  AFS_RETURN_IF_ERROR(fds_.control_write.SetCloexec());
  AFS_RETURN_IF_ERROR(fds_.response_read.SetCloexec());
  return fds_.data_write.SetCloexec();
}

Result<ControlMessage> PipeEndpoint::AF_GetControl() {
  AFS_FAULT_POINT("sentinel.endpoint.recv");
  // The idle wait is a chain of bounded slices, never one unbounded park:
  // each elapsed slice silently re-arms until a command (or EOF) lands.
  while (true) {
    const Status ready = fds_.control_read.WaitReadable(kIdleWaitSlice);
    if (ready.ok()) break;
    if (ready.code() != ErrorCode::kTimeout) return ready;
  }
  // Readable now, so the frame-start wait is satisfied instantly; the
  // bound covers only a peer dying mid-frame.
  AFS_ASSIGN_OR_RETURN(Buffer frame,
                       ipc::ReadFrame(fds_.control_read, ipc::kStallTimeout));
  AFS_ASSIGN_OR_RETURN(ControlMessage message,
                       DecodeControlMessage(ByteSpan(frame)));
  // Remember which lane this command's payload travels; the dispatch loop
  // calls AF_GetDataFromAppl before the next AF_GetControl.
  last_lane_ = message.lane;
  return message;
}

Result<Buffer> PipeEndpoint::AF_GetDataFromAppl(std::size_t length) {
  AFS_FAULT_POINT("sentinel.endpoint.data");
  Buffer data(length);
  if (ring_ && (last_lane_ & sentinel::kLaneShm) != 0) {
    AFS_RETURN_IF_ERROR(ring_->ReadExact(ipc::ShmRing::kToSentinel,
                                         MutableByteSpan(data),
                                         ipc::kStallTimeout));
    return data;
  }
  // The control frame announcing these bytes already arrived; the payload
  // is right behind it, so a stall is a dead application, not idleness.
  AFS_RETURN_IF_ERROR(
      fds_.data_read.ReadExact(MutableByteSpan(data), ipc::kStallTimeout));
  return data;
}

Status PipeEndpoint::AF_SendResponse(const ControlResponse& response) {
  AFS_FAULT_POINT("sentinel.endpoint.send");
  // Bulk response payloads ride the ring (frame carries only their length);
  // the application created the ring, so it can always drain the lane.
  const bool use_ring = ring_ != nullptr &&
                        response.payload.size() >= shm_threshold_ &&
                        !response.payload.empty();
  const Deadline bound = Deadline::In(ipc::kStallTimeout);
  AFS_RETURN_IF_ERROR(ipc::WriteFrame(
      fds_.response_write,
      EncodeControlResponse(response, ring_ != nullptr,
                            use_ring ? sentinel::kLaneShm : 0),
      bound));
  if (use_ring) {
    return ring_->Write(ipc::ShmRing::kToApp, ByteSpan(response.payload),
                        bound);
  }
  return Status::Ok();
}

Status MailboxSlot::Post(const ControlMessage& message) {
  MutexLock lock(mu_);
  while (state_ != SlotState::kIdle && !closed_) {
    // The sentinel side frees the slot per command, and Close() wakes
    // every waiter with kClosed when the session is shut or forced down.
    // afs-lint: allow(nonblocking: bounded by the slot protocol + Shutdown)
    cv_.Wait(mu_);
  }
  if (closed_) return ClosedError("mailbox closed");
  message_ = message;  // inline lanes pass by reference (spans)
  state_ = SlotState::kCommand;
  lock.Unlock();
  cv_.NotifyAll();
  return Status::Ok();
}

Result<ControlResponse> MailboxSlot::Collect(Deadline deadline) {
  MutexLock lock(mu_);
  while (state_ != SlotState::kResponse && !closed_) {
    if (deadline.never()) {
      // Unbounded only when the op carries no deadline (op_timeout_ms unset
      // or 0); Close() still wakes it with kClosed.
      // afs-lint: allow(nonblocking: the op carries no deadline)
      cv_.Wait(mu_);
    } else if (!cv_.WaitUntil(mu_, deadline.at())) {
      if (state_ == SlotState::kResponse || closed_) {
        break;  // answered (or closed) right at the wire
      }
      return TimeoutError("sentinel did not respond in time");
    }
  }
  if (state_ != SlotState::kResponse) return ClosedError("mailbox closed");
  ControlResponse response = std::move(response_);
  state_ = SlotState::kIdle;
  lock.Unlock();
  cv_.NotifyAll();
  return response;
}

Result<ControlMessage> MailboxSlot::Take(Micros wait) {
  MutexLock lock(mu_);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(wait.count());
  while (state_ != SlotState::kCommand && !closed_) {
    if (!cv_.WaitUntil(mu_, deadline)) break;
  }
  if (closed_) return ClosedError("mailbox closed");
  if (state_ != SlotState::kCommand) return TimeoutError("no command posted");
  return message_;
}

bool MailboxSlot::Deliver(ControlResponse response, bool closing) {
  {
    MutexLock lock(mu_);
    if (closed_) return false;
    response_ = std::move(response);
    state_ = SlotState::kResponse;
    closed_ = closing;
  }
  cv_.NotifyAll();
  return true;
}

void MailboxSlot::Close() {
  {
    MutexLock lock(mu_);
    closed_ = true;
  }
  cv_.NotifyAll();
}

Status ThreadRendezvous::AF_SendControl(const ControlMessage& message,
                                        Deadline /*deadline*/) {
  AFS_FAULT_POINT("core.link.send");
  return slot_.Post(message);
}

Result<ControlResponse> ThreadRendezvous::AF_GetResponse(Deadline deadline) {
  AFS_FAULT_POINT("core.link.recv");
  return slot_.Collect(deadline);
}

Result<ControlMessage> ThreadRendezvous::AF_GetControl() {
  AFS_FAULT_POINT("sentinel.endpoint.recv");
  while (true) {
    // The idle wait is a chain of bounded slices.
    Result<ControlMessage> message = slot_.Take(kIdleWaitSlice);
    if (message.status().code() == ErrorCode::kTimeout) continue;
    return message;
  }
}

Result<Buffer> ThreadRendezvous::AF_GetDataFromAppl(std::size_t length) {
  // In-process writes always travel the inline lane; only a zero-length
  // write could get here, and that needs no bytes.
  if (length == 0) return Buffer{};
  return InternalError("thread rendezvous has no out-of-line data lane");
}

Status ThreadRendezvous::AF_SendResponse(const ControlResponse& response) {
  AFS_FAULT_POINT("sentinel.endpoint.send");
  if (!slot_.Deliver(response)) return ClosedError("rendezvous closed");
  return Status::Ok();
}

}  // namespace afs::core
