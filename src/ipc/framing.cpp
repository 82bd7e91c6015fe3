#include "ipc/framing.hpp"

#include "common/faultpoint.hpp"
#include "obs/metrics.hpp"

namespace afs::ipc {

namespace {

// Frame-layer instrumentation: every control/response frame in the system
// funnels through these two functions, so two counters per direction give
// the per-op IPC cost picture (frames ≈ pipe round-trips / 2).
struct FrameMetrics {
  obs::Counter& frames;
  obs::Counter& bytes;

  FrameMetrics(const char* count_name, const char* bytes_name)
      : frames(obs::Registry::Global().GetCounter(count_name)),
        bytes(obs::Registry::Global().GetCounter(bytes_name)) {}
};

// Registered at static-init time, not lazily at first use: the first frame
// a forked sentinel child writes is its open banner, and registering a
// counter there would take the registry mutex inside a process whose other
// threads no longer exist — a fork-inherited-lock deadlock.  Eagerly
// initialized, the child's frame path is pure lock-free cell updates.
FrameMetrics& WriteMetrics() {
  static FrameMetrics metrics("ipc.frame.write.count",
                              "ipc.frame.write.bytes");
  return metrics;
}

FrameMetrics& ReadMetrics() {
  static FrameMetrics metrics("ipc.frame.read.count", "ipc.frame.read.bytes");
  return metrics;
}

obs::Counter& ReadTimeouts() {
  static obs::Counter& timeouts =
      obs::Registry::Global().GetCounter("ipc.frame.read.timeouts");
  return timeouts;
}

const bool kMetricsRegisteredEarly = [] {
  WriteMetrics();
  ReadMetrics();
  ReadTimeouts();
  return true;
}();

}  // namespace

Status WriteFrame(PipeEnd& pipe, ByteSpan payload, Deadline deadline) {
  FrameMetrics& metrics = WriteMetrics();
  AFS_FAULT_POINT("ipc.frame.write");
  Buffer header;
  header.reserve(4);
  AppendU32(header, static_cast<std::uint32_t>(payload.size()));
  AFS_RETURN_IF_ERROR(pipe.WriteAll(header, deadline));
  if (!payload.empty()) {
    AFS_RETURN_IF_ERROR(pipe.WriteAll(payload, deadline));
  }
  metrics.frames.Add(1);
  metrics.bytes.Add(4 + payload.size());
  return Status::Ok();
}

namespace {

Result<Buffer> ReadFrameBody(PipeEnd& pipe, Deadline deadline) {
  std::uint8_t header[4];
  // Distinguish clean EOF (peer done) from truncation: read the first byte
  // separately.
  AFS_ASSIGN_OR_RETURN(std::size_t first,
                       pipe.ReadSome(MutableByteSpan(header, 1), deadline));
  if (first == 0) return ClosedError("frame stream ended");
  AFS_RETURN_IF_ERROR(
      pipe.ReadExact(MutableByteSpan(header + 1, 3), deadline));

  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(header[i]) << (8 * i);
  }
  if (len > kMaxFrameBytes) {
    return ProtocolError("frame length " + std::to_string(len) +
                         " exceeds limit");
  }
  Buffer payload(len);
  if (len > 0) {
    AFS_RETURN_IF_ERROR(pipe.ReadExact(MutableByteSpan(payload), deadline));
  }
  return payload;
}

}  // namespace

Result<Buffer> ReadFrame(PipeEnd& pipe, Deadline deadline) {
  AFS_FAULT_POINT("ipc.frame.read");
  Result<Buffer> payload = ReadFrameBody(pipe, deadline);
  if (!payload.ok()) {
    if (payload.status().code() == ErrorCode::kTimeout) ReadTimeouts().Add(1);
    return payload;
  }
  FrameMetrics& metrics = ReadMetrics();
  metrics.frames.Add(1);
  metrics.bytes.Add(4 + payload->size());
  return payload;
}

Status FrameDecoder::Append(ByteSpan bytes) {
  if (poisoned_) return ProtocolError("frame decoder poisoned");
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  // Validate the length prefix as soon as it is complete so a corrupt peer
  // is rejected before it makes us buffer an arbitrary amount.
  if (buffer_.size() >= 4) {
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<std::uint32_t>(buffer_[static_cast<std::size_t>(i)])
             << (8 * i);
    }
    if (len > kMaxFrameBytes) {
      poisoned_ = true;
      return ProtocolError("frame length " + std::to_string(len) +
                           " exceeds limit");
    }
  }
  return Status::Ok();
}

std::optional<Buffer> FrameDecoder::Next() {
  if (poisoned_ || buffer_.size() < 4) return std::nullopt;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(buffer_[static_cast<std::size_t>(i)])
           << (8 * i);
  }
  const std::size_t total = 4 + static_cast<std::size_t>(len);
  if (buffer_.size() < total) return std::nullopt;
  FrameMetrics& metrics = ReadMetrics();
  Buffer payload(buffer_.begin() + 4, buffer_.begin() + total);
  buffer_.erase(buffer_.begin(), buffer_.begin() + total);
  metrics.frames.Add(1);
  metrics.bytes.Add(total);
  return payload;
}

}  // namespace afs::ipc
