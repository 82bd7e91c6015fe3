#include "sentinel/dispatch.hpp"

#include <algorithm>

#include "common/faultpoint.hpp"
#include "obs/trace.hpp"

namespace afs::sentinel {
namespace {

ControlResponse MakeResponse(Status status, std::uint64_t number = 0,
                             Buffer payload = {}) {
  ControlResponse response;
  response.status = std::move(status);
  response.number = number;
  response.payload = std::move(payload);
  return response;
}

const char* OpSpanName(ControlOp op) {
  switch (op) {
    case ControlOp::kRead: return "sentinel.read";
    case ControlOp::kWrite: return "sentinel.write";
    case ControlOp::kSeek: return "sentinel.seek";
    case ControlOp::kGetSize: return "sentinel.get_size";
    case ControlOp::kSetEof: return "sentinel.set_eof";
    case ControlOp::kFlush: return "sentinel.flush";
    case ControlOp::kLock: return "sentinel.lock";
    case ControlOp::kUnlock: return "sentinel.unlock";
    case ControlOp::kCustom: return "sentinel.custom";
    case ControlOp::kClose: return "sentinel.close";
    case ControlOp::kReadVec: return "sentinel.read_vec";
    case ControlOp::kWriteVec: return "sentinel.write_vec";
  }
  return "sentinel.op";
}

// Decodes the segment table a vectored op carries as its wire payload:
// u32 count, then count u32 lengths.  Empty for in-process callers (their
// segments arrive in vec_in/vec_out instead).
Result<std::vector<std::uint32_t>> DecodeVecTable(ByteSpan payload) {
  constexpr std::uint32_t kMaxSegments = 4096;
  ByteReader reader(payload);
  std::uint32_t count = 0;
  if (!reader.ReadU32(count)) {
    return ProtocolError("malformed vectored segment table");
  }
  if (count > kMaxSegments) {
    return ProtocolError("vectored segment table too large");
  }
  std::vector<std::uint32_t> lens(count);
  for (std::uint32_t& len : lens) {
    if (!reader.ReadU32(len)) {
      return ProtocolError("truncated vectored segment table");
    }
  }
  return lens;
}

}  // namespace

// Stamps the sentinel's current cache-lease state into a response's cache
// fields.  Every response (and the open banner) carries the
// grant, which is what renews the client's lease without a dedicated
// renewal op; kGrantRecall stays set until the client acks the drop.
void StampCacheGrant(const CacheGrant& grant, ControlResponse& response) {
  response.cache_grant = 0;
  if (grant.read) response.cache_grant |= kGrantRead;
  if (grant.write) response.cache_grant |= kGrantWrite;
  if (grant.recall) response.cache_grant |= kGrantRecall;
  response.cache_lease_ms = grant.lease_ms;
  response.cache_epoch = grant.epoch;
}

OpOutcome PerformControlOp(
    Sentinel& sentinel, SentinelContext& ctx, ControlMessage& msg,
    const std::function<Result<Buffer>(std::size_t)>& fetch_data) {
  OpOutcome out;

  // Recall handshake: the client set kCacheRecallAck after dropping its
  // blocks for the epoch this sentinel is recalling; clear the latch.
  // Idempotent — a lost response just means the next op acks again.
  if ((msg.cache_flags & kCacheRecallAck) != 0) {
    ctx.cache_grant.recall = false;
  }

  // Spans opened while this command runs (the command span itself plus
  // anything nested, e.g. a remote fetch inside OnRead) are collected
  // here and ride at the end of the response frame back to the
  // application, where the link adopts them — that hop is what turns
  // per-process span fragments into one cross-process trace.
  std::vector<obs::SpanRecord> collected;
  {
    obs::SpanCollectorScope collect(&collected);
    obs::Span op_span(OpSpanName(msg.op), msg.trace_id, msg.parent_span);

    // Sentinel-side fault injection: an injected error answers this command
    // with that error (the session survives — the application decides); a
    // delay stalls the sentinel mid-command; a kill dies right here with
    // the command consumed but unanswered — the worst crash point.
    if (Status injected = fault::Hit("sentinel.dispatch.op");
        !injected.ok() && msg.op != ControlOp::kClose) {
      if ((msg.op == ControlOp::kWrite || msg.op == ControlOp::kWriteVec) &&
          msg.inline_in.empty() && msg.vec_in.empty() && msg.length > 0 &&
          fetch_data) {
        // The payload is already in flight on the data pipe; drain it or
        // the next write's control frame pairs with this write's bytes.
        // afs-lint: allow(status-discard: drain-only; the injected fault is the response)
        (void)fetch_data(msg.length);
      }
      out.response = MakeResponse(std::move(injected));
    } else {
      switch (msg.op) {
        case ControlOp::kRead: {
          Buffer tmp;
          MutableByteSpan dst = msg.inline_out;
          if (dst.size() > msg.length) dst = dst.first(msg.length);
          if (dst.empty() && msg.length > 0) {
            tmp.resize(msg.length);
            dst = MutableByteSpan(tmp);
          }
          Result<std::size_t> got = sentinel.OnRead(ctx, dst);
          if (!got.ok()) {
            out.response = MakeResponse(got.status());
            break;
          }
          ctx.position += *got;
          Buffer payload;
          if (!tmp.empty()) {
            tmp.resize(*got);
            payload = std::move(tmp);
          }
          out.response = MakeResponse(Status::Ok(), *got, std::move(payload));
          break;
        }
        case ControlOp::kWrite: {
          ByteSpan in = msg.inline_in;
          Buffer tmp;
          if (in.empty() && msg.length > 0) {
            Result<Buffer> fetched =
                fetch_data ? fetch_data(msg.length)
                           : Result<Buffer>(InternalError(
                                 "no out-of-line data lane on this host"));
            if (!fetched.ok()) {
              // Data lane broken mid-write; no response can pair with the
              // consumed command, so the channel is unusable.
              // afs-lint: allow(status-discard: channel already broken; winding down)
              (void)sentinel.OnClose(ctx);
              out.verdict = OpVerdict::kChannelBroken;
              break;
            }
            tmp = std::move(*fetched);
            in = ByteSpan(tmp);
          }
          Result<std::size_t> wrote = sentinel.OnWrite(ctx, in);
          if (!wrote.ok()) {
            out.response = MakeResponse(wrote.status());
            break;
          }
          ctx.position += *wrote;
          out.response = MakeResponse(Status::Ok(), *wrote);
          break;
        }
        case ControlOp::kSeek: {
          Result<std::uint64_t> pos = sentinel.OnSeek(
              ctx, msg.offset, static_cast<SeekOrigin>(msg.origin));
          out.response = pos.ok() ? MakeResponse(Status::Ok(), *pos)
                                  : MakeResponse(pos.status());
          break;
        }
        case ControlOp::kGetSize: {
          Result<std::uint64_t> size = sentinel.OnGetSize(ctx);
          out.response = size.ok() ? MakeResponse(Status::Ok(), *size)
                                   : MakeResponse(size.status());
          break;
        }
        case ControlOp::kSetEof:
          out.response = MakeResponse(sentinel.OnSetEof(ctx));
          break;
        case ControlOp::kFlush:
          out.response = MakeResponse(sentinel.OnFlush(ctx));
          break;
        case ControlOp::kLock:
          out.response = MakeResponse(sentinel.OnLock(
              ctx, static_cast<std::uint64_t>(msg.offset), msg.range_len));
          break;
        case ControlOp::kUnlock:
          out.response = MakeResponse(sentinel.OnUnlock(
              ctx, static_cast<std::uint64_t>(msg.offset), msg.range_len));
          break;
        case ControlOp::kCustom: {
          Result<Buffer> reply = sentinel.OnControl(ctx, ByteSpan(msg.payload));
          out.response = reply.ok()
                             ? MakeResponse(Status::Ok(), reply->size(),
                                            std::move(*reply))
                             : MakeResponse(reply.status());
          break;
        }
        case ControlOp::kReadVec: {
          // One crossing for a whole scatter list.  In-process callers hand
          // their destination spans in vec_out; wire callers send a segment
          // table and the bytes travel back concatenated in the payload.
          std::vector<MutableByteSpan> spans = msg.vec_out;
          Buffer tmp;
          if (spans.empty()) {
            Result<std::vector<std::uint32_t>> lens =
                DecodeVecTable(ByteSpan(msg.payload));
            if (!lens.ok()) {
              out.response = MakeResponse(lens.status());
              break;
            }
            std::size_t total = 0;
            for (std::uint32_t len : lens.value()) total += len;
            tmp.resize(total);
            std::size_t at = 0;
            for (std::uint32_t len : lens.value()) {
              spans.push_back(MutableByteSpan(tmp).subspan(at, len));
              at += len;
            }
          }
          std::uint64_t total_read = 0;
          Status status = Status::Ok();
          for (MutableByteSpan dst : spans) {
            if (dst.empty()) continue;
            Result<std::size_t> got = sentinel.OnRead(ctx, dst);
            if (!got.ok()) {
              status = got.status();
              break;
            }
            ctx.position += *got;
            total_read += *got;
            if (*got < dst.size()) break;  // short read: end of data
          }
          if (!status.ok()) {
            out.response = MakeResponse(status);
            break;
          }
          Buffer payload;
          if (!tmp.empty()) {
            tmp.resize(static_cast<std::size_t>(total_read));
            payload = std::move(tmp);
          }
          out.response =
              MakeResponse(Status::Ok(), total_read, std::move(payload));
          break;
        }
        case ControlOp::kWriteVec: {
          // Gather list: in-process callers hand source spans in vec_in;
          // wire callers send the table plus one concatenated fetch off the
          // data lane, sliced back into segments here.
          std::vector<ByteSpan> spans = msg.vec_in;
          Buffer tmp;
          if (spans.empty()) {
            Result<std::vector<std::uint32_t>> lens =
                DecodeVecTable(ByteSpan(msg.payload));
            std::size_t total = 0;
            if (lens.ok()) {
              for (std::uint32_t len : lens.value()) total += len;
            }
            if (!lens.ok() || total != msg.length) {
              // The concatenated bytes are already in flight; drain them so
              // the data lane stays paired before failing the command.
              if (msg.length > 0 && fetch_data) {
                // afs-lint: allow(status-discard: drain-only; the table error is the response)
                (void)fetch_data(msg.length);
              }
              out.response = MakeResponse(
                  lens.ok() ? ProtocolError(
                                  "vectored segment table/length mismatch")
                            : lens.status());
              break;
            }
            if (msg.length > 0) {
              Result<Buffer> fetched =
                  fetch_data ? fetch_data(msg.length)
                             : Result<Buffer>(InternalError(
                                   "no out-of-line data lane on this host"));
              if (!fetched.ok()) {
                // afs-lint: allow(status-discard: channel already broken; winding down)
                (void)sentinel.OnClose(ctx);
                out.verdict = OpVerdict::kChannelBroken;
                break;
              }
              tmp = std::move(*fetched);
            }
            std::size_t at = 0;
            for (std::uint32_t len : lens.value()) {
              spans.push_back(ByteSpan(tmp).subspan(at, len));
              at += len;
            }
          }
          std::uint64_t total_written = 0;
          Status status = Status::Ok();
          for (ByteSpan src : spans) {
            if (src.empty()) continue;
            Result<std::size_t> wrote = sentinel.OnWrite(ctx, src);
            if (!wrote.ok()) {
              status = wrote.status();
              break;
            }
            ctx.position += *wrote;
            total_written += *wrote;
            if (*wrote < src.size()) break;  // short write: device full
          }
          out.response = status.ok()
                             ? MakeResponse(Status::Ok(), total_written)
                             : MakeResponse(status);
          break;
        }
        case ControlOp::kClose: {
          // Crash window during close: the command is consumed but neither
          // OnClose's side effects nor the acknowledgement happened.
          if (!fault::Hit("sentinel.dispatch.close").ok()) {
            out.verdict = OpVerdict::kCrashed;
            break;
          }
          out.response = MakeResponse(sentinel.OnClose(ctx));
          out.verdict = OpVerdict::kClosed;
          break;
        }
      }
    }
  }  // collector scope: op_span lands in `collected` here
  out.response.remote_spans = std::move(collected);
  StampCacheGrant(ctx, out.response);
  return out;
}

int RunSentinelLoop(Sentinel& sentinel, SentinelEndpoint& endpoint,
                    SentinelContext& ctx) {
  // Crash window before the open is even acknowledged: a kill here leaves
  // the application blocked on the banner — the earliest recoverable
  // point of the supervisor's crash matrix.
  if (!fault::Hit("sentinel.dispatch.openack").ok()) return 1;

  // Open banner: the application's CreateFile blocks on this response, so
  // a failing OnOpen fails the open itself.  The banner already carries
  // the cache grant OnOpen decided on, so a caching client holds its
  // lease before the first data op.
  const Status open_status = sentinel.OnOpen(ctx);
  ControlResponse banner = MakeResponse(open_status);
  StampCacheGrant(ctx, banner);
  if (!endpoint.AF_SendResponse(banner).ok()) return 1;
  if (!open_status.ok()) return 0;

  const auto fetch = [&endpoint](std::size_t length) {
    return endpoint.AF_GetDataFromAppl(length);
  };

  while (true) {
    Result<ControlMessage> next = endpoint.AF_GetControl();
    if (!next.ok()) {
      // Application vanished (closed pipes / dropped the link): implicit
      // close so aggregation/distribution side effects still complete.
      // afs-lint: allow(status-discard: nobody is left to receive the status)
      (void)sentinel.OnClose(ctx);
      return next.status().code() == ErrorCode::kClosed ? 0 : 1;
    }
    OpOutcome out = PerformControlOp(sentinel, ctx, *next, fetch);
    switch (out.verdict) {
      case OpVerdict::kCrashed:
        return 1;
      case OpVerdict::kChannelBroken:
        return 1;
      case OpVerdict::kClosed:
        // Last frame of the session; the peer may already be gone.
        // afs-lint: allow(status-discard: best-effort goodbye after close)
        (void)endpoint.AF_SendResponse(out.response);
        return 0;
      case OpVerdict::kRespond:
        // A response that cannot ship (torn frame, closed pipe) leaves the
        // application facing a half-frame it would wait on forever; the
        // channel is unusable from here, so wind down as an implicit close.
        // The application side observes EOF and reports kClosed.
        if (!endpoint.AF_SendResponse(out.response).ok()) {
          // afs-lint: allow(status-discard: channel already broken; exiting)
          (void)sentinel.OnClose(ctx);
          return 1;
        }
        break;
    }
  }
}

}  // namespace afs::sentinel
