#include "probes.hpp"

#include <condition_variable>
#include <cstring>
#include <functional>
#include <mutex>
#include <thread>

#include "core/event_loop.hpp"
#include "core/links.hpp"
#include "ipc/framing.hpp"
#include "ipc/pipe.hpp"
#include "ipc/process.hpp"
#include "ipc/shm_ring.hpp"
#include "sentinel/control.hpp"

namespace perfbench {
namespace {

using afs::Buffer;
using afs::ByteSpan;
using afs::MutableByteSpan;
using afs::Status;

constexpr afs::Micros kRingWait{5'000'000};

// Times `body(i)` for up to `iterations` calls or until `budget_ns` has
// passed, whichever comes first; per-call samples in µs.
afs::Result<std::vector<double>> Sample(
    int iterations, std::int64_t budget_ns,
    const std::function<Status(int)>& body) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(iterations));
  const std::int64_t stop = NowNs() + budget_ns;
  for (int i = 0; i < iterations && (i < 10 || NowNs() < stop); ++i) {
    const std::int64_t start = NowNs();
    AFS_RETURN_IF_ERROR(body(i));
    samples.push_back(static_cast<double>(NowNs() - start) / 1e3);
  }
  return samples;
}

void Add(Metrics& out, const std::string& name, double value,
         const std::string& unit, std::size_t samples) {
  out.push_back(Metric{name, value, unit, samples});
}

void AddMedian(Metrics& out, const std::string& name,
               const std::vector<double>& samples) {
  Add(out, name, Median(samples), "us", samples.size());
}

// ipc: WriteFrame/ReadFrame echo through a SpawnFunction child, cycling
// through the workload's payload sizes.
Status PipeProbe(const ProbeContext& ctx, Metrics& out) {
  AFS_ASSIGN_OR_RETURN(afs::ipc::Pipe to, afs::ipc::Pipe::Create());
  AFS_ASSIGN_OR_RETURN(afs::ipc::Pipe from, afs::ipc::Pipe::Create());
  AFS_ASSIGN_OR_RETURN(afs::ipc::ChildProcess child,
                       afs::ipc::SpawnFunction([&]() -> int {
                         to.write_end.Close();
                         from.read_end.Close();
                         while (true) {
                           auto frame = afs::ipc::ReadFrame(to.read_end);
                           if (!frame.ok()) return 0;
                           if (!afs::ipc::WriteFrame(from.write_end, *frame)
                                    .ok()) {
                             return 1;
                           }
                         }
                       }));
  to.read_end.Close();
  from.write_end.Close();
  Buffer payload(*std::max_element(ctx.sizes.begin(), ctx.sizes.end()));
  FillRandom(payload, 0x70697065);
  auto samples = Sample(2000, 500'000'000, [&](int i) -> Status {
    const std::size_t size = ctx.sizes[static_cast<std::size_t>(i) % ctx.sizes.size()];
    AFS_RETURN_IF_ERROR(
        afs::ipc::WriteFrame(to.write_end, ByteSpan(payload.data(), size)));
    AFS_ASSIGN_OR_RETURN(Buffer back, afs::ipc::ReadFrame(from.read_end));
    if (back.size() != size ||
        std::memcmp(back.data(), payload.data(), size) != 0) {
      return afs::InternalError("pipe echo came back wrong");
    }
    return Status::Ok();
  });
  to.write_end.Close();
  (void)child.Wait();
  if (!samples.ok()) return samples.status();
  AddMedian(out, "ipc.pipe_rtt_us", *samples);
  return Status::Ok();
}

// ipc: ShmRing::Write/ReadExact 64 KiB echo through a forked child.
Status ShmProbe(Metrics& out) {
  constexpr std::size_t kBytes = 64 * 1024;
  using afs::ipc::ShmRing;
  AFS_ASSIGN_OR_RETURN(std::shared_ptr<ShmRing> ring,
                       ShmRing::Create(std::size_t{1} << 20));
  AFS_ASSIGN_OR_RETURN(afs::ipc::ChildProcess child,
                       afs::ipc::SpawnFunction([&]() -> int {
                         Buffer buf(kBytes);
                         while (ring->ReadExact(ShmRing::kToSentinel,
                                                MutableByteSpan(buf), kRingWait)
                                    .ok()) {
                           if (!ring->Write(ShmRing::kToApp, buf, kRingWait)
                                    .ok()) {
                             return 1;
                           }
                         }
                         return 0;
                       }));
  Buffer payload(kBytes);
  FillRandom(payload, 0x73686d);
  Buffer back(kBytes);
  auto samples = Sample(400, 500'000'000, [&](int) -> Status {
    AFS_RETURN_IF_ERROR(ring->Write(ShmRing::kToSentinel, payload, kRingWait));
    AFS_RETURN_IF_ERROR(
        ring->ReadExact(ShmRing::kToApp, MutableByteSpan(back), kRingWait));
    if (back != payload) return afs::InternalError("shm echo came back wrong");
    return Status::Ok();
  });
  ring->CloseDir(ShmRing::kToSentinel);
  (void)child.Wait();
  if (!samples.ok()) return samples.status();
  AddMedian(out, "ipc.shm_rtt_us", *samples);
  return Status::Ok();
}

// ipc: SpawnFunction of a child that exits at once, plus its reap.
Status SpawnProbe(Metrics& out) {
  auto samples = Sample(40, 1'000'000'000, [](int) -> Status {
    AFS_ASSIGN_OR_RETURN(afs::ipc::ChildProcess child,
                         afs::ipc::SpawnFunction([] { return 0; }));
    AFS_ASSIGN_OR_RETURN(int code, child.Wait());
    return code == 0 ? Status::Ok() : afs::InternalError("spawned child failed");
  });
  if (!samples.ok()) return samples.status();
  AddMedian(out, "ipc.spawn_us", *samples);
  return Status::Ok();
}

// core: ThreadRendezvous send/get against an echo thread.
Status RendezvousProbe(Metrics& out) {
  afs::core::ThreadRendezvous rendezvous;
  std::thread echo([&] {
    while (true) {
      auto message = rendezvous.AF_GetControl();
      if (!message.ok()) return;
      afs::sentinel::ControlResponse response;
      response.number = message->length;
      if (!rendezvous.AF_SendResponse(response).ok()) return;
    }
  });
  auto samples = Sample(20000, 500'000'000, [&](int i) -> Status {
    afs::sentinel::ControlMessage message;
    message.op = afs::sentinel::ControlOp::kRead;
    message.length = static_cast<std::uint32_t>(i);
    AFS_RETURN_IF_ERROR(rendezvous.AF_SendControl(message));
    AFS_ASSIGN_OR_RETURN(afs::sentinel::ControlResponse response,
                         rendezvous.AF_GetResponse());
    if (response.number != static_cast<std::uint64_t>(i)) {
      return afs::InternalError("rendezvous echo came back wrong");
    }
    return Status::Ok();
  });
  rendezvous.Shutdown();
  echo.join();
  if (!samples.ok()) return samples.status();
  AddMedian(out, "core.rendezvous_rtt_us", *samples);
  return Status::Ok();
}

// core: EventLoop::Post round trip, and lateness of a 25 µs AddTimer.
Status LoopProbe(Metrics& out) {
  afs::core::EventLoop loop;
  AFS_RETURN_IF_ERROR(loop.Start());
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::int64_t fired_ns = 0;
  auto signal = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      fired_ns = NowNs();
      done = true;
    }
    cv.notify_one();
  };
  auto wait = [&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
    done = false;
  };
  auto posts = Sample(20000, 500'000'000, [&](int) -> Status {
    loop.Post(signal);
    wait();
    return Status::Ok();
  });
  std::vector<double> late;
  auto timers = Sample(1000, 1'500'000'000, [&](int) -> Status {
    const std::int64_t due = NowNs() + 25'000;
    loop.AddTimer(afs::Micros{25}, signal);
    wait();
    late.push_back(static_cast<double>(fired_ns - due) / 1e3);
    return Status::Ok();
  });
  loop.Stop();
  if (!posts.ok()) return posts.status();
  if (!timers.ok()) return timers.status();
  AddMedian(out, "core.loop.post_rtt_us", *posts);
  Add(out, "core.loop.timer_late_us.p50", Percentile(late, 0.5), "us",
      late.size());
  Add(out, "core.loop.timer_late_us.p99", Percentile(late, 0.99), "us",
      late.size());
  return Status::Ok();
}

// net: FileClient::GetRange 4 KiB over the socket server, with the
// workloads' 25 µs service delay and with none.
Status RpcProbe(const ProbeContext& ctx, Metrics& out) {
  constexpr std::size_t kBlob = 64 * 1024;
  constexpr std::uint32_t kRange = 4096;
  afs::net::FileServer files;
  Buffer blob(kBlob);
  FillRandom(blob, 0x727063);
  AFS_RETURN_IF_ERROR(files.Put("probe/blob", blob));
  struct Variant {
    const char* metric;
    int delay_us;
    int iterations;
    std::int64_t budget_ns;
  };
  const Variant variants[] = {{"net.rpc_rtt_us", 25, 400, 1'000'000'000},
                              {"net.rpc_rtt_nodelay_us", 0, 4000, 500'000'000}};
  for (const Variant& v : variants) {
    afs::net::SocketServer::Options options;
    options.service_delay = afs::Micros{v.delay_us};
    const std::string path = ctx.dir + "/rpc" + std::to_string(v.delay_us) + ".sock";
    afs::net::SocketServer server(path, files, options);
    AFS_RETURN_IF_ERROR(server.Start());
    afs::Result<std::vector<double>> samples = std::vector<double>{};
    {
      afs::net::SocketClient client(path);
      afs::net::FileClient fc(client);
      samples = Sample(v.iterations, v.budget_ns, [&](int i) -> Status {
        const std::uint64_t offset =
            (static_cast<std::uint64_t>(i) * kRange) % (kBlob - kRange);
        AFS_ASSIGN_OR_RETURN(auto got, fc.GetRange("probe/blob", offset, kRange));
        if (got.data.size() != kRange ||
            std::memcmp(got.data.data(), blob.data() + offset, kRange) != 0) {
          return afs::InternalError("rpc range came back wrong");
        }
        return Status::Ok();
      });
    }
    server.Stop();
    if (!samples.ok()) return samples.status();
    AddMedian(out, v.metric, *samples);
  }
  return Status::Ok();
}

// sentinel: Encode/DecodeControlMessage + Encode/DecodeControlResponse
// for one read op at the workload's sizes.  Payloads at or above the 4 KiB
// shm threshold ride the ring, not the frame, so their response frame
// carries no payload.
Status CodecProbe(const ProbeContext& ctx, Metrics& out) {
  constexpr int kBatch = 1000;
  std::vector<afs::sentinel::ControlResponse> responses(ctx.sizes.size());
  for (std::size_t i = 0; i < ctx.sizes.size(); ++i) {
    responses[i].number = ctx.sizes[i];
    if (ctx.sizes[i] < 4096) responses[i].payload.assign(ctx.sizes[i], 0x5a);
  }
  std::vector<double> per_op;
  for (int batch = 0; batch < 30; ++batch) {
    const std::int64_t start = NowNs();
    for (int j = 0; j < kBatch; ++j) {
      const std::size_t k = static_cast<std::size_t>(j) % ctx.sizes.size();
      afs::sentinel::ControlMessage message;
      message.op = afs::sentinel::ControlOp::kRead;
      message.length = static_cast<std::uint32_t>(ctx.sizes[k]);
      const Buffer wire = afs::sentinel::EncodeControlMessage(message);
      auto decoded = afs::sentinel::DecodeControlMessage(wire);
      const Buffer reply = afs::sentinel::EncodeControlResponse(responses[k]);
      auto back = afs::sentinel::DecodeControlResponse(reply);
      if (!decoded.ok() || !back.ok() || decoded->length != message.length ||
          back->number != responses[k].number) {
        return afs::InternalError("control codec round trip came back wrong");
      }
    }
    per_op.push_back(static_cast<double>(NowNs() - start) / 1e3 / kBatch);
  }
  Add(out, "sentinel.codec_us", Median(per_op), "us", per_op.size() * kBatch);
  return Status::Ok();
}

// core bundle: ActiveFileManager::WriteDataPart/ReadDataPart of 64 KiB.
Status BundleProbe(const ProbeContext& ctx, Metrics& out) {
  constexpr std::size_t kBytes = 64 * 1024;
  const std::string path = "probe-bundle.af";
  afs::sentinel::SentinelSpec spec;
  spec.name = "null";
  spec.config["cache"] = "memory";
  Buffer data(kBytes);
  FillRandom(data, 0x626e646c);
  AFS_RETURN_IF_ERROR(ctx.manager->CreateActiveFile(path, spec, data));
  auto writes = Sample(200, 500'000'000, [&](int i) -> Status {
    data[static_cast<std::size_t>(i) % kBytes] ^= 0xff;
    return ctx.manager->WriteDataPart(path, data);
  });
  if (!writes.ok()) return writes.status();
  Buffer last;
  auto reads = Sample(200, 500'000'000, [&](int) -> Status {
    AFS_ASSIGN_OR_RETURN(last, ctx.manager->ReadDataPart(path));
    return Status::Ok();
  });
  if (!reads.ok()) return reads.status();
  if (last != data) return afs::InternalError("bundle data part came back wrong");
  AFS_RETURN_IF_ERROR(ctx.api->DeleteFile(path));
  AddMedian(out, "core.bundle.write_us", *writes);
  AddMedian(out, "core.bundle.read_us", *reads);
  return Status::Ok();
}

}  // namespace

afs::Status RunProbes(const ProbeContext& ctx, Metrics& out) {
  const std::uint64_t trace = ctx.tracer->NewId();
  auto timed = [&](const char* name, const std::function<Status()>& probe) {
    const std::int64_t start = NowNs();
    Status status = probe();
    ctx.tracer->Record(ctx.tracer->Name(std::string("probe.") + name), -1,
                       trace, 0, start, NowNs());
    if (!status.ok()) {
      return afs::InternalError(std::string("probe ") + name + ": " +
                                status.ToString());
    }
    return status;
  };
  AFS_RETURN_IF_ERROR(timed("pipe", [&] { return PipeProbe(ctx, out); }));
  AFS_RETURN_IF_ERROR(timed("shm", [&] { return ShmProbe(out); }));
  AFS_RETURN_IF_ERROR(timed("spawn", [&] { return SpawnProbe(out); }));
  AFS_RETURN_IF_ERROR(timed("rendezvous", [&] { return RendezvousProbe(out); }));
  AFS_RETURN_IF_ERROR(timed("loop", [&] { return LoopProbe(out); }));
  AFS_RETURN_IF_ERROR(timed("rpc", [&] { return RpcProbe(ctx, out); }));
  AFS_RETURN_IF_ERROR(timed("codec", [&] { return CodecProbe(ctx, out); }));
  AFS_RETURN_IF_ERROR(timed("bundle", [&] { return BundleProbe(ctx, out); }));
  return afs::Status::Ok();
}

}  // namespace perfbench
