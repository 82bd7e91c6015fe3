// Protocol ablation: the same whole-file fetch over the two remote-access
// protocols a sentinel can use — the framed RPC service (GET) and the
// FTP-like line protocol (RETR) — plus per-call PUT/STOR.  Quantifies what
// the choice of wire protocol costs relative to the transfer itself.
#include <benchmark/benchmark.h>

#include <filesystem>

#include "net/file_server.hpp"
#include "net/ftp_server.hpp"
#include "net/socket_transport.hpp"

namespace afs {
namespace {

struct Env {
  Env() {
    std::error_code ec;
    std::filesystem::create_directories("/tmp/afs-bench-protocols", ec);
    rpc_server = std::make_unique<net::SocketServer>(
        "/tmp/afs-bench-protocols/rpc.sock", files);
    (void)rpc_server->Start();
    ftp_server = std::make_unique<net::FtpServer>(
        "/tmp/afs-bench-protocols/ftp.sock", files);
    (void)ftp_server->Start();
  }
  ~Env() {
    rpc_server->Stop();
    ftp_server->Stop();
  }

  net::FileServer files;
  std::unique_ptr<net::SocketServer> rpc_server;
  std::unique_ptr<net::FtpServer> ftp_server;
};

Env& GetEnv() {
  static Env env;
  return env;
}

void Stage(std::size_t bytes) {
  Buffer content(bytes, 0x7E);
  (void)GetEnv().files.Put("blob", ByteSpan(content));
}

void BM_RpcGet(benchmark::State& state) {
  GetEnv();
  Stage(static_cast<std::size_t>(state.range(0)));
  net::SocketClient client("/tmp/afs-bench-protocols/rpc.sock");
  net::FileClient fc(client);
  for (auto _ : state) {
    auto got = fc.Get("blob");
    if (!got.ok()) {
      state.SkipWithError(got.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(got->data.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

void BM_FtpRetr(benchmark::State& state) {
  Stage(static_cast<std::size_t>(state.range(0)));
  net::FtpClient client("/tmp/afs-bench-protocols/ftp.sock");
  for (auto _ : state) {
    auto got = client.Retr("blob");
    if (!got.ok()) {
      state.SkipWithError(got.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(got->data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

void BM_RpcPut(benchmark::State& state) {
  Env& env = GetEnv();
  (void)env;
  net::SocketClient client("/tmp/afs-bench-protocols/rpc.sock");
  net::FileClient fc(client);
  Buffer content(static_cast<std::size_t>(state.range(0)), 0x11);
  for (auto _ : state) {
    auto rev = fc.Put("out-rpc", ByteSpan(content));
    if (!rev.ok()) {
      state.SkipWithError(rev.status().ToString().c_str());
      return;
    }
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

void BM_FtpStor(benchmark::State& state) {
  net::FtpClient client("/tmp/afs-bench-protocols/ftp.sock");
  Buffer content(static_cast<std::size_t>(state.range(0)), 0x11);
  for (auto _ : state) {
    const Status stored = client.Stor("out-ftp", ByteSpan(content));
    if (!stored.ok()) {
      state.SkipWithError(stored.ToString().c_str());
      return;
    }
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

void RegisterAll() {
  for (int size : {256, 4096, 65536}) {
    benchmark::RegisterBenchmark("Protocol/RpcGet", BM_RpcGet)
        ->Arg(size)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark("Protocol/FtpRetr", BM_FtpRetr)
        ->Arg(size)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark("Protocol/RpcPut", BM_RpcPut)
        ->Arg(size)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark("Protocol/FtpStor", BM_FtpStor)
        ->Arg(size)
        ->Unit(benchmark::kMicrosecond);
  }
}

}  // namespace
}  // namespace afs

int main(int argc, char** argv) {
  afs::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
