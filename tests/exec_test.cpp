// Exec-mode sentinel tests: the active part as a real external executable
// (AFS_SENTINELD_PATH is injected by CMake as the path to the built
// afs_sentineld binary).  This is the paper's literal launch model.
#include <gtest/gtest.h>

#include <cstdlib>

#include "afs.hpp"
#include "net/socket_transport.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"
#include "util/prng.hpp"

#ifndef AFS_SENTINELD_PATH
#error "AFS_SENTINELD_PATH must be defined by the build"
#endif

namespace afs {
namespace {

using core::ActiveFileManager;
using core::ManagerOptions;
using sentinel::SentinelSpec;
using test::TempDir;

class ExecSentinelTest : public ::testing::Test {
 protected:
  ExecSentinelTest()
      : api_(tmp_.path() + "/root"),
        manager_(api_, sentinel::SentinelRegistry::Global()) {
    sentinels::RegisterBuiltinSentinels();
    manager_.Install();
  }

  SentinelSpec ExecSpec(const std::string& sentinel,
                        const std::string& strategy) {
    SentinelSpec spec;
    spec.name = sentinel;
    spec.config["exec"] = AFS_SENTINELD_PATH;
    spec.config["strategy"] = strategy;
    return spec;
  }

  TempDir tmp_;
  vfs::FileApi api_;
  ActiveFileManager manager_;
};

TEST_F(ExecSentinelTest, ControlModeFullApi) {
  ASSERT_OK(manager_.CreateActiveFile(
      "x.af", ExecSpec("null", "process_control"), AsBytes("0123456789")));
  auto handle = api_.OpenFile("x.af", vfs::OpenMode::kReadWrite);
  ASSERT_OK(handle.status());

  EXPECT_EQ(*api_.GetFileSize(*handle), 10u);
  ASSERT_OK(api_.SetFilePointer(*handle, 5, vfs::SeekOrigin::kBegin).status());
  Buffer out(5);
  ASSERT_OK(api_.ReadFile(*handle, MutableByteSpan(out)).status());
  EXPECT_EQ(ToString(ByteSpan(out)), "56789");
  ASSERT_OK(api_.SetFilePointer(*handle, 0, vfs::SeekOrigin::kBegin).status());
  ASSERT_OK(api_.WriteFile(*handle, AsBytes("XX")).status());
  ASSERT_OK(api_.CloseHandle(*handle));

  auto data = manager_.ReadDataPart("x.af");
  ASSERT_OK(data.status());
  EXPECT_EQ(ToString(ByteSpan(*data)), "XX23456789");
}

TEST_F(ExecSentinelTest, StreamModeDeliversDataPart) {
  ASSERT_OK(manager_.CreateActiveFile("s.af", ExecSpec("null", "process"),
                                      AsBytes("exec-streamed")));
  auto content = api_.ReadWholeFile("s.af");
  ASSERT_OK(content.status());
  EXPECT_EQ(ToString(ByteSpan(*content)), "exec-streamed");
}

TEST_F(ExecSentinelTest, StreamModeWritesReachBundle) {
  ASSERT_OK(manager_.CreateActiveFile("w.af", ExecSpec("null", "process")));
  auto handle = api_.OpenFile("w.af", vfs::OpenMode::kWrite);
  ASSERT_OK(handle.status());
  ASSERT_OK(api_.WriteFile(*handle, AsBytes("from-app")).status());
  ASSERT_OK(api_.CloseHandle(*handle));
  auto data = manager_.ReadDataPart("w.af");
  ASSERT_OK(data.status());
  EXPECT_EQ(ToString(ByteSpan(*data)), "from-app");
}

TEST_F(ExecSentinelTest, CompressSentinelInExternalProcess) {
  SentinelSpec spec = ExecSpec("compress", "process_control");
  spec.config["codec"] = "rle";
  ASSERT_OK(manager_.CreateActiveFile("c.af", spec));

  std::string text(4000, 'z');
  auto handle = api_.OpenFile("c.af", vfs::OpenMode::kWrite);
  ASSERT_OK(handle.status());
  ASSERT_OK(api_.WriteFile(*handle, AsBytes(text)).status());
  ASSERT_OK(api_.CloseHandle(*handle));

  auto stored = manager_.ReadDataPart("c.af");
  ASSERT_OK(stored.status());
  EXPECT_LT(stored->size(), 200u);  // compressed by the external process
  auto roundtrip = api_.ReadWholeFile("c.af");
  ASSERT_OK(roundtrip.status());
  EXPECT_EQ(ToString(ByteSpan(*roundtrip)), text);
}

TEST_F(ExecSentinelTest, RemoteSentinelOverSocketFromExternalProcess) {
  // The external sentinel reaches a remote source through a Unix socket
  // served by THIS process — the full distributed path of the paper, with
  // three genuinely separate protection domains: app, sentinel, server.
  net::FileServer files;
  ASSERT_OK(files.Put("doc", AsBytes("served-bytes")));
  net::SocketServer server(tmp_.path() + "/files.sock", files);
  ASSERT_OK(server.Start());

  SentinelSpec spec = ExecSpec("remote", "process_control");
  spec.config["cache"] = "none";
  spec.config["url"] = "sock:" + tmp_.path() + "/files.sock";
  spec.config["file"] = "doc";
  ASSERT_OK(manager_.CreateActiveFile("r.af", spec));

  auto content = api_.ReadWholeFile("r.af");
  ASSERT_OK(content.status());
  EXPECT_EQ(ToString(ByteSpan(*content)), "served-bytes");

  auto handle = api_.OpenFile("r.af", vfs::OpenMode::kWrite);
  ASSERT_OK(handle.status());
  ASSERT_OK(api_.WriteFile(*handle, AsBytes("UPDATED")).status());
  ASSERT_OK(api_.CloseHandle(*handle));
  auto server_side = files.Get("doc");
  ASSERT_OK(server_side.status());
  EXPECT_EQ(ToString(ByteSpan(*server_side)), "UPDATEDbytes");
  server.Stop();
}

TEST_F(ExecSentinelTest, MissingExecutableFailsOpenCleanly) {
  SentinelSpec spec;
  spec.name = "null";
  spec.config["exec"] = "/no/such/sentineld";
  spec.config["strategy"] = "process_control";
  ASSERT_OK(manager_.CreateActiveFile("m.af", spec, AsBytes("x")));
  auto handle = api_.OpenFile("m.af", vfs::OpenMode::kRead);
  EXPECT_FALSE(handle.ok());  // banner never arrives; exec failed
  EXPECT_EQ(api_.open_handle_count(), 0u);
}

TEST_F(ExecSentinelTest, RingAttachFailureFallsBackToPipesAtTheBanner) {
  // The fault plan reaches only the exec'd sentineld, through its
  // environment: its ShmRing::Attach fails, so its open banner goes out
  // without the ring bit and this side keeps the session on the pipes.
  obs::Counter& fallbacks =
      obs::Registry::Global().GetCounter("ipc.shm.fallbacks");
  obs::Counter& ring_bytes =
      obs::Registry::Global().GetCounter("ipc.shm.bytes");
  SentinelSpec spec = ExecSpec("null", "process_control");
  spec.config["shm_threshold"] = "1";
  ASSERT_OK(manager_.CreateActiveFile("ring.af", spec));
  const std::uint64_t fallbacks_before = fallbacks.Value();
  const std::uint64_t ring_before = ring_bytes.Value();
  ASSERT_EQ(
      ::setenv("AFS_FAULT_PLAN", "seed=1;ipc.shm.map_fail=error:io@n1", 1), 0);
  auto handle = api_.OpenFile("ring.af", vfs::OpenMode::kReadWrite);
  ASSERT_EQ(::unsetenv("AFS_FAULT_PLAN"), 0);
  ASSERT_OK(handle.status());
  EXPECT_EQ(fallbacks.Value() - fallbacks_before, 1u);

  Buffer payload(32 * 1024);
  Prng(0xA77AC4).Fill(MutableByteSpan(payload));
  auto wrote = api_.WriteFile(*handle, ByteSpan(payload));
  ASSERT_OK(wrote.status());
  EXPECT_EQ(*wrote, payload.size());
  ASSERT_OK(api_.SetFilePointer(*handle, 0, vfs::SeekOrigin::kBegin).status());
  Buffer back(payload.size());
  auto got = api_.ReadFile(*handle, MutableByteSpan(back));
  ASSERT_OK(got.status());
  EXPECT_EQ(*got, payload.size());
  EXPECT_EQ(back, payload);
  ASSERT_OK(api_.CloseHandle(*handle));
  EXPECT_EQ(ring_bytes.Value(), ring_before);
}

}  // namespace
}  // namespace afs
