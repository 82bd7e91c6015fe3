// Crash-recovery matrix for the supervisor layer (core/supervisor.hpp).
//
// The contract under test is the paper's Section 3 illusion extended across
// sentinel death: a supervised active file must carry an unmodified
// application sequence (open -> read -> write -> seek -> read -> close) to
// a byte-identical result even when AFS_FAULT_PLAN kills the sentinel at
// the nastiest instants — before the open is acknowledged, mid-read,
// mid-write, and during close.  Where the restart budget cannot win (a
// kill that re-fires in every restarted child), the handle must degrade to
// the bundle's data part per the declared mode, still byte-exact.
//
// Restart and degrade counts are asserted as deltas of the supervisor's
// process-wide counters (core.supervisor.{restarts,degrades}), which with
// its log lines are the audit record docs/RECOVERY.md names.
#include <gtest/gtest.h>

#include <csignal>
#include <chrono>
#include <climits>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "afs.hpp"
#include "common/faultpoint.hpp"
#include "core/supervisor.hpp"
#include "obs/metrics.hpp"
#include "ipc/process.hpp"
#include "registry/registry.hpp"
#include "test_util.hpp"

// TSan cannot follow a forked child of a multi-threaded parent that starts
// threads (die_after_fork) — and every parent here IS multi-threaded (loop
// shards, log writer), while a forked stream sentinel starts
// its pump thread.  Under TSan the stream sandboxes therefore launch the
// sentinel via exec (the paper's literal model, already supervision-aware
// through --resume-read/--resume-write): a fresh image gets a fresh, sane
// TSan runtime.  The fork path keeps its coverage in the plain and ASan
// runs of the same tests.
#if defined(__SANITIZE_THREAD__)
#define AFS_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define AFS_UNDER_TSAN 1
#endif
#endif
#if defined(AFS_UNDER_TSAN) || defined(__SANITIZE_ADDRESS__)
#define AFS_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define AFS_UNDER_SANITIZER 1
#endif
#endif

namespace afs {
namespace {

using sentinel::SentinelSpec;
using test::TempDir;

// ---- harness ---------------------------------------------------------------

// What supervision did since construction: deltas of the process-wide
// core.supervisor.{restarts,degrades} counters.  Tests run one at a time,
// so the only sessions they count are the test's own.
class SupervisionCounters {
 public:
  std::uint64_t restarts() const { return Restarts().Value() - restarts_; }
  std::uint64_t degrades() const { return Degrades().Value() - degrades_; }

 private:
  static obs::Counter& Restarts() {
    return obs::Registry::Global().GetCounter("core.supervisor.restarts");
  }
  static obs::Counter& Degrades() {
    return obs::Registry::Global().GetCounter("core.supervisor.degrades");
  }

  const std::uint64_t restarts_ = Restarts().Value();
  const std::uint64_t degrades_ = Degrades().Value();
};

// One sandboxed manager + one supervised bundle.
struct Sandbox {
  explicit Sandbox(const std::map<std::string, std::string>& config,
                   const std::string& data = "0123456789abcdef")
      : api(tmp.path() + "/root") {
    sentinels::RegisterBuiltinSentinels();
    manager = std::make_unique<core::ActiveFileManager>(
        api, sentinel::SentinelRegistry::Global());
    manager->Install();
    SentinelSpec spec;
    spec.name = "null";
    for (const auto& [key, value] : config) spec.config[key] = value;
    EXPECT_OK(manager->CreateActiveFile("file.af", spec, AsBytes(data)));
  }

  std::string DataPart() {
    auto data = manager->ReadDataPart("file.af");
    EXPECT_TRUE(data.ok()) << data.status().ToString();
    return data.ok() ? ToString(ByteSpan(*data)) : std::string();
  }

  SupervisionCounters supervision;
  TempDir tmp;
  vfs::FileApi api;
  std::unique_ptr<core::ActiveFileManager> manager;
};

// Arms a fault plan for the enclosing scope.  Forked sentinels inherit the
// installed plan across fork; exec'd sentinels re-install it from the
// AFS_FAULT_PLAN environment variable at startup, so export it too.
struct ArmedPlan {
  explicit ArmedPlan(const std::string& text) {
    auto plan = fault::ParsePlan(text);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    if (plan.ok()) fault::InstallPlan(std::move(*plan));
    ::setenv("AFS_FAULT_PLAN", text.c_str(), 1);
  }
  ~ArmedPlan() {
    ::unsetenv("AFS_FAULT_PLAN");
    fault::ClearPlan();
  }
};

// What one run of the canonical application sequence observed.  Two runs
// are byte-identical iff these compare equal.
struct SequenceOutcome {
  std::string trace;      // per-op results, rendered
  std::string final_data; // the bundle's data part after close
};

std::string Render(const Status& status) {
  return status.ok() ? "ok" : std::string(ErrorCodeName(status.code()));
}

// The unmodified application sequence of the acceptance criterion:
// open -> read(4) -> write(4) -> seek(0) -> read(4) -> close.  Seek is
// kUnsupported under the plain process strategy; that too must match the
// no-fault run.
SequenceOutcome RunCanonicalSequence(Sandbox& box) {
  SequenceOutcome out;
  auto handle = box.api.OpenFile("file.af", vfs::OpenMode::kReadWrite);
  out.trace += "open=" + Render(handle.status());
  if (!handle.ok()) {
    out.final_data = box.DataPart();
    return out;
  }

  Buffer buf(4);
  auto read1 = box.api.ReadFile(*handle, MutableByteSpan(buf));
  out.trace += ";read1=" + Render(read1.status());
  if (read1.ok()) out.trace += ":" + ToString(ByteSpan(buf.data(), *read1));

  auto wrote = box.api.WriteFile(*handle, AsBytes("WXYZ"));
  out.trace += ";write=" + Render(wrote.status());
  if (wrote.ok()) out.trace += ":" + std::to_string(*wrote);

  auto sought =
      box.api.SetFilePointer(*handle, 0, vfs::SeekOrigin::kBegin);
  out.trace += ";seek=" + Render(sought.status());

  auto read2 = box.api.ReadFile(*handle, MutableByteSpan(buf));
  out.trace += ";read2=" + Render(read2.status());
  if (read2.ok()) out.trace += ":" + ToString(ByteSpan(buf.data(), *read2));

  out.trace += ";close=" + Render(box.api.CloseHandle(*handle));
  out.final_data = box.DataPart();
  return out;
}

std::map<std::string, std::string> SupervisedConfig(
    const std::string& strategy,
    const std::map<std::string, std::string>& extra = {}) {
  std::map<std::string, std::string> config = {
      {"strategy", strategy},
      {"supervise", "1"},
  };
#if defined(AFS_UNDER_TSAN)
  // Stream sentinels must be exec'd under TSan; see the file header.
  if (strategy == "process") config["exec"] = AFS_SENTINELD_PATH;
#endif
  for (const auto& [key, value] : extra) config[key] = value;
  return config;
}

// ---- policy parsing --------------------------------------------------------

TEST(RestartPolicyTest, ParsesSpecKeysAndDefaults) {
  auto defaults = core::RestartPolicy::FromSpec({});
  ASSERT_OK(defaults.status());
  EXPECT_FALSE(defaults->supervised);
  EXPECT_EQ(defaults->max_restarts, 3);
  EXPECT_EQ(defaults->degrade, core::DegradeMode::kFail);

  auto parsed = core::RestartPolicy::FromSpec({{"supervise", "1"},
                                               {"restart_max", "5"},
                                               {"restart_backoff_ms", "1"},
                                               {"restart_backoff_cap_ms", "8"},
                                               {"degrade", "passthrough"}});
  ASSERT_OK(parsed.status());
  EXPECT_TRUE(parsed->supervised);
  EXPECT_EQ(parsed->max_restarts, 5);
  EXPECT_EQ(parsed->backoff_initial.count(), 1000);
  EXPECT_EQ(parsed->backoff_cap.count(), 8000);
  EXPECT_EQ(parsed->degrade, core::DegradeMode::kPassthrough);

  EXPECT_FALSE(
      core::RestartPolicy::FromSpec({{"degrade", "frobnicate"}}).ok());
}

// Values past the representable range clamp or saturate instead of
// overflowing (undefined behaviour, fatal under UBSan).
TEST(RestartPolicyTest, OutOfRangeValuesSaturate) {
  auto huge = core::RestartPolicy::FromSpec(
      {{"restart_max", "99999999999"},
       {"restart_backoff_ms", "9223372036854775807"},
       {"restart_backoff_cap_ms", "9223372036854775807"}});
  ASSERT_OK(huge.status());
  EXPECT_EQ(huge->max_restarts, INT_MAX);
  EXPECT_EQ(huge->backoff_initial, Micros::max());
  EXPECT_EQ(huge->backoff_cap, Micros::max());

  auto negative = core::RestartPolicy::FromSpec({{"restart_max", "-4"}});
  ASSERT_OK(negative.status());
  EXPECT_EQ(negative->max_restarts, 0);
}

// ---- transparent recovery: control strategy --------------------------------

// Kill the sentinel mid-read (4th command).  The supervisor must restart
// it, replay the file pointer, retry the read, and deliver a run that is
// byte-identical to the no-fault run — the application never learns.
TEST(RecoveryTest, ControlKillMidReadIsByteIdentical) {
  SequenceOutcome clean;
  {
    Sandbox box(SupervisedConfig("process_control"));
    clean = RunCanonicalSequence(box);
  }
  EXPECT_EQ(clean.trace,
            "open=ok;read1=ok:0123;write=ok:4;seek=ok;read2=ok:0123;close=ok");

  Sandbox box(SupervisedConfig("process_control"));
  ArmedPlan plan("seed=1;sentinel.dispatch.op=kill@n4");
  const SequenceOutcome faulted = RunCanonicalSequence(box);
  EXPECT_EQ(faulted.trace, clean.trace);
  EXPECT_EQ(faulted.final_data, clean.final_data);

  EXPECT_GE(box.supervision.restarts(), 1u);
  EXPECT_LE(box.supervision.restarts(), 3u);  // bounded by restart_max
  EXPECT_EQ(box.supervision.degrades(), 0u);  // recovered, did not fall back
}

// Kill the sentinel mid-write.  Because restarted children inherit the
// parent's (zero) trigger counters, the seek-replay + write-retry re-fires
// the same kill in every incarnation: a restart storm.  The supervisor
// must burn the bounded budget, then degrade to passthrough — and the
// sequence must STILL end byte-identical, because the degraded handle
// serves the bundle's data part at the replayed file pointer.
TEST(RecoveryTest, ControlKillMidWriteDegradesPassthroughByteIdentical) {
  SequenceOutcome clean;
  {
    Sandbox box(SupervisedConfig("process_control"));
    clean = RunCanonicalSequence(box);
  }

  Sandbox box(SupervisedConfig("process_control",
                               {{"degrade", "passthrough"},
                                {"restart_backoff_ms", "1"},
                                {"restart_backoff_cap_ms", "4"}}));
  ArmedPlan plan("seed=1;sentinel.dispatch.op=kill@n2");
  const SequenceOutcome faulted = RunCanonicalSequence(box);
  EXPECT_EQ(faulted.trace, clean.trace);
  EXPECT_EQ(faulted.final_data, clean.final_data);

  EXPECT_EQ(box.supervision.restarts(), 3u);  // the whole budget, then degrade
  EXPECT_EQ(box.supervision.degrades(), 1u);
}

// ---- transparent recovery: stream strategy ---------------------------------

// Kill the streaming sentinel after every chunk it pumps (@n2 = one chunk
// per incarnation, then die).  Each restart resumes at the application's
// logical read offset, so the handle crosses the whole file in bounded
// restarts and the delivered bytes are exact.
TEST(RecoveryTest, StreamKillMidReadResumesAtOffsetByteIdentical) {
  std::string data;
  for (int i = 0; data.size() < 3 * 4096; ++i) {
    data += "chunk" + std::to_string(i) + ":";
  }
  data.resize(3 * 4096);

  auto read_all = [](Sandbox& box, std::string& out, std::string& tail) {
    auto handle = box.api.OpenFile("file.af", vfs::OpenMode::kReadWrite);
    ASSERT_OK(handle.status());
    Buffer buf(4096);
    while (true) {
      auto got = box.api.ReadFile(*handle, MutableByteSpan(buf));
      ASSERT_OK(got.status());
      if (*got == 0) break;
      out += ToString(ByteSpan(buf.data(), *got));
    }
    // Stream writes land at the independent write offset (byte 0 onward).
    auto wrote = box.api.WriteFile(*handle, AsBytes("TAIL"));
    ASSERT_OK(wrote.status());
    EXPECT_OK(box.api.CloseHandle(*handle));
    tail = box.DataPart();
  };

  std::string clean_bytes, clean_data;
  {
    Sandbox box(SupervisedConfig("process"), data);
    read_all(box, clean_bytes, clean_data);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(clean_bytes, data);

  Sandbox box(SupervisedConfig("process", {{"restart_max", "8"},
                                           {"restart_backoff_ms", "1"},
                                           {"restart_backoff_cap_ms", "4"}}),
              data);
  ArmedPlan plan("seed=1;sentinel.stream.read=kill@n2");
  std::string faulted_bytes, faulted_data;
  read_all(box, faulted_bytes, faulted_data);
  if (::testing::Test::HasFatalFailure()) return;

  EXPECT_EQ(faulted_bytes, clean_bytes);
  EXPECT_EQ(faulted_data, clean_data);

  EXPECT_GE(box.supervision.restarts(), 1u);
  EXPECT_LE(box.supervision.restarts(), 8u);
  EXPECT_EQ(box.supervision.degrades(), 0u);
}

// Kill the stream sentinel's write pump on its first iteration: no
// incarnation can ever consume a write, so the restart budget cannot help.
// The handle must degrade to passthrough and apply its write log to
// the data part — the write the application was told "succeeded" (stream
// writes are fire-and-forget) must not be lost.
TEST(RecoveryTest, StreamWriteKillStormDegradesWithoutLosingWrites) {
  Sandbox box(SupervisedConfig("process", {{"degrade", "passthrough"},
                                           {"restart_max", "2"},
                                           {"restart_backoff_ms", "1"},
                                           {"restart_backoff_cap_ms", "4"}}));
  ArmedPlan plan("seed=1;sentinel.stream.write=kill@n1");

  auto handle = box.api.OpenFile("file.af", vfs::OpenMode::kReadWrite);
  ASSERT_OK(handle.status());
  auto wrote = box.api.WriteFile(*handle, AsBytes("WXYZ"));
  ASSERT_OK(wrote.status());
  EXPECT_EQ(*wrote, 4u);
  EXPECT_OK(box.api.CloseHandle(*handle));

  EXPECT_EQ(box.DataPart(), "WXYZ456789abcdef");

  EXPECT_EQ(box.supervision.restarts(), 2u);
  EXPECT_EQ(box.supervision.degrades(), 1u);
}

// ---- transparent recovery: shm ring data plane ------------------------------

// The shm cells rerun the kill matrix with shm_threshold=1, so every
// payload byte rides the shared-memory ring (docs/SHM_DATA_PLANE.md)
// instead of the data pipe.  The recovery argument is the same as for
// pipes — the handle's session record, not the transport, is the source
// of truth — plus one ring-specific property: every restarted incarnation
// gets a FRESH ring, so bytes stranded in a dead sentinel's ring (the
// kill lands mid-ring-write) are dropped with the old mapping and the
// replay starts from clean state, never from a torn ring.

// Kill the sentinel on the 4th command (mid-read) with the ring carrying
// the payloads: the supervisor restarts it and the run is byte-identical.
TEST(RecoveryTest, ControlKillMidReadOnShmRingIsByteIdentical) {
  SequenceOutcome clean;
  {
    Sandbox box(SupervisedConfig("process_control",
                                 {{"shm_threshold", "1"}}));
    clean = RunCanonicalSequence(box);
  }
  EXPECT_EQ(clean.trace,
            "open=ok;read1=ok:0123;write=ok:4;seek=ok;read2=ok:0123;close=ok");

  Sandbox box(SupervisedConfig("process_control", {{"shm_threshold", "1"}}));
  ArmedPlan plan("seed=1;sentinel.dispatch.op=kill@n4");
  const SequenceOutcome faulted = RunCanonicalSequence(box);
  EXPECT_EQ(faulted.trace, clean.trace);
  EXPECT_EQ(faulted.final_data, clean.final_data);

  EXPECT_GE(box.supervision.restarts(), 1u);
  EXPECT_EQ(box.supervision.degrades(), 0u);
}

// Kill the sentinel on the write command: the application's 4 bytes are
// already buffered in the ring when the child dies, and the kill re-fires
// in every incarnation (counters reset at fork).  After the restart budget
// the handle degrades to passthrough — and the sequence must STILL be
// byte-identical, because the replayed file pointer, not the stranded ring
// bytes, reconstructs the write.
TEST(RecoveryTest, ControlKillMidRingWriteDegradesByteIdentical) {
  SequenceOutcome clean;
  {
    Sandbox box(SupervisedConfig("process_control",
                                 {{"shm_threshold", "1"}}));
    clean = RunCanonicalSequence(box);
  }

  Sandbox box(SupervisedConfig("process_control",
                               {{"shm_threshold", "1"},
                                {"degrade", "passthrough"},
                                {"restart_backoff_ms", "1"},
                                {"restart_backoff_cap_ms", "4"}}));
  ArmedPlan plan("seed=1;sentinel.dispatch.op=kill@n2");
  const SequenceOutcome faulted = RunCanonicalSequence(box);
  EXPECT_EQ(faulted.trace, clean.trace);
  EXPECT_EQ(faulted.final_data, clean.final_data);

  EXPECT_EQ(box.supervision.restarts(), 3u);  // the whole budget, then degrade
  EXPECT_EQ(box.supervision.degrades(), 1u);
}

// Stream variant: the write pump dies on its first iteration with the
// write bytes in the ring, in every incarnation.  The handle's write log must
// still deliver them to the data part after the degrade.  (Under TSan the
// stream sentinel is exec'd and streams stay on pipes — the cell then
// degenerates to the plain pipe case, which must hold anyway.)
TEST(RecoveryTest, StreamKillMidRingWriteStormKeepsWritesViaWriteLog) {
  Sandbox box(SupervisedConfig("process", {{"shm_threshold", "1"},
                                           {"degrade", "passthrough"},
                                           {"restart_max", "2"},
                                           {"restart_backoff_ms", "1"},
                                           {"restart_backoff_cap_ms", "4"}}));
  ArmedPlan plan("seed=1;sentinel.stream.write=kill@n1");

  auto handle = box.api.OpenFile("file.af", vfs::OpenMode::kReadWrite);
  ASSERT_OK(handle.status());
  auto wrote = box.api.WriteFile(*handle, AsBytes("WXYZ"));
  ASSERT_OK(wrote.status());
  EXPECT_EQ(*wrote, 4u);
  EXPECT_OK(box.api.CloseHandle(*handle));

  EXPECT_EQ(box.DataPart(), "WXYZ456789abcdef");

  EXPECT_EQ(box.supervision.restarts(), 2u);
  EXPECT_EQ(box.supervision.degrades(), 1u);
}

// ---- crash before the open acknowledgement ---------------------------------

// A kill before the open banner re-fires in every restarted child (the
// counters reset at fork), so open can never succeed live; the bundle
// declares degrade=readonly and the open must complete against the data
// part, rejecting writes.
TEST(RecoveryTest, OpenAckKillDegradesReadonly) {
  Sandbox box(SupervisedConfig("process_control",
                               {{"degrade", "readonly"},
                                {"restart_max", "2"},
                                {"restart_backoff_ms", "1"},
                                {"restart_backoff_cap_ms", "4"}}));
  ArmedPlan plan("seed=1;sentinel.dispatch.openack=kill@n1");

  auto handle = box.api.OpenFile("file.af", vfs::OpenMode::kReadWrite);
  ASSERT_OK(handle.status());

  Buffer buf(4);
  auto got = box.api.ReadFile(*handle, MutableByteSpan(buf));
  ASSERT_OK(got.status());
  EXPECT_EQ(ToString(ByteSpan(buf.data(), *got)), "0123");

  EXPECT_STATUS_CODE(box.api.WriteFile(*handle, AsBytes("no")).status(),
                     ErrorCode::kPermissionDenied);
  EXPECT_OK(box.api.CloseHandle(*handle));

  EXPECT_EQ(box.supervision.restarts(), 2u);
  EXPECT_EQ(box.supervision.degrades(), 1u);
}

// Same storm with degrade=fail (the default): the open itself must fail
// with a clean code and leak nothing — the historical poisoned-handle
// semantics, now by explicit policy.
TEST(RecoveryTest, OpenAckKillWithDegradeFailFailsTheOpen) {
  Sandbox box(SupervisedConfig("process_control",
                               {{"restart_max", "1"},
                                {"restart_backoff_ms", "1"},
                                {"restart_backoff_cap_ms", "4"}}));
  ArmedPlan plan("seed=1;sentinel.dispatch.openack=kill@n1");

  auto handle = box.api.OpenFile("file.af", vfs::OpenMode::kReadWrite);
  EXPECT_STATUS_CODE(handle.status(), ErrorCode::kClosed);
  EXPECT_EQ(box.api.open_handle_count(), 0u);
}

// ---- crash during close ----------------------------------------------------

// A kill during close consumes the close command unanswered in every
// incarnation; after the budget the supervisor degrades and the degraded
// close (flush the data part) completes, so the application's close
// succeeds instead of reporting a dead sentinel.
TEST(RecoveryTest, CloseKillEndsInSuccessfulDegradedClose) {
  Sandbox box(SupervisedConfig("process_control",
                               {{"degrade", "passthrough"},
                                {"restart_max", "2"},
                                {"restart_backoff_ms", "1"},
                                {"restart_backoff_cap_ms", "4"}}));
  ArmedPlan plan("seed=1;sentinel.dispatch.close=kill@n1");

  auto handle = box.api.OpenFile("file.af", vfs::OpenMode::kReadWrite);
  ASSERT_OK(handle.status());
  Buffer buf(4);
  ASSERT_OK(box.api.ReadFile(*handle, MutableByteSpan(buf)).status());
  EXPECT_OK(box.api.CloseHandle(*handle));

  EXPECT_EQ(box.supervision.restarts(), 2u);
  EXPECT_EQ(box.supervision.degrades(), 1u);
}

// ---- loop strategy: crashes on a shared shard ------------------------------

// The loop analogue of the control kill cells.  core.loop.crash is the
// in-process stand-in for sentinel death (kill rules are forbidden at loop
// sites — the session lives in the test's own process): it tears the
// session down mid-command without a response.  Supervision must replay
// the session and deliver a byte-identical run.  Fault counters do not
// reset across a loop restart (no fork), so the @n4 trigger fires exactly
// once and the budget is never stressed.
TEST(RecoveryTest, LoopCrashMidReadIsByteIdentical) {
  SequenceOutcome clean;
  {
    Sandbox box(SupervisedConfig("loop"));
    clean = RunCanonicalSequence(box);
  }
  EXPECT_EQ(clean.trace,
            "open=ok;read1=ok:0123;write=ok:4;seek=ok;read2=ok:0123;close=ok");

  Sandbox box(SupervisedConfig("loop"));
  ArmedPlan plan("seed=1;core.loop.crash=error:io@n4");
  const SequenceOutcome faulted = RunCanonicalSequence(box);
  EXPECT_EQ(faulted.trace, clean.trace);
  EXPECT_EQ(faulted.final_data, clean.final_data);

  EXPECT_GE(box.supervision.restarts(), 1u);
  EXPECT_EQ(box.supervision.degrades(), 0u);
}

// The co-hosting guarantee of docs/EVENT_LOOP.md: a victim session's crash
// must not wedge its neighbors on the same shard.  Both bundles pin
// loop_shard=0, so victim and survivor share one loop thread; the victim
// crashes mid-read and is replayed by supervision, while the survivor's
// handle — deliberately unsupervised, so any damage would show — keeps
// serving the same bytes throughout.
TEST(RecoveryTest, LoopCrashOnSharedShardDoesNotWedgeCoHostedHandles) {
  Sandbox box(SupervisedConfig("loop", {{"loop_shard", "0"}}));
  SentinelSpec peer_spec;
  peer_spec.name = "null";
  peer_spec.config["strategy"] = "loop";
  peer_spec.config["loop_shard"] = "0";
  ASSERT_OK(box.manager->CreateActiveFile("peer.af", peer_spec,
                                          AsBytes("peer-bytes-cdef")));

  auto victim = box.api.OpenFile("file.af", vfs::OpenMode::kReadWrite);
  ASSERT_OK(victim.status());
  auto survivor = box.api.OpenFile("peer.af", vfs::OpenMode::kReadWrite);
  ASSERT_OK(survivor.status());

  Buffer buf(4);
  auto warm = box.api.ReadFile(*survivor, MutableByteSpan(buf));
  ASSERT_OK(warm.status());
  EXPECT_EQ(ToString(ByteSpan(buf.data(), *warm)), "peer");

  {
    // Hit 1 is the victim's next command: the session tears down on the
    // shared shard, supervision replays it, and the retried read succeeds.
    ArmedPlan plan("seed=1;core.loop.crash=error:io@n1");
    auto got = box.api.ReadFile(*victim, MutableByteSpan(buf));
    ASSERT_OK(got.status());
    EXPECT_EQ(ToString(ByteSpan(buf.data(), *got)), "0123");
  }

  // The survivor's co-hosted session never noticed: same shard, same
  // bytes, no error — and both handles still close cleanly.
  ASSERT_OK(box.api.SetFilePointer(*survivor, 0, vfs::SeekOrigin::kBegin)
                .status());
  auto after = box.api.ReadFile(*survivor, MutableByteSpan(buf));
  ASSERT_OK(after.status());
  EXPECT_EQ(ToString(ByteSpan(buf.data(), *after)), "peer");

  EXPECT_OK(box.api.CloseHandle(*victim));
  EXPECT_OK(box.api.CloseHandle(*survivor));
  EXPECT_EQ(box.api.open_handle_count(), 0u);

  EXPECT_GE(box.supervision.restarts(), 1u);
  EXPECT_EQ(box.supervision.degrades(), 0u);
}

// ---- op-path failure detection ---------------------------------------------
//
// A supervised handle learns that its sentinel died or wedged only from the
// op it is running: EOF/kClosed from a killed child, kTimeout once the op
// passes op_timeout_ms.  No monitor, timer or heartbeat watches the session
// in between.  Plans that fault a forked sentinel are armed for the open
// only: the first incarnation inherits them, its restarts do not.

long long MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Opens the sandbox's file.af.  With `faulted`, the forked sentinel
// inherits a plan that kills it at its first op; the restarted child runs
// clean.  Without, the open is the no-fault twin.
Result<vfs::HandleId> OpenKilledAtFirstOp(Sandbox& box, bool faulted) {
  std::unique_ptr<ArmedPlan> plan;
  if (faulted) {
    plan = std::make_unique<ArmedPlan>("seed=1;sentinel.dispatch.op=kill@n1");
  }
  return box.api.OpenFile("file.af", vfs::OpenMode::kReadWrite);
}

// SIGKILL inside the dispatch of the read the application is blocked on.
// The dead child's pipe EOF wakes the read at once; the handle restarts the
// sentinel and retries, so the read returns the right bytes promptly.
TEST(RecoveryTest, ControlKillUnderBlockedReadRecoversOnTheOpPath) {
  Sandbox box(SupervisedConfig("process_control",
                               {{"restart_backoff_ms", "1"}}));
  auto handle = OpenKilledAtFirstOp(box, true);
  ASSERT_OK(handle.status());

  Buffer buf(4);
  const auto before = std::chrono::steady_clock::now();
  auto got = box.api.ReadFile(*handle, MutableByteSpan(buf));
  const long long elapsed_ms = MillisSince(before);
  ASSERT_OK(got.status());
  EXPECT_EQ(ToString(ByteSpan(buf.data(), *got)), "0123");
#if !defined(AFS_UNDER_SANITIZER)
  EXPECT_LT(elapsed_ms, 20);
#else
  (void)elapsed_ms;  // the bound holds for the plain build only
#endif
  EXPECT_OK(box.api.CloseHandle(*handle));

  EXPECT_EQ(box.supervision.restarts(), 1u);
  EXPECT_EQ(box.supervision.degrades(), 0u);
}

// The replayed ops other than read share its retry loop: size, set-EOF and
// flush killed under the op each return the no-fault answer after exactly
// one restart, and the data part ends the same.
TEST(RecoveryTest, ControlKillUnderReplayedOpsReturnsTheNoFaultAnswer) {
  using Op = std::function<std::string(Sandbox&, vfs::HandleId)>;
  const std::vector<std::pair<std::string, Op>> ops = {
      {"size",
       [](Sandbox& box, vfs::HandleId handle) {
         auto size = box.api.GetFileSize(handle);
         return Render(size.status()) +
                (size.ok() ? ":" + std::to_string(*size) : "");
       }},
      {"seteof",
       [](Sandbox& box, vfs::HandleId handle) {
         return Render(box.api.SetEndOfFile(handle));
       }},
      {"flush",
       [](Sandbox& box, vfs::HandleId handle) {
         return Render(box.api.FlushFileBuffers(handle));
       }},
  };
  for (const auto& [name, op] : ops) {
    SCOPED_TRACE(name);
    auto run = [&op = op](bool faulted) {
      Sandbox box(SupervisedConfig("process_control",
                                   {{"restart_backoff_ms", "1"}}));
      auto handle = OpenKilledAtFirstOp(box, faulted);
      EXPECT_OK(handle.status());
      if (!handle.ok()) return std::string();
      std::string outcome = op(box, *handle);
      outcome += ";close=" + Render(box.api.CloseHandle(*handle));
      outcome += ";data=" + box.DataPart();
      EXPECT_EQ(box.supervision.restarts(), faulted ? 1u : 0u);
      EXPECT_EQ(box.supervision.degrades(), 0u);
      return outcome;
    };
    const std::string clean = run(false);
    EXPECT_EQ(run(true), clean);
  }
}

// Range locks and custom commands are not retried: killed under the op they
// report the crash, the handle heals with one restart, and the next read
// is served.
TEST(RecoveryTest, ControlKillUnderNonReplayedOpsReportsTheCrashAndHeals) {
  using Op = std::function<Status(Sandbox&, vfs::HandleId)>;
  const std::vector<std::pair<std::string, Op>> ops = {
      {"lock",
       [](Sandbox& box, vfs::HandleId handle) {
         return box.api.LockFileRange(handle, 0, 4);
       }},
      {"control",
       [](Sandbox& box, vfs::HandleId handle) {
         return box.manager->Control(handle, AsBytes("ping")).status();
       }},
  };
  for (const auto& [name, op] : ops) {
    SCOPED_TRACE(name);
    Sandbox box(SupervisedConfig("process_control",
                                 {{"restart_backoff_ms", "1"}}));
    auto handle = OpenKilledAtFirstOp(box, true);
    ASSERT_OK(handle.status());
    EXPECT_STATUS_CODE(op(box, *handle), ErrorCode::kClosed);

    Buffer buf(4);
    auto got = box.api.ReadFile(*handle, MutableByteSpan(buf));
    ASSERT_OK(got.status());
    EXPECT_EQ(ToString(ByteSpan(buf.data(), *got)), "0123");
    EXPECT_OK(box.api.CloseHandle(*handle));
    EXPECT_EQ(box.supervision.restarts(), 1u);
    EXPECT_EQ(box.supervision.degrades(), 0u);
  }
}

// A wedged child: the read outlives op_timeout_ms, and the handle must
// SIGKILL the child before it lets go of it.  Without the kill the teardown
// would wait for the child to leave its 300 ms stall.
TEST(RecoveryTest, ControlWedgeUnderReadIsKilledAtTheOpTimeout) {
  Sandbox box(SupervisedConfig("process_control",
                               {{"op_timeout_ms", "50"},
                                {"restart_backoff_ms", "1"}}));
  auto plan = std::make_unique<ArmedPlan>(
      "seed=1;sentinel.dispatch.op=delay:300ms@n1");
  auto handle = box.api.OpenFile("file.af", vfs::OpenMode::kReadWrite);
  plan.reset();
  ASSERT_OK(handle.status());

  Buffer buf(4);
  const auto before = std::chrono::steady_clock::now();
  auto got = box.api.ReadFile(*handle, MutableByteSpan(buf));
  const long long elapsed_ms = MillisSince(before);
  ASSERT_OK(got.status());
  EXPECT_EQ(ToString(ByteSpan(buf.data(), *got)), "0123");
  EXPECT_LT(elapsed_ms, 200);
  EXPECT_OK(box.api.CloseHandle(*handle));

  EXPECT_GE(box.supervision.restarts(), 1u);
  EXPECT_EQ(box.supervision.degrades(), 0u);
}

// The in-process strategies wedge the same way: the read passes
// op_timeout_ms, the handle forces the session down (rendezvous shutdown,
// loop drop), restarts it and retries.  The sentinel shares the process, so
// the plan is armed around the read itself; @n1 stalls only its first op.
TEST(RecoveryTest, InProcessWedgeUnderReadRestartsAtTheOpTimeout) {
  for (const char* strategy : {"thread", "loop"}) {
    SCOPED_TRACE(strategy);
    Sandbox box(SupervisedConfig(strategy, {{"op_timeout_ms", "50"},
                                            {"restart_backoff_ms", "1"}}));
    auto handle = box.api.OpenFile("file.af", vfs::OpenMode::kReadWrite);
    ASSERT_OK(handle.status());

    Buffer buf(4);
    Result<std::size_t> got = std::size_t{0};
    {
      ArmedPlan plan("seed=1;sentinel.dispatch.op=delay:300ms@n1");
      got = box.api.ReadFile(*handle, MutableByteSpan(buf));
    }
    ASSERT_OK(got.status());
    EXPECT_EQ(ToString(ByteSpan(buf.data(), *got)), "0123");
    EXPECT_OK(box.api.CloseHandle(*handle));

    EXPECT_GE(box.supervision.restarts(), 1u);
    EXPECT_EQ(box.supervision.degrades(), 0u);
  }
}

// A wedge is not a crash: the sentinel is alive and holds writes it
// acknowledged into its writeback memory cache.  Recovery must let that
// cache reach the bundle before the fresh session loads it, so the write
// survives the restart and the final close.  The forked child gets a plan
// armed for the open (its second op, the read, stalls); the in-process
// sentinels get the plan around the read.
TEST(RecoveryTest, WedgeKeepsWritesAcknowledgedIntoAMemoryCache) {
  const std::string stall = "seed=1;sentinel.dispatch.op=delay:300ms@n";
  for (const std::string strategy : {"thread", "loop", "process_control"}) {
    SCOPED_TRACE(strategy);
    const bool forked = strategy == "process_control";
    Sandbox box(SupervisedConfig(strategy, {{"cache", "memory"},
                                            {"op_timeout_ms", "100"},
                                            {"restart_backoff_ms", "1"}}));
    std::unique_ptr<ArmedPlan> plan;
    if (forked) plan = std::make_unique<ArmedPlan>(stall + "2");
    auto handle = box.api.OpenFile("file.af", vfs::OpenMode::kReadWrite);
    plan.reset();
    ASSERT_OK(handle.status());
    auto wrote = box.api.WriteFile(*handle, AsBytes("WXYZ"));
    ASSERT_OK(wrote.status());
    EXPECT_EQ(*wrote, 4u);

    Buffer buf(4);
    if (!forked) plan = std::make_unique<ArmedPlan>(stall + "1");
    auto got = box.api.ReadFile(*handle, MutableByteSpan(buf));
    plan.reset();
    ASSERT_OK(got.status());
    EXPECT_EQ(ToString(ByteSpan(buf.data(), *got)), "4567");
    EXPECT_OK(box.api.CloseHandle(*handle));
    EXPECT_EQ(box.DataPart(), "WXYZ456789abcdef");

    EXPECT_GE(box.supervision.restarts(), 1u);
    EXPECT_EQ(box.supervision.degrades(), 0u);
  }
}

// A thread-strategy sentinel wedged in its dispatch wait: op_timeout_ms
// breaks the wedge, and the supervised retry hides the whole episode.
TEST(RecoveryTest, OpTimeoutUnwedgesThreadStrategy) {
  Sandbox box(SupervisedConfig("thread", {{"op_timeout_ms", "100"},
                                          {"restart_backoff_ms", "1"},
                                          {"restart_backoff_cap_ms", "4"}}));
  auto handle = box.api.OpenFile("file.af", vfs::OpenMode::kReadWrite);
  ASSERT_OK(handle.status());

  Buffer buf(4);
  auto probe = box.api.ReadFile(*handle, MutableByteSpan(buf));
  ASSERT_OK(probe.status());

  // Wedge the sentinel's next dispatch wait well past the op timeout.
  ArmedPlan plan("seed=1;sentinel.endpoint.recv=delay:700ms@n1");
  const auto before = std::chrono::steady_clock::now();
  auto read1 = box.api.ReadFile(*handle, MutableByteSpan(buf));
  auto read2 = box.api.ReadFile(*handle, MutableByteSpan(buf));
  const long long elapsed_ms = MillisSince(before);

  // Both reads must have been served (transparently recovered if they hit
  // the wedge).
  ASSERT_OK(read1.status());
  ASSERT_OK(read2.status());
  EXPECT_LT(elapsed_ms, 5000);
  EXPECT_OK(box.api.CloseHandle(*handle));

  EXPECT_GE(box.supervision.restarts(), 1u);
}

// The inverse guarantee: an IDLE supervised session is never restarted,
// however long it idles past its op timeout — nothing watches it between
// ops.  op_timeout_ms 150, idle 4x that, on every restartable command
// strategy; zero restarts allowed.
TEST(RecoveryTest, IdleSupervisedSessionIsNotRestarted) {
  const std::vector<std::string> strategies = {"thread", "loop",
                                               "process_control"};
  std::vector<std::unique_ptr<Sandbox>> boxes;
  std::vector<vfs::HandleId> handles;
  for (const std::string& strategy : strategies) {
    boxes.push_back(std::make_unique<Sandbox>(
        SupervisedConfig(strategy, {{"op_timeout_ms", "150"}})));
    auto handle = boxes.back()->api.OpenFile("file.af",
                                             vfs::OpenMode::kReadWrite);
    ASSERT_OK(handle.status());
    handles.push_back(*handle);
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(600));

  for (std::size_t i = 0; i < strategies.size(); ++i) {
    SCOPED_TRACE(strategies[i]);
    Sandbox& box = *boxes[i];
    Buffer buf(4);
    auto got = box.api.ReadFile(handles[i], MutableByteSpan(buf));
    ASSERT_OK(got.status());
    EXPECT_EQ(ToString(ByteSpan(buf.data(), *got)), "0123");
    EXPECT_OK(box.api.CloseHandle(handles[i]));

    EXPECT_EQ(box.supervision.restarts(), 0u);
    EXPECT_EQ(box.supervision.degrades(), 0u);
  }
}

// ---- unsupervised bundles keep the old semantics ---------------------------

// Without supervise=1 the same kill plan must produce the historical
// behavior: the operation fails with a transport code and the handle stays
// dead — no hidden restarts, no degrade.
TEST(RecoveryTest, UnsupervisedBundleIsNotRestarted) {
  const std::map<std::string, std::string> config = {
      {"strategy", "process_control"}};
  Sandbox box(config);
  ArmedPlan plan("seed=1;sentinel.dispatch.op=kill@n1");

  auto handle = box.api.OpenFile("file.af", vfs::OpenMode::kReadWrite);
  ASSERT_OK(handle.status());
  Buffer buf(4);
  EXPECT_FALSE(box.api.ReadFile(*handle, MutableByteSpan(buf)).ok());
  (void)box.api.CloseHandle(*handle);

  EXPECT_EQ(box.supervision.restarts(), 0u);
  EXPECT_EQ(box.supervision.degrades(), 0u);
}

// ---- client-cache leases across supervised restarts -------------------------
//
// The cache=write lease couples the client block cache to the supervisor
// (docs/CACHING.md): dirty write-behind blocks flush through the
// supervised handle, whose replayed file pointer puts a retried write back
// where it was, so a kill with unflushed blocks ends byte-identical; and a
// lease that
// expires during the restart is revoked, so the first read afterwards
// re-validates instead of serving the dead incarnation's blocks.

// One sandboxed manager + one supervised, cached, remote-backed bundle.
struct CachedSandbox {
  explicit CachedSandbox(const std::string& cache_mode,
                         const std::string& lease_ms)
      : upstream(tmp.path(), test::FakeUpstreamServer::Protocol::kFile),
        api(tmp.path() + "/root") {
    EXPECT_OK(upstream.Start());
    EXPECT_OK(upstream.Mutate("file.txt", std::string("0123456789abcdef")));
    sentinels::RegisterBuiltinSentinels();
    core::ManagerOptions options;
    options.resolver = &resolver;
    manager = std::make_unique<core::ActiveFileManager>(
        api, sentinel::SentinelRegistry::Global(), std::move(options));
    manager->Install();
    SentinelSpec spec;
    spec.name = "remote";
    spec.config["url"] = upstream.url();
    spec.config["file"] = "file.txt";
    spec.config["cache"] = cache_mode;
    spec.config["lease_ms"] = lease_ms;
    spec.config["strategy"] = "process_control";
    spec.config["supervise"] = "1";
    spec.config["restart_backoff_ms"] = "1";
    EXPECT_OK(manager->CreateActiveFile("file.af", spec));
  }

  SupervisionCounters supervision;
  TempDir tmp;
  test::FakeUpstreamServer upstream;
  core::SocketResolver resolver;
  vfs::FileApi api;
  std::unique_ptr<core::ActiveFileManager> manager;
};

// Kill the sentinel while the client still holds unflushed write-behind
// blocks.  The flush drives those blocks through the supervised handle,
// the kill lands mid-flush, and the supervisor must replay the file
// pointer and retry the write on the restarted incarnation — the upstream
// ends byte-identical to the no-fault run.
TEST(CacheRecoveryTest, KillWithUnflushedWriteBehindReplaysByteIdentical) {
  auto run = [](bool faulted) {
    CachedSandbox box("write", "5000");
    // Forked sentinels inherit the fault plan at fork time, so it must be
    // armed before the open.  The child's dispatch ops are exactly: block
    // fetch for the priming read (ops 1-2: data + the EOF probe), then the
    // flush's seek (3) and dirty-block write (4) — @n4 kills the child with
    // the write-behind block in flight.  The restarted incarnation sees only
    // the write retry and the trailing flush (position is already zero, so
    // the replay needs no seek), which never reaches op 4 again.
    std::unique_ptr<ArmedPlan> plan;
    if (faulted) {
      plan = std::make_unique<ArmedPlan>(
          "seed=1;sentinel.dispatch.op=kill@n4");
    }
    auto handle = box.api.OpenFile("file.af", vfs::OpenMode::kReadWrite);
    EXPECT_OK(handle.status());

    // Prime the lease, then buffer a dirty block client-side.
    Buffer buf(4);
    EXPECT_OK(box.api.ReadFile(*handle, MutableByteSpan(buf)).status());
    EXPECT_OK(box.api.SetFilePointer(*handle, 4, vfs::SeekOrigin::kBegin)
                  .status());
    EXPECT_OK(box.api.WriteFile(*handle, AsBytes("WXYZ")).status());

    // The flush crosses with the dirty block; under the plan the child
    // dies holding it, and the supervisor must replay.
    EXPECT_OK(box.api.FlushFileBuffers(*handle));
    plan.reset();
    EXPECT_OK(box.api.CloseHandle(*handle));

    auto upstream_side = box.upstream.store().Get("file.txt");
    EXPECT_TRUE(upstream_side.ok()) << upstream_side.status().ToString();
    const std::string bytes =
        upstream_side.ok() ? ToString(ByteSpan(*upstream_side))
                           : std::string();
    if (faulted) {
      EXPECT_GE(box.supervision.restarts(), 1u);
    }
    return bytes;
  };

  const std::string clean = run(false);
  EXPECT_EQ(clean, "0123WXYZ89abcdef");
  EXPECT_EQ(run(true), clean);
}

// The lease dies with the sentinel: when a kill forces a supervised
// restart, the supervisor revokes the client's lease, so the first read
// against the restarted incarnation re-validates against the upstream
// (which changed while the old incarnation was dying) instead of serving
// the dead epoch's cached blocks.
TEST(CacheRecoveryTest, LeaseExpiryDuringSupervisedRestartRevalidates) {
  CachedSandbox box("read", "60000");  // a lease that outlives the test
  // The forked child inherits the plan at open, so the kill is positioned by
  // trigger count: the priming read costs two dispatch ops (data + EOF
  // probe), six size probes pad the count to eight, and @n9 lands on the
  // size call issued after the upstream mutates.  The restarted incarnation
  // replays the file pointer, retries the size, and serves the first
  // revalidating read — at most six ops, so the kill cannot re-fire.
  ArmedPlan plan("seed=1;sentinel.dispatch.op=kill@n9");
  auto handle = box.api.OpenFile("file.af", vfs::OpenMode::kRead);
  ASSERT_OK(handle.status());

  // Prime the client cache under the long lease.
  Buffer buf(16);
  ASSERT_OK(box.api.ReadFile(*handle, MutableByteSpan(buf)).status());
  EXPECT_EQ(ToString(ByteSpan(buf)), "0123456789abcdef");
  for (int i = 0; i < 6; ++i) {
    ASSERT_OK(box.api.GetFileSize(*handle).status());
  }

  // The upstream moves, then the sentinel dies before it can recall.
  ASSERT_OK(box.upstream.Mutate("file.txt", std::string("FRESH-CONTENT-XY")));
  // This crossing lands the kill; the supervisor restarts and revokes.
  (void)box.api.GetFileSize(*handle);

  // Post-restart the revoked lease must force a re-fetch: the read sees
  // the new upstream content, never the pre-crash blocks.
  ASSERT_TRUE(test::PollUntil([&] {
    Buffer again(16);
    if (!box.api.SetFilePointer(*handle, 0, vfs::SeekOrigin::kBegin).ok()) {
      return false;
    }
    auto n = box.api.ReadFile(*handle, MutableByteSpan(again));
    return n.ok() && ToString(ByteSpan(again)) == "FRESH-CONTENT-XY";
  }));

  ASSERT_OK(box.api.CloseHandle(*handle));
  EXPECT_GE(box.supervision.restarts(), 1u);
}

// ---- crash-safe registry save ----------------------------------------------

reg::Registry& BuildHive(reg::Registry& registry, const std::string& mode) {
  EXPECT_OK(registry.CreateKey("app"));
  EXPECT_OK(registry.SetValue("app", "mode", reg::Value(mode)));
  return registry;
}

std::string HiveMode(const std::string& path) {
  reg::Registry loaded;
  const Status status = loaded.LoadFromFile(path);
  if (!status.ok()) return "<unreadable:" + status.ToString() + ">";
  auto mode = loaded.GetValue("app", "mode");
  if (!mode.ok()) return "<missing>";
  return std::get<std::string>(*mode);
}

// An injected error between the staged write and the publishing rename
// must leave the previous hive byte-for-byte intact and no temp litter.
TEST(RegistrySaveTest, PartialSaveFaultLeavesOldHiveIntact) {
  TempDir tmp;
  const std::string hive = tmp.path() + "/hive.reg";

  reg::Registry v1;
  ASSERT_OK(BuildHive(v1, "one").SaveToFile(hive));
  ASSERT_EQ(HiveMode(hive), "one");

  reg::Registry v2;
  BuildHive(v2, "two");
  {
    ArmedPlan plan("seed=1;registry.save.partial=error:io@n1");
    EXPECT_STATUS_CODE(v2.SaveToFile(hive), ErrorCode::kIoError);
  }
  EXPECT_EQ(HiveMode(hive), "one");
  // The aborted save cleaned up its staging file.
  std::size_t residue = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(tmp.path())) {
    if (entry.path().filename() != "hive.reg") ++residue;
  }
  EXPECT_EQ(residue, 0u);

  // And with the fault gone, the very same save works.
  ASSERT_OK(v2.SaveToFile(hive));
  EXPECT_EQ(HiveMode(hive), "two");
}

// The real crash case: a process killed mid-save (after the staged bytes,
// before the rename) must leave the old hive untouched — the atomic
// rename(2) is the commit point.
TEST(RegistrySaveTest, KilledSaverLeavesOldHiveIntact) {
  TempDir tmp;
  const std::string hive = tmp.path() + "/hive.reg";

  reg::Registry v1;
  ASSERT_OK(BuildHive(v1, "one").SaveToFile(hive));

  {
    ArmedPlan plan("seed=1;registry.save.partial=kill@n1");
    auto child = ipc::SpawnFunction([&hive] {
      reg::Registry v2;
      BuildHive(v2, "two");
      (void)v2.SaveToFile(hive);  // dies inside, staged but unpublished
      return 0;
    });
    ASSERT_OK(child.status());
    auto ended = child->Wait();
    ASSERT_OK(ended.status());
    EXPECT_NE(*ended, 0);  // the kill fault terminated it
  }
  EXPECT_EQ(HiveMode(hive), "one");
}

// ---- child teardown hardening ----------------------------------------------

// A sentinel that ignores SIGTERM and never exits must still come down:
// grace wait -> SIGTERM -> grace -> SIGKILL, reaped, bounded.
TEST(TeardownTest, ShutdownEscalatesToSigkillForWedgedChild) {
  auto child = ipc::SpawnFunction([] {
    std::signal(SIGTERM, SIG_IGN);
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(10));
    return 0;
  });
  ASSERT_OK(child.status());

  const auto before = std::chrono::steady_clock::now();
  const ipc::ExitStatus ended = child->Shutdown(Micros{50'000});
  const auto elapsed = std::chrono::steady_clock::now() - before;

  EXPECT_EQ(ended.signal, SIGKILL);
  EXPECT_FALSE(ended.clean());
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5000);
}

// A child that exits on its own within the grace window must be reported
// clean — no gratuitous TERM for well-behaved sentinels.
TEST(TeardownTest, ShutdownReportsVoluntaryExitClean) {
  auto child = ipc::SpawnFunction([] { return 0; });
  ASSERT_OK(child.status());
  const ipc::ExitStatus ended = child->Shutdown(Micros{500'000});
  EXPECT_TRUE(ended.clean()) << "code=" << ended.code
                             << " signal=" << ended.signal;
}

}  // namespace
}  // namespace afs
