// Overload-protection lane (docs/OVERLOAD.md): bounded admission and typed
// shed with retry-after hints across the stack — the AdmissionGate in
// isolation, the admit_* spec keys on real strategies, the loop host's
// shard budgets under 2x saturation, and the HTTP server's 503 +
// Retry-After shed path.
//
// Ordering note: the shard-budget saturation fixture is defined FIRST in
// this file because it must set AFS_LOOP_MAX_QUEUE_BYTES before anything
// instantiates the process-wide loop host (gtest runs suites in
// definition order).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "afs.hpp"
#include "common/faultpoint.hpp"
#include "core/overload.hpp"
#include "net/http_server.hpp"
#include "test_util.hpp"

namespace afs {
namespace {

using core::AdmissionGate;
using core::OverloadPolicy;
using sentinel::SentinelSpec;
using test::TempDir;

// ---- shard budgets under 2x saturation (must run first; see header) -------

TEST(LoopSaturationTest, ShardBudgetShedsUnderSaturationAndDrainsToZero) {
  // A shard byte budget of 1 admits any op into an EMPTY gate (oversized
  // ops are never unservable) but sheds every op that finds another one
  // resident — so hammering many sessions concurrently MUST shed, and
  // every shed must carry kOverloaded, never a hang or a poisoned handle.
  ASSERT_EQ(::setenv("AFS_LOOP_MAX_QUEUE_BYTES", "1", 1), 0);

  TempDir tmp;
  vfs::FileApi api(tmp.path() + "/root");
  sentinels::RegisterBuiltinSentinels();
  core::ActiveFileManager manager(api, sentinel::SentinelRegistry::Global());
  manager.Install();

  SentinelSpec spec;
  spec.name = "null";
  spec.config["strategy"] = "loop";
  ASSERT_OK(manager.CreateActiveFile("sat.af", spec,
                                     AsBytes("0123456789abcdef")));

  obs::Counter& shed_counter =
      obs::Registry::Global().GetCounter("core.overload.shed");
  obs::Gauge& queue_bytes =
      obs::Registry::Global().GetGauge("core.overload.queue_bytes");
  const std::uint64_t shed_before = shed_counter.Value();

  // 2x saturation: twice as many concurrent sessions as a budget of
  // "one resident op per shard" can ever serve simultaneously.
  constexpr int kThreads = 16;
  constexpr int kOpsPerThread = 200;
  std::atomic<std::uint64_t> ok_ops{0};
  std::atomic<std::uint64_t> shed_ops{0};
  std::atomic<std::uint64_t> other_ops{0};
  // Open the sessions sequentially (a lone op always fits an empty gate),
  // then saturate them concurrently.
  std::vector<vfs::HandleId> handles;
  for (int t = 0; t < kThreads; ++t) {
    auto handle = api.OpenFile("sat.af", vfs::OpenMode::kReadWrite);
    ASSERT_OK(handle.status());
    handles.push_back(*handle);
  }
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Buffer out(4);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const Status status =
            api.ReadFile(handles[t], MutableByteSpan(out)).status();
        if (status.ok()) {
          ok_ops.fetch_add(1);
        } else if (status.code() == ErrorCode::kOverloaded) {
          shed_ops.fetch_add(1);
          // Every shed advertises when to come back.
          EXPECT_GT(RetryAfterHintMs(status), 0) << status.ToString();
        } else {
          other_ops.fetch_add(1);
          ADD_FAILURE() << "unexpected op failure: " << status.ToString();
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  for (vfs::HandleId handle : handles) EXPECT_OK(api.CloseHandle(handle));

  // Saturation was handled, not queued: work was admitted, work was shed,
  // and nothing failed with a non-overload code.
  EXPECT_GT(ok_ops.load(), 0u);
  EXPECT_GT(shed_counter.Value(), shed_before);
  EXPECT_EQ(other_ops.load(), 0u);
  EXPECT_EQ(ok_ops.load() + shed_ops.load(),
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  // Admission accounting drains to zero once the storm passes: the
  // core.overload.queue_bytes gauge is exactly admitted-minus-released.
  EXPECT_EQ(queue_bytes.Value(), 0);
  EXPECT_EQ(api.open_handle_count(), 0u);
  ASSERT_EQ(::unsetenv("AFS_LOOP_MAX_QUEUE_BYTES"), 0);
}

// ---- AdmissionGate in isolation --------------------------------------------

TEST(AdmissionGateTest, QueueByteCapShedsButNeverStrandsAnOversizedOp) {
  AdmissionGate gate({.max_queue_bytes = 100});
  // An op larger than the whole budget admits into an empty gate —
  // otherwise it could never run at all.
  ASSERT_OK(gate.Admit(500));
  EXPECT_EQ(gate.queue_bytes(), 500u);
  // But nothing else fits while it is resident.
  EXPECT_STATUS_CODE(gate.Admit(1), ErrorCode::kOverloaded);
  gate.Release(500);
  ASSERT_OK(gate.Admit(60));
  EXPECT_STATUS_CODE(gate.Admit(60), ErrorCode::kOverloaded);  // 120 > 100
  gate.Release(60);
  EXPECT_EQ(gate.queue_bytes(), 0u);
}

TEST(AdmissionGateTest, RateLimitShedsWithRetryHintAndWithoutDebiting) {
  AdmissionGate gate({.rate_bytes_per_second = 1000, .burst_bytes = 128});
  ASSERT_OK(gate.Admit(100));  // burst absorbs it
  const Status shed = gate.Admit(100);
  EXPECT_STATUS_CODE(shed, ErrorCode::kOverloaded);
  // 100 bytes at 1000 B/s is ~100ms away; the hint says so (>= 1ms).
  EXPECT_GE(RetryAfterHintMs(shed), 1);
  gate.Release(100);
}

TEST(AdmissionGateTest, AdmitForBlocksUntilCapacityFrees) {
  AdmissionGate gate({.max_queue_bytes = 8});
  ASSERT_OK(gate.Admit(8));
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    gate.Release(8);
  });
  // kBlock semantics: the waiter rides out the occupancy instead of
  // shedding, bounded by its deadline.
  EXPECT_OK(gate.AdmitFor(8, Micros{5'000'000}));
  releaser.join();
  gate.Release(8);
  EXPECT_EQ(gate.queue_bytes(), 0u);
}

TEST(AdmissionGateTest, AdmitForShedsWhenTheDeadlineExpires) {
  AdmissionGate gate({.max_queue_bytes = 8});
  ASSERT_OK(gate.Admit(8));
  const Status shed = gate.AdmitFor(8, Micros{20'000});
  EXPECT_STATUS_CODE(shed, ErrorCode::kOverloaded);
  EXPECT_GT(RetryAfterHintMs(shed), 0);
  gate.Release(8);
}

TEST(AdmitWithPolicyTest, PoliciesShapeTheWait) {
  AdmissionGate gate({.max_queue_bytes = 8});
  ASSERT_OK(gate.Admit(8));
  // kShed fails immediately; kBrownout sheds after its short grace.
  EXPECT_STATUS_CODE(
      core::AdmitWithPolicy(gate, 8, OverloadPolicy::kShed, Micros{0}),
      ErrorCode::kOverloaded);
  EXPECT_STATUS_CODE(
      core::AdmitWithPolicy(gate, 8, OverloadPolicy::kBrownout, Micros{0}),
      ErrorCode::kOverloaded);
  // kBlock waits out the occupancy (released from another thread).
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    gate.Release(8);
  });
  EXPECT_OK(core::AdmitWithPolicy(gate, 8, OverloadPolicy::kBlock,
                                  Micros{5'000'000}));
  releaser.join();
  gate.Release(8);
}

// ---- spec plumbing ---------------------------------------------------------

TEST(OverloadSpecTest, PolicyNamesRoundTrip) {
  for (auto policy : {OverloadPolicy::kShed, OverloadPolicy::kBrownout,
                      OverloadPolicy::kBlock}) {
    auto parsed =
        core::ParseOverloadPolicy(core::OverloadPolicyName(policy));
    ASSERT_OK(parsed.status());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(core::ParseOverloadPolicy("panic").ok());
}

TEST(OverloadSpecTest, SpecKeysParseIntoLimits) {
  std::map<std::string, std::string> config;
  config["admit_bps"] = "1000000";
  config["admit_burst"] = "8192";
  config["overload"] = "brownout";
  const AdmissionGate::Limits limits = core::AdmissionLimitsFromSpec(config);
  EXPECT_EQ(limits.rate_bytes_per_second, 1'000'000u);
  EXPECT_EQ(limits.burst_bytes, 8192u);
  EXPECT_TRUE(core::AdmissionConfigured(limits));
  EXPECT_FALSE(core::AdmissionConfigured(AdmissionGate::Limits{}));
  auto policy = core::OverloadPolicyFromSpec(config);
  ASSERT_OK(policy.status());
  EXPECT_EQ(*policy, OverloadPolicy::kBrownout);
  // No `overload` key: every command strategy sheds.
  auto fallback = core::OverloadPolicyFromSpec({});
  ASSERT_OK(fallback.status());
  EXPECT_EQ(*fallback, OverloadPolicy::kShed);
}

TEST(RetryAfterTagTest, HintSurvivesTheStatusMessage) {
  const Status status = OverloadedError("busy", 250);
  EXPECT_EQ(status.code(), ErrorCode::kOverloaded);
  EXPECT_EQ(RetryAfterHintMs(status), 250);
  EXPECT_EQ(RetryAfterHintMs(OverloadedError("no hint")), 0);
  EXPECT_EQ(RetryAfterHintMs(Status::Ok()), 0);
}

// ---- admit_* keys on real strategies ---------------------------------------

// Token-bucket admission on a link: the burst admits exactly one small op,
// so the second op in a tight loop is deterministically shed with a
// retry-after hint — and the handle keeps serving once the bucket refills
// (sheds never poison).
// `overload` null leaves the key out of the spec: admission then uses its
// default, which is shed on every strategy.
void RunRateLimitedStrategy(const char* strategy, const char* overload) {
  TempDir tmp;
  vfs::FileApi api(tmp.path() + "/root");
  sentinels::RegisterBuiltinSentinels();
  core::ActiveFileManager manager(api, sentinel::SentinelRegistry::Global());
  manager.Install();

  SentinelSpec spec;
  spec.name = "null";
  spec.config["strategy"] = strategy;
  spec.config["admit_bps"] = "1000";
  spec.config["admit_burst"] = "128";  // one ~68-byte read, not two
  if (overload != nullptr) spec.config["overload"] = overload;
  const std::string name = std::string(strategy) + "-rate.af";
  ASSERT_OK(manager.CreateActiveFile(name, spec, AsBytes("0123456789abcdef")));

  auto handle = api.OpenFile(name, vfs::OpenMode::kReadWrite);
  ASSERT_OK(handle.status());
  Buffer out(4);
  // The burst covers roughly one ~68-byte op (open-path traffic may have
  // taken a bite already), so a tight loop of reads must starve the
  // bucket within a few iterations — refill at 1 KB/s is no match.
  Status shed = Status::Ok();
  for (int i = 0; i < 50 && shed.ok(); ++i) {
    shed = api.ReadFile(*handle, MutableByteSpan(out)).status();
  }
  EXPECT_STATUS_CODE(shed, ErrorCode::kOverloaded);
  EXPECT_GE(RetryAfterHintMs(shed), 1) << shed.ToString();
  // The shed is transient by contract: once the bucket refills, the same
  // handle serves again.
  ASSERT_TRUE(test::PollUntil([&] {
    return api.ReadFile(*handle, MutableByteSpan(out)).status().ok();
  }));
  ASSERT_OK(api.CloseHandle(*handle));
  EXPECT_EQ(api.open_handle_count(), 0u);
}

TEST(StrategyAdmissionTest, ThreadLinkShedsOnRateBudget) {
  RunRateLimitedStrategy("thread", "shed");
  RunRateLimitedStrategy("thread", nullptr);
}

TEST(StrategyAdmissionTest, LoopLinkShedsOnRateBudget) {
  RunRateLimitedStrategy("loop", "shed");
  RunRateLimitedStrategy("loop", nullptr);
}

TEST(StrategyAdmissionTest, ProcessControlLinkShedsOnRateBudget) {
  RunRateLimitedStrategy("process_control", "shed");
  RunRateLimitedStrategy("process_control", nullptr);
}

// An admitted op is released exactly once, when its round trip returns —
// also when it is abandoned mid-flight.  The sentinel stalls well past the
// 50 ms op deadline, so the op fails with kTimeout and poisons the handle;
// closing that handle must leave nothing charged on any gate, and a fresh
// open of the same file must admit its first read.  The stalled op is a
// size query: it references no application buffer the late answer could
// still write into.
void RunAbandonedOpReleasesItsAdmission(const char* strategy) {
  TempDir tmp;
  vfs::FileApi api(tmp.path() + "/root");
  sentinels::RegisterBuiltinSentinels();
  core::ActiveFileManager manager(api, sentinel::SentinelRegistry::Global());
  manager.Install();

  SentinelSpec spec;
  spec.name = "null";
  spec.config["strategy"] = strategy;
  // A budget generous enough never to shed, so the link gate exists and
  // charges core.overload.queue_bytes for every op.
  spec.config["admit_bps"] = "100000000";
  spec.config["admit_burst"] = "1048576";
  spec.config["op_timeout_ms"] = "50";
  const std::string name = std::string(strategy) + "-abandon.af";
  ASSERT_OK(manager.CreateActiveFile(name, spec, AsBytes("0123456789abcdef")));

  obs::Gauge& queue_bytes =
      obs::Registry::Global().GetGauge("core.overload.queue_bytes");
  obs::Gauge& loop_sessions =
      obs::Registry::Global().GetGauge("core.loop.sessions");
  const std::int64_t bytes_before = queue_bytes.Value();
  const std::int64_t sessions_before = loop_sessions.Value();
  {
    auto plan =
        fault::ParsePlan("seed=1;sentinel.dispatch.op=delay:300ms@n1");
    ASSERT_OK(plan.status());
    fault::ScopedFaultPlan scoped(std::move(*plan));
    auto handle = api.OpenFile(name, vfs::OpenMode::kReadWrite);
    ASSERT_OK(handle.status());
    EXPECT_STATUS_CODE(api.GetFileSize(*handle).status(), ErrorCode::kTimeout);
    EXPECT_STATUS_CODE(api.GetFileSize(*handle).status(), ErrorCode::kClosed);
    (void)api.CloseHandle(*handle);
    EXPECT_EQ(queue_bytes.Value(), bytes_before);
  }
  // A loop shard is still serving the stalled op; let it wind the session
  // down so the fresh open's banner is not queued behind the stall.
  ASSERT_TRUE(test::PollUntil(
      [&] { return loop_sessions.Value() <= sessions_before; }));
  auto fresh = api.OpenFile(name, vfs::OpenMode::kReadWrite);
  ASSERT_OK(fresh.status());
  Buffer out(4);
  EXPECT_OK(api.ReadFile(*fresh, MutableByteSpan(out)).status());
  ASSERT_OK(api.CloseHandle(*fresh));
}

TEST(StrategyAdmissionTest, ThreadReleasesAnAbandonedOp) {
  RunAbandonedOpReleasesItsAdmission("thread");
}

TEST(StrategyAdmissionTest, LoopReleasesAnAbandonedOp) {
  RunAbandonedOpReleasesItsAdmission("loop");
}

TEST(StrategyAdmissionTest, ProcessControlReleasesAnAbandonedOp) {
  RunAbandonedOpReleasesItsAdmission("process_control");
}

// op_timeout_ms is one budget per op, spent by admission and the crossing
// together.  Under overload=block the second size query waits ~64 ms for
// tokens (a 64-byte burst at 1000 B/s; the first query drained it), then
// meets a 120 ms sentinel stall: 184 ms of work against a 150 ms budget
// ends in kTimeout near 150 ms, instead of succeeding because admission
// and the response wait each got a full budget.  The stalled op is a size
// query: it references no application buffer a late answer could still
// write into.
void RunOpDeadlineSpansAdmissionAndService(const char* strategy) {
  TempDir tmp;
  vfs::FileApi api(tmp.path() + "/root");
  sentinels::RegisterBuiltinSentinels();
  core::ActiveFileManager manager(api, sentinel::SentinelRegistry::Global());
  manager.Install();

  SentinelSpec spec;
  spec.name = "null";
  spec.config["strategy"] = strategy;
  spec.config["overload"] = "block";
  spec.config["admit_bps"] = "1000";
  spec.config["admit_burst"] = "64";
  spec.config["op_timeout_ms"] = "150";
  const std::string name = std::string(strategy) + "-deadline.af";
  ASSERT_OK(manager.CreateActiveFile(name, spec, AsBytes("0123456789abcdef")));

  obs::Gauge& loop_sessions =
      obs::Registry::Global().GetGauge("core.loop.sessions");
  const std::int64_t sessions_before = loop_sessions.Value();
  {
    auto plan =
        fault::ParsePlan("seed=1;sentinel.dispatch.op=delay:120ms@n2");
    ASSERT_OK(plan.status());
    fault::ScopedFaultPlan scoped(std::move(*plan));
    auto handle = api.OpenFile(name, vfs::OpenMode::kReadWrite);
    ASSERT_OK(handle.status());
    ASSERT_OK(api.GetFileSize(*handle).status());
    const auto start = std::chrono::steady_clock::now();
    EXPECT_STATUS_CODE(api.GetFileSize(*handle).status(), ErrorCode::kTimeout);
    // Twice the budget leaves room for a sanitizer build's slower clock.
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::milliseconds(300));
    (void)api.CloseHandle(*handle);
  }
  // A loop shard may still be serving the stalled op; let it wind the
  // session down before the next strategy runs.
  ASSERT_TRUE(test::PollUntil(
      [&] { return loop_sessions.Value() <= sessions_before; }));
}

TEST(StrategyAdmissionTest, OpDeadlineSpansAdmissionAndService) {
  for (const char* strategy : {"thread", "loop", "process_control"}) {
    SCOPED_TRACE(strategy);
    RunOpDeadlineSpansAdmissionAndService(strategy);
  }
}

// A bad `overload` value fails the open before any sentinel exists: no
// OnOpen runs (so no OnClose either) on the in-process command strategies,
// and process_control fails before it spawns its child.  Checked at the
// strategy layer, which the supervisor's restarts also open through, and
// end to end through OpenFile.
TEST(StrategyAdmissionTest, BadOverloadValueFailsTheOpenBeforeAnySentinel) {
  struct LifecycleProbe final : sentinel::Sentinel {
    Status OnOpen(sentinel::SentinelContext&) override {
      opens().fetch_add(1);
      return Status::Ok();
    }
    Status OnClose(sentinel::SentinelContext&) override {
      closes().fetch_add(1);
      return Status::Ok();
    }
    static std::atomic<int>& opens() {
      static std::atomic<int> count{0};
      return count;
    }
    static std::atomic<int>& closes() {
      static std::atomic<int> count{0};
      return count;
    }
  };
  TempDir tmp;
  vfs::FileApi api(tmp.path() + "/root");
  sentinels::RegisterBuiltinSentinels();
  auto& registry = sentinel::SentinelRegistry::Global();
  if (!registry.Has("overload-lifecycle-probe")) {
    ASSERT_OK(registry.Register("overload-lifecycle-probe",
                                [](const sentinel::SentinelSpec&) {
                                  return std::make_unique<LifecycleProbe>();
                                }));
  }
  core::ActiveFileManager manager(api, registry);
  manager.Install();
  obs::Gauge& loop_sessions =
      obs::Registry::Global().GetGauge("core.loop.sessions");

  for (core::Strategy strategy :
       {core::Strategy::kThread, core::Strategy::kLoop,
        core::Strategy::kProcessControl}) {
    const std::string strategy_name(core::StrategyName(strategy));
    SCOPED_TRACE(strategy_name);
    core::OpenRequest request;
    request.vfs_path = strategy_name + "-panic.af";
    request.spec.name = "overload-lifecycle-probe";
    request.spec.config["strategy"] = strategy_name;
    request.spec.config["cache"] = "none";  // no bundle path needed below
    request.spec.config["overload"] = "panic";
    ASSERT_OK(manager.CreateActiveFile(request.vfs_path, request.spec));
    const int opens_before = LifecycleProbe::opens().load();
    const int closes_before = LifecycleProbe::closes().load();
    const std::int64_t sessions_before = loop_sessions.Value();
    EXPECT_STATUS_CODE(
        core::OpenWithStrategy(strategy, registry, request).status(),
        ErrorCode::kInvalidArgument);
    EXPECT_STATUS_CODE(
        api.OpenFile(request.vfs_path, vfs::OpenMode::kReadWrite).status(),
        ErrorCode::kInvalidArgument);
    // A loop session that was started anyway runs OnOpen on its shard,
    // possibly after the open returned: let any such session wind down.
    ASSERT_TRUE(test::PollUntil(
        [&] { return loop_sessions.Value() <= sessions_before; }));
    // process_control's sentinel would run in a child, out of sight here.
    if (strategy == core::Strategy::kProcessControl) continue;
    EXPECT_EQ(LifecycleProbe::opens().load(), opens_before);
    EXPECT_EQ(LifecycleProbe::closes().load(), closes_before);
  }
  EXPECT_EQ(api.open_handle_count(), 0u);
}

TEST(StrategyAdmissionTest, BlockPolicyRidesOutTheBudgetInsteadOfShedding) {
  // Same starved token bucket, but overload=block: the op waits for the
  // refill (bounded by the op deadline) and succeeds instead of shedding.
  TempDir tmp;
  vfs::FileApi api(tmp.path() + "/root");
  sentinels::RegisterBuiltinSentinels();
  core::ActiveFileManager manager(api, sentinel::SentinelRegistry::Global());
  manager.Install();

  SentinelSpec spec;
  spec.name = "null";
  spec.config["strategy"] = "thread";
  spec.config["admit_bps"] = "2000";
  spec.config["admit_burst"] = "128";
  spec.config["overload"] = "block";
  spec.config["op_timeout_ms"] = "2000";
  ASSERT_OK(manager.CreateActiveFile("block.af", spec,
                                     AsBytes("0123456789abcdef")));

  auto handle = api.OpenFile("block.af", vfs::OpenMode::kReadWrite);
  ASSERT_OK(handle.status());
  Buffer out(4);
  // Both ops succeed: the second waits ~35ms for tokens instead of
  // failing fast.
  ASSERT_OK(api.ReadFile(*handle, MutableByteSpan(out)).status());
  EXPECT_OK(api.ReadFile(*handle, MutableByteSpan(out)).status());
  ASSERT_OK(api.CloseHandle(*handle));
}

// ---- HTTP: 503 + Retry-After ----------------------------------------------

TEST(HttpOverloadTest, ConnectionCapShedsWith503AndRetryAfter) {
  TempDir tmp;
  net::FileServer files;
  ASSERT_OK(files.Put("k", AsBytes("v")));
  const std::string path = test::UniqueSocketPath(tmp.path(), "http503");
  net::HttpServer::Options options;
  options.max_connections = 1;
  options.retry_after_ms = 2000;
  net::HttpServer server(path, files, options);
  ASSERT_OK(server.Start());

  // Occupy the single connection slot with a client that never finishes
  // its request.
  test::RawUnixClient occupier(path);
  ASSERT_GE(occupier.fd(), 0);
  ASSERT_TRUE(occupier.Send("GET /k"));  // no terminator: holds the slot
  ASSERT_TRUE(
      test::PollUntil([&] { return server.active_connections() >= 1; }));

  // The next connection is shed at accept with the full typed story:
  // HTTP 503, Retry-After in seconds, kOverloaded with the ms hint.
  net::HttpClient client(path);
  auto raw = client.Request("GET", "k");
  ASSERT_OK(raw.status());
  EXPECT_EQ(raw->status_code, 503);
  ASSERT_TRUE(raw->headers.count("retry-after"));
  EXPECT_EQ(raw->headers.at("retry-after"), "2");
  const Status shed = client.Get("k").status();
  EXPECT_STATUS_CODE(shed, ErrorCode::kOverloaded);
  EXPECT_EQ(RetryAfterHintMs(shed), 2000);

  // Free the slot: the same server admits again — brownout, not outage.
  occupier.Close();
  ASSERT_TRUE(test::PollUntil([&] {
    auto got = client.Get("k");
    return got.ok() && ToString(ByteSpan(*got)) == "v";
  }));
  server.Stop();
}

}  // namespace
}  // namespace afs
