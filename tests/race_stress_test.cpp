// Multi-threaded stress over every afs::Mutex-based component, written to
// run under ThreadSanitizer (ctest -L tsan).  Each test hammers one
// primitive from several threads; the assertions check conservation
// (nothing lost, nothing duplicated) while TSan checks the memory model.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "core/links.hpp"
#include "sentinels/notify.hpp"

namespace afs {
namespace {

TEST(RaceStressTest, ThreadRendezvousPingPong) {
  core::ThreadRendezvous rendezvous;
  constexpr int kRounds = 2000;

  std::thread sentinel([&rendezvous] {
    for (;;) {
      auto message = rendezvous.AF_GetControl();
      if (!message.ok()) return;  // shutdown
      sentinel::ControlResponse response;
      response.number = message->offset + 1;  // echo back offset+1
      if (!rendezvous.AF_SendResponse(response).ok()) return;
    }
  });

  for (int i = 0; i < kRounds; ++i) {
    sentinel::ControlMessage message;
    message.op = sentinel::ControlOp::kSeek;
    message.offset = i;
    ASSERT_TRUE(rendezvous.AF_SendControl(message).ok());
    auto response = rendezvous.AF_GetResponse();
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response->number, static_cast<std::uint64_t>(i) + 1);
  }
  rendezvous.Shutdown();
  sentinel.join();
}

TEST(RaceStressTest, NotificationHubConcurrentPublishSubscribe) {
  sentinels::NotificationHub hub;
  constexpr int kEvents = 1000;
  std::atomic<int> delivered{0};

  // Subscribers churn while publishers run: exercises the snapshot-then-
  // invoke path in Publish against Subscribe/Unsubscribe.
  std::atomic<bool> stop{false};
  std::thread churn([&hub, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto id = hub.Subscribe("churn", [](const sentinels::AccessEvent&) {});
      hub.Unsubscribe(id);
    }
  });

  const auto stable = hub.Subscribe(
      "stress", [&delivered](const sentinels::AccessEvent& event) {
        EXPECT_EQ(event.operation, "write");
        delivered.fetch_add(1, std::memory_order_relaxed);
      });

  std::vector<std::thread> publishers;
  for (int p = 0; p < 4; ++p) {
    publishers.emplace_back([&hub] {
      sentinels::AccessEvent event;
      event.path = "/stress";
      event.operation = "write";
      for (int i = 0; i < kEvents; ++i) hub.Publish("stress", event);
    });
  }
  for (auto& t : publishers) t.join();
  stop.store(true, std::memory_order_relaxed);
  churn.join();
  hub.Unsubscribe(stable);

  EXPECT_EQ(delivered.load(), 4 * kEvents);
  EXPECT_EQ(hub.PublishedCount("stress"), 4u * kEvents);
}

TEST(RaceStressTest, ManualClockSleepersWakeInOrder) {
  ManualClock clock;
  constexpr int kSleepers = 8;
  std::atomic<int> awake{0};

  std::vector<std::thread> sleepers;
  for (int s = 1; s <= kSleepers; ++s) {
    sleepers.emplace_back([&clock, &awake, s] {
      clock.SleepFor(Micros(s * 100));
      awake.fetch_add(1, std::memory_order_release);
    });
  }

  // Deadlines are relative to Now() at SleepFor time, so keep advancing in
  // small steps until every sleeper's deadline has passed.
  while (awake.load(std::memory_order_acquire) < kSleepers) {
    clock.Advance(Micros(100));
    std::this_thread::yield();
  }
  for (auto& t : sleepers) t.join();
  EXPECT_EQ(awake.load(), kSleepers);
  EXPECT_GE(clock.Now().count(), kSleepers * 100);
}

}  // namespace
}  // namespace afs
