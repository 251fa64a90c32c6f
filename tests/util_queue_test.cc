#include "util/queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

namespace psmr::util {
namespace {

TEST(BlockingQueue, FifoSingleThread) {
  BlockingQueue<int> q;
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(q.push(i));
  for (int i = 0; i < 10; ++i) {
    auto v = q.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(BlockingQueue, TryPopEmpty) {
  BlockingQueue<int> q;
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(BlockingQueue, CloseDrainsThenEnds) {
  BlockingQueue<int> q;
  q.push(1);
  q.push(2);
  q.close();
  EXPECT_FALSE(q.push(3));  // rejected after close
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value());  // drained + closed
}

TEST(BlockingQueue, PopForTimesOut) {
  BlockingQueue<int> q;
  auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.pop_for(std::chrono::milliseconds(20)).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(15));
}

TEST(BlockingQueue, PopUnblocksOnClose) {
  BlockingQueue<int> q;
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.close();
  });
  EXPECT_FALSE(q.pop().has_value());
  closer.join();
}

TEST(BlockingQueue, BoundedBlocksProducer) {
  BlockingQueue<int> q(2);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_FALSE(q.try_push(3));  // full
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    q.push(3);  // blocks until a pop frees space
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(q.pop().value(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
}

TEST(BlockingQueue, MpmcAllItemsDeliveredExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 2000;
  BlockingQueue<int> q;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) q.push(p * kPerProducer + i);
    });
  }
  std::mutex mu;
  std::set<int> seen;
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (auto v = q.pop()) {
        std::lock_guard lock(mu);
        EXPECT_TRUE(seen.insert(*v).second) << "duplicate " << *v;
      }
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kProducers * kPerProducer));
}

TEST(BlockingQueue, ClosedIsVisibleToPollingProducers) {
  // Producers poll closed() (lock-free) on every item, as ClientProxy does
  // on every submit, while a consumer drains and the main thread closes.
  // Every producer must see the close and stop, and no push may succeed
  // after it.
  BlockingQueue<int> q;
  std::atomic<int> pushed{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&] {
      while (!q.closed()) {
        if (q.try_push(1)) ++pushed;
      }
      EXPECT_FALSE(q.try_push(1));
    });
  }
  int popped = 0;
  std::thread consumer([&] {
    while (auto v = q.pop()) popped += *v;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  q.close();
  EXPECT_TRUE(q.closed());
  for (auto& t : producers) t.join();
  consumer.join();
  EXPECT_EQ(popped, pushed.load());
}

}  // namespace
}  // namespace psmr::util
