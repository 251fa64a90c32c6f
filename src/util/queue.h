// Blocking queues used for all in-process message passing: transport
// mailboxes, scheduler→worker handoff in sP-SMR, and client response hubs.
//
// BlockingQueue is a mutex+condvar MPMC queue with close() semantics so
// consumers drain remaining items and then observe shutdown instead of
// blocking forever — the idiom every replica/worker loop in this repo uses.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace psmr::util {

/// Unbounded-by-default MPMC blocking queue with shutdown support.
///
/// A closed queue rejects further pushes but lets consumers drain what was
/// already enqueued; pop() returns std::nullopt once the queue is closed and
/// empty.  With a nonzero capacity, push() blocks while full (closed-loop
/// backpressure, mirroring the paper's bounded client windows).
template <typename T>
class BlockingQueue {
 public:
  BlockingQueue() = default;
  /// capacity == 0 means unbounded.
  explicit BlockingQueue(std::size_t capacity) : capacity_(capacity) {}

  BlockingQueue(const BlockingQueue&) = delete;
  BlockingQueue& operator=(const BlockingQueue&) = delete;

  /// Enqueues an item.  Returns false if the queue was closed.
  bool push(T item) {
    std::unique_lock lock(mu_);
    if (capacity_ != 0) {
      not_full_.wait(lock,
                     [&] { return closed_ || items_.size() < capacity_; });
    }
    if (closed_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// Enqueues without blocking.  Returns false if full or closed.
  bool try_push(T item) {
    std::lock_guard lock(mu_);
    if (closed_ || (capacity_ != 0 && items_.size() >= capacity_)) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed and drained.
  std::optional<T> pop() {
    std::unique_lock lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    return pop_locked();
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    std::lock_guard lock(mu_);
    if (items_.empty()) return std::nullopt;
    return pop_unchecked();
  }

  /// Pop with a relative timeout; std::nullopt on timeout or closed+empty.
  template <typename Rep, typename Period>
  std::optional<T> pop_for(std::chrono::duration<Rep, Period> timeout) {
    std::unique_lock lock(mu_);
    if (!not_empty_.wait_for(lock, timeout,
                             [&] { return closed_ || !items_.empty(); })) {
      return std::nullopt;
    }
    return pop_locked();
  }

  /// Closes the queue: pending and future pushes fail, consumers drain.
  void close() {
    std::lock_guard lock(mu_);
    closed_.store(true, std::memory_order_release);
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Lock-free, so producers and the consumer can poll it on every item
  /// without contending on the queue mutex.
  [[nodiscard]] bool closed() const {
    return closed_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mu_);
    return items_.size();
  }

  [[nodiscard]] bool empty() const { return size() == 0; }

 private:
  // Callers hold mu_.
  std::optional<T> pop_locked() {
    if (items_.empty()) return std::nullopt;  // closed and drained
    return pop_unchecked();
  }
  std::optional<T> pop_unchecked() {
    T item = std::move(items_.front());
    items_.pop_front();
    if (capacity_ != 0) not_full_.notify_one();
    return item;
  }

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  std::size_t capacity_ = 0;
  /// Written under mu_ (so the waits' predicates see it); atomic so that
  /// closed() can read it without the lock.
  std::atomic<bool> closed_{false};
};

}  // namespace psmr::util
