#include "transport/network.h"

#include <bit>

#include "util/clock.h"

namespace psmr::transport {

namespace {

/// Segment index and offset of `id` in the node table (see Network::find).
struct SlotPos {
  std::size_t segment;
  std::size_t offset;
};

SlotPos slot_pos(NodeId id, std::size_t first) {
  const std::size_t v = id / first + 1;
  const std::size_t s = static_cast<std::size_t>(std::bit_width(v)) - 1;
  return {s, id - first * ((std::size_t{1} << s) - 1)};
}

}  // namespace

Network::Network() : pacer_([this] { pacer_loop(); }) {}

Network::~Network() {
  shutdown();
  {
    std::lock_guard lock(delay_mu_);
    shutdown_ = true;
    delay_cv_.notify_all();
  }
  if (pacer_.joinable()) pacer_.join();
  for (std::size_t s = 0; s < kSegments; ++s) {
    Slot* seg = segments_[s].load(std::memory_order_relaxed);
    if (seg == nullptr) continue;
    for (std::size_t i = 0; i < (kFirstSegment << s); ++i) {
      delete seg[i].load(std::memory_order_relaxed);
    }
    delete[] seg;
  }
}

Network::Node* Network::find(NodeId id) const {
  const SlotPos pos = slot_pos(id, kFirstSegment);
  if (pos.segment >= kSegments) return nullptr;
  Slot* seg = segments_[pos.segment].load(std::memory_order_acquire);
  return seg == nullptr ? nullptr
                        : seg[pos.offset].load(std::memory_order_acquire);
}

std::pair<NodeId, std::shared_ptr<Mailbox>> Network::register_node() {
  std::lock_guard lock(register_mu_);
  NodeId id = next_id_++;
  const SlotPos pos = slot_pos(id, kFirstSegment);
  Slot* seg = segments_[pos.segment].load(std::memory_order_relaxed);
  if (seg == nullptr) {
    seg = new Slot[kFirstSegment << pos.segment]();
    segments_[pos.segment].store(seg, std::memory_order_release);
  }
  auto* node = new Node;
  node->mailbox = std::make_shared<Mailbox>();
  seg[pos.offset].store(node, std::memory_order_release);
  return {id, node->mailbox};
}

bool Network::send(Message msg) {
  if (shutdown_) return false;
  for (NodeId end : {msg.from, msg.to}) {
    const Node* node = find(end);
    if (node != nullptr &&
        node->disconnected.load(std::memory_order_acquire)) {
      return false;
    }
  }
  double drop_p = drop_probability_.load(std::memory_order_relaxed);
  if (drop_p > 0.0) {
    std::lock_guard lock(drop_rng_mu_);
    if (drop_rng_.chance(drop_p)) {
      messages_dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  messages_sent_.fetch_add(1, std::memory_order_relaxed);
  bytes_sent_.fetch_add(msg.payload.size(), std::memory_order_relaxed);

  std::int64_t delay = delay_us_.load(std::memory_order_relaxed);
  if (delay <= 0) return deliver(std::move(msg));

  std::lock_guard lock(delay_mu_);
  delayed_.push(Delayed{util::now_us() + delay, delay_seq_++, std::move(msg)});
  delay_cv_.notify_one();
  return true;
}

bool Network::send(NodeId from, NodeId to, std::uint16_t type,
                   util::Payload payload) {
  return send(Message{from, to, type, std::move(payload)});
}

bool Network::deliver(Message&& msg) {
  Node* node = find(msg.to);
  if (node == nullptr) return false;
  // Announce the delivery before checking the flag; disconnect() sets the
  // flag before waiting for announced deliveries (both seq_cst), so either
  // this check sees the flag or disconnect() waits for the push below.
  node->delivering.fetch_add(1);
  bool pushed = false;
  if (!node->disconnected.load()) pushed = node->mailbox->push(std::move(msg));
  node->delivering.fetch_sub(1, std::memory_order_release);
  return pushed;
}

void Network::disconnect(NodeId id) {
  Node* node = find(id);
  if (node == nullptr) return;
  node->disconnected.store(true);
  while (node->delivering.load() != 0) std::this_thread::yield();
}

void Network::reconnect(NodeId id) {
  if (Node* node = find(id)) {
    node->disconnected.store(false, std::memory_order_release);
  }
}

bool Network::connected(NodeId id) const {
  const Node* node = find(id);
  return node == nullptr || !node->disconnected.load(std::memory_order_acquire);
}

void Network::set_drop_probability(double p) { drop_probability_ = p; }

void Network::set_delay_us(std::int64_t delay_us) { delay_us_ = delay_us; }

NetworkStats Network::stats() const {
  return NetworkStats{messages_sent_.load(), messages_dropped_.load(),
                      bytes_sent_.load()};
}

void Network::shutdown() {
  {
    std::lock_guard lock(register_mu_);
    if (shutdown_.exchange(true)) return;
    for (NodeId id = 1; id < next_id_; ++id) find(id)->mailbox->close();
  }
  delay_cv_.notify_all();
}

void Network::pacer_loop() {
  std::unique_lock lock(delay_mu_);
  while (!shutdown_) {
    if (delayed_.empty()) {
      delay_cv_.wait(lock, [&] { return shutdown_ || !delayed_.empty(); });
      continue;
    }
    std::int64_t now = util::now_us();
    const Delayed& head = delayed_.top();
    if (head.release_at_us <= now) {
      Message msg = std::move(const_cast<Delayed&>(head).msg);
      delayed_.pop();
      lock.unlock();
      deliver(std::move(msg));
      lock.lock();
    } else {
      delay_cv_.wait_for(
          lock, std::chrono::microseconds(head.release_at_us - now));
    }
  }
}

}  // namespace psmr::transport
