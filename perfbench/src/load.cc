#include "load.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <thread>
#include <unordered_map>

#include "util/clock.h"
#include "util/hash.h"

namespace perfbench {

using psmr::smr::ClientProxy;
using psmr::util::now_us;

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

namespace {

constexpr std::size_t kMaxErrors = 5;

struct Inflight {
  Op op;
  std::int64_t due_us = 0;
  std::int64_t root = -1;  // sampled command's root span
  bool slot_released = false;
};

/// One load thread's loop over its LoadClient.
class Runner {
 public:
  Runner(LoadClient& client, const PhaseConfig& cfg, std::size_t thread)
      : c_(client),
        cfg_(cfg),
        rng_(cfg.seed ^ psmr::util::mix64(thread + 1)),
        traced_(Tracer::get().on()) {
    if (cfg.rate_cps > 0) gap_mean_us_ = 1e6 / cfg.rate_cps;
    if (cfg.bucket_us > 0 && cfg.until_us > cfg.from_us) {
      r_.buckets.assign(static_cast<std::size_t>((cfg.until_us - cfg.from_us) /
                                                 cfg.bucket_us),
                        0);
    }
    if (traced_) {
      buf_ = Tracer::get().thread_buffer("load" + std::to_string(thread));
      root_name_ = Tracer::get().intern(cfg.trace_prefix + ".command");
      submit_name_ = Tracer::get().intern(cfg.trace_prefix + ".submit");
      poll_name_ = Tracer::get().intern(cfg.trace_prefix + ".poll");
    }
  }

  PhaseResult run() {
    const std::int64_t t0 = perfbench::now_ns();
    while (now_us() < cfg_.start_us) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    std::int64_t next_due = cfg_.start_us + gap();
    while (true) {
      const std::int64_t now = now_us();
      if (now >= cfg_.until_us) break;
      if (gap_mean_us_ > 0) {
        if (now >= next_due) {
          submit(next_due, now);
          next_due += gap();
          continue;
        }
        poll(std::min<std::int64_t>(next_due - now, 1000));
      } else {
        if (inflight_ - released_ < cfg_.window) {
          submit(now, now);
          continue;
        }
        poll(1000);
      }
      expire(now_us());
    }
    // Drain: every command is answered or expires.
    while (inflight_ > 0) {
      poll(1000);
      expire(now_us());
    }
    r_.thread_ns = static_cast<double>(perfbench::now_ns() - t0);
    return std::move(r_);
  }

 private:
  std::int64_t gap() {
    if (gap_mean_us_ <= 0) return 0;
    const double u = rng_.next_double();
    return static_cast<std::int64_t>(-std::log1p(-u) * gap_mean_us_);
  }

  void submit(std::int64_t due, std::int64_t now) {
    Op op = c_.model->next();
    ClientProxy& proxy = *c_.proxy;
    const bool sampled = traced_ && (r_.attempted % cfg_.trace_every) == 0;
    std::int64_t root = -1;
    if (sampled) {
      root = buf_->open(root_name_, due * 1000, -1,
                        (static_cast<std::uint64_t>(proxy.id()) << 40) |
                            r_.attempted);
    }
    ++r_.attempted;
    std::int64_t t0 = 0;
    if (traced_) t0 = perfbench::now_ns();
    // The checks need only the op's key and expectations, not its params.
    auto seq = proxy.submit(op.cmd, std::move(op.params));
    if (traced_) {
      const std::int64_t t1 = perfbench::now_ns();
      r_.submit_ns += static_cast<double>(t1 - t0);
      ++r_.submits;
      if (sampled) buf_->add(submit_name_, t0, t1, root);
    }
    if (in_window(now) && gap_mean_us_ > 0) {
      r_.lateness_us.push_back(static_cast<double>(now - due));
    }
    if (!seq) {
      ++r_.failed;
      c_.model->settle(op, true);
      if (sampled) buf_->close(root, perfbench::now_ns());
      return;
    }
    table_.emplace(*seq, Inflight{std::move(op), due, root});
    order_.push_back({*seq, now});
    ++inflight_;
  }

  [[nodiscard]] bool in_window(std::int64_t t) const {
    return t >= cfg_.from_us && t < cfg_.until_us;
  }

  /// Waits up to `timeout_us` for one completion.
  void poll(std::int64_t timeout_us) {
    std::int64_t t0 = 0;
    if (traced_) t0 = perfbench::now_ns();
    auto done = c_.proxy->poll(std::chrono::microseconds(timeout_us));
    std::int64_t t1 = 0;
    if (traced_) {
      t1 = perfbench::now_ns();
      r_.poll_ns += static_cast<double>(t1 - t0);
    }
    if (!done) return;
    const std::int64_t now_exact = perfbench::now_ns();
    const std::int64_t now = now_exact / 1000;
    auto it = table_.find(done->seq);
    if (it == table_.end()) {
      ++r_.late;  // answered after its deadline already failed it
      return;
    }
    Inflight& f = it->second;
    if (f.root >= 0) {
      buf_->add(poll_name_, t0, t1, f.root);
      buf_->close(f.root, perfbench::now_ns());
    }
    if (done->rejected) {
      ++r_.failed;
      c_.model->settle(f.op, true);
    } else {
      ++r_.answered;
      std::string err = c_.model->check(f.op, done->payload);
      if (!err.empty() && r_.errors.size() < kMaxErrors) {
        r_.errors.push_back(std::move(err));
      }
      if (in_window(now)) {
        const auto b =
            static_cast<std::size_t>((now - cfg_.from_us) / cfg_.bucket_us);
        r_.latency_us.push_back(
            static_cast<double>(now_exact - f.due_us * 1000) / 1e3);
        r_.latency_window.push_back(static_cast<std::uint32_t>(b));
        if (b < r_.buckets.size()) ++r_.buckets[b];
      }
      c_.model->settle(f.op, false);
    }
    remove(it);
  }

  void remove(std::unordered_map<psmr::smr::Seq, Inflight>::iterator it) {
    if (it->second.slot_released) --released_;
    table_.erase(it);
    --inflight_;
  }

  /// Fails every command whose deadline passed, and releases the window
  /// slot of every command older than kSlotUs.
  void expire(std::int64_t now) {
    while (!order_.empty()) {
      const Pending& o = order_.front();
      auto it = table_.find(o.seq);
      if (it != table_.end()) {
        if (now < o.submit_us + kDeadlineUs) break;
        ++r_.failed;
        c_.model->settle(it->second.op, true);
        if (it->second.root >= 0) buf_->close(it->second.root, now * 1000);
        remove(it);
      }
      order_.pop_front();
      if (young_ > 0) --young_;
    }
    for (; young_ < order_.size(); ++young_) {
      const Pending& o = order_[young_];
      if (now < o.submit_us + kSlotUs) break;
      auto it = table_.find(o.seq);
      if (it != table_.end()) {
        it->second.slot_released = true;
        ++released_;
      }
    }
  }

  struct Pending {
    psmr::smr::Seq seq;
    std::int64_t submit_us;
  };

  LoadClient& c_;
  const PhaseConfig& cfg_;
  psmr::util::SplitMix64 rng_;
  const bool traced_;
  double gap_mean_us_ = 0;
  std::unordered_map<psmr::smr::Seq, Inflight> table_;
  std::deque<Pending> order_;  // submit order
  /// order_[young_..] are younger than kSlotUs.
  std::size_t young_ = 0;
  std::size_t inflight_ = 0;
  std::size_t released_ = 0;  // in flight, slot released
  PhaseResult r_;
  Tracer::Buffer* buf_ = nullptr;
  const char* root_name_ = "";
  const char* submit_name_ = "";
  const char* poll_name_ = "";
};

}  // namespace

PhaseResult run_phase(std::vector<LoadClient>& clients,
                      const PhaseConfig& cfg) {
  PhaseConfig per_thread = cfg;
  per_thread.rate_cps = cfg.rate_cps / static_cast<double>(clients.size());
  std::vector<PhaseResult> results(clients.size());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < clients.size(); ++t) {
    clients[t].model->reseed(cfg.seed ^ psmr::util::mix64(0x100 + t));
    threads.emplace_back([&, t] {
      Runner runner(clients[t], per_thread, t);
      results[t] = runner.run();
    });
  }
  for (auto& th : threads) th.join();

  PhaseResult out;
  for (auto& r : results) {
    out.attempted += r.attempted;
    out.answered += r.answered;
    out.failed += r.failed;
    out.late += r.late;
    for (auto& e : r.errors) {
      if (out.errors.size() < kMaxErrors) out.errors.push_back(std::move(e));
    }
    out.buckets.resize(std::max(out.buckets.size(), r.buckets.size()), 0);
    for (std::size_t b = 0; b < r.buckets.size(); ++b) {
      out.buckets[b] += r.buckets[b];
    }
    out.latency_us.insert(out.latency_us.end(), r.latency_us.begin(),
                          r.latency_us.end());
    out.latency_window.insert(out.latency_window.end(),
                              r.latency_window.begin(),
                              r.latency_window.end());
    out.lateness_us.insert(out.lateness_us.end(), r.lateness_us.begin(),
                           r.lateness_us.end());
    out.submit_ns += r.submit_ns;
    out.submits += r.submits;
    out.poll_ns += r.poll_ns;
    out.thread_ns += r.thread_ns;
  }
  return out;
}

}  // namespace perfbench
