// In-memory span recorder for the traced run.
//
// A span is one timed call made by the benchmark into the program (a
// ClientProxy::submit, a Bus::multicast, a KvService::execute_batch, ...)
// or one sampled command's life from its due time to the poll that
// returned it.  Spans live in per-thread buffers while the run lasts and
// are written as JSON when it ends; each name's self time (duration minus
// the part covered by its child spans) is aggregated from them.  With
// tracing off, every call site is a branch on a flag and nothing else.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>
#include <chrono>
#include <memory>
#include <type_traits>

namespace perfbench {

/// Monotonic nanoseconds (span timestamps).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Index of the parent span in the same thread buffer, or -1.
  std::int64_t parent = -1;
  /// Command id for sampled commands (0 when the span is not per-command).
  std::uint64_t cmd = 0;
};

class Tracer {
 public:
  /// One buffer per recording thread; a thread records only into its own.
  class Buffer {
   public:
    /// Opens a span; returns its index for close()/child parents.
    std::int64_t open(const char* name, std::int64_t start_ns,
                      std::int64_t parent = -1, std::uint64_t cmd = 0) {
      spans_.push_back(Span{name, start_ns, 0, parent, cmd});
      return static_cast<std::int64_t>(spans_.size()) - 1;
    }
    void close(std::int64_t idx, std::int64_t end_ns) {
      spans_[static_cast<std::size_t>(idx)].end_ns = end_ns;
    }
    /// Records a complete span in one call.
    std::int64_t add(const char* name, std::int64_t start_ns,
                     std::int64_t end_ns, std::int64_t parent = -1,
                     std::uint64_t cmd = 0) {
      spans_.push_back(Span{name, start_ns, end_ns, parent, cmd});
      return static_cast<std::int64_t>(spans_.size()) - 1;
    }
    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

   private:
    std::vector<Span> spans_;
  };

  static Tracer& get() {
    static Tracer t;
    return t;
  }

  /// Stable storage for a span name built at run time.
  const char* intern(const std::string& name) {
    std::lock_guard lock(mu_);
    return names_.insert(name).first->c_str();
  }

  [[nodiscard]] bool on() const { return on_.load(std::memory_order_relaxed); }
  void enable(bool on) { on_.store(on, std::memory_order_relaxed); }

  /// A fresh buffer owned by the tracer (stable address until exit).
  Buffer* thread_buffer(const std::string& thread) {
    std::lock_guard lock(mu_);
    buffers_.push_back({thread, std::make_unique<Buffer>()});
    return buffers_.back().second.get();
  }

  struct Agg {
    std::uint64_t count = 0;
    double total_ns = 0;
    double self_ns = 0;
  };

  /// Per-name count, total and self time over every recorded span.
  /// Self time = duration minus the union of the direct children's
  /// intervals (children of one parent do not overlap: each thread records
  /// its calls sequentially).
  [[nodiscard]] std::map<std::string, Agg> aggregate() const {
    std::lock_guard lock(mu_);
    std::map<std::string, Agg> out;
    for (const auto& [thread, buf] : buffers_) {
      const auto& spans = buf->spans();
      std::vector<double> child_ns(spans.size(), 0.0);
      for (const Span& s : spans) {
        if (s.parent >= 0 && s.end_ns >= s.start_ns) {
          child_ns[static_cast<std::size_t>(s.parent)] +=
              static_cast<double>(s.end_ns - s.start_ns);
        }
      }
      for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        if (s.end_ns < s.start_ns) continue;  // never closed
        const double d = static_cast<double>(s.end_ns - s.start_ns);
        Agg& a = out[s.name];
        a.count += 1;
        a.total_ns += d;
        a.self_ns += d - child_ns[i];
      }
    }
    return out;
  }

  /// Writes every span as JSON.  Returns false when the file cannot be
  /// written.
  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::lock_guard lock(mu_);
    std::fprintf(f, "{\"threads\": [");
    bool first_thread = true;
    for (const auto& [thread, buf] : buffers_) {
      std::fprintf(f, "%s\n {\"thread\": \"%s\", \"spans\": [",
                   first_thread ? "" : ",", thread.c_str());
      first_thread = false;
      bool first = true;
      for (const Span& s : buf->spans()) {
        std::fprintf(f,
                     "%s\n  {\"name\": \"%s\", \"start_ns\": %lld, "
                     "\"end_ns\": %lld, \"parent\": %lld, \"cmd\": %llu}",
                     first ? "" : ",", s.name,
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns),
                     static_cast<long long>(s.parent),
                     static_cast<unsigned long long>(s.cmd));
        first = false;
      }
      std::fprintf(f, "]}");
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  Tracer() = default;
  std::atomic<bool> on_{false};
  mutable std::mutex mu_;
  std::vector<std::pair<std::string, std::unique_ptr<Buffer>>> buffers_;
  std::set<std::string> names_;
};

/// Times one call into the program as a span of `buf` (no-op when buf is
/// null, i.e. tracing off).
template <typename Fn>
auto timed_call(Tracer::Buffer* buf, const char* name, Fn&& fn,
                std::int64_t parent = -1) {
  if (buf == nullptr) return fn();
  const std::int64_t t0 = now_ns();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    buf->add(name, t0, now_ns(), parent);
  } else {
    auto r = fn();
    buf->add(name, t0, now_ns(), parent);
    return r;
  }
}

}  // namespace perfbench
