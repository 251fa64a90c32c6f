#include "host.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "util/clock.h"

namespace perfbench {

using psmr::util::now_us;

HostSample host_sample() {
  HostSample s;
  s.t_us = now_us();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  s.own_s = sec(ru.ru_utime) + sec(ru.ru_stime);
  if (FILE* f = std::fopen("/proc/stat", "r")) {
    // cpu user nice system idle iowait irq softirq steal ...
    unsigned long long v[8] = {};
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      const double tick = 1.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
      s.busy_s = static_cast<double>(v[0] + v[1] + v[2] + v[5] + v[6]) * tick;
      s.steal_s = static_cast<double>(v[7]) * tick;
    }
    std::fclose(f);
  }
  return s;
}

double interference(const HostSample& a, const HostSample& b) {
  const double cpus =
      static_cast<double>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  const double span_s = static_cast<double>(b.t_us - a.t_us) / 1e6;
  if (span_s <= 0) return 0;
  const double steal = b.steal_s - a.steal_s;
  const double others =
      std::max(0.0, (b.busy_s - a.busy_s) - (b.own_s - a.own_s));
  return (steal + others) / (cpus * span_s);
}

WindowMeter::WindowMeter(std::int64_t from_us, std::int64_t window_us,
                         std::size_t windows) {
  samples_.resize(windows + 1);
  thread_ = std::thread([this, from_us, window_us] {
    for (std::size_t i = 0; i < samples_.size(); ++i) {
      const std::int64_t at = from_us + static_cast<std::int64_t>(i) * window_us;
      const std::int64_t now = now_us();
      if (at > now) {
        std::this_thread::sleep_for(std::chrono::microseconds(at - now));
      }
      samples_[i] = host_sample();
    }
  });
}

WindowMeter::~WindowMeter() {
  if (thread_.joinable()) thread_.join();
}

std::vector<double> WindowMeter::finish() {
  if (thread_.joinable()) thread_.join();
  std::vector<double> out;
  for (std::size_t i = 1; i < samples_.size(); ++i) {
    out.push_back(interference(samples_[i - 1], samples_[i]));
  }
  return out;
}

std::vector<double> quiet_values(const std::vector<double>& values,
                                 const std::vector<double>& interference) {
  const std::size_t n = std::min(values.size(), interference.size());
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t x, std::size_t y) {
    return interference[x] < interference[y];
  });
  const std::size_t least = std::min(n, std::max<std::size_t>(4, n / 4));
  std::vector<double> out;
  for (std::size_t i = 0; i < n; ++i) {
    if (out.size() >= least && interference[idx[i]] > kQuietShare) break;
    out.push_back(values[idx[i]]);
  }
  return out;
}

double falling_slope(const std::vector<double>& values,
                     const std::vector<double>& interference) {
  const std::size_t n = std::min(values.size(), interference.size());
  std::vector<double> slopes;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double dx = interference[j] - interference[i];
      if (std::abs(dx) >= kMinSpread) {
        slopes.push_back((values[j] - values[i]) / dx);
      }
    }
  }
  if (slopes.size() < kMinPairs) return 0;
  auto mid = slopes.begin() + static_cast<std::ptrdiff_t>(slopes.size() / 2);
  std::nth_element(slopes.begin(), mid, slopes.end());
  return std::min(0.0, *mid);
}

}  // namespace perfbench
