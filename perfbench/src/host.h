// Host interference: how much of the machine's CPU time the benchmark could
// not have had during a time window, because the hypervisor gave the
// virtual CPUs to someone else (steal) or because other processes ran.
//
// The machine is a VM whose CPUs other guests share.  A guest that takes the
// host's cores cuts the runtime's throughput by half or more and adds
// hundreds of microseconds to its latency, for seconds or for minutes.  So
// latency figures are taken over the windows in which the host left the
// benchmark alone (quiet_values), and throughput figures over windows moved
// to zero interference along the run's own trend (falling_slope),
// which holds also when no window of a run is quiet.
#pragma once

#include <cstdint>
#include <thread>
#include <vector>

namespace perfbench {

struct HostSample {
  std::int64_t t_us = 0;
  double steal_s = 0;  // all CPUs, from /proc/stat
  double busy_s = 0;   // all CPUs, every process, from /proc/stat
  double own_s = 0;    // this process, from getrusage
};

HostSample host_sample();

/// Share of the machine's CPU time between `a` and `b` that was stolen or
/// used by other processes.
double interference(const HostSample& a, const HostSample& b);

/// Samples the host at every sub-window boundary from `from_us` on, for
/// `windows` sub-windows of `window_us`, on a thread of its own.
class WindowMeter {
 public:
  WindowMeter(std::int64_t from_us, std::int64_t window_us,
              std::size_t windows);
  WindowMeter(const WindowMeter&) = delete;
  WindowMeter& operator=(const WindowMeter&) = delete;
  ~WindowMeter();
  /// Waits for the last boundary; each sub-window's interference.
  std::vector<double> finish();

 private:
  std::vector<HostSample> samples_;
  std::thread thread_;
};

/// A window is quiet when interference took at most this share of the
/// machine's CPU time in it.
inline constexpr double kQuietShare = 0.05;

/// The values of the quiet windows; when fewer than a quarter of the
/// windows (and at least 4) are quiet, the values of that many windows with
/// the least interference instead.
std::vector<double> quiet_values(const std::vector<double>& values,
                                 const std::vector<double>& interference);

/// The slope of the falling straight line that best fits values against
/// interference (Theil-Sen: the median slope over window pairs whose
/// interference differs by at least kMinSpread); 0 when the slope rises or
/// is undetermined (fewer than kMinPairs such pairs).  A window's value
/// minus slope x interference is its value moved to zero interference.
inline constexpr double kMinSpread = 0.03;
inline constexpr std::size_t kMinPairs = 10;
double falling_slope(const std::vector<double>& values,
                     const std::vector<double>& interference);

}  // namespace perfbench
