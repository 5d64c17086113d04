// Host-speed calibration.  The benchmark runs on shared virtual machines
// whose speed drifts with other tenants' load: on the 4-vCPU host this
// benchmark was built on, a fixed pure-compute loop ran 15-25% slower or
// faster from one ten-second window to the next, and the same fleet-ingest
// run took 21 ms or 39 ms per frame.  No amount of repetition inside one run
// removes a drift that outlasts the run.
//
// So every timing the benchmark reports is normalized to a reference host
// speed: while a workload runs, a fixed reference kernel is timed every
// 100 ms, and each timing is scaled by reference_ms / (median kernel time
// within half a second of it).  The kernel matches the resource the
// workload leans on: compute_kernel() (string hashing into a small hash
// map, a sort, a short pointer chase, all warm in cache) for the front-end
// and automata work of cold-verify, cached-rerun and edit-loop; for
// fleet-ingest's frames, a benchmark-owned interning-and-stepping pass over
// the same frames (fleet.hpp).  On a host where the kernel takes
// reference_ms the scaled value is the raw one.  Kernels are benchmark code that no change
// to the program touches; they keep out of the program's heap and time a
// pass only after warming their own working set, so a program regression
// moves the scaled figures by the same share as the raw ones (README.md
// records the planted-regression check).  The raw timings are printed in
// the env line beside the scaled ones.
#pragma once

#include <functional>
#include <vector>

#include "bench.hpp"

namespace perfbench {

/// The in-cache compute kernel; returns its time in ms.
double compute_kernel();

class HostSpeed {
 public:
  /// `kernel` runs the reference work once and returns its time in ms;
  /// `reference_ms` is its time at the reference host speed.
  HostSpeed(std::function<double()> kernel, double reference_ms)
      : kernel_(std::move(kernel)), reference_ms_(reference_ms) {}

  /// Times the kernel and records it.
  void sample();
  /// sample() when the last sample is at least 100 ms old.
  void maybe_sample();
  /// reference_ms over the median kernel time within 500 ms of `at`
  /// (the nearest samples when none is that close).
  [[nodiscard]] double factor(Clock::time_point at) const;
  [[nodiscard]] double median_kernel_ms() const;
  [[nodiscard]] std::size_t samples() const { return samples_.size(); }

 private:
  struct Sample {
    Clock::time_point at;
    double ms;
  };
  std::function<double()> kernel_;
  double reference_ms_;
  std::vector<Sample> samples_;
};

}  // namespace perfbench
