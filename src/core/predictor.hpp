#pragma once

#include <array>
#include <vector>

#include "bsst/trace_sim.hpp"
#include "model/model_set.hpp"
#include "picsim/kernels.hpp"
#include "workload/generator.hpp"

namespace picp {

/// Applies the trained performance models to generated workload — the
/// framework's prediction step (the role of the paper's "python script" in
/// §IV-B, and the input producer for the Simulation Platform).
class Predictor {
 public:
  /// Resolves each kernel's model once; throws picp::Error if a model's
  /// feature count differs from kernel_features. `models` must outlive the
  /// Predictor and keep its models unchanged while it is used.
  Predictor(const ModelSet& models, double filter_size);

  /// Predicted seconds of one kernel on one (rank, interval); throws
  /// picp::Error if the kernel has no model.
  double predict_kernel(Kernel k, const WorkloadResult& workload, Rank rank,
                        std::size_t interval) const;

  /// Per-(rank, interval) total particle-phase compute time (sum over all
  /// modeled kernels, in Kernel order), laid out interval-major for the
  /// trace simulator. O(T × (R + pairs)): each interval's receive counts
  /// come from one pass over its migrations.
  std::vector<double> compute_table(const WorkloadResult& workload) const;

  /// Assemble the full trace-simulation input (compute table + comm
  /// matrices + network) from generated workload.
  TraceSimInput sim_input(const WorkloadResult& workload,
                          const NetworkParams& network) const;

  double filter_size() const { return filter_size_; }

 private:
  double filter_size_;
  /// Each kernel's model, indexed by Kernel; null where the set has none.
  std::array<const PerfModel*, kNumKernels> kernel_models_{};
};

}  // namespace picp
