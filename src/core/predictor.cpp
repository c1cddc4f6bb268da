#include "core/predictor.hpp"

#include <string>

#include "core/features.hpp"
#include "util/error.hpp"

namespace picp {

Predictor::Predictor(const ModelSet& models, double filter_size)
    : filter_size_(filter_size) {
  PICP_REQUIRE(filter_size > 0.0, "filter size must be positive");
  for (int k = 0; k < kNumKernels; ++k) {
    const auto kernel = static_cast<Kernel>(k);
    const std::string name = kernel_name(kernel);
    if (!models.has(name)) continue;
    PICP_REQUIRE(models.features_of(name).size() ==
                     kernel_features(kernel).size(),
                 "feature count mismatch for kernel: " + name);
    kernel_models_[static_cast<std::size_t>(k)] = &models.model_of(name);
  }
}

double Predictor::predict_kernel(Kernel k, const WorkloadResult& workload,
                                 Rank rank, std::size_t interval) const {
  const PerfModel* model = kernel_models_[static_cast<std::size_t>(k)];
  PICP_REQUIRE(model != nullptr,
               std::string("no model for kernel: ") + kernel_name(k));
  return predicted_seconds(
      *model,
      features_from_workload(k, workload, rank, interval, filter_size_));
}

std::vector<double> Predictor::compute_table(
    const WorkloadResult& workload) const {
  const auto r_count = static_cast<std::size_t>(workload.num_ranks);
  const std::size_t t_count = workload.num_intervals();
  const bool needs_received =
      kernel_models_[static_cast<std::size_t>(Kernel::kMigrate)] != nullptr;
  std::vector<double> table(r_count * t_count, 0.0);
  std::vector<std::int64_t> received(r_count, 0);
  for (std::size_t t = 0; t < t_count; ++t) {
    if (needs_received) {
      received = workload.comm_real.received_counts(t);
      PICP_REQUIRE(received.size() == r_count,
                   "migration matrix rank count differs from the workload's");
    }
    for (std::size_t r = 0; r < r_count; ++r) {
      double total = 0.0;
      for (int k = 0; k < kNumKernels; ++k) {
        const PerfModel* model = kernel_models_[static_cast<std::size_t>(k)];
        if (model == nullptr) continue;
        total += predicted_seconds(
            *model,
            workload_feature_values(static_cast<Kernel>(k), workload,
                                    static_cast<Rank>(r), t, filter_size_,
                                    received[r])
                .span());
      }
      table[t * r_count + r] = total;
    }
  }
  return table;
}

TraceSimInput Predictor::sim_input(const WorkloadResult& workload,
                                   const NetworkParams& network) const {
  TraceSimInput input;
  input.num_ranks = workload.num_ranks;
  input.num_intervals = workload.num_intervals();
  input.compute_seconds = compute_table(workload);
  input.comm_real = &workload.comm_real;
  input.comm_ghost = &workload.comm_ghost;
  input.network = network;
  return input;
}

}  // namespace picp
