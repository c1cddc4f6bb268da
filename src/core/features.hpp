#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "picsim/instrumentation.hpp"
#include "picsim/kernels.hpp"
#include "workload/generator.hpp"

namespace picp {

/// Canonical workload features each kernel's performance model consumes
/// (paper §II-B: models are expressed in workload parameters such as N_p,
/// N_gp per processor).
///
///   interpolate, eq_solve, push : {np}
///   project, create_ghost       : {np, ngp, filter}
///   migrate                     : {np, nmove}  (scan owned + pack movers)
///   fluid                       : {nel}
std::vector<std::string> kernel_features(Kernel k);

/// Feature vector for one (rank, interval) from an instrumented record
/// (training side — the features were recorded during measurement).
std::vector<double> features_from_record(Kernel k, const TimingRecord& rec);

/// One kernel's feature values in kernel_features order, held inline so the
/// per-(rank, interval) prediction loop allocates nothing.
struct FeatureValues {
  std::array<double, 3> values{};  // the widest kernel: project's 3
  std::size_t size = 0;

  std::span<const double> span() const { return {values.data(), size}; }
};

/// Feature values for one (rank, interval) from generated workload
/// (prediction side — the features come from the Dynamic Workload
/// Generator, never from the application). `received` is the number of
/// particles `rank` receives at `interval`; only migrate reads it.
FeatureValues workload_feature_values(Kernel k, const WorkloadResult& workload,
                                      Rank rank, std::size_t interval,
                                      double filter, std::int64_t received);

/// workload_feature_values as a vector, with `received` looked up in
/// workload.comm_real (O(pairs) per call for migrate).
std::vector<double> features_from_workload(Kernel k,
                                           const WorkloadResult& workload,
                                           Rank rank, std::size_t interval,
                                           double filter);

}  // namespace picp
