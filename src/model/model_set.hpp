#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "model/model.hpp"

namespace picp {

/// A named collection of performance models — one per instrumented kernel —
/// with the feature names each model consumes. This is what the Model
/// Generator hands to the Simulation Platform, and what gets persisted
/// between the (expensive) training step and prediction runs.
class ModelSet {
 public:
  ModelSet() = default;
  ModelSet(const ModelSet& other);
  ModelSet& operator=(const ModelSet& other);
  ModelSet(ModelSet&&) = default;
  ModelSet& operator=(ModelSet&&) = default;

  struct Entry {
    std::unique_ptr<PerfModel> model;
    std::vector<std::string> features;
  };

  bool has(const std::string& kernel) const;
  void set(const std::string& kernel, std::unique_ptr<PerfModel> model,
           std::vector<std::string> features);

  /// Predicted time for one kernel; throws picp::Error for unknown kernels
  /// or mismatched feature counts. Negative predictions clamp to zero
  /// (predicted_seconds).
  double predict(const std::string& kernel,
                 std::span<const double> features) const;

  const std::vector<std::string>& features_of(const std::string& kernel) const;
  const PerfModel& model_of(const std::string& kernel) const;
  std::vector<std::string> kernels() const;

  /// Text persistence: one line per kernel:
  ///   <kernel> | <feat1,feat2,...> | <serialized model>
  void save(const std::string& path) const;
  static ModelSet load(const std::string& path);

  /// Parse one serialized model line (exposed for tests).
  static std::unique_ptr<PerfModel> parse_model(
      const std::string& serialized, const std::vector<std::string>& features);

 private:
  std::map<std::string, Entry> entries_;
};

}  // namespace picp
