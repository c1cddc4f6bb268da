#pragma once

#include <algorithm>
#include <memory>
#include <span>
#include <string>

namespace picp {

/// An analytical performance model t = f(workload parameters), the unit the
/// paper's Model Generator produces (§II-B). Implementations: ordinary
/// least-squares linear and polynomial models, and GP-discovered symbolic
/// models. Features are positional; their names live in the owning ModelSet.
class PerfModel {
 public:
  virtual ~PerfModel() = default;

  /// Predicted kernel time (seconds) for a feature vector.
  virtual double evaluate(std::span<const double> features) const = 0;

  /// Human-readable formula, e.g. "3.1e-08*np + 5.2e-06".
  virtual std::string describe() const = 0;

  /// Serialized form parseable by ModelSet::load (one line, no newlines).
  virtual std::string serialize() const = 0;

  virtual std::unique_ptr<PerfModel> clone() const = 0;
};

/// A model's predicted kernel time, clamped at zero: regression models can
/// dip below zero near the origin; time cannot.
inline double predicted_seconds(const PerfModel& model,
                                std::span<const double> features) {
  return std::max(0.0, model.evaluate(features));
}

}  // namespace picp
