// Predictor::compute_table against the per-call definition it must equal:
// ModelSet::predict by kernel name on features_from_workload, summed in
// Kernel order — compared with == on every (rank, interval).

#include "core/predictor.hpp"

#include <gtest/gtest.h>

#include "core/features.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace picp {
namespace {

constexpr double kFilter = 0.024;

/// Paper-scale rank count with thousands of migration pairs per interval,
/// idle ranks, and ghosts.
WorkloadResult synthetic_workload(Rank ranks, std::size_t intervals,
                                  int moves_per_interval) {
  WorkloadResult w;
  w.num_ranks = ranks;
  for (std::size_t t = 0; t < intervals; ++t) w.iterations.push_back(50 * t);
  w.comp_real = CompMatrix(ranks, intervals);
  w.comp_ghost = CompMatrix(ranks, intervals);
  w.comm_real = CommMatrix(ranks, intervals);
  w.comm_ghost = CommMatrix(ranks, intervals);
  Xoshiro256 rng(14);
  const auto n = static_cast<std::uint64_t>(ranks);
  for (std::size_t t = 0; t < intervals; ++t) {
    for (Rank r = 0; r < ranks; ++r) {
      const bool idle = rng.uniform_below(4) == 0;
      w.comp_real.set(r, t, idle ? 0 : static_cast<std::int64_t>(
                                           rng.uniform_below(400)));
      w.comp_ghost.set(r, t, static_cast<std::int64_t>(rng.uniform_below(60)));
    }
    if (t == 0) continue;  // no migration into the first interval
    for (int m = 0; m < moves_per_interval; ++m)
      w.comm_real.add(static_cast<Rank>(rng.uniform_below(n)),
                      static_cast<Rank>(rng.uniform_below(n)), t,
                      1 + static_cast<std::int64_t>(rng.uniform_below(9)));
  }
  for (Rank r = 0; r < ranks; ++r)
    w.elements_per_rank.push_back(
        1 + static_cast<std::int64_t>(rng.uniform_below(32)));
  return w;
}

void add_model(ModelSet& set, Kernel k, const std::string& serialized) {
  const auto features = kernel_features(k);
  set.set(kernel_name(k), ModelSet::parse_model(serialized, features),
          features);
}

/// Every kernel, every model kind; push and migrate evaluate negative on
/// light ranks, so the clamp runs.
ModelSet full_models() {
  ModelSet set;
  add_model(set, Kernel::kInterpolate, "linear 1e-6 3.1e-8");
  add_model(set, Kernel::kEqSolve, "linear 2e-6 1.7e-8");
  add_model(set, Kernel::kPush, "linear -4e-6 2.3e-8");
  add_model(set, Kernel::kProject, "sym 1e-9 2e-6 mul v0 add v1 v2");
  add_model(set, Kernel::kCreateGhost,
            "poly 3 3 0 0 0 1e-6 1 1 0 2e-9 0 1 1 3e-7");
  add_model(set, Kernel::kMigrate, "linear -2e-5 5e-8 3e-7");
  add_model(set, Kernel::kFluid, "linear 5e-6 1.1e-6");
  return set;
}

/// The per-call definition: models looked up by name, features allocated
/// per call, receive counts scanned per rank.
std::vector<double> reference_table(const ModelSet& models,
                                    const WorkloadResult& w,
                                    std::size_t* clamped = nullptr) {
  const auto r_count = static_cast<std::size_t>(w.num_ranks);
  std::vector<double> table(r_count * w.num_intervals(), 0.0);
  for (std::size_t t = 0; t < w.num_intervals(); ++t)
    for (Rank r = 0; r < w.num_ranks; ++r) {
      double total = 0.0;
      for (int k = 0; k < kNumKernels; ++k) {
        const auto kernel = static_cast<Kernel>(k);
        const std::string name = kernel_name(kernel);
        if (!models.has(name)) continue;
        const auto features = features_from_workload(kernel, w, r, t, kFilter);
        if (clamped != nullptr && models.model_of(name).evaluate(features) < 0)
          ++*clamped;
        total += models.predict(name, features);
      }
      table[t * r_count + static_cast<std::size_t>(r)] = total;
    }
  return table;
}

std::size_t count_mismatches(const std::vector<double>& a,
                             const std::vector<double>& b) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!(a[i] == b[i])) ++n;
  return n;
}

TEST(PredictorTable, BitIdenticalToPerCallReference) {
  const WorkloadResult w = synthetic_workload(1044, 5, 4000);
  ASSERT_GT(w.comm_real.interval_pairs(1), 3000u);
  const ModelSet models = full_models();
  std::size_t clamped = 0;
  const auto expected = reference_table(models, w, &clamped);
  EXPECT_GT(clamped, 0u);
  const auto table = Predictor(models, kFilter).compute_table(w);
  ASSERT_EQ(table.size(), expected.size());
  EXPECT_EQ(count_mismatches(table, expected), 0u);
}

TEST(PredictorTable, BitIdenticalWithKernelsMissing) {
  const WorkloadResult w = synthetic_workload(1044, 5, 4000);
  const ModelSet full = full_models();
  // Without migrate the receive counts are never read; without fluid the
  // element counts are not needed.
  for (const Kernel dropped :
       {Kernel::kMigrate, Kernel::kFluid, Kernel::kInterpolate}) {
    ModelSet models;
    for (const std::string& name : full.kernels())
      if (name != kernel_name(dropped))
        models.set(name, full.model_of(name).clone(), full.features_of(name));
    ASSERT_FALSE(models.has(kernel_name(dropped)));
    const auto table = Predictor(models, kFilter).compute_table(w);
    EXPECT_EQ(count_mismatches(table, reference_table(models, w)), 0u)
        << "without " << kernel_name(dropped);
  }
}

TEST(PredictorTable, PredictKernelMatchesModelSet) {
  const WorkloadResult w = synthetic_workload(64, 3, 500);
  const ModelSet models = full_models();
  const Predictor predictor(models, kFilter);
  for (int k = 0; k < kNumKernels; ++k) {
    const auto kernel = static_cast<Kernel>(k);
    for (std::size_t t = 0; t < w.num_intervals(); ++t)
      for (Rank r = 0; r < w.num_ranks; ++r)
        ASSERT_EQ(predictor.predict_kernel(kernel, w, r, t),
                  models.predict(kernel_name(kernel),
                                 features_from_workload(kernel, w, r, t,
                                                        kFilter)));
  }
}

TEST(PredictorTable, ArityCheckedAtConstruction) {
  ModelSet models = full_models();
  models.set("migrate",
             ModelSet::parse_model("linear 1e-6 1e-8", {"np"}), {"np"});
  EXPECT_THROW(Predictor(models, kFilter), Error);
}

TEST(PredictorTable, MissingKernelThrows) {
  ModelSet models;
  add_model(models, Kernel::kPush, "linear 0 1e-8");
  const WorkloadResult w = synthetic_workload(4, 2, 4);
  const Predictor predictor(models, kFilter);
  EXPECT_THROW(predictor.predict_kernel(Kernel::kMigrate, w, 0, 1), Error);
  EXPECT_NO_THROW(predictor.predict_kernel(Kernel::kPush, w, 0, 1));
}

TEST(PredictorTable, FluidWithoutElementCountsThrows) {
  WorkloadResult w = synthetic_workload(8, 2, 8);
  w.elements_per_rank.resize(4);
  EXPECT_THROW(Predictor(full_models(), kFilter).compute_table(w), Error);
}

}  // namespace
}  // namespace picp
