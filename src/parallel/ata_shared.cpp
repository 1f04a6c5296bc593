#include "parallel/ata_shared.hpp"

#include <stdexcept>
#include <string>

#include "api/execute.hpp"
#include "api/plan_cache.hpp"

namespace atalib {

void validate(const SharedOptions& opts) {
  if (opts.threads < 1) {
    throw std::invalid_argument("SharedOptions.threads must be >= 1, got " +
                                std::to_string(opts.threads));
  }
  if (opts.oversub < 1) {
    throw std::invalid_argument("SharedOptions.oversub must be >= 1, got " +
                                std::to_string(opts.oversub));
  }
  validate(opts.recurse, "SharedOptions");
}

// Both entry points are thin wrappers over build-or-fetch-plan + execute
// (api/), so the shared and distributed layers keep one planning path and
// repeated calls on one shape replan nothing.

template <typename T>
void ata_shared(T alpha, ConstMatrixView<T> a, MatrixView<T> c, const SharedOptions& opts) {
  validate(opts);
  const auto plan = api::PlanCache::global().get_or_build(
      api::shared_plan_key(api::dtype_of<T>(), a.rows, a.cols, opts));
  api::execute(*plan, alpha, a, c);
}

template <typename T>
SharedProfile ata_shared_profile(T alpha, ConstMatrixView<T> a, MatrixView<T> c,
                                 const SharedOptions& opts) {
  validate(opts);
  const auto plan = api::PlanCache::global().get_or_build(
      api::shared_plan_key(api::dtype_of<T>(), a.rows, a.cols, opts));
  return api::execute_profile(*plan, alpha, a, c);
}

template void ata_shared<float>(float, ConstMatrixView<float>, MatrixView<float>,
                                const SharedOptions&);
template void ata_shared<double>(double, ConstMatrixView<double>, MatrixView<double>,
                                 const SharedOptions&);
template SharedProfile ata_shared_profile<float>(float, ConstMatrixView<float>,
                                                 MatrixView<float>, const SharedOptions&);
template SharedProfile ata_shared_profile<double>(double, ConstMatrixView<double>,
                                                  MatrixView<double>, const SharedOptions&);

}  // namespace atalib
