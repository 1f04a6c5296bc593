#pragma once
// AtA-D configuration (Algorithm 4).

#include <stdexcept>
#include <string>

#include "parallel/leaf_exec.hpp"
#include "strassen/options.hpp"

namespace atalib::dist {

struct DistOptions {
  /// The paper's P: simulated process count (one mpisim rank each).
  int procs = 1;

  /// §4.1.2 load-balance parameter: the fraction of a syrk node's
  /// processes assigned to its off-diagonal A^T B sub-tree. The paper
  /// derives 1/2 from equating per-process multiplication counts.
  double alpha = 0.5;

  /// Leaf recursion cut-offs, shared with the sequential algorithms.
  RecurseOptions recurse{};

  /// Leaf engine, shared with AtA-S (parallel/leaf_exec.hpp). AtA-D is
  /// not served, so it keeps the paper's Strassen leaves by default.
  using Engine = LeafEngine;
  Engine engine = Engine::kStrassen;
};

/// Validate up front with a clear message (same throw contract as the
/// comparators: std::invalid_argument before any thread or rank starts).
inline void validate(const DistOptions& opts) {
  if (opts.procs < 1) {
    throw std::invalid_argument("DistOptions.procs must be >= 1, got " +
                                std::to_string(opts.procs));
  }
  if (!(opts.alpha > 0.0) || !(opts.alpha < 1.0)) {
    throw std::invalid_argument("DistOptions.alpha must be in (0, 1), got " +
                                std::to_string(opts.alpha));
  }
  atalib::validate(opts.recurse, "DistOptions");
}

}  // namespace atalib::dist
