// Combining tomography with direct measurements (paper Section 5.3.6).
//
// A handful of exactly-measured demands (e.g. from targeted NetFlow or
// per-LSP counters) sharply improves link-load tomography: the measured
// demands' contribution is subtracted from the loads, their routing
// columns are removed, and the estimator runs on the reduced problem.
//
// Two selection strategies from the paper:
//  * greedy  — exhaustive search each step for the demand whose exact
//              measurement most decreases the MRE (the oracle curve of
//              Fig. 16);
//  * largest_first — measure demands by size, the "viable practical
//              approach" the paper discusses (estimators rank demand
//              sizes accurately), which needs noticeably more
//              measurements for the same MRE.
#pragma once

#include <functional>
#include <memory>

#include "core/entropy.hpp"
#include "core/problem.hpp"
#include "linalg/cholesky.hpp"

namespace tme::core {

/// Estimator run on the reduced problem: given (problem, prior) returns
/// the demand estimate.  Defaults to the Entropy method as in the paper.
using ReducedEstimator = std::function<linalg::Vector(
    const SnapshotProblem&, const linalg::Vector&)>;

struct DirectMeasurementOptions {
    /// How many demands to measure (curve length).
    std::size_t max_measured = 0;  ///< 0 = all pairs
    /// MRE threshold (same value used for the reported curve).
    double threshold = 0.0;
    /// Estimator for the reduced problems; defaults to Entropy with
    /// regularization 1000.
    ReducedEstimator estimator;
};

struct DirectMeasurementCurve {
    /// measured[i] = pair measured at step i (in order).
    std::vector<std::size_t> measured;
    /// mre[i] = MRE after i demands are measured (mre[0] = no direct
    /// measurements), so size is measured.size() + 1.
    linalg::Vector mre;
};

/// Estimates with a fixed set of exactly-measured demands and returns
/// the full estimate vector (measured entries set to their true values).
linalg::Vector estimate_with_measured(const SnapshotProblem& problem,
                                      const linalg::Vector& prior,
                                      const linalg::Vector& true_demands,
                                      const std::vector<std::size_t>& measured,
                                      const ReducedEstimator& estimator);

/// Reduced-problem factorization for a fixed measured set: the reduced
/// Gram G_u = R_u'R_u (columns `unknown` of the full R) and the
/// Cholesky factor of G_u + tau*I consumed by the factored estimate
/// path below.  In the streaming setting the measured set and the
/// routing stay fixed while load windows arrive every five minutes, so
/// a caller can cache this per routing epoch (a ReducedFactorProvider)
/// and the per-window cost drops from an O(k^3) factorization to an
/// O(k^2) pair of triangular solves.
struct ReducedFactor {
    std::vector<std::size_t> unknown;  ///< unmeasured pairs, ascending
    linalg::Matrix gram;               ///< R_u' R_u
    double regularization = 0.0;       ///< tau
    linalg::Cholesky chol;             ///< factor of gram + tau*I

    ReducedFactor(std::vector<std::size_t> unknown_pairs,
                  linalg::Matrix reduced_gram, double tau);

    /// Slices G_u out of a precomputed full Gram R'R and factorizes.
    static ReducedFactor slice(const linalg::Matrix& full_gram,
                               std::vector<std::size_t> unknown_pairs,
                               double tau);

    /// Builds G_u straight from the sparse routing matrix (column
    /// selection + sparse Gram) — no dense P x P Gram is ever formed,
    /// which is what makes the direct-measurement workflow viable on
    /// generated backbones whose full Gram would not fit in memory.
    /// Entry-for-entry bitwise equal to slice() on the same inputs.
    static ReducedFactor from_routing(const linalg::SparseMatrix& routing,
                                      std::vector<std::size_t> unknown_pairs,
                                      double tau);
};

/// Source of (shared) reduced factorizations, keyed by the unmeasured
/// pair set; an implementation must invalidate its results when the
/// routing changes.
using ReducedFactorProvider =
    std::function<std::shared_ptr<const ReducedFactor>(
        const std::vector<std::size_t>& unknown)>;

/// Direct-measurement estimate through a cached factorization: the
/// measured demands' contribution is subtracted from the loads and the
/// remaining demands solve the prior-anchored ridge system
/// (G_u + tau*I) x = R_u' t_reduced + tau * prior_u (negative
/// coordinates clamped to zero).  With an empty provider the factor is
/// built locally from the reduced routing matrix; results are identical
/// either way.
linalg::Vector estimate_with_measured_factored(
    const SnapshotProblem& problem, const linalg::Vector& prior,
    const linalg::Vector& true_demands,
    const std::vector<std::size_t>& measured, double regularization,
    const ReducedFactorProvider& provider = {});

/// Greedy oracle selection (exhaustive search per step, as in the paper).
DirectMeasurementCurve greedy_direct_measurements(
    const SnapshotProblem& problem, const linalg::Vector& prior,
    const linalg::Vector& true_demands,
    const DirectMeasurementOptions& options);

/// Measure demands in descending true-size order.
DirectMeasurementCurve largest_first_direct_measurements(
    const SnapshotProblem& problem, const linalg::Vector& prior,
    const linalg::Vector& true_demands,
    const DirectMeasurementOptions& options);

}  // namespace tme::core
