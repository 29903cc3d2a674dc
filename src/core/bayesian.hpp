// Bayesian / regularized least-squares estimation (paper Section 4.2.3).
//
// With a Gaussian prior s ~ N(s_prior, sigma^2 I) and unit-variance
// measurement noise t = R s + v, the MAP estimate solves (eq. 7)
//
//     minimize  ||R s - t||^2 + sigma^{-2} ||s - s_prior||^2,   s >= 0.
//
// We parameterize by the regularization parameter lambda = sigma^2: small
// lambda pins the estimate to the prior, large lambda trusts the link
// measurements (the regime the paper finds best, Fig. 13).  The problem
// is a stacked NNLS in Gram form:  G = R'R + (1/lambda) I,
// g = R't + (1/lambda) s_prior, solved without ever building G.
#pragma once

#include "core/problem.hpp"
#include "linalg/qp.hpp"

namespace tme::core {

struct BayesianOptions {
    /// Regularization parameter lambda = sigma^2 (> 0).
    double regularization = 1000.0;
    /// Optional precomputed CSR transpose of the routing matrix; MUST
    /// equal linalg::transpose(*problem.routing) (the engine caches it
    /// per routing epoch); derived on the fly when absent.  The MAP
    /// system is solved Gram-free: R'R is never materialized, not even
    /// in CSR.  Problems with pairs within qp.dense_kkt_limit (every
    /// paper-scale one) run the factored-passive-set NNLS over
    /// on-demand Gram columns (linalg::gram_column) with the O(nnz)
    /// dual refresh through the routing operator — bit-for-bit the
    /// dense NNLS over R'R.  Larger problems switch to the operator QP:
    /// the positive prior makes the MAP solution dense-positive, so an
    /// active-set NNLS would pivot once per pair, while the QP's block
    /// pivoting reaches the same strictly convex minimizer in a
    /// handful of rounds with A'A applied implicitly per CG iteration.
    /// Not owned.
    const linalg::SparseMatrix* shared_routing_transpose = nullptr;
    /// Optional warm start for the active-set NNLS (see NnlsOptions).
    /// G + (1/lambda) I is positive definite, so the minimizer is unique
    /// and unchanged by warm starting.  Not owned.
    const linalg::Vector* warm_start = nullptr;
    /// Solver tuning: dense_kkt_limit picks between the NNLS and the
    /// operator QP (see shared_routing_transpose); the projected-CG
    /// tolerance/caps tune the QP.  The warm_start member inside is
    /// ignored.
    linalg::EqQpNonnegOptions qp;
    /// Optional iteration telemetry sink, forwarded to whichever solver
    /// runs: the operator QP adds active-set rounds / CG iterations,
    /// the NNLS adds pivots.  Overrides qp.counters.  Not
    /// owned; must outlive the call.
    obs::SolverCounters* counters = nullptr;
    /// Optional cooperative deadline, forwarded to whichever solver
    /// runs (overrides qp.budget).  A tripped budget yields the
    /// solver's best feasible iterate; the caller reads
    /// budget->expired() afterwards to learn the solve was cut.  Not
    /// owned; must outlive the call.
    linalg::SolveBudget* budget = nullptr;
};

/// MAP estimate with non-negativity.  `prior` is pair-indexed.
linalg::Vector bayesian_estimate(const SnapshotProblem& problem,
                                 const linalg::Vector& prior,
                                 const BayesianOptions& options = {});

}  // namespace tme::core
