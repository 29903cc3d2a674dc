// Dense references for the Gram-free estimators.
//
// core::bayesian_estimate, core::vardi_estimate and core::fanout_estimate
// solve their NNLS / QP problems without ever building R'R: Gram columns
// are generated on demand from R and R'.  The helpers here build the
// same problems in dense Gram form from R inside the caller and hand
// them to the dense solvers the library keeps as references
// (linalg::nnls_gram, linalg::solve_eq_qp_nonneg).  Tests and the solver
// bench pin the operator paths against them: bitwise where the operator
// replays the dense arithmetic (paper scale), to solver precision where
// it switches to projected CG.
//
// Everything here is quadratic in the pair count — paper-scale problems
// only.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/fanout.hpp"
#include "core/problem.hpp"
#include "linalg/matrix.hpp"
#include "linalg/nnls.hpp"
#include "linalg/qp.hpp"
#include "linalg/sparse.hpp"
#include "linalg/stats.hpp"
#include "linalg/vector_ops.hpp"
#include "topology/topology.hpp"

namespace tme::reference {

/// Bayesian MAP estimate through the dense NNLS: the bare Gram R'R with
/// the (1/lambda) I prior precision as a virtual diagonal shift and the
/// dual refresh through R — the arithmetic the operator path's
/// factored passive-set NNLS replays term for term.
inline linalg::Vector bayesian_dense(const core::SnapshotProblem& problem,
                                     const linalg::Vector& prior,
                                     double regularization,
                                     const linalg::Vector* warm_start =
                                         nullptr) {
    const linalg::SparseMatrix& r = *problem.routing;
    const double w = 1.0 / regularization;
    const linalg::Matrix g = r.gram();
    linalg::Vector rhs = r.multiply_transpose(problem.loads);
    for (std::size_t i = 0; i < rhs.size(); ++i) rhs[i] += w * prior[i];
    linalg::NnlsOptions options;
    options.warm_start = warm_start;
    options.gram_diagonal_shift = w;
    options.gram_operator = &r;
    return linalg::nnls_gram(g, rhs, 0.0, options).x;
}

/// Vardi's transformed Gram G1 + w * (G1 .* G1), G1 = R'R, dense.
inline linalg::Matrix vardi_gram_dense(const linalg::SparseMatrix& r,
                                       double w) {
    linalg::Matrix g = r.gram();
    if (w > 0.0) {
        for (std::size_t p = 0; p < g.rows(); ++p) {
            for (std::size_t q = 0; q < g.cols(); ++q) {
                const double g1 = g(p, q);
                g(p, q) = g1 + w * g1 * g1;
            }
        }
    }
    return g;
}

/// Vardi estimate through the dense NNLS over the transformed Gram;
/// moments from the window (linalg::sample_mean / sample_covariance).
inline linalg::Vector vardi_dense(const core::SeriesProblem& problem,
                                  double w) {
    const linalg::SparseMatrix& r = *problem.routing;
    const linalg::Vector that = linalg::sample_mean(problem.loads);
    const linalg::Matrix sigma = linalg::sample_covariance(problem.loads);
    linalg::Vector rhs = r.multiply_transpose(that);
    if (w > 0.0) {
        // q_p = r_p' Sigmahat r_p over column p's support.
        std::vector<std::vector<std::pair<std::size_t, double>>> columns(
            r.cols());
        const auto& offsets = r.row_offsets();
        const auto& cols = r.column_indices();
        const auto& vals = r.values();
        for (std::size_t l = 0; l < r.rows(); ++l) {
            for (std::size_t k = offsets[l]; k < offsets[l + 1]; ++k) {
                columns[cols[k]].push_back({l, vals[k]});
            }
        }
        for (std::size_t p = 0; p < r.cols(); ++p) {
            double q = 0.0;
            for (const auto& [l, vl] : columns[p]) {
                for (const auto& [m, vm] : columns[p]) {
                    q += vl * vm * sigma(l, m);
                }
            }
            rhs[p] += w * q;
        }
    }
    return linalg::nnls_gram(vardi_gram_dense(r, w), rhs).x;
}

/// Owned storage for core::FanoutWindowAggregates, computed directly
/// from a window of loads (the engine maintains the same sums
/// incrementally).
struct FanoutAggregates {
    linalg::Matrix source_outer;  ///< sum_k te_k te_k' (nodes x nodes)
    linalg::Vector weighted_rhs;  ///< sum_k w_k .* (R' t[k])
    linalg::Vector mean_loads;

    explicit FanoutAggregates(const core::SeriesProblem& problem) {
        const topology::Topology& topo = *problem.topo;
        const linalg::SparseMatrix& r = *problem.routing;
        const std::size_t nodes = topo.pop_count();
        source_outer = linalg::Matrix(nodes, nodes, 0.0);
        weighted_rhs.assign(r.cols(), 0.0);
        mean_loads.assign(r.rows(), 0.0);
        for (const linalg::Vector& t : problem.loads) {
            for (std::size_t n1 = 0; n1 < nodes; ++n1) {
                for (std::size_t n2 = 0; n2 < nodes; ++n2) {
                    source_outer(n1, n2) += t[topo.ingress_link(n1)] *
                                            t[topo.ingress_link(n2)];
                }
            }
            const linalg::Vector rt = r.multiply_transpose(t);
            for (std::size_t p = 0; p < r.cols(); ++p) {
                weighted_rhs[p] +=
                    t[topo.ingress_link(topo.pair_nodes(p).first)] * rt[p];
            }
            linalg::axpy(1.0, t, mean_loads);
        }
        linalg::scale(1.0 / static_cast<double>(problem.loads.size()),
                      mean_loads);
    }

    /// Non-owning view for FanoutOptions::aggregates.
    core::FanoutWindowAggregates view() const {
        core::FanoutWindowAggregates agg;
        agg.source_outer = &source_outer;
        agg.weighted_rhs = &weighted_rhs;
        agg.mean_loads = &mean_loads;
        return agg;
    }
};

/// The fanout QP in dense form: H = sum_k W_k (R'R) W_k plus the
/// gravity tie-break ridge on its diagonal, f, and E / d in both dense
/// and CSR form.
struct FanoutDenseQp {
    linalg::Matrix h;
    linalg::Vector f;
    linalg::Matrix e;
    linalg::SparseMatrix e_sparse;
    linalg::Vector d;
};

/// Builds the fanout QP densely from R and the window, the way
/// core::fanout_estimate defines it.  With complete `aggregates` the
/// data term reads H(p, q) = source_outer(src p, src q) * G1(p, q) and
/// f / the mean loads come from the aggregates — the values the
/// estimator's on-demand KKT columns generate; without, H accumulates
/// w_k[p] w_k[q] G1(p, q) sample by sample.
inline FanoutDenseQp fanout_dense_qp(
    const core::SeriesProblem& problem,
    const core::FanoutWindowAggregates& aggregates = {},
    double tiebreak_weight = core::FanoutOptions{}.gravity_tiebreak_weight) {
    const topology::Topology& topo = *problem.topo;
    const linalg::SparseMatrix& r = *problem.routing;
    const std::size_t pairs = r.cols();
    const std::size_t nodes = topo.pop_count();
    const std::size_t window = problem.loads.size();
    const linalg::Matrix g1 = r.gram();

    FanoutDenseQp qp;
    qp.h = linalg::Matrix(pairs, pairs, 0.0);
    qp.f.assign(pairs, 0.0);
    qp.e = linalg::Matrix(nodes, pairs, 0.0);
    std::vector<std::size_t> source_of(pairs);
    std::vector<linalg::Triplet> trips;
    for (std::size_t p = 0; p < pairs; ++p) {
        source_of[p] = topo.pair_nodes(p).first;
        qp.e(source_of[p], p) = 1.0;
        trips.push_back({source_of[p], p, 1.0});
    }
    qp.e_sparse = linalg::SparseMatrix(nodes, pairs, std::move(trips));
    qp.d.assign(nodes, 1.0);

    linalg::Vector mean_loads(r.rows(), 0.0);
    if (aggregates.complete()) {
        const linalg::Matrix& outer = *aggregates.source_outer;
        for (std::size_t p = 0; p < pairs; ++p) {
            for (std::size_t q = 0; q < pairs; ++q) {
                if (g1(p, q) != 0.0) {
                    qp.h(p, q) =
                        outer(source_of[p], source_of[q]) * g1(p, q);
                }
            }
        }
        qp.f = *aggregates.weighted_rhs;
        mean_loads = *aggregates.mean_loads;
    } else {
        for (const linalg::Vector& t : problem.loads) {
            linalg::Vector w(pairs, 0.0);
            for (std::size_t p = 0; p < pairs; ++p) {
                w[p] = t[topo.ingress_link(source_of[p])];
            }
            const linalg::Vector rt = r.multiply_transpose(t);
            for (std::size_t p = 0; p < pairs; ++p) {
                qp.f[p] += w[p] * rt[p];
                if (w[p] == 0.0) continue;
                for (std::size_t q = 0; q < pairs; ++q) {
                    if (g1(p, q) != 0.0) {
                        qp.h(p, q) += w[p] * w[q] * g1(p, q);
                    }
                }
            }
            linalg::axpy(1.0, t, mean_loads);
        }
        linalg::scale(1.0 / static_cast<double>(window), mean_loads);
    }

    if (tiebreak_weight > 0.0) {
        double total_exit = 0.0;
        for (std::size_t m = 0; m < nodes; ++m) {
            total_exit += mean_loads[topo.egress_link(m)];
        }
        double hmax = 0.0;
        for (std::size_t p = 0; p < pairs; ++p) {
            hmax = std::max(hmax, qp.h(p, p));
        }
        const double eps = tiebreak_weight * std::max(hmax, 1e-300);
        for (std::size_t p = 0; p < pairs; ++p) {
            const std::size_t dst = topo.pair_nodes(p).second;
            const double alpha_gravity =
                total_exit > 0.0
                    ? mean_loads[topo.egress_link(dst)] / total_exit
                    : 0.0;
            qp.h(p, p) += eps;
            qp.f[p] += eps * alpha_gravity;
        }
    }
    return qp;
}

/// Fanout estimate through the dense QP (solve_eq_qp_nonneg with E's
/// CSR form as the equality operator).
inline linalg::EqQpNonnegResult fanout_dense(
    const core::SeriesProblem& problem,
    const core::FanoutWindowAggregates& aggregates = {}) {
    const FanoutDenseQp qp = fanout_dense_qp(problem, aggregates);
    linalg::EqQpNonnegOptions options;
    options.equality_operator = &qp.e_sparse;
    return linalg::solve_eq_qp_nonneg(qp.h, qp.f, qp.e, qp.d, options);
}

/// Wraps a symmetric CSR matrix (sorted rows) and an optional added
/// diagonal as a linalg::HessianOperator: apply = SpMV, column = row
/// scatter (row j is column j by symmetry), diag = the stored
/// diagonal.  `a` and `diagonal` must outlive the operator.
inline linalg::HessianOperator csr_hessian(
    const linalg::SparseMatrix& a, const linalg::Vector* diagonal = nullptr) {
    linalg::HessianOperator h;
    h.dimension = a.cols();
    h.apply = [&a](const linalg::Vector& x, linalg::Vector& y) {
        a.multiply_into(x, y);
    };
    h.diag = [&a](linalg::Vector& out) {
        const auto& offsets = a.row_offsets();
        const auto& cols = a.column_indices();
        const auto& vals = a.values();
        for (std::size_t i = 0; i < a.rows(); ++i) {
            double v = 0.0;
            for (std::size_t t = offsets[i]; t < offsets[i + 1]; ++t) {
                if (cols[t] == i) v = vals[t];
            }
            out[i] = v;
        }
    };
    h.column = [&a](std::size_t j, std::vector<double>& scratch,
                    std::vector<std::size_t>& support) {
        support.clear();
        const auto& offsets = a.row_offsets();
        const auto& cols = a.column_indices();
        const auto& vals = a.values();
        for (std::size_t t = offsets[j]; t < offsets[j + 1]; ++t) {
            scratch[cols[t]] = vals[t];
            support.push_back(cols[t]);
        }
    };
    h.diagonal = diagonal;
    return h;
}

}  // namespace tme::reference
