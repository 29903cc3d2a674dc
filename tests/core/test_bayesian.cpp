#include "core/bayesian.hpp"

#include <gtest/gtest.h>

#include "core/metrics.hpp"
#include "reference/dense_reference.hpp"
#include "test_helpers.hpp"

namespace tme::core {
namespace {

using testing::SmallNetwork;
using testing::tiny_network;

TEST(Bayesian, TruePriorIsFixedPoint) {
    const SmallNetwork net = tiny_network();
    BayesianOptions options;
    options.regularization = 100.0;
    const linalg::Vector est =
        bayesian_estimate(net.snapshot(), net.truth, options);
    for (std::size_t p = 0; p < net.truth.size(); ++p) {
        EXPECT_NEAR(est[p], net.truth[p], 1e-6);
    }
}

TEST(Bayesian, SmallRegularizationSticksToPrior) {
    const SmallNetwork net = tiny_network();
    linalg::Vector prior(net.truth.size(), 1.0);
    BayesianOptions options;
    options.regularization = 1e-9;  // w huge -> prior dominates
    const linalg::Vector est =
        bayesian_estimate(net.snapshot(), prior, options);
    for (std::size_t p = 0; p < prior.size(); ++p) {
        EXPECT_NEAR(est[p], prior[p], 1e-3);
    }
}

TEST(Bayesian, LargeRegularizationMatchesLoads) {
    const SmallNetwork net = tiny_network();
    linalg::Vector prior(net.truth.size(), 1.0);
    BayesianOptions options;
    options.regularization = 1e8;
    const linalg::Vector est =
        bayesian_estimate(net.snapshot(), prior, options);
    const linalg::Vector pred = net.routing.multiply(est);
    const SnapshotProblem snap = net.snapshot();
    for (std::size_t l = 0; l < pred.size(); ++l) {
        EXPECT_NEAR(pred[l], snap.loads[l], 1e-4 * (1.0 + snap.loads[l]));
    }
}

TEST(Bayesian, EstimatesAreNonNegative) {
    const SmallNetwork net = tiny_network(9);
    // Deliberately bad prior with big values.
    linalg::Vector prior(net.truth.size(), 10.0);
    const linalg::Vector est = bayesian_estimate(net.snapshot(), prior);
    for (double v : est) EXPECT_GE(v, 0.0);
}

TEST(Bayesian, ImprovesOnScaledPrior) {
    // Prior = truth * 0.5: the link data fixes most of the scale error.
    const SmallNetwork net = tiny_network(5);
    linalg::Vector prior = net.truth;
    for (double& v : prior) v *= 0.5;
    BayesianOptions options;
    options.regularization = 1e6;
    const linalg::Vector est =
        bayesian_estimate(net.snapshot(), prior, options);
    EXPECT_LT(mre_at_coverage(net.truth, est, 0.9),
              mre_at_coverage(net.truth, prior, 0.9));
}

TEST(Bayesian, Validation) {
    const SmallNetwork net = tiny_network();
    EXPECT_THROW(
        bayesian_estimate(net.snapshot(), linalg::Vector(3, 1.0)),
        std::invalid_argument);
    BayesianOptions bad;
    bad.regularization = 0.0;
    EXPECT_THROW(bayesian_estimate(net.snapshot(), net.truth, bad),
                 std::invalid_argument);
}

TEST(Bayesian, WorksWithoutTopology) {
    // The Bayesian estimator needs only (R, t).
    const SmallNetwork net = tiny_network();
    SnapshotProblem snap = net.snapshot();
    snap.topo = nullptr;
    const linalg::Vector est = bayesian_estimate(snap, net.truth);
    EXPECT_EQ(est.size(), net.truth.size());
}

class BayesianMonotonicity : public ::testing::TestWithParam<unsigned> {};

TEST_P(BayesianMonotonicity, ResidualDecreasesWithRegularization) {
    const SmallNetwork net = tiny_network(GetParam());
    linalg::Vector prior(net.truth.size(), 1.0);
    const SnapshotProblem snap = net.snapshot();
    double prev_resid = 1e300;
    for (double lam : {1e-3, 1e0, 1e3, 1e6}) {
        BayesianOptions options;
        options.regularization = lam;
        const linalg::Vector est = bayesian_estimate(snap, prior, options);
        const double resid =
            linalg::nrm2(linalg::sub(net.routing.multiply(est), snap.loads));
        EXPECT_LE(resid, prev_resid + 1e-9);
        prev_resid = resid;
    }
}

TEST(Bayesian, OperatorPathMatchesDenseReference) {
    // At paper scale the Gram-free solve is the factored passive-set
    // NNLS over on-demand Gram columns: bit-for-bit the dense NNLS over
    // R'R, cold and warm-started.
    const SmallNetwork net = core::testing::europe_network();
    const SnapshotProblem snap = net.snapshot();
    linalg::Vector prior(net.truth.size(), 1.0);
    const BayesianOptions options;
    const linalg::Vector dense_path =
        reference::bayesian_dense(snap, prior, options.regularization);
    const linalg::Vector operator_path = bayesian_estimate(snap, prior);
    ASSERT_EQ(operator_path.size(), dense_path.size());
    for (std::size_t p = 0; p < dense_path.size(); ++p) {
        EXPECT_EQ(operator_path[p], dense_path[p]) << "pair " << p;
    }

    BayesianOptions warm = options;
    warm.warm_start = &operator_path;
    const linalg::Vector warm_path = bayesian_estimate(snap, prior, warm);
    const linalg::Vector warm_dense = reference::bayesian_dense(
        snap, prior, options.regularization, &operator_path);
    for (std::size_t p = 0; p < dense_path.size(); ++p) {
        EXPECT_EQ(warm_path[p], warm_dense[p]) << "pair " << p;
    }

    // Routing transpose of the wrong shape is rejected.
    const linalg::SparseMatrix wrong(3, 3, {});
    BayesianOptions bad;
    bad.shared_routing_transpose = &wrong;
    EXPECT_THROW(bayesian_estimate(snap, prior, bad),
                 std::invalid_argument);
}

TEST(Bayesian, MapQpMatchesNnls) {
    // The MAP normal system G + (1/lambda) I as a bound-constrained QP
    // (the operator QP's shape above dense_kkt_limit), here over the
    // CSR Gram in the QP's exact-LU regime: the system is strictly
    // convex, so the QP lands on the NNLS minimizer to solver precision.
    const SmallNetwork net = core::testing::europe_network();
    const SnapshotProblem snap = net.snapshot();
    linalg::Vector prior(net.truth.size(), 1.0);
    const double lambda = BayesianOptions{}.regularization;
    const linalg::Vector dense_path =
        reference::bayesian_dense(snap, prior, lambda);

    const linalg::SparseMatrix gram = linalg::gram_sparse_csr(net.routing);
    const double w = 1.0 / lambda;
    const linalg::Vector shift(net.truth.size(), w);
    linalg::Vector rhs = net.routing.multiply_transpose(snap.loads);
    for (std::size_t p = 0; p < rhs.size(); ++p) rhs[p] += w * prior[p];
    const linalg::HessianOperator h = reference::csr_hessian(gram, &shift);
    const linalg::EqQpNonnegResult qp = linalg::solve_eq_qp_nonneg_operator(
        h, rhs, linalg::SparseMatrix(), {});
    ASSERT_EQ(qp.x.size(), dense_path.size());
    EXPECT_EQ(qp.cg_iterations, 0u);
    double scale = 1.0;
    for (double v : dense_path) scale = std::max(scale, v);
    for (std::size_t p = 0; p < dense_path.size(); ++p) {
        EXPECT_NEAR(qp.x[p], dense_path[p], 1e-9 * scale) << "pair " << p;
    }

    // Warm start through the QP: same minimizer.
    linalg::EqQpNonnegOptions warm;
    warm.warm_start = &qp.x;
    const linalg::EqQpNonnegResult warm_qp =
        linalg::solve_eq_qp_nonneg_operator(h, rhs, linalg::SparseMatrix(),
                                            {}, warm);
    for (std::size_t p = 0; p < dense_path.size(); ++p) {
        EXPECT_NEAR(warm_qp.x[p], dense_path[p], 1e-9 * scale);
    }
}

TEST(Bayesian, ForcedCgPathStaysClose) {
    // dense_kkt_limit = 0 exercises the operator QP's projected-CG
    // branch even at paper scale; the strictly convex minimizer is
    // unchanged.
    const SmallNetwork net = tiny_network(3);
    const SnapshotProblem snap = net.snapshot();
    linalg::Vector prior(net.truth.size(), 1.0);
    const linalg::Vector dense_path =
        reference::bayesian_dense(snap, prior, BayesianOptions{}.regularization);
    BayesianOptions options;
    options.qp.dense_kkt_limit = 0;
    const linalg::Vector cg_path = bayesian_estimate(snap, prior, options);
    double scale = 1.0;
    for (double v : dense_path) scale = std::max(scale, v);
    for (std::size_t p = 0; p < dense_path.size(); ++p) {
        EXPECT_NEAR(cg_path[p], dense_path[p], 1e-6 * scale);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BayesianMonotonicity,
                         ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace tme::core
