#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "la/lapack.hpp"
#include "la/verify.hpp"

namespace bsr::la {
namespace {

TEST(Potf2, FactorsSmallSpd) {
  Rng rng(1);
  Matrix<double> a(8, 8);
  fill_spd(a.view(), rng);
  const Matrix<double> a0 = a;
  EXPECT_EQ(potf2(a.view()), 0);
  EXPECT_LT(cholesky_residual(a0.view(), a.view().as_const()), 1e-12);
}

TEST(Potf2, DetectsNonPositiveDefinite) {
  Matrix<double> a(2, 2);
  a(0, 0) = 1;
  a(1, 1) = -1;  // not PD
  EXPECT_GT(potf2(a.view()), 0);
}

class PotrfSizes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(PotrfSizes, BlockedMatchesResidual) {
  const auto [n, nb] = GetParam();
  Rng rng(n * 31 + nb);
  Matrix<double> a(n, n);
  fill_spd(a.view(), rng);
  const Matrix<double> a0 = a;
  EXPECT_EQ(potrf(a.view(), nb), 0);
  EXPECT_LT(cholesky_residual(a0.view(), a.view().as_const()), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PotrfSizes,
                         ::testing::Values(std::pair{16, 4}, std::pair{32, 8},
                                           std::pair{50, 16}, std::pair{64, 64},
                                           std::pair{100, 32},
                                           std::pair{128, 17}));

TEST(Getf2, FactorsAndPivots) {
  Rng rng(2);
  Matrix<double> a(12, 12);
  fill_random(a.view(), rng);
  const Matrix<double> a0 = a;
  std::vector<idx> ipiv;
  EXPECT_EQ(getf2(a.view(), ipiv), 0);
  EXPECT_EQ(ipiv.size(), 12u);
  EXPECT_LT(lu_residual(a0.view(), a.view().as_const(), ipiv), 1e-12);
}

TEST(Getf2, TallPanel) {
  Rng rng(3);
  Matrix<double> a(40, 8);
  fill_random(a.view(), rng);
  const Matrix<double> a0 = a;
  std::vector<idx> ipiv;
  EXPECT_EQ(getf2(a.view(), ipiv), 0);
  EXPECT_EQ(ipiv.size(), 8u);
  EXPECT_LT(lu_residual(a0.view(), a.view().as_const(), ipiv), 1e-12);
}

TEST(Getf2, ReportsSingular) {
  Matrix<double> a(3, 3);  // all zeros
  std::vector<idx> ipiv;
  EXPECT_GT(getf2(a.view(), ipiv), 0);
}

class GetrfSizes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(GetrfSizes, BlockedResidualSmall) {
  const auto [n, nb] = GetParam();
  Rng rng(n * 7 + nb);
  Matrix<double> a(n, n);
  fill_random(a.view(), rng);
  const Matrix<double> a0 = a;
  std::vector<idx> ipiv;
  EXPECT_EQ(getrf(a.view(), nb, ipiv), 0);
  EXPECT_LT(lu_residual(a0.view(), a.view().as_const(), ipiv), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Sweep, GetrfSizes,
                         ::testing::Values(std::pair{16, 4}, std::pair{32, 8},
                                           std::pair{48, 12}, std::pair{64, 64},
                                           std::pair{96, 32},
                                           std::pair{120, 13}));

TEST(Getrf, PivotingBeatsNaiveOnHardMatrix) {
  // A matrix needing row interchanges: tiny leading pivot.
  Matrix<double> a(2, 2);
  a(0, 0) = 1e-18;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 1.0;
  const Matrix<double> a0 = a;
  std::vector<idx> ipiv;
  EXPECT_EQ(getrf(a.view(), 1, ipiv), 0);
  EXPECT_EQ(ipiv[0], 1);  // swapped
  EXPECT_LT(lu_residual(a0.view(), a.view().as_const(), ipiv), 1e-14);
}

TEST(Larfg, ZeroTailGivesZeroTau) {
  double alpha = 3.0;
  double tau = -1.0;
  std::vector<double> x = {0.0, 0.0};
  larfg<double>(3, alpha, x.data(), 1, tau);
  EXPECT_DOUBLE_EQ(tau, 0.0);
  EXPECT_DOUBLE_EQ(alpha, 3.0);
}

TEST(Geqr2, SmallQrResidual) {
  Rng rng(4);
  Matrix<double> a(10, 6);
  fill_random(a.view(), rng);
  const Matrix<double> a0 = a;
  std::vector<double> tau;
  EXPECT_EQ(geqr2(a.view(), tau), 0);
  EXPECT_EQ(tau.size(), 6u);
  EXPECT_LT(qr_residual(a0.view(), a.view().as_const(), tau), 1e-12);
}

TEST(Geqr2, QIsOrthogonal) {
  Rng rng(5);
  Matrix<double> a(12, 12);
  fill_random(a.view(), rng);
  std::vector<double> tau;
  geqr2(a.view(), tau);
  const Matrix<double> q = form_q(a.view().as_const(), tau);
  EXPECT_LT(orthogonality_error(q.view().as_const()), 1e-12);
}

class GeqrfSizes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(GeqrfSizes, BlockedResidualSmall) {
  const auto [n, nb] = GetParam();
  Rng rng(n * 13 + nb);
  Matrix<double> a(n, n);
  fill_random(a.view(), rng);
  const Matrix<double> a0 = a;
  std::vector<double> tau;
  EXPECT_EQ(geqrf(a.view(), nb, tau), 0);
  EXPECT_LT(qr_residual(a0.view(), a.view().as_const(), tau), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Sweep, GeqrfSizes,
                         ::testing::Values(std::pair{16, 4}, std::pair{32, 8},
                                           std::pair{48, 16}, std::pair{64, 64},
                                           std::pair{80, 20},
                                           std::pair{72, 11}));

TEST(Geqrf, TallMatrix) {
  Rng rng(6);
  Matrix<double> a(60, 20);
  fill_random(a.view(), rng);
  const Matrix<double> a0 = a;
  std::vector<double> tau;
  EXPECT_EQ(geqrf(a.view(), 8, tau), 0);
  EXPECT_LT(qr_residual(a0.view(), a.view().as_const(), tau), 1e-12);
}

TEST(BlockedVsUnblocked, LuSameResultModuloRounding) {
  Rng rng(7);
  Matrix<double> a(40, 40);
  fill_random(a.view(), rng);
  Matrix<double> b = a;
  std::vector<idx> p1;
  std::vector<idx> p2;
  getf2(a.view(), p1);
  getrf(b.view(), 8, p2);
  // Pivot sequences must agree (same partial-pivoting rule).
  EXPECT_EQ(p1, p2);
  double max_diff = 0;
  for (idx j = 0; j < 40; ++j) {
    for (idx i = 0; i < 40; ++i) {
      max_diff = std::max(max_diff, std::abs(a(i, j) - b(i, j)));
    }
  }
  EXPECT_LT(max_diff, 1e-10);
}


/// log|det A| read off the diagonal of a packed factor: sum of log|f_ii|,
/// times `power` (2 for a Cholesky factor, whose L L^T squares it).
template <typename T>
double log_abs_det(const Matrix<T>& factored, double power) {
  double sum = 0.0;
  for (idx i = 0; i < factored.rows(); ++i) {
    sum += std::log(std::abs(static_cast<double>(factored(i, i))));
  }
  return power * sum;
}

/// Cholesky, LU and QR of the same SPD matrix, each checked by its
/// reconstruction residual; returns their three log-determinants.
template <typename T>
std::array<double, 3> factor_all_three(int n, double tol) {
  Rng rng(100 + n);
  Matrix<T> a(n, n);
  fill_spd(a.view(), rng);

  Matrix<T> l = a;
  EXPECT_EQ(potrf(l.view(), 8), 0);
  EXPECT_LT(cholesky_residual(a.view().as_const(), l.view().as_const()), tol);

  Matrix<T> lu = a;
  std::vector<idx> ipiv;
  EXPECT_EQ(getrf(lu.view(), 8, ipiv), 0);
  EXPECT_LT(lu_residual(a.view().as_const(), lu.view().as_const(), ipiv), tol);

  Matrix<T> qr = a;
  std::vector<T> tau;
  EXPECT_EQ(geqrf(qr.view(), 8, tau), 0);
  EXPECT_LT(qr_residual(a.view().as_const(), qr.view().as_const(), tau), tol);

  return {log_abs_det(l, 2.0), log_abs_det(lu, 1.0), log_abs_det(qr, 1.0)};
}

class FactorizationAgreement : public ::testing::TestWithParam<int> {};

TEST_P(FactorizationAgreement, AllThreeFactorizationsAgree) {
  // |det A| = prod L_ii^2 = prod |U_ii| = prod |R_ii|: the three
  // factorizations of one SPD matrix must agree on it.
  const int n = GetParam();
  const auto [chol, lu, qr] = factor_all_three<double>(n, 1e-12);
  const double tol = 1e-10 * std::max(1.0, std::abs(chol));
  EXPECT_NEAR(lu, chol, tol);
  EXPECT_NEAR(qr, chol, tol);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FactorizationAgreement,
                         ::testing::Values(8, 16, 33, 64));

class FloatFactorizations : public ::testing::TestWithParam<int> {};

TEST_P(FloatFactorizations, MatchDoubleAtSinglePrecision) {
  // The float instantiations (the numeric path's single-precision mode)
  // reconstruct A to single-precision accuracy and agree with double.
  const int n = GetParam();
  const double eps = std::numeric_limits<float>::epsilon();
  const auto f = factor_all_three<float>(n, 8.0 * n * eps);
  const auto d = factor_all_three<double>(n, 1e-12);
  for (std::size_t i = 0; i < f.size(); ++i) {
    EXPECT_NEAR(f[i], d[i], 8.0 * n * eps * std::max(1.0, std::abs(d[i])))
        << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FloatFactorizations,
                         ::testing::Values(8, 16, 33, 64));

}  // namespace
}  // namespace bsr::la
