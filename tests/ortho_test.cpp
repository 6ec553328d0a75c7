// Unit + property tests for the five TSQR procedures and BOrth
// (paper §V, Figs. 9-10).
#include <cmath>
#include <limits>
#include <tuple>

#include <gtest/gtest.h>

#include "blas/blas1.hpp"
#include "blas/blas3.hpp"
#include "common/rng.hpp"
#include "ortho/borth.hpp"
#include "ortho/metrics.hpp"
#include "ortho/reduce.hpp"
#include "ortho/tsqr.hpp"
#include "sim/fault.hpp"
#include "sim/machine.hpp"
#include "sim/perf_model.hpp"
#include "sim/trace.hpp"


namespace cagmres::ortho {
namespace {

using sim::DistMultiVec;
using sim::Machine;

std::vector<int> split_rows(int n, int ng) {
  std::vector<int> rows(static_cast<std::size_t>(ng));
  for (int d = 0; d < ng; ++d) {
    rows[static_cast<std::size_t>(d)] =
        static_cast<int>((static_cast<long long>(n) * (d + 1)) / ng -
                         (static_cast<long long>(n) * d) / ng);
  }
  return rows;
}

void fill_random(DistMultiVec& v, Rng& rng) {
  for (int d = 0; d < v.n_parts(); ++d) {
    for (int j = 0; j < v.cols(); ++j) {
      double* col = v.col(d, j);
      for (int i = 0; i < v.local_rows(d); ++i) col[i] = rng.normal();
    }
  }
}

/// Makes columns [c0, c1) a graded, nearly dependent set (like an MPK
/// monomial basis): col_{j+1} = damp * col_j + eps * noise.
void make_graded(DistMultiVec& v, int c0, int c1, double eps, Rng& rng) {
  for (int j = c0 + 1; j < c1; ++j) {
    for (int d = 0; d < v.n_parts(); ++d) {
      double* prev = v.col(d, j - 1);
      double* col = v.col(d, j);
      for (int i = 0; i < v.local_rows(d); ++i) {
        col[i] = 3.0 * prev[i] + eps * rng.normal();
      }
    }
  }
}

struct Param {
  Method method;
  int ng;
};

class TsqrParamTest : public ::testing::TestWithParam<Param> {};

TEST_P(TsqrParamTest, FactorizesRandomPanel) {
  const auto [method, ng] = GetParam();
  Machine m(ng);
  Rng rng(100 + ng);
  const int n = 400, k = 7;
  DistMultiVec v(split_rows(n, ng), k);
  fill_random(v, rng);
  DistMultiVec v0 = v;

  const TsqrResult res = tsqr(m, method, v, 0, k);
  m.sync();  // the host reads the factored panel below
  EXPECT_FALSE(res.breakdown);
  const OrthoErrors e = measure_errors(v, v0, 0, k, res.r);
  EXPECT_LT(e.orthogonality, 1e-10) << to_string(method);
  EXPECT_LT(e.factorization, 1e-12) << to_string(method);
  // R upper triangular.
  for (int j = 0; j < k; ++j) {
    for (int i = j + 1; i < k; ++i) EXPECT_EQ(res.r(i, j), 0.0);
  }
  // Simulated time advanced and at least one message flowed per direction
  // when ng > 1 (single device still reduces through the CPU here).
  EXPECT_GT(m.clock().elapsed(), 0.0);
  EXPECT_GE(m.counters().d2h_msgs, 1);
}

TEST_P(TsqrParamTest, SubrangeLeavesOtherColumnsUntouched) {
  const auto [method, ng] = GetParam();
  Machine m(ng);
  Rng rng(200 + ng);
  const int n = 300, cols = 9;
  DistMultiVec v(split_rows(n, ng), cols);
  fill_random(v, rng);
  DistMultiVec v0 = v;

  tsqr(m, method, v, 3, 8);
  m.sync();  // the host reads the panel below
  for (int d = 0; d < ng; ++d) {
    for (const int j : {0, 1, 2, 8}) {
      for (int i = 0; i < v.local_rows(d); ++i) {
        EXPECT_EQ(v.col(d, j)[i], v0.col(d, j)[i]);
      }
    }
  }
  EXPECT_LT(orthogonality_error(v, 3, 8), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethodsAndDevices, TsqrParamTest,
    ::testing::Values(Param{Method::kMgs, 1}, Param{Method::kMgs, 3},
                      Param{Method::kCgs, 1}, Param{Method::kCgs, 3},
                      Param{Method::kCholQr, 1}, Param{Method::kCholQr, 3},
                      Param{Method::kSvqr, 1}, Param{Method::kSvqr, 3},
                      Param{Method::kCaqr, 1}, Param{Method::kCaqr, 2},
                      Param{Method::kCaqr, 3}),
    [](const ::testing::TestParamInfo<Param>& info) {
      return to_string(info.param.method) + "_ng" +
             std::to_string(info.param.ng);
    });

TEST(TsqrCommunication, MessageCountsMatchFig10) {
  // Fig. 10's GPU-CPU communication column: MGS (s+1)(s+2) messages,
  // CGS 2(s+1), CholQR/SVQR/CAQR 2 — counted per device.
  const int n = 600, k = 6;  // k = s+1
  for (const int ng : {1, 2, 3}) {
    Rng rng(42);
    auto count = [&](Method method) {
      Machine m(ng);
      DistMultiVec v(split_rows(n, ng), k);
      fill_random(v, rng);
      tsqr(m, method, v, 0, k);
      m.sync();  // v dies at scope end; kernels may still reference it
      return m.counters().total_msgs() / ng;
    };
    EXPECT_EQ(count(Method::kMgs), (k) * (k + 1));      // (s+1)(s+2)
    EXPECT_EQ(count(Method::kCgs), 2 * k);              // 2(s+1)
    EXPECT_EQ(count(Method::kCholQr), 2);
    EXPECT_EQ(count(Method::kSvqr), 2);
    EXPECT_EQ(count(Method::kCaqr), 2);
  }
}

TEST(TsqrStability, OrthogonalityDegradesInTheFig10Order) {
  // On an ill-conditioned panel: CAQR ~ eps, MGS ~ eps*kappa,
  // CholQR/SVQR ~ eps*kappa^2. (CGS sits between MGS and CholQR.)
  Machine m(2);
  Rng rng(77);
  const int n = 500, k = 8;
  DistMultiVec v(split_rows(n, 2), k);
  fill_random(v, rng);
  make_graded(v, 0, k, 1e-5, rng);
  const double kappa = condition_number(v, 0, k);
  EXPECT_GT(kappa, 1e4);  // genuinely ill-conditioned

  auto ortho_err = [&](Method method) {
    DistMultiVec work = v;
    Machine mm(2);
    tsqr(mm, method, work, 0, k);
    mm.sync();  // the host reads the panel below
    return orthogonality_error(work, 0, k);
  };
  const double e_caqr = ortho_err(Method::kCaqr);
  const double e_mgs = ortho_err(Method::kMgs);
  const double e_chol = ortho_err(Method::kCholQr);
  EXPECT_LT(e_caqr, 1e-12);
  EXPECT_LT(e_caqr, e_mgs);
  EXPECT_LT(e_mgs, e_chol + 1e-16);
}

TEST(CholQr, BreakdownOnRankDeficientPanelIsReported) {
  Machine m(1);
  Rng rng(88);
  const int n = 200, k = 5;
  DistMultiVec v(split_rows(n, 1), k);
  fill_random(v, rng);
  // Make column 3 an exact copy of column 1: Gram matrix is singular.
  blas::copy(n, v.col(0, 1), v.col(0, 3));

  TsqrOptions opts;
  const TsqrResult res = tsqr(m, Method::kCholQr, v, 0, k, opts);
  m.sync();  // v dies before m at scope end
  EXPECT_TRUE(res.breakdown);  // shifted retry succeeded but flagged

  // With the fallback disabled it must throw instead.
  DistMultiVec v2(split_rows(n, 1), k);
  fill_random(v2, rng);
  blas::copy(n, v2.col(0, 1), v2.col(0, 3));
  opts.cholqr_shift_on_breakdown = false;
  EXPECT_THROW(tsqr(m, Method::kCholQr, v2, 0, k, opts), Error);
}

TEST(Svqr, HandlesRankDeficientPanelWithoutBreakdown) {
  Machine m(2);
  Rng rng(89);
  const int n = 300, k = 5;
  DistMultiVec v(split_rows(n, 2), k);
  fill_random(v, rng);
  for (int d = 0; d < 2; ++d) blas::copy(v.local_rows(d), v.col(d, 0), v.col(d, 2));

  const TsqrResult res = tsqr(m, Method::kSvqr, v, 0, k);
  m.sync();  // the host reads the panel below
  EXPECT_FALSE(res.breakdown);
  // Q spans the panel; R reproduces V on the numerical rank.
  DistMultiVec v0 = v;  // cannot compare factorization on singular input
  // but Q must still be close to orthonormal on its numerical range:
  EXPECT_LT(orthogonality_error(v, 0, 2), 1e-8);  // leading full-rank part
}

TEST(Svqr, DiagonalScalingToggleStillFactors) {
  Machine m(1);
  Rng rng(90);
  const int n = 250, k = 6;
  DistMultiVec v(split_rows(n, 1), k);
  fill_random(v, rng);
  // Badly scaled columns.
  for (int j = 0; j < k; ++j) {
    blas::scal(n, std::pow(10.0, j - 3), v.col(0, j));
  }
  DistMultiVec v0 = v;
  TsqrOptions opts;
  opts.svqr_scale_diagonal = false;
  const TsqrResult r1 = tsqr(m, Method::kSvqr, v, 0, k, opts);
  m.sync();  // the host reads the panel below
  const OrthoErrors e1 = measure_errors(v, v0, 0, k, r1.r);
  EXPECT_LT(e1.orthogonality, 1e-9);

  DistMultiVec w = v0;
  opts.svqr_scale_diagonal = true;
  const TsqrResult r2 = tsqr(m, Method::kSvqr, w, 0, k, opts);
  m.sync();  // the host reads the panel below
  const OrthoErrors e2 = measure_errors(w, v0, 0, k, r2.r);
  EXPECT_LT(e2.orthogonality, 1e-9);
  // The paper's observation: scaling does not hurt, usually helps the
  // element-wise error.
  EXPECT_LE(e2.elementwise, e1.elementwise * 10.0);
}

TEST(Borth, CgsProjectsBlockAgainstPreviousBasis) {
  Machine m(3);
  Rng rng(91);
  const int n = 450, prev = 5, blk = 4;
  DistMultiVec v(split_rows(n, 3), prev + blk);
  fill_random(v, rng);
  // Orthonormalize the first `prev` columns first.
  tsqr(m, Method::kCaqr, v, 0, prev);
  DistMultiVec before = v;

  const blas::DMat c = borth(m, BorthMethod::kCgs, v, prev, prev + blk);
  m.sync();  // the host reads the projected block below
  EXPECT_EQ(c.rows(), prev);
  EXPECT_EQ(c.cols(), blk);
  // The block is now orthogonal to the previous basis.
  for (int l = 0; l < prev; ++l) {
    for (int j = prev; j < prev + blk; ++j) {
      double acc = 0.0;
      for (int d = 0; d < 3; ++d) {
        acc += blas::dot(v.local_rows(d), v.col(d, l), v.col(d, j));
      }
      EXPECT_NEAR(acc, 0.0, 1e-10);
    }
  }
  // And Q_prev * C + V_new == V_old (the projection is exact bookkeeping).
  for (int d = 0; d < 3; ++d) {
    for (int j = 0; j < blk; ++j) {
      for (int i = 0; i < v.local_rows(d); ++i) {
        double recon = v.col(d, prev + j)[i];
        for (int l = 0; l < prev; ++l) recon += v.col(d, l)[i] * c(l, j);
        EXPECT_NEAR(recon, before.col(d, prev + j)[i], 1e-10);
      }
    }
  }
}

TEST(Borth, MgsMatchesCgsNumerically) {
  const int n = 360, prev = 6, blk = 3;
  Rng rng(92);
  Machine m1(2), m2(2);
  DistMultiVec v(split_rows(n, 2), prev + blk);
  fill_random(v, rng);
  tsqr(m1, Method::kCaqr, v, 0, prev);
  DistMultiVec v_cgs = v, v_mgs = v;

  const blas::DMat c1 = borth(m1, BorthMethod::kCgs, v_cgs, prev, prev + blk);
  const blas::DMat c2 = borth(m2, BorthMethod::kMgs, v_mgs, prev, prev + blk);
  m1.sync();  // the host compares the updated blocks below
  m2.sync();
  for (int j = 0; j < blk; ++j) {
    for (int l = 0; l < prev; ++l) {
      EXPECT_NEAR(c1(l, j), c2(l, j), 1e-9);
    }
    for (int d = 0; d < 2; ++d) {
      for (int i = 0; i < v.local_rows(d); ++i) {
        EXPECT_NEAR(v_cgs.col(d, prev + j)[i], v_mgs.col(d, prev + j)[i],
                    1e-9);
      }
    }
  }
  // Communication: MGS pays one reduction per previous column, CGS one.
  EXPECT_GT(m2.counters().total_msgs(), m1.counters().total_msgs());
}

TEST(Borth, EmptyPreviousBasisIsNoop) {
  Machine m(1);
  Rng rng(93);
  DistMultiVec v(split_rows(100, 1), 4);
  fill_random(v, rng);
  DistMultiVec v0 = v;
  const blas::DMat c = borth(m, BorthMethod::kCgs, v, 0, 4);
  EXPECT_EQ(c.rows(), 0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(v.col(0, 2)[i], v0.col(0, 2)[i]);
}

/// Pins the BOrth reduction schedule: the per-device event chain and the
/// straggler-last fold order may reorder charged time, never arithmetic.
/// Coefficients, the projected block and the charged time must be bitwise
/// identical across {0, 2 host workers} for both flavors.
TEST(Borth, BitwiseIdenticalAcrossWorkers) {
  const int n = 480, prev = 6, blk = 4, ng = 3;
  for (const BorthMethod method : {BorthMethod::kCgs, BorthMethod::kMgs}) {
    std::vector<double> ref;  // flattened C + projected block
    double ref_seconds = -1.0;
    for (const int workers : {0, 2}) {
      Machine m(ng);
      m.set_host_workers(workers);
      Rng rng(97);
      DistMultiVec v(split_rows(n, ng), prev + blk);
      fill_random(v, rng);
      tsqr(m, Method::kCaqr, v, 0, prev);
      m.sync();
      const double t0 = m.clock().elapsed();
      const blas::DMat c = borth(m, method, v, prev, prev + blk);
      m.sync();
      const double borth_seconds = m.clock().elapsed() - t0;
      std::vector<double> sig;
      for (int j = 0; j < blk; ++j) {
        for (int l = 0; l < prev; ++l) sig.push_back(c(l, j));
      }
      for (int d = 0; d < ng; ++d) {
        for (int j = prev; j < prev + blk; ++j) {
          const double* col = v.col(d, j);
          for (int i = 0; i < v.local_rows(d); ++i) sig.push_back(col[i]);
        }
      }
      if (ref.empty()) {
        ref = sig;
        ref_seconds = borth_seconds;
      } else {
        EXPECT_EQ(ref, sig) << to_string(method) << " workers " << workers;
        EXPECT_EQ(ref_seconds, borth_seconds) << to_string(method);
      }
    }
  }
}

TEST(BlockScrub, OneColumnNormsKernelPerDevice) {
  // The recovery layer's block scrub launches one DOT-class kernel per
  // device for the whole block, not one per column.
  const int ng = 3, n = 300, c0 = 2, c1 = 7;
  DistMultiVec v(split_rows(n, ng), 8);
  Rng rng(61);
  fill_random(v, rng);
  Machine m(ng);
  EXPECT_TRUE(block_norms_finite(m, v, c0, c1));
  EXPECT_EQ(m.counters().kernel_count[static_cast<std::size_t>(
                sim::Kernel::kDot)],
            ng);
  for (int d = 0; d < ng; ++d) {
    EXPECT_EQ(m.counters().dev_kernels[static_cast<std::size_t>(d)], 1);
    EXPECT_DOUBLE_EQ(m.counters().dev_flops[static_cast<std::size_t>(d)],
                     2.0 * v.local_rows(d) * (c1 - c0));
  }
  // A NaN in the data shows up in its column norm.
  v.col(2, c1 - 1)[5] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(block_norms_finite(m, v, c0, c1));
}

TEST(BlockScrub, ScheduledNanOnTheNormsKernelFailsTheScrub) {
  // Device 1's first op is its column-norms kernel: the single latch
  // poisons every partial norm of that device, so the clean block fails.
  const int ng = 3, n = 300;
  DistMultiVec v(split_rows(n, ng), 6);
  Rng rng(67);
  fill_random(v, rng);
  Machine m(ng);
  sim::parse_fault_spec("nan:d1@op=1", m.fault_injector());
  EXPECT_FALSE(block_norms_finite(m, v, 0, 6));
  EXPECT_EQ(m.kernel_faults_consumed(), 1);
  EXPECT_EQ(m.fault_injector().stats().kernel_nans, 1);
  // The scrub only reads the block: once the one-shot event has fired,
  // the next call passes.
  EXPECT_TRUE(block_norms_finite(m, v, 0, 6));
}

TEST(Metrics, ConditionNumberOfOrthonormalIsOne) {
  Machine m(2);
  Rng rng(94);
  DistMultiVec v(split_rows(320, 2), 5);
  fill_random(v, rng);
  tsqr(m, Method::kCaqr, v, 0, 5);
  EXPECT_NEAR(condition_number(v, 0, 5), 1.0, 1e-6);
}

TEST(Metrics, ConditionNumberOfDependentColumnsIsInfNotNan) {
  // Roundoff pushes the Gram matrix of exactly dependent columns to a tiny
  // negative eigenvalue; before the clamp, sqrt turned that into NaN and
  // every kappa comparison silently answered false.
  Rng rng(95);
  DistMultiVec v(split_rows(200, 2), 3);
  fill_random(v, rng);
  for (int d = 0; d < 2; ++d) {  // column 2 := column 0 (rank 2 panel)
    for (int i = 0; i < v.local_rows(d); ++i) {
      v.col(d, 2)[i] = v.col(d, 0)[i];
    }
  }
  const double kappa = condition_number(v, 0, 3);
  EXPECT_FALSE(std::isnan(kappa));
  EXPECT_GT(kappa, 1e7);  // inf or huge, but usable in comparisons
}

TEST(Metrics, ConditionNumberOfPoisonedPanelIsInfNotNan) {
  Rng rng(96);
  DistMultiVec v(split_rows(200, 2), 3);
  fill_random(v, rng);
  v.col(0, 1)[7] = std::numeric_limits<double>::quiet_NaN();
  const double kappa = condition_number(v, 0, 3);
  EXPECT_FALSE(std::isnan(kappa));
  EXPECT_TRUE(std::isinf(kappa));
}

TEST(Metrics, ChargedConditionNumberMatchesFreeAndChargesTime) {
  sim::Machine m(2);
  Rng rng(97);
  DistMultiVec v(split_rows(320, 2), 4);
  fill_random(v, rng);
  const double before = m.clock().elapsed();
  const double charged = condition_number_charged(m, v, 0, 4);
  EXPECT_DOUBLE_EQ(charged, condition_number(v, 0, 4));
  EXPECT_GT(m.clock().elapsed(), before);  // honest simulated cost
}

TEST(HierReduce, OneInterNodeMessagePerNodeAndTwoLevelFoldOrder) {
  // A bare reduction of 8 partials on a 2x4 machine: node 1 folds on its
  // leader and ships exactly one inter-node message (node 0 hosts the
  // coordinating CPU — its subtotal never touches the network). The sum
  // must be bitwise the two-level tree: each node's subtotal in fold order
  // (ascending device busy, so the pre-loaded device 1 comes last), then
  // the subtotals with the node holding the global straggler last.
  const int len = 13;
  std::vector<std::vector<double>> parts(
      8, std::vector<double>(static_cast<std::size_t>(len)));
  Rng rng(11);
  for (auto& p : parts) {
    for (double& x : p) x = rng.normal();
  }
  Machine m(sim::Topology{2, 4});
  m.charge_device(1, sim::Kernel::kAxpy, 1e9, 8e9);  // the straggler
  std::vector<double> sum(static_cast<std::size_t>(len), -1.0);
  const std::int64_t before = m.counters().net_msgs;
  detail::reduce_to_host(m, parts, len, sum.data());
  m.sync();
  EXPECT_EQ(m.counters().net_msgs - before, 1);  // node 1's leader only

  const auto subtotal = [&](std::initializer_list<int> members, int j) {
    double s = 0.0;
    for (const int d : members) s += parts[static_cast<std::size_t>(d)][j];
    return s;
  };
  for (int j = 0; j < len; ++j) {
    double want = 0.0;
    want += subtotal({4, 5, 6, 7}, j);  // node 1 finishes first
    want += subtotal({0, 2, 3, 1}, j);  // node 0 holds the straggler
    EXPECT_EQ(sum[static_cast<std::size_t>(j)], want) << "j=" << j;
  }
}

TEST(Parse, MethodNames) {
  EXPECT_EQ(parse_method("cholqr"), Method::kCholQr);
  EXPECT_EQ(to_string(Method::kSvqr), "svqr");
  EXPECT_THROW(parse_method("qr"), Error);
  EXPECT_EQ(parse_borth("mgs"), BorthMethod::kMgs);
  EXPECT_THROW(parse_borth("cholqr"), Error);
}

}  // namespace
}  // namespace cagmres::ortho
