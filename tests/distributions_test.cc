#include "src/common/distributions.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace omega {
namespace {

// Empirical mean over many samples should match the analytic Mean() for each
// distribution family (property-style check, parameterized over instances).
struct MeanCase {
  const char* name;
  std::shared_ptr<const Distribution> dist;
  double tolerance_frac;  // relative tolerance on the mean
};

class DistributionMeanTest : public ::testing::TestWithParam<MeanCase> {};

TEST_P(DistributionMeanTest, EmpiricalMeanMatchesAnalytic) {
  const MeanCase& c = GetParam();
  Rng rng(12345);
  const int n = 400000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    sum += c.dist->Sample(rng);
  }
  const double empirical = sum / n;
  const double analytic = c.dist->Mean();
  EXPECT_NEAR(empirical, analytic,
              std::abs(analytic) * c.tolerance_frac + 1e-9)
      << "for " << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Families, DistributionMeanTest,
    ::testing::Values(
        MeanCase{"constant", std::make_shared<ConstantDist>(3.5), 0.0},
        MeanCase{"uniform", std::make_shared<UniformDist>(2.0, 10.0), 0.01},
        MeanCase{"exponential", std::make_shared<ExponentialDist>(7.0), 0.02},
        MeanCase{"lognormal_narrow", std::make_shared<LogNormalDist>(5.0, 0.5),
                 0.02},
        MeanCase{"lognormal_wide", std::make_shared<LogNormalDist>(100.0, 1.5),
                 0.10},
        MeanCase{"pareto", std::make_shared<BoundedParetoDist>(1.0, 100.0, 1.5),
                 0.03},
        MeanCase{"pareto_heavy",
                 std::make_shared<BoundedParetoDist>(1.0, 1000.0, 0.9), 0.10}),
    [](const ::testing::TestParamInfo<MeanCase>& info) {
      return info.param.name;
    });

TEST(ExponentialDistTest, AllSamplesPositive) {
  ExponentialDist d(2.0);
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(d.Sample(rng), 0.0);
  }
}

TEST(BoundedParetoDistTest, SamplesWithinBounds) {
  BoundedParetoDist d(2.0, 50.0, 1.1);
  Rng rng(2);
  for (int i = 0; i < 20000; ++i) {
    const double x = d.Sample(rng);
    EXPECT_GE(x, 2.0 - 1e-9);
    EXPECT_LE(x, 50.0 + 1e-9);
  }
}

TEST(BoundedParetoDistTest, HeavyTailHasLargeSamples) {
  BoundedParetoDist d(1.0, 10000.0, 0.8);
  Rng rng(3);
  double max_seen = 0.0;
  for (int i = 0; i < 100000; ++i) {
    max_seen = std::max(max_seen, d.Sample(rng));
  }
  EXPECT_GT(max_seen, 1000.0);
}

TEST(LogNormalDistTest, MedianBelowMean) {
  // Log-normals are right-skewed: the median exp(mu) is below the mean.
  LogNormalDist d(10.0, 1.0);
  Rng rng(4);
  std::vector<double> samples;
  for (int i = 0; i < 100001; ++i) {
    samples.push_back(d.Sample(rng));
  }
  std::sort(samples.begin(), samples.end());
  EXPECT_LT(samples[samples.size() / 2], 10.0);
}

TEST(EmpiricalDistTest, SamplesFollowCdfPoints) {
  EmpiricalDist d({{1.0, 0.25}, {2.0, 0.5}, {10.0, 1.0}});
  Rng rng(5);
  int below_2 = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = d.Sample(rng);
    EXPECT_GE(x, 1.0 - 1e-9);
    EXPECT_LE(x, 10.0 + 1e-9);
    if (x <= 2.0) {
      ++below_2;
    }
  }
  EXPECT_NEAR(static_cast<double>(below_2) / n, 0.5, 0.01);
}

TEST(EmpiricalDistTest, MeanOfPiecewiseLinear) {
  // Uniform over [0, 10] expressed as an empirical CDF: mean 5.
  EmpiricalDist d({{0.0, 0.0}, {10.0, 1.0}});
  EXPECT_NEAR(d.Mean(), 5.0, 1e-9);
}

TEST(ClampedDistTest, RespectsBounds) {
  auto inner = std::make_shared<LogNormalDist>(10.0, 2.0);
  ClampedDist d(inner, 1.0, 20.0);
  Rng rng(6);
  for (int i = 0; i < 50000; ++i) {
    const double x = d.Sample(rng);
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, 20.0);
  }
}

TEST(MixtureDistTest, WeightsRespected) {
  MixtureDist d({{0.25, std::make_shared<ConstantDist>(1.0)},
                 {0.75, std::make_shared<ConstantDist>(2.0)}});
  Rng rng(7);
  int ones = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (d.Sample(rng) == 1.0) {
      ++ones;
    }
  }
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.25, 0.01);
  EXPECT_NEAR(d.Mean(), 1.75, 1e-9);
}

TEST(MixtureDistTest, UnnormalizedWeightsNormalize) {
  MixtureDist d({{2.0, std::make_shared<ConstantDist>(4.0)},
                 {6.0, std::make_shared<ConstantDist>(8.0)}});
  EXPECT_NEAR(d.Mean(), 0.25 * 4.0 + 0.75 * 8.0, 1e-9);
}


// Skip must advance the stream exactly as Sample does (the initial fill's
// fast reject relies on it to stay bit-identical), and no sample may exceed
// UpperBound(). Every family is covered, including mixtures of clamped
// components and clamps of mixtures, at several seeds and parameters.
struct BoundCase {
  std::string name;
  std::shared_ptr<const Distribution> dist;
};

std::vector<BoundCase> AllFamilies() {
  auto lognormal = [](double mean, double sigma) {
    return std::make_shared<LogNormalDist>(mean, sigma);
  };
  auto clamp = [](std::shared_ptr<const Distribution> d, double lo, double hi) {
    return std::make_shared<ClampedDist>(std::move(d), lo, hi);
  };
  std::vector<BoundCase> cases = {
      {"constant", std::make_shared<ConstantDist>(3.5)},
      {"uniform", std::make_shared<UniformDist>(2.0, 10.0)},
      {"exponential", std::make_shared<ExponentialDist>(7.0)},
      {"lognormal_narrow", lognormal(5.0, 0.5)},
      {"lognormal_wide", lognormal(300.0, 1.8)},
      {"pareto", std::make_shared<BoundedParetoDist>(1.0, 3000.0, 0.92)},
      {"empirical",
       std::make_shared<EmpiricalDist>(std::vector<EmpiricalDist::Point>{
           {1.0, 0.25}, {2.0, 0.5}, {10.0, 1.0}})},
      {"clamped_lognormal", clamp(lognormal(300.0, 1.8), 5.0, 43200.0)},
      {"clamped_clamped",
       clamp(clamp(lognormal(10.0, 2.0), 1.0, 50.0), 0.0, 20.0)},
      {"clamped_pareto",
       clamp(std::make_shared<BoundedParetoDist>(1.0, 100.0, 1.5), 2.0, 40.0)},
  };
  cases.push_back(
      {"mixture_of_clamped",
       std::make_shared<MixtureDist>(std::vector<MixtureDist::Component>{
           {0.2, clamp(lognormal(5.0e6, 1.0), 600.0, 1.0e7)},
           {0.5, clamp(lognormal(4.0e4, 1.5), 60.0, 7200.0)},
           {0.3, std::make_shared<ConstantDist>(42.0)}})});
  cases.push_back(
      {"clamped_mixture",
       clamp(std::make_shared<MixtureDist>(std::vector<MixtureDist::Component>{
                 {0.2, lognormal(60.0 * 86400.0, 1.0)},
                 {0.8, lognormal(12.0 * 3600.0, 1.5)}}),
             600.0, 120.0 * 86400.0)});
  return cases;
}

std::array<uint64_t, 4> NextFour(Rng rng) {
  return {rng.Next(), rng.Next(), rng.Next(), rng.Next()};
}

TEST(DistributionSkipTest, SkipConsumesExactlyWhatSampleDoes) {
  for (const BoundCase& c : AllFamilies()) {
    for (uint64_t seed : {1u, 77u, 4242u}) {
      Rng sampled(seed);
      Rng skipped(seed);
      for (int i = 0; i < 2000; ++i) {
        c.dist->Sample(sampled);
        c.dist->Skip(skipped);
        ASSERT_EQ(NextFour(sampled), NextFour(skipped))
            << c.name << " seed " << seed << " draw " << i;
      }
    }
  }
}

TEST(DistributionSkipTest, NoSampleExceedsUpperBound) {
  for (const BoundCase& c : AllFamilies()) {
    const double bound = c.dist->UpperBound();
    for (uint64_t seed : {2u, 99u}) {
      Rng rng(seed);
      for (int i = 0; i < 100000; ++i) {
        const double x = c.dist->Sample(rng);
        ASSERT_LE(x, bound) << c.name << " seed " << seed << " draw " << i;
      }
    }
  }
}

TEST(DistributionSkipTest, ClampBoundIsTheTighterOfItsAndItsInners) {
  auto lognormal = std::make_shared<LogNormalDist>(300.0, 1.8);
  EXPECT_EQ(lognormal->UpperBound(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(ClampedDist(lognormal, 5.0, 43200.0).UpperBound(), 43200.0);
  auto inner = std::make_shared<ClampedDist>(lognormal, 0.0, 10.0);
  EXPECT_EQ(ClampedDist(inner, 0.0, 20.0).UpperBound(), 10.0);
  EXPECT_EQ(ClampedDist(inner, 0.0, 5.0).UpperBound(), 5.0);
}

}  // namespace
}  // namespace omega
