// Random-variate distributions used by the synthetic workload generator.
//
// The lightweight simulator of the Omega paper synthesizes jobs from empirical
// parameter distributions fitted to production traces (Table 2, "sampled").
// These classes provide the distribution families used for that synthesis:
// exponential inter-arrival times, log-normal durations and resource sizes,
// bounded-Pareto task counts, and piecewise empirical distributions for cases
// where a parametric family does not fit.
#pragma once

#include <limits>
#include <memory>
#include <vector>

#include "src/common/random.h"

namespace omega {

// Interface for a real-valued random variate source.
class Distribution {
 public:
  virtual ~Distribution() = default;

  // Draws one sample using `rng`.
  virtual double Sample(Rng& rng) const = 0;

  // Analytic (or approximated) mean of the distribution; used by tests and by
  // load calculations in the experiment harness.
  virtual double Mean() const = 0;

  // A value no sample exceeds; +inf unless the family bounds it exactly.
  virtual double UpperBound() const {
    return std::numeric_limits<double>::infinity();
  }

  // Advances `rng` exactly as Sample would, without computing the sample.
  // Lets a rejection sampler discard a try it can reject from the bound
  // alone, keeping the stream bit-identical to sampling it.
  virtual void Skip(Rng& rng) const { Sample(rng); }
};

// Constant value (degenerate distribution).
class ConstantDist final : public Distribution {
 public:
  explicit ConstantDist(double value) : value_(value) {}
  double Sample(Rng&) const override { return value_; }
  double Mean() const override { return value_; }

 private:
  double value_;
};

// Uniform on [lo, hi).
class UniformDist final : public Distribution {
 public:
  UniformDist(double lo, double hi);
  double Sample(Rng& rng) const override;
  double Mean() const override { return 0.5 * (lo_ + hi_); }

 private:
  double lo_;
  double hi_;
};

// Exponential with the given mean (= 1/rate). Used for inter-arrival times.
class ExponentialDist final : public Distribution {
 public:
  explicit ExponentialDist(double mean);
  double Sample(Rng& rng) const override;
  double Mean() const override { return mean_; }

 private:
  double mean_;
};

// Log-normal parameterized by the *linear-space* mean and sigma of the
// underlying normal; heavy-tailed, fits task durations and resource sizes.
class LogNormalDist final : public Distribution {
 public:
  // `mean` is the distribution mean E[X]; `sigma` is the log-space std dev.
  LogNormalDist(double mean, double sigma);
  double Sample(Rng& rng) const override;
  double Mean() const override;
  void Skip(Rng& rng) const override;

  double mu() const { return mu_; }
  double sigma() const { return sigma_; }

 private:
  double mu_;
  double sigma_;
};

// Bounded Pareto on [lo, hi] with tail index alpha. Captures the heavy tail of
// tasks-per-job (most jobs are small; a few have thousands of tasks, Fig. 4).
class BoundedParetoDist final : public Distribution {
 public:
  BoundedParetoDist(double lo, double hi, double alpha);
  double Sample(Rng& rng) const override;
  double Mean() const override;

 private:
  double lo_;
  double hi_;
  double alpha_;
};

// Piecewise-linear empirical distribution built from (value, cumulative
// probability) points. Sampling inverts the CDF with linear interpolation.
class EmpiricalDist final : public Distribution {
 public:
  struct Point {
    double value = 0.0;
    double cumulative = 0.0;  // in [0, 1], non-decreasing across points
  };

  // `points` must be non-empty, sorted by cumulative probability, and end with
  // cumulative == 1.0.
  explicit EmpiricalDist(std::vector<Point> points);

  double Sample(Rng& rng) const override;
  double Mean() const override;

 private:
  std::vector<Point> points_;
};

// Weighted mixture of component distributions. Used e.g. for service-job
// durations, which combine a long-lived population (20-40% of service jobs run
// beyond a month, §2.1) with shorter-lived restarts.
class MixtureDist final : public Distribution {
 public:
  struct Component {
    double weight = 0.0;
    std::shared_ptr<const Distribution> dist;
  };

  // Weights must be positive; they are normalized internally.
  explicit MixtureDist(std::vector<Component> components);

  double Sample(Rng& rng) const override;
  double Mean() const override;
  void Skip(Rng& rng) const override;

 private:
  std::vector<Component> components_;  // weights normalized to cumulative form
};

// A distribution clamped to [lo, hi]; keeps heavy-tailed samples physical
// (e.g., a task cannot request more CPU than a machine has).
class ClampedDist final : public Distribution {
 public:
  ClampedDist(std::shared_ptr<const Distribution> inner, double lo, double hi);
  double Sample(Rng& rng) const override;
  double Mean() const override;
  double UpperBound() const override;
  void Skip(Rng& rng) const override { inner_->Skip(rng); }

 private:
  std::shared_ptr<const Distribution> inner_;
  double lo_;
  double hi_;
};

}  // namespace omega

