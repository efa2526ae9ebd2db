#include "src/common/distributions.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace omega {

UniformDist::UniformDist(double lo, double hi) : lo_(lo), hi_(hi) {
  assert(lo <= hi);
}

double UniformDist::Sample(Rng& rng) const { return rng.NextRange(lo_, hi_); }

ExponentialDist::ExponentialDist(double mean) : mean_(mean) { assert(mean > 0.0); }

double ExponentialDist::Sample(Rng& rng) const {
  // Inverse-CDF; 1 - u avoids log(0).
  return -mean_ * std::log(1.0 - rng.NextDouble());
}

LogNormalDist::LogNormalDist(double mean, double sigma) : sigma_(sigma) {
  assert(mean > 0.0);
  assert(sigma >= 0.0);
  // E[X] = exp(mu + sigma^2/2)  =>  mu = ln(mean) - sigma^2/2.
  mu_ = std::log(mean) - 0.5 * sigma * sigma;
}

double LogNormalDist::Sample(Rng& rng) const {
  // Box-Muller transform.
  const double u1 = 1.0 - rng.NextDouble();
  const double u2 = rng.NextDouble();
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  return std::exp(mu_ + sigma_ * z);
}

void LogNormalDist::Skip(Rng& rng) const {
  // Sample's two Box-Muller uniforms.
  rng.NextDouble();
  rng.NextDouble();
}

double LogNormalDist::Mean() const { return std::exp(mu_ + 0.5 * sigma_ * sigma_); }

BoundedParetoDist::BoundedParetoDist(double lo, double hi, double alpha)
    : lo_(lo), hi_(hi), alpha_(alpha) {
  assert(lo > 0.0);
  assert(hi >= lo);
  assert(alpha > 0.0);
}

double BoundedParetoDist::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  const double la = std::pow(lo_, alpha_);
  const double ha = std::pow(hi_, alpha_);
  // Inverse CDF of the bounded Pareto.
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha_);
}

double BoundedParetoDist::Mean() const {
  if (std::abs(alpha_ - 1.0) < 1e-12) {
    const double la = lo_;
    const double ha = hi_;
    return (std::log(ha) - std::log(la)) * la * ha / (ha - la);
  }
  const double la = std::pow(lo_, alpha_);
  const double ha = std::pow(hi_, alpha_);
  return la / (1.0 - la / ha) * (alpha_ / (alpha_ - 1.0)) *
         (1.0 / std::pow(lo_, alpha_ - 1.0) - 1.0 / std::pow(hi_, alpha_ - 1.0));
}

EmpiricalDist::EmpiricalDist(std::vector<Point> points) : points_(std::move(points)) {
  assert(!points_.empty());
  assert(std::is_sorted(points_.begin(), points_.end(),
                        [](const Point& a, const Point& b) {
                          return a.cumulative < b.cumulative;
                        }));
  assert(points_.back().cumulative >= 1.0 - 1e-9);
}

double EmpiricalDist::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  auto it = std::lower_bound(
      points_.begin(), points_.end(), u,
      [](const Point& p, double value) { return p.cumulative < value; });
  if (it == points_.begin()) {
    return points_.front().value;
  }
  if (it == points_.end()) {
    return points_.back().value;
  }
  const Point& hi = *it;
  const Point& lo = *(it - 1);
  const double span = hi.cumulative - lo.cumulative;
  if (span <= 0.0) {
    return hi.value;
  }
  const double frac = (u - lo.cumulative) / span;
  return lo.value + frac * (hi.value - lo.value);
}

double EmpiricalDist::Mean() const {
  // Mean of the piecewise-linear CDF: each segment contributes the midpoint
  // value weighted by its probability mass.
  double mean = points_.front().value * points_.front().cumulative;
  for (size_t i = 1; i < points_.size(); ++i) {
    const double mass = points_[i].cumulative - points_[i - 1].cumulative;
    mean += 0.5 * (points_[i].value + points_[i - 1].value) * mass;
  }
  return mean;
}

MixtureDist::MixtureDist(std::vector<Component> components)
    : components_(std::move(components)) {
  assert(!components_.empty());
  double total = 0.0;
  for (const Component& c : components_) {
    assert(c.weight > 0.0);
    assert(c.dist != nullptr);
    total += c.weight;
  }
  // Convert to cumulative weights for O(components) sampling.
  double cumulative = 0.0;
  for (Component& c : components_) {
    cumulative += c.weight / total;
    c.weight = cumulative;
  }
  components_.back().weight = 1.0;
}

double MixtureDist::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  for (const Component& c : components_) {
    if (u <= c.weight) {
      return c.dist->Sample(rng);
    }
  }
  return components_.back().dist->Sample(rng);
}

void MixtureDist::Skip(Rng& rng) const {
  const double u = rng.NextDouble();
  for (const Component& c : components_) {
    if (u <= c.weight) {
      c.dist->Skip(rng);
      return;
    }
  }
  components_.back().dist->Skip(rng);
}

double MixtureDist::Mean() const {
  double mean = 0.0;
  double prev = 0.0;
  for (const Component& c : components_) {
    mean += (c.weight - prev) * c.dist->Mean();
    prev = c.weight;
  }
  return mean;
}

ClampedDist::ClampedDist(std::shared_ptr<const Distribution> inner, double lo,
                         double hi)
    : inner_(std::move(inner)), lo_(lo), hi_(hi) {
  assert(inner_ != nullptr);
  assert(lo <= hi);
}

double ClampedDist::Sample(Rng& rng) const {
  return std::clamp(inner_->Sample(rng), lo_, hi_);
}

double ClampedDist::UpperBound() const {
  return std::min(hi_, inner_->UpperBound());
}

double ClampedDist::Mean() const {
  // Approximation: clamping shifts the mean, but for our parameters the mass
  // outside [lo, hi] is small; report the clamped inner mean.
  return std::clamp(inner_->Mean(), lo_, hi_);
}

}  // namespace omega
