#include "stats/stats.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <random>

namespace a64fxcc::stats {

double min(std::span<const double> v) {
  assert(!v.empty());
  return *std::min_element(v.begin(), v.end());
}

double max(std::span<const double> v) {
  assert(!v.empty());
  return *std::max_element(v.begin(), v.end());
}

double mean(std::span<const double> v) {
  assert(!v.empty());
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double median(std::span<const double> v) {
  return percentile(v, 0.5);
}

double geomean(std::span<const double> v) {
  assert(!v.empty());
  double s = 0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

double stddev(std::span<const double> v) {
  if (v.size() < 2) return 0;
  const double m = mean(v);
  double s = 0;
  for (double x : v) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(v.size() - 1));
}

double cv(std::span<const double> v) {
  const double m = mean(v);
  return m != 0 ? stddev(v) / m : 0.0;
}

double percentile(std::span<const double> v, double p) {
  assert(!v.empty());
  // Sort a copy; a cell's ten runs fit the stack buffer, so its median
  // allocates nothing.
  std::array<double, 16> small{};
  std::vector<double> large;
  if (v.size() > small.size()) large.resize(v.size());
  const std::span<double> s = large.empty()
                                  ? std::span<double>(small.data(), v.size())
                                  : std::span<double>(large);
  std::copy(v.begin(), v.end(), s.begin());
  std::sort(s.begin(), s.end());
  const double pos = p * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return s[lo] * (1.0 - frac) + s[hi] * frac;
}

Interval bootstrap_median_ci(std::span<const double> v, double confidence,
                             int resamples, std::uint64_t seed) {
  assert(!v.empty());
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::uniform_int_distribution<std::size_t> pick(0, v.size() - 1);
  std::vector<double> medians;
  medians.reserve(static_cast<std::size_t>(resamples));
  std::vector<double> sample(v.size());
  for (int r = 0; r < resamples; ++r) {
    for (auto& x : sample) x = v[pick(rng)];
    medians.push_back(median(sample));
  }
  const double alpha = (1.0 - confidence) / 2.0;
  return {percentile(medians, alpha), percentile(medians, 1.0 - alpha)};
}

}  // namespace a64fxcc::stats
