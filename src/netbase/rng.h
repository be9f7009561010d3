// Deterministic pseudo-random generation for all simulators.
//
// Every experiment in this reproduction is seeded, so results are exactly
// reproducible run-to-run. We use splitmix64 for seeding/stream-splitting and
// xoshiro256** as the workhorse generator (fast, passes BigCrush, and —
// unlike std::mt19937 — has a tiny state that is cheap to fork per entity).
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

namespace reuse::net {

/// splitmix64 step; used to expand a single seed into generator state.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class Rng;

/// Counter-derived RNG substream: an independent generator for unit `index`
/// of the stream tagged `salt`, as a pure function of (seed, salt, index).
/// Unlike Rng::fork(), no draws are taken from any parent generator, so unit
/// k's stream is identical no matter how many units exist, in which order
/// they run, or on which thread — the property the parallel simulation
/// stages rely on for byte-identical results at any --jobs value.
[[nodiscard]] Rng substream(std::uint64_t seed, std::uint64_t salt,
                            std::uint64_t index);

/// xoshiro256** generator with distribution helpers used across the
/// simulators. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eed5eed5eedULL) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  result_type operator()() { return next(); }

  /// The raw xoshiro256** state, for checkpointing a generator mid-stream
  /// (the incremental scenario cache persists per-feed cursors this way).
  [[nodiscard]] const std::array<std::uint64_t, 4>& state() const {
    return state_;
  }

  /// Rebuilds a generator from a state() snapshot; the restored generator
  /// continues the original draw sequence exactly.
  [[nodiscard]] static Rng from_state(
      const std::array<std::uint64_t, 4>& state) {
    Rng rng;
    rng.state_ = state;
    return rng;
  }

  /// Derives an independent generator; `salt` distinguishes streams forked
  /// from the same parent (e.g. one stream per simulated host).
  [[nodiscard]] Rng fork(std::uint64_t salt) {
    return Rng(next() ^ (salt * 0x9e3779b97f4a7c15ULL));
  }

  /// Uniform in [0, bound). Precondition: bound > 0. Uses rejection to avoid
  /// modulo bias.
  std::uint64_t uniform(std::uint64_t bound) {
    const std::uint64_t threshold = (~bound + 1) % bound;  // == 2^64 mod bound
    for (;;) {
      const std::uint64_t draw = next();
      if (draw >= threshold) return draw % bound;
    }
  }

  /// Uniform integer in [low, high] inclusive. Precondition: low <= high.
  std::int64_t uniform_int(std::int64_t low, std::int64_t high) {
    return low + static_cast<std::int64_t>(
                     uniform(static_cast<std::uint64_t>(high - low) + 1));
  }

  /// Uniform real in [0, 1).
  double uniform_real() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform real in [low, high).
  double uniform_real(double low, double high) {
    return low + (high - low) * uniform_real();
  }

  bool bernoulli(double probability) { return uniform_real() < probability; }

  /// bernoulli(p) as one integer compare, for loops that draw against a
  /// fixed p: pass threshold = bernoulli_threshold(p). It draws the same 53
  /// bits and gives the same answer for every p, because u * 2^-53 < p
  /// holds for an integer u exactly when u < ceil(p * 2^53).
  bool bernoulli_below(std::uint64_t threshold) {
    return (next() >> 11) < threshold;
  }

  /// The threshold of bernoulli(p): ceil(p * 2^53) clamped to [0, 2^53], so
  /// p <= 0 (and NaN) never fires and p >= 1 always does.
  [[nodiscard]] static std::uint64_t bernoulli_threshold(double probability) {
    if (!(probability > 0.0)) return 0;
    if (probability >= 1.0) return std::uint64_t{1} << 53;
    return static_cast<std::uint64_t>(std::ceil(std::ldexp(probability, 53)));
  }

  /// Exponential with the given mean (= 1/rate). Used for lease durations,
  /// listing lifetimes and inter-event gaps.
  double exponential(double mean) {
    double u = uniform_real();
    if (u <= 0.0) u = 0x1.0p-53;
    return -mean * std::log(u);
  }

  /// Standard normal via Box–Muller (one value per call; simple and stateless).
  double normal(double mean = 0.0, double stddev = 1.0) {
    double u1 = uniform_real();
    if (u1 <= 0.0) u1 = 0x1.0p-53;
    const double u2 = uniform_real();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    constexpr double kTwoPi = 6.283185307179586476925286766559;
    return mean + stddev * radius * std::cos(kTwoPi * u2);
  }

  /// Pareto with given minimum and shape alpha; heavy-tailed sizes (AS
  /// populations, NAT fan-outs) come from here.
  double pareto(double minimum, double alpha) {
    double u = uniform_real();
    if (u <= 0.0) u = 0x1.0p-53;
    return minimum / std::pow(u, 1.0 / alpha);
  }

  /// Poisson-distributed count with the given mean. Knuth's method for small
  /// means, normal approximation above 60 (abuse-event counts never need
  /// exact tails there).
  std::uint64_t poisson(double mean) {
    if (mean <= 0.0) return 0;
    if (mean > 60.0) {
      const double draw = normal(mean, std::sqrt(mean));
      return draw < 0.0 ? 0 : static_cast<std::uint64_t>(draw + 0.5);
    }
    const double limit = std::exp(-mean);
    std::uint64_t count = 0;
    double product = uniform_real();
    while (product > limit) {
      ++count;
      product *= uniform_real();
    }
    return count;
  }

  /// Geometric: number of failures before the first success; p in (0, 1].
  std::uint64_t geometric(double p) {
    if (p >= 1.0) return 0;
    double u = uniform_real();
    if (u <= 0.0) u = 0x1.0p-53;
    return static_cast<std::uint64_t>(std::log(u) / std::log1p(-p));
  }

  /// Zipf-distributed rank in [1, n] with exponent s, via inverse-CDF on a
  /// precomputed table-free approximation (rejection sampling per Devroye).
  std::uint64_t zipf(std::uint64_t n, double s);

  /// Picks an index in [0, weights.size()) proportionally to weights.
  /// Precondition: at least one weight > 0.
  std::size_t weighted_index(std::span<const double> weights);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      using std::swap;
      swap(items[i - 1], items[uniform(i)]);
    }
  }

  /// Samples k distinct indices from [0, n) (k <= n), in arbitrary order.
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

 private:
  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

inline Rng substream(std::uint64_t seed, std::uint64_t salt,
                     std::uint64_t index) {
  std::uint64_t state = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  (void)splitmix64(state);
  state ^= index * 0xbf58476d1ce4e5b9ULL;
  return Rng(splitmix64(state));
}

}  // namespace reuse::net
