#include "util/rng.hpp"

#include "util/check.hpp"

namespace cesrm::util {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& w : s_) w = splitmix64(sm);
  // All-zero state is the one invalid state for xoshiro; SplitMix64 cannot
  // produce four consecutive zeros from any seed, but guard regardless.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  CESRM_CHECK(lo <= hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~0ULL - (~0ULL % span);
  std::uint64_t x = next_u64();
  while (x >= limit) x = next_u64();
  return lo + static_cast<std::int64_t>(x % span);
}

double Rng::uniform(double lo, double hi) {
  CESRM_CHECK(lo <= hi);
  return lo + (hi - lo) * next_double();
}

Rng Rng::fork(std::uint64_t tag) {
  // Mix the tag with fresh output so forks with distinct tags differ even
  // when taken from identical parent states.
  std::uint64_t sm = next_u64() ^ (tag * 0xD1342543DE82EF95ULL + 0x2545F4914F6CDD1DULL);
  return Rng(splitmix64(sm));
}

}  // namespace cesrm::util
