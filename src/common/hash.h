// Hash-combining helpers (FNV-1a based) for building signatures and keys,
// and the one splitmix64 finalizer.

#ifndef DTA_COMMON_HASH_H_
#define DTA_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace dta {

inline constexpr uint64_t kFnvOffset = 14695981039346656037ull;
inline constexpr uint64_t kFnvPrime = 1099511628211ull;

inline uint64_t HashBytes(std::string_view bytes, uint64_t seed = kFnvOffset) {
  uint64_t h = seed;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  // boost::hash_combine-style mix over 64 bits.
  a ^= b + 0x9e3779b97f4a7c15ull + (a << 12) + (a >> 4);
  return a;
}

// The splitmix64 finalizer: each input bit flips every output bit with
// probability ~1/2, so keys that differ in few bits still spread (fault
// decisions, rendezvous ranks, backoff jitter).
inline uint64_t Mix64(uint64_t h) {
  h += 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

}  // namespace dta

#endif  // DTA_COMMON_HASH_H_
