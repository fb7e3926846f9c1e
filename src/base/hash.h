// Hashing utilities: FNV-1a for table keys, a salted iterated hash used as
// the simulated crypt(3) for /etc/shadow entries, and splitmix64.
//
// The password hash is NOT cryptographically strong; the simulation only
// needs the structural properties of crypt() — deterministic, salted,
// one-way-shaped — so that authentication flows (login, sudo recency,
// password-protected groups) behave like the real system.

#ifndef SRC_BASE_HASH_H_
#define SRC_BASE_HASH_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace protego {

// 64-bit FNV-1a, continued over `data` from state `h`; Fnv1a starts from
// the offset basis. Inline: every path-walk component hashes its name.
inline constexpr uint64_t kFnv1aOffsetBasis = 0xcbf29ce484222325ULL;

constexpr uint64_t Fnv1aFrom(uint64_t h, std::string_view data) {
  for (unsigned char c : data) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr uint64_t Fnv1a(std::string_view data) { return Fnv1aFrom(kFnv1aOffsetBasis, data); }

// Produces a shadow-style hash string "$sim$<salt>$<hex>".
std::string CryptPassword(std::string_view password, std::string_view salt);

// Verifies `password` against a "$sim$..." hash produced by CryptPassword.
// Returns false for malformed hashes.
bool VerifyPassword(std::string_view password, std::string_view hash);

// Derives a printable 8-char salt from a seed (deterministic).
std::string MakeSalt(uint64_t seed);

// splitmix64, the one seeded generator: the deterministic scheduler's random
// mode, the tracer's head sampling, the fault registry's probability draws,
// the workload engine's parameter streams and the popularity study all draw
// from it, so a recorded seed replays everywhere. A stream is a state that
// each draw advances by the gamma; the draw is the mix of the new state.
inline constexpr uint64_t kSplitMix64Gamma = 0x9e3779b97f4a7c15ULL;

constexpr uint64_t SplitMix64Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Advances `state` by one draw and returns the draw.
constexpr uint64_t SplitMix64(uint64_t& state) {
  state += kSplitMix64Gamma;
  return SplitMix64Mix(state);
}

}  // namespace protego

#endif  // SRC_BASE_HASH_H_
