#include "src/base/hash.h"

#include <vector>

#include "src/base/strings.h"

namespace protego {

namespace {

// FNV-1a continued over `data` from state `h`.
uint64_t Fnv1aFrom(uint64_t h, std::string_view data) {
  for (unsigned char c : data) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;

}  // namespace

uint64_t Fnv1a(std::string_view data) { return Fnv1aFrom(kFnvOffsetBasis, data); }

std::string MakeSalt(uint64_t seed) {
  static const char kAlphabet[] =
      "./0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
  std::string salt;
  uint64_t state = seed * 0x9e3779b97f4a7c15ULL + 1;
  for (int i = 0; i < 8; ++i) {
    state ^= state >> 30;
    state *= 0xbf58476d1ce4e5b9ULL;
    state ^= state >> 27;
    salt.push_back(kAlphabet[state % 64]);
  }
  return salt;
}

std::string CryptPassword(std::string_view password, std::string_view salt) {
  // Iterated FNV over salt||password; iteration makes the structure of a
  // KDF visible in traces without pretending to be one.
  // Each round hashes the previous state's 16 lowercase hex digits, then
  // the material, and allocates nothing.
  std::string material = std::string(salt) + "$" + std::string(password);
  uint64_t h = Fnv1a(material);
  char hex[16];
  for (int round = 0; round < 1000; ++round) {
    uint64_t digits = h;
    for (int i = 15; i >= 0; --i, digits >>= 4) {
      hex[i] = "0123456789abcdef"[digits & 0xf];
    }
    h = Fnv1aFrom(Fnv1aFrom(kFnvOffsetBasis, {hex, sizeof(hex)}), material);
  }
  return StrFormat("$sim$%s$%016llx", std::string(salt).c_str(),
                   static_cast<unsigned long long>(h));
}

bool VerifyPassword(std::string_view password, std::string_view hash) {
  // Expected layout: $sim$<salt>$<hex>
  auto parts = Split(std::string(hash), '$');
  if (parts.size() != 4 || !parts[0].empty() || parts[1] != "sim") {
    return false;
  }
  return CryptPassword(password, parts[2]) == hash;
}

}  // namespace protego
