#include "storage/page.h"

namespace ssdb::storage {
namespace {

// xxHash64's primes and round, from the published algorithm.
constexpr uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
constexpr uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;
constexpr uint64_t kPrime3 = 0x165667b19e3779f9ULL;
constexpr uint64_t kPrime4 = 0x85ebca77c2b2ae63ULL;

constexpr int kLanes = 4;
constexpr size_t kBodyWords = (kPageSize - kPageHeaderSize) / 8;  // 511

inline uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

inline uint64_t Round(uint64_t acc, uint64_t word) {
  acc += word * kPrime2;
  return Rotl(acc, 31) * kPrime1;
}

inline uint64_t MergeLane(uint64_t hash, uint64_t lane) {
  hash ^= Round(0, lane);
  return hash * kPrime1 + kPrime4;
}

}  // namespace

uint32_t PageChecksum(const uint8_t* page) {
  const uint8_t* words = page + kPageHeaderSize;
  // Four named lanes rather than an array, so that each stays in a register
  // and the four multiply chains overlap.
  uint64_t lane0 = kPrime1 + kPrime2;
  uint64_t lane1 = kPrime2;
  uint64_t lane2 = 0;
  uint64_t lane3 = 0 - kPrime1;
  size_t w = 0;
  for (; w + kLanes <= kBodyWords; w += kLanes) {
    const uint8_t* stripe = words + 8 * w;
    lane0 = Round(lane0, LoadU64(stripe));
    lane1 = Round(lane1, LoadU64(stripe + 8));
    lane2 = Round(lane2, LoadU64(stripe + 16));
    lane3 = Round(lane3, LoadU64(stripe + 24));
  }
  uint64_t hash = Rotl(lane0, 1) + Rotl(lane1, 7) + Rotl(lane2, 12) +
                  Rotl(lane3, 18);
  hash = MergeLane(hash, lane0);
  hash = MergeLane(hash, lane1);
  hash = MergeLane(hash, lane2);
  hash = MergeLane(hash, lane3);
  hash += kPageSize - 4;  // bytes covered
  for (; w < kBodyWords; ++w) {
    hash ^= Round(0, LoadU64(words + 8 * w));
    hash = Rotl(hash, 27) * kPrime1 + kPrime4;
  }
  // The page type and reserved bytes, as xxHash64's 4-byte tail.
  hash ^= LoadU32(page + 4) * kPrime1;
  hash = Rotl(hash, 23) * kPrime2 + kPrime3;
  // Avalanche.
  hash ^= hash >> 33;
  hash *= kPrime2;
  hash ^= hash >> 29;
  hash *= kPrime3;
  hash ^= hash >> 32;
  // Fold to 32 bits; avoid 0 so that "no checksum yet" is distinguishable.
  uint32_t folded = static_cast<uint32_t>(hash ^ (hash >> 32));
  return folded == 0 ? 1 : folded;
}

void SealPage(uint8_t* page) { StoreU32(page, PageChecksum(page)); }

bool VerifyPage(const uint8_t* page) {
  uint32_t stored = LoadU32(page);
  if (stored == 0) {
    // Never sealed: accept only if the whole page is zero (freshly allocated).
    for (size_t i = 4; i < kPageSize; ++i) {
      if (page[i] != 0) return false;
    }
    return true;
  }
  return stored == PageChecksum(page);
}

}  // namespace ssdb::storage
