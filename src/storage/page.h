// Fixed-size page primitives shared by the pager, buffer pool, heap file and
// B+tree. Every on-disk structure reserves a common 8-byte header:
//   [0..4)  checksum over bytes [4..kPageSize)  (maintained by BufferPool)
//   [4..6)  page type (PageType)
//   [6..8)  reserved
// All multi-byte integers are little-endian.
//
// Page format v2 (the pager's meta page records the version): the checksum
// reads the body as the 511 little-endian u64 words at [8..kPageSize) plus
// the 4 type/reserved bytes at [4..8). The words go round-robin into four
// independent lanes, each running xxHash64's multiply-rotate-multiply round,
// so the multiplies of one page form four short chains instead of one chain
// of 4092; the lanes merge and the 4 header bytes mix in as in xxHash64,
// then an avalanche and a fold to 32 bits. 0 is reserved for "never sealed".
// v1 files (byte-serial FNV-1a) no longer verify and must be re-encoded.

#ifndef SSDB_STORAGE_PAGE_H_
#define SSDB_STORAGE_PAGE_H_

#include <array>
#include <cstdint>
#include <cstring>

namespace ssdb::storage {

inline constexpr size_t kPageSize = 4096;
inline constexpr size_t kPageHeaderSize = 8;

using PageId = uint32_t;
inline constexpr PageId kInvalidPageId = 0xffffffffu;

using PageBuf = std::array<uint8_t, kPageSize>;

enum class PageType : uint16_t {
  kFree = 0,
  kMeta = 1,
  kHeap = 2,
  kBTreeLeaf = 3,
  kBTreeInternal = 4,
  kCatalog = 5,
  kColumnBlob = 6,  // column-store blob page, possibly chained (DESIGN.md §12)
};

// Byte order of the host; the codecs below are one native load or store,
// plus a byte swap that compiles away on little-endian hosts.
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
inline constexpr bool kBigEndianHost = true;
#else
inline constexpr bool kBigEndianHost = false;
#endif

template <typename T>
constexpr T ByteSwap(T v) {
  T out = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    out = static_cast<T>((out << 8) | (v & 0xff));
    v = static_cast<T>(v >> 8);
  }
  return out;
}
static_assert(ByteSwap<uint32_t>(0x01020304u) == 0x04030201u);

template <typename T>
inline T LoadLittleEndian(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  if constexpr (kBigEndianHost) v = ByteSwap(v);
  return v;
}
template <typename T>
inline void StoreLittleEndian(uint8_t* p, T v) {
  if constexpr (kBigEndianHost) v = ByteSwap(v);
  std::memcpy(p, &v, sizeof(T));
}

inline void StoreU16(uint8_t* p, uint16_t v) { StoreLittleEndian(p, v); }
inline uint16_t LoadU16(const uint8_t* p) {
  return LoadLittleEndian<uint16_t>(p);
}
inline void StoreU32(uint8_t* p, uint32_t v) { StoreLittleEndian(p, v); }
inline uint32_t LoadU32(const uint8_t* p) {
  return LoadLittleEndian<uint32_t>(p);
}
inline void StoreU64(uint8_t* p, uint64_t v) { StoreLittleEndian(p, v); }
inline uint64_t LoadU64(const uint8_t* p) {
  return LoadLittleEndian<uint64_t>(p);
}

inline void SetPageType(uint8_t* page, PageType type) {
  StoreU16(page + 4, static_cast<uint16_t>(type));
}
inline PageType GetPageType(const uint8_t* page) {
  return static_cast<PageType>(LoadU16(page + 4));
}

// The v2 page checksum over bytes [4..kPageSize) (see the top of this file);
// never 0.
uint32_t PageChecksum(const uint8_t* page);

// Computes and stores the checksum into bytes [0..4).
void SealPage(uint8_t* page);

// True if the stored checksum matches (all-zero pages are accepted as fresh).
bool VerifyPage(const uint8_t* page);

}  // namespace ssdb::storage

#endif  // SSDB_STORAGE_PAGE_H_
