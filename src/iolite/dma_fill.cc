#include "src/iolite/dma_fill.h"

#include <bit>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define IOLITE_DMA_FILL_AVX512 1
#endif

namespace iolite {

namespace {

constexpr uint64_t kPhi = 0x9e3779b97f4a7c15ull;

// Eight 64-bit lanes: one AVX-512 register, or four SSE2 registers on a
// baseline x86-64 build (GCC and Clang lower the operators either way).
typedef uint64_t U64x8 __attribute__((vector_size(64)));
constexpr size_t kLanes = 8;

// Lane-word stores put byte b of a word at address + b.
constexpr bool kLittleEndian = std::endian::native == std::endian::little;

// --- xorshift ----------------------------------------------------------------

// One lane's share of a block; a multiple of 8 so every lane starts on a
// byte-0 boundary of the stream's word pattern.
constexpr size_t kLaneBytes = 512;
constexpr size_t kBlockBytes = kLanes * kLaneBytes;

constexpr uint64_t XorshiftStep(uint64_t x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

// T is linear over GF(2), so T^kLaneBytes is the 64x64 bit matrix whose
// column j is where the state with only bit j set lands.
struct JumpTable {
  uint64_t column[64];
};

constexpr JumpTable MakeJumpTable() {
  JumpTable t{};
  for (int j = 0; j < 64; ++j) {
    uint64_t x = uint64_t{1} << j;
    for (size_t s = 0; s < kLaneBytes; ++s) {
      x = XorshiftStep(x);
    }
    t.column[j] = x;
  }
  return t;
}

constexpr JumpTable kJump = MakeJumpTable();
static_assert(sizeof(kJump) <= 1024);

// The state kLaneBytes steps after `x`.
inline uint64_t JumpLane(uint64_t x) {
  uint64_t r = 0;
  for (int j = 0; j < 64; ++j) {
    r ^= kJump.column[j] & (0 - ((x >> j) & 1));
  }
  return r;
}

// One body for every instruction set: each kernel below inlines it, and
// the compiler lowers the vector operators for that kernel's target.
[[gnu::always_inline]] inline void XorshiftFill(uint64_t seed, char* dst, size_t n) {
  uint64_t x = seed * kPhi + 1;
  size_t i = 0;
  for (; kLittleEndian && n - i >= kBlockBytes; i += kBlockBytes) {
    uint64_t start[kLanes];
    start[0] = x;
    for (size_t k = 1; k < kLanes; ++k) {
      start[k] = JumpLane(start[k - 1]);
    }
    U64x8 v;
    std::memcpy(&v, start, sizeof(v));
    char* block = dst + i;
    for (size_t w = 0; w < kLaneBytes; w += 8) {
      // Byte b of each lane's word is byte b of that lane's state after
      // step b, exactly as the serial stream picks byte (i mod 8).
      U64x8 word = {};
      uint64_t mask = 0xff;
      for (int b = 0; b < 8; ++b, mask <<= 8) {
        v ^= v << 13;
        v ^= v >> 7;
        v ^= v << 17;
        word |= v & mask;
      }
      uint64_t out[kLanes];
      std::memcpy(out, &word, sizeof(out));
      for (size_t k = 0; k < kLanes; ++k) {
        std::memcpy(block + k * kLaneBytes + w, &out[k], sizeof(out[k]));
      }
    }
    x = v[kLanes - 1];  // The last lane ends where the next block begins.
  }
  for (; i < n; ++i) {
    x = XorshiftStep(x);
    dst[i] = static_cast<char>((x >> (8 * (i % 8))) & 0xff);
  }
}

}  // namespace

void FillXorshiftPortable(uint64_t seed, char* dst, size_t n) { XorshiftFill(seed, dst, n); }

void FillContentScalar(uint64_t seed, uint64_t offset, char* dst, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<char>(ContentByte(seed, offset + i));
  }
}

#if defined(IOLITE_DMA_FILL_AVX512)

bool HasAvx512Fill() {
  static const bool avx512 =
      __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq");
  return avx512;
}

__attribute__((target("avx512f"))) void FillXorshiftAvx512(uint64_t seed, char* dst, size_t n) {
  XorshiftFill(seed, dst, n);
}

// Lane k builds the word of bytes [8k, 8k + 8) of each 64-byte chunk; one
// vector splitmix per byte position covers all eight lanes. The two 64-bit
// multiplies need AVX-512DQ; without it they have no vector instruction,
// and an emulated multiply is no faster than the scalar loop.
__attribute__((target("avx512f,avx512dq"))) void FillContentAvx512(uint64_t seed, uint64_t offset,
                                                                    char* dst, size_t n) {
  const U64x8 lane_start = {0 * kPhi,  8 * kPhi,  16 * kPhi, 24 * kPhi,
                            32 * kPhi, 40 * kPhi, 48 * kPhi, 56 * kPhi};
  size_t i = 0;
  for (; n - i >= 64; i += 64) {
    const U64x8 chunk = lane_start + (seed + (offset + i) * kPhi);
    U64x8 word = {};
    for (uint64_t b = 0; b < 8; ++b) {
      U64x8 z = chunk + b * kPhi;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      z ^= z >> 31;
      word |= (z & 0xffull) << (8 * b);
    }
    std::memcpy(dst + i, &word, sizeof(word));
  }
  FillContentScalar(seed, offset + i, dst + i, n - i);
}

#else

// Never selected: HasAvx512Fill() is false off x86-64.
bool HasAvx512Fill() { return false; }

void FillXorshiftAvx512(uint64_t seed, char* dst, size_t n) { FillXorshiftPortable(seed, dst, n); }

void FillContentAvx512(uint64_t seed, uint64_t offset, char* dst, size_t n) {
  FillContentScalar(seed, offset, dst, n);
}

#endif

void FillXorshift(uint64_t seed, char* dst, size_t n) {
  if (HasAvx512Fill()) {
    FillXorshiftAvx512(seed, dst, n);
  } else {
    FillXorshiftPortable(seed, dst, n);
  }
}

void FillContent(uint64_t seed, uint64_t offset, char* dst, size_t n) {
  if (HasAvx512Fill()) {
    FillContentAvx512(seed, offset, dst, n);
  } else {
    FillContentScalar(seed, offset, dst, n);
  }
}

}  // namespace iolite
