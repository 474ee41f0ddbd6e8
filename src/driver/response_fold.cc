#include "src/driver/response_fold.h"

#include <bit>
#include <cstring>
#include <vector>

namespace ioldrv {

namespace {

uint64_t Load64(const char* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

// Locates a content; it decides nothing, since a memcmp verifies every hit.
// It reads the length and eight 8-byte words spread evenly over the
// content, first and last included, so its cost does not grow with the
// content. Contents that agree on those words share a key; the memcmp tells
// them apart.
uint64_t ContentKey(const char* p, uint64_t n) {
  constexpr uint64_t kMul = 0x9e3779b97f4a7c15ull;
  uint64_t h = n * kMul;
  if (n < 8) {
    uint64_t w = 0;
    std::memcpy(&w, p, n);
    h = std::rotl((h ^ w) * kMul, 29);
  } else {
    for (uint64_t k = 0; k < 8; ++k) {
      h = std::rotl((h ^ Load64(p + (n - 8) * k / 7)) * kMul, 29);
    }
  }
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

}  // namespace

uint64_t FnvFold(uint64_t h, const char* p, uint64_t n) {
  for (uint64_t i = 0; i < n; ++i) {
    h ^= static_cast<uint8_t>(p[i]);
    h *= kFnvPrime;
  }
  return h;
}

struct ResponseFoldCache::Entry {
  uint64_t pow = 1;                   // kFnvPrime^n, n = bytes.size().
  std::array<uint64_t, 256> table{};  // C_B[l] = FnvFold(l, B) - pow * l.
  std::vector<char> bytes;            // The content B, for the memcmp.
};

ResponseFoldCache::ResponseFoldCache() = default;
ResponseFoldCache::~ResponseFoldCache() = default;

uint64_t ResponseFoldCache::Fold(uint64_t h, const char* p, uint64_t n) {
  if (n == 0 || n > kMaxBytes) {
    return FnvFold(h, p, n);
  }
  uint64_t key = ContentKey(p, n);
  const Entry* e = Find(key, p, n);
  if (e != nullptr) {
    ++hits_;
  } else {
    uint64_t& seen = seen_[key % kSeenSlots];
    if (seen != key) {
      seen = key;  // First sighting: remember it, pay the byte-serial fold.
      return FnvFold(h, p, n);
    }
    e = &Build(key, p, n);
  }
  return e->pow * h + e->table[h & 0xff];
}

const ResponseFoldCache::Entry* ResponseFoldCache::Find(uint64_t key, const char* p,
                                                        uint64_t n) const {
  for (int i = 0; i < kEntries; ++i) {
    if (keys_[i] != key) {
      continue;
    }
    const Entry* e = entries_[i].get();
    if (e != nullptr && e->bytes.size() == n && std::memcmp(e->bytes.data(), p, n) == 0) {
      return e;
    }
  }
  return nullptr;
}

const ResponseFoldCache::Entry& ResponseFoldCache::Build(uint64_t key, const char* p,
                                                         uint64_t n) {
  int victim = next_slot_;
  next_slot_ = (victim + 1) % kEntries;
  std::unique_ptr<Entry>& slot = entries_[victim];
  if (slot == nullptr) {
    slot = std::make_unique<Entry>();
  }
  keys_[victim] = key;
  Entry& e = *slot;
  e.bytes.assign(p, p + n);
  // 256 independent FNV-1a chains, one per start-state low byte l, each
  // started at h = l; run eight at a time in registers.
  constexpr uint64_t kLanes = 8;
  for (uint64_t l = 0; l < 256; l += kLanes) {
    uint64_t s[kLanes];
    for (uint64_t k = 0; k < kLanes; ++k) {
      s[k] = l + k;
    }
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t b = static_cast<uint8_t>(p[i]);
      for (uint64_t& x : s) {
        x = (x ^ b) * kFnvPrime;
      }
    }
    for (uint64_t k = 0; k < kLanes; ++k) {
      e.table[l + k] = s[k];
    }
  }
  uint64_t pow = 1;
  for (uint64_t i = 0; i < n; ++i) {
    pow *= kFnvPrime;
  }
  e.pow = pow;
  for (uint64_t l = 0; l < 256; ++l) {
    e.table[l] -= pow * l;
  }
  ++builds_;
  return e;
}

}  // namespace ioldrv
