// Simulated DMA: the bytes devices deposit in IO-Lite buffers.
//
// Two deterministic patterns stand in for device data. A NIC fill
// (BufferPool::AllocateDma) writes an xorshift64 stream seeded per
// transfer, at allocation. Disk content (SimFileSystem) is per-offset, so
// any subrange of a file regenerates independently: a disk buffer may hold
// a descriptor instead of bytes, written by Buffer::data() on first read.
// The checksum module keeps a described range's sum as that descriptor and
// generates the range, 4 KB at a time on the stack, only when a reader
// forces the sum (checksum.h). Both fills are free in simulated time. On
// the host they run lane-parallel and stay byte-identical to the serial
// definitions:
//
//   xorshift  byte i = byte (i mod 8) of x_{i+1}, where x_0 = seed * phi + 1
//             and x_{k+1} = T(x_k) is one xorshift64 (13, 7, 17) step.
//   content   byte at offset o = low byte of splitmix64(seed + o * phi).
//
// The xorshift fill splits each 4 KB block into 8 contiguous lanes, starts
// each lane by jumping ahead over GF(2) with a constexpr table of T^512,
// and advances the lanes together as one 8 x uint64 vector: four SSE2
// registers on any x86-64, one register with AVX-512. The content fill
// runs 8 lanes of 8 bytes each with AVX-512DQ (a native 64-bit vector
// multiply) and a scalar loop everywhere else. Both choices are made at
// run time from the CPU.

#ifndef SRC_IOLITE_DMA_FILL_H_
#define SRC_IOLITE_DMA_FILL_H_

#include <cstddef>
#include <cstdint>

namespace iolite {

// Writes the first `n` bytes of the xorshift stream for `seed` to `dst`.
void FillXorshift(uint64_t seed, char* dst, size_t n);

// Content bytes depend on (seed, offset) only through this one word, so
// content bytes [offset, offset + n) for `seed` are content bytes [0, n)
// for ContentOrigin(seed, offset): one word names a described run.
inline uint64_t ContentOrigin(uint64_t seed, uint64_t offset) {
  return seed + offset * 0x9e3779b97f4a7c15ull;
}

// Disk content of a file whose content seed is `seed`, at `offset`.
inline uint8_t ContentByte(uint64_t seed, uint64_t offset) {
  uint64_t z = ContentOrigin(seed, offset);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return static_cast<uint8_t>((z ^ (z >> 31)) & 0xff);
}

// Writes content bytes [offset, offset + n) for `seed` to `dst`.
void FillContent(uint64_t seed, uint64_t offset, char* dst, size_t n);

// The kernels the two fills choose between, exposed for differential
// tests. The Avx512 ones may run only where HasAvx512Fill() is true.
bool HasAvx512Fill();
void FillXorshiftPortable(uint64_t seed, char* dst, size_t n);
void FillXorshiftAvx512(uint64_t seed, char* dst, size_t n);
void FillContentScalar(uint64_t seed, uint64_t offset, char* dst, size_t n);
void FillContentAvx512(uint64_t seed, uint64_t offset, char* dst, size_t n);

}  // namespace iolite

#endif  // SRC_IOLITE_DMA_FILL_H_
