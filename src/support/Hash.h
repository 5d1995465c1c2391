//===- support/Hash.h - deterministic hashing and canonical keys ----------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The library's two hash functions and its canonical key encoder:
///
///  - 64-bit FNV-1a, for content hashes (images, store source text — the
///    values are persisted in a directory store's manifest.json, so they
///    must never change) and for MemoCache bucket hashes;
///  - the splitmix64 finalizer, for decorrelating derived values (RNG
///    seeding, simulator link qualities);
///  - KeyWriter, which serializes a cache key's inputs as fixed-width
///    little-endian fields with every sequence count-prefixed, so two
///    distinct inputs never encode to the same bytes.
///
//===----------------------------------------------------------------------===//

#ifndef UCC_SUPPORT_HASH_H
#define UCC_SUPPORT_HASH_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace ucc {

/// The FNV-1a 64-bit offset basis (the hash of no bytes).
constexpr uint64_t Fnv1aBasis = 0xcbf29ce484222325ULL;

/// The basis the version store's source hashes and the plan service's
/// content keys start from: the decimal offset basis with its last digit
/// dropped. Source hashes are persisted in manifest.json, so it stays.
constexpr uint64_t StoreHashBasis = 1469598103934665603ULL;

/// FNV-1a over \p Len bytes, continuing from \p H (chain calls to hash a
/// concatenation without building it).
inline uint64_t fnv1a(const void *Data, size_t Len, uint64_t H = Fnv1aBasis) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < Len; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ULL;
  }
  return H;
}

inline uint64_t fnv1a(const std::vector<uint8_t> &Bytes) {
  return fnv1a(Bytes.data(), Bytes.size());
}

/// The splitmix64 output function: a bijective 64-bit mixer.
inline uint64_t splitmix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// Appends fixed-width little-endian fields to a key buffer. The encoding
/// is canonical: every field is length- or count-prefixed, so no two
/// distinct inputs serialize to the same bytes.
class KeyWriter {
public:
  explicit KeyWriter(std::vector<uint8_t> &Out) : Out(Out) {}

  void u8(uint8_t V) { Out.push_back(V); }
  void u16(uint16_t V) { raw(&V, sizeof V); }
  void u32(uint32_t V) { raw(&V, sizeof V); }
  void i32(int32_t V) { raw(&V, sizeof V); }
  void i64(int64_t V) { raw(&V, sizeof V); }
  void u64(uint64_t V) { raw(&V, sizeof V); }
  void f64(double V) {
    if (V == 0.0)
      V = 0.0; // canonicalize -0.0
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof Bits);
    u64(Bits);
  }
  void str(std::string_view S) {
    u32(static_cast<uint32_t>(S.size()));
    Out.insert(Out.end(), S.begin(), S.end());
  }
  void ints(const std::vector<int> &V) {
    u32(static_cast<uint32_t>(V.size()));
    for (int X : V)
      i32(X);
  }
  void doubles(const std::vector<double> &V) {
    u32(static_cast<uint32_t>(V.size()));
    for (double X : V)
      f64(X);
  }
  void strs(const std::vector<std::string> &V) {
    u32(static_cast<uint32_t>(V.size()));
    for (const std::string &S : V)
      str(S);
  }

private:
  void raw(const void *P, size_t N) {
    const uint8_t *B = static_cast<const uint8_t *>(P);
    Out.insert(Out.end(), B, B + N);
  }

  std::vector<uint8_t> &Out;
};

} // namespace ucc

#endif // UCC_SUPPORT_HASH_H
