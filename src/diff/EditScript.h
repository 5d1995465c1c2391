//===- diff/EditScript.h - edit scripts over instruction words ------------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binary diffing and edit scripts, operating on 4-byte SAVR instruction
/// words. The script language is the paper's (section 2.2): four primitives
/// — copy / remove (one byte each, carrying a length) and insert / replace
/// (a one-byte opcode followed by the raw instruction words). The encoded
/// script is what gets transmitted over the WSN; its byte size drives the
/// transmission-energy term of every experiment.
///
//===----------------------------------------------------------------------===//

#ifndef UCC_DIFF_EDITSCRIPT_H
#define UCC_DIFF_EDITSCRIPT_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ucc {

/// The four update primitives of section 2.2.
enum class EditOp : uint8_t { Copy = 0, Remove = 1, Insert = 2, Replace = 3 };

/// One primitive. Count is in instruction words; Insert/Replace carry the
/// words themselves.
struct EditPrim {
  EditOp Op = EditOp::Copy;
  uint32_t Count = 0;
  std::vector<uint32_t> Words;
};

/// An edit script transforming one word sequence into another.
struct EditScript {
  std::vector<EditPrim> Prims;

  /// Encoded size in bytes: copy/remove cost 1 byte per <=63 words;
  /// insert/replace cost 1 byte + 4 bytes per word (split every 63).
  size_t encodedBytes() const;

  /// Number of primitives after length splitting (packet-count estimates).
  size_t primitiveCount() const;

  std::vector<uint8_t> encode() const;
  static bool decode(const std::vector<uint8_t> &Bytes, EditScript &Out);
};

/// Largest function, in words per side, that alignWords aligns. Its LCS
/// table holds (MaxAlignWords+1)^2 uint32_t cells, 64 MiB at worst; a
/// Mica2's 128 KB program flash holds at most 32K words for the whole
/// image, and real functions are a few hundred words.
constexpr size_t MaxAlignWords = 4096;

/// Exact LCS alignment of \p Old and \p New: the paper's "best possible
/// binary match" (section 5.3). Returns matched index pairs (OldIdx,
/// NewIdx), strictly increasing in both, with the maximal match count and
/// a fixed tie-breaking. A pair with either side above MaxAlignWords gets
/// no matches, so its script ships the new words whole. Deterministic and
/// thread-safe.
std::vector<std::pair<int, int>>
alignWords(const std::vector<uint32_t> &Old, const std::vector<uint32_t> &New);

/// Builds a minimal-primitive edit script from the alignWords alignment.
EditScript makeEditScript(const std::vector<uint32_t> &Old,
                          const std::vector<uint32_t> &New);

/// Builds a script from an explicit alignment: \p Matches are (OldIdx,
/// NewIdx) pairs, strictly increasing in both, with Old[OldIdx] ==
/// New[NewIdx]. makeEditScript is this with the LCS alignment; the chain
/// composer passes the (generally sparser) alignment that survives a whole
/// version chain.
EditScript scriptFromMatches(const std::vector<uint32_t> &Old,
                             const std::vector<uint32_t> &New,
                             const std::vector<std::pair<int, int>> &Matches);

/// Composes two scripts into one: \p Out transforms \p Base directly into
/// the sequence that applying \p First to \p Base and then \p Second to
/// that result yields. A word is copied by \p Out only if *both* steps
/// copied it (reuse provenance intersects along the chain), so the
/// composed script models stepwise chain delivery and is never smaller
/// than a fresh endpoint diff — comparing the two is exactly the planner's
/// direct-vs-chained decision. Returns false when either script does not
/// apply.
bool composeEditScripts(const std::vector<uint32_t> &Base,
                        const EditScript &First, const EditScript &Second,
                        EditScript &Out);

/// The sensor-side patcher (paper Fig. 2): interprets \p Script against
/// \p Old. Returns false on a malformed script (wrong lengths).
bool applyEditScript(const std::vector<uint32_t> &Old,
                     const EditScript &Script, std::vector<uint32_t> &Out);

} // namespace ucc

#endif // UCC_DIFF_EDITSCRIPT_H
