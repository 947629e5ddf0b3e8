// The result store's line format, shared by the store and its tests.
//
// Every log file is a version-2 header line followed by one flat JSON
// object per line: a result record, an error record or a claim, each
// ending in a CRC-32C field. Replay reads result records through a
// fixed-schema decoder that knows the writer's own key order and parses
// in place; any line it does not accept goes to the generic flat-JSON
// parser, which judges it exactly as it always has. See README.md.
#ifndef SPARSIFY_STORE_RECORD_CODEC_H_
#define SPARSIFY_STORE_RECORD_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/store/result_store.h"

namespace sparsify::store_codec {

/// A CellKey whose names are views (into a log line, the store's name
/// table or a CellKey); it never outlives what they point into.
struct CellKeyView {
  std::string_view dataset;
  std::string_view sparsifier;
  double prune_rate = 0.0;
  int run = 0;
  uint64_t master_seed = 0;
  std::string_view metric;
  std::string_view code_rev;

  CellKeyView() = default;
  explicit CellKeyView(const CellKey& key)
      : dataset(key.dataset),
        sparsifier(key.sparsifier),
        prune_rate(key.prune_rate),
        run(key.run),
        master_seed(key.master_seed),
        metric(key.metric),
        code_rev(key.code_rev) {}
};

/// %.17g: round-trips every finite double; nan and inf print bare.
std::string FormatDouble(double v);

/// The file header line, newline included.
std::string SerializeHeader();

/// One checksummed record line, newline included: a result record, or an
/// error record when `outcome.is_error`.
std::string SerializeRecord(const CellKeyView& key,
                            const StoredOutcome& outcome);

/// One checksummed claim line, newline included.
std::string SerializeClaim(const StoredClaim& claim);

/// True when `line` is this format's header. Throws StoreCorruptError
/// when it is, but names an unsupported version.
bool ParseHeader(std::string_view line);

enum class LineKind { kCell, kClaim, kBad };

/// One decoded record line. Reused across lines: each decode overwrites
/// every field it reports.
struct DecodedLine {
  LineKind kind = LineKind::kBad;
  /// Null for a valid record; else "corrupt record" (it does not parse) or
  /// "checksum mismatch" (it parses, but its CRC-32C field disagrees).
  const char* bad = nullptr;
  CellKeyView key;        // kCell: views into the line or into owned_key
  StoredOutcome outcome;  // kCell
  StoredClaim claim;      // kClaim
  CellKey owned_key;      // the generic parser's unescaped key names
};

/// Decodes one record line (not a header; no newline). With `fast`, a
/// result record in the writer's key order and with no escapes is decoded
/// in place (key views point into `line`); every other line, and every
/// line without `fast`, goes through the generic parser. Both give the
/// same kind, fields and verdict for every line.
void DecodeRecordLine(std::string_view line, bool fast, DecodedLine* out);

}  // namespace sparsify::store_codec

#endif  // SPARSIFY_STORE_RECORD_CODEC_H_
