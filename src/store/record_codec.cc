#include "src/store/record_codec.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <system_error>
#include <utility>

#include "src/util/crc32c.h"
#include "src/util/errors.h"

namespace sparsify::store_codec {

namespace {

// ---------------------------------------------------------------------------
// Minimal flat-JSON line codec. The store both writes and reads every line,
// so only the subset it emits must round-trip: one object per line, string
// keys, values that are strings or numbers. Doubles use %.17g, which
// round-trips every finite IEEE double (nan/inf are emitted bare and
// accepted back).
// ---------------------------------------------------------------------------

void AppendEscaped(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

struct Field {
  bool is_string = false;
  std::string text;  // unescaped string, or the raw number token
};

using FieldMap = std::map<std::string, Field>;

// Parses one flat JSON object. Returns false on any syntax error (the
// caller decides whether that is a droppable tail or fatal corruption).
bool ParseFlatObject(std::string_view line, FieldMap* out) {
  size_t i = 0;
  auto skip_ws = [&] {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  };
  auto parse_string = [&](std::string* s) -> bool {
    if (i >= line.size() || line[i] != '"') return false;
    ++i;
    while (i < line.size()) {
      char c = line[i];
      if (c == '"') {
        ++i;
        return true;
      }
      if (c == '\\') {
        if (i + 1 >= line.size()) return false;
        char esc = line[i + 1];
        i += 2;
        switch (esc) {
          case '"': s->push_back('"'); break;
          case '\\': s->push_back('\\'); break;
          case '/': s->push_back('/'); break;
          case 'n': s->push_back('\n'); break;
          case 't': s->push_back('\t'); break;
          case 'r': s->push_back('\r'); break;
          case 'b': s->push_back('\b'); break;
          case 'f': s->push_back('\f'); break;
          case 'u': {
            if (i + 4 > line.size()) return false;
            char* end = nullptr;
            const std::string hex(line.substr(i, 4));
            long code = std::strtol(hex.c_str(), &end, 16);
            if (end != hex.c_str() + 4 || code > 0xff) return false;
            s->push_back(static_cast<char>(code));
            i += 4;
            break;
          }
          default:
            return false;
        }
      } else {
        s->push_back(c);
        ++i;
      }
    }
    return false;  // unterminated string
  };

  skip_ws();
  if (i >= line.size() || line[i] != '{') return false;
  ++i;
  skip_ws();
  if (i < line.size() && line[i] == '}') {
    ++i;
  } else {
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(&key)) return false;
      skip_ws();
      if (i >= line.size() || line[i] != ':') return false;
      ++i;
      skip_ws();
      Field field;
      if (i < line.size() && line[i] == '"') {
        field.is_string = true;
        if (!parse_string(&field.text)) return false;
      } else {
        // Number (or nan/inf/true/false/null): take the bare token.
        size_t start = i;
        while (i < line.size() && line[i] != ',' && line[i] != '}' &&
               line[i] != ' ' && line[i] != '\t') {
          ++i;
        }
        field.text = line.substr(start, i - start);
        if (field.text.empty()) return false;
      }
      (*out)[key] = std::move(field);
      skip_ws();
      if (i < line.size() && line[i] == ',') {
        ++i;
        continue;
      }
      if (i < line.size() && line[i] == '}') {
        ++i;
        break;
      }
      return false;
    }
  }
  skip_ws();
  return i == line.size();  // trailing garbage is a parse failure
}

bool GetString(const FieldMap& f, const std::string& key, std::string* out) {
  auto it = f.find(key);
  if (it == f.end() || !it->second.is_string) return false;
  *out = it->second.text;
  return true;
}

bool GetDouble(const FieldMap& f, const std::string& key, double* out) {
  auto it = f.find(key);
  if (it == f.end() || it->second.is_string) return false;
  char* end = nullptr;
  *out = std::strtod(it->second.text.c_str(), &end);
  return end == it->second.text.c_str() + it->second.text.size();
}

bool GetUint64(const FieldMap& f, const std::string& key, uint64_t* out) {
  auto it = f.find(key);
  if (it == f.end() || it->second.is_string) return false;
  char* end = nullptr;
  *out = std::strtoull(it->second.text.c_str(), &end, 10);
  return end == it->second.text.c_str() + it->second.text.size();
}

bool GetInt(const FieldMap& f, const std::string& key, int* out) {
  auto it = f.find(key);
  if (it == f.end() || it->second.is_string) return false;
  char* end = nullptr;
  long v = std::strtol(it->second.text.c_str(), &end, 10);
  if (end != it->second.text.c_str() + it->second.text.size()) return false;
  *out = static_cast<int>(v);
  return true;
}

constexpr char kFormatName[] = "sparsify-result-store";

// The record-final checksum field. The CRC covers the serialized record
// WITHOUT this suffix (i.e. the bytes up to the suffix, plus the closing
// brace), so writer and reader agree without re-serializing.
constexpr std::string_view kCrcSuffix = ",\"crc32c\":\"";
constexpr size_t kCrcHexLen = 8;

// Takes a serialized record "{...}" (no newline), returns it with the
// checksum spliced in before the closing brace and a trailing newline:
// {...,"crc32c":"xxxxxxxx"}\n
std::string WithCrc(std::string record) {
  const uint32_t crc = Crc32c(record);
  char hex[kCrcHexLen + 1];
  std::snprintf(hex, sizeof(hex), "%08x", crc);
  record.pop_back();  // the '}' the CRC nonetheless covers
  record += kCrcSuffix;
  record += hex;
  record += "\"}\n";
  return record;
}

// Reads the lowercase hex digits the writer emits; anything else fails.
bool ParseCrcHex(std::string_view hex, uint32_t* out) {
  uint32_t want = 0;
  for (char c : hex) {
    uint32_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint32_t>(c - 'a' + 10);
    } else {
      return false;
    }
    want = (want << 4) | digit;
  }
  *out = want;
  return true;
}

// True when the bytes before the checksum field at `p`, re-closed with the
// '}' the field displaced, have checksum `want`.
bool CoveredCrcIs(std::string_view line, size_t p, uint32_t want) {
  return Crc32cExtend(Crc32c(line.data(), p), "}", 1) == want;
}

// True when `line` ends in a well-formed, matching checksum field. A
// record without one is as corrupt as one whose checksum fails.
bool CrcOk(std::string_view line) {
  const size_t p = line.rfind(kCrcSuffix);
  // The suffix must be exactly the final field: ,"crc32c":"XXXXXXXX"}
  if (p == std::string_view::npos ||
      p + kCrcSuffix.size() + kCrcHexLen + 2 != line.size() ||
      !line.ends_with("\"}")) {
    return false;
  }
  uint32_t want = 0;
  return ParseCrcHex(line.substr(p + kCrcSuffix.size(), kCrcHexLen),
                     &want) &&
         CoveredCrcIs(line, p, want);
}

// Parses a record line into a cell, or recognizes a claim. grid_index,
// an r3 key component dropped in r4, parses as an ignored extra field, so
// pre-r4 logs still replay (their records simply never match r4 keys).
LineKind ParseLine(std::string_view line, CellKey* key,
                   StoredOutcome* outcome) {
  FieldMap fields;
  if (!ParseFlatObject(line, &fields)) return LineKind::kBad;
  std::string kind;
  const bool has_kind = GetString(fields, "kind", &kind);
  if (has_kind && kind == "claim") {
    // Written by binaries that shared one directory between writers;
    // judged whole as before, but nothing of it is kept.
    std::string writer, scope;
    uint64_t chunk = 0;
    return GetString(fields, "writer", &writer) &&
                   GetString(fields, "scope", &scope) &&
                   GetUint64(fields, "chunk", &chunk)
               ? LineKind::kClaim
               : LineKind::kBad;
  }
  if (!GetString(fields, "dataset", &key->dataset) ||
      !GetString(fields, "sparsifier", &key->sparsifier) ||
      !GetDouble(fields, "prune_rate", &key->prune_rate) ||
      !GetInt(fields, "run", &key->run) ||
      !GetUint64(fields, "master_seed", &key->master_seed) ||
      !GetString(fields, "metric", &key->metric) ||
      !GetString(fields, "code_rev", &key->code_rev)) {
    return LineKind::kBad;
  }
  if (has_kind) {
    if (kind != "error") return LineKind::kBad;  // unknown record kind
    outcome->is_error = true;
    if (!GetString(fields, "error_class", &outcome->error_class) ||
        !GetString(fields, "error", &outcome->error_message)) {
      return LineKind::kBad;
    }
    GetInt(fields, "attempts", &outcome->attempts);  // optional
    return LineKind::kCell;
  }
  outcome->is_error = false;
  return GetDouble(fields, "achieved_prune_rate",
                   &outcome->achieved_prune_rate) &&
                 GetDouble(fields, "value", &outcome->value)
             ? LineKind::kCell
             : LineKind::kBad;
}

// ---------------------------------------------------------------------------
// Fixed-schema decoder for result records exactly as SerializeRecord writes
// them. Every step either matches the writer's bytes or gives up, and it
// gives up on anything whose value the generic parser could read
// differently: escapes, a leading '+', hex floats, nan payloads, a number
// out of range. A line it accepts therefore parses to the same fields
// under ParseLine, and its checksum field sits where CrcOk looks for it
// (no string it accepted can hold a '"').
// ---------------------------------------------------------------------------

class FixedSchemaReader {
 public:
  explicit FixedSchemaReader(std::string_view line) : line_(line) {}

  size_t pos() const { return i_; }

  bool Literal(std::string_view lit) {
    if (line_.substr(i_, lit.size()) != lit) return false;
    i_ += lit.size();
    return true;
  }

  // The body of a string whose opening quote was consumed, and its
  // closing quote; fails on an escape.
  bool String(std::string_view* out) {
    const size_t close = line_.find('"', i_);
    if (close == std::string_view::npos) return false;
    const std::string_view body = line_.substr(i_, close - i_);
    if (body.find('\\') != std::string_view::npos) return false;
    *out = body;
    i_ = close + 1;
    return true;
  }

  // A number token running up to the next ','.
  bool Double(double* out) {
    const std::string_view tok = Token();
    if (tok.empty()) return false;
    // The writer's spellings of the non-finite values, as strtod reads them.
    if (tok == "inf" || tok == "-inf" || tok == "nan" || tok == "-nan") {
      const bool nan = tok.back() == 'n';
      const double v = nan ? std::numeric_limits<double>::quiet_NaN()
                           : std::numeric_limits<double>::infinity();
      *out = tok[0] == '-' ? -v : v;
      return true;
    }
    for (char c : tok) {
      const bool numeric = (c >= '0' && c <= '9') || c == '.' || c == '-' ||
                           c == '+' || c == 'e' || c == 'E';
      if (!numeric) return false;
    }
    return FromChars(tok, out);
  }

  template <typename Int>
  bool Integer(Int* out) {
    return FromChars(Token(), out);
  }

 private:
  std::string_view Token() {
    const size_t comma = line_.find(',', i_);
    if (comma == std::string_view::npos) return {};
    const std::string_view tok = line_.substr(i_, comma - i_);
    i_ = comma;
    return tok;
  }

  template <typename T>
  static bool FromChars(std::string_view tok, T* out) {
    const char* end = tok.data() + tok.size();
    const auto [ptr, ec] = std::from_chars(tok.data(), end, *out);
    return ec == std::errc() && ptr == end;
  }

  std::string_view line_;
  size_t i_ = 0;
};

bool DecodeResultFast(std::string_view line, DecodedLine* out) {
  FixedSchemaReader r(line);
  CellKeyView& k = out->key;
  double achieved = 0.0;
  double value = 0.0;
  if (!r.Literal("{\"dataset\":\"") || !r.String(&k.dataset) ||
      !r.Literal(",\"sparsifier\":\"") || !r.String(&k.sparsifier) ||
      !r.Literal(",\"prune_rate\":") || !r.Double(&k.prune_rate) ||
      !r.Literal(",\"run\":") || !r.Integer(&k.run) ||
      !r.Literal(",\"master_seed\":") || !r.Integer(&k.master_seed) ||
      !r.Literal(",\"metric\":\"") || !r.String(&k.metric) ||
      !r.Literal(",\"code_rev\":\"") || !r.String(&k.code_rev) ||
      !r.Literal(",\"achieved_prune_rate\":") || !r.Double(&achieved) ||
      !r.Literal(",\"value\":") || !r.Double(&value)) {
    return false;
  }
  const size_t p = r.pos();
  uint32_t want = 0;
  if (!r.Literal(kCrcSuffix) ||
      r.pos() + kCrcHexLen + 2 != line.size() || !line.ends_with("\"}") ||
      !ParseCrcHex(line.substr(r.pos(), kCrcHexLen), &want)) {
    return false;
  }
  out->kind = LineKind::kCell;
  out->bad = CoveredCrcIs(line, p, want) ? nullptr : "checksum mismatch";
  StoredOutcome& o = out->outcome;
  o.achieved_prune_rate = achieved;
  o.value = value;
  o.is_error = false;
  o.error_class.clear();
  o.error_message.clear();
  o.attempts = 0;
  return true;
}

}  // namespace

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string SerializeHeader() {
  std::string line = "{\"format\":\"";
  line += kFormatName;
  line += "\",\"version\":" +
          std::to_string(ResultStore::kFormatVersion) + "}\n";
  return line;
}

std::string SerializeRecord(const CellKeyView& key,
                            const StoredOutcome& outcome) {
  std::string line = "{\"dataset\":";
  AppendEscaped(&line, key.dataset);
  line += ",\"sparsifier\":";
  AppendEscaped(&line, key.sparsifier);
  line += ",\"prune_rate\":" + FormatDouble(key.prune_rate);
  line += ",\"run\":" + std::to_string(key.run);
  line += ",\"master_seed\":" + std::to_string(key.master_seed);
  line += ",\"metric\":";
  AppendEscaped(&line, key.metric);
  line += ",\"code_rev\":";
  AppendEscaped(&line, key.code_rev);
  if (outcome.is_error) {
    line += ",\"kind\":\"error\",\"error_class\":";
    AppendEscaped(&line, outcome.error_class);
    line += ",\"error\":";
    AppendEscaped(&line, outcome.error_message);
    line += ",\"attempts\":" + std::to_string(outcome.attempts);
  } else {
    line += ",\"achieved_prune_rate\":" +
            FormatDouble(outcome.achieved_prune_rate);
    line += ",\"value\":" + FormatDouble(outcome.value);
  }
  line += "}";
  return WithCrc(std::move(line));
}

bool ParseHeader(std::string_view line) {
  FieldMap fields;
  if (!ParseFlatObject(line, &fields)) return false;
  std::string format;
  int version = 0;
  if (!GetString(fields, "format", &format) ||
      !GetInt(fields, "version", &version)) {
    return false;
  }
  if (format != kFormatName) return false;
  if (version != ResultStore::kFormatVersion) {
    throw StoreCorruptError("result store: unsupported version " +
                            std::to_string(version));
  }
  return true;
}

void DecodeRecordLine(std::string_view line, bool fast, DecodedLine* out) {
  if (fast && DecodeResultFast(line, out)) return;
  out->owned_key = CellKey{};
  out->outcome = StoredOutcome{};
  out->kind = ParseLine(line, &out->owned_key, &out->outcome);
  out->key = CellKeyView(out->owned_key);
  if (out->kind == LineKind::kBad) {
    out->bad = "corrupt record";
  } else {
    out->bad = CrcOk(line) ? nullptr : "checksum mismatch";
  }
}

}  // namespace sparsify::store_codec
