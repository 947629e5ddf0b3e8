#include "src/graph/io.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <vector>

namespace sparsify {

namespace {

// Whitespace within a line (io.h): ' ', '\t' and '\r'.
const char* SkipBlanks(const char* p, const char* end) {
  while (p < end && (*p == ' ' || *p == '\t' || *p == '\r')) ++p;
  return p;
}

// Parses one vertex id at p (no sign, no leading whitespace). Returns the
// position after it, or nullptr when there is no id or it is too large.
const char* ParseId(const char* p, const char* end, NodeId* id) {
  uint64_t value = 0;
  const auto [next, ec] = std::from_chars(p, end, value);
  if (ec != std::errc() || value >= kInvalidNode) return nullptr;
  *id = static_cast<NodeId>(value);
  return next;
}

// Parses the weight field at p (io.h): the whole field, up to the next
// blank or the line end, must be a finite double with an optional leading
// '+'. Returns false when it is not.
bool ParseWeight(const char* p, const char* end, double* w) {
  const char* field_end = p;
  while (field_end < end && *field_end != ' ' && *field_end != '\t' &&
         *field_end != '\r') {
    ++field_end;
  }
  if (p < field_end && *p == '+') {
    ++p;
    if (p < field_end && *p == '-') return false;  // "+-1" is no number
  }
  double value = 0;
  const auto [next, ec] = std::from_chars(p, field_end, value);
  if (ec != std::errc() || next != field_end || !std::isfinite(value)) {
    return false;
  }
  *w = value;
  return true;
}

}  // namespace

Graph ParseEdgeList(std::string_view text, bool directed, bool weighted,
                    ThreadPool* pool) {
  std::vector<Edge> edges;
  edges.reserve(std::count(text.begin(), text.end(), '\n') + 1);
  NodeId max_id = 0;
  size_t lineno = 0;
  const char* p = text.data();
  const char* const end = p + text.size();
  while (p < end) {
    ++lineno;
    const char* line_end = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<size_t>(end - p)));
    if (line_end == nullptr) line_end = end;
    const char* cursor = SkipBlanks(p, line_end);
    if (cursor == line_end || *p == '#' || *p == '%') {
      p = line_end + (line_end < end);
      continue;
    }
    Edge e;
    cursor = ParseId(cursor, line_end, &e.u);
    if (cursor != nullptr) {
      cursor = ParseId(SkipBlanks(cursor, line_end), line_end, &e.v);
    }
    if (cursor == nullptr) {
      throw std::runtime_error("bad edge at line " + std::to_string(lineno));
    }
    if (weighted) {
      cursor = SkipBlanks(cursor, line_end);
      if (cursor < line_end && !ParseWeight(cursor, line_end, &e.w)) {
        throw std::runtime_error("bad weight at line " +
                                 std::to_string(lineno));
      }
    }
    edges.push_back(e);
    max_id = std::max({max_id, e.u, e.v});
    p = line_end + (line_end < end);
  }
  const NodeId n = edges.empty() ? 0 : max_id + 1;
  return Graph::FromEdges(n, std::move(edges), directed, weighted, pool);
}

Graph ReadEdgeList(const std::string& path, bool directed, bool weighted,
                   ThreadPool* pool) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  return ParseEdgeList(text, directed, weighted, pool);
}

void WriteEdgeListStream(const Graph& g, std::ostream& out) {
  out << "# " << g.Summary() << "\n";
  for (const Edge& e : g.Edges()) {
    out << e.u << " " << e.v;
    if (g.IsWeighted()) out << " " << e.w;
    out << "\n";
  }
}

void WriteEdgeList(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  WriteEdgeListStream(g, out);
}

}  // namespace sparsify
