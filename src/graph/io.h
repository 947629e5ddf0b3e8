// Plain-text edge-list I/O, compatible with the SNAP dataset format used by
// the paper ("# comment" header lines, one "src dst [weight]" pair per line).
#ifndef SPARSIFY_GRAPH_IO_H_
#define SPARSIFY_GRAPH_IO_H_

#include <iosfwd>
#include <string>
#include <string_view>

#include "src/graph/graph.h"

namespace sparsify {

class ThreadPool;

/// Parses a SNAP edge list: the library's one text parser. `ingest`,
/// `sparsify` and `evaluate` all read their input through it.
///
/// Contract:
///  - Lines end at '\n'. Whitespace is ' ', '\t' and '\r', so a CRLF line
///    end or a lone '\r' is whitespace.
///  - A blank line (only whitespace, or empty) is skipped.
///  - A line whose first character is '#' or '%' is a comment.
///  - Every other line is "u v" or "u v w", fields separated by spaces or
///    tabs, leading whitespace allowed. u and v are decimal ids below
///    kInvalidNode (so max id + 1 fits NodeId); both must be on the line.
///    When `weighted`, a third field is the weight: the whole field (up
///    to the next blank or the line end) must be a finite double, an
///    optional '+' followed by std::from_chars syntax. A line without a
///    third field has weight 1.0. Fields after the weight are ignored,
///    and so is everything after v when not `weighted`.
///  - Vertex ids may be sparse: the graph has max id + 1 vertices.
/// A line that breaks the contract throws std::runtime_error
/// "bad edge at line N" (1-based), or "bad weight at line N" when only
/// its weight field is malformed (`0 1 abc`, `0 1 2.5abc`, `0 1 1e400`,
/// `0 1 nan`). The graph is built by Graph::FromEdges
/// on `pool` (may be null), so it is the same at any thread count.
Graph ParseEdgeList(std::string_view text, bool directed, bool weighted,
                    ThreadPool* pool = nullptr);

/// Reads an edge-list file in one bulk read and parses it with
/// ParseEdgeList. Throws std::runtime_error on I/O or parse errors.
Graph ReadEdgeList(const std::string& path, bool directed, bool weighted,
                   ThreadPool* pool = nullptr);

/// Writes the canonical edges as "u v w" (weighted) or "u v" lines with a
/// header comment describing the graph.
void WriteEdgeListStream(const Graph& g, std::ostream& out);
void WriteEdgeList(const Graph& g, const std::string& path);

}  // namespace sparsify

#endif  // SPARSIFY_GRAPH_IO_H_
