// Times LoadDatasetScaled for each `name@scale` argument, `reps` times
// over, and prints one line per call:
//
//   perfbench_load <reps> ego-Facebook@1.5 ca-AstroPh@1 ...
//   -> load <name> <scale> <seconds> <vertices> <edges>
//
// The graphs are the registry's fixed generator recipes, so every call
// builds the same graph; the vertex and edge counts let the caller check
// that.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "src/graph/datasets.h"

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: perfbench_load REPS NAME@SCALE...\n");
    return 1;
  }
  const int reps = std::atoi(argv[1]);
  if (reps < 1) {
    std::fprintf(stderr, "perfbench_load: REPS must be >= 1\n");
    return 1;
  }
  try {
    for (int r = 0; r < reps; ++r) {
      for (int i = 2; i < argc; ++i) {
        const std::string spec = argv[i];
        const size_t at = spec.rfind('@');
        if (at == std::string::npos || at == 0) {
          std::fprintf(stderr, "perfbench_load: expected NAME@SCALE, got %s\n",
                       spec.c_str());
          return 1;
        }
        const std::string name = spec.substr(0, at);
        const double scale = std::stod(spec.substr(at + 1));
        const auto start = std::chrono::steady_clock::now();
        sparsify::Dataset d = sparsify::LoadDatasetScaled(name, scale);
        const double seconds = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - start)
                                   .count();
        std::printf("load %s %g %.9f %zu %zu\n", name.c_str(), scale, seconds,
                    static_cast<size_t>(d.graph.NumVertices()),
                    static_cast<size_t>(d.graph.NumEdges()));
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_load: %s\n", e.what());
    return 1;
  }
  return 0;
}
