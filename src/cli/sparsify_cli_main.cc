#include <cstdlib>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "src/cli/sparsify_cli.h"

int main(int argc, char** argv) {
#ifdef __GLIBC__
  // Pin glibc's mmap threshold at its 128 KiB default. Left dynamic, the
  // threshold rises after the first large free, and from then on every
  // freed |E|-sized buffer (subgraphs, score states, keep-masks) stays
  // resident in its worker thread's arena; with every pool thread
  // building subgraphs at once, those retained buffers set the sweep's
  // peak RSS. Pinned, such buffers are mmapped and returned on free.
  mallopt(M_MMAP_THRESHOLD, 128 << 10);
#endif
  return sparsify::cli::RunSparsifyCli(argc, argv);
}
