// Multi-process shard scheduler: the claim/steal half of ResumableSweep.
//
// N worker processes (`sparsify_cli sweep --shard=i/N`) share one store
// directory. The FULL grid — never the missing subset, which differs per
// worker — is partitioned into contiguous chunks of cells in task order,
// so every worker derives the identical partition regardless of what its
// store replay happened to contain. Chunk c's preferred owner is worker
// c % N. A worker announces work by appending a claim record (scoped by
// a hash of the partition, so claims from incompatible grids are
// ignored) to its OWN segment, runs the chunk's missing units, then
// turns to stealing: any incomplete chunk whose claimants are all dead
// (lease reaped or heartbeat stale) is re-claimed and its unrecorded
// units recomputed. Since every unit's RNG stream derives from
// grid-shape-independent identities (GroupSeed / MetricSeed), a stolen
// unit recomputes bit-identically on any worker — which is what makes
// the crash-convergence guarantee byte-level: kill -9 any worker and the
// survivors converge to the same store a cold single-process sweep
// writes.
//
// Liveness caveat: a claimant that renews its lease but never finishes
// (wedged compute, live heartbeat) blocks its chunks indefinitely —
// steal only fires for provably-dead writers. --deadline / SIGINT are
// the escape hatch, exactly as for a wedged single-process sweep.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/engine/resumable_sweep.h"
#include "src/obs/counters.h"
#include "src/obs/trace.h"
#include "src/util/failpoint.h"

namespace sparsify {

namespace {

// Peer-refresh cadence while every incomplete chunk is owned by a live
// worker.
constexpr double kPollSeconds = 0.25;

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

void ResumableSweep::RunShardedMulti(Grid& grid, ResumableSweepStats& stats) {
  TRACE_SPAN(span, "shard_sweep");
  if (store_ == nullptr) {
    throw std::invalid_argument(
        "sharded sweep: --shard requires a result store (workers "
        "coordinate through it)");
  }
  static obs::Counter& claim_count = obs::GetCounter("engine.shard_claims");
  static obs::Counter& steal_count = obs::GetCounter("engine.shard_steals");
  const std::vector<BatchTask>& tasks = grid.tasks;

  // ~8 chunks per worker: coarse enough that claim records stay few,
  // fine enough that a dead worker's unfinished work spreads over the
  // survivors instead of landing on one.
  const size_t chunk_cells =
      std::max<size_t>(1, tasks.size() / (8 * shard_.total));
  const size_t num_chunks = (tasks.size() + chunk_cells - 1) / chunk_cells;

  // Claim scope: a hash of everything two workers must agree on for
  // their chunk ids to mean the same units. Replayed claims from an
  // older grid (different rates list, different shard count, ...) hash
  // differently and are ignored.
  std::string scope_src = grid.dataset;
  scope_src.push_back('\x1f');
  scope_src += std::to_string(grid.spec.master_seed);
  scope_src.push_back('\x1f');
  scope_src += code_rev_;
  scope_src.push_back('\x1f');
  scope_src += std::to_string(shard_.total);
  scope_src.push_back('\x1f');
  scope_src += std::to_string(chunk_cells);
  for (const BatchTask& task : tasks) {
    scope_src.push_back('\x1f');
    scope_src += task.sparsifier;
    scope_src.push_back(':');
    char rate[32];
    std::snprintf(rate, sizeof(rate), "%.17g", task.prune_rate);
    scope_src += rate;
    scope_src.push_back(':');
    scope_src += std::to_string(task.run);
  }
  for (const BatchMetric& m : grid.metrics) {
    scope_src.push_back('\x1f');
    scope_src += m.name;
  }
  char scope_hex[17];
  std::snprintf(scope_hex, sizeof(scope_hex), "%016llx",
                static_cast<unsigned long long>(Fnv1a(scope_src)));
  const std::string scope = scope_hex;

  stats.shard_chunks = num_chunks;

  auto cancelled = [&] { return cancel_ != nullptr && cancel_->Cancelled(); };

  // `errors_present` = an error record satisfies the unit. Phase A (a
  // worker's own chunks) says no — resume semantics, stale errors are
  // retried; phase B says yes, or two survivors would ping-pong a
  // deterministically failing unit forever.
  auto chunk_missing = [&](size_t c, bool errors_present) {
    const size_t begin = c * chunk_cells;
    const size_t end = std::min(tasks.size(), begin + chunk_cells);
    return MissingCells(grid, begin, end, errors_present,
                        /*set_found=*/false);
  };

  // True when some OTHER live writer has claimed chunk `c` — its work is
  // coming, this worker must neither duplicate nor steal it.
  auto claimed_by_live_other = [&](size_t c) {
    for (const StoredClaim& claim : store_->Claims()) {
      if (claim.scope != scope || claim.chunk != c) continue;
      if (claim.writer == store_->WriterId()) continue;
      if (store_->WriterAlive(claim.writer)) return true;
    }
    return false;
  };

  // Progress denominator = the full grid: a shard worker cannot know its
  // final share up front (it grows with every steal).
  auto run_units = [&](const std::vector<BatchTask>& missing) {
    if (!cancelled()) RunUnits(grid, missing, stats.total_cells, stats);
  };

  // --- Phase A: this worker's preferred chunks -------------------------
  for (size_t c = shard_.index % shard_.total; c < num_chunks;
       c += shard_.total) {
    if (cancelled()) break;
    store_->RefreshPeers();
    std::vector<BatchTask> missing =
        chunk_missing(c, /*errors_present=*/false);
    if (missing.empty()) continue;  // chunk already complete
    if (claimed_by_live_other(c)) continue;  // a stealer beat us to it
    store_->AppendClaim(scope, c);
    ++stats.shard_claimed;
    claim_count.Add();
    run_units(missing);
  }

  // --- Phase B: steal dead workers's incomplete chunks -----------------
  if (shard_.steal) {
    while (!cancelled()) {
      store_->RefreshPeers();
      bool all_complete = true;
      size_t stealable = num_chunks;  // sentinel: none
      std::vector<BatchTask> steal;   // stealable's missing units
      for (size_t c = 0; c < num_chunks; ++c) {
        std::vector<BatchTask> missing =
            chunk_missing(c, /*errors_present=*/true);
        if (missing.empty()) continue;
        all_complete = false;
        if (stealable == num_chunks && !claimed_by_live_other(c)) {
          stealable = c;
          steal = std::move(missing);
        }
      }
      if (all_complete) break;
      if (stealable != num_chunks) {
        SPARSIFY_FAILPOINT("engine.claim.steal");
        store_->AppendClaim(scope, stealable);
        ++stats.shard_stolen;
        steal_count.Add();
        run_units(steal);
      } else {
        // Every incomplete chunk is owned by a live worker: wait for it
        // to finish or die.
        std::this_thread::sleep_for(
            std::chrono::duration<double>(kPollSeconds));
      }
    }
  }

  // --- Reassembly: fold own + peer records into the output series -----
  // Unresolved units (cancelled mid-run, or a failed unit's error record)
  // keep the default slot, exactly like the unsharded path.
  store_->RefreshPeers();
  MissingCells(grid, 0, tasks.size(), /*errors_present=*/false,
               /*set_found=*/true);
}

}  // namespace sparsify
