// The unified command-line driver (built as the `sparsify_cli` binary).
//
// Subcommands:
//   list      enumerate sparsifiers, datasets, metrics, figures
//   sparsify  one graph through one algorithm (file in, file out)
//   evaluate  one metric on an (original, sparsified) file pair
//   sweep     {sparsifier x prune-rate x run} grids, optionally persisted
//             to a result store (--store=DIR) and resumable (--resume)
//   export    result store -> CSV or pivot tables
//   ls        summarize a result store
//   figure    regenerate paper figures by id: each id is a preset of the
//             driver `sweep` and `profile` run (same engine, store,
//             fault policy and exit codes), printed as the figure
//
// Kept as a library entry point so tests can drive the exact CLI paths.
#ifndef SPARSIFY_CLI_SPARSIFY_CLI_H_
#define SPARSIFY_CLI_SPARSIFY_CLI_H_

namespace sparsify::cli {

// Exit codes. Distinct codes per failure class so scripts (and the
// crash-torture harness) can branch on WHY a run failed without parsing
// stderr. Every code is stable API; tests pin each one.
inline constexpr int kExitOk = 0;
inline constexpr int kExitUsage = 1;        // bad usage / unclassified error
inline constexpr int kExitIo = 2;           // filesystem failure (IoError)
inline constexpr int kExitLockHeld = 3;     // store held by another writer
inline constexpr int kExitCorruptStore = 4; // store failed replay validation
inline constexpr int kExitUnitFailures = 5; // sweep finished, but >=1 unit
                                            // failed permanently
inline constexpr int kExitTransientFailures = 6;  // sweep finished; every
                                                  // failure was transient
                                                  // (retries exhausted) or a
                                                  // unit deadline —
                                                  // re-running may succeed
inline constexpr int kExitInterrupted = 7;  // SIGINT/SIGTERM: in-flight units
                                            // drained, completed units
                                            // persisted; --resume continues
inline constexpr int kExitDeadline = 8;     // --deadline expired: same drain
                                            // + persist contract as a signal

/// argv-level entry point; returns the process exit code. Unknown
/// subcommands and unknown --flags print an error plus usage and return
/// nonzero instead of being silently ignored. Reads SPARSIFY_FAILPOINTS
/// (fault-injection spec; see util/failpoint.h) at entry, so torture
/// harnesses can inject faults into an unmodified binary.
int RunSparsifyCli(int argc, char** argv);

}  // namespace sparsify::cli

#endif  // SPARSIFY_CLI_SPARSIFY_CLI_H_
