#ifndef TPCDS_ENGINE_PLANNER_H_
#define TPCDS_ENGINE_PLANNER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace tpcds {

/// Execution-strategy switches, exposed so benchmarks can compare plans
/// (paper §2.1: the schema must exercise both star-schema and 3NF paths).
struct PlannerOptions {
  /// Semi-join reduction: before joining, filter the first FROM table (the
  /// fact table in a star query) against the qualifying-key sets of every
  /// filtered dimension it equi-joins — the engine's star transformation.
  /// Off = pure hash-join pipeline (the "3NF" path).
  bool star_transformation = true;

  /// Index-driven joins (paper §2.1's third DSS access path): an
  /// unfiltered base table equi-joined on one integer column is never
  /// scanned; the join probes the table's hash index and fetches matching
  /// rows directly. Off by default — hash joins are the baseline.
  bool index_joins = false;

  /// Threads one statement's operators run on: the calling thread plus
  /// parallelism - 1 workers of the process-wide executor pool
  /// (util/threadpool.h). 0 = one per hardware core (default), 1 = serial.
  /// Results are byte-identical at every setting: morsels have a fixed row
  /// count and partial results always merge in morsel order, so no
  /// ordering or float reassociation depends on this knob.
  int parallelism = 0;

  /// Query-governance limits, enforced at morsel boundaries by a
  /// QueryGovernor (docs/ROBUSTNESS.md). All zero = ungoverned. A query
  /// over any limit returns a clean kDeadlineExceeded / kResourceExhausted
  /// error; queries under the limits are byte-identical to ungoverned runs.
  double timeout_ms = 0.0;          // wall-clock deadline, 0 = unlimited
  int64_t memory_budget_bytes = 0;  // materialised-bytes budget, 0 = unlimited
  int64_t row_budget = 0;           // materialised-rows budget, 0 = unlimited

  /// Vectorized columnar fast path: pushed scan filters run as typed
  /// kernels over the raw storage vectors with selection vectors, zone
  /// maps prune whole morsels, and hash/semi joins build Bloom filters
  /// that reject probe rows early (pushed into probe-side scans when the
  /// build side is selective). Off = the row-at-a-time reference path.
  /// Results are byte-identical either way, at any parallelism.
  bool vectorized_execution = true;

  /// Cost-based planning (docs/PLANNER.md): column statistics
  /// (engine/stats.h) drive selectivity and join-cardinality estimates,
  /// which (a) reorder comma-joined FROM lists greedily
  /// smallest-estimated-intermediate-first, (b) pick the star-transform
  /// dimension order most-selective-first, and (c) gate Bloom/semi-join
  /// key pushdown on the estimated reduction ratio instead of the
  /// structural keys*8<=rows guess. Plans are annotated with estimated
  /// rows per operator (EXPLAIN shows est vs. actual plus the query's max
  /// q-error). Off restores the structural FROM-order shapes. Results are
  /// byte-identical either way, at any parallelism: join output feeds
  /// name-resolved operators, and pushdown never changes what the exact
  /// join checks admit.
  bool cost_based = true;
};

/// Statistics of one statement execution, for benchmarking and EXPLAIN.
struct ExecStats {
  int64_t rows_scanned = 0;
  int64_t rows_joined = 0;
  int64_t star_filtered_rows = 0;  // fact rows removed by semi-join filters
  int64_t morsels_pruned = 0;      // scan morsels skipped via zone maps
  int64_t bloom_rejects = 0;       // join/scan rows rejected by Bloom filters
  int64_t topk_seen = 0;           // rows offered to Top-K bounded heaps
  int64_t topk_kept = 0;           // rows those heaps retained
  int64_t bytes_touched = 0;       // storage payload bytes read by scans
                                   // (morsel-granular; pruned morsels
                                   // excluded)

  /// One entry per physical-plan operator, pre-order with `depth` giving
  /// the tree indentation. `executed` is false for operators skipped at
  /// run time (e.g. a memoised subtree's duplicate listing).
  struct OpStat {
    std::string label;
    int depth = 0;
    int64_t rows_in = 0;
    int64_t rows_out = 0;
    double seconds = 0.0;  // self time, children excluded
    bool executed = false;
    int64_t morsels_pruned = 0;
    int64_t bloom_rejects = 0;
    bool vectorized = false;
    int64_t topk_seen = 0;
    int64_t topk_kept = 0;
    int64_t bytes_touched = 0;
    /// Planner cardinality estimate for this operator's output; negative
    /// when the plan was not cost-annotated (cost_based off).
    double est_rows = -1.0;
  };
  std::vector<OpStat> operators;

  /// Worst estimation error across executed, cost-annotated operators:
  /// max over operators of max(est/actual, actual/est), with +1 smoothing
  /// so empty outputs stay finite. 0 when nothing was annotated; 1.0 is a
  /// perfect estimate.
  double max_q_error = 0.0;
};

}  // namespace tpcds

#endif  // TPCDS_ENGINE_PLANNER_H_
