#ifndef TPCDS_ENGINE_PLAN_H_
#define TPCDS_ENGINE_PLAN_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/ast.h"
#include "engine/batch.h"
#include "engine/rowset.h"
#include "util/result.h"

namespace tpcds {

class DataFacade;

/// Execution-strategy switches, exposed so benchmarks can compare plans
/// (paper §2.1: the schema must exercise both star-schema and 3NF paths).
struct PlannerOptions {
  /// Semi-join reduction: before joining, filter the first FROM table (the
  /// fact table in a star query) against the qualifying-key sets of every
  /// filtered dimension it equi-joins — the engine's star transformation.
  /// Off = pure hash-join pipeline (the "3NF" path).
  bool star_transformation = true;

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
};

/// Physical operator kinds. One tagged struct (like Expr) keeps the tree
/// walkable without a visitor hierarchy; per-kind payload fields below.
enum class PlanKind {
  kScan,            // base-table scan with pruned columns + pushed filters
  kCteRef,          // reference to a materialised WITH-CTE result
  kDerived,         // derived table (subselect in FROM), re-qualified
  kIndexJoin,       // probe a base table's hash index from the left input
  kSemiJoinReduce,  // star transformation: filter fact by dim key set
  kHashJoin,        // hash (or nested-loop when no equi keys) join
  kFilter,          // residual predicate application
  kAggregate,       // grouped aggregation (plain or ROLLUP)
  kWindow,          // window functions appended as extra columns
  kProject,         // select-list projection + hidden passthrough columns
  kDistinct,        // duplicate elimination over the visible prefix
  kSort,            // ORDER BY
  kTopK,            // fused ORDER BY + LIMIT: bounded heap, no full sort
  kLimit,           // LIMIT
  kTruncate,        // drop hidden columns at select-core boundaries
  kSetOp,           // UNION [ALL] / INTERSECT / EXCEPT chain
};

/// Aggregate and window functions. The planner resolves a function's name
/// once; the aggregate and window operators dispatch on the enum.
enum class AggFn : uint8_t {
  kCount,
  kSum,
  kAvg,
  kMin,
  kMax,
  kStddevSamp,
  kRank,       // window only
  kDenseRank,  // window only
  kRowNumber,  // window only
  kUnknown,    // finalizes to NULL
};

/// One aggregate occurrence, deduplicated by canonical expression text.
struct PlanAggSpec {
  std::string key;  // canonical text (dedup / rewrite key)
  AggFn fn = AggFn::kUnknown;
  bool distinct = false;
  bool star = false;     // COUNT(*)
  const Expr* arg = nullptr;
};

/// One window function, with its inputs already rewritten against the
/// aggregate output (rewrites happen at plan time; the executor only binds).
struct PlanWindowFn {
  AggFn fn = AggFn::kUnknown;
  bool star = false;
  const Expr* arg = nullptr;
  std::vector<const Expr*> partition_by;
  std::vector<const Expr*> order_by;
  std::vector<bool> order_desc;
  std::string out_col;  // "#win<i>"
};

/// One select-list output. Either a bound-at-open expression or a direct
/// passthrough of an input slot (star expansion).
struct PlanProjection {
  const Expr* expr = nullptr;  // nullptr -> passthrough of `slot`
  int slot = -1;
};

struct PlanSortKey {
  const Expr* expr = nullptr;  // nullptr -> visible-column ordinal
  int ordinal = -1;            // 0-based when expr == nullptr
  bool desc = false;
};

/// An equi-join key pair; `left` resolves in the left child's schema,
/// `right` in the right child's.
struct PlanEquiKey {
  const Expr* left = nullptr;
  const Expr* right = nullptr;
};

/// Per-operator execution counters, filled in by the executor.
struct PlanOpStats {
  int64_t rows_in = 0;
  int64_t rows_out = 0;
  double seconds = 0.0;  // self time (children excluded)
  bool executed = false;
  // Scan/join pushdown observability (EXPLAIN renders these when non-zero).
  int64_t morsels_pruned = 0;   // morsels skipped via zone maps
  int64_t bloom_rejects = 0;    // rows rejected by a Bloom filter
  // Top-K observability: input rows seen vs. rows kept by the bounded
  // heaps — the memory-budget win over a full materialised sort.
  int64_t topk_seen = 0;
  int64_t topk_kept = 0;
  // Storage payload bytes this operator's scan read (morsel-granular:
  // pruned morsels don't count).
  int64_t bytes_touched = 0;
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
  struct OpStat : PlanOpStats {
    std::string label;
    int depth = 0;
  };
  std::vector<OpStat> operators;

  /// Always 0 (the planner makes no estimates); kept only for perfbench.
  double max_q_error = 0.0;
};

/// A physical plan operator. Output schema (`schema` + `num_visible`) is
/// fixed at plan time: the executor binds expressions against it once per
/// operator open, so the per-row path never resolves names.
struct PlanNode {
  PlanKind kind = PlanKind::kScan;
  std::vector<std::shared_ptr<PlanNode>> children;
  std::vector<RowSet::Col> schema;
  size_t num_visible = 0;  // 0 = all visible (RowSet convention)

  /// Result shared by several parents (a star-transformed dimension feeds
  /// both its semi-join reduction and the final hash join): executed once,
  /// cached by the executor, and treated as read-only by all consumers.
  bool memoize = false;

  // kScan
  std::string table_name;  // catalog key (lower-cased)
  std::string alias;
  std::vector<int> scan_cols;  // storage column indices, pruned

  // kScan pushed filters / kFilter predicates (may carry subqueries on
  // kFilter; the executor evaluates those while binding).
  std::vector<const Expr*> predicates;

  // kScan execution form: `predicates` split into typed kernels and the
  // residual expressions the kernels could not reproduce exactly.
  // Invariant: kernels + residual_predicates ≡ predicates, which stays
  // intact for EXPLAIN labels.
  std::vector<ScanKernel> kernels;
  std::vector<const Expr*> residual_predicates;

  // kCteRef / kDerived
  std::string cte_name;   // lower-cased CTE key
  std::string qualifier;  // FROM alias the output is re-qualified under

  // kIndexJoin
  int index_col = -1;
  const Expr* probe_key = nullptr;  // over the left child's schema

  // kSemiJoinReduce (children = {fact, dim})
  const Expr* fact_key = nullptr;
  const Expr* dim_key = nullptr;

  // kHashJoin (children = {left, right})
  std::vector<PlanEquiKey> equi;
  std::vector<const Expr*> residual;
  bool left_outer = false;

  // kAggregate
  std::vector<const Expr*> group_by;
  bool rollup = false;
  std::vector<PlanAggSpec> aggs;

  // kWindow
  std::vector<PlanWindowFn> windows;

  // kProject
  std::vector<PlanProjection> projections;

  // kSort / kTopK
  std::vector<PlanSortKey> sort_keys;

  // kLimit / kTopK
  int64_t limit = -1;

  // kSetOp: children = {first, branch...}; set_kinds[i] applies child i+1.
  std::vector<SelectStmt::SetOpBranch::Kind> set_kinds;

  mutable PlanOpStats stats;
};

/// A planned statement: CTE plans in definition order, then the root.
/// The plan borrows the SelectStmt AST it was built from (expression
/// pointers reach into it), so the statement must outlive the plan;
/// expressions synthesised by plan-time rewrites live in `owned_exprs`.
struct PhysicalPlan {
  std::vector<std::pair<std::string, std::shared_ptr<PlanNode>>> ctes;
  std::shared_ptr<PlanNode> root;
  /// Lower-cased CTE name -> result schema; subquery planning reuses it.
  std::map<std::string, std::vector<RowSet::Col>> cte_schemas;
  std::vector<std::unique_ptr<Expr>> owned_exprs;
};

/// Static display label for one operator (EXPLAIN; no runtime counters).
std::string PlanNodeLabel(const PlanNode& node);

/// Builds the physical plan for `stmt` (including its CTEs). Pure schema
/// computation: no table data is touched.
Result<PhysicalPlan> BuildPlan(const DataFacade* facade,
                               const SelectStmt& stmt,
                               const PlannerOptions& options);

/// Plans an uncorrelated subquery (select core only — a subquery's own
/// CTEs are out of scope, matching executor semantics), resolving CTE
/// references against the enclosing plan's schemas.
Result<PhysicalPlan> BuildSubqueryPlan(
    const DataFacade* facade, const SelectStmt& stmt,
    const PlannerOptions& options,
    const std::map<std::string, std::vector<RowSet::Col>>& cte_schemas);

}  // namespace tpcds

#endif  // TPCDS_ENGINE_PLAN_H_
