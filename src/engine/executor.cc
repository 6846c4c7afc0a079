#include "engine/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "engine/agg_parallel.h"
#include "engine/data_facade.h"
#include "engine/expr_eval.h"
#include "engine/governor.h"
#include "engine/table.h"
#include "util/fault.h"
#include "util/string_util.h"
#include "util/threadpool.h"

namespace tpcds {
namespace {

/// Fixed morsel size. Deliberately independent of the worker count: the
/// partial-result structure (and therefore every merge order and every
/// floating-point reassociation) is a function of the input alone, which
/// makes query results byte-identical across parallelism levels.
constexpr size_t kMorselRows = 1024;

/// Hash-join build partitions. Like the morsel size, a constant — the
/// per-key match chains come out identical for any worker count.
constexpr size_t kJoinPartitions = 16;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------ value keys

/// Composite keys (join keys, group keys, whole-row distinct keys) hash
/// and compare through the transparent GroupKeyHash/GroupKeyEq from
/// agg_parallel.h: lookups accept a GroupKeyView over a scratch buffer or
/// a row prefix, so the per-row path materialises no key vectors.
using VecValueHash = GroupKeyHash;
using VecValueEq = GroupKeyEq;

struct ValueHasher {
  size_t operator()(const Value& v) const { return v.Hash(); }
};
struct ValueEq {
  bool operator()(const Value& a, const Value& b) const {
    if (a.is_null() && b.is_null()) return true;
    if (a.is_null() || b.is_null()) return false;
    return Value::Compare(a, b) == 0;
  }
};
using ValueSet = std::unordered_set<Value, ValueHasher, ValueEq>;

// ------------------------------------------------------------ aggregates

class Accumulator {
 public:
  explicit Accumulator(const PlanAggSpec* spec)
      : spec_(spec), fn_(spec->fn) {}

  void Add(const Value& v) {
    if (spec_->star) {
      ++count_;
      return;
    }
    if (v.is_null()) return;
    if (spec_->distinct) {
      distinct_.insert(v);
      return;
    }
    Accept(v);
  }

  /// Folds a partial accumulator (one morsel's worth) into this one.
  /// Callers merge strictly in morsel order so the result is reproducible.
  void Merge(const Accumulator& o) {
    count_ += o.count_;
    sum_int_ += o.sum_int_;
    sum_cents_ += o.sum_cents_;
    sum_double_ += o.sum_double_;
    sum_squares_ += o.sum_squares_;
    saw_decimal_ |= o.saw_decimal_;
    saw_double_ |= o.saw_double_;
    if (!o.min_.is_null() &&
        (min_.is_null() || Value::Compare(o.min_, min_) < 0)) {
      min_ = o.min_;
    }
    if (!o.max_.is_null() &&
        (max_.is_null() || Value::Compare(o.max_, max_) > 0)) {
      max_ = o.max_;
    }
    for (const Value& v : o.distinct_) distinct_.insert(v);
  }

  Value Finalize() const {
    if (spec_->distinct && !spec_->star) {
      // Fold the distinct values through a plain accumulator of the same
      // function (Accept never consults the distinct flag).
      Accumulator plain(spec_);
      for (const Value& v : distinct_) plain.Accept(v);
      plain.count_ = static_cast<int64_t>(distinct_.size());
      return plain.FinalizePlain();
    }
    return FinalizePlain();
  }

 private:
  /// Updates only the state the function reads.
  void Accept(const Value& v) {
    ++count_;
    switch (fn_) {
      case AggFn::kSum:
      case AggFn::kAvg:
      case AggFn::kStddevSamp: {
        double d = v.AsDouble();
        sum_double_ += d;
        sum_squares_ += d * d;
        if (v.kind() == Value::Kind::kDecimal) {
          sum_cents_ += v.AsDecimal().cents();
          saw_decimal_ = true;
        } else if (v.kind() == Value::Kind::kInt) {
          sum_int_ += v.AsInt();
        } else {
          saw_double_ = true;
        }
        break;
      }
      case AggFn::kMin:
        if (min_.is_null() || Value::Compare(v, min_) < 0) min_ = v;
        break;
      case AggFn::kMax:
        if (max_.is_null() || Value::Compare(v, max_) > 0) max_ = v;
        break;
      default:
        break;
    }
  }

  Value FinalizePlain() const {
    if (fn_ == AggFn::kCount) return Value::Int(count_);
    if (count_ == 0) return Value::Null();
    switch (fn_) {
      case AggFn::kSum:
        if (saw_double_) return Value::Dbl(sum_double_);
        if (saw_decimal_) {
          return Value::Dec(
              Decimal::FromCents(sum_cents_ + sum_int_ * Decimal::kScale));
        }
        return Value::Int(sum_int_);
      case AggFn::kAvg:
        return Value::Dbl(sum_double_ / static_cast<double>(count_));
      case AggFn::kMin:
        return min_;
      case AggFn::kMax:
        return max_;
      case AggFn::kStddevSamp: {
        if (count_ < 2) return Value::Null();
        double n = static_cast<double>(count_);
        double var =
            (sum_squares_ - sum_double_ * sum_double_ / n) / (n - 1);
        return Value::Dbl(var < 0 ? 0.0 : std::sqrt(var));
      }
      default:
        return Value::Null();
    }
  }

  const PlanAggSpec* spec_;
  int64_t count_ = 0;
  int64_t sum_int_ = 0;
  int64_t sum_cents_ = 0;
  double sum_double_ = 0.0;
  double sum_squares_ = 0.0;
  AggFn fn_;
  bool saw_decimal_ = false;
  bool saw_double_ = false;
  Value min_;
  Value max_;
  ValueSet distinct_;
};

/// Direct slot passthrough (ORDER BY ordinals, star expansion).
class SlotExpr : public BoundExpr {
 public:
  explicit SlotExpr(int idx) : idx_(idx) {}
  Value Eval(const std::vector<Value>& row) const override {
    return row[static_cast<size_t>(idx_)];
  }

 private:
  int idx_;
};

// -------------------------------------------------------------- executor

class PlanExecutor : public SubqueryEvaluator {
 public:
  /// Top-level executor. `governor` enforces the options' limits and is
  /// shared by every nested subquery executor so the whole statement obeys
  /// one budget.
  PlanExecutor(const DataFacade* facade, const PlannerOptions& options,
               ExecStats* stats, const PhysicalPlan* plan,
               QueryGovernor* governor)
      : facade_(facade),
        options_(options),
        stats_(stats),
        plan_(plan),
        governor_(governor),
        track_(governor->has_limits() || FaultInjector::Global().enabled()),
        helpers_(HelperCount(options)) {
    // Pool workers allocate from arenas of their own: first hand back
    // what a torn-down table store left in the main one.
    if (helpers_ > 0) ReleaseFreedHeap();
  }

  /// Nested executor for uncorrelated subqueries: shares the parent's
  /// governor, CTE results, and stat counters (subquery scans count,
  /// exactly as the pre-plan-tree executor counted them).
  PlanExecutor(const DataFacade* facade, const PlannerOptions& options,
               ExecStats* stats, const PhysicalPlan* plan,
               QueryGovernor* governor,
               const std::map<std::string, std::shared_ptr<RowSet>>& ctes)
      : PlanExecutor(facade, options, stats, plan, governor) {
    cte_results_ = ctes;
  }

  Result<std::shared_ptr<RowSet>> Run() {
    for (const auto& [name, node] : plan_->ctes) {
      TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<RowSet> rs, Exec(node));
      cte_results_[name] = std::move(rs);
    }
    return Exec(plan_->root);
  }

  // SubqueryEvaluator: first visible column of the subquery result.
  Result<std::vector<Value>> EvaluateColumn(const SelectStmt& stmt) override {
    TPCDS_ASSIGN_OR_RETURN(
        PhysicalPlan sub,
        BuildSubqueryPlan(facade_, stmt, options_, plan_->cte_schemas));
    PlanExecutor nested(facade_, options_, stats_, &sub, governor_,
                        cte_results_);
    TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<RowSet> rs, nested.Run());
    std::vector<Value> out;
    out.reserve(rs->rows.size());
    for (const auto& row : rs->rows) {
      if (!row.empty()) out.push_back(row[0]);
    }
    return out;
  }

 private:
  using RowList = std::vector<std::vector<Value>>;

  // ---- infrastructure -------------------------------------------------

  Result<std::shared_ptr<RowSet>> Exec(
      const std::shared_ptr<PlanNode>& node) {
    if (node->memoize) {
      auto it = memo_.find(node.get());
      if (it != memo_.end()) return it->second;
    }
    if (track_) TPCDS_FAULT_POINT("op-open");
    double saved_child = child_seconds_;
    child_seconds_ = 0;
    double start = NowSeconds();
    Result<std::shared_ptr<RowSet>> result = Dispatch(*node);
    double total = NowSeconds() - start;
    node->stats.executed = true;
    node->stats.seconds = total - child_seconds_;
    child_seconds_ = saved_child + total;
    if (!result.ok()) return result;
    // Morsel workers don't propagate errors themselves — a tripped
    // governor (deadline, budget, cancel, injected morsel fault) leaves
    // partial operator output behind, which must never be returned as a
    // real result.
    if (governor_->cancelled()) return governor_->status();
    if (!node->children.empty()) {
      int64_t in = 0;
      for (const auto& c : node->children) in += c->stats.rows_out;
      node->stats.rows_in = in;
    }
    node->stats.rows_out = static_cast<int64_t>((*result)->rows.size());
    if (node->memoize) memo_[node.get()] = *result;
    return result;
  }

  Result<std::shared_ptr<RowSet>> Dispatch(const PlanNode& node) {
    switch (node.kind) {
      case PlanKind::kScan: return ExecScan(node);
      case PlanKind::kCteRef: return ExecCteRef(node);
      case PlanKind::kDerived: return ExecDerived(node);
      case PlanKind::kIndexJoin: return ExecIndexJoin(node);
      case PlanKind::kSemiJoinReduce: return ExecSemiJoinReduce(node);
      case PlanKind::kHashJoin: return ExecHashJoin(node);
      case PlanKind::kFilter: return ExecFilter(node);
      case PlanKind::kAggregate: return ExecAggregate(node);
      case PlanKind::kWindow: return ExecWindow(node);
      case PlanKind::kProject: return ExecProject(node);
      case PlanKind::kDistinct: return ExecDistinct(node);
      case PlanKind::kSort: return ExecSort(node);
      case PlanKind::kTopK: return ExecTopK(node);
      case PlanKind::kLimit: return ExecLimit(node);
      case PlanKind::kTruncate: return ExecTruncate(node);
      case PlanKind::kSetOp: return ExecSetOp(node);
    }
    return Status::InvalidArgument("unknown plan node");
  }

  /// Executes a child whose result this operator will mutate in place.
  /// Memoised (shared) results are copied; exclusive ones pass through.
  Result<std::shared_ptr<RowSet>> ExecOwned(
      const std::shared_ptr<PlanNode>& child) {
    TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<RowSet> rs, Exec(child));
    if (child->memoize) return std::make_shared<RowSet>(*rs);
    return rs;
  }

  static size_t MorselCount(size_t n) {
    return (n + kMorselRows - 1) / kMorselRows;
  }

  /// Pool workers that may join the calling thread on one operator:
  /// parallelism - 1, where parallelism 0 means one thread per core.
  static size_t HelperCount(const PlannerOptions& options) {
    int workers = options.parallelism;
    if (workers == 0) {
      workers = static_cast<int>(std::thread::hardware_concurrency());
    }
    return workers > 1 ? static_cast<size_t>(workers - 1) : 0;
  }

  /// Runs fn(i) for every i in [0, count). When parallel, units are
  /// pulled from a per-call counter by the calling thread and up to
  /// helpers_ workers of the process-wide executor pool, which other
  /// statements share (ThreadPool::ParallelFor). `fn` must be pure w.r.t.
  /// shared state except its own unit's slot; which thread runs a unit
  /// never affects the result. `rows`, when given, is the total rows the
  /// units cover: under one morsel's worth they run on the calling
  /// thread, since waking helpers (and waiting for one that was
  /// descheduled) costs more than the work. A tripped governor makes
  /// every worker skip the remaining units; the enclosing Exec() turns the
  /// partial output into the governor's error.
  template <typename Fn>
  void ParallelFor(size_t count, const Fn& fn, size_t rows = kMorselRows) {
    QueryGovernor* gov = governor_;
    if (helpers_ == 0 || count <= 1 || rows < kMorselRows) {
      for (size_t i = 0; i < count; ++i) {
        if (gov->cancelled()) return;
        fn(i);
      }
      return;
    }
    SharedExecutorPool().ParallelFor(count, helpers_, [&fn, gov](size_t i) {
      if (!gov->cancelled()) fn(i);
    });
  }

  /// Runs fn(begin, end, morsel_index) over [0, n) in fixed-size morsels.
  /// Each morsel passes the governor's boundary check (cancellation token,
  /// deadline, "morsel" fault site) before it runs — the unit of
  /// responsiveness the limits are specified in.
  template <typename Fn>
  void ForEachMorsel(size_t n, const Fn& fn) {
    QueryGovernor* gov = governor_;
    bool checked = track_;
    ParallelFor(MorselCount(n), [&fn, gov, checked, n](size_t m) {
      if (checked && !gov->BeginMorsel()) return;
      size_t b = m * kMorselRows;
      fn(b, std::min(n, b + kMorselRows), m);
    });
  }

  /// Runs fn(begin, end, morsel_index, &out) per morsel and returns the
  /// outputs in morsel order. Each morsel fills a local T that is moved
  /// into its slot at the end: filling slots in place would have threads
  /// on neighbouring morsels write to shared cache lines.
  template <typename T, typename Fn>
  std::vector<T> MapMorsels(size_t n, const Fn& fn) {
    std::vector<T> outs(MorselCount(n));
    ForEachMorsel(n, [&](size_t b, size_t e, size_t m) {
      T out;
      fn(b, e, m, &out);
      outs[m] = std::move(out);
    });
    return outs;
  }

  /// MapMorsels for ParallelFor units: fn(i, &out) for i in [0, count).
  template <typename T, typename Fn>
  std::vector<T> MapUnits(size_t count, const Fn& fn,
                          size_t rows = kMorselRows) {
    std::vector<T> outs(count);
    ParallelFor(count, [&](size_t i) {
      T out;
      fn(i, &out);
      outs[i] = std::move(out);
    }, rows);
    return outs;
  }

  /// Charges one operator's freshly materialised buffer against the row
  /// and memory budgets (and the "alloc" fault site). No-op while the
  /// query is ungoverned and no faults are armed, so the hot path pays a
  /// single branch.
  void ChargeRows(const RowList& buf, size_t from = 0) {
    if (!track_ || buf.size() <= from) return;
    int64_t bytes = 0;
    for (size_t i = from; i < buf.size(); ++i) {
      bytes += ApproxRowBytes(buf[i]);
    }
    if (!governor_->ChargeRows(static_cast<int64_t>(buf.size() - from))) {
      return;
    }
    governor_->Reserve(bytes);
  }

  /// Concatenates per-morsel output buffers in morsel order — this is what
  /// keeps parallel row order identical to the serial row order.
  static void ConcatMorsels(std::vector<RowList>* bufs, RowList* out) {
    size_t total = 0;
    for (const RowList& b : *bufs) total += b.size();
    out->reserve(out->size() + total);
    for (RowList& b : *bufs) {
      for (auto& row : b) out->push_back(std::move(row));
    }
  }

  Result<std::vector<std::unique_ptr<BoundExpr>>> BindAll(
      const std::vector<const Expr*>& exprs, const RowSet& scope) {
    std::vector<std::unique_ptr<BoundExpr>> out;
    out.reserve(exprs.size());
    for (const Expr* e : exprs) {
      TPCDS_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> b,
                             BindExpr(*e, scope, this));
      out.push_back(std::move(b));
    }
    return out;
  }

  static bool PassesAll(const std::vector<std::unique_ptr<BoundExpr>>& preds,
                        const std::vector<Value>& row) {
    for (const auto& p : preds) {
      Value v = p->Eval(row);
      if (v.is_null() || !v.IsTruthy()) return false;
    }
    return true;
  }

  // ---- leaf operators -------------------------------------------------

  /// A join-key filter a hash/semi join registered on its probe-side scan:
  /// rows whose key column can't be in the build side's key set are dropped
  /// inside the scan morsel. The Bloom filter (owned by the registering
  /// join's stack frame, unregistered before it returns) only has false
  /// positives, and the join's exact key check still runs downstream, so
  /// results stay byte-identical.
  struct ScanPushdown {
    int col = -1;               // storage column on the scanned table
    bool is_string = false;
    const BloomFilter* bloom = nullptr;
    bool has_range = false;     // int-backed: min/max over the build keys
    int64_t lo = 0;
    int64_t hi = 0;
  };

  /// Columnar scan: each morsel starts from an identity selection vector,
  /// zone maps prune whole morsels first, then typed kernels, pushed
  /// join-key filters and residual expr_eval predicates compact the
  /// selection, and only surviving rows are gathered as Values. Governance
  /// boundaries: BeginMorsel per morsel, ChargeRows on the materialised
  /// output.
  Result<std::shared_ptr<RowSet>> ExecScan(const PlanNode& node) {
    EngineTable* table = facade_->FindTable(node.table_name);
    if (table == nullptr) {
      return Status::NotFound("unknown table: " + node.table_name);
    }
    // Selection vectors (and hash-join build rows) index rows as uint32_t.
    if (static_cast<uint64_t>(table->num_rows()) > UINT32_MAX) {
      return Status::NotImplemented("table too large to scan: " +
                                    node.table_name);
    }
    const std::vector<ScanPushdown>* pushdowns = nullptr;
    auto pit = pushdowns_.find(&node);
    if (pit != pushdowns_.end() && !pit->second.empty()) {
      pushdowns = &pit->second;
    }
    RowSet scope;
    scope.cols = node.schema;
    TPCDS_ASSIGN_OR_RETURN(std::vector<std::unique_ptr<BoundExpr>> residual,
                           BindAll(node.residual_predicates, scope));

    auto rs = std::make_shared<RowSet>();
    rs->cols = node.schema;
    int64_t n = table->num_rows();
    node.stats.rows_in = n;
    if (stats_ != nullptr) stats_->rows_scanned += n;

    // Zone-map checks, one per prunable kernel and pushed key range. Built
    // (or fetched) before the parallel morsels: the getter mutates the
    // table's lazy cache under its own mutex.
    bool always_false = false;
    struct KernelZone {
      const ZoneMap* zm;
      const ScanKernel* k;
    };
    std::vector<KernelZone> kernel_zones;
    for (const ScanKernel& k : node.kernels) {
      if (k.kind == ScanKernel::Kind::kAlwaysFalse) {
        always_false = true;
        continue;
      }
      if (k.kind != ScanKernel::Kind::kIntRange &&
          k.kind != ScanKernel::Kind::kIntIn &&
          k.kind != ScanKernel::Kind::kNullTest) {
        continue;
      }
      const ZoneMap* zm = table->GetOrBuildZoneMap(k.col);
      if (zm != nullptr) kernel_zones.push_back({zm, &k});
    }
    struct RangeZone {
      const ZoneMap* zm;
      int64_t lo;
      int64_t hi;
    };
    std::vector<RangeZone> range_zones;
    if (pushdowns != nullptr) {
      for (const ScanPushdown& pd : *pushdowns) {
        if (!pd.has_range) continue;
        const ZoneMap* zm = table->GetOrBuildZoneMap(pd.col);
        if (zm != nullptr) range_zones.push_back({zm, pd.lo, pd.hi});
      }
    }

    // Morsel-granular payload accounting: the storage columns this scan
    // reads (output + kernel + pushdown), charged per non-pruned morsel in
    // proportion to its rows. Integer math on fixed morsel boundaries, so
    // the total is identical at any parallelism.
    std::vector<int> touched_cols = node.scan_cols;
    for (const ScanKernel& k : node.kernels) touched_cols.push_back(k.col);
    if (pushdowns != nullptr) {
      for (const ScanPushdown& pd : *pushdowns) touched_cols.push_back(pd.col);
    }
    std::sort(touched_cols.begin(), touched_cols.end());
    touched_cols.erase(
        std::unique(touched_cols.begin(), touched_cols.end()),
        touched_cols.end());
    int64_t touched_payload = 0;
    for (int c : touched_cols) {
      touched_payload += static_cast<int64_t>(
          table->column(static_cast<size_t>(c)).PayloadByteSize());
    }

    std::atomic<int64_t> pruned{0};
    std::atomic<int64_t> rejects{0};
    std::atomic<int64_t> bytes{0};
    auto scan_morsel = [&](size_t b, size_t e, size_t m, RowList* buf) {
      if (always_false) {
        pruned.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      for (const KernelZone& kz : kernel_zones) {
        if (m < kz.zm->blocks.size() &&
            KernelPrunesBlock(*kz.k, kz.zm->blocks[m])) {
          pruned.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
      for (const RangeZone& rz : range_zones) {
        if (m < rz.zm->blocks.size() &&
            RangePrunesBlock(rz.zm->blocks[m], rz.lo, rz.hi)) {
          pruned.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
      bytes.fetch_add(touched_payload * static_cast<int64_t>(e - b) / n,
                      std::memory_order_relaxed);
      SelectionVector sel;
      sel.reserve(e - b);
      for (size_t r = b; r < e; ++r) sel.push_back(static_cast<uint32_t>(r));
      for (const ScanKernel& k : node.kernels) {
        if (sel.empty()) break;
        ApplyScanKernel(k, table->column(static_cast<size_t>(k.col)), &sel);
      }
      if (pushdowns != nullptr && !sel.empty()) {
        int64_t removed = ApplyPushdowns(*table, *pushdowns, &sel);
        rejects.fetch_add(removed, std::memory_order_relaxed);
      }
      if (!residual.empty()) {
        // Residuals refine the selection on one reused row, so a rejected
        // row is never materialised into the output.
        std::vector<Value> row;
        size_t w = 0;
        for (uint32_t r : sel) {
          row.clear();
          for (int c : node.scan_cols) row.push_back(table->GetValue(r, c));
          if (PassesAll(residual, row)) sel[w++] = r;
        }
        sel.resize(w);
      }
      GatherRows(*table, node.scan_cols, sel, buf);
      ChargeRows(*buf);
    };
    std::vector<RowList> bufs =
        MapMorsels<RowList>(static_cast<size_t>(n), scan_morsel);
    ConcatMorsels(&bufs, &rs->rows);
    node.stats.morsels_pruned += pruned.load();
    node.stats.bloom_rejects += rejects.load();
    node.stats.bytes_touched += bytes.load();
    if (stats_ != nullptr) {
      stats_->morsels_pruned += pruned.load();
      stats_->bloom_rejects += rejects.load();
      stats_->bytes_touched += bytes.load();
    }
    return rs;
  }

  /// Applies every registered join-key pushdown to the selection vector.
  /// NULL key rows are dropped too — a NULL key can never match an inner
  /// or semi join, which is the only context that registers a pushdown.
  /// Returns the number of rows rejected by a range or Bloom check.
  static int64_t ApplyPushdowns(const EngineTable& table,
                                const std::vector<ScanPushdown>& pds,
                                SelectionVector* sel) {
    int64_t removed = 0;
    for (const ScanPushdown& pd : pds) {
      const StorageColumn& c = table.column(static_cast<size_t>(pd.col));
      SelectionVector& s = *sel;
      size_t w = 0;
      if (pd.is_string) {
        for (uint32_t r : s) {
          if (c.IsNull(r)) continue;
          if (pd.bloom != nullptr &&
              !pd.bloom->MayContain(
                  std::hash<std::string_view>()(c.Str(r)))) {
            ++removed;
            continue;
          }
          s[w++] = r;
        }
      } else {
        for (uint32_t r : s) {
          if (c.IsNull(r)) continue;
          int64_t v = c.Num(r);
          if (pd.has_range && (v < pd.lo || v > pd.hi)) {
            ++removed;
            continue;
          }
          if (pd.bloom != nullptr &&
              !pd.bloom->MayContain(HashStorageValue(c.type(), v))) {
            ++removed;
            continue;
          }
          s[w++] = r;
        }
      }
      s.resize(w);
      if (s.empty()) break;
    }
    return removed;
  }

  /// Walks through chained semi-join reductions (which preserve the fact
  /// scan's schema) down to the underlying scan a join-key filter can be
  /// pushed into. Memoized nodes anywhere on the chain are shared by
  /// several consumers and must never see a consumer-specific filter.
  static const PlanNode* PushdownTargetScan(const PlanNode* n) {
    while (n != nullptr && n->kind == PlanKind::kSemiJoinReduce &&
           !n->memoize) {
      n = n->children[0].get();
    }
    if (n == nullptr || n->kind != PlanKind::kScan || n->memoize) {
      return nullptr;
    }
    return n;
  }

  /// Resolves a bare column-ref key against a scan's output schema to its
  /// storage column index, or -1.
  static int ResolveScanStorageCol(const PlanNode& scan, const Expr& key) {
    if (key.tag != Expr::Tag::kColumnRef) return -1;
    RowSet scope;
    scope.cols = scan.schema;
    Result<int> slot = scope.Resolve(key.qualifier, key.name);
    if (!slot.ok()) return -1;
    size_t s = static_cast<size_t>(*slot);
    if (s >= scan.scan_cols.size()) return -1;
    return scan.scan_cols[s];
  }

  /// Gate for pushing `keys` build/dim key values into a probe scan of
  /// `table`: push only when the table holds at least eight rows per key,
  /// since a key set in the same order of magnitude as the table rejects
  /// little and collecting + hashing it is pure overhead on the scan. The
  /// decision only affects speed: the exact join checks run regardless.
  static bool ShouldPushKeys(size_t keys, const EngineTable& table) {
    return static_cast<int64_t>(keys) * 8 <= table.num_rows();
  }

  /// Fills `pd` from the distinct build/dim key values: Bloom hashes plus
  /// a min/max range for int-backed columns. Returns false (pushdown
  /// abandoned) when any key's coercion onto the column's raw storage
  /// can't be reproduced exactly.
  static bool BuildKeyPushdown(const ValueSet& keys, const StorageColumn& col,
                               BloomFilter* bloom, ScanPushdown* pd) {
    pd->is_string = col.is_string();
    pd->bloom = bloom;
    if (pd->is_string) {
      for (const Value& k : keys) {
        if (k.kind() != Value::Kind::kString) return false;
        bloom->Add(std::hash<std::string_view>()(k.AsString()));
      }
      return true;
    }
    pd->has_range = true;
    pd->lo = INT64_MAX;  // empty until a key maps: rejects every row
    pd->hi = INT64_MIN;
    for (const Value& k : keys) {
      int64_t raw = 0;
      switch (StorageValueForEquality(col.type(), k, &raw)) {
        case StorageEq::kExact:
          bloom->Add(HashStorageValue(col.type(), raw));
          pd->lo = std::min(pd->lo, raw);
          pd->hi = std::max(pd->hi, raw);
          break;
        case StorageEq::kNoMatch:
          break;  // this key matches no stored value; nothing to admit
        case StorageEq::kUnsupported:
          return false;
      }
    }
    return true;
  }

  Result<std::shared_ptr<RowSet>> ExecCteRef(const PlanNode& node) {
    auto it = cte_results_.find(node.cte_name);
    if (it == cte_results_.end()) {
      return Status::InvalidArgument("unknown CTE: " + node.cte_name);
    }
    // Copy: the same CTE may be consumed (and re-qualified) several times.
    auto rs = std::make_shared<RowSet>(*it->second);
    rs->cols = node.schema;
    rs->num_visible = node.num_visible;
    node.stats.rows_in = static_cast<int64_t>(rs->rows.size());
    return rs;
  }

  Result<std::shared_ptr<RowSet>> ExecDerived(const PlanNode& node) {
    TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<RowSet> rs,
                           ExecOwned(node.children[0]));
    rs->cols = node.schema;  // re-qualified under the FROM alias
    rs->num_visible = node.num_visible;
    return rs;
  }

  // ---- joins ----------------------------------------------------------

  /// Evaluates `key_expr` over every row of `rs` (morsel-parallel) and
  /// returns the distinct non-NULL key values.
  Result<ValueSet> CollectKeys(const Expr& key_expr, const RowSet& rs) {
    TPCDS_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> key,
                           BindExpr(key_expr, rs, this));
    size_t n = rs.rows.size();
    std::vector<Value> vals(n);
    ForEachMorsel(n, [&](size_t b, size_t e, size_t) {
      for (size_t r = b; r < e; ++r) vals[r] = key->Eval(rs.rows[r]);
    });
    ValueSet keys;
    keys.reserve(n);
    for (Value& v : vals) {
      if (!v.is_null()) keys.insert(std::move(v));
    }
    return keys;
  }

  Result<std::shared_ptr<RowSet>> ExecSemiJoinReduce(const PlanNode& node) {
    // When the fact side bottoms out in a private scan and the reduction
    // key is a bare column, run the dimension first and push its key set
    // (min/max range + Bloom filter) into that scan, so most non-qualifying
    // fact rows are never materialised. The exact key-set check below
    // still runs over whatever the scan produced, so results are
    // byte-identical to the unpushed order.
    const PlanNode* target = nullptr;
    int pd_col = -1;
    EngineTable* pd_table = nullptr;
    if (node.fact_key->tag == Expr::Tag::kColumnRef) {
      target = PushdownTargetScan(node.children[0].get());
      if (target != nullptr) {
        pd_col = ResolveScanStorageCol(*target, *node.fact_key);
        pd_table =
            pd_col >= 0 ? facade_->FindTable(target->table_name) : nullptr;
        if (pd_table == nullptr) target = nullptr;
      }
    }

    std::shared_ptr<RowSet> fact, dim;
    ValueSet keys;
    if (target != nullptr) {
      TPCDS_ASSIGN_OR_RETURN(dim, Exec(node.children[1]));
      TPCDS_ASSIGN_OR_RETURN(keys, CollectKeys(*node.dim_key, *dim));
      BloomFilter bloom(keys.size());
      ScanPushdown pd;
      pd.col = pd_col;
      bool registered =
          ShouldPushKeys(keys.size(), *pd_table) &&
          BuildKeyPushdown(keys, pd_table->column(static_cast<size_t>(pd_col)),
                           &bloom, &pd);
      if (registered) pushdowns_[target].push_back(pd);
      Result<std::shared_ptr<RowSet>> fr = ExecOwned(node.children[0]);
      if (registered) {  // unregister before any error propagates
        auto it = pushdowns_.find(target);
        it->second.pop_back();
        if (it->second.empty()) pushdowns_.erase(it);
      }
      TPCDS_ASSIGN_OR_RETURN(fact, std::move(fr));
    } else {
      TPCDS_ASSIGN_OR_RETURN(fact, ExecOwned(node.children[0]));
      TPCDS_ASSIGN_OR_RETURN(dim, Exec(node.children[1]));
      TPCDS_ASSIGN_OR_RETURN(keys, CollectKeys(*node.dim_key, *dim));
    }
    TPCDS_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> fact_key,
                           BindExpr(*node.fact_key, *fact, this));

    size_t before = fact->rows.size();
    std::vector<RowList> bufs = MapMorsels<RowList>(
        before, [&](size_t b, size_t e, size_t, RowList* buf) {
          for (size_t r = b; r < e; ++r) {
            Value v = fact_key->Eval(fact->rows[r]);
            if (!v.is_null() && keys.find(v) != keys.end()) {
              buf->push_back(std::move(fact->rows[r]));
            }
          }
        });
    fact->rows.clear();
    ConcatMorsels(&bufs, &fact->rows);
    if (stats_ != nullptr) {
      stats_->star_filtered_rows +=
          static_cast<int64_t>(before - fact->rows.size());
    }
    return fact;
  }

  Result<std::shared_ptr<RowSet>> ExecHashJoin(const PlanNode& node) {
    // An inner equi-join whose probe side bottoms out in a private scan,
    // with at least one bare probe-side key column, runs the build side
    // first and pushes the build keys (min/max range + Bloom filter) into
    // that scan. The exact hash-table probe below still runs, so results
    // are byte-identical to the unpushed order.
    const PlanNode* target = nullptr;
    int pd_col = -1;
    size_t pd_key = 0;
    EngineTable* pd_table = nullptr;
    if (!node.left_outer && !node.equi.empty()) {
      const PlanNode* t = PushdownTargetScan(node.children[0].get());
      if (t != nullptr) {
        for (size_t i = 0; i < node.equi.size(); ++i) {
          int c = ResolveScanStorageCol(*t, *node.equi[i].left);
          if (c < 0) continue;
          pd_col = c;
          pd_key = i;
          pd_table = facade_->FindTable(t->table_name);
          if (pd_table != nullptr) target = t;
          break;
        }
      }
    }

    std::shared_ptr<RowSet> left, right;
    if (target == nullptr) {
      TPCDS_ASSIGN_OR_RETURN(left, Exec(node.children[0]));
    }
    TPCDS_ASSIGN_OR_RETURN(right, Exec(node.children[1]));

    std::vector<std::unique_ptr<BoundExpr>> rkeys;
    rkeys.reserve(node.equi.size());
    for (const PlanEquiKey& pair : node.equi) {
      TPCDS_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> r,
                             BindExpr(*pair.right, *right, this));
      rkeys.push_back(std::move(r));
    }

    // Build-side keys, computed before the probe side runs so a key
    // pushdown can be registered on the probe scan first. Shared by the
    // pushdown, the join-level Bloom filter, and the hash-table build.
    // One flat array: build row r's keys are build_keys[r * nkeys, +nkeys).
    // A row whose morsel never ran (tripped governor) stays flagged null,
    // so it never enters the table.
    size_t nr = right->rows.size();
    size_t nkeys = rkeys.size();
    std::vector<Value> build_keys;
    std::vector<size_t> build_hash;
    std::vector<uint8_t> build_null;
    if (!node.equi.empty()) {
      build_keys.resize(nr * nkeys);
      build_hash.assign(nr, 0);
      build_null.assign(nr, 1);
      ForEachMorsel(nr, [&](size_t b, size_t e, size_t) {
        int64_t key_bytes = 0;
        for (size_t r = b; r < e; ++r) {
          Value* key = &build_keys[r * nkeys];
          bool has_null = false;
          for (size_t k = 0; k < nkeys; ++k) {
            key[k] = rkeys[k]->Eval(right->rows[r]);
            has_null |= key[k].is_null();
          }
          build_null[r] = has_null ? 1 : 0;
          if (!has_null) build_hash[r] = GroupKeyHash::Hash(key, nkeys);
          if (track_) key_bytes += ApproxValuesBytes(key, nkeys);
        }
        // Hash-build memory: the materialised build keys are what a large
        // build side costs, so a budget violation fires mid-build.
        if (track_) governor_->Reserve(key_bytes);
      });
    }

    if (target != nullptr) {
      bool registered = false;
      ScanPushdown pd;
      pd.col = pd_col;
      BloomFilter pushed_bloom(0);
      // The build row count bounds its distinct-key count, so the gate
      // runs before the O(build rows) key collection.
      if (ShouldPushKeys(nr, *pd_table)) {
        ValueSet comp;
        comp.reserve(nr);
        for (size_t r = 0; r < nr; ++r) {
          if (!build_null[r]) comp.insert(build_keys[r * nkeys + pd_key]);
        }
        pushed_bloom = BloomFilter(comp.size());
        registered = BuildKeyPushdown(
            comp, pd_table->column(static_cast<size_t>(pd_col)), &pushed_bloom,
            &pd);
      }
      if (registered) pushdowns_[target].push_back(pd);
      Result<std::shared_ptr<RowSet>> lr = Exec(node.children[0]);
      if (registered) {  // unregister before any error propagates
        auto it = pushdowns_.find(target);
        it->second.pop_back();
        if (it->second.empty()) pushdowns_.erase(it);
      }
      TPCDS_ASSIGN_OR_RETURN(left, std::move(lr));
    }

    auto out = std::make_shared<RowSet>();
    out->cols = node.schema;

    std::vector<std::unique_ptr<BoundExpr>> lkeys;
    lkeys.reserve(node.equi.size());
    for (const PlanEquiKey& pair : node.equi) {
      TPCDS_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> l,
                             BindExpr(*pair.left, *left, this));
      lkeys.push_back(std::move(l));
    }
    RowSet combined_scope;
    combined_scope.cols = node.schema;
    TPCDS_ASSIGN_OR_RETURN(std::vector<std::unique_ptr<BoundExpr>> residual,
                           BindAll(node.residual, combined_scope));

    // Emits lrow ++ rrow into `buf` if the residual predicates pass.
    auto emit = [&](const std::vector<Value>& lrow,
                    const std::vector<Value>& rrow, RowList* buf) {
      std::vector<Value> combined;
      combined.reserve(out->cols.size());
      combined.insert(combined.end(), lrow.begin(), lrow.end());
      combined.insert(combined.end(), rrow.begin(), rrow.end());
      for (const auto& rb : residual) {
        Value v = rb->Eval(combined);
        if (v.is_null() || !v.IsTruthy()) return false;
      }
      buf->push_back(std::move(combined));
      return true;
    };

    size_t nl = left->rows.size();
    std::vector<RowList> bufs;
    std::atomic<int64_t> rejects{0};
    if (node.equi.empty()) {
      // Nested-loop (cross product with residual filter). This is the
      // runaway shape a bad substitution produces, so the governor is
      // consulted per *left row*, not just per morsel: one morsel of left
      // rows can emit left*right rows before the next boundary check.
      bufs = MapMorsels<RowList>(
          nl, [&](size_t b, size_t e, size_t, RowList* buf) {
            for (size_t lr = b; lr < e; ++lr) {
              if (track_ && !governor_->Tick()) return;
              size_t emitted_before = buf->size();
              const auto& lrow = left->rows[lr];
              bool matched = false;
              for (const auto& rrow : right->rows) {
                matched |= emit(lrow, rrow, buf);
              }
              if (node.left_outer && !matched) {
                std::vector<Value> combined = lrow;
                combined.resize(out->cols.size());
                buf->push_back(std::move(combined));
              }
              ChargeRows(*buf, emitted_before);
            }
          });
    } else {
      // Partitioned build: build-side keys were hashed in parallel above;
      // assign rows to a fixed number of partitions serially (cheap), then
      // build the per-partition tables in parallel. Each table maps a key
      // (a view into build_keys) to its first and last build row, and
      // next_row chains a key's rows in ascending order, so probe output
      // is deterministic.
      // A join-level Bloom filter over the build hashes rejects
      // unmatchable probe keys before the table lookup.
      // Only worthwhile when the build side is smaller than the probe
      // side: each build row costs one insert, so with fewer probe rows
      // than build rows the filter can never pay for itself.
      std::optional<BloomFilter> bloom;
      if (nr < nl) bloom.emplace(nr);
      std::vector<std::vector<uint32_t>> part_rows(kJoinPartitions);
      for (size_t r = 0; r < nr; ++r) {
        if (!build_null[r]) {  // NULL keys never match
          part_rows[build_hash[r] % kJoinPartitions].push_back(
              static_cast<uint32_t>(r));
          if (bloom) bloom->Add(build_hash[r]);
        }
      }
      constexpr uint32_t kNoRow = UINT32_MAX;
      std::vector<uint32_t> next_row(nr, kNoRow);
      using JoinTable =
          std::unordered_map<GroupKeyView, std::pair<uint32_t, uint32_t>,
                             GroupKeyHash, GroupKeyEq>;
      std::vector<JoinTable> tables = MapUnits<JoinTable>(
          kJoinPartitions,
          [&](size_t p, JoinTable* t) {
            t->reserve(part_rows[p].size());
            for (uint32_t r : part_rows[p]) {
              auto [it, fresh] = t->try_emplace(
                  GroupKeyView{&build_keys[r * nkeys], nkeys}, r, r);
              if (!fresh) {
                next_row[it->second.second] = r;
                it->second.second = r;
              }
            }
          },
          nr);

      auto probe_morsel = [&](size_t b, size_t e, size_t, RowList* buf) {
        buf->reserve(e - b);
        std::vector<Value> key;
        int64_t morsel_rejects = 0;
        for (size_t lr = b; lr < e; ++lr) {
          const auto& lrow = left->rows[lr];
          key.clear();
          key.reserve(lkeys.size());
          bool has_null = false;
          for (const auto& k : lkeys) {
            Value v = k->Eval(lrow);
            has_null |= v.is_null();
            key.push_back(std::move(v));
          }
          bool matched = false;
          if (!has_null) {
            size_t h = VecValueHash()(key);
            if (bloom && !bloom->MayContain(h)) {
              ++morsel_rejects;  // definitely absent from the build side
            } else {
              const JoinTable& t = tables[h % kJoinPartitions];
              auto it = t.find(GroupKeyView::Of(key));
              if (it != t.end()) {
                for (uint32_t r = it->second.first; r != kNoRow;
                     r = next_row[r]) {
                  matched |= emit(lrow, right->rows[r], buf);
                }
              }
            }
          }
          if (node.left_outer && !matched) {
            std::vector<Value> combined = lrow;
            combined.resize(out->cols.size());
            buf->push_back(std::move(combined));
          }
        }
        if (morsel_rejects > 0) {
          rejects.fetch_add(morsel_rejects, std::memory_order_relaxed);
        }
        ChargeRows(*buf);
      };
      bufs = MapMorsels<RowList>(nl, probe_morsel);
    }
    ConcatMorsels(&bufs, &out->rows);
    node.stats.bloom_rejects += rejects.load();
    if (stats_ != nullptr) {
      stats_->rows_joined += static_cast<int64_t>(out->rows.size());
      stats_->bloom_rejects += rejects.load();
    }
    return out;
  }

  Result<std::shared_ptr<RowSet>> ExecIndexJoin(const PlanNode& node) {
    TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<RowSet> left,
                           Exec(node.children[0]));
    EngineTable* table = facade_->FindTable(node.table_name);
    if (table == nullptr) {
      return Status::NotFound("unknown table: " + node.table_name);
    }
    auto out = std::make_shared<RowSet>();
    out->cols = node.schema;

    TPCDS_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> probe,
                           BindExpr(*node.probe_key, *left, this));
    // Built (or fetched) before the parallel probes: the getter mutates
    // the table's lazy index cache under its own mutex.
    const EngineTable::HashIndex& index =
        table->GetOrBuildIntIndex(node.index_col);

    size_t nl = left->rows.size();
    std::vector<RowList> bufs = MapMorsels<RowList>(
        nl, [&](size_t b, size_t e, size_t, RowList* buf) {
          for (size_t lr = b; lr < e; ++lr) {
            const auto& lrow = left->rows[lr];
            // The planner probes only with integer/identifier columns, so
            // AsInt() is the stored key itself.
            Value v = probe->Eval(lrow);
            if (v.is_null()) continue;
            auto it = index.find(v.AsInt());
            if (it == index.end()) continue;
            for (int64_t r : it->second) {
              std::vector<Value> combined;
              combined.reserve(out->cols.size());
              combined.insert(combined.end(), lrow.begin(), lrow.end());
              for (int c : node.scan_cols) {
                combined.push_back(table->GetValue(r, c));
              }
              buf->push_back(std::move(combined));
            }
          }
          ChargeRows(*buf);
        });
    ConcatMorsels(&bufs, &out->rows);
    if (stats_ != nullptr) {
      stats_->rows_joined += static_cast<int64_t>(out->rows.size());
    }
    return out;
  }

  // ---- row-wise operators ---------------------------------------------

  Result<std::shared_ptr<RowSet>> ExecFilter(const PlanNode& node) {
    TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<RowSet> rs,
                           ExecOwned(node.children[0]));
    TPCDS_ASSIGN_OR_RETURN(std::vector<std::unique_ptr<BoundExpr>> preds,
                           BindAll(node.predicates, *rs));
    size_t n = rs->rows.size();
    std::vector<RowList> bufs = MapMorsels<RowList>(
        n, [&](size_t b, size_t e, size_t, RowList* buf) {
          buf->reserve(e - b);
          for (size_t r = b; r < e; ++r) {
            if (PassesAll(preds, rs->rows[r])) {
              buf->push_back(std::move(rs->rows[r]));
            }
          }
        });
    rs->rows.clear();
    ConcatMorsels(&bufs, &rs->rows);
    return rs;
  }

  Result<std::shared_ptr<RowSet>> ExecProject(const PlanNode& node) {
    TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<RowSet> input,
                           Exec(node.children[0]));
    std::vector<std::unique_ptr<BoundExpr>> projections;
    projections.reserve(node.projections.size());
    for (const PlanProjection& p : node.projections) {
      if (p.expr == nullptr) {
        projections.push_back(std::make_unique<SlotExpr>(p.slot));
      } else {
        TPCDS_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> b,
                               BindExpr(*p.expr, *input, this));
        projections.push_back(std::move(b));
      }
    }
    auto out = std::make_shared<RowSet>();
    out->cols = node.schema;
    out->num_visible = node.num_visible;
    size_t n = input->rows.size();
    out->rows.resize(n);  // 1:1 mapping: write morsel outputs in place
    ForEachMorsel(n, [&](size_t b, size_t e, size_t) {
      int64_t bytes = 0;
      for (size_t r = b; r < e; ++r) {
        const auto& row = input->rows[r];
        std::vector<Value> projected;
        projected.reserve(out->cols.size());
        for (const auto& p : projections) projected.push_back(p->Eval(row));
        for (const Value& v : row) projected.push_back(v);
        if (track_) bytes += ApproxRowBytes(projected);
        out->rows[r] = std::move(projected);
      }
      if (track_ && governor_->ChargeRows(static_cast<int64_t>(e - b))) {
        governor_->Reserve(bytes);
      }
    });
    return out;
  }

  Result<std::shared_ptr<RowSet>> ExecDistinct(const PlanNode& node) {
    TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<RowSet> rs,
                           ExecOwned(node.children[0]));
    DistinctRows(rs.get());
    return rs;
  }

  /// Binds a sort-key list against `scope` (ordinals become slot
  /// passthroughs), returning the bound expressions and descending flags.
  Result<std::vector<std::unique_ptr<BoundExpr>>> BindSortKeys(
      const std::vector<PlanSortKey>& sort_keys, const RowSet& scope,
      std::vector<bool>* desc) {
    std::vector<std::unique_ptr<BoundExpr>> bound;
    bound.reserve(sort_keys.size());
    for (const PlanSortKey& key : sort_keys) {
      desc->push_back(key.desc);
      if (key.expr == nullptr) {
        bound.push_back(std::make_unique<SlotExpr>(key.ordinal));
      } else {
        TPCDS_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> b,
                               BindExpr(*key.expr, scope, this));
        bound.push_back(std::move(b));
      }
    }
    return bound;
  }

  /// Compares two key vectors under the per-key descending flags.
  /// Returns 0 on a full tie; callers break ties on the original row
  /// index, which turns the sort order into a total order — exactly
  /// std::stable_sort semantics, and the reason the parallel run/merge
  /// structure cannot influence the result.
  static int CompareKeys(const std::vector<Value>& a,
                         const std::vector<Value>& b,
                         const std::vector<bool>& desc) {
    for (size_t k = 0; k < desc.size(); ++k) {
      int c = Value::Compare(a[k], b[k]);
      if (c != 0) return desc[k] ? -c : c;
    }
    return 0;
  }

  Result<std::shared_ptr<RowSet>> ExecSort(const PlanNode& node) {
    TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<RowSet> rs,
                           ExecOwned(node.children[0]));
    std::vector<bool> desc;
    TPCDS_ASSIGN_OR_RETURN(std::vector<std::unique_ptr<BoundExpr>> bound,
                           BindSortKeys(node.sort_keys, *rs, &desc));
    size_t n = rs->rows.size();
    std::vector<std::vector<Value>> keys(n);
    ForEachMorsel(n, [&](size_t b, size_t e, size_t) {
      int64_t bytes = 0;
      for (size_t r = b; r < e; ++r) {
        keys[r].reserve(bound.size());
        for (const auto& k : bound) keys[r].push_back(k->Eval(rs->rows[r]));
        if (track_) bytes += ApproxRowBytes(keys[r]);
      }
      // Sort keys are a second materialisation of the input; count them
      // against the memory budget (rows were charged upstream).
      if (track_) governor_->Reserve(bytes);
    });
    // Total order: sort keys, then original row index. Equal-key rows
    // keep their input order, so this reproduces std::stable_sort
    // byte-for-byte while letting runs sort and merge in parallel.
    auto before = [&](uint32_t a, uint32_t b) {
      int c = CompareKeys(keys[a], keys[b], desc);
      return c != 0 ? c < 0 : a < b;
    };
    std::vector<uint32_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);

    // Morsel-parallel run sort: fixed-size runs (input-only structure)
    // sorted locally, then merged pairwise in log2(runs) parallel passes.
    // The total order makes the merged result independent of the run
    // boundaries anyway; fixed runs keep the intermediate states — and
    // governor charge points — reproducible too.
    QueryGovernor* gov = governor_;
    bool checked = track_;
    ParallelFor(SortRunCount(n), [&](size_t run) {
      if (checked && !gov->BeginMorsel()) return;
      size_t b = run * kSortRunRows;
      size_t e = std::min(n, b + kSortRunRows);
      std::sort(order.begin() + static_cast<long>(b),
                order.begin() + static_cast<long>(e), before);
    });
    if (n > kSortRunRows) {
      std::vector<uint32_t> scratch(n);
      for (size_t width = kSortRunRows; width < n; width *= 2) {
        size_t units = (n + 2 * width - 1) / (2 * width);
        ParallelFor(units, [&](size_t u) {
          if (checked && !gov->Tick()) return;
          size_t lo = u * 2 * width;
          size_t mid = std::min(n, lo + width);
          size_t hi = std::min(n, lo + 2 * width);
          std::merge(order.begin() + static_cast<long>(lo),
                     order.begin() + static_cast<long>(mid),
                     order.begin() + static_cast<long>(mid),
                     order.begin() + static_cast<long>(hi),
                     scratch.begin() + static_cast<long>(lo), before);
        });
        order.swap(scratch);
      }
    }

    RowList sorted(n);
    ForEachMorsel(n, [&](size_t b, size_t e, size_t) {
      for (size_t r = b; r < e; ++r) {
        sorted[r] = std::move(rs->rows[order[r]]);
      }
    });
    rs->rows = std::move(sorted);
    return rs;
  }

  /// Fused ORDER BY + LIMIT: each morsel keeps a bounded heap of the
  /// best `limit` rows (by sort keys, ties on original row index), heaps
  /// merge into the global best `limit`. Only retained sort keys are
  /// materialised — O(rows·log k) work and O(morsels·k) peak keys
  /// instead of a full n-key sort — and because each heap holds the
  /// exact top-k of its morsel under a total order, the merged result is
  /// byte-identical to sort-then-limit at any parallelism.
  Result<std::shared_ptr<RowSet>> ExecTopK(const PlanNode& node) {
    TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<RowSet> rs,
                           ExecOwned(node.children[0]));
    std::vector<bool> desc;
    TPCDS_ASSIGN_OR_RETURN(std::vector<std::unique_ptr<BoundExpr>> bound,
                           BindSortKeys(node.sort_keys, *rs, &desc));
    size_t n = rs->rows.size();
    size_t k = static_cast<size_t>(std::max<int64_t>(node.limit, 0));
    auto better = [&](const TopKEntry& a, const TopKEntry& b) {
      int c = CompareKeys(a.key, b.key, desc);
      return c != 0 ? c < 0 : a.row < b.row;
    };

    size_t morsels = MorselCount(n);
    std::vector<std::vector<TopKEntry>> kept(morsels);
    ForEachMorsel(n, [&](size_t b, size_t e, size_t m) {
      TopKHeap<decltype(better)> heap(std::min(k, e - b), better);
      std::vector<Value> scratch;
      for (size_t r = b; r < e; ++r) {
        scratch.clear();
        scratch.reserve(bound.size());
        for (const auto& kx : bound) scratch.push_back(kx->Eval(rs->rows[r]));
        heap.Offer(&scratch, static_cast<uint32_t>(r));
      }
      kept[m] = heap.Take();
      // Only the retained keys count against the memory budget — the
      // Top-K saving a full sort's n-key materialisation would charge.
      if (track_) {
        int64_t bytes = 0;
        for (const TopKEntry& entry : kept[m]) {
          bytes += ApproxRowBytes(entry.key);
        }
        governor_->Reserve(bytes);
      }
    });

    std::vector<TopKEntry> candidates;
    size_t total_kept = 0;
    for (const auto& m : kept) total_kept += m.size();
    candidates.reserve(total_kept);
    for (auto& m : kept) {
      for (TopKEntry& entry : m) candidates.push_back(std::move(entry));
    }
    std::sort(candidates.begin(), candidates.end(), better);
    if (candidates.size() > k) candidates.resize(k);

    RowList out;
    out.reserve(candidates.size());
    for (const TopKEntry& entry : candidates) {
      out.push_back(std::move(rs->rows[entry.row]));
    }
    rs->rows = std::move(out);
    node.stats.topk_seen += static_cast<int64_t>(n);
    node.stats.topk_kept += static_cast<int64_t>(rs->rows.size());
    if (stats_ != nullptr) {
      stats_->topk_seen += static_cast<int64_t>(n);
      stats_->topk_kept += static_cast<int64_t>(rs->rows.size());
    }
    return rs;
  }

  Result<std::shared_ptr<RowSet>> ExecLimit(const PlanNode& node) {
    TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<RowSet> rs,
                           ExecOwned(node.children[0]));
    if (node.limit >= 0 &&
        rs->rows.size() > static_cast<size_t>(node.limit)) {
      rs->rows.resize(static_cast<size_t>(node.limit));
    }
    return rs;
  }

  Result<std::shared_ptr<RowSet>> ExecTruncate(const PlanNode& node) {
    TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<RowSet> rs,
                           ExecOwned(node.children[0]));
    rs->cols = node.schema;
    for (auto& row : rs->rows) row.resize(node.schema.size());
    rs->num_visible = 0;
    return rs;
  }

  Result<std::shared_ptr<RowSet>> ExecSetOp(const PlanNode& node) {
    TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<RowSet> acc,
                           ExecOwned(node.children[0]));
    for (size_t i = 1; i < node.children.size(); ++i) {
      TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<RowSet> rs,
                             ExecOwned(node.children[i]));
      using Kind = SelectStmt::SetOpBranch::Kind;
      switch (node.set_kinds[i - 1]) {
        case Kind::kUnionAll:
          acc->rows.reserve(acc->rows.size() + rs->rows.size());
          for (auto& row : rs->rows) acc->rows.push_back(std::move(row));
          break;
        case Kind::kUnion:
          acc->rows.reserve(acc->rows.size() + rs->rows.size());
          for (auto& row : rs->rows) acc->rows.push_back(std::move(row));
          DistinctRows(acc.get());
          break;
        case Kind::kIntersect:
        case Kind::kExcept: {
          // Partitioned hash build over the branch rows (whole-row keys,
          // borrowed as views — `rs` outlives the probe), then a
          // morsel-parallel membership probe over the accumulated side.
          constexpr size_t kWholeRow = static_cast<size_t>(-1);
          std::vector<std::vector<uint32_t>> parts =
              PartitionRows(rs->rows, kWholeRow);
          using KeyViewSet =
              std::unordered_set<GroupKeyView, GroupKeyHash, GroupKeyEq>;
          std::vector<KeyViewSet> sets = MapUnits<KeyViewSet>(
              kHashPartitions,
              [&, this](size_t p, KeyViewSet* set) {
                if (track_ && !governor_->Tick()) return;
                set->reserve(parts[p].size());
                for (uint32_t r : parts[p]) {
                  set->insert(GroupKeyView::Of(rs->rows[r]));
                }
              },
              rs->rows.size());
          bool keep_present = node.set_kinds[i - 1] == Kind::kIntersect;
          size_t an = acc->rows.size();
          std::vector<uint8_t> match(an, 0);
          ForEachMorsel(an, [&](size_t b, size_t e, size_t) {
            for (size_t r = b; r < e; ++r) {
              GroupKeyView key = GroupKeyView::Of(acc->rows[r]);
              const auto& set = sets[GroupKeyHash()(key) % kHashPartitions];
              match[r] = set.count(key) != 0 ? 1 : 0;
            }
          });
          RowList kept;
          for (size_t r = 0; r < an; ++r) {
            if ((match[r] != 0) == keep_present) {
              kept.push_back(std::move(acc->rows[r]));
            }
          }
          acc->rows = std::move(kept);
          DistinctRows(acc.get());  // set semantics
          break;
        }
      }
    }
    return acc;
  }

  // ---- aggregation ----------------------------------------------------

  /// One aggregate hash table: group keys in first-seen order, their
  /// accumulators, and a view-keyed index into `keys`. The views stay
  /// valid as `keys` grows because moving a std::vector<Value> preserves
  /// its heap buffer — the same trick EngineTable::StringIndex plays with
  /// string_views, applied to composite keys. Probes go through a view
  /// over a scratch buffer or a row prefix, so the per-row path never
  /// materialises a key vector for an existing group.
  struct AggTable {
    std::vector<std::vector<Value>> keys;
    std::vector<std::vector<Accumulator>> accs;
    std::unordered_map<GroupKeyView, uint32_t, GroupKeyHash, GroupKeyEq>
        index;

    void Reserve(size_t n) {
      keys.reserve(n);
      accs.reserve(n);
      index.reserve(n);
    }
    size_t size() const { return keys.size(); }

    /// Adopts `key` (moved) and `group_accs` as a new group; returns its
    /// ordinal.
    uint32_t Insert(std::vector<Value>&& key,
                    std::vector<Accumulator>&& group_accs) {
      uint32_t g = static_cast<uint32_t>(keys.size());
      keys.push_back(std::move(key));
      accs.push_back(std::move(group_accs));
      index.emplace(GroupKeyView::Of(keys[g]), g);
      return g;
    }
  };

  std::vector<Accumulator> FreshAccumulators(const PlanNode& node) {
    std::vector<Accumulator> accs;
    accs.reserve(node.aggs.size());
    for (const PlanAggSpec& spec : node.aggs) accs.emplace_back(&spec);
    return accs;
  }

  /// Phase 2 of partitioned aggregation: every group key hashes into one
  /// of kHashPartitions partitions (a pure function of the key), and each
  /// partition merges its groups from all partials *in partial order* —
  /// the same per-group Merge sequence the serial morsel-order merge
  /// performs, so no result depends on how partitions interleave. Each
  /// surviving group is tagged with its first-seen token (partial index,
  /// insertion index); concatenating partitions by ascending token
  /// reproduces the global first-seen order exactly. Consumes `partials`.
  AggTable MergePartials(std::vector<AggTable>* partials, size_t naggs) {
    size_t np = partials->size();
    if (np == 1) return std::move((*partials)[0]);
    std::vector<size_t> offset(np + 1, 0);
    for (size_t i = 0; i < np; ++i) {
      offset[i + 1] = offset[i] + (*partials)[i].size();
    }
    // Partition assignment, one hash per group, computed in parallel.
    std::vector<std::vector<uint8_t>> parts(np);
    QueryGovernor* gov = governor_;
    bool checked = track_;
    ParallelFor(np, [&](size_t i) {
      if (checked && !gov->Tick()) return;
      const AggTable& pt = (*partials)[i];
      parts[i].resize(pt.size());
      for (size_t j = 0; j < pt.size(); ++j) {
        parts[i][j] =
            static_cast<uint8_t>(GroupKeyHash()(pt.keys[j]) %
                                 kHashPartitions);
      }
    });
    struct MergedPart {
      AggTable table;
      std::vector<uint32_t> tokens;  // ascending global first-seen tokens
    };
    auto merge_part = [&](size_t p, MergedPart* out) {
      if (checked && !gov->BeginMorsel()) return;
      out->table.Reserve(offset[np] / kHashPartitions + 1);
      for (size_t i = 0; i < np; ++i) {
        AggTable& pt = (*partials)[i];
        for (size_t j = 0; j < pt.size(); ++j) {
          if (parts[i][j] != p) continue;
          auto it = out->table.index.find(GroupKeyView::Of(pt.keys[j]));
          if (it == out->table.index.end()) {
            out->table.Insert(std::move(pt.keys[j]), std::move(pt.accs[j]));
            out->tokens.push_back(static_cast<uint32_t>(offset[i] + j));
          } else {
            for (size_t a = 0; a < naggs; ++a) {
              out->table.accs[it->second][a].Merge(pt.accs[j][a]);
            }
          }
        }
      }
    };
    std::vector<MergedPart> merged =
        MapUnits<MergedPart>(kHashPartitions, merge_part, offset[np]);
    // Concatenate partitions in ascending-token (= global first-seen)
    // order. The per-partition token lists are ascending, so this is a
    // P-way merge with linear cursor scans (P is small).
    AggTable result;
    size_t total = 0;
    for (const MergedPart& mp : merged) total += mp.table.size();
    result.keys.reserve(total);
    result.accs.reserve(total);
    std::vector<size_t> cur(kHashPartitions, 0);
    for (size_t taken = 0; taken < total; ++taken) {
      size_t best = kHashPartitions;
      uint32_t best_tok = 0;
      for (size_t p = 0; p < kHashPartitions; ++p) {
        if (cur[p] >= merged[p].tokens.size()) continue;
        uint32_t tok = merged[p].tokens[cur[p]];
        if (best == kHashPartitions || tok < best_tok) {
          best = p;
          best_tok = tok;
        }
      }
      result.keys.push_back(std::move(merged[best].table.keys[cur[best]]));
      result.accs.push_back(std::move(merged[best].table.accs[cur[best]]));
      ++cur[best];
    }
    return result;
  }

  /// One ROLLUP subtotal level, computed from the leaf-level table
  /// instead of rescanning the input: leaf groups sharing the first
  /// `depth` key values merge (in leaf first-seen order) into one
  /// depth-`depth` group whose trailing key slots are NULL. The first
  /// leaf with a given prefix is also the first input row with it, so
  /// subtotal groups appear in the same order a row rescan would emit.
  AggTable RollupDepth(const PlanNode& node, const AggTable& leaf,
                       size_t depth, size_t nkeys) {
    size_t n = leaf.size();
    auto build_partial = [&](size_t b, size_t e, size_t, AggTable* out) {
      AggTable& pt = *out;
      pt.Reserve(e - b);
      std::vector<Value> scratch(nkeys);
      int64_t group_bytes = 0;
      int64_t new_groups = 0;
      for (size_t r = b; r < e; ++r) {
        for (size_t k = 0; k < depth; ++k) scratch[k] = leaf.keys[r][k];
        auto it = pt.index.find(GroupKeyView::Of(scratch));
        uint32_t g;
        if (it == pt.index.end()) {
          if (track_) {
            group_bytes +=
                ApproxRowBytes(scratch) +
                static_cast<int64_t>(node.aggs.size() * sizeof(Accumulator));
            ++new_groups;
          }
          g = pt.Insert(std::move(scratch), FreshAccumulators(node));
          scratch.assign(nkeys, Value());
        } else {
          g = it->second;
        }
        for (size_t a = 0; a < node.aggs.size(); ++a) {
          pt.accs[g][a].Merge(leaf.accs[r][a]);
        }
      }
      // Same charging rule as the leaf build: every new group costs its
      // key plus one accumulator per aggregate.
      if (track_ && governor_->ChargeRows(new_groups)) {
        governor_->Reserve(group_bytes);
      }
    };
    std::vector<AggTable> partials = MapMorsels<AggTable>(n, build_partial);
    return MergePartials(&partials, node.aggs.size());
  }

  Result<std::shared_ptr<RowSet>> ExecAggregate(const PlanNode& node) {
    TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<RowSet> input,
                           Exec(node.children[0]));
    TPCDS_ASSIGN_OR_RETURN(std::vector<std::unique_ptr<BoundExpr>> key_exprs,
                           BindAll(node.group_by, *input));
    std::vector<std::unique_ptr<BoundExpr>> arg_exprs;
    for (const PlanAggSpec& spec : node.aggs) {
      if (spec.arg == nullptr) {
        arg_exprs.push_back(nullptr);
      } else {
        TPCDS_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> b,
                               BindExpr(*spec.arg, *input, this));
        arg_exprs.push_back(std::move(b));
      }
    }

    size_t nkeys = key_exprs.size();
    size_t naggs = node.aggs.size();
    size_t n = input->rows.size();

    // Phase 1: morsel-parallel partial aggregation at the leaf depth
    // (all group keys evaluated). Each morsel fills its own table in
    // first-appearance order; the partition merge below recombines them
    // in a sequence that depends only on the input.
    auto build_partial = [&](size_t b, size_t e, size_t, AggTable* out) {
      AggTable& pt = *out;
      pt.Reserve(e - b);
      std::vector<Value> scratch(nkeys);
      int64_t group_bytes = 0;
      for (size_t r = b; r < e; ++r) {
        const auto& row = input->rows[r];
        for (size_t k = 0; k < nkeys; ++k) scratch[k] = key_exprs[k]->Eval(row);
        auto it = pt.index.find(GroupKeyView::Of(scratch));
        uint32_t g;
        if (it == pt.index.end()) {
          if (track_) {
            group_bytes += ApproxRowBytes(scratch) +
                           static_cast<int64_t>(naggs * sizeof(Accumulator));
          }
          g = pt.Insert(std::move(scratch), FreshAccumulators(node));
          scratch.assign(nkeys, Value());
        } else {
          g = it->second;
        }
        for (size_t i = 0; i < naggs; ++i) {
          if (node.aggs[i].star) {
            pt.accs[g][i].Add(Value::Int(1));
          } else {
            pt.accs[g][i].Add(arg_exprs[i]->Eval(row));
          }
        }
      }
      // Charge the aggregate hash-table build: each new group holds its
      // key plus one accumulator per aggregate.
      if (track_ &&
          governor_->ChargeRows(static_cast<int64_t>(pt.size()))) {
        governor_->Reserve(group_bytes);
      }
    };
    std::vector<AggTable> partials = MapMorsels<AggTable>(n, build_partial);
    AggTable groups = MergePartials(&partials, naggs);

    if (node.rollup && nkeys > 0 && !governor_->cancelled()) {
      // SQL-99 subtotal levels n-1, ..., 0, each computed from the
      // pristine leaf table, then folded into the global table in depth
      // order. A subtotal key can collide with a natural all-NULL leaf
      // key; as in the serial engine, the collision merges into the
      // earlier group instead of emitting a duplicate key.
      std::vector<AggTable> levels;
      levels.reserve(nkeys);
      for (size_t d = nkeys; d-- > 0;) {
        levels.push_back(RollupDepth(node, groups, d, nkeys));
      }
      groups.index.clear();
      groups.index.reserve(groups.size());
      for (size_t g = 0; g < groups.size(); ++g) {
        groups.index.emplace(GroupKeyView::Of(groups.keys[g]),
                             static_cast<uint32_t>(g));
      }
      for (AggTable& level : levels) {
        for (size_t j = 0; j < level.size(); ++j) {
          auto it = groups.index.find(GroupKeyView::Of(level.keys[j]));
          if (it == groups.index.end()) {
            groups.Insert(std::move(level.keys[j]), std::move(level.accs[j]));
          } else {
            for (size_t a = 0; a < naggs; ++a) {
              groups.accs[it->second][a].Merge(level.accs[j][a]);
            }
          }
        }
      }
    }

    // No GROUP BY and no input rows still yields one (empty) group.
    if (node.group_by.empty() && groups.size() == 0) {
      groups.Insert(std::vector<Value>{}, FreshAccumulators(node));
    }

    auto out = std::make_shared<RowSet>();
    out->cols = node.schema;
    size_t ngroups = groups.size();
    out->rows.resize(ngroups);
    // Finalize morsel-parallel: each output row adopts its group's key
    // vector and appends the finalized aggregate values.
    ForEachMorsel(ngroups, [&](size_t b, size_t e, size_t) {
      for (size_t g = b; g < e; ++g) {
        std::vector<Value>& row = out->rows[g];
        row = std::move(groups.keys[g]);
        row.reserve(nkeys + naggs);
        for (const Accumulator& acc : groups.accs[g]) {
          row.push_back(acc.Finalize());
        }
      }
    });
    return out;
  }

  // ---- window functions -----------------------------------------------

  Result<std::shared_ptr<RowSet>> ExecWindow(const PlanNode& node) {
    TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<RowSet> scope,
                           ExecOwned(node.children[0]));
    for (const PlanWindowFn& fn : node.windows) {
      TPCDS_ASSIGN_OR_RETURN(
          std::vector<std::unique_ptr<BoundExpr>> part_exprs,
          BindAll(fn.partition_by, *scope));
      std::unordered_map<std::vector<Value>, std::vector<size_t>,
                         VecValueHash, VecValueEq>
          partitions;
      for (size_t r = 0; r < scope->rows.size(); ++r) {
        std::vector<Value> key;
        key.reserve(part_exprs.size());
        for (const auto& p : part_exprs) key.push_back(p->Eval(scope->rows[r]));
        partitions[std::move(key)].push_back(r);
      }

      std::vector<Value> results(scope->rows.size());
      if (fn.fn == AggFn::kRank || fn.fn == AggFn::kRowNumber ||
          fn.fn == AggFn::kDenseRank) {
        TPCDS_ASSIGN_OR_RETURN(
            std::vector<std::unique_ptr<BoundExpr>> order_exprs,
            BindAll(fn.order_by, *scope));
        for (auto& [key, rows] : partitions) {
          std::vector<std::vector<Value>> sort_keys(rows.size());
          for (size_t i = 0; i < rows.size(); ++i) {
            for (const auto& o : order_exprs) {
              sort_keys[i].push_back(o->Eval(scope->rows[rows[i]]));
            }
          }
          std::vector<size_t> idx(rows.size());
          for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
          std::stable_sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
            for (size_t k = 0; k < order_exprs.size(); ++k) {
              int c = Value::Compare(sort_keys[a][k], sort_keys[b][k]);
              if (c != 0) return fn.order_desc[k] ? c > 0 : c < 0;
            }
            return false;
          });
          int64_t rank = 0;
          int64_t dense = 0;
          for (size_t i = 0; i < idx.size(); ++i) {
            bool tie = i > 0 &&
                       VecValueEq()(sort_keys[idx[i]], sort_keys[idx[i - 1]]);
            if (fn.fn == AggFn::kRowNumber) {
              rank = static_cast<int64_t>(i) + 1;
            } else if (fn.fn == AggFn::kRank) {
              if (!tie) rank = static_cast<int64_t>(i) + 1;
            } else {  // DENSE_RANK
              if (!tie) ++dense;
              rank = dense;
            }
            results[rows[idx[i]]] = Value::Int(rank);
          }
        }
      } else {
        // Aggregate over the whole partition.
        PlanAggSpec spec;
        spec.fn = fn.fn;
        spec.star = fn.star;
        std::unique_ptr<BoundExpr> arg;
        if (!spec.star && fn.arg != nullptr) {
          TPCDS_ASSIGN_OR_RETURN(arg, BindExpr(*fn.arg, *scope, this));
        }
        for (auto& [key, rows] : partitions) {
          Accumulator acc(&spec);
          for (size_t r : rows) {
            acc.Add(spec.star ? Value::Int(1) : arg->Eval(scope->rows[r]));
          }
          Value v = acc.Finalize();
          for (size_t r : rows) results[r] = v;
        }
      }

      RowSet::Col col;
      col.name = fn.out_col;
      scope->cols.push_back(std::move(col));
      for (size_t r = 0; r < scope->rows.size(); ++r) {
        scope->rows[r].push_back(results[r]);
      }
    }
    return scope;
  }

  /// Assigns each row's first `prefix` values to one of kHashPartitions
  /// partitions by hash (a pure input function) and returns per-partition
  /// ascending row-index lists. Morsel-parallel: each morsel buckets its
  /// own rows, then buckets concatenate in morsel order.
  std::vector<std::vector<uint32_t>> PartitionRows(const RowList& rows,
                                                   size_t prefix) {
    size_t n = rows.size();
    size_t morsels = MorselCount(n);
    std::vector<std::vector<std::vector<uint32_t>>> buckets(
        morsels, std::vector<std::vector<uint32_t>>(kHashPartitions));
    ForEachMorsel(n, [&](size_t b, size_t e, size_t m) {
      for (size_t r = b; r < e; ++r) {
        size_t p = GroupKeyHash()(GroupKeyView::Prefix(rows[r], prefix)) %
                   kHashPartitions;
        buckets[m][p].push_back(static_cast<uint32_t>(r));
      }
    });
    return MapUnits<std::vector<uint32_t>>(
        kHashPartitions,
        [&](size_t p, std::vector<uint32_t>* part) {
          size_t total = 0;
          for (size_t m = 0; m < morsels; ++m) total += buckets[m][p].size();
          part->reserve(total);
          for (size_t m = 0; m < morsels; ++m) {
            part->insert(part->end(), buckets[m][p].begin(),
                         buckets[m][p].end());
          }
        },
        n);
  }

  /// Duplicate elimination over the visible prefix, partition-parallel:
  /// rows partition by key hash, each partition keeps the first
  /// occurrence of every key (keys are borrowed views into the rows —
  /// nothing is materialised), and the per-partition survivor lists merge
  /// back into one ascending index list. A key's first occurrence lands
  /// in that key's partition regardless of chunking, so the survivors —
  /// and their order — are exactly what a serial first-seen scan keeps.
  void DistinctRows(RowSet* rs) {
    size_t n = rs->rows.size();
    if (n == 0) return;
    size_t visible = rs->VisibleCols();
    std::vector<std::vector<uint32_t>> parts =
        PartitionRows(rs->rows, visible);
    QueryGovernor* gov = governor_;
    bool checked = track_;
    auto keep_first = [&](size_t p, std::vector<uint32_t>* kept) {
      if (checked && !gov->Tick()) return;
      std::unordered_set<GroupKeyView, GroupKeyHash, GroupKeyEq> seen;
      seen.reserve(parts[p].size());
      for (uint32_t r : parts[p]) {
        if (seen.insert(GroupKeyView::Prefix(rs->rows[r], visible)).second) {
          kept->push_back(r);
        }
      }
    };
    std::vector<std::vector<uint32_t>> survivors =
        MapUnits<std::vector<uint32_t>>(kHashPartitions, keep_first, n);
    std::vector<uint32_t> keep = MergeAscendingIndexLists(survivors);
    if (keep.size() == n) return;
    RowList unique_rows(keep.size());
    ForEachMorsel(keep.size(), [&](size_t b, size_t e, size_t) {
      for (size_t i = b; i < e; ++i) {
        unique_rows[i] = std::move(rs->rows[keep[i]]);
      }
    });
    rs->rows = std::move(unique_rows);
  }

  const DataFacade* facade_;
  PlannerOptions options_;
  ExecStats* stats_;
  const PhysicalPlan* plan_;
  QueryGovernor* governor_;  // never null; default governor is a no-op
  bool track_ = false;       // charge rows/bytes only when limits or faults on
  size_t helpers_ = 0;       // pool workers per ParallelFor; 0 = serial
  std::map<std::string, std::shared_ptr<RowSet>> cte_results_;
  std::map<const PlanNode*, std::shared_ptr<RowSet>> memo_;
  /// Join-key filters registered on scans by enclosing hash/semi joins.
  /// Registration and unregistration happen in the (serial) operator
  /// open/close path; only morsel workers read it concurrently.
  std::map<const PlanNode*, std::vector<ScanPushdown>> pushdowns_;
  double child_seconds_ = 0.0;
};

void EmitOperator(const PlanNode* node, int depth, ExecStats* stats,
                  std::set<const PlanNode*>* visited) {
  ExecStats::OpStat op;
  static_cast<PlanOpStats&>(op) = node->stats;
  op.label = PlanNodeLabel(*node);
  op.depth = depth;
  bool first_visit = visited->insert(node).second;
  if (!first_visit) op.label += " (shared)";
  stats->operators.push_back(std::move(op));
  if (!first_visit) return;  // shared subtree already listed
  for (const auto& c : node->children) {
    EmitOperator(c.get(), depth + 1, stats, visited);
  }
}

}  // namespace

Result<std::shared_ptr<RowSet>> ExecutePlan(const DataFacade* facade,
                                            const PhysicalPlan& plan,
                                            const PlannerOptions& options,
                                            ExecStats* stats,
                                            QueryGovernor* governor) {
  // An external governor (cancellation from another thread) takes
  // precedence; otherwise build one from the options' limits.
  GovernorLimits limits;
  limits.timeout_ms = options.timeout_ms;
  limits.memory_budget_bytes = options.memory_budget_bytes;
  limits.row_budget = options.row_budget;
  QueryGovernor local(limits);
  QueryGovernor* gov = governor != nullptr ? governor : &local;
  PlanExecutor executor(facade, options, stats, &plan, gov);
  Result<std::shared_ptr<RowSet>> result = executor.Run();
  if (result.ok() && stats != nullptr) {
    std::set<const PlanNode*> visited;
    for (const auto& [name, node] : plan.ctes) {
      EmitOperator(node.get(), 0, stats, &visited);
    }
    EmitOperator(plan.root.get(), 0, stats, &visited);
  }
  return result;
}

}  // namespace tpcds
