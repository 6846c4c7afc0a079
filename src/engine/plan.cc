#include "engine/plan.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "engine/data_facade.h"
#include "engine/expr_eval.h"
#include "engine/table.h"
#include "util/string_util.h"

namespace tpcds {
namespace {

// --------------------------------------------------------- AST utilities

void FlattenConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  if (e->tag == Expr::Tag::kBinary && e->name == "AND") {
    FlattenConjuncts(e->children[0].get(), out);
    FlattenConjuncts(e->children[1].get(), out);
    return;
  }
  out->push_back(e);
}

void CollectColumnRefs(const Expr& e, std::vector<const Expr*>* out) {
  if (e.tag == Expr::Tag::kColumnRef) out->push_back(&e);
  for (const auto& c : e.children) CollectColumnRefs(*c, out);
  for (const auto& c : e.partition_by) CollectColumnRefs(*c, out);
  for (const auto& c : e.order_by) CollectColumnRefs(*c, out);
  // Subquery bodies bind their own scopes (uncorrelated only).
}

void CollectStmtColumnRefs(const SelectStmt& stmt,
                           std::vector<const Expr*>* out) {
  for (const SelectItem& item : stmt.select_items) {
    if (item.expr != nullptr) CollectColumnRefs(*item.expr, out);
  }
  for (const FromItem& f : stmt.from_items) {
    if (f.join_condition != nullptr) CollectColumnRefs(*f.join_condition, out);
  }
  if (stmt.where != nullptr) CollectColumnRefs(*stmt.where, out);
  for (const auto& g : stmt.group_by) CollectColumnRefs(*g, out);
  if (stmt.having != nullptr) CollectColumnRefs(*stmt.having, out);
  for (const OrderItem& o : stmt.order_by) CollectColumnRefs(*o.expr, out);
}

bool ResolvableIn(const Expr& e, const RowSet& scope) {
  std::vector<const Expr*> refs;
  CollectColumnRefs(e, &refs);
  for (const Expr* r : refs) {
    if (!scope.Resolve(r->qualifier, r->name).ok()) return false;
  }
  return true;
}

/// The sides of equality `c` as {left, right} when one side resolves in
/// `left` and the other in `right`; {nullptr, nullptr} otherwise.
std::pair<const Expr*, const Expr*> SplitEquality(const Expr& c,
                                                  const RowSet& left,
                                                  const RowSet& right) {
  if (c.tag != Expr::Tag::kBinary || c.name != "=") return {nullptr, nullptr};
  const Expr& a = *c.children[0];
  const Expr& b = *c.children[1];
  if (ResolvableIn(a, left) && ResolvableIn(b, right)) return {&a, &b};
  if (ResolvableIn(b, left) && ResolvableIn(a, right)) return {&b, &a};
  return {nullptr, nullptr};
}

bool ExprHasSubquery(const Expr& e) {
  if (e.tag == Expr::Tag::kInSubquery || e.tag == Expr::Tag::kScalarSubquery ||
      e.tag == Expr::Tag::kExistsSubquery) {
    return true;
  }
  for (const auto& c : e.children) {
    if (ExprHasSubquery(*c)) return true;
  }
  return false;
}

/// Maps an upper-case SQL function name to its AggFn.
AggFn ResolveAggFn(const std::string& name) {
  static const std::map<std::string, AggFn> kFns = {
      {"COUNT", AggFn::kCount},         {"SUM", AggFn::kSum},
      {"AVG", AggFn::kAvg},             {"MIN", AggFn::kMin},
      {"MAX", AggFn::kMax},             {"STDDEV_SAMP", AggFn::kStddevSamp},
      {"RANK", AggFn::kRank},           {"DENSE_RANK", AggFn::kDenseRank},
      {"ROW_NUMBER", AggFn::kRowNumber},
  };
  auto it = kFns.find(name);
  return it == kFns.end() ? AggFn::kUnknown : it->second;
}

void CollectAggregates(const Expr& e, std::vector<PlanAggSpec>* specs) {
  if (e.tag == Expr::Tag::kAggregate) {
    PlanAggSpec spec;
    spec.key = ExprToString(e);
    spec.fn = ResolveAggFn(e.name);
    spec.distinct = e.distinct;
    spec.star = !e.children.empty() && e.children[0]->tag == Expr::Tag::kStar;
    spec.arg =
        spec.star || e.children.empty() ? nullptr : e.children[0].get();
    for (const PlanAggSpec& s : *specs) {
      if (s.key == spec.key) return;  // dedup; aggregates don't nest
    }
    specs->push_back(spec);
    return;
  }
  for (const auto& c : e.children) CollectAggregates(*c, specs);
  for (const auto& c : e.partition_by) CollectAggregates(*c, specs);
  for (const auto& c : e.order_by) CollectAggregates(*c, specs);
}

void CollectWindows(const Expr& e, std::vector<const Expr*>* out) {
  if (e.tag == Expr::Tag::kWindow) {
    std::string key = ExprToString(e);
    for (const Expr* w : *out) {
      if (ExprToString(*w) == key) return;
    }
    out->push_back(&e);
    return;
  }
  for (const auto& c : e.children) CollectWindows(*c, out);
}

/// Rewrites an expression tree, replacing sub-expressions whose canonical
/// text appears in `replacements` with bare column references.
std::unique_ptr<Expr> RewriteExpr(
    const Expr& e, const std::map<std::string, std::string>& replacements) {
  auto it = replacements.find(ExprToString(e));
  if (it != replacements.end()) {
    auto ref = std::make_unique<Expr>();
    ref->tag = Expr::Tag::kColumnRef;
    // Replacement targets are spelled "name" or "qualifier.name".
    size_t dot = it->second.find('.');
    if (dot == std::string::npos) {
      ref->name = it->second;
    } else {
      ref->qualifier = it->second.substr(0, dot);
      ref->name = it->second.substr(dot + 1);
    }
    return ref;
  }
  std::unique_ptr<Expr> out = e.Clone();
  out->children.clear();
  out->partition_by.clear();
  out->order_by.clear();
  for (const auto& c : e.children) {
    out->children.push_back(RewriteExpr(*c, replacements));
  }
  for (const auto& c : e.partition_by) {
    out->partition_by.push_back(RewriteExpr(*c, replacements));
  }
  for (const auto& c : e.order_by) {
    out->order_by.push_back(RewriteExpr(*c, replacements));
  }
  return out;
}

// ---------------------------------------------------------------- planner

/// Builds a PlanNode tree from the AST. Mirrors the decisions the old
/// monolithic executor made (filter pushdown, index joins, star
/// transformation, left-deep join order, aggregate/window rewrites) but
/// computes them statically over schemas; no table data is read.
class Planner {
 public:
  Planner(const DataFacade* facade, const PlannerOptions& options,
          PhysicalPlan* plan)
      : facade_(facade), options_(options), plan_(plan) {}

  Status PlanStatement(const SelectStmt& stmt) {
    for (const auto& [name, cte] : stmt.ctes) {
      TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<PlanNode> node,
                             PlanSelectCore(*cte));
      plan_->cte_schemas[ToLower(name)] = node->schema;
      plan_->ctes.emplace_back(ToLower(name), std::move(node));
    }
    TPCDS_ASSIGN_OR_RETURN(plan_->root, PlanSelectCore(stmt));
    return Status::OK();
  }

  Result<std::shared_ptr<PlanNode>> PlanSelectCore(const SelectStmt& stmt) {
    if (stmt.set_ops.empty()) {
      TPCDS_ASSIGN_OR_RETURN(
          std::shared_ptr<PlanNode> node,
          PlanBareSelect(stmt, &stmt.order_by, stmt.limit));
      return MakeTruncate(std::move(node));
    }
    TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<PlanNode> first,
                           PlanBareSelect(stmt, nullptr, -1));
    first = MakeTruncate(std::move(first));
    auto node = std::make_shared<PlanNode>();
    node->kind = PlanKind::kSetOp;
    node->schema = first->schema;
    node->num_visible = 0;
    node->children.push_back(std::move(first));
    for (const auto& branch : stmt.set_ops) {
      TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<PlanNode> b,
                             PlanBareSelect(*branch.stmt, nullptr, -1));
      b = MakeTruncate(std::move(b));
      if (b->schema.size() != node->schema.size()) {
        return Status::InvalidArgument("set operation arity mismatch");
      }
      node->children.push_back(std::move(b));
      node->set_kinds.push_back(branch.kind);
    }
    std::shared_ptr<PlanNode> out = std::move(node);
    if (!stmt.order_by.empty()) {
      std::vector<std::pair<const Expr*, bool>> keys;
      for (const OrderItem& o : stmt.order_by) {
        keys.emplace_back(o.expr.get(), o.desc);
      }
      TPCDS_ASSIGN_OR_RETURN(out, MakeSort(std::move(out), keys));
    }
    if (stmt.limit >= 0) out = MakeLimit(std::move(out), stmt.limit);
    return out;
  }

 private:
  /// Takes ownership of a rewritten expression; plan nodes hold raw
  /// pointers either into the statement AST or into this pool.
  const Expr* Own(std::unique_ptr<Expr> e) {
    plan_->owned_exprs.push_back(std::move(e));
    return plan_->owned_exprs.back().get();
  }

  static RowSet ScopeOf(const PlanNode& n) {
    RowSet rs;
    rs.cols = n.schema;
    rs.num_visible = n.num_visible;
    return rs;
  }

  std::shared_ptr<PlanNode> MakeFilter(std::shared_ptr<PlanNode> child,
                                       std::vector<const Expr*> preds) {
    auto node = std::make_shared<PlanNode>();
    node->kind = PlanKind::kFilter;
    node->schema = child->schema;
    node->num_visible = child->num_visible;
    node->predicates = std::move(preds);
    node->children.push_back(std::move(child));
    return node;
  }

  std::shared_ptr<PlanNode> MakeLimit(std::shared_ptr<PlanNode> child,
                                      int64_t limit) {
    // ORDER BY + LIMIT fuses into a Top-K operator: per-worker bounded
    // heaps keep the best `limit` rows instead of materialising a full
    // sort. The heaps compute the exact top-k of their chunk under a
    // total order (sort keys, then original row index), so the merged
    // result is byte-identical to sort-then-limit.
    if (limit >= 0 && child->kind == PlanKind::kSort) {
      auto node = std::make_shared<PlanNode>();
      node->kind = PlanKind::kTopK;
      node->schema = child->schema;
      node->num_visible = child->num_visible;
      node->sort_keys = child->sort_keys;
      node->limit = limit;
      node->children.push_back(child->children[0]);
      return node;
    }
    auto node = std::make_shared<PlanNode>();
    node->kind = PlanKind::kLimit;
    node->schema = child->schema;
    node->num_visible = child->num_visible;
    node->limit = limit;
    node->children.push_back(std::move(child));
    return node;
  }

  /// Drops hidden passthrough columns at select-core boundaries. No-op
  /// (elided) when everything is already visible.
  std::shared_ptr<PlanNode> MakeTruncate(std::shared_ptr<PlanNode> child) {
    if (child->num_visible == 0 ||
        child->num_visible == child->schema.size()) {
      child->num_visible = 0;
      return child;
    }
    auto node = std::make_shared<PlanNode>();
    node->kind = PlanKind::kTruncate;
    node->schema.assign(child->schema.begin(),
                        child->schema.begin() +
                            static_cast<long>(child->num_visible));
    node->num_visible = 0;
    node->children.push_back(std::move(child));
    return node;
  }

  Result<std::shared_ptr<PlanNode>> MakeSort(
      std::shared_ptr<PlanNode> child,
      const std::vector<std::pair<const Expr*, bool>>& keys) {
    auto node = std::make_shared<PlanNode>();
    node->kind = PlanKind::kSort;
    node->schema = child->schema;
    node->num_visible = child->num_visible;
    size_t visible = node->num_visible == 0 ? node->schema.size()
                                            : node->num_visible;
    for (const auto& [expr, desc] : keys) {
      PlanSortKey key;
      key.desc = desc;
      if (expr->tag == Expr::Tag::kLiteral &&
          expr->literal.kind() == Value::Kind::kInt) {
        int64_t ordinal = expr->literal.AsInt();
        if (ordinal < 1 || ordinal > static_cast<int64_t>(visible)) {
          return Status::InvalidArgument("ORDER BY ordinal out of range");
        }
        key.ordinal = static_cast<int>(ordinal - 1);
      } else {
        key.expr = expr;
      }
      node->sort_keys.push_back(key);
    }
    node->children.push_back(std::move(child));
    return node;
  }

  Result<std::shared_ptr<PlanNode>> PlanBareSelect(
      const SelectStmt& stmt, const std::vector<OrderItem>* order_by,
      int64_t limit) {
    TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<PlanNode> node, PlanFrom(stmt));

    // ---- aggregation --------------------------------------------------
    std::map<std::string, std::string> rewrites;
    std::vector<PlanAggSpec> agg_specs;
    for (const SelectItem& item : stmt.select_items) {
      if (item.expr != nullptr) CollectAggregates(*item.expr, &agg_specs);
    }
    if (stmt.having != nullptr) CollectAggregates(*stmt.having, &agg_specs);
    for (const OrderItem& o : stmt.order_by) {
      CollectAggregates(*o.expr, &agg_specs);
    }
    bool has_aggregates = !stmt.group_by.empty() || !agg_specs.empty();

    if (has_aggregates) {
      node = MakeAggregate(stmt, std::move(node), agg_specs, &rewrites);
      if (stmt.having != nullptr) {
        node = MakeFilter(std::move(node),
                          {Own(RewriteExpr(*stmt.having, rewrites))});
      }
    }

    // ---- window functions --------------------------------------------
    std::vector<const Expr*> window_nodes;
    for (const SelectItem& item : stmt.select_items) {
      if (item.expr != nullptr) CollectWindows(*item.expr, &window_nodes);
    }
    if (order_by != nullptr) {
      for (const OrderItem& o : *order_by) {
        CollectWindows(*o.expr, &window_nodes);
      }
    }
    if (!window_nodes.empty()) {
      node = MakeWindow(window_nodes, std::move(node), &rewrites);
    }

    // ---- projection ---------------------------------------------------
    auto proj = std::make_shared<PlanNode>();
    proj->kind = PlanKind::kProject;
    for (const SelectItem& item : stmt.select_items) {
      if (item.is_star) {
        for (size_t i = 0; i < node->schema.size(); ++i) {
          proj->schema.push_back(node->schema[i]);
          PlanProjection p;
          p.slot = static_cast<int>(i);
          proj->projections.push_back(p);
        }
        continue;
      }
      PlanProjection p;
      p.expr = Own(RewriteExpr(*item.expr, rewrites));
      proj->projections.push_back(p);
      RowSet::Col col;
      if (!item.alias.empty()) {
        col.name = item.alias;
      } else if (item.expr->tag == Expr::Tag::kColumnRef) {
        col.qualifier = item.expr->qualifier;
        col.name = item.expr->name;
      } else {
        col.name = ExprToString(*item.expr);
      }
      proj->schema.push_back(std::move(col));
    }
    proj->num_visible = proj->schema.size();
    for (const RowSet::Col& c : node->schema) proj->schema.push_back(c);
    proj->children.push_back(std::move(node));
    node = std::move(proj);

    if (stmt.select_distinct) {
      auto distinct = std::make_shared<PlanNode>();
      distinct->kind = PlanKind::kDistinct;
      distinct->schema = node->schema;
      distinct->num_visible = node->num_visible;
      distinct->children.push_back(std::move(node));
      node = std::move(distinct);
    }

    if (order_by != nullptr && !order_by->empty()) {
      // Rewrite aggregates/windows in ORDER BY before binding.
      std::vector<std::pair<const Expr*, bool>> keys;
      for (const OrderItem& o : *order_by) {
        keys.emplace_back(Own(RewriteExpr(*o.expr, rewrites)), o.desc);
      }
      TPCDS_ASSIGN_OR_RETURN(node, MakeSort(std::move(node), keys));
    }
    if (limit >= 0) node = MakeLimit(std::move(node), limit);
    return node;
  }

  std::shared_ptr<PlanNode> MakeAggregate(
      const SelectStmt& stmt, std::shared_ptr<PlanNode> child,
      std::vector<PlanAggSpec> specs,
      std::map<std::string, std::string>* rewrites) {
    auto node = std::make_shared<PlanNode>();
    node->kind = PlanKind::kAggregate;
    node->rollup = stmt.group_rollup;
    for (size_t g = 0; g < stmt.group_by.size(); ++g) {
      const Expr& e = *stmt.group_by[g];
      node->group_by.push_back(&e);
      RowSet::Col col;
      if (e.tag == Expr::Tag::kColumnRef) {
        col.qualifier = e.qualifier;
        col.name = e.name;
      } else {
        col.name = "#gb" + std::to_string(g);
      }
      (*rewrites)[ExprToString(e)] =
          col.qualifier.empty() ? col.name : col.qualifier + "." + col.name;
      node->schema.push_back(std::move(col));
    }
    for (size_t i = 0; i < specs.size(); ++i) {
      RowSet::Col col;
      col.name = "#agg" + std::to_string(i);
      (*rewrites)[specs[i].key] = col.name;
      node->schema.push_back(std::move(col));
    }
    node->aggs = std::move(specs);
    node->num_visible = 0;
    node->children.push_back(std::move(child));
    return node;
  }

  std::shared_ptr<PlanNode> MakeWindow(
      const std::vector<const Expr*>& window_nodes,
      std::shared_ptr<PlanNode> child,
      std::map<std::string, std::string>* rewrites) {
    auto node = std::make_shared<PlanNode>();
    node->kind = PlanKind::kWindow;
    node->schema = child->schema;
    node->num_visible = child->num_visible;
    for (size_t w = 0; w < window_nodes.size(); ++w) {
      const Expr& e = *window_nodes[w];
      PlanWindowFn fn;
      fn.fn = ResolveAggFn(e.name);
      fn.star =
          !e.children.empty() && e.children[0]->tag == Expr::Tag::kStar;
      if (!fn.star && !e.children.empty()) {
        fn.arg = Own(RewriteExpr(*e.children[0], *rewrites));
      }
      for (const auto& p : e.partition_by) {
        fn.partition_by.push_back(Own(RewriteExpr(*p, *rewrites)));
      }
      for (const auto& o : e.order_by) {
        fn.order_by.push_back(Own(RewriteExpr(*o, *rewrites)));
      }
      fn.order_desc = e.order_desc;
      fn.out_col = "#win" + std::to_string(w);
      (*rewrites)[ExprToString(e)] = fn.out_col;
      RowSet::Col col;
      col.name = fn.out_col;
      node->schema.push_back(std::move(col));
      node->windows.push_back(std::move(fn));
    }
    node->children.push_back(std::move(child));
    return node;
  }

  void PruneColumns(const SelectStmt& stmt, const std::string& qualifier,
                    EngineTable* table, std::vector<int>* needed,
                    std::vector<RowSet::Col>* out_cols) {
    // Column pruning: a column is needed if any reference in the statement
    // can resolve to it through this alias.
    std::vector<const Expr*> refs;
    CollectStmtColumnRefs(stmt, &refs);
    std::unordered_set<std::string> added;
    for (const Expr* ref : refs) {
      if (!ref->qualifier.empty() &&
          !EqualsIgnoreCase(ref->qualifier, qualifier)) {
        continue;
      }
      int idx = table->ColumnIndex(ToLower(ref->name));
      if (idx < 0) continue;
      std::string key = ToLower(ref->name);
      if (!added.insert(key).second) continue;
      needed->push_back(idx);
      out_cols->push_back(
          RowSet::Col{qualifier,
                      table->column_meta(static_cast<size_t>(idx)).name});
    }
  }

  Result<std::shared_ptr<PlanNode>> MakeScan(
      const SelectStmt& stmt, const FromItem& item,
      const std::vector<const Expr*>& conjuncts,
      std::vector<bool>* consumed) {
    EngineTable* table = facade_->FindTable(ToLower(item.table_name));
    if (table == nullptr) {
      return Status::NotFound("unknown table: " + item.table_name);
    }
    std::string qualifier =
        item.alias.empty() ? item.table_name : item.alias;
    auto node = std::make_shared<PlanNode>();
    node->kind = PlanKind::kScan;
    node->table_name = ToLower(item.table_name);
    node->alias = item.alias;
    PruneColumns(stmt, qualifier, table, &node->scan_cols, &node->schema);

    // Local filter pushdown: conjuncts fully resolvable against this scan
    // (and without subqueries, which the scan scope can't evaluate lazily).
    RowSet scope = ScopeOf(*node);
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if ((*consumed)[i]) continue;
      if (ExprHasSubquery(*conjuncts[i])) continue;
      if (ContainsAggregate(*conjuncts[i]) ||
          ContainsWindow(*conjuncts[i])) {
        continue;
      }
      if (!ResolvableIn(*conjuncts[i], scope)) continue;
      node->predicates.push_back(conjuncts[i]);
      (*consumed)[i] = true;
    }

    // Split the pushed filters into typed kernels (evaluated on the raw
    // storage vectors) and residuals that keep the generic expr_eval path.
    // `predicates` stays intact for EXPLAIN labels.
    for (const Expr* pred : node->predicates) {
      if (!CompileScanKernel(*pred, scope, *table, node->scan_cols,
                             &node->kernels)) {
        node->residual_predicates.push_back(pred);
      }
    }
    return node;
  }

  Result<std::shared_ptr<PlanNode>> BuildFromItem(
      const SelectStmt& stmt, const FromItem& item,
      const std::vector<const Expr*>& conjuncts,
      std::vector<bool>* consumed) {
    std::string qualifier =
        item.alias.empty() ? item.table_name : item.alias;
    std::shared_ptr<PlanNode> node;
    if (item.derived != nullptr) {
      TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<PlanNode> child,
                             PlanSelectCore(*item.derived));
      node = std::make_shared<PlanNode>();
      node->kind = PlanKind::kDerived;
      node->qualifier = qualifier;
      node->schema = child->schema;
      node->num_visible = child->num_visible;
      node->children.push_back(std::move(child));
    } else {
      auto cte = plan_->cte_schemas.find(ToLower(item.table_name));
      if (cte != plan_->cte_schemas.end()) {
        node = std::make_shared<PlanNode>();
        node->kind = PlanKind::kCteRef;
        node->cte_name = ToLower(item.table_name);
        node->qualifier = qualifier;
        node->schema = cte->second;
        node->num_visible = 0;
      } else {
        return MakeScan(stmt, item, conjuncts, consumed);
      }
    }
    // Re-qualify derived/CTE output under the FROM alias.
    for (RowSet::Col& c : node->schema) c.qualifier = qualifier;
    // Push applicable filters (post-materialisation).
    RowSet scope = ScopeOf(*node);
    std::vector<const Expr*> post;
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if ((*consumed)[i]) continue;
      if (ExprHasSubquery(*conjuncts[i])) continue;
      if (!ResolvableIn(*conjuncts[i], scope)) continue;
      post.push_back(conjuncts[i]);
      (*consumed)[i] = true;
    }
    if (!post.empty()) node = MakeFilter(std::move(node), std::move(post));
    return node;
  }

  std::shared_ptr<PlanNode> MakeHashJoin(
      std::shared_ptr<PlanNode> left, std::shared_ptr<PlanNode> right,
      const std::vector<const Expr*>& join_conjuncts, bool left_outer) {
    auto node = std::make_shared<PlanNode>();
    node->kind = PlanKind::kHashJoin;
    node->left_outer = left_outer;
    RowSet lscope = ScopeOf(*left);
    RowSet rscope = ScopeOf(*right);
    for (const Expr* c : join_conjuncts) {
      auto [l, r] = SplitEquality(*c, lscope, rscope);
      if (l != nullptr) {
        node->equi.push_back(PlanEquiKey{l, r});
      } else {
        node->residual.push_back(c);
      }
    }
    node->schema = left->schema;
    node->schema.insert(node->schema.end(), right->schema.begin(),
                        right->schema.end());
    node->num_visible = 0;
    node->children.push_back(std::move(left));
    node->children.push_back(std::move(right));
    return node;
  }

  /// The storage column `e` names when it is a plain reference to an
  /// integer or identifier column of base-table scan `node`; -1 otherwise.
  int IntKeyColumn(const PlanNode& node, const Expr& e) const {
    if (node.kind != PlanKind::kScan || e.tag != Expr::Tag::kColumnRef) {
      return -1;
    }
    Result<int> slot = ScopeOf(node).Resolve(e.qualifier, e.name);
    if (!slot.ok()) return -1;
    int col = node.scan_cols[static_cast<size_t>(*slot)];
    ColumnType type = facade_->FindTable(node.table_name)
                          ->column_meta(static_cast<size_t>(col))
                          .type;
    return type == ColumnType::kIdentifier || type == ColumnType::kInteger
               ? col
               : -1;
  }

  /// How an index join probes FROM entry t: `key` over the earlier inputs
  /// looked up in the hash index on storage column `col`. key == nullptr:
  /// the entry is scanned and hash-joined.
  struct IndexProbe {
    const Expr* key = nullptr;
    int col = -1;
  };

  /// Index joins (paper §2.1's third DSS access path). FROM entry t > 0 is
  /// never scanned but probed through its hash index when it is a
  /// comma-joined base table whose scan took no pushed filter, and the
  /// conjuncts joining it to inputs 0..t-1 are exactly one equality
  /// between integer/identifier columns of base tables on both sides (so
  /// the probe value is the stored integer itself). The equality is
  /// consumed: the index join implements it.
  std::vector<IndexProbe> ChooseIndexJoins(
      const SelectStmt& stmt,
      const std::vector<std::shared_ptr<PlanNode>>& inputs,
      const std::vector<const Expr*>& conjuncts,
      std::vector<bool>* consumed) const {
    std::vector<IndexProbe> probes(inputs.size());
    RowSet earlier = ScopeOf(*inputs[0]);
    for (size_t t = 1; t < inputs.size(); ++t) {
      const PlanNode& node = *inputs[t];
      RowSet own = ScopeOf(node);
      RowSet combined = earlier;
      combined.cols.insert(combined.cols.end(), own.cols.begin(),
                           own.cols.end());
      if (stmt.from_items[t].join_kind == FromItem::JoinKind::kComma &&
          node.kind == PlanKind::kScan && node.predicates.empty()) {
        // The conjuncts that join entry t to the earlier inputs.
        std::vector<size_t> joining;
        for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
          const Expr& c = *conjuncts[ci];
          if ((*consumed)[ci] || ExprHasSubquery(c)) continue;
          if (ResolvableIn(c, combined) && !ResolvableIn(c, earlier)) {
            joining.push_back(ci);
          }
        }
        auto [key, own_key] =
            joining.size() == 1
                ? SplitEquality(*conjuncts[joining[0]], earlier, own)
                : std::pair<const Expr*, const Expr*>{nullptr, nullptr};
        int col = own_key == nullptr ? -1 : IntKeyColumn(node, *own_key);
        if (col >= 0 &&
            std::any_of(inputs.begin(), inputs.begin() + t,
                        [&, key = key](const auto& in) {
                          return IntKeyColumn(*in, *key) >= 0;
                        })) {
          probes[t] = IndexProbe{key, col};
          (*consumed)[joining[0]] = true;
        }
      }
      earlier = std::move(combined);
    }
    return probes;
  }

  Result<std::shared_ptr<PlanNode>> PlanFrom(const SelectStmt& stmt);

  const DataFacade* facade_;
  PlannerOptions options_;
  PhysicalPlan* plan_;
};

Result<std::shared_ptr<PlanNode>> Planner::PlanFrom(const SelectStmt& stmt) {
  if (stmt.from_items.empty()) {
    return Status::InvalidArgument("SELECT requires a FROM clause");
  }
  std::vector<const Expr*> conjuncts;
  FlattenConjuncts(stmt.where.get(), &conjuncts);
  std::vector<bool> consumed(conjuncts.size(), false);

  // Plan every FROM item (filters pushed down per table).
  std::vector<std::shared_ptr<PlanNode>> inputs;
  inputs.reserve(stmt.from_items.size());
  for (const FromItem& item : stmt.from_items) {
    TPCDS_ASSIGN_OR_RETURN(std::shared_ptr<PlanNode> node,
                           BuildFromItem(stmt, item, conjuncts, &consumed));
    inputs.push_back(std::move(node));
  }
  std::vector<IndexProbe> probes =
      ChooseIndexJoins(stmt, inputs, conjuncts, &consumed);

  // Star transformation (semi-join reduction): restrict the first table by
  // every later comma-joined input that equi-joins it on a single key
  // pair, chained in FROM order. The dimension node is shared between the
  // semi-join and the final hash join, so it is marked for memoisation and
  // scanned once.
  if (options_.star_transformation && inputs.size() > 2) {
    RowSet fact_scope = ScopeOf(*inputs[0]);
    std::shared_ptr<PlanNode> fact = inputs[0];
    for (size_t t = 1; t < stmt.from_items.size(); ++t) {
      if (probes[t].key != nullptr) continue;  // never scanned
      if (stmt.from_items[t].join_kind != FromItem::JoinKind::kComma) {
        continue;
      }
      // One reduction per dimension: the first unconsumed equi conjunct
      // fact.col = dim.col.
      RowSet dim_scope = ScopeOf(*inputs[t]);
      for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
        if (consumed[ci]) continue;
        auto [fact_side, dim_side] =
            SplitEquality(*conjuncts[ci], fact_scope, dim_scope);
        if (fact_side == nullptr) continue;
        inputs[t]->memoize = true;
        auto semi = std::make_shared<PlanNode>();
        semi->kind = PlanKind::kSemiJoinReduce;
        semi->fact_key = fact_side;
        semi->dim_key = dim_side;
        semi->schema = fact->schema;
        semi->num_visible = fact->num_visible;
        semi->children.push_back(std::move(fact));
        semi->children.push_back(inputs[t]);
        fact = std::move(semi);
        // The conjunct stays unconsumed: the hash join still needs it to
        // pair fact rows with the right dimension rows.
        break;
      }
    }
    inputs[0] = std::move(fact);
  }

  // Left-deep join pipeline in FROM order.
  std::shared_ptr<PlanNode> current = inputs[0];
  for (size_t t = 1; t < stmt.from_items.size(); ++t) {
    const FromItem& item = stmt.from_items[t];
    if (probes[t].key != nullptr) {
      const PlanNode& scan = *inputs[t];
      auto node = std::make_shared<PlanNode>();
      node->kind = PlanKind::kIndexJoin;
      node->table_name = scan.table_name;
      node->scan_cols = scan.scan_cols;
      node->index_col = probes[t].col;
      node->probe_key = probes[t].key;
      node->schema = current->schema;
      node->schema.insert(node->schema.end(), scan.schema.begin(),
                          scan.schema.end());
      node->num_visible = 0;
      node->children.push_back(std::move(current));
      current = std::move(node);
      continue;
    }
    std::vector<const Expr*> join_conjuncts;
    if (item.join_kind == FromItem::JoinKind::kComma) {
      // WHERE conjuncts that span exactly the current scope + this table.
      RowSet combined_scope;
      combined_scope.cols = current->schema;
      combined_scope.cols.insert(combined_scope.cols.end(),
                                 inputs[t]->schema.begin(),
                                 inputs[t]->schema.end());
      for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
        if (consumed[ci]) continue;
        if (ExprHasSubquery(*conjuncts[ci])) continue;
        if (ResolvableIn(*conjuncts[ci], combined_scope)) {
          join_conjuncts.push_back(conjuncts[ci]);
          consumed[ci] = true;
        }
      }
      current = MakeHashJoin(std::move(current), inputs[t], join_conjuncts,
                             false);
    } else {
      std::vector<const Expr*> on_conjuncts;
      FlattenConjuncts(item.join_condition.get(), &on_conjuncts);
      current = MakeHashJoin(std::move(current), inputs[t], on_conjuncts,
                             item.join_kind == FromItem::JoinKind::kLeft);
    }
  }

  // Residual WHERE conjuncts (subqueries, cross-scope ORs, ...).
  std::vector<const Expr*> residual;
  for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
    if (!consumed[ci]) residual.push_back(conjuncts[ci]);
  }
  if (!residual.empty()) {
    current = MakeFilter(std::move(current), std::move(residual));
  }
  return current;
}

}  // namespace

std::string PlanNodeLabel(const PlanNode& node) {
  switch (node.kind) {
    case PlanKind::kScan: {
      std::string label =
          StringPrintf("scan %s%s%s: %zu cols, %zu pushed filters",
                       node.table_name.c_str(),
                       node.alias.empty() ? "" : " as ", node.alias.c_str(),
                       node.scan_cols.size(), node.predicates.size());
      if (!node.kernels.empty()) {
        label += StringPrintf(" (%zu kernels, %zu residual)",
                              node.kernels.size(),
                              node.residual_predicates.size());
      }
      return label;
    }
    case PlanKind::kCteRef:
      return StringPrintf("cte %s as %s", node.cte_name.c_str(),
                          node.qualifier.c_str());
    case PlanKind::kDerived:
      return StringPrintf("derived %s", node.qualifier.c_str());
    case PlanKind::kIndexJoin:
      return StringPrintf("index join %s (no scan)",
                          node.table_name.c_str());
    case PlanKind::kSemiJoinReduce:
      return StringPrintf("star semi-join on %s",
                          ExprToString(*node.fact_key).c_str());
    case PlanKind::kHashJoin:
      return StringPrintf(
          "%s%s: %zu equi keys, %zu residual",
          node.equi.empty() ? "nested-loop join" : "hash join",
          node.left_outer ? " (left outer)" : "", node.equi.size(),
          node.residual.size());
    case PlanKind::kFilter:
      return StringPrintf("filter: %zu predicates",
                          node.predicates.size());
    case PlanKind::kAggregate:
      return StringPrintf("aggregate%s: %zu keys, %zu aggregates",
                          node.rollup ? " (rollup)" : "",
                          node.group_by.size(), node.aggs.size());
    case PlanKind::kWindow:
      return StringPrintf("window: %zu functions", node.windows.size());
    case PlanKind::kProject:
      return StringPrintf("project: %zu columns", node.projections.size());
    case PlanKind::kDistinct:
      return "distinct";
    case PlanKind::kSort:
      return StringPrintf("sort: %zu keys", node.sort_keys.size());
    case PlanKind::kTopK:
      return StringPrintf("top-k: %zu keys, limit %lld",
                          node.sort_keys.size(),
                          static_cast<long long>(node.limit));
    case PlanKind::kLimit:
      return StringPrintf("limit %lld",
                          static_cast<long long>(node.limit));
    case PlanKind::kTruncate:
      return "truncate";
    case PlanKind::kSetOp:
      return StringPrintf("set op: %zu branches", node.set_kinds.size());
  }
  return "?";
}

Result<PhysicalPlan> BuildPlan(const DataFacade* facade,
                               const SelectStmt& stmt,
                               const PlannerOptions& options) {
  PhysicalPlan plan;
  Planner planner(facade, options, &plan);
  TPCDS_RETURN_NOT_OK(planner.PlanStatement(stmt));
  return plan;
}

Result<PhysicalPlan> BuildSubqueryPlan(
    const DataFacade* facade, const SelectStmt& stmt,
    const PlannerOptions& options,
    const std::map<std::string, std::vector<RowSet::Col>>& cte_schemas) {
  PhysicalPlan plan;
  plan.cte_schemas = cte_schemas;
  Planner planner(facade, options, &plan);
  TPCDS_ASSIGN_OR_RETURN(plan.root, planner.PlanSelectCore(stmt));
  return plan;
}

}  // namespace tpcds
