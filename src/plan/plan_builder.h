#ifndef UOT_PLAN_PLAN_BUILDER_H_
#define UOT_PLAN_PLAN_BUILDER_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "operators/aggregate_operator.h"
#include "operators/build_hash_operator.h"
#include "operators/exchange_operator.h"
#include "operators/probe_hash_operator.h"
#include "operators/select_operator.h"
#include "operators/sort_operator.h"
#include "plan/query_plan.h"

namespace uot {

/// Plan-construction knobs shared by all benchmark plan builders.
struct PlanBuilderConfig {
  /// Block size of temporary (intermediate) tables.
  size_t block_bytes = 1 << 20;
  /// Join hash-table load factor (the model's `f`).
  double load_factor = 0.75;
  /// Attach LIP Bloom filters (Zhu et al. [42]) from selective hash-table
  /// builds to probe-side selections — the paper's selectivity-lowering
  /// technique (Section VI-C). Results are unchanged; intermediates
  /// shrink.
  bool use_lip = false;
  /// Radix-partition every hash join: when > 0, Build() and Probe() wrap
  /// their inputs in an ExchangeOperator keyed on the join keys, splitting
  /// each join into 2^join_radix_bits independent partition sub-joins
  /// (ROADMAP item 2). 0 (the default) keeps the single shared-table
  /// shape. Results are byte-identical either way.
  int join_radix_bits = 0;
};

/// Wires operators, temp tables, destinations and edges so per-query plan
/// builders read like logical plans. Used by the TPC-H and SSB substrates
/// and usable for ad-hoc plans in examples/tests.
class PlanBuilder {
 public:
  /// Temporary tables use the row-store format irrespective of the base
  /// tables (paper Section IV-B).
  static constexpr Layout kTempLayout = Layout::kRowStore;

  PlanBuilder(StorageManager* storage, const PlanBuilderConfig& config)
      : storage_(storage),
        config_(config),
        plan_(std::make_unique<QueryPlan>(storage)) {}

  /// A data source: a base table (op < 0) or an operator's output stream.
  struct Src {
    int op = -1;
    const Table* table = nullptr;
    Table* temp = nullptr;  // non-null for operator outputs
  };

  static Src Base(const Table& table) { return Src{-1, &table, nullptr}; }

  const Schema& SchemaOf(const Src& src) const { return src.table->schema(); }

  /// `lip` lists (build op, input column) pairs whose Bloom filters prune
  /// this selection (only applied when the config enables LIP).
  Src Select(const std::string& name, const Src& in,
             std::unique_ptr<Predicate> pred,
             std::unique_ptr<Projection> proj,
             std::vector<std::pair<BuildHashOperator*, int>> lip = {}) {
    Table* out =
        plan_->CreateTempTable(name + ".out", proj->output_schema(),
                               kTempLayout, config_.block_bytes);
    InsertDestination* dest = plan_->CreateDestination(out);
    auto op = std::make_unique<SelectOperator>(name, std::move(pred),
                                               std::move(proj), dest);
    SelectOperator* raw = op.get();
    const int idx = plan_->AddOperator(std::move(op));
    plan_->RegisterOutput(idx, dest);
    Attach(in, idx, [raw](const Table* t) { raw->AttachBaseTable(t); });
    if (config_.use_lip) {
      for (const auto& [build, col] : lip) {
        build->EnableLipFilter();
        raw->AddLipFilter(build, col);
        plan_->AddBlockingEdge(build_index_.at(build), idx);
      }
    }
    return Src{idx, out, out};
  }

  /// Hash-repartitions `in` into 2^radix_bits partitions keyed on
  /// `key_cols` — the explicit exchange/repartition edge. The returned Src
  /// carries the same schema (rows pass through unchanged, tagged by
  /// partition); feeding it to Build/Probe keyed on the same columns makes
  /// the join run per partition.
  Src Exchange(const std::string& name, const Src& in,
               std::vector<int> key_cols, int radix_bits) {
    Table* out = plan_->CreateTempTable(name + ".out", SchemaOf(in),
                                        kTempLayout, config_.block_bytes);
    const uint32_t parts = NumPartitions(radix_bits);
    std::vector<InsertDestination*> dests;
    dests.reserve(parts);
    for (uint32_t p = 0; p < parts; ++p) {
      InsertDestination* d = plan_->CreateDestination(out);
      d->set_partition(static_cast<int32_t>(p));
      dests.push_back(d);
    }
    auto op = std::make_unique<ExchangeOperator>(name, std::move(key_cols),
                                                 radix_bits, dests);
    ExchangeOperator* raw = op.get();
    const int idx = plan_->AddOperator(std::move(op));
    for (InsertDestination* d : dests) plan_->RegisterOutput(idx, d);
    Attach(in, idx, [raw](const Table* t) { raw->AttachBaseTable(t); });
    return Src{idx, out, out};
  }

  /// Returns the build operator (probe operators reference it).
  /// `radix_bits` -1 defers to config_.join_radix_bits; > 0 wraps the
  /// input in an Exchange keyed on `key_cols` (unless `in` already is an
  /// exchange, whose radix then wins) and builds per-partition sub-tables.
  BuildHashOperator* Build(const std::string& name, const Src& in,
                           std::vector<int> key_cols,
                           std::vector<int> payload_cols,
                           int radix_bits = -1) {
    if (radix_bits < 0) radix_bits = config_.join_radix_bits;
    Src input = in;
    if (IsExchange(in.op)) {
      radix_bits = ExchangeRadixBits(in.op);
    } else if (radix_bits > 0) {
      input = Exchange(name + ".xchg", in, key_cols, radix_bits);
    }
    auto op = std::make_unique<BuildHashOperator>(
        name, std::move(key_cols), std::move(payload_cols),
        config_.load_factor, &storage_->tracker(), radix_bits);
    BuildHashOperator* raw = op.get();
    raw->InitHashTable(SchemaOf(input));
    const int idx = plan_->AddOperator(std::move(op));
    build_index_[raw] = idx;
    Attach(input, idx, [raw](const Table* t) { raw->AttachBaseTable(t); });
    return raw;
  }

  Src Probe(const std::string& name, const Src& in, BuildHashOperator* build,
            std::vector<int> key_cols, std::vector<int> out_cols,
            JoinKind kind = JoinKind::kInner,
            std::vector<ResidualCondition> residuals = {}) {
    // A partitioned build needs a matching partitioned probe input: wrap
    // it in an exchange keyed on the probe keys at the build's radix (the
    // same hash routes matching keys of both sides to the same partition).
    Src input = in;
    if (build->radix_bits() > 0 && !IsExchange(in.op)) {
      input = Exchange(name + ".xchg", in, key_cols, build->radix_bits());
    }
    std::vector<int> payload_cols;
    const Schema& payload = build->hash_table()->payload_schema();
    for (int c = 0; c < payload.num_columns(); ++c) payload_cols.push_back(c);
    Schema out_schema = ProbeHashOperator::OutputSchema(
        SchemaOf(input), out_cols, payload, payload_cols, kind);
    Table* out =
        plan_->CreateTempTable(name + ".out", std::move(out_schema),
                               kTempLayout, config_.block_bytes);
    InsertDestination* dest = plan_->CreateDestination(out);
    auto op = std::make_unique<ProbeHashOperator>(
        name, build, std::move(key_cols), std::move(out_cols), kind,
        std::move(residuals), dest);
    ProbeHashOperator* raw = op.get();
    const int idx = plan_->AddOperator(std::move(op));
    plan_->RegisterOutput(idx, dest);
    plan_->AddBlockingEdge(build_index_.at(build), idx);
    Attach(input, idx, [raw](const Table* t) { raw->AttachBaseTable(t); });
    return Src{idx, out, out};
  }

  Src Aggregate(const std::string& name, const Src& in,
                std::vector<int> group_cols, std::vector<AggSpec> aggs,
                std::unique_ptr<Predicate> pred = nullptr) {
    Schema out_schema =
        AggregateOperator::OutputSchema(SchemaOf(in), group_cols, aggs);
    Table* out =
        plan_->CreateTempTable(name + ".out", std::move(out_schema),
                               kTempLayout, config_.block_bytes);
    InsertDestination* dest = plan_->CreateDestination(out);
    auto op = std::make_unique<AggregateOperator>(
        name, SchemaOf(in), std::move(group_cols), std::move(aggs),
        std::move(pred), dest, &storage_->tracker());
    AggregateOperator* raw = op.get();
    const int idx = plan_->AddOperator(std::move(op));
    plan_->RegisterOutput(idx, dest);
    Attach(in, idx, [raw](const Table* t) { raw->AttachBaseTable(t); });
    return Src{idx, out, out};
  }

  Src Sort(const std::string& name, const Src& in, std::vector<SortKey> keys,
           uint64_t limit = 0) {
    Table* out = plan_->CreateTempTable("sort.out", SchemaOf(in),
                                        kTempLayout, config_.block_bytes);
    InsertDestination* dest = plan_->CreateDestination(out);
    auto op = std::make_unique<SortOperator>(name, SchemaOf(in),
                                             std::move(keys), dest,
                                             &storage_->tracker(), limit);
    SortOperator* raw = op.get();
    const int idx = plan_->AddOperator(std::move(op));
    plan_->RegisterOutput(idx, dest);
    Attach(in, idx, [raw](const Table* t) { raw->AttachBaseTable(t); });
    return Src{idx, out, out};
  }

  /// Pins the streaming edge `producer` -> `consumer` (wired earlier by a
  /// Select/Probe/Aggregate/Sort call whose input was `producer`) to a
  /// fixed UoT, overriding the session's policy for that edge.
  PlanBuilder& AnnotateEdgeUot(const Src& producer, const Src& consumer,
                               UotPolicy uot) {
    const int edge = plan_->FindStreamingEdge(producer.op, consumer.op);
    UOT_CHECK(edge >= 0);  // no streaming edge between these operators
    plan_->AnnotateEdgeUot(edge, uot);
    return *this;
  }

  /// Same, for an edge feeding a hash-table build operator.
  PlanBuilder& AnnotateEdgeUot(const Src& producer,
                               const BuildHashOperator* build, UotPolicy uot) {
    const int edge =
        plan_->FindStreamingEdge(producer.op, build_index_.at(build));
    UOT_CHECK(edge >= 0);  // no streaming edge between these operators
    plan_->AnnotateEdgeUot(edge, uot);
    return *this;
  }

  /// Annotates the linear chain of operators `stages` (in pipeline order,
  /// each the streaming input of the next) as one fused pipeline. The
  /// fused::PipelineFuser pass detects such chains automatically at
  /// session start; this helper is for builders/tests that want the
  /// annotation explicit (it shows in QueryPlan::ToString).
  PlanBuilder& AnnotateFusedPipeline(const std::vector<Src>& stages) {
    std::vector<int> ops;
    ops.reserve(stages.size());
    for (const Src& s : stages) {
      UOT_CHECK(s.op >= 0);  // base tables are inputs, not stages
      ops.push_back(s.op);
    }
    plan_->AnnotateFusedPipeline(std::move(ops));
    return *this;
  }

  std::unique_ptr<QueryPlan> Finish(const Src& result) {
    UOT_CHECK(result.temp != nullptr);
    plan_->SetResultTable(result.temp);
    return std::move(plan_);
  }

 private:
  template <typename AttachFn>
  void Attach(const Src& in, int consumer, AttachFn&& attach_base) {
    if (in.op < 0) {
      attach_base(in.table);
    } else {
      // Edges out of an exchange operator carry the repartition tag so
      // policies and profiles can treat them differently from pipeline
      // edges.
      plan_->AddStreamingEdge(in.op, consumer, 0,
                              IsExchange(in.op)
                                  ? QueryPlan::EdgeKind::kExchange
                                  : QueryPlan::EdgeKind::kPipeline);
    }
  }

  bool IsExchange(int op) const {
    return op >= 0 &&
           dynamic_cast<const ExchangeOperator*>(plan_->op(op)) != nullptr;
  }

  int ExchangeRadixBits(int op) const {
    return dynamic_cast<const ExchangeOperator*>(plan_->op(op))->radix_bits();
  }

  StorageManager* const storage_;
  const PlanBuilderConfig config_;
  std::unique_ptr<QueryPlan> plan_;
  std::map<const BuildHashOperator*, int> build_index_;
};

}  // namespace uot

#endif  // UOT_PLAN_PLAN_BUILDER_H_
