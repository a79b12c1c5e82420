// Differential parity harness for the radix-partitioned hash join: seeded
// randomized join trees execute through {unpartitioned, radix_bits 1..6} x
// {batch 1 without prefetch, default batch + prefetch} x
// {fixed, model-annotated, adaptive UoT} and every configuration must
// produce byte-identical sorted results, with per-edge transfer-count
// invariants holding on every run.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "exec/adaptive_uot_policy.h"
#include "exec/query_executor.h"
#include "model/uot_chooser.h"
#include "operators/build_hash_operator.h"
#include "operators/exchange_operator.h"
#include "plan/query_plan.h"
#include "scheduler/execution_stats.h"
#include "storage/storage_manager.h"
#include "test_util.h"

namespace uot {
namespace {

using ::uot::testing::RandomJoinQuery;

enum class PolicyMode { kFixed, kModel, kAdaptive };

const char* PolicyName(PolicyMode mode) {
  switch (mode) {
    case PolicyMode::kFixed:
      return "fixed";
    case PolicyMode::kModel:
      return "model";
    case PolicyMode::kAdaptive:
      return "adaptive";
  }
  return "?";
}

/// Pins every edge to the cost model's static choice. The estimates are
/// deliberately rough (the harness checks parity, not calibration); what
/// matters is that annotation paths — including the exchange-edge
/// whole-table exclusion — execute on randomized plans.
void AnnotateWithModel(QueryPlan* plan) {
  CostModelUotChooser chooser;
  std::vector<EdgeEstimate> estimates;
  for (size_t i = 0; i < plan->streaming_edges().size(); ++i) {
    EdgeEstimate est;
    est.rows = 512;
    est.row_bytes = 24.0;
    estimates.push_back(est);
  }
  CostModelUotChooser::AnnotatePlan(plan,
                                    chooser.ChoosePlan(*plan, estimates));
}

/// Transfer-count invariants that must hold on every run regardless of
/// partitioning, join knobs or UoT policy.
void CheckTransferInvariants(const QueryPlan& plan,
                             const ExecutionStats& stats, int radix_bits,
                             int num_joins, const std::string& label) {
  ASSERT_EQ(stats.edges.size(), plan.streaming_edges().size()) << label;
  for (size_t e = 0; e < stats.edges.size(); ++e) {
    const EdgeStats& es = stats.edges[e];
    // Every produced block is eventually delivered, exactly once.
    EXPECT_EQ(es.blocks_delivered, es.blocks_produced)
        << label << " edge " << e;
    if (es.blocks_produced > 0) {
      // A transfer carries at least one block and at most all of them.
      EXPECT_GE(es.transfers, 1u) << label << " edge " << e;
      EXPECT_LE(es.transfers, es.blocks_produced) << label << " edge " << e;
    } else {
      EXPECT_EQ(es.transfers, 0u) << label << " edge " << e;
    }
    EXPECT_EQ(es.exchange,
              plan.streaming_edges()[e].kind == QueryPlan::EdgeKind::kExchange)
        << label << " edge " << e;
  }

  // Partitioned plans carry one exchange per join side; unpartitioned
  // plans none.
  if (radix_bits == 0) {
    EXPECT_TRUE(stats.exchanges.empty()) << label;
    return;
  }
  EXPECT_EQ(stats.exchanges.size(), static_cast<size_t>(2 * num_joins))
      << label;
  for (const ExchangeStats& x : stats.exchanges) {
    EXPECT_EQ(x.radix_bits, radix_bits) << label << " " << x.name;
    ASSERT_EQ(x.partition_rows.size(),
              static_cast<size_t>(1) << radix_bits)
        << label << " " << x.name;
    ASSERT_EQ(x.partition_blocks.size(), x.partition_rows.size())
        << label << " " << x.name;
    uint64_t blocks = 0;
    for (size_t p = 0; p < x.partition_rows.size(); ++p) {
      blocks += x.partition_blocks[p];
      if (x.partition_rows[p] == 0) {
        // Lazy writers: empty partitions never check out a block.
        EXPECT_EQ(x.partition_blocks[p], 0u)
            << label << " " << x.name << " part " << p;
      } else {
        EXPECT_GE(x.partition_blocks[p], 1u)
            << label << " " << x.name << " part " << p;
      }
    }
    // Exactly the tagged blocks the exchange completed flow down its edge.
    bool found = false;
    for (size_t e = 0; e < stats.edges.size(); ++e) {
      if (stats.edges[e].producer == x.op) {
        EXPECT_EQ(stats.edges[e].blocks_produced, blocks)
            << label << " " << x.name;
        found = true;
      }
    }
    EXPECT_TRUE(found) << label << " " << x.name << " has no edge";
  }
}

/// Builds per join-table layout over a run's unpartitioned tables.
struct LayoutCounts {
  int hash = 0;
  int dense = 0;
};

std::string RunOnce(StorageManager* storage, const RandomJoinQuery& query,
                    int radix_bits, bool batched, PolicyMode policy,
                    LayoutCounts* layouts = nullptr) {
  const std::string label = query.Description() +
                            " radix=" + std::to_string(radix_bits) +
                            (batched ? " batched " : " batch1 ") +
                            PolicyName(policy);
  std::unique_ptr<QueryPlan> plan = query.MakePlan(storage, radix_bits);
  if (policy == PolicyMode::kModel) AnnotateWithModel(plan.get());

  ExecConfig config;
  config.num_workers = 2;
  config.uot = UotPolicy::LowUot(2);
  if (!batched) {
    // Tuple-at-a-time: the in-engine reference for the batched kernels.
    config.join.batch_size = 1;
    config.join.prefetch_distance = 0;
  }
  if (policy == PolicyMode::kAdaptive) {
    config.uot_policy = std::make_shared<AdaptiveUotPolicy>();
  }
  const ExecutionStats stats = QueryExecutor::Execute(plan.get(), config);
  CheckTransferInvariants(*plan, stats, radix_bits, query.num_joins(),
                          label);
  if (layouts != nullptr) {
    for (int i = 0; i < plan->num_operators(); ++i) {
      const auto* build = dynamic_cast<const BuildHashOperator*>(plan->op(i));
      if (build == nullptr || build->radix_bits() > 0) continue;
      ++(build->hash_table()->dense() ? layouts->dense : layouts->hash);
    }
  }
  return CanonicalRows(*plan->result_table());
}

TEST(PartitionParityTest, SeededRandomPlansAreByteIdenticalAcrossMatrix) {
  const int num_seeds = ::uot::testing::NumFuzzSeeds();
  const PolicyMode kPolicies[] = {PolicyMode::kFixed, PolicyMode::kModel,
                                  PolicyMode::kAdaptive};
  // The unpartitioned runs pick each table's layout from its data; the
  // corpus must exercise both.
  LayoutCounts layouts;
  for (int seed = 0; seed < num_seeds; ++seed) {
    StorageManager storage;
    RandomJoinQuery query(&storage, static_cast<uint64_t>(seed));
    SCOPED_TRACE(query.Description());

    // Reference: unpartitioned, batch 1 without prefetch, fixed UoT.
    const std::string expected =
        RunOnce(&storage, query, 0, false, PolicyMode::kFixed, &layouts);

    // Unpartitioned with the default join knobs and a cycling policy.
    EXPECT_EQ(RunOnce(&storage, query, 0, true,
                      kPolicies[static_cast<size_t>(seed) % 3]),
              expected);

    // One radix depth per seed (cycling through 1..6), against the full
    // {join knobs} x {policy} matrix: over the seed loop every
    // (radix, knobs, policy) combination is exercised many times.
    const int radix_bits = 1 + seed % 6;
    for (bool batched : {false, true}) {
      for (PolicyMode policy : kPolicies) {
        EXPECT_EQ(RunOnce(&storage, query, radix_bits, batched, policy),
                  expected)
            << "radix=" << radix_bits << " batched=" << batched << " "
            << PolicyName(policy);
      }
    }
  }
  EXPECT_GT(layouts.dense, 0);
  EXPECT_GT(layouts.hash, 0);
}

TEST(PartitionParityTest, DeepRadixSweepOnOneSkewedQuery) {
  // One fixed seed chosen for a heavy-hitter key distribution runs the
  // whole radix range 1..6 back to back (the seeded matrix above cycles
  // radix by seed, so this closes the "every radix on one plan" gap).
  StorageManager storage;
  RandomJoinQuery query(&storage, 7);
  SCOPED_TRACE(query.Description());
  const std::string expected =
      RunOnce(&storage, query, 0, false, PolicyMode::kFixed);
  for (int radix_bits = 1; radix_bits <= 6; ++radix_bits) {
    EXPECT_EQ(RunOnce(&storage, query, radix_bits, true,
                      PolicyMode::kAdaptive),
              expected)
        << "radix=" << radix_bits;
  }
}

TEST(PartitionParityTest, ModelAnnotationNeverPinsWholeTableOnExchange) {
  StorageManager storage;
  RandomJoinQuery query(&storage, 11);
  std::unique_ptr<QueryPlan> plan = query.MakePlan(&storage, 3);
  CostModelUotChooser chooser;
  std::vector<EdgeEstimate> estimates;
  for (size_t i = 0; i < plan->streaming_edges().size(); ++i) {
    EdgeEstimate est;
    est.rows = 100000;  // large enough that whole-table wins on pipelines
    est.row_bytes = 24.0;
    estimates.push_back(est);
  }
  const std::vector<UotChoice> choices = chooser.ChoosePlan(*plan, estimates);
  ASSERT_EQ(choices.size(), plan->streaming_edges().size());
  bool saw_exchange = false;
  for (size_t i = 0; i < choices.size(); ++i) {
    if (plan->streaming_edges()[i].kind == QueryPlan::EdgeKind::kExchange) {
      saw_exchange = true;
      EXPECT_FALSE(choices[i].uot.IsWholeTable())
          << "edge " << i << ": materializing an exchange input recreates "
          << "the serial repartition barrier";
    }
  }
  EXPECT_TRUE(saw_exchange);
}

}  // namespace
}  // namespace uot
