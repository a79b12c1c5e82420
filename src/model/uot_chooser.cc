#include "model/uot_chooser.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "model/memory_model.h"

namespace uot {

std::string UotChoice::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s (%s, %.0f B/transfer, cost %.0f ns)",
                uot.ToString().c_str(), reason, uot_bytes, chosen_cost_ns);
  return buf;
}

CostModelUotChooser::CostModelUotChooser(Options options)
    : options_(options), model_(options.cost_params) {
  UOT_CHECK(options_.threads >= 1);
}

std::string RadixChoice::ToString() const {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "radix_bits=%d (%s, table %.0f B, sub %.0f B, "
                "repartition %.0f ns vs saved %.0f ns)",
                radix_bits, reason, table_bytes, sub_table_bytes,
                repartition_cost_ns, saved_cost_ns);
  return buf;
}

UotChoice CostModelUotChooser::ChooseEdge(const EdgeEstimate& estimate,
                                          size_t block_bytes,
                                          bool exchange_edge) const {
  UOT_CHECK(block_bytes > 0);
  UotChoice choice;

  // How many blocks the producer will emit under this estimate. An edge
  // estimated empty carries no data either way: 1-block pipelining is the
  // no-risk default (no buffering, no materialized footprint).
  const double est_bytes = estimate.bytes();
  const uint64_t est_blocks = static_cast<uint64_t>(std::max(
      1.0, std::ceil(est_bytes / static_cast<double>(block_bytes))));

  // Section VI: materializing holds the whole sigma live (the high-UoT
  // overhead of a one-edge cascade); a k-block UoT holds only the granule.
  choice.materialized_bytes =
      MemoryModel::LeafJoinCascade({}, est_bytes).high_uot_overhead_bytes;
  choice.materializing_cost_ns = model_.NonPipeliningExtraCost(
      est_blocks, static_cast<double>(block_bytes));

  choice.est_rows = estimate.rows;
  choice.est_bytes = static_cast<uint64_t>(std::max(0.0, est_bytes));
  choice.est_blocks = est_blocks;

  // The budget cap on one edge's live transfer granule.
  const double cap =
      options_.memory_budget_bytes > 0
          ? kBudgetCapFraction *
                static_cast<double>(options_.memory_budget_bytes)
          : 0.0;

  // Candidates 1, 2, 4, ... blocks: Section V pipelining cost at UoT size
  // k * block_bytes over ceil(est_blocks / k) transfers.
  double best_cost = 0.0;
  uint64_t best_k = 0;
  bool capped = false;
  for (uint64_t k = 1; k <= kMaxBlocks; k *= 2) {
    const double uot_bytes = static_cast<double>(k * block_bytes);
    if (cap > 0.0 && uot_bytes > cap && k > 1) {
      capped = true;  // larger granules would breach the per-edge cap
      break;
    }
    const uint64_t num_uots = (est_blocks + k - 1) / k;
    const double cost =
        model_.PipeliningExtraCost(num_uots, uot_bytes, options_.threads);
    if (best_k == 0 || cost < best_cost) {
      best_cost = cost;
      best_k = k;
    }
    if (k >= est_blocks) break;  // larger k's behave like whole-table
  }

  // Whole-table competes only when its materialized footprint fits under
  // the cap (Section VI is the constraint, Section V the objective) and
  // the edge is not an exchange: materializing a repartition input stalls
  // every partition consumer behind the producer's last block, the exact
  // serial barrier the exchange edge exists to dissolve.
  const bool whole_allowed =
      !exchange_edge && (cap <= 0.0 || choice.materialized_bytes <= cap);
  if (whole_allowed && choice.materializing_cost_ns < best_cost) {
    choice.uot = UotPolicy::HighUot();
    choice.uot_bytes = est_bytes;
    choice.chosen_cost_ns = choice.materializing_cost_ns;
    choice.reason = "cost-model";
    choice.predicted_transfers = 1;
    choice.predicted_footprint_bytes =
        static_cast<uint64_t>(std::max(0.0, choice.materialized_bytes));
    return choice;
  }

  choice.uot = UotPolicy::LowUot(best_k);
  choice.uot_bytes = static_cast<double>(best_k * block_bytes);
  choice.chosen_cost_ns = best_cost;
  choice.predicted_transfers = (est_blocks + best_k - 1) / best_k;
  choice.predicted_footprint_bytes = static_cast<uint64_t>(
      std::min(choice.uot_bytes, std::max(0.0, est_bytes)));
  if (exchange_edge && choice.materializing_cost_ns < best_cost) {
    // Whole-table would have won on cost but is ineligible on an
    // exchange edge.
    choice.reason = "exchange";
  } else {
    choice.reason =
        (capped || (!whole_allowed &&
                    choice.materializing_cost_ns < best_cost))
            ? "memory-cap"
            : "cost-model";
  }
  return choice;
}

RadixChoice CostModelUotChooser::ChooseRadixBits(
    const EdgeEstimate& build_estimate, const EdgeEstimate& probe_estimate,
    size_t slot_bytes, double load_factor, int max_radix_bits) const {
  UOT_CHECK(slot_bytes > 0);
  UOT_CHECK(load_factor > 0.0 && load_factor <= 1.0);
  UOT_CHECK(max_radix_bits >= 1 && max_radix_bits <= 16);
  RadixChoice choice;
  choice.table_bytes = static_cast<double>(build_estimate.rows) *
                       static_cast<double>(slot_bytes) / load_factor;
  choice.sub_table_bytes = choice.table_bytes;
  const double l3 = model_.params().l3_bytes;
  if (choice.table_bytes <= l3) {
    choice.reason = "fits-l3";  // probes are already cache-resident
    return choice;
  }
  // Smallest radix whose sub-tables fit L3 (deepest radix if none does —
  // partial residency still beats none).
  int bits = max_radix_bits;
  for (int r = 1; r <= max_radix_bits; ++r) {
    if (choice.table_bytes / static_cast<double>(1u << r) <= l3) {
      bits = r;
      break;
    }
  }
  const double sub = choice.table_bytes / static_cast<double>(1u << bits);
  // Repartitioning rewrites both inputs once, in ~64 KiB working granules.
  const double granule = 64.0 * 1024.0;
  const double total_bytes = build_estimate.bytes() + probe_estimate.bytes();
  const uint64_t num_uots = static_cast<uint64_t>(
      std::max(1.0, std::ceil(total_bytes / granule)));
  choice.repartition_cost_ns =
      model_.RepartitionExtraCost(num_uots, granule, 1 << bits);
  choice.saved_cost_ns = model_.PartitionedProbeSavings(
      probe_estimate.rows, choice.table_bytes, sub);
  if (choice.repartition_cost_ns >= choice.saved_cost_ns) {
    choice.reason = "small-build";  // the copy costs more than it saves
    return choice;
  }
  choice.radix_bits = bits;
  choice.sub_table_bytes = sub;
  choice.reason = "partition";
  return choice;
}

std::string FusedChoice::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s (%s, fused %.0f ns vs vectorized %.0f ns)",
                fuse ? "fused" : "vectorized", reason, fused_cost_ns,
                vectorized_cost_ns);
  return buf;
}

FusedChoice CostModelUotChooser::ChooseFusedChain(
    const QueryPlan& plan, const std::vector<int>& chain_ops,
    const std::vector<EdgeEstimate>& estimates,
    uint64_t row_group_rows) const {
  UOT_CHECK(chain_ops.size() >= 2);
  UOT_CHECK(estimates.size() == plan.streaming_edges().size());
  UOT_CHECK(row_group_rows >= 1);
  FusedChoice choice;
  std::vector<uint64_t> edge_rows;
  edge_rows.reserve(chain_ops.size() - 1);
  for (size_t i = 0; i + 1 < chain_ops.size(); ++i) {
    const int edge = plan.FindStreamingEdge(chain_ops[i], chain_ops[i + 1]);
    UOT_CHECK(edge >= 0);  // not a chain of this plan
    const EdgeEstimate& est = estimates[static_cast<size_t>(edge)];
    const QueryPlan::StreamingEdge& e =
        plan.streaming_edges()[static_cast<size_t>(edge)];
    const InsertDestination* dest = plan.destination_of(e.producer);
    const size_t block_bytes =
        dest != nullptr ? dest->output()->block_bytes() : (1u << 20);
    choice.vectorized_cost_ns +=
        ChooseEdge(est, block_bytes,
                   e.kind == QueryPlan::EdgeKind::kExchange)
            .chosen_cost_ns;
    edge_rows.push_back(est.rows);
  }
  choice.fused_cost_ns = model_.FusedChainCost(edge_rows, row_group_rows);
  if (choice.fused_cost_ns < choice.vectorized_cost_ns) {
    choice.fuse = true;
    choice.reason = "fused-cheaper";
  }
  return choice;
}

std::vector<UotChoice> CostModelUotChooser::ChoosePlan(
    const QueryPlan& plan, const std::vector<EdgeEstimate>& estimates) const {
  const auto& edges = plan.streaming_edges();
  UOT_CHECK(estimates.size() == edges.size());
  std::vector<UotChoice> choices;
  choices.reserve(edges.size());
  for (size_t i = 0; i < edges.size(); ++i) {
    const InsertDestination* dest = plan.destination_of(edges[i].producer);
    // Producers without a registered destination (no materialized output
    // table, e.g. hash-table builds) fall back to a 1 MiB granule.
    const size_t block_bytes =
        dest != nullptr ? dest->output()->block_bytes() : (1u << 20);
    choices.push_back(
        ChooseEdge(estimates[i], block_bytes,
                   edges[i].kind == QueryPlan::EdgeKind::kExchange));
  }
  return choices;
}

void CostModelUotChooser::AnnotatePlan(QueryPlan* plan,
                                       const std::vector<UotChoice>& choices) {
  UOT_CHECK(plan != nullptr);
  UOT_CHECK(choices.size() == plan->streaming_edges().size());
  for (size_t i = 0; i < choices.size(); ++i) {
    plan->AnnotateEdgeUot(static_cast<int>(i), choices[i].uot);
  }
  AnnotatePredictions(plan, choices);
}

void CostModelUotChooser::AnnotatePredictions(
    QueryPlan* plan, const std::vector<UotChoice>& choices) {
  UOT_CHECK(plan != nullptr);
  UOT_CHECK(choices.size() == plan->streaming_edges().size());
  for (size_t i = 0; i < choices.size(); ++i) {
    const UotChoice& c = choices[i];
    QueryPlan::EdgePrediction prediction;
    prediction.uot_blocks = c.uot.blocks_per_transfer();
    prediction.est_rows = c.est_rows;
    prediction.est_bytes = c.est_bytes;
    prediction.est_blocks = c.est_blocks;
    prediction.predicted_transfers = c.predicted_transfers;
    prediction.predicted_footprint_bytes = c.predicted_footprint_bytes;
    prediction.predicted_cost_ns = c.chosen_cost_ns;
    prediction.reason = c.reason;
    plan->AnnotateEdgePrediction(static_cast<int>(i), std::move(prediction));
  }
}

std::vector<EdgeEstimate> CostModelUotChooser::EstimatesFromExecutedPlan(
    const QueryPlan& plan) {
  std::vector<EdgeEstimate> estimates;
  for (const QueryPlan::StreamingEdge& e : plan.streaming_edges()) {
    EdgeEstimate est;
    const InsertDestination* dest = plan.destination_of(e.producer);
    if (dest != nullptr) {
      const Table* out = dest->output();
      est.rows = out->NumRows();
      est.row_bytes = static_cast<double>(out->schema().row_width());
    }
    estimates.push_back(est);
  }
  return estimates;
}

}  // namespace uot
