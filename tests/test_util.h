#ifndef UOT_TESTS_TEST_UTIL_H_
#define UOT_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "exec/query_executor.h"
#include "expr/expression.h"
#include "expr/predicate.h"
#include "plan/plan_builder.h"
#include "scheduler/execution_stats.h"
#include "storage/storage_manager.h"
#include "storage/table.h"
#include "types/row_builder.h"

namespace uot {
namespace testing {

/// Compares two CanonicalRows() strings field by field, allowing a relative
/// tolerance on numeric fields: parallel aggregation sums are only
/// reproducible up to floating-point merge order, so exact string equality
/// is the wrong comparator for results containing SUM/AVG columns.
inline ::testing::AssertionResult CanonicalRowsNear(
    const std::string& actual, const std::string& expected,
    double rel_tol = 1e-6) {
  std::istringstream sa(actual), se(expected);
  std::string la, le;
  int line_no = 0;
  while (true) {
    const bool ga = static_cast<bool>(std::getline(sa, la));
    const bool ge = static_cast<bool>(std::getline(se, le));
    if (!ga && !ge) return ::testing::AssertionSuccess();
    ++line_no;
    if (ga != ge) {
      return ::testing::AssertionFailure()
             << "row counts differ at line " << line_no;
    }
    std::istringstream fa(la), fe(le);
    std::string va, ve;
    int field = 0;
    while (true) {
      const bool ha = static_cast<bool>(std::getline(fa, va, ','));
      const bool he = static_cast<bool>(std::getline(fe, ve, ','));
      if (!ha && !he) break;
      ++field;
      if (ha != he) {
        return ::testing::AssertionFailure()
               << "field counts differ at line " << line_no;
      }
      if (va == ve) continue;
      char* enda = nullptr;
      char* ende = nullptr;
      const double da = std::strtod(va.c_str(), &enda);
      const double de = std::strtod(ve.c_str(), &ende);
      const bool numeric = enda == va.c_str() + va.size() &&
                           ende == ve.c_str() + ve.size() && !va.empty() &&
                           !ve.empty();
      if (!numeric ||
          std::abs(da - de) >
              rel_tol * std::max({1.0, std::abs(da), std::abs(de)})) {
        return ::testing::AssertionFailure()
               << "line " << line_no << " field " << field << ": '" << va
               << "' vs '" << ve << "'";
      }
    }
  }
}

/// Seeds per differential fuzz suite: the acceptance floor of 200, unless
/// UOT_FUZZ_SEEDS overrides it (deeper soaks, sanitizer jobs, quicker
/// local iteration).
inline int NumFuzzSeeds() {
  if (const char* env = std::getenv("UOT_FUZZ_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 200;
}

/// The per-run transfer invariant of one streaming edge run at `uot_blocks`
/// blocks per transfer: ceil(blocks_produced / k) transfers for a fixed k,
/// one transfer for a whole-table edge (none when it produced nothing).
/// It holds however the work is scheduled; transfer counts compared across
/// two runs do not, because the number of blocks produced depends on how
/// concurrent writers pack rows.
inline ::testing::AssertionResult TransfersMatchUot(const EdgeStats& edge,
                                                    uint64_t uot_blocks) {
  const uint64_t produced = edge.blocks_produced;
  const uint64_t expected =
      uot_blocks == UotPolicy::kWholeTable
          ? (produced > 0 ? 1 : 0)
          : (produced + uot_blocks - 1) / uot_blocks;
  if (edge.transfers == expected) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "edge " << edge.producer << "->" << edge.consumer << ": "
         << edge.transfers << " transfers of " << produced
         << " blocks, expected " << expected;
}

/// Builds a two-column (k INT32, v DOUBLE) table with `rows` rows where
/// k = i % modulo and v = i.
inline std::unique_ptr<Table> MakeKvTable(StorageManager* storage,
                                          const std::string& name,
                                          uint64_t rows, int32_t modulo,
                                          Layout layout = Layout::kRowStore,
                                          size_t block_bytes = 4096) {
  Schema schema({{"k", Type::Int32()}, {"v", Type::Double()}});
  auto table = std::make_unique<Table>(name, schema, layout, block_bytes,
                                       storage, MemoryCategory::kBaseTable);
  RowBuilder row(&table->schema());
  for (uint64_t i = 0; i < rows; ++i) {
    row.SetInt32(0, static_cast<int32_t>(i % modulo));
    row.SetDouble(1, static_cast<double>(i));
    table->AppendRow(row.data());
  }
  return table;
}

/// SplitMix64: tiny, implementation-independent deterministic RNG so fuzz
/// seeds reproduce identically on every platform/stdlib (std::uniform_*
/// distributions are not portable across library implementations).
class FuzzRng {
 public:
  explicit FuzzRng(uint64_t seed) : state_(seed + 0x9e3779b97f4a7c15ull) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Uniform integer in [lo, hi], inclusive.
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(
                    Next() % static_cast<uint64_t>(hi - lo + 1));
  }

  /// True with probability num/den.
  bool Chance(int num, int den) { return Range(1, den) <= num; }

 private:
  uint64_t state_;
};

/// A seeded random join-tree query for differential (parity) testing: the
/// same spec can be instantiated as an unpartitioned or radix-partitioned
/// plan any number of times, over the same generated base tables, so byte
/// parity of CanonicalRows across {radix_bits, join knobs, UoT policy} is
/// a meaningful assertion.
///
/// Shape: a left-deep chain of 1..3 hash joins over one probe table.
/// Randomized per seed: join kinds (inner/semi/anti), key column types
/// (INT32/INT64), one- vs two-column keys, residual (non-equi) conditions,
/// an optional pre-join selection, an optional LIP filter, and the probe
/// key distributions — uniform, heavy-hitter (~75% of rows share one key,
/// the radix skew case), and all-duplicates (a constant column: every row
/// lands in one partition). Key domains include negative values and 0 so
/// sentinel/zero keys are always in play.
class RandomJoinQuery {
 public:
  RandomJoinQuery(StorageManager* storage, uint64_t seed) : seed_(seed) {
    FuzzRng rng(seed);
    num_joins_ = static_cast<int>(rng.Range(1, 3));
    const uint64_t probe_rows = static_cast<uint64_t>(rng.Range(64, 900));

    // Probe table: one key column per join + a second-key INT32 column
    // ("e") + a DOUBLE residual/payload column ("v").
    std::vector<Column> probe_cols;
    for (int j = 0; j < num_joins_; ++j) {
      key_is_int64_.push_back(rng.Chance(1, 2));
      probe_cols.push_back({std::string("k").append(std::to_string(j)),
                            key_is_int64_[static_cast<size_t>(j)]
                                ? Type::Int64()
                                : Type::Int32()});
    }
    probe_cols.push_back({"e", Type::Int32()});
    probe_cols.push_back({"v", Type::Double()});
    extra_col_ = num_joins_;
    value_col_ = num_joins_ + 1;

    // Per-key distribution: 0 = uniform, 1 = heavy-hitter, 2 = all-dup.
    std::vector<int> dist, modulo;
    for (int j = 0; j < num_joins_; ++j) {
      dist.push_back(static_cast<int>(rng.Range(0, 2)));
      modulo.push_back(static_cast<int>(rng.Range(4, 48)));
    }

    Schema probe_schema(std::move(probe_cols));
    auto probe = std::make_unique<Table>(
        "fuzz.probe", probe_schema, Layout::kRowStore, /*block_bytes=*/2048,
        storage, MemoryCategory::kBaseTable);
    RowBuilder row(&probe->schema());
    for (uint64_t i = 0; i < probe_rows; ++i) {
      for (int j = 0; j < num_joins_; ++j) {
        const int m = modulo[static_cast<size_t>(j)];
        int64_t key;
        switch (dist[static_cast<size_t>(j)]) {
          case 1:  // heavy hitter: ~75% of rows share key -1.
            key = rng.Chance(3, 4) ? -1 : rng.Range(0, m - 1);
            break;
          case 2:  // all duplicates.
            key = 7;
            break;
          default:  // uniform, domain spans negatives and 0.
            key = rng.Range(-m / 2, m - 1);
        }
        if (key_is_int64_[static_cast<size_t>(j)]) {
          row.SetInt64(j, key);
        } else {
          row.SetInt32(j, static_cast<int32_t>(key));
        }
      }
      row.SetInt32(extra_col_, static_cast<int32_t>(rng.Range(0, 3)));
      row.SetDouble(value_col_, static_cast<double>(rng.Range(0, 999)) / 10.0);
      probe->AppendRow(row.data());
    }
    probe_ = probe.get();
    tables_.push_back(std::move(probe));

    // Build tables: (bk <key type>, be INT32, bv DOUBLE). Keys drawn from
    // the matching probe domain (plus misses) with duplicates possible.
    for (int j = 0; j < num_joins_; ++j) {
      const int m = modulo[static_cast<size_t>(j)];
      const uint64_t build_rows = static_cast<uint64_t>(rng.Range(1, 160));
      Schema build_schema(
          {{"bk", key_is_int64_[static_cast<size_t>(j)] ? Type::Int64()
                                                        : Type::Int32()},
           {"be", Type::Int32()},
           {"bv", Type::Double()}});
      auto build = std::make_unique<Table>(
          std::string("fuzz.build").append(std::to_string(j)), build_schema,
          Layout::kRowStore, 2048, storage, MemoryCategory::kBaseTable);
      RowBuilder brow(&build->schema());
      for (uint64_t i = 0; i < build_rows; ++i) {
        const int64_t key = rng.Range(-m / 2 - 1, m);  // some always miss
        if (key_is_int64_[static_cast<size_t>(j)]) {
          brow.SetInt64(0, key);
        } else {
          brow.SetInt32(0, static_cast<int32_t>(key));
        }
        brow.SetInt32(1, static_cast<int32_t>(rng.Range(0, 3)));
        brow.SetDouble(2, static_cast<double>(rng.Range(0, 999)) / 10.0);
        build->AppendRow(brow.data());
      }
      builds_.push_back(build.get());
      tables_.push_back(std::move(build));

      two_key_.push_back(rng.Chance(1, 4));
      const int kind_roll = static_cast<int>(rng.Range(0, 3));
      kinds_.push_back(kind_roll <= 1 ? JoinKind::kInner
                       : kind_roll == 2 ? JoinKind::kLeftSemi
                                        : JoinKind::kLeftAnti);
      has_residual_.push_back(rng.Chance(2, 5));
      static const CompareOp kResidualOps[] = {CompareOp::kNe, CompareOp::kLt,
                                               CompareOp::kGt, CompareOp::kLe,
                                               CompareOp::kGe};
      residual_ops_.push_back(kResidualOps[rng.Range(0, 4)]);
      residual_scales_.push_back(rng.Chance(1, 2) ? 1.0 : 0.5);
    }

    pre_select_ = rng.Chance(1, 3);
    select_threshold_ = static_cast<double>(rng.Range(5, 95));
    // LIP prunes probe rows that cannot match build 0 — identical results
    // for inner/semi, but it would *create* anti-join matches, so gate it.
    use_lip_ = rng.Chance(1, 4) && kinds_[0] != JoinKind::kLeftAnti;
  }

  uint64_t seed() const { return seed_; }
  int num_joins() const { return num_joins_; }

  std::string Description() const {
    std::string out = "seed=" + std::to_string(seed_) +
                      " joins=" + std::to_string(num_joins_);
    for (int j = 0; j < num_joins_; ++j) {
      const size_t sj = static_cast<size_t>(j);
      out += " [j" + std::to_string(j) + ":";
      out += kinds_[sj] == JoinKind::kInner      ? "inner"
             : kinds_[sj] == JoinKind::kLeftSemi ? "semi"
                                                 : "anti";
      out += key_is_int64_[sj] ? ",i64" : ",i32";
      if (two_key_[sj]) out += ",2key";
      if (has_residual_[sj]) out += ",resid";
      out += "]";
    }
    if (pre_select_) out += " select";
    if (use_lip_) out += " lip";
    return out;
  }

  /// A fresh plan over this query's tables. `radix_bits` 0 keeps every
  /// join on the single shared-table path; > 0 exchanges both sides of
  /// every join into 2^radix_bits partitions. Results must be
  /// byte-identical either way.
  std::unique_ptr<QueryPlan> MakePlan(StorageManager* storage,
                                      int radix_bits) const {
    PlanBuilderConfig config;
    config.block_bytes = 2048;
    config.use_lip = use_lip_;
    config.join_radix_bits = radix_bits;
    PlanBuilder builder(storage, config);

    // Builds first so a LIP-bearing selection can reference build 0.
    std::vector<BuildHashOperator*> build_ops;
    for (int j = 0; j < num_joins_; ++j) {
      const size_t sj = static_cast<size_t>(j);
      std::vector<int> build_keys{0};
      if (two_key_[sj]) build_keys.push_back(1);
      build_ops.push_back(builder.Build("build" + std::to_string(j),
                                        PlanBuilder::Base(*builds_[sj]),
                                        build_keys, {2}));
    }

    PlanBuilder::Src current = PlanBuilder::Base(*probe_);
    if (pre_select_) {
      std::vector<int> all_cols;
      for (int c = 0; c < probe_->schema().num_columns(); ++c) {
        all_cols.push_back(c);
      }
      std::vector<std::pair<BuildHashOperator*, int>> lip;
      if (use_lip_ && !two_key_[0]) lip.push_back({build_ops[0], 0});
      current = builder.Select(
          "select", current,
          Cmp(CompareOp::kLe, Col(value_col_, Type::Double()),
              LitDouble(select_threshold_)),
          Projection::Identity(probe_->schema(), all_cols), std::move(lip));
    }

    for (int j = 0; j < num_joins_; ++j) {
      const size_t sj = static_cast<size_t>(j);
      std::vector<int> probe_keys{j};
      if (two_key_[sj]) probe_keys.push_back(extra_col_);
      std::vector<int> out_cols;
      for (int c = 0; c < builder.SchemaOf(current).num_columns(); ++c) {
        out_cols.push_back(c);
      }
      std::vector<ResidualCondition> residuals;
      if (has_residual_[sj]) {
        residuals.push_back({value_col_, 0, residual_ops_[sj],
                             residual_scales_[sj]});
      }
      current = builder.Probe("probe" + std::to_string(j), current,
                              build_ops[sj], probe_keys, out_cols, kinds_[sj],
                              std::move(residuals));
    }
    return builder.Finish(current);
  }

 private:
  const uint64_t seed_;
  int num_joins_ = 0;
  int extra_col_ = 0;
  int value_col_ = 0;
  std::vector<std::unique_ptr<Table>> tables_;
  const Table* probe_ = nullptr;
  std::vector<const Table*> builds_;
  std::vector<bool> key_is_int64_;
  std::vector<bool> two_key_;
  std::vector<JoinKind> kinds_;
  std::vector<bool> has_residual_;
  std::vector<CompareOp> residual_ops_;
  std::vector<double> residual_scales_;
  bool pre_select_ = false;
  double select_threshold_ = 0.0;
  bool use_lip_ = false;
};

}  // namespace testing
}  // namespace uot

#endif  // UOT_TESTS_TEST_UTIL_H_
