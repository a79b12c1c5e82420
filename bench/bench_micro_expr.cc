// Micro-benchmarks of vectorized predicate evaluation (selection-vector
// filtering throughput at different selectivities and layouts, and per
// column type: INT32, INT64, DATE, DOUBLE against a literal) and of
// writing a projection's output rows into blocks.

#include <benchmark/benchmark.h>

#include "expr/predicate.h"
#include "expr/projection.h"
#include "storage/storage_manager.h"
#include "types/row_builder.h"

namespace uot {
namespace {

std::unique_ptr<Block> MakeBlock(const Schema* schema, Layout layout) {
  auto block = std::make_unique<Block>(1, schema, layout, 1 << 20);
  RowBuilder row(schema);
  for (uint32_t i = 0; !block->Full(); ++i) {
    row.SetInt32(0, static_cast<int32_t>(i % 100));
    row.SetDouble(1, i * 0.5);
    block->AppendRow(row.data());
  }
  return block;
}

void BM_FilterSelectivity(benchmark::State& state) {
  static const Schema schema({{"k", Type::Int32()}, {"v", Type::Double()}});
  const Layout layout = static_cast<Layout>(state.range(0));
  const int32_t threshold = static_cast<int32_t>(state.range(1));
  auto block = MakeBlock(&schema, layout);
  auto pred = Cmp(CompareOp::kLt, Col(0, Type::Int32()),
                  Lit(TypedValue::Int32(threshold), Type::Int32()));
  for (auto _ : state) {
    const auto sel = pred->FilterAll(*block);
    benchmark::DoNotOptimize(sel.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          block->num_rows());
}
BENCHMARK(BM_FilterSelectivity)
    ->Args({0, 5})
    ->Args({0, 50})
    ->Args({0, 95})
    ->Args({1, 5})
    ->Args({1, 50})
    ->Args({1, 95})
    ->ArgNames({"layout", "sel%"});

// A column against a literal in the column's own type: INT64, DATE or
// DOUBLE, each holding row % 100 (scaled), at 50% selectivity.
void BM_FilterTyped(benchmark::State& state) {
  static const Schema schema({{"i64", Type::Int64()},
                              {"d", Type::Date()},
                              {"v", Type::Double()}});
  const Layout layout = static_cast<Layout>(state.range(0));
  auto block = std::make_unique<Block>(1, &schema, layout, 1 << 20);
  RowBuilder row(&schema);
  for (uint32_t i = 0; !block->Full(); ++i) {
    row.SetInt64(0, int64_t{i % 100} << 40);
    row.SetDate(1, static_cast<int32_t>(8000 + i % 100));
    row.SetDouble(2, (i % 100) * 0.5);
    block->AppendRow(row.data());
  }
  std::unique_ptr<Predicate> pred;
  switch (state.range(1)) {
    case 0:
      pred = Cmp(CompareOp::kLt, Col(0, Type::Int64()),
                 LitInt64(int64_t{50} << 40));
      break;
    case 1:
      pred = Cmp(CompareOp::kLt, Col(1, Type::Date()), LitDate(8050));
      break;
    default:
      pred = Cmp(CompareOp::kLt, Col(2, Type::Double()), LitDouble(25.0));
      break;
  }
  for (auto _ : state) {
    const auto sel = pred->FilterAll(*block);
    benchmark::DoNotOptimize(sel.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          block->num_rows());
}
BENCHMARK(BM_FilterTyped)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({0, 2})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({1, 2})
    ->ArgNames({"layout", "type"});

void BM_ConjunctiveFilter(benchmark::State& state) {
  static const Schema schema({{"k", Type::Int32()}, {"v", Type::Double()}});
  auto block = MakeBlock(&schema, Layout::kColumnStore);
  std::vector<std::unique_ptr<Predicate>> parts;
  parts.push_back(Cmp(CompareOp::kGe, Col(0, Type::Int32()),
                      Lit(TypedValue::Int32(10), Type::Int32())));
  parts.push_back(Cmp(CompareOp::kLt, Col(0, Type::Int32()),
                      Lit(TypedValue::Int32(60), Type::Int32())));
  parts.push_back(Cmp(CompareOp::kLt, Col(1, Type::Double()),
                      LitDouble(1e6)));
  auto pred = And(std::move(parts));
  for (auto _ : state) {
    const auto sel = pred->FilterAll(*block);
    benchmark::DoNotOptimize(sel.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          block->num_rows());
}
BENCHMARK(BM_ConjunctiveFilter);

void BM_RevenueExpression(benchmark::State& state) {
  static const Schema schema({{"k", Type::Int32()}, {"v", Type::Double()}});
  auto block = MakeBlock(&schema, Layout::kColumnStore);
  auto expr = Mul(Col(1, Type::Double()),
                  Sub(LitDouble(1.0), LitDouble(0.04)));
  std::vector<uint32_t> rows(block->num_rows());
  for (uint32_t i = 0; i < rows.size(); ++i) rows[i] = i;
  std::vector<double> out(rows.size());
  for (auto _ : state) {
    expr->Eval(*block, rows.data(), static_cast<uint32_t>(rows.size()),
               reinterpret_cast<std::byte*>(out.data()));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          block->num_rows());
}
BENCHMARK(BM_RevenueExpression);

// Output materialization: a select's 3-column projection (INT32, DOUBLE,
// DATE) of the rows passing `k < sel%` (k = row % 100), written into a
// row-store insert destination. Items are output rows, so items_per_second
// reads as rows/s.
void BM_Materialize(benchmark::State& state) {
  static const Schema schema({{"k", Type::Int32()},
                              {"v", Type::Double()},
                              {"d", Type::Date()},
                              {"flag", Type::Char(1)},
                              {"w", Type::Double()}});
  const Layout layout = static_cast<Layout>(state.range(0));
  auto block = std::make_unique<Block>(1, &schema, layout, 1 << 20);
  RowBuilder row(&schema);
  for (uint32_t i = 0; !block->Full(); ++i) {
    row.SetInt32(0, static_cast<int32_t>(i % 100));
    row.SetDouble(1, i * 0.5);
    row.SetDate(2, static_cast<int32_t>(8000 + i % 2500));
    row.SetChar(3, "R");
    row.SetDouble(4, i * 0.25);
    block->AppendRow(row.data());
  }
  const auto sel = Cmp(CompareOp::kLt, Col(0, Type::Int32()),
                       Lit(TypedValue::Int32(static_cast<int32_t>(
                               state.range(1))),
                           Type::Int32()))
                       ->FilterAll(*block);
  const auto proj = Projection::Identity(schema, {1, 0, 2});
  StorageManager storage;
  Table out("out", proj->output_schema(), Layout::kRowStore, 128 * 1024,
            &storage, MemoryCategory::kTemporaryTable);
  InsertDestination dest(&storage, &out, nullptr);
  for (auto _ : state) {
    {
      InsertDestination::Writer writer(&dest);
      proj->MaterializeInto(*block, sel, &writer);
    }
    benchmark::ClobberMemory();
    state.PauseTiming();
    dest.Flush();
    out.DropBlocks();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(sel.size()));
}
BENCHMARK(BM_Materialize)
    ->Args({0, 100})
    ->Args({0, 25})
    ->Args({1, 100})
    ->Args({1, 25})
    ->ArgNames({"layout", "sel%"});

}  // namespace
}  // namespace uot

BENCHMARK_MAIN();
