#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "storage/block.h"
#include "storage/block_pool.h"
#include "storage/insert_destination.h"
#include "storage/storage_manager.h"
#include "storage/table.h"
#include "types/row_builder.h"

namespace uot {
namespace {

Schema TestSchema() {
  return Schema({{"id", Type::Int32()},
                 {"val", Type::Double()},
                 {"tag", Type::Char(6)}});
}

std::vector<std::byte> PackRow(const Schema& s, int32_t id, double val,
                               const std::string& tag) {
  RowBuilder row(&s);
  row.SetInt32(0, id);
  row.SetDouble(1, val);
  row.SetChar(2, tag);
  return std::vector<std::byte>(row.data(), row.data() + s.row_width());
}

class BlockLayoutTest : public ::testing::TestWithParam<Layout> {};

TEST_P(BlockLayoutTest, AppendAndReadBack) {
  const Schema schema = TestSchema();
  Block block(1, &schema, GetParam(), 1024);
  EXPECT_GT(block.capacity_rows(), 0u);
  EXPECT_TRUE(block.Empty());

  for (int i = 0; i < 10; ++i) {
    auto row = PackRow(schema, i, i * 1.5,
                       std::string("t").append(std::to_string(i)));
    ASSERT_TRUE(block.AppendRow(row.data()));
  }
  EXPECT_EQ(block.num_rows(), 10u);

  for (uint32_t r = 0; r < 10; ++r) {
    const ColumnAccess id = block.Column(0);
    int32_t v;
    std::memcpy(&v, id.at(r), 4);
    EXPECT_EQ(v, static_cast<int32_t>(r));
    double d;
    std::memcpy(&d, block.Column(1).at(r), 8);
    EXPECT_DOUBLE_EQ(d, r * 1.5);
  }
}

TEST_P(BlockLayoutTest, GetRowRoundTrips) {
  const Schema schema = TestSchema();
  Block block(1, &schema, GetParam(), 1024);
  const auto row_in = PackRow(schema, 42, 2.25, "abc");
  ASSERT_TRUE(block.AppendRow(row_in.data()));
  std::vector<std::byte> row_out(schema.row_width());
  block.GetRow(0, row_out.data());
  EXPECT_EQ(std::memcmp(row_in.data(), row_out.data(), schema.row_width()),
            0);
}

TEST_P(BlockLayoutTest, FillsToCapacityThenRejects) {
  const Schema schema = TestSchema();
  Block block(1, &schema, GetParam(), 256);
  const uint32_t cap = block.capacity_rows();
  EXPECT_EQ(cap, 256u / schema.row_width());
  const auto row = PackRow(schema, 1, 1.0, "x");
  for (uint32_t i = 0; i < cap; ++i) ASSERT_TRUE(block.AppendRow(row.data()));
  EXPECT_TRUE(block.Full());
  EXPECT_FALSE(block.AppendRow(row.data()));
  EXPECT_EQ(block.num_rows(), cap);
}

TEST_P(BlockLayoutTest, CursorAppendFillsToCapacityAndPublishesOnCommit) {
  const Schema schema = TestSchema();
  Block block(1, &schema, GetParam(), 10 * schema.row_width());
  ASSERT_TRUE(block.AppendRow(PackRow(schema, 0, 0.0, "a").data()));
  ASSERT_EQ(block.free_rows(), 9u);
  // Write the 9 free rows column by column through the cursors.
  uint32_t stride[3] = {};
  std::byte* cursor[3] = {};
  for (int c = 0; c < 3; ++c) cursor[c] = block.AppendCursor(c, &stride[c]);
  EXPECT_EQ(stride[0], GetParam() == Layout::kRowStore ? schema.row_width()
                                                       : 4u);
  for (uint32_t i = 0; i < 9; ++i) {
    const auto row = PackRow(schema, static_cast<int32_t>(i + 1), i + 1.5,
                             std::string("c").append(std::to_string(i)));
    for (int c = 0; c < 3; ++c) {
      std::memcpy(cursor[c] + i * stride[c], row.data() + schema.offset(c),
                  schema.column(c).type.width());
    }
  }
  EXPECT_EQ(block.num_rows(), 1u);  // nothing published before the commit
  block.CommitRows(9);
  EXPECT_TRUE(block.Full());
  EXPECT_EQ(block.free_rows(), 0u);
  std::vector<std::byte> out(schema.row_width());
  for (uint32_t r = 0; r < 10; ++r) {
    block.GetRow(r, out.data());
    const auto want =
        r == 0 ? PackRow(schema, 0, 0.0, "a")
               : PackRow(schema, static_cast<int32_t>(r), r + 0.5,
                         std::string("c").append(std::to_string(r - 1)));
    EXPECT_EQ(std::memcmp(out.data(), want.data(), schema.row_width()), 0)
        << "row " << r;
  }
}

TEST_P(BlockLayoutTest, ClearResets) {
  const Schema schema = TestSchema();
  Block block(1, &schema, GetParam(), 512);
  const auto row = PackRow(schema, 5, 5.0, "z");
  ASSERT_TRUE(block.AppendRow(row.data()));
  block.Clear();
  EXPECT_TRUE(block.Empty());
  EXPECT_TRUE(block.AppendRow(row.data()));
}

INSTANTIATE_TEST_SUITE_P(Layouts, BlockLayoutTest,
                         ::testing::Values(Layout::kRowStore,
                                           Layout::kColumnStore),
                         [](const auto& info) {
                           return info.param == Layout::kRowStore
                                      ? "RowStore"
                                      : "ColumnStore";
                         });

TEST(BlockTest, ColumnStrides) {
  const Schema schema = TestSchema();
  Block row_block(1, &schema, Layout::kRowStore, 1024);
  EXPECT_EQ(row_block.Column(0).stride, schema.row_width());
  EXPECT_EQ(row_block.Column(1).stride, schema.row_width());
  Block col_block(2, &schema, Layout::kColumnStore, 1024);
  EXPECT_EQ(col_block.Column(0).stride, 4u);
  EXPECT_EQ(col_block.Column(1).stride, 8u);
  EXPECT_EQ(col_block.Column(2).stride, 6u);
}

TEST(BlockTest, AllocatedBytesRoundsToWholeTuples) {
  const Schema schema = TestSchema();  // 18-byte rows
  Block block(1, &schema, Layout::kRowStore, 1000);
  EXPECT_EQ(block.capacity_rows(), 1000u / schema.row_width());
  EXPECT_EQ(block.allocated_bytes(),
            block.capacity_rows() * schema.row_width());
}

TEST(StorageManagerTest, TracksBlockMemory) {
  StorageManager storage;
  const Schema schema = TestSchema();
  Block* b1 = storage.CreateBlock(&schema, Layout::kRowStore, 1024,
                                  MemoryCategory::kBaseTable);
  Block* b2 = storage.CreateBlock(&schema, Layout::kColumnStore, 2048,
                                  MemoryCategory::kTemporaryTable);
  EXPECT_EQ(storage.num_blocks(), 2u);
  EXPECT_EQ(storage.tracker().Current(MemoryCategory::kBaseTable),
            static_cast<int64_t>(b1->allocated_bytes()));
  const int64_t temp_bytes = static_cast<int64_t>(b2->allocated_bytes());
  EXPECT_EQ(storage.tracker().Current(MemoryCategory::kTemporaryTable),
            temp_bytes);
  storage.DropBlock(b2);
  EXPECT_EQ(storage.num_blocks(), 1u);
  EXPECT_EQ(storage.tracker().Current(MemoryCategory::kTemporaryTable), 0);
  EXPECT_EQ(storage.tracker().Peak(MemoryCategory::kTemporaryTable),
            temp_bytes);
}

TEST(StorageManagerTest, ConcurrentCreateAndDropReturnsToBaseline) {
  StorageManager storage;
  const Schema schema = TestSchema();
  // Long-lived blocks (a base table) stay put while the workers churn, so
  // drops move entries around them.
  std::vector<Block*> base;
  for (int i = 0; i < 64; ++i) {
    base.push_back(storage.CreateBlock(&schema, Layout::kRowStore, 512,
                                       MemoryCategory::kBaseTable));
  }
  const int64_t baseline = storage.tracker().TotalCurrent();
  constexpr int kThreads = 4, kRounds = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&storage, &schema, t] {
      std::vector<Block*> mine;
      for (int i = 0; i < kRounds; ++i) {
        mine.push_back(storage.CreateBlock(
            &schema, t % 2 == 0 ? Layout::kRowStore : Layout::kColumnStore,
            256 + 64 * static_cast<size_t>(i % 4),
            MemoryCategory::kTemporaryTable));
        // Drop in a scrambled order, keeping a few blocks alive.
        if (mine.size() > 3) {
          const size_t victim = static_cast<size_t>(i * 7) % mine.size();
          storage.DropBlock(mine[victim]);
          mine[victim] = mine.back();
          mine.pop_back();
        }
      }
      for (Block* b : mine) storage.DropBlock(b);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(storage.num_blocks(), base.size());
  EXPECT_EQ(storage.tracker().TotalCurrent(), baseline);
  EXPECT_EQ(storage.tracker().Current(MemoryCategory::kTemporaryTable), 0);
  for (Block* b : base) storage.DropBlock(b);
  EXPECT_EQ(storage.num_blocks(), 0u);
  EXPECT_EQ(storage.tracker().TotalCurrent(), 0);
}

TEST(TableTest, AppendAcrossBlocks) {
  StorageManager storage;
  Table table("t", TestSchema(), Layout::kRowStore, 5 * 18, &storage,
              MemoryCategory::kBaseTable);
  const Schema& s = table.schema();
  for (int i = 0; i < 23; ++i) {
    const auto row = PackRow(s, i, i * 2.0, "r");
    table.AppendRow(row.data());
  }
  EXPECT_EQ(table.NumRows(), 23u);
  EXPECT_GE(table.blocks().size(), 5u);  // 5 rows per block
  EXPECT_EQ(table.GetValue(0, 0).AsInt32(), 0);
  EXPECT_EQ(table.GetValue(22, 0).AsInt32(), 22);
  EXPECT_DOUBLE_EQ(table.GetValue(13, 1).AsDouble(), 26.0);
}

TEST(TableTest, AppendValuesConvenience) {
  StorageManager storage;
  Table table("t", TestSchema(), Layout::kColumnStore, 1024, &storage,
              MemoryCategory::kBaseTable);
  table.AppendValues({TypedValue::Int32(1), TypedValue::Double(2.0),
                      TypedValue::Char("abc")});
  EXPECT_EQ(table.NumRows(), 1u);
  EXPECT_EQ(table.GetValue(0, 2).AsChar(), "abc");
}

TEST(TableTest, DropBlocksReleasesMemory) {
  StorageManager storage;
  {
    Table table("t", TestSchema(), Layout::kRowStore, 1024, &storage,
                MemoryCategory::kTemporaryTable);
    table.AppendValues({TypedValue::Int32(1), TypedValue::Double(1.0),
                        TypedValue::Char("a")});
    EXPECT_GT(storage.tracker().Current(MemoryCategory::kTemporaryTable), 0);
  }  // destructor drops blocks
  EXPECT_EQ(storage.tracker().Current(MemoryCategory::kTemporaryTable), 0);
  EXPECT_EQ(storage.num_blocks(), 0u);
}

/// IntegralRange folds INT32 and INT64 columns in either layout (runs of
/// lanes in a column store, strided rows in a row store), refuses other
/// types and empty tables, and recomputes once the rows change.
TEST(TableTest, IntegralRangeIsCachedUntilRowsChange) {
  for (const Layout layout : {Layout::kRowStore, Layout::kColumnStore}) {
    StorageManager storage;
    Table table("t",
                Schema({{"i32", Type::Int32()},
                        {"i64", Type::Int64()},
                        {"d", Type::Double()}}),
                layout, 512, &storage, MemoryCategory::kBaseTable);
    int64_t lo = 0, hi = 0;
    EXPECT_FALSE(table.IntegralRange(0, &lo, &hi));  // no rows
    for (int i = 0; i < 100; ++i) {
      const int v = (i * 37) % 100 - 40;  // -40 .. 59, unordered
      table.AppendValues({TypedValue::Int32(v),
                          TypedValue::Int64(int64_t{v} << 33),
                          TypedValue::Double(v)});
    }
    ASSERT_GT(table.blocks().size(), 1u);
    ASSERT_TRUE(table.IntegralRange(0, &lo, &hi));
    EXPECT_EQ(lo, -40);
    EXPECT_EQ(hi, 59);
    ASSERT_TRUE(table.IntegralRange(1, &lo, &hi));
    EXPECT_EQ(lo, int64_t{-40} << 33);
    EXPECT_EQ(hi, int64_t{59} << 33);
    EXPECT_FALSE(table.IntegralRange(2, &lo, &hi));

    table.AppendValues({TypedValue::Int32(INT32_MIN), TypedValue::Int64(0),
                        TypedValue::Double(0)});
    ASSERT_TRUE(table.IntegralRange(0, &lo, &hi));
    EXPECT_EQ(lo, INT32_MIN);
    EXPECT_EQ(hi, 59);
  }
}

/// KeyRange covers every keyable column: integral words order as signed
/// values, CHAR(<= 8) words as unsigned ones (little-endian packed bytes).
/// DOUBLE and wider CHAR columns are not keys; IntegralRange stays
/// integral-only.
TEST(TableTest, KeyRangeCoversCharWords) {
  StorageManager storage;
  Table table("t",
              Schema({{"i32", Type::Int32()},
                      {"c1", Type::Char(1)},
                      {"c2", Type::Char(2)},
                      {"c9", Type::Char(9)},
                      {"d", Type::Double()}}),
              Layout::kColumnStore, 512, &storage,
              MemoryCategory::kBaseTable);
  uint64_t min_word = 0, range = 0;
  EXPECT_FALSE(table.KeyRange(1, &min_word, &range));  // no rows
  for (const char* v : {"R", "A", "N"}) {
    table.AppendValues({TypedValue::Int32(-3), TypedValue::Char(v),
                        TypedValue::Char(std::string(v) + "\xff"),
                        TypedValue::Char(v), TypedValue::Double(0)});
  }
  table.AppendValues({TypedValue::Int32(4), TypedValue::Char("F"),
                      TypedValue::Char("A"), TypedValue::Char("x"),
                      TypedValue::Double(0)});
  ASSERT_TRUE(table.KeyRange(0, &min_word, &range));
  EXPECT_EQ(min_word, static_cast<uint64_t>(int64_t{-3}));
  EXPECT_EQ(range, 8u);
  ASSERT_TRUE(table.KeyRange(1, &min_word, &range));
  EXPECT_EQ(min_word, uint64_t{'A'});
  EXPECT_EQ(range, uint64_t{'R' - 'A' + 1});
  // "A " (0x2041) is the smallest word, "R\xff" (0xff52) the largest.
  ASSERT_TRUE(table.KeyRange(2, &min_word, &range));
  EXPECT_EQ(min_word, 0x2041u);
  EXPECT_EQ(range, 0xff52u - 0x2041u + 1);
  EXPECT_FALSE(table.KeyRange(3, &min_word, &range));
  EXPECT_FALSE(table.KeyRange(4, &min_word, &range));
  int64_t lo = 0, hi = 0;
  EXPECT_FALSE(table.IntegralRange(1, &lo, &hi));
}

TEST(BlockPoolTest, CheckoutReturnsPooledBlockFirst) {
  StorageManager storage;
  const Schema schema = TestSchema();
  BlockPool pool(&storage, &schema, Layout::kRowStore, 1024,
                 MemoryCategory::kTemporaryTable);
  Block* a = pool.Checkout();
  EXPECT_EQ(pool.PooledCount(), 0u);
  pool.Return(a);
  EXPECT_EQ(pool.PooledCount(), 1u);
  Block* b = pool.Checkout();
  EXPECT_EQ(b, a);  // reuse preserves locality (paper Section III-A)
}

TEST(BlockPoolTest, DrainAllEmptiesPool) {
  StorageManager storage;
  const Schema schema = TestSchema();
  BlockPool pool(&storage, &schema, Layout::kRowStore, 1024,
                 MemoryCategory::kTemporaryTable);
  Block* a = pool.Checkout();
  Block* b = pool.Checkout();
  EXPECT_NE(a, b);
  pool.Return(a);
  pool.Return(b);
  const auto drained = pool.DrainAll();
  EXPECT_EQ(drained.size(), 2u);
  EXPECT_EQ(pool.PooledCount(), 0u);
}

TEST(InsertDestinationTest, CompletesFullBlocksAndFlushesPartials) {
  StorageManager storage;
  Table out("out", TestSchema(), Layout::kRowStore, 4 * 18, &storage,
            MemoryCategory::kTemporaryTable);
  int ready_count = 0;
  InsertDestination dest(&storage, &out,
                         [&ready_count](Block*) { ++ready_count; });
  {
    InsertDestination::Writer writer(&dest);
    const Schema& s = out.schema();
    for (int i = 0; i < 10; ++i) {
      const auto row = PackRow(s, i, i, "w");
      writer.AppendRow(row.data());
    }
  }
  // 4 rows per block: two full blocks completed mid-writing.
  EXPECT_EQ(ready_count, 2);
  EXPECT_EQ(out.NumRows(), 8u);
  dest.Flush();  // the partial block (2 rows) becomes ready
  EXPECT_EQ(ready_count, 3);
  EXPECT_EQ(out.NumRows(), 10u);
  EXPECT_EQ(dest.blocks_completed(), 3u);
}

TEST(InsertDestinationTest, FlushDropsEmptyBlocks) {
  StorageManager storage;
  Table out("out", TestSchema(), Layout::kRowStore, 1024, &storage,
            MemoryCategory::kTemporaryTable);
  InsertDestination dest(&storage, &out, nullptr);
  { InsertDestination::Writer writer(&dest); }  // no rows written
  dest.Flush();
  EXPECT_EQ(out.NumRows(), 0u);
  EXPECT_EQ(out.blocks().size(), 0u);
  EXPECT_EQ(storage.num_blocks(), 0u);  // empty block dropped
}

TEST(InsertDestinationTest, ConcurrentWritersProduceAllRows) {
  StorageManager storage;
  Table out("out", TestSchema(), Layout::kRowStore, 8 * 18, &storage,
            MemoryCategory::kTemporaryTable);
  InsertDestination dest(&storage, &out, nullptr);
  constexpr int kThreads = 4, kRows = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&dest, &out, t] {
      InsertDestination::Writer writer(&dest);
      const Schema& s = out.schema();
      for (int i = 0; i < kRows; ++i) {
        const auto row = PackRow(s, t * kRows + i, i, "c");
        writer.AppendRow(row.data());
      }
    });
  }
  for (auto& t : threads) t.join();
  dest.Flush();
  EXPECT_EQ(out.NumRows(), static_cast<uint64_t>(kThreads * kRows));
}

}  // namespace
}  // namespace uot
