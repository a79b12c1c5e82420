#include "model/memory_model.h"

#include "util/macros.h"

namespace uot {

double MemoryModel::HashTableBytes(double input_bytes, double tuple_width,
                                   double bucket_bytes, double load_factor) {
  UOT_CHECK(tuple_width > 0 && load_factor > 0 && load_factor <= 1.0);
  const double entries = input_bytes / tuple_width;  // M / w
  return entries * (bucket_bytes / load_factor);     // * (c / f)
}

MemoryModel::JoinTableFootprint MemoryModel::JoinTableBytes(
    uint64_t rows, uint64_t key_range, uint64_t payload_bytes,
    uint64_t slot_bytes, double load_factor) {
  UOT_CHECK(slot_bytes > 0 && load_factor > 0 && load_factor <= 1.0);
  const uint64_t wanted = static_cast<uint64_t>(
      static_cast<double>(rows < 1 ? 1 : rows) / load_factor);
  uint64_t slots = 16;
  while (slots < wanted) slots <<= 1;
  JoinTableFootprint hash{false, slots, slots * (slot_bytes + 1)};
  if (key_range == 0 || key_range > UINT32_MAX || rows >= UINT32_MAX) {
    return hash;
  }
  const uint64_t dense_bytes = key_range * 4 + rows * (4 + payload_bytes);
  if (dense_bytes > hash.bytes) return hash;
  return JoinTableFootprint{true, key_range, dense_bytes};
}

MemoryModel::AggregationFootprint MemoryModel::AggregationBytes(
    uint64_t rows, uint64_t key_range, uint64_t workers,
    uint64_t state_bytes) {
  UOT_CHECK(workers >= 1 && state_bytes > 0);
  const AggregationFootprint hash{false, rows * (24 + 8 + 2 * 8 + state_bytes)};
  if (key_range == 0 || key_range > (uint64_t{1} << 32)) return hash;
  const uint64_t array_bytes = key_range * state_bytes;
  if (workers * array_bytes > hash.bytes) return hash;
  return AggregationFootprint{true, array_bytes};
}

double MemoryModel::Selectivity(uint64_t selected_rows, uint64_t input_rows) {
  UOT_CHECK(input_rows > 0);
  return static_cast<double>(selected_rows) /
         static_cast<double>(input_rows);
}

double MemoryModel::Projectivity(double projected_tuple_bytes,
                                 double input_tuple_bytes) {
  UOT_CHECK(input_tuple_bytes > 0);
  return projected_tuple_bytes / input_tuple_bytes;
}

MemoryModel::CascadeFootprint MemoryModel::LeafJoinCascade(
    const std::vector<double>& hash_table_bytes, double sigma_bytes) {
  CascadeFootprint result{0.0, sigma_bytes};
  // Low UoT: hash tables 2..n must be live while the first join runs
  // (Table II: sum_{i=2..n} |H_i|); high UoT builds one at a time but
  // materializes sigma(R).
  for (size_t i = 1; i < hash_table_bytes.size(); ++i) {
    result.low_uot_overhead_bytes += hash_table_bytes[i];
  }
  return result;
}

}  // namespace uot
