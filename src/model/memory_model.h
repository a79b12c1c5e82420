#ifndef UOT_MODEL_MEMORY_MODEL_H_
#define UOT_MODEL_MEMORY_MODEL_H_

#include <cstdint>
#include <vector>

namespace uot {

/// The Section VI memory-footprint model, comparing the overhead of the two
/// extreme UoT strategies on a leaf-level join cascade (paper Fig. 4,
/// Table II).
class MemoryModel {
 public:
  /// Hash-table size for an input table of `input_bytes` with tuples of
  /// `tuple_width` bytes: (M/w) * (c/f)   (Section VI-B).
  static double HashTableBytes(double input_bytes, double tuple_width,
                               double bucket_bytes, double load_factor);

  /// A join table's allocated bytes and the layout that gives them.
  struct JoinTableFootprint {
    bool dense = false;  // direct-indexed layout (else the hash layout)
    uint64_t slots = 0;  // hash buckets, or dense chain heads (key range)
    uint64_t bytes = 0;  // allocated bytes of that layout
  };

  /// The exact footprint of a join table over `rows` build rows with
  /// `payload_bytes` of payload each, as the smaller of two layouts:
  ///  - hash: NextPow2(rows / f) buckets (at least 16) of `slot_bytes`
  ///    (= c) plus a one-byte tag each — Section VI-B's c/f per entry,
  ///    rounded up to a power of two;
  ///  - dense (direct-indexed), only when a single integral key spans
  ///    `key_range` values (0 = not eligible) and both `rows` and
  ///    `key_range` fit in 32 bits: a 4-byte chain head per key value plus
  ///    the payload and a 4-byte link per row, range*4 + rows*(4 + w).
  /// Ties go to the dense layout. JoinHashTable::Reserve sizes itself with
  /// this, so the model and the memory tracker agree byte for byte.
  static JoinTableFootprint JoinTableBytes(uint64_t rows, uint64_t key_range,
                                           uint64_t payload_bytes,
                                           uint64_t slot_bytes,
                                           double load_factor);

  /// Aggregation group storage and the layout that holds it.
  struct AggregationFootprint {
    bool dense = false;  // direct-indexed worker arrays (else hash groups)
    uint64_t bytes = 0;  // dense: one worker's array; hash: `rows` groups
  };

  /// The footprint of an aggregation's groups, with `state_bytes` of
  /// aggregate state per group, as the smaller of two layouts:
  ///  - hash: `rows` groups of a GroupTable, each a 24-byte key, an 8-byte
  ///    hash, two 8-byte slots (load <= 1/2) and its state. As a layout
  ///    choice `rows` is the input row count (the worst case of one group
  ///    per row); a GroupTable also sizes its own growth with it, passing
  ///    its group capacity;
  ///  - dense, only when a single integral key spans `key_range` values
  ///    (0 = not eligible, at most 2^32): one state per key value in each
  ///    of `workers` worker arrays, range * state_bytes per array.
  /// Dense iff workers * range * state_bytes <= the hash bytes. The
  /// aggregate picks its layout with this and charges the tracker exactly
  /// these bytes per allocation.
  static AggregationFootprint AggregationBytes(uint64_t rows,
                                               uint64_t key_range,
                                               uint64_t workers,
                                               uint64_t state_bytes);

  /// Selectivity s = Ns / N (Section VI-A).
  static double Selectivity(uint64_t selected_rows, uint64_t input_rows);

  /// Projectivity p = Cs / C: projected bytes per tuple over total bytes
  /// per tuple.
  static double Projectivity(double projected_tuple_bytes,
                             double input_tuple_bytes);

  /// Total memory reduction of a select: s * p (the paper's "Total" column
  /// in Tables III/IV).
  static double TotalReduction(double selectivity, double projectivity) {
    return selectivity * projectivity;
  }

  /// Table II for a cascade of n probes over hash tables of the given
  /// sizes, with the select output of `sigma_bytes`:
  ///  - low-UoT overhead: all hash tables but the first must coexist;
  ///  - high-UoT overhead: the materialized select output.
  struct CascadeFootprint {
    double low_uot_overhead_bytes;
    double high_uot_overhead_bytes;
  };
  static CascadeFootprint LeafJoinCascade(
      const std::vector<double>& hash_table_bytes, double sigma_bytes);
};

}  // namespace uot

#endif  // UOT_MODEL_MEMORY_MODEL_H_
