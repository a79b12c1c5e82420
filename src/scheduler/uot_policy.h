#ifndef UOT_SCHEDULER_UOT_POLICY_H_
#define UOT_SCHEDULER_UOT_POLICY_H_

#include <cstdint>
#include <string>

#include "util/macros.h"

namespace uot {

/// The unit of transfer (UoT): how much producer output accumulates before
/// it is transferred to the consumer operator (paper Sections I-III, Fig 1).
///
/// The granularity is measured in completed output blocks, matching the
/// paper's block-based setting: the smallest UoT is a single block
/// (traditionally called "pipelining"); the largest is the whole
/// intermediate table (traditionally "blocking"/"materializing"). Every
/// value in between is a valid point on the spectrum.
class UotPolicy {
 public:
  /// Sentinel meaning "accumulate the producer's entire output before the
  /// (single) transfer" — the materializing end of the spectrum. It is a
  /// reserved blocks_per_transfer value, not a count: no real edge buffers
  /// UINT64_MAX blocks, so IsWholeTable() is unambiguous.
  static constexpr uint64_t kWholeTable = UINT64_MAX;

  /// Default: smallest UoT (one block per transfer).
  UotPolicy() : blocks_per_transfer_(1) {}
  /// Zero blocks per transfer is meaningless (a transfer must carry at
  /// least one block) and aborts: a policy/chooser bug must fail loudly
  /// instead of silently degrading to pipelining.
  explicit UotPolicy(uint64_t blocks_per_transfer)
      : blocks_per_transfer_(blocks_per_transfer) {
    UOT_CHECK(blocks_per_transfer != 0);
  }

  /// The low end of the spectrum: transfer every `k` completed blocks.
  static UotPolicy LowUot(uint64_t k = 1) { return UotPolicy(k); }

  /// The high end: wait for the entire intermediate table.
  static UotPolicy HighUot() { return UotPolicy(kWholeTable); }

  bool IsWholeTable() const { return blocks_per_transfer_ == kWholeTable; }
  uint64_t blocks_per_transfer() const { return blocks_per_transfer_; }

  std::string ToString() const {
    if (IsWholeTable()) return "UoT=whole-table";
    return "UoT=" + std::to_string(blocks_per_transfer_) + "-block(s)";
  }

 private:
  uint64_t blocks_per_transfer_;
};

/// Runtime snapshot of one streaming edge, assembled by the scheduler every
/// time it consults the UoT policy (on each block-completion event). Static
/// identity plus per-edge progress plus engine-level memory feedback — the
/// inputs an adaptive policy needs to move an edge along the UoT spectrum
/// mid-query.
struct EdgeRuntimeState {
  // Static identity.
  int edge_index = -1;
  int producer = -1;
  int consumer = -1;
  /// Engine-assigned id of the querying session (0 outside an engine).
  /// Lets one policy instance shared across concurrent sessions keep
  /// per-query edge state.
  uint64_t query_id = 0;
  /// True when this edge is an exchange/repartition edge
  /// (QueryPlan::EdgeKind::kExchange). Exchange consumers (partitioned
  /// builds) buffer their whole input anyway, so large UoT values on such
  /// an edge buy no locality — they only delay the repartition work that
  /// should overlap the producer. Policies use this to clamp.
  bool is_exchange = false;

  // Edge progress.
  uint64_t buffered_blocks = 0;    // accumulated, not yet transferred
  uint64_t produced_blocks = 0;    // total blocks the producer completed
  uint64_t transfers = 0;          // transfers delivered so far
  bool producer_finished = false;  // producer flushed (final delivery)

  // Engine feedback.
  int64_t tracked_bytes = 0;        // current tracked memory, all categories
  int64_t memory_budget_bytes = 0;  // session budget (0 = unlimited)
  /// Tracked bytes when the session started: the structural floor (base
  /// tables, prior queries' state) the policy cannot influence. Pressure is
  /// meaningful on the headroom above it — with large resident base tables,
  /// tracked_bytes / memory_budget_bytes saturates near 1 and carries no
  /// signal about the query's own intermediates.
  int64_t baseline_tracked_bytes = 0;
  uint64_t deferred_work_orders = 0;  // budget/pacing deferral queue depth
  uint64_t producer_work_orders_done = 0;
  uint64_t consumer_work_orders_done = 0;
};

/// Why a policy decision landed on the value it did — the profile's
/// adaptive-decision log records one of these per effective-UoT change so
/// an operator can tell a memory-pressure narrow from a rate-imbalance
/// halving without re-deriving it from counters (ISSUE 6 tentpole (4)).
enum class UotAdaptCause : uint8_t {
  /// First resolution of the edge (session start / seed value).
  kSeed = 0,
  /// A plan annotation pinned the edge; the policy was not consulted.
  kPinned,
  /// The policy returned the same value as last time (steady state).
  kNone,
  /// Narrowed because budget-deferred work orders queued up.
  kDeferralDepth,
  /// Narrowed because tracked memory crossed the headroom watermark.
  kHeadroomWatermark,
  /// Widened after a calm streak with headroom to spare.
  kCalmStreak,
  /// Halved widening patience / clamp due to producer/consumer rate
  /// imbalance.
  kRateImbalance,
};

/// Stable lower-case name ("seed", "deferral_depth", ...) used by trace
/// args, profile JSON, and logs. Inline so the obs layer (which links
/// below the scheduler) can render causes in trace exports.
inline const char* UotAdaptCauseName(UotAdaptCause cause) {
  switch (cause) {
    case UotAdaptCause::kSeed: return "seed";
    case UotAdaptCause::kPinned: return "pinned";
    case UotAdaptCause::kNone: return "none";
    case UotAdaptCause::kDeferralDepth: return "deferral_depth";
    case UotAdaptCause::kHeadroomWatermark: return "headroom_watermark";
    case UotAdaptCause::kCalmStreak: return "calm_streak";
    case UotAdaptCause::kRateImbalance: return "rate_imbalance";
  }
  return "unknown";
}

/// The per-edge UoT decision point. The scheduler consults the policy on
/// every block-completion event of every streaming edge; the returned value
/// is the number of accumulated blocks that triggers a transfer
/// (UotPolicy::kWholeTable = wait for the producer to finish). Returning 0
/// is a policy bug and aborts the query.
///
/// Implementations may be shared by many concurrent sessions (the Engine
/// runs sessions on one pool), so BlocksPerTransfer must be thread-safe;
/// use EdgeRuntimeState::query_id/edge_index to key any internal state.
class EdgeUotPolicy {
 public:
  virtual ~EdgeUotPolicy() = default;

  /// Blocks that must accumulate on `edge` before the next transfer.
  virtual uint64_t BlocksPerTransfer(const EdgeRuntimeState& edge) = 0;

  /// Same decision, but also reports why. The base implementation cannot
  /// know a cause and reports kNone; adaptive policies override this and
  /// have the one-arg form delegate here. The scheduler always calls this
  /// form so the cause reaches the decision log.
  virtual uint64_t BlocksPerTransfer(const EdgeRuntimeState& edge,
                                     UotAdaptCause* cause) {
    if (cause != nullptr) *cause = UotAdaptCause::kNone;
    return BlocksPerTransfer(edge);
  }

  /// Human-readable description for logs / ExecConfig::ToString().
  virtual std::string ToString() const = 0;
};

/// The default policy: one fixed UoT value for every edge of every query —
/// exactly the historical scalar `ExecConfig::uot` semantics, expressed
/// through the policy interface.
class FixedUotPolicy final : public EdgeUotPolicy {
 public:
  explicit FixedUotPolicy(UotPolicy uot = UotPolicy()) : uot_(uot) {}

  using EdgeUotPolicy::BlocksPerTransfer;
  uint64_t BlocksPerTransfer(const EdgeRuntimeState&) override {
    return uot_.blocks_per_transfer();
  }

  std::string ToString() const override {
    return "fixed(" + uot_.ToString() + ")";
  }

  UotPolicy uot() const { return uot_; }

 private:
  const UotPolicy uot_;
};

}  // namespace uot

#endif  // UOT_SCHEDULER_UOT_POLICY_H_
