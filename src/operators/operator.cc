#include "operators/operator.h"

#include "obs/trace_session.h"
#include "util/timer.h"

namespace uot {

int64_t OperatorExecContext::StageStart() const {
  return trace != nullptr ? NowNanos() : 0;
}

void OperatorExecContext::TraceStage(int worker_id, int op,
                                     obs::JoinBatchStage stage,
                                     int64_t start_ns, uint32_t rows) const {
  if (trace == nullptr) return;
  trace->EmitComplete(obs::TraceEventType::kJoinBatchStage,
                      1 + static_cast<uint32_t>(worker_id), start_ns,
                      NowNanos(), op, static_cast<int32_t>(stage),
                      static_cast<int64_t>(rows));
}

}  // namespace uot
