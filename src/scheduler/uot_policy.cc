#include "scheduler/uot_policy.h"

#include "scheduler/scheduler.h"

namespace uot {

std::string ExecConfig::ToString() const {
  std::string out = "ExecConfig{workers=" + std::to_string(num_workers);
  out += ", uot=";
  out += uot_policy != nullptr ? uot_policy->ToString()
                               : FixedUotPolicy(uot).ToString();
  out += ", join=" + join.ToString();
  if (memory_budget_bytes > 0) {
    out += ", budget=" + std::to_string(memory_budget_bytes) + "B";
  }
  if (!drop_consumed_blocks) out += ", keep_consumed_blocks";
  if (pipeline_mode != PipelineMode::kVectorized) {
    out += ", pipeline_mode=";
    out += PipelineModeName(pipeline_mode);
  }
  out += "}";
  return out;
}

}  // namespace uot
