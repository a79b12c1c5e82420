#include "exec/query_executor.h"

#include <algorithm>
#include <vector>

#include "exec/engine.h"

namespace uot {

ExecutionStats QueryExecutor::Execute(QueryPlan* plan,
                                      const ExecConfig& config) {
  MemoryTracker& tracker = plan->storage()->tracker();
  if (config.trace != nullptr) tracker.AttachObservers(config.trace);
  // A one-session engine: the worker pool lives exactly as long as the
  // query, preserving the historical per-query threading behaviour. Use a
  // long-lived Engine directly to run queries concurrently.
  EngineConfig engine_config;
  engine_config.num_workers = config.num_workers;
  Engine engine(engine_config);
  ExecutionStats stats = engine.Execute(plan, config);
  if (config.trace != nullptr) tracker.AttachObservers(nullptr);
  return stats;
}

std::string RenderTable(const Table& table, uint64_t max_rows) {
  std::string out;
  const Schema& schema = table.schema();
  for (int c = 0; c < schema.num_columns(); ++c) {
    if (c > 0) out += " | ";
    out += schema.column(c).name;
  }
  out += "\n";
  const uint64_t rows = std::min<uint64_t>(table.NumRows(), max_rows);
  for (uint64_t r = 0; r < rows; ++r) {
    for (int c = 0; c < schema.num_columns(); ++c) {
      if (c > 0) out += " | ";
      out += table.GetValue(r, c).ToString();
    }
    out += "\n";
  }
  if (table.NumRows() > rows) {
    out += "... (" + std::to_string(table.NumRows()) + " rows total)\n";
  }
  return out;
}

std::string CanonicalRows(const Table& table) {
  std::vector<std::string> lines;
  const Schema& schema = table.schema();
  // Iterate blocks directly (GetValue per cell would be O(blocks) each).
  for (const Block* block : table.blocks()) {
    for (uint32_t r = 0; r < block->num_rows(); ++r) {
      std::string line;
      for (int c = 0; c < schema.num_columns(); ++c) {
        if (c > 0) line += ",";
        const TypedValue v = TypedValue::Load(schema.column(c).type,
                                              block->Column(c).at(r));
        if (v.type_id() == TypeId::kDouble) {
          // Round to 7 significant digits: aggregate merge order varies
          // with scheduling, so bit-exact doubles are not canonical.
          char buf[40];
          std::snprintf(buf, sizeof(buf), "%.7g", v.AsDouble());
          line += buf;
        } else {
          line += v.ToString();
        }
      }
      lines.push_back(std::move(line));
    }
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += "\n";
  }
  return out;
}

}  // namespace uot
