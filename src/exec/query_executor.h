#ifndef UOT_EXEC_QUERY_EXECUTOR_H_
#define UOT_EXEC_QUERY_EXECUTOR_H_

#include <string>

#include "plan/query_plan.h"
#include "scheduler/execution_stats.h"
#include "scheduler/scheduler.h"

namespace uot {

/// Facade for executing a query plan under a given configuration.
///
/// Each call builds a one-query Engine (exec/engine.h) with
/// `config.num_workers` pool workers, so a standalone run behaves exactly
/// like the historical per-query scheduler. To execute several queries
/// concurrently on one shared worker pool, construct an Engine directly
/// and call Engine::Execute from multiple threads.
class QueryExecutor {
 public:
  /// Runs `plan` to completion and returns execution statistics. The result
  /// rows are in `plan->result_table()`.
  ///
  /// When `config.trace` is set, the storage manager's memory tracker is
  /// additionally attached to it for the duration of the run, so the
  /// trace carries per-category memory counter tracks. Concurrent
  /// executions against the same StorageManager must not mix traced and
  /// untraced runs.
  static ExecutionStats Execute(QueryPlan* plan, const ExecConfig& config);
};

/// Renders up to `max_rows` rows of `table` as an ASCII table (examples and
/// debugging).
std::string RenderTable(const Table& table, uint64_t max_rows = 20);

/// Renders the table's rows as sorted CSV lines — a canonical form for
/// comparing results across UoT values / layouts / thread counts in tests.
std::string CanonicalRows(const Table& table);

}  // namespace uot

#endif  // UOT_EXEC_QUERY_EXECUTOR_H_
