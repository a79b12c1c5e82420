// The two serial-suite workloads:
//  - tpch_vectorized: the 21 supported TPC-H queries, vectorized, SF 0.5,
//    128 KiB base and temp blocks (the paper's Fig 7 set-up).
//  - ssb_fused: the 13 SSB queries, PipelineMode::kFused, SF 0.5,
//    128 KiB blocks (in-cache star-join probes, fused fact-table chains).
//
// Set-up generates the database from the seed, then runs one profiling
// pass (UoT 1, vectorized, intermediates kept) whose executed plans feed
// CostModelUotChooser::EstimatesFromExecutedPlan + ChoosePlan, and whose
// results are the reference rows. Every timed pass rebuilds each plan,
// pins the cached choices with AnnotatePlan (the server's cache-hit path),
// executes it on a 4-worker Engine and checks the result rows.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "exec/engine.h"
#include "exec/query_executor.h"
#include "model/uot_chooser.h"
#include "operators/aggregate_operator.h"
#include "operators/build_hash_operator.h"
#include "operators/probe_hash_operator.h"
#include "operators/select_operator.h"
#include "ssb/ssb_generator.h"
#include "ssb/ssb_queries.h"
#include "storage/storage_manager.h"
#include "tpch/tpch_generator.h"
#include "tpch/tpch_queries.h"

namespace uotbench {
namespace {

constexpr size_t kBlockBytes = 128 * 1024;
constexpr double kScaleFactor = 0.5;
constexpr double kMiB = 1024.0 * 1024.0;

enum OpKind { kSelect, kBuild, kProbe, kAggregate, kFused, kOther, kNumKinds };
const char* const kKindNames[kNumKinds] = {"select",    "build", "probe",
                                           "aggregate", "fused", "other"};

/// One suite: which queries, how to make the data and the plans.
struct SuiteSpec {
  std::string prefix;  // query metric prefix: "tpch_q" / "ssb_q"
  std::vector<int> queries;
  uot::PipelineMode mode = uot::PipelineMode::kVectorized;
  /// Generates the database into `storage` and returns a plan factory.
  std::function<std::function<std::unique_ptr<uot::QueryPlan>(int)>(
      uot::StorageManager* storage, double sf, uint64_t seed)>
      make;
};

/// Everything set-up leaves behind for the timed passes.
struct SuiteState {
  // Declared so that destruction runs engine, then the plan factory (which
  // owns the database), then the storage manager.
  std::unique_ptr<uot::StorageManager> storage;
  std::function<std::unique_ptr<uot::QueryPlan>(int)> build;
  std::unique_ptr<uot::Engine> engine;
  std::vector<std::vector<uot::UotChoice>> choices;  // per query
  std::vector<std::string> reference;                // per query rows
  double choose_ms = 0;                              // model time
};

/// Per-pass sums of what ExecutionStats and the timed calls report.
struct PassStats {
  std::vector<double> query_ms;  // build + execute + release, per query
  double pass_wall_ms = 0;       // whole pass including result checks
  double check_ms = 0;           // result checks (benchmark overhead)
  double plan_build_ms = 0;
  double exec_call_ms = 0;
  double session_query_ms = 0;  // ExecutionStats::QueryMillis
  double admission_wait_ms = 0;
  double busy_ms = 0;           // from WorkOrderRecords
  double op_task_ms = 0;        // from OperatorStats
  double over_capacity_ms = 0;  // busy beyond workers x wall, per query
  double negative_overhead_ms = 0;
  uint64_t work_orders = 0;
  uint64_t transfers = 0;
  uint64_t blocks_produced = 0;
  double bytes_delivered = 0;
  double kind_ms[kNumKinds] = {};
  uint64_t kind_wo[kNumKinds] = {};
  uint64_t fused_chains = 0;
  uint64_t fused_work_orders = 0;
  uint64_t fused_interior_edges = 0;
  double peak_temp = 0;
  double peak_hash = 0;
  double peak_mem = 0;  // max over queries of temp + hash peak
};

OpKind Classify(const uot::Operator* op) {
  if (dynamic_cast<const uot::BuildHashOperator*>(op) != nullptr) {
    return kBuild;
  }
  if (dynamic_cast<const uot::ProbeHashOperator*>(op) != nullptr) {
    return kProbe;
  }
  if (dynamic_cast<const uot::AggregateOperator*>(op) != nullptr) {
    return kAggregate;
  }
  if (dynamic_cast<const uot::SelectOperator*>(op) != nullptr) return kSelect;
  return kOther;
}

/// Folds one query's ExecutionStats into the pass sums.
void Accumulate(const uot::QueryPlan& plan, const uot::ExecutionStats& stats,
                PassStats* pass) {
  std::set<int> fused_ops;
  for (const uot::FusedChainStats& chain : stats.fused_chains) {
    fused_ops.insert(chain.ops.begin(), chain.ops.end());
    pass->fused_work_orders += chain.work_orders;
  }
  pass->fused_chains += stats.fused_chains.size();
  for (size_t i = 0; i < stats.operators.size(); ++i) {
    const uot::OperatorStats& os = stats.operators[i];
    const int op = static_cast<int>(i);
    const OpKind kind =
        fused_ops.count(op) > 0 ? kFused : Classify(plan.op(op));
    pass->kind_ms[kind] += os.total_task_ms();
    pass->kind_wo[kind] += os.num_work_orders;
    pass->op_task_ms += os.total_task_ms();
  }
  double busy_ms = 0;
  for (const uot::WorkOrderRecord& r : stats.records) {
    busy_ms += NsToMs(r.duration_ns());
  }
  const double query_ms = stats.QueryMillis();
  pass->busy_ms += busy_ms;
  pass->over_capacity_ms +=
      std::max(0.0, busy_ms - kWorkers * query_ms);
  pass->work_orders += stats.records.size();
  pass->session_query_ms += query_ms;
  pass->admission_wait_ms += NsToMs(stats.admission_wait_ns);
  for (const uot::EdgeStats& e : stats.edges) {
    pass->transfers += e.transfers;
    pass->blocks_produced += e.blocks_produced;
    pass->bytes_delivered += static_cast<double>(e.bytes_delivered);
    if (e.fused) ++pass->fused_interior_edges;
  }
  const double temp = static_cast<double>(stats.PeakTemporaryBytes());
  const double hash = static_cast<double>(stats.PeakHashTableBytes());
  pass->peak_temp = std::max(pass->peak_temp, temp);
  pass->peak_hash = std::max(pass->peak_hash, hash);
  pass->peak_mem = std::max(pass->peak_mem, temp + hash);
}

/// Set-up: data, engine, profiling pass, model choices, reference rows.
bool SetUp(const SuiteSpec& spec, double sf, uint64_t seed, SuiteState* st) {
  st->storage = std::make_unique<uot::StorageManager>();
  st->build = spec.make(st->storage.get(), sf, seed);
  uot::EngineConfig engine_config;
  engine_config.num_workers = kWorkers;
  st->engine = std::make_unique<uot::Engine>(engine_config);

  uot::CostModelUotChooser::Options chooser_options;
  chooser_options.threads = kWorkers;
  const uot::CostModelUotChooser chooser(chooser_options);
  st->choices.clear();
  st->reference.clear();
  st->choose_ms = 0;
  for (int q : spec.queries) {
    std::unique_ptr<uot::QueryPlan> plan = st->build(q);
    uot::ExecConfig exec;
    exec.num_workers = kWorkers;
    exec.drop_consumed_blocks = false;  // estimates read intermediates
    uot::ExecutionStats stats;
    const uot::Status status = st->engine->ExecuteOrReject(plan.get(), exec,
                                                           &stats);
    if (!status.ok()) {
      std::fprintf(stderr, "uotbench: profiling q%d failed: %s\n", q,
                   status.ToString().c_str());
      return false;
    }
    st->reference.push_back(uot::CanonicalRows(*plan->result_table()));
    const int64_t t0 = uot::NowNanos();
    const std::vector<uot::EdgeEstimate> estimates =
        uot::CostModelUotChooser::EstimatesFromExecutedPlan(*plan);
    st->choices.push_back(chooser.ChoosePlan(*plan, estimates));
    st->choose_ms += NsToMs(uot::NowNanos() - t0);
  }
  return true;
}

/// One serial pass over the suite.
PassStats RunPass(const SuiteSpec& spec, SuiteState* st, SpanRecorder* spans,
                  uint64_t* next_request, Result* result) {
  PassStats pass;
  const int64_t pass_start = uot::NowNanos();
  for (size_t i = 0; i < spec.queries.size(); ++i) {
    const int q = spec.queries[i];
    const std::string qname = spec.prefix + std::to_string(q);
    const uint64_t request = ++*next_request;

    const int64_t t0 = uot::NowNanos();
    std::unique_ptr<uot::QueryPlan> plan = st->build(q);
    uot::CostModelUotChooser::AnnotatePlan(plan.get(), st->choices[i]);
    const int64_t t1 = uot::NowNanos();
    uot::ExecConfig exec;
    exec.num_workers = kWorkers;
    exec.pipeline_mode = spec.mode;
    uot::ExecutionStats stats;
    const uot::Status status = st->engine->ExecuteOrReject(plan.get(), exec,
                                                           &stats);
    const int64_t t2 = uot::NowNanos();
    bool ok = status.ok();
    if (ok) {
      ok = SameRows(st->reference[i],
                    uot::CanonicalRows(*plan->result_table()));
      if (!ok) std::fprintf(stderr, "uotbench: %s result differs\n",
                            qname.c_str());
      Accumulate(*plan, stats, &pass);
    } else {
      std::fprintf(stderr, "uotbench: %s failed: %s\n", qname.c_str(),
                   status.ToString().c_str());
    }
    const int64_t t3 = uot::NowNanos();
    plan.reset();
    const int64_t t4 = uot::NowNanos();
    result->Count(ok);

    const double call_ms = NsToMs(t2 - t1);
    pass.query_ms.push_back(NsToMs((t2 - t0) + (t4 - t3)));
    pass.plan_build_ms += NsToMs(t1 - t0);
    pass.exec_call_ms += call_ms;
    pass.check_ms += NsToMs(t3 - t2);
    if (status.ok()) {
      pass.negative_overhead_ms +=
          std::max(0.0, stats.QueryMillis() - call_ms);
    }

    if (spans->enabled()) {
      const uint64_t top = spans->Record("bench", "query " + qname, t0, t4,
                                         request);
      spans->Record("plan", "BuildPlan+AnnotatePlan " + qname, t0, t1,
                    request, top);
      const uint64_t call = spans->Record("exec", "Engine::Execute " + qname,
                                          t1, t2, request, top);
      spans->Record("bench", "check " + qname, t2, t3, request, top);
      spans->Record("storage", "release " + qname, t3, t4, request, top);
      if (status.ok()) {
        const uint64_t session =
            spans->Record("scheduler", "session " + qname,
                          stats.query_start_ns, stats.query_end_ns, request,
                          call, 1);
        // One span per operator, from its first work order to its last.
        for (const uot::OperatorStats& os : stats.operators) {
          if (os.num_work_orders == 0) continue;
          spans->Record("operators", os.name, os.first_start_ns,
                        os.last_end_ns, request, session, 2);
        }
      }
    }
  }
  pass.pass_wall_ms = NsToMs(uot::NowNanos() - pass_start);
  spans->Record("bench", spec.prefix + "pass", pass_start, uot::NowNanos(), 0);
  return pass;
}

double MedianOf(const std::vector<PassStats>& passes,
                const std::function<double(const PassStats&)>& field) {
  std::vector<double> v;
  for (const PassStats& p : passes) v.push_back(field(p));
  return Median(v);
}

bool RunSuite(const SuiteSpec& spec, const RunOptions& options,
              Result* result) {
  const double sf =
      options.scale_factor > 0 ? options.scale_factor : kScaleFactor;
  std::printf("%s\n", MetaJson(options, sf).c_str());
  SpanRecorder spans(options.trace);

  // Set-up, repeated; the last state is kept for the timed passes.
  std::vector<double> setup_s;
  std::vector<double> choose_ms;
  std::unique_ptr<SuiteState> state;
  for (int rep = 0; rep < std::max(1, options.setup_reps); ++rep) {
    state.reset();
    state = std::make_unique<SuiteState>();
    const int64_t t0 = uot::NowNanos();
    if (!SetUp(spec, sf, options.seed, state.get())) return false;
    const int64_t t1 = uot::NowNanos();
    setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    choose_ms.push_back(state->choose_ms);
    spans.Record("bench", "set-up", t0, t1, 0);
    std::fprintf(stderr, "uotbench: set-up %d: %.3f s\n", rep,
                 setup_s.back());
  }

  // Timed passes until the budget is spent (a traced run alternates
  // untraced and traced passes to measure the span overhead).
  std::vector<PassStats> passes;
  std::vector<double> untraced_ms, traced_ms;
  uint64_t next_request = 0;
  const int min_passes = options.trace ? 2 : 1;
  const int64_t start = uot::NowNanos();
  double last_pass_s = 0;
  while (static_cast<int>(passes.size()) < min_passes ||
         static_cast<double>(uot::NowNanos() - start) / 1e9 + last_pass_s <=
             options.seconds) {
    const bool traced = options.trace && passes.size() % 2 == 1;
    spans.set_enabled(traced);
    passes.push_back(RunPass(spec, state.get(), &spans, &next_request, result));
    const PassStats& p = passes.back();
    last_pass_s = p.pass_wall_ms / 1e3;
    double suite_ms = 0;
    for (double ms : p.query_ms) suite_ms += ms;
    (traced ? traced_ms : untraced_ms).push_back(suite_ms);
    std::fprintf(stderr, "uotbench: pass %zu: %.1f ms\n", passes.size(),
                 suite_ms);
  }
  spans.set_enabled(options.trace);

  if (!options.trace) {
    // Each query's time is its median over the passes, so a burst of
    // outside load in one pass does not move the suite figures.
    std::vector<double> query_ms;
    double suite_ms = 0;
    for (size_t i = 0; i < spec.queries.size(); ++i) {
      query_ms.push_back(
          MedianOf(passes, [i](const PassStats& p) { return p.query_ms[i]; }));
      suite_ms += query_ms.back();
    }
    result->Set("setup_s", Median(setup_s), "s");
    result->Set("suite_s", suite_ms / 1e3, "s");
    result->Set("query_geomean_ms", Geomean(query_ms), "ms");
    result->Set("peak_mem_mb", MedianOf(passes, [](const PassStats& p) {
                  return p.peak_mem / kMiB;
                }), "MB");
    result->Set("p50_ms", Quantile(query_ms, 0.5), "ms");
    result->Set("p99_ms", Quantile(query_ms, 0.99), "ms");
    result->Set("capacity_qps",
                1e3 * static_cast<double>(query_ms.size()) / suite_ms, "1/s");
    return true;
  }

  // Per-layer metrics: medians over all passes.
  std::map<std::string, double> m;
  m["model.choose_ms"] = Median(choose_ms);
  m["plan.build_ms"] = MedianOf(passes, [](const PassStats& p) {
    return p.plan_build_ms;
  });
  m["exec.call_ms"] = MedianOf(passes, [](const PassStats& p) {
    return p.exec_call_ms;
  });
  m["exec.session_overhead_ms"] = MedianOf(passes, [](const PassStats& p) {
    return p.exec_call_ms - p.session_query_ms;
  });
  m["exec.admission_wait_ms"] = MedianOf(passes, [](const PassStats& p) {
    return p.admission_wait_ms;
  });
  m["scheduler.query_ms"] = MedianOf(passes, [](const PassStats& p) {
    return p.session_query_ms;
  });
  m["scheduler.worker_busy_ms"] = MedianOf(passes, [](const PassStats& p) {
    return p.busy_ms;
  });
  m["scheduler.worker_idle_frac"] = MedianOf(passes, [](const PassStats& p) {
    const double capacity = kWorkers * p.session_query_ms;
    return capacity > 0 ? 1.0 - p.busy_ms / capacity : 0.0;
  });
  m["scheduler.work_orders"] = MedianOf(passes, [](const PassStats& p) {
    return static_cast<double>(p.work_orders);
  });
  m["scheduler.gap_us_per_work_order"] =
      MedianOf(passes, [](const PassStats& p) {
        if (p.work_orders == 0) return 0.0;
        return 1e3 * (kWorkers * p.session_query_ms - p.busy_ms) /
               static_cast<double>(p.work_orders);
      });
  m["scheduler.transfers"] = MedianOf(passes, [](const PassStats& p) {
    return static_cast<double>(p.transfers);
  });
  m["scheduler.blocks_produced"] = MedianOf(passes, [](const PassStats& p) {
    return static_cast<double>(p.blocks_produced);
  });
  m["scheduler.bytes_delivered_mb"] = MedianOf(passes, [](const PassStats& p) {
    return p.bytes_delivered / kMiB;
  });
  for (int k = 0; k < kNumKinds; ++k) {
    const std::string base = std::string("operators.") + kKindNames[k];
    m[base + ".task_ms"] = MedianOf(passes, [k](const PassStats& p) {
      return p.kind_ms[k];
    });
    m[base + ".work_orders"] = MedianOf(passes, [k](const PassStats& p) {
      return static_cast<double>(p.kind_wo[k]);
    });
  }
  m["fused.chains"] = MedianOf(passes, [](const PassStats& p) {
    return static_cast<double>(p.fused_chains);
  });
  m["fused.work_orders"] = MedianOf(passes, [](const PassStats& p) {
    return static_cast<double>(p.fused_work_orders);
  });
  m["fused.interior_edges"] = MedianOf(passes, [](const PassStats& p) {
    return static_cast<double>(p.fused_interior_edges);
  });
  m["storage.peak_temp_mb"] = MedianOf(passes, [](const PassStats& p) {
    return p.peak_temp / kMiB;
  });
  m["storage.peak_hash_table_mb"] = MedianOf(passes, [](const PassStats& p) {
    return p.peak_hash / kMiB;
  });
  for (size_t i = 0; i < spec.queries.size(); ++i) {
    m["query." + spec.prefix + std::to_string(spec.queries[i]) + "_ms"] =
        MedianOf(passes, [i](const PassStats& p) { return p.query_ms[i]; });
  }

  // Parts against wholes, each as a share of its whole; the worst one is
  // residual_frac.
  double residual = 0;
  for (const PassStats& p : passes) {
    double accounted = p.check_ms;
    for (double ms : p.query_ms) accounted += ms;
    const double kinds = [&p] {
      double s = 0;
      for (double ms : p.kind_ms) s += ms;
      return s;
    }();
    const double capacity = kWorkers * p.session_query_ms;
    residual = std::max(
        {residual, std::abs(p.pass_wall_ms - accounted) / p.pass_wall_ms,
         p.busy_ms > 0 ? std::abs(kinds - p.busy_ms) / p.busy_ms : 0.0,
         p.busy_ms > 0 ? std::abs(p.op_task_ms - p.busy_ms) / p.busy_ms : 0.0,
         capacity > 0 ? p.over_capacity_ms / capacity : 0.0,
         p.exec_call_ms > 0 ? p.negative_overhead_ms / p.exec_call_ms : 0.0});
  }
  m["residual_frac"] = residual;
  m["trace.overhead_frac"] =
      untraced_ms.empty() || traced_ms.empty()
          ? 0.0
          : Median(traced_ms) / Median(untraced_ms) - 1.0;
  FinishTracedRun(options, spans, &m, result);
  return true;
}

}  // namespace

bool RunTpchVectorized(const RunOptions& options, Result* result) {
  SuiteSpec spec;
  spec.prefix = "tpch_q";
  spec.queries = uot::SupportedTpchQueries();
  spec.mode = uot::PipelineMode::kVectorized;
  spec.make = [](uot::StorageManager* storage, double sf, uint64_t seed) {
    auto db = std::make_shared<uot::TpchDatabase>(storage);
    uot::TpchConfig config;
    config.scale_factor = sf;
    config.layout = uot::Layout::kColumnStore;
    config.block_bytes = kBlockBytes;
    config.seed = seed;
    db->Generate(config);
    uot::TpchPlanConfig plan_config;
    plan_config.block_bytes = kBlockBytes;
    return std::function<std::unique_ptr<uot::QueryPlan>(int)>(
        [db, plan_config](int q) {
          return uot::BuildTpchPlan(q, *db, plan_config);
        });
  };
  return RunSuite(spec, options, result);
}

bool RunSsbFused(const RunOptions& options, Result* result) {
  SuiteSpec spec;
  spec.prefix = "ssb_q";
  spec.queries = uot::SupportedSsbQueries();
  spec.mode = uot::PipelineMode::kFused;
  spec.make = [](uot::StorageManager* storage, double sf, uint64_t seed) {
    auto db = std::make_shared<uot::SsbDatabase>(storage);
    uot::SsbConfig config;
    config.scale_factor = sf;
    config.layout = uot::Layout::kColumnStore;
    config.block_bytes = kBlockBytes;
    config.seed = seed;
    db->Generate(config);
    uot::PlanBuilderConfig plan_config;
    plan_config.block_bytes = kBlockBytes;
    return std::function<std::unique_ptr<uot::QueryPlan>(int)>(
        [db, plan_config](int q) {
          return uot::BuildSsbPlan(q, *db, plan_config);
        });
  };
  return RunSuite(spec, options, result);
}

}  // namespace uotbench
