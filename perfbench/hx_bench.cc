// The repository benchmark: three workloads on the modeled CPU-GPU server,
// each reported on two clocks — modeled virtual time (what the paper's figures
// report) and host wall time of the C++ simulator.
//
//   hx_bench --workload {ssb_stream|ssb_resident|serve_zipf} --seed N
//            --seconds S --trace {0|1}
//
// --trace 0 measures the end-to-end metrics with no per-call timing; --trace 1
// is a separate invocation over the same seed and queries that times the
// calls into each layer's public entry points and reads the per-layer
// counters. Every completed query's rows are compared with
// ssb::ReferenceExecute; any mismatch makes the run exit nonzero. The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. README.md lists the workloads, metrics and the layer map.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <malloc.h>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "core/compiler.h"
#include "core/executor.h"
#include "core/graph_builder.h"
#include "core/scheduler.h"
#include "core/system.h"
#include "jit/vectorizer.h"
#include "plan/het_plan.h"
#include "plan/optimizer.h"
#include "ssb/reference.h"
#include "ssb/ssb.h"

namespace hetex::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using Rows = std::vector<std::vector<int64_t>>;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ------------------------------------------------------------------ workloads

/// Closed-loop clients = the scheduler's admission cap (the serving benches'
/// default), one per host core of the simulated 2 x 2-core server.
constexpr int kClients = 4;
/// Set-ups per run; setup_s reports their median.
constexpr int kSetupReps = 3;
/// Closed loop: the 13 SSB queries in paper order, repeated this many times
/// per batch. All of a batch is submitted at offset 0 and the admission cap
/// turns it into kClients closed-loop clients in modeled time: each completion
/// admits the next query at the completion's virtual time.
constexpr int kBatchRounds = 4;

/// Open loop (serve_zipf). Offered rates are constants of the workload, in
/// modeled queries per second, and are never recalibrated at run time. The
/// middle rate loads the admission slots to roughly 40%, where the p99 holds
/// steady across seeds; the top rate exceeds the ~76k q/s the mix sustains,
/// so its queue grows.
constexpr double kRates[] = {15000, 30000, 90000};
constexpr int kMidRate = 1;
/// Queries per rate segment. A segment is submitted whole (its Poisson
/// arrival offsets shape the virtual timeline), drained, and followed by
/// table mutations — the workload's writes — before the next segment starts.
constexpr int kSegment = 120;
/// p99 client-latency limit for slo_qps, modeled seconds.
constexpr double kSloP99 = 5.0e-4;
/// Parameterized variants of the 13 SSB queries and their Zipf skew. With
/// the writes below, about 35% of completed queries hit the result cache:
/// hits and misses both stay well above a quarter, and the median latency
/// stays inside the miss mode instead of flipping between the two modes.
constexpr int kVariants = 390;
constexpr double kZipfS = 0.8;
/// Writes after each segment, rotating over kMutatedTables.
constexpr int kMutationsPerSegment = 2;
/// Tables whose NoteMutation() the write events rotate through.
const char* const kMutatedTables[] = {"lineorder", "part", "supplier",
                                      "customer", "date"};

struct WorkloadDef {
  const char* name;
  bool open_loop;
  uint64_t fact_rows;
  /// Paper scale factor of the regime this miniature reproduces: fixed
  /// latencies shrink by (fact_rows / 6M) / paper_sf, the SsbBenchEnv
  /// convention, so per-query constants like router init do not dominate.
  double paper_sf;
  uint64_t gpu_capacity;  ///< modeled memory per GPU
  bool fact_on_gpu;
  bool reuse;
  /// Customer and supplier rows (0 = derived from the scale). The closed
  /// loops use the SF1 sizes: at SF0.1 a city filter selects 0 to 3 of 200
  /// suppliers, so Q3.3/Q3.4 and the latency tail would change with the
  /// data seed.
  uint64_t customer_rows;
  uint64_t supplier_rows;
};

// ssb_stream: host-resident fact larger than aggregate modeled GPU memory
// (Fig. 5): every query streams the fact table over PCIe and CPU DRAM. 600k
// fact rows (21.6 MB against 2 x 8 MiB) keep a 25 s run above the 1000
// queries a p99 needs on a 4-core host.
// ssb_resident: the same fact partitioned across the GPU memories (Fig. 4).
// serve_zipf: small data, so the fixed host cost per query dominates, with
// result cache and shared builds on.
const WorkloadDef kWorkloads[] = {
    {"ssb_stream", false, 600'000, 1000, 8ull << 20, false, false, 30'000, 2'000},
    {"ssb_resident", false, 600'000, 100, 1ull << 30, true, false, 30'000, 2'000},
    {"serve_zipf", true, 60'000, 100, 1ull << 30, false, true, 0, 0},
};

core::System::Options SystemOptions(const WorkloadDef& w) {
  core::System::Options opts;
  opts.topology.num_sockets = 2;
  opts.topology.cores_per_socket = 2;
  opts.topology.num_gpus = 2;
  opts.topology.gpu_sim_threads = 2;
  opts.topology.host_capacity_per_socket = 4ull << 30;
  opts.topology.gpu_capacity = w.gpu_capacity;
  const double sf = static_cast<double>(w.fact_rows) / 6e6;
  opts.topology.cost_model.ScaleFixedLatencies(sf / w.paper_sf);
  opts.blocks.block_bytes = 64 << 10;
  opts.blocks.host_arena_blocks = 512;
  opts.blocks.gpu_arena_blocks = 256;
  // Tier 2 and fault injection stay off whatever the environment says.
  opts.codegen = jit::CodegenOptions{};
  opts.faults = sim::FaultOptions{};
  opts.reuse = core::ReuseOptions{};
  opts.reuse.shared_builds = w.reuse;
  opts.reuse.result_cache = w.reuse;
  return opts;
}

// ------------------------------------------------------------ query variants

/// Operator of a binary node, recovered from its canonical text
/// "(<lhs> <op> <rhs>)" (Expr exposes its children but not its operator).
std::string OpText(const plan::Expr& e) {
  const std::string s = e.ToString();
  const size_t l = e.lhs()->ToString().size();
  const size_t r = e.rhs()->ToString().size();
  return s.substr(l + 2, s.size() - l - r - 4);
}

plan::Expr::BinOp OpOf(const std::string& op) {
  using B = plan::Expr::BinOp;
  static const std::map<std::string, B> kOps = {
      {"<", B::kLt}, {"<=", B::kLe}, {">", B::kGt},   {">=", B::kGe},
      {"=", B::kEq}, {"!=", B::kNe}, {"AND", B::kAnd}, {"OR", B::kOr}};
  return kOps.at(op);
}

/// Sorted distinct values of every dimension/fact column, the literal domain
/// variant filters draw from.
class Domains {
 public:
  explicit Domains(const storage::Catalog& catalog) : catalog_(catalog) {}

  const std::vector<int64_t>& Of(const std::string& col) {
    auto it = values_.find(col);
    if (it != values_.end()) return it->second;
    static const std::map<std::string, std::string> kTableOf = {
        {"lo", "lineorder"}, {"d", "date"}, {"c", "customer"},
        {"s", "supplier"},   {"p", "part"}};
    const storage::Table& t =
        catalog_.at(kTableOf.at(col.substr(0, col.find('_'))));
    const storage::Column& c = t.column(col);
    std::set<int64_t> distinct;
    for (uint64_t r = 0; r < c.rows(); ++r) distinct.insert(c.At(r));
    return values_[col] = std::vector<int64_t>(distinct.begin(), distinct.end());
  }

 private:
  const storage::Catalog& catalog_;
  std::map<std::string, std::vector<int64_t>> values_;
};

bool IsColLit(const plan::ExprPtr& e) {
  return e->kind() == plan::Expr::Kind::kBin &&
         e->lhs()->kind() == plan::Expr::Kind::kCol &&
         e->rhs()->kind() == plan::Expr::Kind::kConst;
}

/// Redraws every filter literal from its column's domain, keeping the
/// predicate shape: `col op lit` takes a uniform domain value, and a
/// BETWEEN (`col >= lo AND col <= hi`) slides its window, keeping its width.
plan::ExprPtr Redraw(const plan::ExprPtr& e, Domains* domains, Rng* rng) {
  if (e == nullptr || e->kind() != plan::Expr::Kind::kBin) return e;
  const std::string op = OpText(*e);
  if (op == "AND" && IsColLit(e->lhs()) && IsColLit(e->rhs()) &&
      OpText(*e->lhs()) == ">=" && OpText(*e->rhs()) == "<=" &&
      e->lhs()->lhs()->ToString() == e->rhs()->lhs()->ToString()) {
    const std::string col = e->lhs()->lhs()->ToString();
    const int64_t width = std::stoll(e->rhs()->rhs()->ToString()) -
                          std::stoll(e->lhs()->rhs()->ToString());
    const std::vector<int64_t>& dom = domains->Of(col);
    std::vector<int64_t> starts;
    for (int64_t v : dom) {
      if (v + width <= dom.back()) starts.push_back(v);
    }
    if (starts.empty()) return e;
    const int64_t lo = starts[rng->Uniform(starts.size())];
    return plan::Between(plan::Col(col), lo, lo + width);
  }
  if (op == "AND" || op == "OR") {
    return plan::Expr::Bin(OpOf(op), Redraw(e->lhs(), domains, rng),
                           Redraw(e->rhs(), domains, rng));
  }
  if (IsColLit(e)) {
    const std::string col = e->lhs()->ToString();
    const std::vector<int64_t>& dom = domains->Of(col);
    return plan::Expr::Bin(OpOf(op), plan::Col(col),
                           plan::Lit(dom[rng->Uniform(dom.size())]));
  }
  return e;
}

plan::QuerySpec Variant(const plan::QuerySpec& base, int id, Domains* domains,
                        Rng* rng) {
  plan::QuerySpec v = base;
  v.name = base.name + "#" + std::to_string(id);
  v.fact_filter = Redraw(base.fact_filter, domains, rng);
  for (auto& j : v.joins) j.build_filter = Redraw(j.build_filter, domains, rng);
  return v;
}

// ------------------------------------------------------------------- set-up

/// One benchmark environment: the modeled server, the SSB database and the
/// generated inputs. Everything here is a function of the workload and seed.
struct Env {
  std::unique_ptr<core::System> system;
  std::unique_ptr<ssb::Ssb> ssb;
  std::vector<plan::QuerySpec> pool;  ///< distinct queries the run draws from
  std::vector<Rows> reference;        ///< per pool entry
  /// Open loop: pool index of every query, unit-rate exponential arrival
  /// gaps, generated before any query is submitted.
  std::vector<int> draws;
  std::vector<double> gaps;
};

std::unique_ptr<Env> SetUp(const WorkloadDef& w, uint64_t seed) {
  auto env = std::make_unique<Env>();
  env->system = std::make_unique<core::System>(SystemOptions(w));
  core::System& sys = *env->system;

  ssb::Ssb::Options ssb_opts;
  ssb_opts.lineorder_rows = w.fact_rows;
  ssb_opts.scale = static_cast<double>(w.fact_rows) / 6e6;
  ssb_opts.seed = seed;
  ssb_opts.customer_rows = w.customer_rows;
  ssb_opts.supplier_rows = w.supplier_rows;
  env->ssb = std::make_unique<ssb::Ssb>(ssb_opts, &sys.catalog());
  for (const char* t : {"lineorder", "date", "customer", "supplier", "part"}) {
    HETEX_CHECK_OK(sys.catalog().at(t).Place(sys.HostNodes(), &sys.memory()));
  }
  if (w.fact_on_gpu) {
    HETEX_CHECK_OK(
        sys.catalog().at("lineorder").Place(sys.GpuNodes(), &sys.memory()));
  }

  const std::vector<plan::QuerySpec> base = env->ssb->AllQueries();
  if (!w.open_loop) {
    env->pool = base;
  } else {
    Rng rng(seed ^ 0x5E7'7E5Dull);
    Domains domains(sys.catalog());
    for (int i = 0; i < kVariants; ++i) {
      env->pool.push_back(
          Variant(base[static_cast<size_t>(i) % base.size()], i, &domains, &rng));
    }
    // Zipf over pool ranks; the sequence is long enough for any run length
    // the time limit allows (a run stops early when time is up).
    std::vector<double> cdf(env->pool.size());
    double sum = 0;
    for (size_t r = 0; r < cdf.size(); ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
      cdf[r] = sum;
    }
    const size_t n = kSegment * std::size(kRates) * 1000;
    for (size_t i = 0; i < n; ++i) {
      const double u = rng.NextDouble() * sum;
      env->draws.push_back(static_cast<int>(
          std::min<size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
                           cdf.size() - 1)));
      env->gaps.push_back(-std::log(1.0 - rng.NextDouble()));
    }
  }

  // Reference rows, once per distinct query content.
  std::map<std::string, Rows> by_key;
  const auto reference = [&](const plan::QuerySpec& spec) -> const Rows& {
    auto [it, fresh] = by_key.try_emplace(plan::CanonicalSpecKey(spec));
    if (fresh) it->second = ssb::ReferenceExecute(spec, sys.catalog());
    return it->second;
  };
  for (const auto& spec : env->pool) env->reference.push_back(reference(spec));

  // Warm pass: each of the 13 SSB queries once, so the program cache holds
  // their programs before measuring. Variants keep their distinct literals,
  // and so their distinct programs, for the measured phase.
  core::QueryExecutor executor(&sys);
  for (const auto& spec : base) {
    const core::QueryResult r = executor.Execute(spec);
    HETEX_CHECK(r.status.ok()) << spec.name << ": " << r.status.ToString();
    HETEX_CHECK(r.rows == reference(spec))
        << spec.name << ": warm-pass rows differ from the reference";
  }
  return env;
}

// ----------------------------------------------------------- measured phase

/// Counters read as deltas around a measured phase.
struct Counters {
  core::ProgramCache::Counters cpu, gpu;
  core::ResultCache::Stats results;
  core::HtRegistry::SharedStats shared;
  jit::VectorizerCounters vec;

  static Counters Read(core::System& sys) {
    Counters c;
    c.cpu = sys.program_cache().counters(sim::DeviceType::kCpu);
    c.gpu = sys.program_cache().counters(sim::DeviceType::kGpu);
    if (sys.result_cache() != nullptr) c.results = sys.result_cache()->stats();
    c.shared = sys.hts().shared_stats();
    c.vec = jit::GetVectorizerCounters();
    return c;
  }
};

/// What one measured phase observed, from the queries' results.
struct Phase {
  int attempted = 0;
  int failed = 0;  ///< non-OK status or rows differing from the reference
  int completed = 0;
  int cache_hits = 0;
  int retries = 0;
  std::vector<double> latency;     ///< modeled client latency (closed loop)
  std::vector<double> queue_wait;  ///< modeled admission wait (open loop)
  double modeled_span = 0;         ///< summed batch / segment makespans
  double host_seconds = 0;
  /// Completed queries per host second of each batch (closed loop) or round
  /// of segments (open loop); host_qps is their median, which a transient
  /// stall of the shared host moves less than the whole-phase mean.
  std::vector<double> host_rate;
  /// Pool index of each query that ran a plan (not a result-cache hit).
  std::vector<int> executed_pool;
  sim::CostStats stats;  ///< summed over executed queries
  /// Open loop, per offered rate.
  std::vector<double> rate_span, rate_completed;
  std::vector<std::vector<double>> rate_latency;
};

/// Submits the pool queries `order` (arrival offsets `offsets`; none = a
/// closed-loop batch), waits for all of them in order and records them, their
/// client latencies into `latency_out`. Returns the makespan: last completion
/// minus first arrival, in modeled seconds.
double RunBusyPeriod(Env& env, core::QueryScheduler& sched,
                     const std::vector<int>& order,
                     const std::vector<double>& offsets, Phase* phase,
                     std::vector<double>* latency_out) {
  std::vector<core::QueryHandle> handles;
  handles.reserve(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    core::SubmitOptions opts;
    opts.arrival_offset = offsets.empty() ? 0 : offsets[i];
    handles.push_back(sched.Submit(env.pool[order[i]], opts));
  }
  double first_arrival = 0, last_end = 0;
  bool first = true;
  for (size_t i = 0; i < handles.size(); ++i) {
    const core::QueryResult r = sched.Wait(handles[i]);
    ++phase->attempted;
    phase->retries += r.retries;
    if (!r.status.ok() || r.rows != env.reference[order[i]]) {
      ++phase->failed;
      std::fprintf(stderr, "FAILED: %s %s\n", env.pool[order[i]].name.c_str(),
                   r.status.ok() ? "rows differ from the reference"
                                 : r.status.ToString().c_str());
      continue;
    }
    ++phase->completed;
    const double arrival = r.session_epoch - r.queue_wait;
    if (first || arrival < first_arrival) first_arrival = arrival;
    first = false;
    last_end = std::max(last_end, r.session_epoch + r.modeled_seconds);
    if (r.cache_hit) {
      ++phase->cache_hits;
    } else {
      phase->stats.Add(r.stats);
      phase->executed_pool.push_back(order[i]);
    }
    // A closed-loop client has no think time and the admission cap equals
    // the client count, so its admission wait is 0 by construction; the
    // scheduler's queue_wait there only measures the position in the batch.
    if (!offsets.empty()) phase->queue_wait.push_back(r.queue_wait);
    // Open loop: latency counts from the due time (queue wait included).
    // Closed loop: admission to completion.
    const double lat =
        offsets.empty() ? r.modeled_seconds : r.queue_wait + r.modeled_seconds;
    latency_out->push_back(lat);
  }
  return last_end - first_arrival;
}

/// Closed loop: batches of kBatchRounds x the 13 queries until `seconds`.
Phase RunClosedLoop(Env& env, double seconds) {
  Phase phase;
  core::QueryScheduler sched(env.system.get(), {.max_concurrent = kClients});
  std::vector<int> batch;
  for (int r = 0; r < kBatchRounds; ++r) {
    for (size_t q = 0; q < env.pool.size(); ++q) batch.push_back(static_cast<int>(q));
  }
  const auto t0 = Clock::now();
  do {
    const auto b0 = Clock::now();
    const int before = phase.completed;
    phase.modeled_span += RunBusyPeriod(env, sched, batch, {}, &phase, &phase.latency);
    phase.host_rate.push_back((phase.completed - before) / SecondsSince(b0));
  } while (SecondsSince(t0) < seconds);
  phase.host_seconds = SecondsSince(t0);
  return phase;
}

/// Open loop: rounds of one kSegment-query segment per offered rate, each
/// followed by kMutationsPerSegment table mutations, until `seconds` (whole
/// rounds only).
Phase RunOpenLoop(Env& env, double seconds) {
  Phase phase;
  constexpr size_t kNumRates = std::size(kRates);
  phase.rate_span.assign(kNumRates, 0);
  phase.rate_completed.assign(kNumRates, 0);
  phase.rate_latency.resize(kNumRates);
  core::QueryScheduler sched(env.system.get(), {.max_concurrent = kClients});
  size_t pos = 0;
  int mutations = 0;
  const auto t0 = Clock::now();
  do {
    const auto r0 = Clock::now();
    const int round_before = phase.completed;
    for (size_t k = 0; k < kNumRates; ++k) {
      std::vector<int> order(env.draws.begin() + pos,
                             env.draws.begin() + pos + kSegment);
      std::vector<double> offsets;
      double t = 0;
      for (int i = 0; i < kSegment; ++i) {
        t += env.gaps[pos + i] / kRates[k];
        offsets.push_back(t);
      }
      const int before = phase.completed;
      phase.rate_span[k] += RunBusyPeriod(env, sched, order, offsets, &phase,
                                          &phase.rate_latency[k]);
      phase.rate_completed[k] += phase.completed - before;
      for (int m = 0; m < kMutationsPerSegment; ++m) {
        env.system->catalog().at(kMutatedTables[mutations++ % std::size(kMutatedTables)]).NoteMutation();
      }
      pos += kSegment;
    }
    phase.host_rate.push_back((phase.completed - round_before) / SecondsSince(r0));
  } while (SecondsSince(t0) < seconds && pos + kNumRates * kSegment <= env.draws.size());
  phase.host_seconds = SecondsSince(t0);
  phase.modeled_span = phase.rate_span[kMidRate];
  return phase;
}

Phase RunWorkload(const WorkloadDef& w, Env& env, double seconds) {
  return w.open_loop ? RunOpenLoop(env, seconds) : RunClosedLoop(env, seconds);
}

// ------------------------------------------------------------ traced replay

/// Per-query layer timings of a one-client replay through the layers'
/// public entry points.
struct LayerTrace {
  int queries = 0;  ///< replayed queries (each ran twice: untimed and timed)
  int failed = 0;
  double untimed_seconds = 0, timed_seconds = 0;
  std::vector<double> optimize_ms, lower_ms, run_ms, est_ratio;
  double candidates = 0;
  double run_seconds = 0;
  uint64_t tuples = 0;
};

/// Runs one query with one client. Timed, each layer call is timed
/// separately: OptimizeAt, then ValidateHetPlan + GraphBuilder::Analyze, then
/// GraphBuilder::Run — the steps QueryExecutor::ExecutePlan performs.
/// Untimed, the same work goes through OptimizeAt + ExecutePlan. Returns the
/// host seconds of the whole query either way.
double RunLayers(Env& env, int q, bool timed, LayerTrace* t) {
  core::System& sys = *env.system;
  core::QueryExecutor executor(&sys);
  const plan::QuerySpec& spec = env.pool[q];
  const core::QuerySession session{sys.NextQueryId(), sys.VirtualHorizon()};
  plan::OptimizeResult opt;
  core::QueryResult result;
  const auto t0 = Clock::now();
  if (!timed) {
    result.status =
        executor.OptimizeAt(spec, plan::ExecPolicy{}, session.epoch, &opt);
    if (result.status.ok()) {
      result = executor.ExecutePlan(spec, opt.best().plan, session);
    }
  } else {
    auto c0 = Clock::now();
    result.status =
        executor.OptimizeAt(spec, plan::ExecPolicy{}, session.epoch, &opt);
    t->optimize_ms.push_back(SecondsSince(c0) * 1e3);
    if (result.status.ok()) {
      const plan::HetPlan& plan = opt.best().plan;
      c0 = Clock::now();
      core::GraphBuilder builder(&sys, &plan, &session);
      result.status = plan::ValidateHetPlan(plan);
      if (result.status.ok()) result.status = builder.Analyze();
      t->lower_ms.push_back(SecondsSince(c0) * 1e3);
      if (result.status.ok()) {
        core::QueryCompiler compiler(spec, sys.catalog(), sys.cost_model());
        c0 = Clock::now();
        result.status = builder.Run(&compiler, &result);
        const double run_s = SecondsSince(c0);
        sys.blocks().FlushReleases();
        t->run_ms.push_back(run_s * 1e3);
        t->run_seconds += run_s;
        t->tuples += result.stats.tuples;
        t->candidates += static_cast<double>(opt.ranked.size());
        if (result.status.ok() && result.modeled_seconds > 0) {
          t->est_ratio.push_back(opt.ranked.front().cost.total /
                                 result.modeled_seconds);
        }
      }
    }
  }
  const double host_s = SecondsSince(t0);
  if (!result.status.ok() || result.rows != env.reference[q]) {
    ++t->failed;
    std::fprintf(stderr, "FAILED (replay): %s %s\n", spec.name.c_str(),
                 result.status.ok() ? "rows differ from the reference"
                                    : result.status.ToString().c_str());
  }
  return host_s;
}

/// Replays `queries` serially until `seconds`, each one untimed and timed
/// back to back, alternating which goes first, so drift of the shared host
/// and cache warmth cancel out of the tracing overhead.
LayerTrace Replay(Env& env, const std::vector<int>& queries, double seconds) {
  LayerTrace t;
  const auto t0 = Clock::now();
  for (int q : queries) {
    if (SecondsSince(t0) >= seconds) break;
    const bool timed_first = t.queries % 2 == 1;
    for (bool timed : {timed_first, !timed_first}) {
      (timed ? t.timed_seconds : t.untimed_seconds) += RunLayers(env, q, timed, &t);
    }
    ++t.queries;
  }
  return t;
}

// ------------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

int Emit(const std::vector<Metric>& metrics, int attempted, int failed) {
  for (const Metric& m : metrics) {
    std::printf("metric %-36s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
              failed == 0 ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: hx_bench --workload {ssb_stream|ssb_resident|serve_zipf}"
               " --seed N --seconds S --trace {0|1}\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      return Usage();
    }
  }
  const WorkloadDef* w = nullptr;
  for (const auto& def : kWorkloads) {
    if (workload == def.name) w = &def;
  }
  if (w == nullptr || seconds <= 0 || (trace != 0 && trace != 1)) return Usage();

  std::printf("workload %s seed %llu seconds %g trace %d\n", w->name,
              static_cast<unsigned long long>(seed), seconds, trace);
  std::printf(
      "note: modeled time is the simulator's virtual time and has not been "
      "validated against hardware; only result rows are validated, against "
      "the scalar reference evaluator (ssb::ReferenceExecute)\n");

  // Set-up, repeated; the last environment is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<Env> env;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    // Hand a discarded environment's memory back to the OS, so peak_rss_mb
    // measures one environment whatever the allocator kept cached.
    env.reset();
    malloc_trim(0);
    const auto t0 = Clock::now();
    env = SetUp(*w, seed);
    setup_s.push_back(SecondsSince(t0));
  }
  core::System& sys = *env->system;
  if (!w->fact_on_gpu && !w->open_loop) {
    const storage::Table& fact = sys.catalog().at("lineorder");
    std::vector<std::string> cols;
    for (int c = 0; c < fact.num_columns(); ++c) {
      cols.push_back(fact.column(c).name());
    }
    HETEX_CHECK(fact.ColumnSetBytes(cols) >
                w->gpu_capacity * static_cast<uint64_t>(sys.num_gpus()))
        << "the streamed fact table (" << fact.ColumnSetBytes(cols)
        << " B) must exceed aggregate GPU memory";
  }

  if (trace == 0) {
    const Phase p = RunWorkload(*w, *env, seconds);
    std::printf("completed %d queries (%zu executed, %d result-cache hits) in "
                "%.3f host s\n",
                p.completed, p.executed_pool.size(), p.cache_hits, p.host_seconds);
    if (w->open_loop) {
      std::printf(
          "note: arrivals are virtual offsets on the modeled timeline, so the "
          "load generator cannot run late in modeled time (lateness 0 by "
          "construction)\n");
      double slo = 0;
      for (size_t k = 0; k < std::size(kRates); ++k) {
        const double achieved = Ratio(p.rate_completed[k], p.rate_span[k]);
        const double p99 = Quantile(p.rate_latency[k], 0.99);
        const bool ok = p99 <= kSloP99 && achieved >= 0.9 * kRates[k];
        if (ok) slo = kRates[k];
        std::printf("rate offered %.0f q/s: achieved %.1f q/s, p50 %.3g s, "
                    "p99 %.3g s over %.0f queries%s\n",
                    kRates[k], achieved, Quantile(p.rate_latency[k], 0.5), p99,
                    p.rate_completed[k], ok ? " (meets SLO)" : "");
      }
      std::printf("metric %-36s %.6g %s\n", "slo_qps", slo, "q/s");
    }
    const std::vector<double>& lat =
        w->open_loop ? p.rate_latency[kMidRate] : p.latency;
    std::printf("latency sample: %zu queries\n", lat.size());
    std::printf("metric %-36s %.6g %s\n", "failed_frac",
                Ratio(p.failed, p.attempted), "ratio");
    const double mid_completed =
        w->open_loop ? p.rate_completed[kMidRate] : p.completed;
    return Emit({{"modeled_qps", Ratio(mid_completed, p.modeled_span), "q/s"},
                 {"latency_p50_s", Quantile(lat, 0.50), "s"},
                 {"latency_p99_s", Quantile(lat, 0.99), "s"},
                 {"host_qps", Quantile(p.host_rate, 0.5), "q/s"},
                 {"setup_s", Quantile(setup_s, 0.5), "s"},
                 {"peak_rss_mb", PeakRssMb(), "MB"}},
                p.attempted, p.failed);
  }

  // Traced run. Leg A replays the scheduled workload exactly (same clients,
  // arrivals and writes) for the counters and modeled waits; leg B replays
  // its executed queries with one client through the layers' entry points,
  // untimed and timed, so the overhead compares equal concurrency.
  std::printf(
      "note: layer timings replay the workload's executed queries with one "
      "client; counters and queue waits come from the scheduled workload\n");
  const Counters before = Counters::Read(sys);
  const Phase a = RunWorkload(*w, *env, seconds / 2);
  const Counters after = Counters::Read(sys);
  sys.blocks().FlushReleases();
  uint64_t blocks_in_use = 0;
  for (sim::MemNodeId node : sys.HostNodes()) {
    sys.blocks().ReclaimNode(node, /*steal_prefetch=*/true);
    blocks_in_use += sys.blocks().manager(node).in_use();
  }
  size_t pcie_segments = 0, dram_segments = 0;
  for (int l = 0; l < sys.topology().num_pcie_links(); ++l) {
    pcie_segments = std::max(pcie_segments, sys.topology().pcie_link(l).num_segments());
  }
  for (int s = 0; s < sys.topology().num_sockets(); ++s) {
    dram_segments = std::max(dram_segments, sys.topology().socket_dram(s).num_segments());
  }

  const LayerTrace timed = Replay(*env, a.executed_pool, seconds / 2);
  const double qps_untimed = Ratio(timed.queries, timed.untimed_seconds);
  const double qps_timed = Ratio(timed.queries, timed.timed_seconds);
  std::printf("scheduled leg: %d queries in %.3f host s; one-client replay: %d "
              "queries, %.1f q/s untimed, %.1f q/s timed\n",
              a.completed, a.host_seconds, timed.queries, qps_untimed, qps_timed);

  const auto hit_ratio = [](const core::ProgramCache::Counters& b,
                            const core::ProgramCache::Counters& e) {
    return Ratio(static_cast<double>(e.hits - b.hits),
                 static_cast<double>(e.hits - b.hits + e.misses - b.misses));
  };
  const double rc_hits = static_cast<double>(after.results.hits - before.results.hits);
  const double rc_misses =
      static_cast<double>(after.results.misses - before.results.misses);
  const double attaches =
      static_cast<double>(after.shared.attaches - before.shared.attaches);
  const double builds = static_cast<double>(after.shared.builds - before.shared.builds);
  const double executed =
      static_cast<double>(std::max<size_t>(1, a.executed_pool.size()));
  return Emit(
      {{"plan.optimize_ms", Quantile(timed.optimize_ms, 0.5), "ms"},
       {"plan.candidates", Ratio(timed.candidates, timed.run_ms.size()), "count"},
       {"plan.est_ratio_p50", Quantile(timed.est_ratio, 0.5), "ratio"},
       {"plan.est_ratio_max", Quantile(timed.est_ratio, 1.0), "ratio"},
       {"core.lower_ms", Quantile(timed.lower_ms, 0.5), "ms"},
       {"core.run_ms", Quantile(timed.run_ms, 0.5), "ms"},
       {"core.queue_wait_p50_s", Quantile(a.queue_wait, 0.5), "s"},
       {"core.queue_wait_p99_s", Quantile(a.queue_wait, 0.99), "s"},
       {"core.retries", static_cast<double>(a.retries), "count"},
       {"core.program_cache.cpu_hit_ratio", hit_ratio(before.cpu, after.cpu), "ratio"},
       {"core.program_cache.gpu_hit_ratio", hit_ratio(before.gpu, after.gpu), "ratio"},
       {"core.program_cache.misses",
        static_cast<double>(after.cpu.misses - before.cpu.misses + after.gpu.misses -
                            before.gpu.misses),
        "count"},
       {"core.result_cache.hit_ratio", Ratio(rc_hits, rc_hits + rc_misses), "ratio"},
       {"core.result_cache.evictions",
        static_cast<double>(after.results.evictions - before.results.evictions),
        "count"},
       {"core.ht_share.attach_ratio", Ratio(attaches, attaches + builds), "ratio"},
       {"core.ht_share.failovers",
        static_cast<double>(after.shared.failovers - before.shared.failovers),
        "count"},
       {"jit.tuples_per_host_s", Ratio(static_cast<double>(timed.tuples), timed.run_seconds),
        "1/s"},
       {"jit.vectorized_ratio",
        Ratio(static_cast<double>(after.vec.vectorized - before.vec.vectorized),
              static_cast<double>(after.vec.attempts - before.vec.attempts)),
        "ratio"},
       {"jit.fallbacks", static_cast<double>(after.vec.fallbacks - before.vec.fallbacks),
        "count"},
       {"sim.bytes_read_per_query", static_cast<double>(a.stats.bytes_read) / executed,
        "B"},
       {"sim.tuples_per_query", static_cast<double>(a.stats.tuples) / executed, "count"},
       {"sim.pcie_segments_max", static_cast<double>(pcie_segments), "count"},
       {"sim.dram_segments_max", static_cast<double>(dram_segments), "count"},
       {"memory.host_blocks_in_use_end", static_cast<double>(blocks_in_use), "count"},
       {"trace.overhead", 1.0 - Ratio(qps_timed, qps_untimed), "ratio"}},
      a.attempted + 2 * timed.queries, a.failed + timed.failed);
}

}  // namespace
}  // namespace hetex::perfbench

int main(int argc, char** argv) {
  // One malloc arena per host core. With glibc's default (8 per core) the
  // memory a run holds depends on which of its many short-lived query
  // threads landed on which arena, and peak_rss_mb wandered by ~10% between
  // identical runs.
  mallopt(M_ARENA_MAX, 4);
  return hetex::perfbench::Main(argc, argv);
}
