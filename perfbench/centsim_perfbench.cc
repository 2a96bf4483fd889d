// End-to-end benchmark for centsim's reference scenarios.
//
// One process runs one named workload for a fixed number of seconds and
// prints every metric by name and unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. Untraced
// runs (--trace 0) report the end-to-end metrics; traced runs (--trace 1)
// alternate untraced and traced rounds, report the per-layer metrics, and
// write a Perfetto-loadable trace of the spans recorded around each call.
//
// Every workload checks its outputs against values computed apart from the
// engine (a renewal integral, a brute-force coverage scan, an uninterrupted
// twin of a resumed run) or against properties the method must have
// (conservation of units and packets). A failed check fails the run.
//
//   centsim_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     --out-dir <dir>
//
// Workloads: district_1m, century_sampled, century_sharded, fifty_year.
// perfbench/README.md maps each per-layer metric to the end-to-end metric
// and workload it should move.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/city/deployment.h"
#include "src/core/district.h"
#include "src/core/experiment.h"
#include "src/core/experiment_api.h"
#include "src/core/theseus.h"
#include "src/energy/energy_manager.h"
#include "src/energy/harvester.h"
#include "src/energy/storage.h"
#include "src/radio/frame.h"
#include "src/radio/phy_model.h"
#include "src/reliability/component.h"
#include "src/reliability/survival.h"
#include "src/security/report_auth.h"
#include "src/sim/ensemble.h"
#include "src/sim/profiler.h"
#include "src/sim/random.h"
#include "src/sim/run_progress.h"
#include "src/sim/sampling.h"
#include "src/sim/time.h"
#include "src/telemetry/chrome_trace.h"
#include "src/telemetry/run_manifest.h"

namespace centsim::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Taken during static initialisation, before main: set-up time is measured
// from here, so it includes everything a cold process pays before its
// first simulated day.
const Clock::time_point kProcessStart = Clock::now();

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// The per-layer metrics every traced run prints, in BENCHMARK.json order.
// A layer that does no work on a workload reports 0 there.
const std::vector<std::pair<std::string, std::string>> kPerLayerMetrics = {
    {"sim.events", "count"},
    {"sim.run_s", "s"},
    {"sim.ns_per_event", "ns"},
    {"sim.self_s.device.report", "s"},
    {"sim.self_s.event", "s"},
    {"sim.self_s.other", "s"},
    {"shard.lane_imbalance", "ratio"},
    {"shard.event_overhead", "ratio"},
    {"shard.speedup_vs_1_lane", "ratio"},
    {"sampling.windows", "count"},
    {"sampling.detailed_events", "count"},
    {"sampling.skipped_fraction", "fraction"},
    {"sampling.advance_s", "s"},
    {"ensemble.replicas_per_s", "1/s"},
    {"reliability.survival_table_build_s", "s"},
    {"core.build_s", "s"},
    {"core.unaccounted_s", "s"},
    {"core.fleet_bytes_per_device", "B"},
    {"city.plan_s", "s"},
    {"city.coverage_csr_s", "s"},
    {"snapshot.save_s", "s"},
    {"snapshot.restore_s", "s"},
    {"snapshot.bytes_per_device", "B"},
    {"radio.phy_ns_per_uplink", "ns"},
    {"security.auth_ns_per_uplink", "ns"},
    {"energy.tx_ns_per_uplink", "ns"},
    {"trace.overhead_pct", "%"},
    {"trace.unclaimed_share", "fraction"},
};

using LayerValues = std::map<std::string, double>;

// ---------------------------------------------------------------------------
// Spans recorded around calls into each layer. Kept in memory and written
// once at the end. Times are seconds since process start; a span's parent
// is the span open when it began.

class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
  };

  int Begin(const std::string& name) {
    spans_.push_back(Span{name, SecondsSince(kProcessStart), 0.0, Open()});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int id) {
    spans_[id].end_s = SecondsSince(kProcessStart);
    open_.pop_back();
  }
  // A finished child of the open span whose duration the program reported
  // (a report field) rather than the benchmark observed. Such children are
  // laid end to end from `start_s` in the order given.
  void AddReported(const std::string& name, double start_s, double dur_s) {
    spans_.push_back(Span{name, start_s, start_s + std::max(0.0, dur_s), Open()});
  }

  double Duration(int id) const { return spans_[id].end_s - spans_[id].start_s; }
  // Duration minus the time covered by direct children.
  double SelfSeconds(int id) const {
    double self = Duration(id);
    for (const Span& s : spans_) {
      if (s.parent == id) {
        self -= s.end_s - s.start_s;
      }
    }
    return self;
  }
  // The share of a root span's duration that no reported phase claims:
  // its own self time plus its direct children's (the calls', less the
  // phases the program reported under them).
  double UnclaimedShare(int root) const {
    double unclaimed = SelfSeconds(root);
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent == root) {
        unclaimed += SelfSeconds(static_cast<int>(i));
      }
    }
    return unclaimed / Duration(root);
  }
  // The most recent span whose name starts with `prefix`, or -1.
  int Last(const std::string& prefix) const {
    for (size_t i = spans_.size(); i-- > 0;) {
      if (spans_[i].name.rfind(prefix, 0) == 0) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }
  // Self seconds summed per span name.
  std::map<std::string, double> SelfByName() const {
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += SelfSeconds(static_cast<int>(i));
    }
    return out;
  }
  const std::vector<Span>& spans() const { return spans_; }

  bool Write(const std::string& path) const {
    ChromeTraceWriter writer("centsim_perfbench");
    writer.SetThreadName(1, "benchmark");
    for (const Span& s : spans_) {
      writer.AddSpan(s.name, s.start_s * 1e6, (s.end_s - s.start_s) * 1e6);
    }
    std::string error;
    if (!writer.WriteFile(path, &error)) {
      std::cerr << "cannot write trace " << path << ": " << error << "\n";
      return false;
    }
    return true;
  }

 private:
  int Open() const { return open_.empty() ? -1 : open_.back(); }

  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Opens a span when a log is given; a null log records nothing, which is
// how untraced rounds run.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name)
      : log_(log), id_(log != nullptr ? log->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  double start_s() const { return log_ != nullptr ? log_->spans()[id_].start_s : 0.0; }

 private:
  SpanLog* log_;
  int id_;
};

// ---------------------------------------------------------------------------
// Correctness checks. Each failure is printed; any failure fails the run.

class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    ++count_;
    if (!ok) {
      ++failures_;
      std::cerr << "CHECK FAILED: " << what << "\n";
    }
  }
  uint64_t count() const { return count_; }
  uint64_t failures() const { return failures_; }

 private:
  uint64_t count_ = 0;
  uint64_t failures_ = 0;
};

std::string Num(double v) {
  std::ostringstream out;
  out.precision(10);
  out << v;
  return out.str();
}

// One round: the timed calls the workload repeats, and what they simulated.
struct Round {
  double timed_s = 0.0;       // Host seconds of the timed calls.
  double device_years = 0.0;  // Simulated device-years of those calls.
  LayerValues layers;         // Traced rounds only.
  std::string detail;         // Where the round's time went, for the log.
  bool failed = false;        // A call failed; the round is left out of the metrics.
};

class Workload {
 public:
  virtual ~Workload() = default;
  // The first scenario call of the process, at a horizon of a few days.
  virtual void Setup(Checks& checks) = 0;
  // Reference values the checks compare with, computed apart from the
  // engine. Runs after Setup, so set-up time does not include it.
  virtual void Prepare(Checks& checks, SpanLog* spans) = 0;
  virtual Round RunRound(uint32_t index, Checks& checks, SpanLog* spans) = 0;
  // Calls into single layers that traced runs time once, after the rounds.
  virtual void Probe(LayerValues& out, Checks& checks, SpanLog* spans) = 0;
  uint64_t calls() const { return calls_; }
  uint64_t failed() const { return failed_; }

 protected:
  // Makes `scenarios` scenario calls through `call`. A call that throws is
  // counted as failed and yields nothing. A call that ends the process
  // (CheckConfigOrDie, or a throw on an ensemble worker thread) leaves no
  // result line at all.
  template <typename Fn>
  auto Attempt(Fn&& call, uint32_t scenarios = 1) -> std::optional<decltype(call())> {
    calls_ += scenarios;
    try {
      return call();
    } catch (const std::exception& e) {
      failed_ += scenarios;
      std::cerr << "scenario call failed: " << e.what() << "\n";
      return std::nullopt;
    }
  }
  // A call that depends on one that failed: counted, failed, not made.
  void Skip() {
    ++calls_;
    ++failed_;
  }

 private:
  uint64_t calls_ = 0;
  uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Century workloads: the bench_sampling century (200k sites, 100 years,
// 16 zones, 3-day service rounds).

constexpr uint32_t kCenturySites = 200000;
constexpr double kCenturyYears = 100.0;
constexpr SimTime kSetupHorizon = SimTime::Days(7);

CenturyConfig CenturyBase(uint64_t seed) {
  CenturyConfig cfg;
  cfg.seed = seed;
  cfg.fleet_size = kCenturySites;
  cfg.horizon = SimTime::Years(kCenturyYears);
  cfg.batch.zone_count = 16;
  cfg.batch.cycle_period = SimTime::Days(3);
  cfg.device_class = DeviceClassKind::kEnergyHarvesting;
  return cfg;
}

// Expected unit failures per site over the horizon, and the variance of
// that count, from the renewal equation. A site's unit lives L (the
// hardware survival function), then the site waits D for the next service
// visit to its zone before the next unit goes in. Visits to one zone come
// once per cycle with a jitter far wider than the cycle, so they form a
// near-Poisson stream and D is taken as exponential with the cycle as its
// mean. The integral runs on a daily grid; bin k holds [(k-1/2)h, (k+1/2)h).
struct RenewalReference {
  double failures_per_site = 0.0;
  double variance_per_site = 0.0;
};

RenewalReference IntegrateRenewal(const SeriesSystem& hardware, double horizon_days,
                                  double mean_wait_days) {
  const double h = 1.0;
  const size_t n = static_cast<size_t>(std::ceil(horizon_days / h));
  auto survival = [&hardware](double days) {
    return days <= 0.0 ? 1.0 : hardware.Survival(SimTime::Seconds(days * 86400.0));
  };
  std::vector<double> p_life(n + 1);
  double prev = 1.0;
  for (size_t k = 0; k <= n; ++k) {
    const double s = survival((static_cast<double>(k) + 0.5) * h);
    p_life[k] = prev - s;
    prev = s;
  }
  std::vector<double> p_wait;
  prev = 1.0;
  for (size_t k = 0; k <= n; ++k) {
    const double s = std::exp(-(static_cast<double>(k) + 0.5) * h / mean_wait_days);
    p_wait.push_back(prev - s);
    prev = s;
    if (s < 1e-16) {
      break;
    }
  }
  // fail[i] = sum_j deploy[j] p_life[i-j]; deploy[i] = [i==0] + sum_j
  // fail[j] p_wait[i-j]. The j == i terms couple the two; solve them per bin.
  std::vector<double> fail_acc(n + 1, 0.0);
  std::vector<double> deploy_acc(n + 1, 0.0);
  deploy_acc[0] = 1.0;
  double failures = 0.0;
  for (size_t i = 0; i <= n; ++i) {
    const double fail = (fail_acc[i] + deploy_acc[i] * p_life[0]) / (1.0 - p_life[0] * p_wait[0]);
    const double deploy = deploy_acc[i] + fail * p_wait[0];
    failures += i < n ? fail : 0.5 * fail;
    for (size_t k = 1; i + k <= n; ++k) {
      fail_acc[i + k] += deploy * p_life[k];
    }
    for (size_t k = 1; k < p_wait.size() && i + k <= n; ++k) {
      deploy_acc[i + k] += fail * p_wait[k];
    }
  }
  // Count variance for a renewal process, sigma^2 t / mu^3, with the
  // cycle's moments from the life's first two moments plus the wait's.
  double mean_life = 0.0;
  double second_life = 0.0;
  for (double t = 0.5 * h;; t += h) {
    const double s = survival(t);
    mean_life += s * h;
    second_life += 2.0 * t * s * h;
    if (s < 1e-12 || t > 1e6) {
      break;
    }
  }
  const double mu = mean_life + mean_wait_days;
  const double var = second_life - mean_life * mean_life + mean_wait_days * mean_wait_days;
  RenewalReference ref;
  ref.failures_per_site = failures;
  ref.variance_per_site = var * horizon_days / (mu * mu * mu);
  return ref;
}

class CenturyChecks {
 public:
  void Prepare() {
    const CenturyConfig cfg = CenturyBase(0);
    ref_ = IntegrateRenewal(SeriesSystem::EnergyHarvestingNode(),
                            cfg.horizon.ToSeconds() / 86400.0,
                            cfg.batch.cycle_period.ToSeconds() / 86400.0);
    std::cout << "reference: renewal integral gives "
              << Num(ref_.failures_per_site / kCenturyYears)
              << " failures/device-year (sd per site " << Num(std::sqrt(ref_.variance_per_site))
              << ")\n";
  }

  // Structural checks hold at any horizon; the renewal comparison needs
  // the full one.
  void Check(const CenturyReport& r, uint32_t sites, bool full_horizon, Checks& checks) const {
    checks.Expect(r.units_deployed == sites + r.total_replacements,
                  "century: units_deployed == fleet_size + total_replacements (" +
                      std::to_string(r.units_deployed) + " vs " +
                      std::to_string(sites + r.total_replacements) + ")");
    checks.Expect(r.total_failures >= r.total_replacements &&
                      r.total_failures - r.total_replacements <= sites,
                  "century: 0 <= failures - replacements <= fleet_size");
    if (!full_horizon) {
      return;
    }
    // Six standard deviations of the fleet's failure count, plus 0.1% for
    // the wait model and the daily grid.
    const double expected = ref_.failures_per_site * sites;
    const double tolerance =
        6.0 * std::sqrt(ref_.variance_per_site * sites) + 0.001 * expected;
    const double observed = static_cast<double>(r.total_failures);
    checks.Expect(std::fabs(observed - expected) <= tolerance,
                  "century: failures " + Num(observed) + " within " + Num(tolerance) +
                      " of the renewal expectation " + Num(expected));
  }

 private:
  RenewalReference ref_;
};

class CenturySampled final : public Workload {
 public:
  static constexpr uint32_t kReplicas = 4;
  static constexpr uint32_t kThreads = 2;

  explicit CenturySampled(uint64_t seed) : base_(CenturyBase(seed)) {
    base_.sampling.mode = SimMode::kSampled;
    base_.sampling.detailed_window = SimTime::Days(7);
    base_.sampling.sample_period = SimTime::Days(70);
    base_.sampling.ci_target = 0.01;
    base_.sampling.min_windows = 8;
    base_.sampling.max_windows = 16;
  }

  void Setup(Checks& checks) override {
    CenturyConfig cfg = base_;
    cfg.horizon = kSetupHorizon;
    if (const auto result = RunEnsemble(cfg)) {
      for (const auto& rep : result->replicas) {
        reference_.Check(rep.report, cfg.fleet_size, false, checks);
      }
    }
  }

  void Prepare(Checks&, SpanLog*) override { reference_.Prepare(); }

  Round RunRound(uint32_t, Checks& checks, SpanLog* spans) override {
    Round round;
    std::optional<EnsembleRunner<CenturyExperiment>::Result> ran;
    {
      ScopedSpan root(spans, "round.century_sampled");
      ScopedSpan call(spans, "ensemble.run");
      const auto t0 = Clock::now();
      ran = RunEnsemble(base_);
      round.timed_s = SecondsSince(t0);
    }
    round.device_years = kReplicas * static_cast<double>(kCenturySites) * kCenturyYears;
    if (!ran) {
      round.failed = true;
      return round;
    }
    const auto& result = *ran;
    double events = 0.0;
    double replica_s = 0.0;
    for (const auto& rep : result.replicas) {
      reference_.Check(rep.report, kCenturySites, true, checks);
      checks.Expect(rep.report.sampled, "century_sampled: the sampled engine ran");
      events += static_cast<double>(rep.report.events_executed);
      replica_s += rep.wall_seconds;
    }
    if (spans != nullptr) {
      const CenturyReport& r0 = result.replicas.front().report;
      // The replicas' own walls are the ensemble layer's claim on the
      // call's thread-seconds; the rest is pool start, queueing and idling.
      round.layers["trace.unclaimed_share"] =
          std::max(0.0, 1.0 - replica_s / (kThreads * round.timed_s));
      round.layers["sim.events"] = events;
      round.layers["sampling.windows"] = r0.windows_measured;
      round.layers["sampling.detailed_events"] = static_cast<double>(r0.events_executed);
      round.layers["sampling.skipped_fraction"] =
          static_cast<double>(r0.sim_skipped_us) / base_.horizon.micros();
      round.layers["ensemble.replicas_per_s"] = kReplicas / round.timed_s;
    }
    return round;
  }

  void Probe(LayerValues& out, Checks& checks, SpanLog* spans) override {
    // One replica's call at the full horizon minus the same call at the
    // set-up horizon: the time spent advancing, not building.
    CenturyConfig full = base_;
    full.seed = DeriveReplicaSeed(base_.seed, 0);
    CenturyConfig brief = full;
    brief.horizon = kSetupHorizon;
    std::vector<double> advance;
    for (int i = 0; i < 3; ++i) {
      ScopedSpan probe(spans, "probe.sampling_advance");
      const double t_brief = TimeCall(brief, spans, "sampling.setup_call", checks, false);
      const double t_full = TimeCall(full, spans, "sampling.full_call", checks, true);
      advance.push_back(t_full - t_brief);
    }
    out["sampling.advance_s"] = Median(advance);

    const SeriesSystem hardware = SeriesSystem::EnergyHarvestingNode();
    std::vector<double> build;
    for (int i = 0; i < 5; ++i) {
      ScopedSpan probe(spans, "reliability.survival_table_build");
      const auto t0 = Clock::now();
      const SurvivalTable table =
          SurvivalTable::Build([&hardware](SimTime t) { return hardware.Survival(t); });
      build.push_back(SecondsSince(t0));
      checks.Expect(table.points() > 0, "reliability: SurvivalTable has points");
    }
    out["reliability.survival_table_build_s"] = Median(build);
  }

 private:
  std::optional<EnsembleRunner<CenturyExperiment>::Result> RunEnsemble(
      const CenturyConfig& cfg) {
    EnsembleOptions options;
    options.replicas = kReplicas;
    options.threads = kThreads;
    return Attempt([&] { return EnsembleRunner<CenturyExperiment>::Run(cfg, options); },
                   kReplicas);
  }

  double TimeCall(const CenturyConfig& cfg, SpanLog* spans, const std::string& name,
                  Checks& checks, bool full_horizon) {
    ScopedSpan span(spans, name);
    const auto t0 = Clock::now();
    const auto r = Attempt([&] { return RunCenturyScenario(cfg); });
    const double wall = SecondsSince(t0);
    if (r) {
      reference_.Check(*r, cfg.fleet_size, full_horizon, checks);
    }
    return wall;
  }

  CenturyConfig base_;
  CenturyChecks reference_;
};

class CenturySharded final : public Workload {
 public:
  static constexpr uint32_t kLanes = 2;

  explicit CenturySharded(uint64_t seed) : base_(CenturyBase(seed)) {
    base_.shard.shards = kLanes;
    base_.shard.workers = kLanes;
  }

  void Setup(Checks& checks) override {
    CenturyConfig cfg = base_;
    cfg.horizon = kSetupHorizon;
    if (const auto r = Attempt([&] { return RunCenturyScenario(cfg); })) {
      reference_.Check(*r, cfg.fleet_size, false, checks);
    }
  }

  void Prepare(Checks&, SpanLog*) override { reference_.Prepare(); }

  Round RunRound(uint32_t, Checks& checks, SpanLog* spans) override {
    Round round;
    CenturyConfig cfg = base_;
    std::array<ProgressCell, kLanes> lanes;
    if (spans != nullptr) {
      for (ProgressCell& cell : lanes) {
        cfg.shard.shard_progress.push_back(&cell);
      }
    }
    std::optional<CenturyReport> ran;
    {
      ScopedSpan root(spans, "round.century_sharded");
      ScopedSpan call(spans, "shard.run");
      const auto t0 = Clock::now();
      ran = Attempt([&] { return RunCenturyScenario(cfg); });
      round.timed_s = SecondsSince(t0);
    }
    round.device_years = static_cast<double>(kCenturySites) * kCenturyYears;
    if (!ran) {
      round.failed = true;
      return round;
    }
    const CenturyReport& r = *ran;
    reference_.Check(r, kCenturySites, true, checks);
    if (spans != nullptr) {
      double max_lane = 0.0;
      double sum_lane = 0.0;
      for (const ProgressCell& cell : lanes) {
        const double executed = static_cast<double>(cell.Load().executed);
        max_lane = std::max(max_lane, executed);
        sum_lane += executed;
      }
      checks.Expect(sum_lane > 0.0, "century_sharded: lanes published their progress");
      round.layers["sim.events"] = static_cast<double>(r.events_executed);
      round.layers["shard.lane_imbalance"] = sum_lane > 0.0 ? max_lane / (sum_lane / kLanes) : 0.0;
      last_events_ = r.events_executed;
      lane_seconds_.push_back(round.timed_s);
    }
    return round;
  }

  // The serial engine and a one-lane run of the same scenario, once each:
  // the event overhead and speedup of two lanes are measured against them.
  void Probe(LayerValues& out, Checks& checks, SpanLog* spans) override {
    CenturyConfig serial = base_;
    serial.shard = ShardPlan{};
    std::optional<CenturyReport> serial_report;
    {
      ScopedSpan probe(spans, "probe.century_serial");
      serial_report = Attempt([&] { return RunCenturyScenario(serial); });
    }
    if (serial_report) {
      reference_.Check(*serial_report, kCenturySites, true, checks);
    }
    CenturyConfig one_lane = base_;
    one_lane.shard.shards = 1;
    one_lane.shard.workers = 1;
    double one_lane_s = 0.0;
    {
      ScopedSpan probe(spans, "probe.century_one_lane");
      const auto t0 = Clock::now();
      const auto r = Attempt([&] { return RunCenturyScenario(one_lane); });
      const double wall = SecondsSince(t0);
      if (r) {
        reference_.Check(*r, kCenturySites, true, checks);
        one_lane_s = wall;
      }
    }
    out["shard.event_overhead"] =
        serial_report && serial_report->events_executed > 0
            ? static_cast<double>(last_events_) /
                  static_cast<double>(serial_report->events_executed)
            : 0.0;
    out["shard.speedup_vs_1_lane"] =
        lane_seconds_.empty() ? 0.0 : one_lane_s / Median(lane_seconds_);
  }

 private:
  CenturyConfig base_;
  CenturyChecks reference_;
  uint64_t last_events_ = 0;
  std::vector<double> lane_seconds_;
};

// ---------------------------------------------------------------------------
// District: the ROADMAP's 1M-device, 50-year district at 160 sites/km2 on
// the serial engine, checkpointed at year 25 and resumed from it.

constexpr uint32_t kDistrictDevices = 1000000;
constexpr double kDistrictYears = 50.0;
constexpr double kSitesPerKm2 = 160.0;

DistrictConfig DistrictBase(uint64_t seed) {
  DistrictConfig cfg;
  cfg.seed = seed;
  cfg.device_count = kDistrictDevices;
  cfg.area_km2 = kDistrictDevices / kSitesPerKm2;
  cfg.zone_grid = 4;
  cfg.horizon = SimTime::Years(kDistrictYears);
  return cfg;
}

// Every result field, perf accounting excluded, as exact hex floats.
std::string ResultFields(const DistrictReport& r) {
  std::ostringstream out;
  out << std::hexfloat << r.gateway_count << '|' << r.initial_coverage << '|'
      << r.mean_device_availability << '|' << r.mean_service_availability << '|'
      << r.min_yearly_service << '|' << r.device_failures << '|' << r.device_replacements << '|'
      << r.gateway_failures << '|' << r.gateway_repairs;
  for (double v : r.yearly_service) {
    out << '|' << v;
  }
  return out.str();
}

// Scheduler self time per event category, from a profiler's scaled
// estimates: the uplink path, uncategorised timers, and the rest.
void AddProfilerLayers(const SchedulerProfiler& profiler, LayerValues& layers) {
  for (const auto& cat : profiler.Categories()) {
    const double s = cat.wall_ns_estimate * 1e-9;
    if (cat.category == "device.report" || cat.category == "event") {
      layers["sim.self_s." + cat.category] += s;
    } else {
      layers["sim.self_s.other"] += s;
    }
  }
}

class District1M final : public Workload {
 public:
  District1M(uint64_t seed, std::string scratch_dir)
      : base_(DistrictBase(seed)), scratch_dir_(std::move(scratch_dir)) {}

  void Setup(Checks& checks) override {
    DistrictConfig cfg = base_;
    cfg.horizon = kSetupHorizon;
    if (const auto r = Attempt([&] { return RunDistrictScenario(cfg); })) {
      CheckReport(*r, checks);
    }
  }

  // BuildCoverageCsr against a brute-force distance scan, on the district's
  // geometry. Traced runs time the two city calls here.
  void Prepare(Checks& checks, SpanLog* spans) override {
    ScopedSpan probe(spans, "probe.city");
    DeploymentPlan::Params params;
    params.site_count = base_.device_count;
    params.area_km2 = base_.area_km2;
    params.zone_grid = base_.zone_grid;
    auto t0 = Clock::now();
    std::vector<Site> sites;
    std::vector<Site> gateways;
    {
      ScopedSpan span(spans, "city.plan");
      DeploymentPlan plan(params, RandomStream(base_.seed).Derive(0x63697479ULL));
      gateways = plan.PlanGatewayGrid(base_.gateway_range_m);
      sites = plan.sites();
    }
    plan_s_ = SecondsSince(t0);
    t0 = Clock::now();
    CoverageCsr csr;
    {
      ScopedSpan span(spans, "city.coverage_csr");
      csr = BuildCoverageCsr(sites, gateways, base_.gateway_range_m);
    }
    coverage_s_ = SecondsSince(t0);

    const uint32_t gateway_count = static_cast<uint32_t>(gateways.size());
    checks.Expect(gateway_count > 0, "district: the gateway plan is not empty");
    const uint32_t samples = std::min<uint32_t>(16, gateway_count);
    bool all_equal = true;
    for (uint32_t k = 0; k < samples; ++k) {
      const uint32_t g = static_cast<uint32_t>(static_cast<uint64_t>(k) * gateway_count / samples);
      std::vector<uint32_t> brute;
      for (uint32_t d = 0; d < sites.size(); ++d) {
        if (DistanceM(sites[d], gateways[g]) <= base_.gateway_range_m) {
          brute.push_back(d);
        }
      }
      const std::vector<uint32_t> listed(csr.site_ids.begin() + csr.begin(g),
                                         csr.site_ids.begin() + csr.end(g));
      all_equal = all_equal && listed == brute;
    }
    checks.Expect(all_equal, "district: BuildCoverageCsr lists equal a brute-force scan on " +
                                 std::to_string(samples) + " sampled gateways");
  }

  Round RunRound(uint32_t index, Checks& checks, SpanLog* spans) override {
    const std::string dir = scratch_dir_ + "/round" + std::to_string(index);
    Round round;
    std::optional<DistrictReport> straight_ran;
    std::optional<DistrictReport> resumed_ran;
    double straight_s = 0.0;
    double resumed_s = 0.0;
    {
      ScopedSpan root(spans, "round.district_1m");
      DistrictConfig cfg = base_;
      cfg.snapshot.checkpoint_every = SimTime::Years(kDistrictYears / 2);
      cfg.snapshot.checkpoint_dir = dir;
      SchedulerProfiler profiler;
      if (spans != nullptr) {
        cfg.control.profiler = &profiler;
      }
      {
        ScopedSpan call(spans, "core.district");
        const auto t0 = Clock::now();
        straight_ran = Attempt([&] { return RunDistrictScenario(cfg); });
        straight_s = SecondsSince(t0);
        if (spans != nullptr && straight_ran) {
          double at = call.start_s();
          spans->AddReported("core.build", at, straight_ran->build_seconds);
          at += straight_ran->build_seconds;
          spans->AddReported("sim.run", at, straight_ran->wall_seconds);
          at += straight_ran->wall_seconds;
          spans->AddReported("snapshot.save", at, straight_ran->save_seconds);
        }
      }
      if (straight_ran) {
        DistrictConfig resume = base_;
        resume.snapshot.resume_from = straight_ran->last_checkpoint_path;
        ScopedSpan call(spans, "core.district_resume");
        const auto t0 = Clock::now();
        resumed_ran = Attempt([&] { return RunDistrictScenario(resume); });
        resumed_s = SecondsSince(t0);
        if (spans != nullptr && resumed_ran) {
          double at = call.start_s();
          spans->AddReported("core.build", at, resumed_ran->build_seconds);
          at += resumed_ran->build_seconds;
          spans->AddReported("snapshot.restore", at, resumed_ran->restore_seconds);
          at += resumed_ran->restore_seconds;
          spans->AddReported("sim.run", at, resumed_ran->wall_seconds);
        }
      } else {
        Skip();  // Nothing to resume from.
      }
      if (spans != nullptr) {
        AddProfilerLayers(profiler, round.layers);
      }
    }
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);

    round.timed_s = straight_s + resumed_s;
    round.device_years = kDistrictDevices * (kDistrictYears + kDistrictYears / 2);
    if (!straight_ran || !resumed_ran) {
      round.failed = true;
      return round;
    }
    const DistrictReport& straight = *straight_ran;
    const DistrictReport& resumed = *resumed_ran;
    round.detail = "build " + Num(straight.build_seconds + resumed.build_seconds) + " s, run " +
                   Num(straight.wall_seconds + resumed.wall_seconds) + " s, save " +
                   Num(straight.save_seconds) + " s, restore " + Num(resumed.restore_seconds) +
                   " s";
    CheckReport(straight, checks);
    checks.Expect(straight.checkpoints_written == 1,
                  "district: the straight run wrote its year-25 checkpoint");
    checks.Expect(resumed.restore_seconds > 0.0, "district: the second call resumed");
    checks.Expect(ResultFields(resumed) == ResultFields(straight),
                  "district: the resumed report equals the uninterrupted one bit for bit");
    if (spans != nullptr) {
      const double sim_run = straight.wall_seconds + resumed.wall_seconds;
      const double events = static_cast<double>(straight.events_executed);
      round.layers["sim.events"] = events;
      round.layers["sim.run_s"] = straight.wall_seconds;
      round.layers["sim.ns_per_event"] = events > 0 ? straight.wall_seconds / events * 1e9 : 0.0;
      round.layers["core.build_s"] = straight.build_seconds;
      round.layers["core.unaccounted_s"] =
          round.timed_s - (straight.build_seconds + resumed.build_seconds + sim_run +
                           straight.save_seconds + resumed.restore_seconds);
      round.layers["core.fleet_bytes_per_device"] = straight.fleet_bytes_per_device;
      round.layers["snapshot.save_s"] = straight.save_seconds;
      round.layers["snapshot.restore_s"] = resumed.restore_seconds;
      round.layers["snapshot.bytes_per_device"] =
          static_cast<double>(straight.last_checkpoint_bytes) / kDistrictDevices;
    }
    return round;
  }

  void Probe(LayerValues& out, Checks&, SpanLog*) override {
    out["city.plan_s"] = plan_s_;
    out["city.coverage_csr_s"] = coverage_s_;
  }

 private:
  void CheckReport(const DistrictReport& r, Checks& checks) const {
    checks.Expect(r.mean_service_availability <= r.mean_device_availability &&
                      r.mean_device_availability <= 1.0 && r.mean_service_availability >= 0.0,
                  "district: 0 <= service <= device availability <= 1 (" +
                      Num(r.mean_service_availability) + ", " +
                      Num(r.mean_device_availability) + ")");
    checks.Expect(r.device_failures >= r.device_replacements &&
                      r.device_failures - r.device_replacements <= base_.device_count,
                  "district: 0 <= device failures - replacements <= device_count");
    checks.Expect(r.gateway_failures >= r.gateway_repairs &&
                      r.gateway_failures - r.gateway_repairs <= r.gateway_count,
                  "district: 0 <= gateway failures - repairs <= gateway_count");
  }

  DistrictConfig base_;
  std::string scratch_dir_;
  double plan_s_ = 0.0;
  double coverage_s_ = 0.0;
};

// ---------------------------------------------------------------------------
// Fifty-year: the paper's §4 experiment as in bench_e1_fifty_year.

class FiftyYear final : public Workload {
 public:
  explicit FiftyYear(uint64_t seed) {
    base_.seed = seed;
    base_.devices_802154 = 6;
    base_.devices_lora = 6;
    base_.owned_gateways = 2;
    base_.helium_hotspots = 5;
    base_.report_interval = SimTime::Hours(1);
    base_.horizon = SimTime::Years(50);
  }

  void Setup(Checks& checks) override {
    FiftyYearConfig cfg = base_;
    cfg.horizon = kSetupHorizon;
    if (const auto r = Attempt([&] { return RunFiftyYearExperiment(cfg); })) {
      CheckReport(cfg, *r, checks);
    }
  }

  void Prepare(Checks&, SpanLog*) override {}

  Round RunRound(uint32_t, Checks& checks, SpanLog* spans) override {
    Round round;
    FiftyYearConfig cfg = base_;
    SchedulerProfiler profiler;
    if (spans != nullptr) {
      cfg.profiler = &profiler;
    }
    std::optional<FiftyYearReport> ran;
    {
      ScopedSpan root(spans, "round.fifty_year");
      ScopedSpan call(spans, "core.fifty_year");
      const auto t0 = Clock::now();
      ran = Attempt([&] { return RunFiftyYearExperiment(cfg); });
      round.timed_s = SecondsSince(t0);
      if (spans != nullptr && ran) {
        spans->AddReported("sim.run", call.start_s() + round.timed_s - ran->wall_seconds,
                           ran->wall_seconds);
      }
    }
    const double devices = base_.devices_802154 + base_.devices_lora;
    round.device_years = devices * base_.horizon.ToYears();
    if (!ran) {
      round.failed = true;
      return round;
    }
    const FiftyYearReport& r = *ran;
    CheckReport(cfg, r, checks);
    if (spans != nullptr) {
      const double events = static_cast<double>(r.events_executed);
      round.layers["sim.events"] = events;
      round.layers["sim.run_s"] = r.wall_seconds;
      round.layers["sim.ns_per_event"] = events > 0 ? r.wall_seconds / events * 1e9 : 0.0;
      AddProfilerLayers(profiler, round.layers);
    }
    return round;
  }

  // Per-uplink costs of the layers every report crosses, timed on the
  // experiment's own radio, key and harvester settings.
  void Probe(LayerValues& out, Checks& checks, SpanLog* spans) override {
    constexpr uint32_t kUplinks = 200000;
    constexpr size_t kPayload = 12;
    RandomStream rng = RandomStream(base_.seed).Derive(0x70726f6265ULL);
    std::vector<double> rx_dbm(kUplinks);
    for (double& v : rx_dbm) {
      v = rng.Uniform(-140.0, -80.0);
    }

    {
      ScopedSpan span(spans, "radio.phy");
      LoraConfig lora;
      lora.sf = LoraSf::kSf9;
      const std::array<PhyModel, 2> phys = {PhyModel::For802154(), PhyModel::ForLora(lora)};
      double sink = 0.0;
      const auto t0 = Clock::now();
      for (uint32_t i = 0; i < kUplinks; ++i) {
        const PhyModel& phy = phys[i & 1];
        sink += phy.Airtime(kPayload).ToSeconds() + phy.PacketErrorRate(rx_dbm[i], kPayload);
      }
      out["radio.phy_ns_per_uplink"] = SecondsSince(t0) / kUplinks * 1e9;
      checks.Expect(std::isfinite(sink) && sink > 0.0, "radio: airtime and PER are finite");
    }

    {
      ScopedSpan span(spans, "security.auth");
      SipHashKey key{};
      for (size_t b = 0; b < key.size(); ++b) {
        key[b] = static_cast<uint8_t>(rng.NextBelow(256));
      }
      uint32_t verified = 0;
      const auto t0 = Clock::now();
      for (uint32_t i = 0; i < kUplinks; ++i) {
        SensorReading reading;
        reading.device_id = 1 + i % 12;
        reading.sequence = i;
        reading.value_centi = static_cast<int16_t>(rx_dbm[i] * 100.0);
        const uint32_t tag = ComputeReadingTag(key, reading.device_id, i, reading);
        verified += VerifyReadingTag(key, reading.device_id, i, reading, tag) ? 1 : 0;
      }
      out["security.auth_ns_per_uplink"] = SecondsSince(t0) / kUplinks * 1e9;
      checks.Expect(verified == kUplinks, "security: every honest tag verifies");
    }

    {
      ScopedSpan span(spans, "energy.tx");
      SolarHarvester::Params sp;
      sp.peak_power_w = 0.010;
      sp.weather_seed = base_.seed;
      const HarvesterModel harvester = HarvesterModel::Solar(sp);
      const EnergyStorage storage = EnergyStorage::Supercap();
      const LoadProfile load;
      EnergyStorage::State state = EnergyStorage::InitialState(storage.params());
      SimTime last_advance;
      EnergyCounters counters;
      const auto t0 = Clock::now();
      for (uint32_t i = 0; i < kUplinks; ++i) {
        EnergyOps::TryTransmit(harvester, storage.params(), load, state, last_advance, counters,
                               EnergyMetricHooks{}, SimTime::Hours(i + 1));
      }
      out["energy.tx_ns_per_uplink"] = SecondsSince(t0) / kUplinks * 1e9;
      checks.Expect(counters.tx_granted + counters.tx_denied == kUplinks,
                    "energy: every transmit attempt is granted or denied");
    }
  }

 private:
  static void CheckReport(const FiftyYearConfig& cfg, const FiftyYearReport& r,
                          Checks& checks) {
    const PathStats* paths[] = {&r.owned_path, &r.helium_path};
    uint64_t delivered = 0;
    uint64_t lost = 0;
    const uint64_t per_device_cap =
        static_cast<uint64_t>(cfg.horizon.micros() / cfg.report_interval.micros()) + 1;
    for (const PathStats* p : paths) {
      uint64_t outcomes = 0;
      for (uint64_t c : p->outcomes) {
        outcomes += c;
      }
      checks.Expect(outcomes == p->attempts, "fifty_year: outcome counts sum to the attempts (" +
                                                 std::to_string(outcomes) + " vs " +
                                                 std::to_string(p->attempts) + ")");
      checks.Expect(p->attempts <= p->device_count * per_device_cap,
                    "fifty_year: attempts per device are at most horizon / report interval");
      delivered += p->delivered;
      lost += p->attempts - p->delivered;
    }
    checks.Expect(r.total_packets == delivered,
                  "fifty_year: endpoint total_packets equals the sum of delivered (" +
                      std::to_string(r.total_packets) + " vs " + std::to_string(delivered) + ")");
    uint64_t attributed = 0;
    for (uint64_t c : r.tier_attribution) {
      attributed += c;
    }
    checks.Expect(attributed == lost, "fifty_year: tier attribution sums to attempts - delivered (" +
                                          std::to_string(attributed) + " vs " +
                                          std::to_string(lost) + ")");
  }

  FiftyYearConfig base_;
};

// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

bool ParseOptions(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        o.workload = value;
      } else if (key == "--seed") {
        o.seed = std::stoull(value);
      } else if (key == "--seconds") {
        o.seconds = std::stod(value);
      } else if (key == "--trace") {
        o.trace = value == "1";
      } else if (key == "--out-dir") {
        o.out_dir = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0.0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

std::unique_ptr<Workload> MakeWorkload(const Options& o, const std::string& scratch) {
  if (o.workload == "district_1m") {
    return std::make_unique<District1M>(o.seed, scratch);
  }
  if (o.workload == "century_sampled") {
    return std::make_unique<CenturySampled>(o.seed);
  }
  if (o.workload == "century_sharded") {
    return std::make_unique<CenturySharded>(o.seed);
  }
  if (o.workload == "fifty_year") {
    return std::make_unique<FiftyYear>(o.seed);
  }
  return nullptr;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Main(int argc, char** argv) {
  Options o;
  if (!ParseOptions(argc, argv, o)) {
    std::cerr << "usage: centsim_perfbench --workload <district_1m|century_sampled|"
                 "century_sharded|fifty_year> --seed <n> --seconds <s> --trace <0|1> "
                 "[--out-dir <dir>]\n";
    return 2;
  }
  const std::string scratch = o.out_dir + "/scratch-" + o.workload + "-" + std::to_string(o.seed);
  std::unique_ptr<Workload> workload = MakeWorkload(o, scratch);
  if (workload == nullptr) {
    std::cerr << "unknown workload '" << o.workload << "'\n";
    return 2;
  }

  Checks checks;
  workload->Setup(checks);
  const double setup_s = SecondsSince(kProcessStart);
  std::cerr << "setup: " << Num(setup_s) << " s, peak RSS so far " << Num(PeakRssMb())
            << " MB\n";

  const BuildInfo& build = GetBuildInfo();
  std::cout << "workload " << o.workload << ", seed " << o.seed << ", " << o.seconds
            << " s, trace " << (o.trace ? 1 : 0) << "\n"
            << "build: git " << build.git_sha << ", " << build.build_type << ", sanitizers "
            << build.sanitizers << "; hardware_concurrency "
            << std::thread::hardware_concurrency() << "; cpu " << CpuModel() << "\n";

  SpanLog spans;
  SpanLog* traced = o.trace ? &spans : nullptr;
  workload->Prepare(checks, traced);

  // Whole rounds until the budget is spent, so every run covers at least
  // --seconds of host time whatever the round length; traced runs alternate
  // an untraced and a traced round and stop after a pair.
  std::vector<Round> plain;
  std::vector<Round> with_spans;
  const auto measure_start = Clock::now();
  for (uint32_t index = 0;; ++index) {
    const bool traced_round = o.trace && index % 2 == 1;
    Round round = workload->RunRound(index, checks, traced_round ? traced : nullptr);
    std::cout << "round " << index << (traced_round ? " (traced)" : "") << ": "
              << Num(round.timed_s) << " s timed, "
              << Num(round.device_years / round.timed_s) << " device-years/s"
              << (round.failed ? "; a call failed" : "")
              << (round.detail.empty() ? "" : "; " + round.detail) << "\n";
    if (traced_round && !round.layers.count("trace.unclaimed_share")) {
      round.layers["trace.unclaimed_share"] = spans.UnclaimedShare(spans.Last("round."));
    }
    if (!round.failed) {
      (traced_round ? with_spans : plain).push_back(std::move(round));
    }
    if (checks.failures() > 0) {
      break;
    }
    if ((!o.trace || traced_round) && SecondsSince(measure_start) >= o.seconds) {
      break;
    }
  }
  const double measured_s = SecondsSince(measure_start);
  std::error_code ec;
  std::filesystem::remove_all(scratch, ec);

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  if (!o.trace) {
    std::vector<double> rates;
    for (const Round& r : plain) {
      rates.push_back(r.device_years / r.timed_s);
    }
    metrics.push_back({"device_years_per_s", {Median(rates), "device-years/s"}});
    metrics.push_back({"setup_s", {setup_s, "s"}});
    metrics.push_back({"peak_rss_mb", {PeakRssMb(), "MB"}});
  } else {
    LayerValues layers;
    workload->Probe(layers, checks, traced);
    std::map<std::string, std::vector<double>> per_round;
    for (const Round& r : with_spans) {
      for (const auto& [name, value] : r.layers) {
        per_round[name].push_back(value);
      }
    }
    for (const auto& [name, values] : per_round) {
      layers[name] = Median(values);
    }
    std::vector<double> plain_s;
    std::vector<double> traced_s;
    for (const Round& r : plain) {
      plain_s.push_back(r.timed_s);
    }
    for (const Round& r : with_spans) {
      traced_s.push_back(r.timed_s);
    }
    layers["trace.overhead_pct"] = 100.0 * (Median(traced_s) / Median(plain_s) - 1.0);
    for (const auto& [name, unit] : kPerLayerMetrics) {
      const auto it = layers.find(name);
      metrics.push_back({name, {it == layers.end() ? 0.0 : it->second, unit}});
    }

    std::cout << "self time by span (s):\n";
    for (const auto& [name, self] : spans.SelfByName()) {
      std::cout << "  " << name << " " << Num(self) << "\n";
    }
    std::filesystem::create_directories(o.out_dir, ec);
    const std::string trace_path =
        o.out_dir + "/" + o.workload + "-" + std::to_string(o.seed) + ".trace.json";
    checks.Expect(spans.Write(trace_path), "trace: the span file was written");
    std::cout << "trace: " << trace_path << " (" << spans.spans().size() << " spans)\n";
  }

  std::cout << "rounds: " << plain.size() << " untraced, " << with_spans.size() << " traced, in "
            << Num(measured_s) << " s; checks: " << checks.count() << " run, "
            << checks.failures() << " failed\n";
  for (const auto& [name, vu] : metrics) {
    std::cout << "metric " << name << " = " << Num(vu.first) << " " << vu.second << "\n";
  }

  const bool correct = checks.failures() == 0;
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << workload->calls() << ", \"failed\": " << workload->failed()
       << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json << (i > 0 ? ", " : "") << '"' << metrics[i].first
         << "\": {\"value\": " << JsonNumber(metrics[i].second.first) << ", \"unit\": \""
         << metrics[i].second.second << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace centsim::perfbench

int main(int argc, char** argv) { return centsim::perfbench::Main(argc, argv); }
