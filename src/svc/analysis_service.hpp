#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>  // std::once_flag, std::call_once
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/annotations.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/analysis_engine.hpp"
#include "core/design.hpp"
#include "core/mode_system.hpp"
#include "core/schedule.hpp"
#include "core/study_runner.hpp"
#include "fault/fault_model.hpp"
#include "hier/sched_test.hpp"
#include "rt/deadline_bound.hpp"
#include "rt/hash.hpp"

namespace flexrt::svc {

/// The multi-system analysis service: the paper's methodology is
/// fleet-shaped (every figure asks the same design question across many
/// candidate systems), and this is the fleet-shaped front for it.
///
/// An AnalysisService holds a fleet of mode-task systems -- added directly,
/// parsed from files, or generated as a sharded trial study -- and executes
/// *typed requests* (SolveRequest, MinQuantumRequest, RegionSweepRequest,
/// VerifyRequest, FaultSweepRequest -- one per analysis command of the
/// net/proto command table) against every system on par::parallel_for's
/// workers, through one execution path
/// (run: ordered streaming into a sink; its collecting overload returns the
/// vector). Results are typed structs that carry the answer
/// plus *provenance*: whether the deadline-set analysis was exact, the
/// dlSet point budget behind the answer, how many accuracy rounds ran, the
/// measured over-approximation gap, and wall time.
///
/// Every request takes an AccuracyPolicy. `fixed` probes once at one
/// budget (the default budget reproduces the BatchEngine/solve_design
/// answers bit for bit -- parity-tested). `adaptive(tol)` starts from a
/// small budget and re-probes with a doubled budget until the answer
/// moves by <= tol, the analysis becomes exact, or the budget cap is
/// reached: the per-probe accuracy knob for systems where exactness is
/// unaffordable. The one budget knob drives whichever condensation the
/// scheduler uses -- the EDF dlSet budget (rt::DlBoundOptions) or the
/// per-task FP scheduling-point budget (rt::FpPointOptions) -- so the
/// ladder is scheduler-agnostic.
///
/// BatchEngine is the per-system probe engine underneath, and the front
/// for one system; the service is the front for a fleet. It adds the
/// fleet, the accuracy ladder, the process-wide answer memo
/// (svc::MemoCache) and an engine cache keyed by (entry, scheduler,
/// budget). A question no request covers (sensitivity margins,
/// max_admissible_overhead, ...) goes to the cached engine, engine_ptr().
///
/// The engine cache serves a service that asks its fleet more than one
/// question. One built with held engines -- a daemon session, whose
/// designer loop of solve, minq, verify and sweep on one entry builds its
/// engine once, or an overhead sweep's menu of requests over one fleet --
/// keeps its first `held_engines` builds for its lifetime, in
/// kEngineShards stripes, so each later request probes the engines the
/// first one built; builds past them are not kept. A one-pass service
/// (held 0, every offline command) keeps no engine: each ladder builds,
/// pins and frees its engine on its own worker (engine_ptr returns shared
/// ownership), without a lock, so a fleet run holds only the engines of
/// its in-flight entries. A rebuilt engine gives the same bits.

/// Per-entry wall-time budget of a request. When active, every entry's
/// accuracy ladder checks the elapsed wall time after each completed rung:
/// once the budget is spent, the ladder stops escalating and the answer of
/// the rung that just finished is returned as a *degraded* result
/// (Provenance::degraded = true, gap = null) instead of erroring or running
/// on. The deadline is checked between rungs, never mid-rung -- a rung in
/// flight always completes -- so a run overshoots its deadline by at most
/// one rung, and there is always a completed rung to degrade to (the first
/// rung runs unconditionally). Degraded answers are conservative exactly
/// like every condensed answer in the library: schedulable implies
/// schedulable, reported minQ >= exact minQ -- the monotone non-worsening
/// the ladder's rungs already guarantee.
///
/// Fixed policies run a single rung and are unaffected: a deadline cannot
/// shrink one probe, only stop an adaptive ladder from starting more.
struct Deadline {
  double wall_ms = 0.0;  ///< per-entry wall-clock budget; <= 0 = no deadline

  bool active() const noexcept { return wall_ms > 0.0; }
};

/// Per-request accuracy policy; default-constructed == fixed at the
/// library-default budget (the bit-for-bit parity configuration).
struct AccuracyPolicy {
  /// One probe at `points` (0 = the scheduler's library default:
  /// rt::kDefaultDlPointBudget for EDF, rt::kDefaultFpPointBudget for FP).
  static AccuracyPolicy fixed(std::size_t points = 0) noexcept {
    AccuracyPolicy p;
    p.initial_points = points;
    return p;
  }

  /// Re-probe with a doubled budget until the answer moves <= `tol`
  /// between consecutive rounds (or the analysis becomes exact, or
  /// `max_points` is hit). `initial_points` seeds the ladder low so cheap
  /// answers stay cheap.
  static AccuracyPolicy adaptive(double tol,
                                 std::size_t initial_points = 1u << 10,
                                 std::size_t max_points = 1u << 20) noexcept {
    AccuracyPolicy p;
    p.is_adaptive = true;
    p.tol = tol;
    p.initial_points = initial_points;
    p.max_points = max_points;
    return p;
  }

  bool is_adaptive = false;
  /// First (adaptive) / only (fixed) point budget; 0 = library default.
  std::size_t initial_points = 0;
  /// Adaptive stop: answer moved <= tol between consecutive rounds.
  double tol = 0.0;
  /// Adaptive hard cap on the budget ladder.
  std::size_t max_points = 1u << 20;
  /// Per-entry wall-time budget with graceful degradation (see Deadline).
  Deadline deadline{};

  /// Fluent deadline attachment: policy.with_deadline(50) caps each
  /// entry's ladder at 50 ms of wall time.
  AccuracyPolicy with_deadline(double wall_ms) const noexcept {
    AccuracyPolicy p = *this;
    p.deadline.wall_ms = wall_ms;
    return p;
  }
};

/// How an answer was obtained -- attached to every result.
struct Provenance {
  /// Final probe ran on exact (full-hyperperiod) deadline sets; trivially
  /// true for FP requests (the EDF side is never consulted). When false
  /// the answer is a safe over-approximation.
  bool dl_exact = true;
  /// FP twin of dl_exact: final probe ran on full Bini-Buttazzo point
  /// sets; trivially true for EDF requests.
  bool fp_exact = true;
  /// Point budget of the final probe (dlSet budget under EDF, per-task
  /// scheduling-point budget under FP).
  std::size_t budget = 0;
  /// The per-task FP point budget of the final probe; 0 for EDF requests
  /// (whose budget is the dlSet one above).
  std::size_t fp_budget = 0;
  /// Number of accuracy rounds executed (1 under fixed).
  std::size_t probes = 1;
  /// Measured over-approximation gap. Non-null only when the final answer
  /// is trustworthy at the requested accuracy: 0 when the probe turned
  /// exact, or the last inter-round move when the adaptive ladder converged
  /// (moved <= tol). nullopt means unknown: a fixed policy on a condensed
  /// set, or an adaptive ladder that exhausted its budget cap while the
  /// answer was still moving (the last measured move says nothing about
  /// how far the capped answer sits from the exact one).
  std::optional<double> gap;
  /// True when the request's Deadline stopped the adaptive ladder before it
  /// reached exactness, convergence or the budget cap: the answer is the
  /// best completed rung's conservative answer (bit-for-bit what a fixed
  /// policy at `budget` would return), and `gap` is null because nothing
  /// bounds its distance to the exact answer. Never set by fixed policies
  /// or by ladders that finished on their own.
  bool degraded = false;
  /// True when this answer came from the process-wide content-addressed
  /// memo (svc::MemoCache) instead of running the accuracy ladder: a
  /// bit-identical system was already asked this bit-identical request
  /// somewhere in the process. Rendered only when true, and only next to
  /// wall_ms: like wall_ms it describes this run's transport, not the
  /// answer, and every wall-free byte-identity contract (streamed ==
  /// buffered, journal resume, wire == offline, warm repeat == cold run)
  /// requires rows to read the same whether the answer was computed or
  /// replayed.
  bool cache_hit = false;
  /// Wall time of this entry's request, milliseconds.
  double wall_ms = 0.0;
};

inline constexpr std::size_t kNoTrial = static_cast<std::size_t>(-1);

/// Fields shared by every result row.
struct ResultBase {
  std::size_t system = 0;      ///< entry index within the service fleet
  std::string name;            ///< entry name (file, "trial<k>", ...)
  std::size_t trial = kNoTrial;  ///< global trial id for generated entries
  /// Non-empty when the request produced no answer for this entry:
  /// generation/packing failed, the model was rejected, or the entry's
  /// analysis threw -- *any* exception, not just flexrt::Error, becomes an
  /// error row rather than escaping into the fleet loop (a std::bad_alloc
  /// or stray library exception must never lose the entry or wedge a
  /// streaming run's ordered gate).
  std::string error;
  Provenance prov;

  bool ok() const noexcept { return error.empty(); }
};

// --- requests -------------------------------------------------------------

/// Solve the §3.3/§4 design problem (core::solve_design on the engine).
struct SolveRequest {
  hier::Scheduler alg = hier::Scheduler::EDF;
  core::Overheads overheads{};
  core::DesignGoal goal = core::DesignGoal::MinOverheadBandwidth;
  core::SearchOptions search{};
  AccuracyPolicy accuracy{};
};

struct SolveResult : ResultBase {
  bool feasible = false;
  /// Why the design is infeasible (when ok() && !feasible).
  std::string infeasible;
  core::Design design{};  ///< valid iff feasible
};

/// Per-mode minimum quanta and the Eq. 15 margin at one period.
struct MinQuantumRequest {
  hier::Scheduler alg = hier::Scheduler::EDF;
  double period = 1.0;
  bool use_exact_supply = false;
  AccuracyPolicy accuracy{};
};

struct MinQuantumResult : ResultBase {
  /// minQ per mode, indexed FT, FS, NF (core::kAllModes order).
  std::array<double, 3> mode_quantum{};
  /// lhs(P) = P - sum of the quanta (== BatchEngine::feasibility_margin).
  double margin = 0.0;
};

/// The Figure-4 curve lhs(P) over a period grid (==
/// BatchEngine::sample_region).
struct RegionSweepRequest {
  hier::Scheduler alg = hier::Scheduler::EDF;
  core::SearchOptions search{};
  AccuracyPolicy accuracy{};
};

struct RegionSweepResult : ResultBase {
  std::vector<core::RegionSample> samples;
};

/// Eq. 12-14 schedulability of an explicit schedule (== BatchEngine::verify).
/// Under adaptive accuracy a condensed "no" is re-probed at larger budgets
/// (a condensed "yes" is already definitive).
struct VerifyRequest {
  hier::Scheduler alg = hier::Scheduler::EDF;
  core::ModeSchedule schedule{};
  bool use_exact_supply = false;
  AccuracyPolicy accuracy{};
};

struct VerifyResult : ResultBase {
  bool schedulable = false;
};

/// Fault-tolerance sweep (paper §2.1 made a fleet workload): solve the
/// nominal design, then sweep the fault::FaultModel rate and report, per
/// rate, schedulability under the fault model's recovery demand for each
/// task class -- FT masks (no extra demand), FS detects-and-silences (the
/// affected job re-executes: fault::recovery_task demand added to every FS
/// channel), NF corrupts (timing unchanged, output integrity degrades by
/// fault::corruption_exposure) -- side by side with the software baselines
/// the paper argues against: baseline::primary_backup (active backups,
/// rate-independent, doubled load) and the three baseline::StaticConfig
/// platforms (static-FS pays the same recovery demand on its permanent
/// couples).
struct FaultSweepRequest {
  hier::Scheduler alg = hier::Scheduler::EDF;
  /// Fault rates (lambda, faults per time unit) to sweep; >= 0 each.
  std::vector<double> rates;
  /// FaultModel::min_separation of the swept models: the hard floor of the
  /// guaranteed inter-fault gap (fault::recovery_gap).
  double min_separation = 1.0;
  core::Overheads overheads{};
  core::DesignGoal goal = core::DesignGoal::MinOverheadBandwidth;
  core::SearchOptions search{};
  /// Exact slot supply for the per-rate FS channel checks (default: the
  /// linear supply bound, matching verify's default).
  bool use_exact_supply = false;
  /// Also evaluate the primary/backup and static-configuration baselines.
  bool with_baselines = true;
  AccuracyPolicy accuracy{};
};

/// One swept rate's verdicts. Flexible-platform fields assume the nominal
/// design (FaultSweepResult::schedule); baseline fields are admission
/// verdicts on the baseline platforms and are present only when
/// with_baselines.
struct FaultRatePoint {
  double rate = 0.0;
  /// Guaranteed inter-fault gap the recovery demand assumes (+inf at rate 0).
  double recovery_gap = 0.0;
  bool ft_ok = false;  ///< FT class: faults masked, design guarantee holds
  bool fs_ok = false;  ///< FS class: channels schedulable incl. recovery demand
  bool nf_ok = false;  ///< NF class: timing guarantee holds (outputs may corrupt)
  /// Expected corrupting faults per time unit (NF integrity metric).
  double nf_exposure = 0.0;
  bool pb_ok = false;         ///< primary/backup baseline schedulable
  bool static_ft_ok = false;  ///< all-FT static platform hosts the app
  bool static_fs_ok = false;  ///< all-FS static platform, recovery demand incl.
  bool static_nf_ok = false;  ///< all-NF static platform hosts the app
};

struct FaultSweepResult : ResultBase {
  bool feasible = false;  ///< nominal design exists (prov covers its ladder)
  /// Why the nominal design is infeasible (when ok() && !feasible; the
  /// sweep then has no points -- there is no schedule to degrade from).
  std::string infeasible;
  core::ModeSchedule schedule{};  ///< the nominal design, valid iff feasible
  std::vector<FaultRatePoint> points;  ///< one per requested rate, in order
};

// --- fleet runs -----------------------------------------------------------

/// What a fleet run reports back: every result was delivered to the sink
/// (in entry order), so the stats describe the transport, not the
/// answers. `max_buffered <= window` is the bounded-memory guarantee the
/// stream_fleet bench row tracks against the fleet size.
struct StreamStats {
  std::size_t emitted = 0;       ///< results delivered to the sink
  std::size_t window = 0;        ///< reorder window in force
  std::size_t max_buffered = 0;  ///< reorder-buffer high-water mark
};

// --- the service ----------------------------------------------------------

class AnalysisService {
 public:
  /// Builds one trial system (or nullopt when packing fails) -- the
  /// per-trial recipe of a generated fleet. Must be deterministic in
  /// (trial, rng), and rng comes from core::trial_rng, so fleets are
  /// identical across shard layouts and thread counts.
  using SystemFactory =
      std::function<std::optional<core::ModeTaskSystem>(std::size_t trial,
                                                        Rng& rng)>;

  /// `held_engines`: how many of its first engine builds the engine cache
  /// keeps for the service's lifetime (spread over its stripes, at most
  /// ceil(held_engines / kEngineShards) each). 0, the default, keeps none:
  /// the service makes one pass over its fleet.
  explicit AnalysisService(std::size_t held_engines = 0)
      : held_per_shard_(held_engines / kEngineShards +
                        (held_engines % kEngineShards != 0 ? 1 : 0)) {}
  AnalysisService(const AnalysisService&) = delete;
  AnalysisService& operator=(const AnalysisService&) = delete;

  /// Adds one system; returns its entry index.
  std::size_t add_system(core::ModeTaskSystem sys, std::string name = {});

  /// Adds this shard's slice of a generated trial study: one entry per
  /// global trial in shard_range(study.trials, study.shard), named
  /// "<prefix><trial>", built by `make` with the layout-independent
  /// trial_rng stream. Trials whose factory returns nullopt become
  /// answer-less entries (results carry error "packing failed"), keeping
  /// trial accounting intact across shards. Returns the first entry index.
  ///
  /// Generation is lazy: add_fleet records each trial's recipe and calls
  /// `make` zero times. The first read of an entry -- a run's worker, a
  /// journaled run's entry, has_system(), system() or engine_ptr() --
  /// builds its system, exactly once per entry, so a streamed study emits
  /// its first row before its last trial is generated, and a resumed
  /// journal generates only the entries it executes. Hence `make`:
  ///  - runs later, on whichever thread first needs the entry, and at most
  ///    once per entry;
  ///  - must be safe to call concurrently for different trials;
  ///  - must not capture anything that dies before the service's last run.
  /// A `make` that throws fails the command that needed the entry, with
  /// that exception (the entry stays answer-less and every later read
  /// rethrows it). It is not an error row: run() rethrows it once every
  /// earlier entry has been emitted, so rows of earlier entries may already
  /// be out, and a journaled run (svc::run_journaled) stays an uncommitted,
  /// resumable .partial.
  std::size_t add_fleet(const core::StudyOptions& study,
                        const SystemFactory& make,
                        const std::string& prefix = "trial");

  std::size_t size() const noexcept { return entries_.size(); }
  /// Whether entry i has a system (generating it on first use).
  bool has_system(std::size_t i) const {
    return entry(i).system.has_value();
  }
  const core::ModeTaskSystem& system(std::size_t i) const;

  // Fleet-wide execution, one path for every request type: run_one(i, req)
  // for each entry on par::parallel_for's workers, each result handed to
  // `sink` as soon as it and every earlier entry have finished -- entry
  // order, through a bounded reorder buffer (par::ordered_stream; window 0
  // = the library default, a small multiple of the thread count). Peak
  // result memory is O(window), not O(fleet): the enabler for
  // 10^5+-trial studies. The sink is called one result at a time, from
  // whichever worker completed the stream head, so a sink writing a single
  // ostream needs no locking of its own.
  template <typename Request, typename Sink>
  StreamStats run(const Request& req, Sink&& sink,
                  std::size_t window = 0) const {
    StreamStats stats;
    stats.window = window ? window : par::default_stream_window();
    stats.max_buffered = par::ordered_stream(
        size(), stats.window, [&](std::size_t i) { return run_one(i, req); },
        [&](std::size_t, auto&& result) {
          sink(std::move(result));
          ++stats.emitted;
        });
    return stats;
  }

  /// Every entry's result, in entry order: run() collecting through its
  /// sink.
  template <typename Request>
  auto run(const Request& req) const {
    std::vector<decltype(run_one(0, req))> out;
    out.reserve(size());
    run(req, [&](auto&& r) { out.push_back(std::move(r)); });
    return out;
  }

  // Single-entry execution: one fleet entry, memo-aware, on the calling
  // thread (what run(), journaled runs and per-entry reports drive).
  SolveResult solve_one(std::size_t i, const SolveRequest& req) const;
  MinQuantumResult min_quantum_one(std::size_t i,
                                   const MinQuantumRequest& req) const;
  RegionSweepResult region_sweep_one(std::size_t i,
                                     const RegionSweepRequest& req) const;
  VerifyResult verify_one(std::size_t i, const VerifyRequest& req) const;
  FaultSweepResult fault_sweep_one(std::size_t i,
                                   const FaultSweepRequest& req) const;

  /// The *_one of a request type, chosen by overload: what run() and
  /// generic per-entry drivers (journaled runs) call.
  SolveResult run_one(std::size_t i, const SolveRequest& req) const {
    return solve_one(i, req);
  }
  MinQuantumResult run_one(std::size_t i, const MinQuantumRequest& req) const {
    return min_quantum_one(i, req);
  }
  RegionSweepResult run_one(std::size_t i,
                            const RegionSweepRequest& req) const {
    return region_sweep_one(i, req);
  }
  VerifyResult run_one(std::size_t i, const VerifyRequest& req) const {
    return verify_one(i, req);
  }
  FaultSweepResult run_one(std::size_t i, const FaultSweepRequest& req) const {
    return fault_sweep_one(i, req);
  }

  /// Deterministic fault-injection hook for executor hardening tests: when
  /// set, called at the *start of every accuracy round* of every entry's
  /// ladder, with (entry index, 1-based round). A hook that throws models a
  /// failing analysis (the entry becomes an error row -- see
  /// ResultBase::error); a hook that sleeps models a stalling one (an
  /// active Deadline then degrades the entry). Test-only by intent: not
  /// synchronized against in-flight requests, so set it before issuing
  /// work. Pass nullptr to clear.
  using ProbeHook = std::function<void(std::size_t entry, std::size_t round)>;
  void set_probe_hook(ProbeHook hook) { probe_hook_ = std::move(hook); }

  /// The per-(entry, scheduler, budget) probe engine -- the escape hatch
  /// for engine-level probes the typed requests do not cover
  /// (max_admissible_overhead, one-task margins, ...): a held one, or a
  /// fresh build. `max_points` 0 means the scheduler's library default
  /// budget (dlSet budget for EDF, per-task scheduling-point budget for
  /// FP). Engines are immutable and safe to probe concurrently. Shared
  /// ownership: an engine the cache does not keep lives as long as the
  /// returned pointer (what the accuracy ladders hold across a probe).
  std::shared_ptr<const analysis::BatchEngine> engine_ptr(
      std::size_t i, hier::Scheduler alg, std::size_t max_points = 0) const;

  /// Counters of the engine cache: the held engines it keeps, and the
  /// builds it did not keep (past the hold, a one-pass service's every
  /// build, or a concurrent duplicate), so entries + evictions is the
  /// number of engines built.
  struct EngineCacheStats {
    std::size_t entries = 0;
    std::uint64_t evictions = 0;
  };
  EngineCacheStats engine_cache_stats() const;

  /// The held engines' stripes.
  static constexpr std::size_t kEngineShards = 16;

 private:
  /// What add_fleet records for each of its trials, shared by them.
  struct Recipe {
    SystemFactory make;
    std::uint64_t base_seed = 0;
  };

  struct Entry {
    std::string name;
    std::size_t trial = kNoTrial;
    /// Set for a generated entry whose fields below entry() fills in on
    /// first use, once, under `generated`.
    std::shared_ptr<const Recipe> recipe;
    std::unique_ptr<std::once_flag> generated;
    mutable std::optional<core::ModeTaskSystem> system;
    mutable std::string error;  ///< why `system` is absent
    mutable rt::Hash128 key{};  ///< system_key(*system); empty when absent
    mutable std::exception_ptr failed;  ///< what `make` threw, if it did
  };

  /// Entry i, its system built first if it is a generated one not yet
  /// built. Every read of an entry goes through here.
  const Entry& entry(std::size_t i) const;

  /// (entry, scheduler, dlSet budget) -> engine.
  using EngineKey = std::tuple<std::size_t, int, std::size_t>;

  /// One stripe of the held engines: striping by key spreads the fleet
  /// workers that start entries at once across kEngineShards locks. A
  /// stripe keeps its first held_per_shard_ builds.
  struct EngineShard {
    sys::Mutex mu;
    std::map<EngineKey, std::shared_ptr<const analysis::BatchEngine>> held
        GUARDED_BY(mu);
  };

  EngineShard& engine_shard(const EngineKey& key) const noexcept {
    const auto [entry, alg, budget] = key;
    return engine_shards_[(entry + 31 * budget +
                           977 * static_cast<std::size_t>(alg)) %
                          kEngineShards];
  }

  template <typename Result, typename Body>
  Result run_entry(std::size_t i, Body&& body) const;

  /// Memo-aware wrapper of run_entry: consult the process-wide answer
  /// cache under the exact (system, request) key, fall back to `body`
  /// on a miss, and publish cacheable answers. Defined in the .cpp (all
  /// instantiations live there).
  template <typename Result, typename Request, typename Body>
  Result memoized(std::size_t i, const Request& req, Body&& body) const;

  /// core::solve_design on the accuracy ladder, rungs compared by period:
  /// solve_one's design and fault_sweep_one's nominal one. nullopt means
  /// infeasible at the final rung, and `infeasible` then says why. Defined
  /// in the .cpp.
  template <typename Request>
  std::optional<core::Design> design_ladder(std::size_t i, const Request& req,
                                            std::string& infeasible,
                                            Provenance& prov) const;

  /// The per-entry notify callback handed to the accuracy ladder: forwards
  /// each round start to the injection hook when one is set.
  auto probe_round(std::size_t i) const {
    return [this, i](std::size_t round) {
      if (probe_hook_) probe_hook_(i, round);
    };
  }

  std::vector<Entry> entries_;
  ProbeHook probe_hook_;
  std::size_t held_per_shard_;  ///< see the constructor
  mutable std::array<EngineShard, kEngineShards> engine_shards_;
  /// Builds not kept (EngineCacheStats::evictions).
  mutable std::atomic<std::uint64_t> engine_evictions_{0};
};

}  // namespace flexrt::svc
