#include "svc/analysis_service.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <utility>

#include "baseline/primary_backup.hpp"
#include "baseline/static_config.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "fault/recovery.hpp"
#include "svc/memo_cache.hpp"

namespace flexrt::svc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::size_t resolve_budget(std::size_t points, hier::Scheduler alg) noexcept {
  if (points) return points;
  return alg == hier::Scheduler::FP ? rt::kDefaultFpPointBudget
                                    : rt::kDefaultDlPointBudget;
}

/// Fills the provenance of one probe round from the engine that ran it.
/// Asked *after* probing, so the exactness answers describe the
/// materialized caches (see BatchEngine::dl_exact).
bool record_probe(const analysis::BatchEngine& eng, std::size_t round,
                  std::size_t budget, Provenance& prov) {
  prov.probes = round;
  prov.budget = budget;
  prov.dl_exact = eng.dl_exact();
  prov.fp_exact = eng.fp_exact();
  prov.fp_budget =
      eng.scheduler() == hier::Scheduler::FP ? eng.fp_options().max_points : 0;
  return prov.dl_exact && prov.fp_exact;
}

/// Drives the accuracy ladder for one entry: probe at the initial budget,
/// then (adaptive only) re-probe at doubled budgets until the answer is
/// exact, settled, stops moving (move <= tol), or the cap is reached.
/// `move` returns the distance between consecutive answers; +inf means
/// "not comparable, keep refining" (e.g. the feasibility verdict flipped).
/// `settled(value)` says a condensed answer is already definitive (verify's
/// "schedulable": the condensed test is sufficient), so no larger budget
/// can change it.
///
/// Gap semantics: prov.gap is set only when the final answer is trustworthy
/// at the requested accuracy -- 0 when the probe turned exact or the answer
/// settled, the last inter-round move when the ladder converged (<= tol).
/// A ladder that exhausts the budget cap while the answer is still moving
/// reports nullopt: the last measured move bounds nothing about the
/// distance to the exact answer, so reporting it as "the gap" would
/// overstate the capped answer's accuracy.
///
/// Deadline semantics: an active pol.deadline is checked *after* the other
/// stop conditions and only between rungs, so a ladder that would finish
/// anyway reports its natural outcome, the first rung always completes
/// (there is always an answer to degrade to), and a run overshoots its
/// budget by at most one rung. Deadline degradation looks like a capped
/// ladder (gap nullopt, answer == fixed(final budget) bit for bit) plus
/// prov.degraded = true.
///
/// `notify(round)` fires at the start of every round, before the probe --
/// the deterministic injection point the executor-hardening tests hook
/// (AnalysisService::ProbeHook) to throw or stall at a chosen entry/round.
template <typename Value, typename EngineAt, typename Probe, typename Move,
          typename Settled, typename Notify>
Value run_ladder(const EngineAt& engine_at, const AccuracyPolicy& pol,
                 hier::Scheduler alg, const Probe& probe, const Move& move,
                 const Settled& settled, const Notify& notify,
                 Provenance& prov) {
  const par::StopWatch clock;
  std::size_t budget = resolve_budget(pol.initial_points, alg);
  const std::size_t cap = std::max(budget, pol.max_points);
  Value value{};
  std::optional<Value> prev;
  for (std::size_t round = 1;; ++round) {
    notify(round);
    // Pinned for the whole round: an engine the cache does not keep lives
    // only as long as this pointer.
    const std::shared_ptr<const analysis::BatchEngine> pinned =
        engine_at(budget);
    const analysis::BatchEngine& eng = *pinned;
    value = probe(eng);
    if (record_probe(eng, round, budget, prov) || settled(value)) {
      prov.gap = 0.0;
      break;
    }
    if (!pol.is_adaptive) {
      prov.gap = std::nullopt;  // condensed one-shot: gap unknown
      break;
    }
    if (prev) {
      const double m = move(*prev, value);
      if (m <= pol.tol) {
        prov.gap = m;  // converged: the last move is the measured gap
        break;
      }
    }
    if (budget >= cap) {
      prov.gap = std::nullopt;  // exhausted while still moving: gap unknown
      break;
    }
    if (pol.deadline.active() && clock.elapsed_ms() >= pol.deadline.wall_ms) {
      prov.degraded = true;  // out of wall time: settle for this rung
      prov.gap = std::nullopt;
      break;
    }
    prev = std::move(value);
    budget = rt::next_budget_rung(budget, cap);
  }
  return value;
}

/// The `settled` of every request whose condensed answers all stay open to
/// refinement.
constexpr auto kNeverSettled = [](const auto&) { return false; };

double array_move(const std::array<double, 3>& a, const std::array<double, 3>& b) {
  double m = 0.0;
  for (std::size_t k = 0; k < a.size(); ++k) m = std::max(m, std::abs(a[k] - b[k]));
  return m;
}

// --- memo keys ------------------------------------------------------------
//
// The request half of the memo key: every parameter hashes its raw bits,
// so a key matches only a bit-identical request. Every request type leads
// with a distinct tag, so identical parameter lists of different kinds
// cannot alias. The deadline is absent by construction: deadline-active
// requests bypass the memo entirely (degraded answers are
// wall-clock-dependent and must never be replayed as definitive).

void hash_policy(rt::HashStream& h, const AccuracyPolicy& pol,
                 hier::Scheduler alg) {
  h.u64(static_cast<std::uint64_t>(alg))
      .boolean(pol.is_adaptive)
      .u64(resolve_budget(pol.initial_points, alg))
      .f64(pol.tol)
      .u64(pol.max_points);
}

void hash_search(rt::HashStream& h, const core::SearchOptions& s) {
  h.f64(s.p_min).f64(s.p_max).f64(s.grid_step).f64(s.tolerance).boolean(
      s.use_exact_supply);
}

void hash_overheads(rt::HashStream& h, const core::Overheads& o) {
  h.f64(o.ft).f64(o.fs).f64(o.nf);
}

void hash_schedule(rt::HashStream& h, const core::ModeSchedule& s) {
  h.f64(s.period);
  for (const core::Slot* slot : {&s.ft, &s.fs, &s.nf}) {
    h.f64(slot->usable).f64(slot->overhead);
  }
}

void hash_request(rt::HashStream& h, const SolveRequest& r) {
  h.u64(1);
  hash_policy(h, r.accuracy, r.alg);
  hash_overheads(h, r.overheads);
  h.u64(static_cast<std::uint64_t>(r.goal));
  hash_search(h, r.search);
}

void hash_request(rt::HashStream& h, const MinQuantumRequest& r) {
  h.u64(2);
  hash_policy(h, r.accuracy, r.alg);
  h.f64(r.period).boolean(r.use_exact_supply);
}

void hash_request(rt::HashStream& h, const RegionSweepRequest& r) {
  h.u64(3);
  hash_policy(h, r.accuracy, r.alg);
  hash_search(h, r.search);
}

void hash_request(rt::HashStream& h, const VerifyRequest& r) {
  h.u64(5);
  hash_policy(h, r.accuracy, r.alg);
  hash_schedule(h, r.schedule);
  h.boolean(r.use_exact_supply);
}

void hash_request(rt::HashStream& h, const FaultSweepRequest& r) {
  h.u64(6);
  hash_policy(h, r.accuracy, r.alg);
  h.u64(r.rates.size());
  for (const double rate : r.rates) h.f64(rate);
  h.f64(r.min_separation);
  hash_overheads(h, r.overheads);
  h.u64(static_cast<std::uint64_t>(r.goal));
  hash_search(h, r.search);
  h.boolean(r.use_exact_supply).boolean(r.with_baselines);
}

}  // namespace

std::size_t AnalysisService::add_system(core::ModeTaskSystem sys,
                                        std::string name) {
  Entry e;
  e.name = name.empty() ? "system" + std::to_string(entries_.size())
                        : std::move(name);
  e.system = std::move(sys);
  e.key = system_key(*e.system);
  entries_.push_back(std::move(e));
  return entries_.size() - 1;
}

std::size_t AnalysisService::add_fleet(const core::StudyOptions& study,
                                       const SystemFactory& make,
                                       const std::string& prefix) {
  FLEXRT_REQUIRE(static_cast<bool>(make), "fleet factory must be callable");
  const auto [begin, end] = core::shard_range(study.trials, study.shard);
  const auto recipe =
      std::make_shared<const Recipe>(Recipe{make, study.base_seed});
  const std::size_t first = entries_.size();
  for (std::size_t t = begin; t < end; ++t) {
    Entry e;
    e.name = prefix + std::to_string(t);
    e.trial = t;
    e.recipe = recipe;
    e.generated = std::make_unique<std::once_flag>();
    entries_.push_back(std::move(e));
  }
  return first;
}

const AnalysisService::Entry& AnalysisService::entry(std::size_t i) const {
  const Entry& e = entries_.at(i);
  if (!e.recipe) return e;
  std::call_once(*e.generated, [&e] {
    // A throw is kept, not left to call_once: the entry is a pure function
    // of its trial, so a retry would throw again, and call_once's retry
    // after an exception is not portable.
    try {
      Rng rng = core::trial_rng(e.recipe->base_seed, e.trial);
      e.system = e.recipe->make(e.trial, rng);
      if (!e.system) {
        e.error = "packing failed";
      } else {
        e.key = system_key(*e.system);
      }
    } catch (...) {
      e.failed = std::current_exception();
    }
  });
  if (e.failed) std::rethrow_exception(e.failed);
  return e;
}

const core::ModeTaskSystem& AnalysisService::system(std::size_t i) const {
  const Entry& e = entry(i);
  FLEXRT_REQUIRE(e.system.has_value(),
                 "entry " + e.name + " has no system: " + e.error);
  return *e.system;
}

std::shared_ptr<const analysis::BatchEngine> AnalysisService::engine_ptr(
    std::size_t i, hier::Scheduler alg, std::size_t max_points) const {
  const core::ModeTaskSystem& sys = system(i);  // validates the entry
  const std::size_t budget = resolve_budget(max_points, alg);
  const EngineKey key{i, static_cast<int>(alg), budget};
  // A one-pass service keeps nothing, so it neither looks up nor locks.
  EngineShard* const shard = held_per_shard_ ? &engine_shard(key) : nullptr;
  if (shard) {
    sys::MutexLock lock(shard->mu);
    if (const auto it = shard->held.find(key); it != shard->held.end()) {
      return it->second;
    }
  }
  // Construct outside the lock -- fleet requests hit this from every
  // worker at once, and serializing the task-set snapshots would bottleneck
  // the fan-out. The one budget feeds whichever condensation the scheduler
  // consults (dlSet under EDF, per-task scheduling points under FP).
  rt::DlBoundOptions dl_opts;
  dl_opts.max_points = budget;
  rt::FpPointOptions fp_opts;
  fp_opts.max_points = budget;
  auto built =
      std::make_shared<const analysis::BatchEngine>(sys, alg, dl_opts,
                                                    fp_opts);
  if (shard) {
    // `built` outlives the lock: a losing duplicate is freed after the
    // lock is released, so no worker waits on a destructor.
    sys::MutexLock lock(shard->mu);
    if (const auto it = shard->held.find(key); it != shard->held.end()) {
      engine_evictions_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
    if (shard->held.size() < held_per_shard_) {
      return shard->held.emplace(key, std::move(built)).first->second;
    }
  }
  engine_evictions_.fetch_add(1, std::memory_order_relaxed);
  return built;
}

AnalysisService::EngineCacheStats AnalysisService::engine_cache_stats() const {
  EngineCacheStats out;
  out.evictions = engine_evictions_.load(std::memory_order_relaxed);
  for (EngineShard& shard : engine_shards_) {
    sys::MutexLock lock(shard.mu);
    out.entries += shard.held.size();
  }
  return out;
}

template <typename Result, typename Body>
Result AnalysisService::run_entry(std::size_t i, Body&& body) const {
  Result out;
  const Entry& e = entry(i);  // a generator's throw fails the run
  out.system = i;
  out.name = e.name;
  out.trial = e.trial;
  const par::StopWatch clock;
  if (!e.system) {
    out.error = e.error.empty() ? "entry has no system" : e.error;
  } else {
    // Catch-all, not just flexrt::Error: a fleet entry's analysis may throw
    // anything (bad_alloc, a stray library exception, an injected fault),
    // and an escaping exception would lose the entry -- or wedge a
    // streaming run's ordered gate, which waits on every ticket. Every
    // failure becomes an error row instead.
    try {
      body(out);
    } catch (const std::exception& err) {  // flexrt::Error included
      out.error = err.what();
    } catch (...) {
      out.error = "unknown exception";
    }
  }
  out.prov.wall_ms = clock.elapsed_ms();
  return out;
}

template <typename Result, typename Request, typename Body>
Result AnalysisService::memoized(std::size_t i, const Request& req,
                                 Body&& body) const {
  const Entry& e = entry(i);
  MemoCache& memo = global_memo();
  // The memo stays out of the way whenever replaying could change
  // semantics: answer-less entries (error rows carry entry context),
  // injection hooks (hardening tests count ladder rounds), and
  // deadline-active requests (wall-clock-dependent, possibly degraded).
  const bool use_memo = e.system.has_value() && memo.enabled() &&
                        !probe_hook_ && !req.accuracy.deadline.active();
  rt::Hash128 key{};
  if (use_memo) {
    rt::HashStream h;
    h.u64(e.key.hi).u64(e.key.lo);
    hash_request(h, req);
    key = h.digest();
    const par::StopWatch clock;
    if (std::optional<MemoPayload> hit = memo.lookup(key)) {
      if (Result* payload = std::get_if<Result>(&*hit)) {
        // The stored answer verbatim: the key matched bit-identical
        // inputs, so this is exactly what recomputation would return.
        Result out = std::move(*payload);
        out.system = i;
        out.name = e.name;
        out.trial = e.trial;
        out.prov.cache_hit = true;
        out.prov.wall_ms = clock.elapsed_ms();
        return out;
      }
      // A different result type under this key would be a tag collision;
      // treat it as a miss and recompute (never replay a wrong shape).
    }
  }
  Result out = run_entry<Result>(i, std::forward<Body>(body));
  if (use_memo && out.ok() && !out.prov.degraded) {
    Result stored = out;
    stored.system = 0;      // identity belongs to the asking entry
    stored.name.clear();
    stored.trial = kNoTrial;
    stored.prov.wall_ms = 0.0;  // transport, not answer
    memo.insert(key, std::move(stored));
  }
  return out;
}

template <typename Request>
std::optional<core::Design> AnalysisService::design_ladder(
    std::size_t i, const Request& req, std::string& infeasible,
    Provenance& prov) const {
  // The probed value is the designed schedule (nullopt: infeasible at
  // this budget); the ladder compares consecutive periods.
  using Value = std::optional<core::Design>;
  std::string why;
  Value design = run_ladder<Value>(
      [&](std::size_t budget) { return engine_ptr(i, req.alg, budget); },
      req.accuracy, req.alg,
      [&](const analysis::BatchEngine& eng) -> Value {
        try {
          return core::solve_design(eng, req.overheads, req.goal, req.search);
        } catch (const InfeasibleError& err) {
          why = err.what();
          return std::nullopt;
        }
      },
      [](const Value& a, const Value& b) {
        if (!a || !b) return kInf;  // verdict flipped / still infeasible
        return std::abs(a->schedule.period - b->schedule.period);
      },
      kNeverSettled, probe_round(i), prov);
  if (!design) infeasible = std::move(why);
  return design;
}

SolveResult AnalysisService::solve_one(std::size_t i,
                                       const SolveRequest& req) const {
  return memoized<SolveResult>(i, req, [&](SolveResult& out) {
    std::optional<core::Design> design =
        design_ladder(i, req, out.infeasible, out.prov);
    out.feasible = design.has_value();
    if (design) out.design = std::move(*design);
  });
}

MinQuantumResult AnalysisService::min_quantum_one(
    std::size_t i, const MinQuantumRequest& req) const {
  return memoized<MinQuantumResult>(i, req, [&](MinQuantumResult& out) {
    const auto engine_at = [&](std::size_t budget) {
      return engine_ptr(i, req.alg, budget);
    };
    out.mode_quantum = run_ladder<std::array<double, 3>>(
        engine_at, req.accuracy, req.alg,
        [&](const analysis::BatchEngine& eng) {
          std::array<double, 3> q{};
          for (std::size_t m = 0; m < core::kAllModes.size(); ++m) {
            q[m] = eng.mode_min_quantum(core::kAllModes[m], req.period,
                                        req.use_exact_supply);
          }
          return q;
        },
        array_move, kNeverSettled, probe_round(i), out.prov);
    out.margin = req.period - out.mode_quantum[0] - out.mode_quantum[1] -
                 out.mode_quantum[2];
  });
}

RegionSweepResult AnalysisService::region_sweep_one(
    std::size_t i, const RegionSweepRequest& req) const {
  return memoized<RegionSweepResult>(i, req, [&](RegionSweepResult& out) {
    const auto engine_at = [&](std::size_t budget) {
      return engine_ptr(i, req.alg, budget);
    };
    out.samples = run_ladder<std::vector<core::RegionSample>>(
        engine_at, req.accuracy, req.alg,
        [&](const analysis::BatchEngine& eng) {
          return eng.sample_region(req.search);
        },
        [](const std::vector<core::RegionSample>& a,
           const std::vector<core::RegionSample>& b) {
          if (a.size() != b.size()) return kInf;
          double m = 0.0;
          for (std::size_t k = 0; k < a.size(); ++k) {
            m = std::max(m, std::abs(a[k].margin - b[k].margin));
          }
          return m;
        },
        kNeverSettled, probe_round(i), out.prov);
  });
}

VerifyResult AnalysisService::verify_one(std::size_t i,
                                         const VerifyRequest& req) const {
  return memoized<VerifyResult>(i, req, [&](VerifyResult& out) {
    // A condensed "schedulable" is already safe and definitive, so adaptive
    // accuracy only escalates a condensed "no"; two verdicts never compare.
    out.schedulable = run_ladder<bool>(
        [&](std::size_t budget) { return engine_ptr(i, req.alg, budget); },
        req.accuracy, req.alg,
        [&](const analysis::BatchEngine& eng) {
          return eng.verify(req.schedule, req.use_exact_supply);
        },
        [](bool, bool) { return kInf; },
        [](bool schedulable) { return schedulable; }, probe_round(i),
        out.prov);
  });
}

FaultSweepResult AnalysisService::fault_sweep_one(
    std::size_t i, const FaultSweepRequest& req) const {
  return memoized<FaultSweepResult>(i, req, [&](FaultSweepResult& out) {
    // Phase 1: the nominal design, exactly solve_one's ladder (the request's
    // accuracy/deadline policy governs this phase; the per-rate checks below
    // run on fixed bounded contexts and need no ladder).
    const std::optional<core::Design> design =
        design_ladder(i, req, out.infeasible, out.prov);
    out.feasible = design.has_value();
    if (!design) return;  // no schedule: nothing to sweep
    out.schedule = design->schedule;

    // Phase 2: rate-independent work, once per entry.
    const core::ModeTaskSystem& sys = system(i);
    rt::TaskSet all_tasks;
    for (const rt::Mode mode : core::kAllModes) {
      for (const rt::Task& t : sys.mode_tasks(mode)) all_tasks.add(t);
    }
    const double u_nf = sys.mode_tasks(rt::Mode::NF).utilization();
    bool pb_ok = false, static_ft_ok = false, static_nf_ok = false;
    std::optional<std::vector<rt::TaskSet>> static_fs_bins;
    if (req.with_baselines) {
      // PB is fault-rate independent (active backups; see primary_backup.hpp)
      // and so are AllFT (faults masked) and AllNF (timing unaffected); only
      // AllFS pays a per-rate recovery demand, re-tested per point below.
      pb_ok = baseline::try_primary_backup(all_tasks, req.alg);
      static_ft_ok =
          baseline::try_static(all_tasks, baseline::StaticConfig::AllFT,
                               req.alg)
              .schedulable;
      static_nf_ok =
          baseline::try_static(all_tasks, baseline::StaticConfig::AllNF,
                               req.alg)
              .schedulable;
      static_fs_bins = baseline::static_partition(
          all_tasks, baseline::StaticConfig::AllFS);
    }

    // Phase 3: per-rate verdicts under the fault model's recovery demand.
    out.points.reserve(req.rates.size());
    for (const double rate : req.rates) {
      FaultRatePoint p;
      p.rate = rate;
      p.recovery_gap =
          fault::recovery_gap(fault::FaultModel{rate, req.min_separation});
      // FT: the 4-way lock-step channel masks every single transient fault,
      // so the designed guarantee holds at any swept rate. NF: a strike
      // corrupts output but never timing; the guarantee holds, integrity
      // degrades by the exposure metric.
      p.ft_ok = true;
      p.nf_ok = true;
      p.nf_exposure = fault::corruption_exposure(rate, u_nf);
      // FS: each channel must absorb one re-execution per recovery gap
      // within its designed slot supply. An empty channel has nothing to
      // recover, and with no FS task the slot is 0, which has no linear
      // supply.
      p.fs_ok = true;
      for (const rt::TaskSet& channel : sys.partitions(rt::Mode::FS)) {
        if (channel.empty()) continue;
        const bool ok =
            req.use_exact_supply
                ? fault::fs_schedulable(channel, req.alg,
                                        out.schedule.exact_supply(rt::Mode::FS),
                                        p.recovery_gap)
                : fault::fs_schedulable(channel, req.alg,
                                        out.schedule.supply(rt::Mode::FS),
                                        p.recovery_gap);
        if (!ok) {
          p.fs_ok = false;
          break;
        }
      }
      if (req.with_baselines) {
        p.pb_ok = pb_ok;
        p.static_ft_ok = static_ft_ok;
        p.static_nf_ok = static_nf_ok;
        if (static_fs_bins) {
          p.static_fs_ok = true;
          for (const rt::TaskSet& bin : *static_fs_bins) {
            if (!fault::fs_schedulable_dedicated(bin, req.alg,
                                                 p.recovery_gap)) {
              p.static_fs_ok = false;
              break;
            }
          }
        }
      }
      out.points.push_back(p);
    }
  });
}

}  // namespace flexrt::svc
