#include "svc/arrival.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/params.h"

namespace thunderbolt::svc {

namespace {

[[noreturn]] void AbortBadParams(const std::string& spec,
                                 const std::string& why) {
  std::fprintf(stderr, "arrival: bad params \"%s\": %s\n", spec.c_str(),
               why.c_str());
  std::abort();
}

/// The parsed value, or an abort naming `spec`: arrival specs are
/// configuration (see ArrivalOptions::params).
template <typename T>
T OrAbort(const std::string& spec, Result<T> parsed) {
  if (!parsed.ok()) AbortBadParams(spec, parsed.status().message());
  return std::move(parsed).value();
}

struct BurstShape {
  double on_ms = 200;
  double off_ms = 800;
  double mult = 8;
};

Result<BurstShape> ParseBurstParams(const ArrivalOptions& options) {
  THUNDERBOLT_ASSIGN_OR_RETURN(const std::vector<Param> parsed,
                               ParseParams(options.params));
  BurstShape shape;
  for (const Param& p : parsed) {
    double* field = p.key == "on_ms"    ? &shape.on_ms
                    : p.key == "off_ms" ? &shape.off_ms
                    : p.key == "mult"   ? &shape.mult
                                        : nullptr;
    if (field == nullptr) {
      return Status::InvalidArgument("burst: unknown key \"" + p.key + "\"");
    }
    THUNDERBOLT_ASSIGN_OR_RETURN(*field, ParseDouble(p));
  }
  if (shape.on_ms <= 0 || shape.off_ms < 0 || shape.mult < 1 ||
      options.rate_tps <= 0) {
    return Status::InvalidArgument(
        "burst: need on_ms > 0, off_ms >= 0, mult >= 1 and a positive rate");
  }
  return shape;
}

/// A trace's arrival offsets for one stream, sorted, and its period.
struct TraceSchedule {
  std::vector<SimTime> offsets;
  SimTime loop_us = 0;  // 0 = play once.
};

/// The "<t_us> [stream]" lines of `path` that belong to `options.stream`.
Status LoadTraceFile(const std::string& path, const ArrivalOptions& options,
                     std::vector<SimTime>* offsets) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return Status::InvalidArgument("trace: file \"" + path +
                                   "\" not readable");
  }
  char line[256];
  size_t index = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned long long t = 0, stream = 0;
    const int fields = std::sscanf(line, "%llu %llu", &t, &stream);
    if (fields < 1) continue;  // Blank/comment line.
    const uint64_t target = fields >= 2 ? stream % options.num_streams
                                        : index % options.num_streams;
    if (target == options.stream) offsets->push_back(t);
    ++index;
  }
  std::fclose(f);
  return Status::OK();
}

Result<TraceSchedule> ParseTraceParams(const ArrivalOptions& options) {
  THUNDERBOLT_ASSIGN_OR_RETURN(const std::vector<Param> parsed,
                               ParseParams(options.params));
  TraceSchedule trace;
  std::string times_spec, file;
  for (const Param& p : parsed) {
    if (p.key == "times") {
      times_spec = p.value;
    } else if (p.key == "file") {
      file = p.value;
    } else if (p.key == "loop_us") {
      THUNDERBOLT_ASSIGN_OR_RETURN(trace.loop_us, ParseUint(p));
    } else {
      return Status::InvalidArgument("trace: unknown key \"" + p.key + "\"");
    }
  }
  if (times_spec.empty() == file.empty()) {
    return Status::InvalidArgument(
        "trace: exactly one of times=t1;t2;... or file=<path> is required");
  }
  if (!file.empty()) {
    THUNDERBOLT_RETURN_NOT_OK(LoadTraceFile(file, options, &trace.offsets));
  } else {
    // Inline offsets, ';'-separated, round-robin across streams.
    size_t index = 0;
    for (const std::string& offset : Split(times_spec, ';')) {
      THUNDERBOLT_ASSIGN_OR_RETURN(const SimTime t,
                                   ParseUint(Param{"times", offset}));
      if (index++ % options.num_streams == options.stream) {
        trace.offsets.push_back(t);
      }
    }
  }
  std::sort(trace.offsets.begin(), trace.offsets.end());
  if (trace.loop_us > 0 && !trace.offsets.empty() &&
      trace.offsets.back() >= trace.loop_us) {
    return Status::InvalidArgument(
        "trace: every arrival offset must lie below loop_us");
  }
  return trace;
}

/// Exponential interarrival gap in integer microseconds, at least 1 so
/// NextArrival is strictly increasing (two arrivals may still share a
/// microsecond across streams; within a stream time always advances).
SimTime ExpGapUs(double rate_tps, Rng& rng) {
  const double mean_us = 1e6 / rate_tps;
  const double gap = rng.NextExponential(mean_us);
  return std::max<SimTime>(1, static_cast<SimTime>(gap));
}

/// Memoryless arrivals at a fixed mean rate.
class PoissonArrival : public ArrivalProcess {
 public:
  explicit PoissonArrival(const ArrivalOptions& options)
      : rate_tps_(options.rate_tps) {
    const Status params = CheckNoParams("poisson", options.params);
    if (!params.ok()) AbortBadParams(options.params, params.message());
    if (rate_tps_ <= 0) {
      std::fprintf(stderr, "arrival: poisson rate must be > 0 (got %f)\n",
                   rate_tps_);
      std::abort();
    }
  }

  std::string name() const override { return "poisson"; }

  SimTime NextArrival(SimTime now, Rng& rng) override {
    return now + ExpGapUs(rate_tps_, rng);
  }

 private:
  double rate_tps_;
};

/// On/off modulated Poisson (flash crowd). The instantaneous rate is
/// piecewise constant over the phase schedule; sampling walks phase
/// boundaries and redraws from each boundary, which is exact for a
/// piecewise-constant-rate Poisson process (memorylessness).
class BurstArrival : public ArrivalProcess {
 public:
  explicit BurstArrival(const ArrivalOptions& options) {
    const BurstShape shape =
        OrAbort(options.params, ParseBurstParams(options));
    on_us_ = static_cast<SimTime>(shape.on_ms * 1000);
    period_us_ = on_us_ + static_cast<SimTime>(shape.off_ms * 1000);
    // Pin the long-run average to the configured rate: with duty cycle d,
    // rate = d*mult*base + (1-d)*base.
    const double duty =
        static_cast<double>(on_us_) / static_cast<double>(period_us_);
    const double base =
        options.rate_tps / (duty * shape.mult + (1.0 - duty));
    off_rate_tps_ = base;
    on_rate_tps_ = base * shape.mult;
  }

  std::string name() const override { return "burst"; }

  SimTime NextArrival(SimTime now, Rng& rng) override {
    SimTime t = now;
    for (;;) {
      const SimTime phase_pos = t % period_us_;
      const bool on = phase_pos < on_us_;
      const SimTime phase_end = t - phase_pos + (on ? on_us_ : period_us_);
      const double rate = on ? on_rate_tps_ : off_rate_tps_;
      if (rate <= 0) {  // off_ms with mult pinning base to 0 never happens,
        t = phase_end;  // but keep the walk total just in case.
        continue;
      }
      const SimTime candidate = t + ExpGapUs(rate, rng);
      if (candidate <= phase_end) return candidate;
      t = phase_end;  // Crossed a boundary: redraw at the new phase's rate.
    }
  }

 private:
  SimTime on_us_ = 0;
  SimTime period_us_ = 0;
  double on_rate_tps_ = 0;
  double off_rate_tps_ = 0;
};

/// Replay of a recorded schedule (see file header for the two sources).
class TraceArrival : public ArrivalProcess {
 public:
  explicit TraceArrival(const ArrivalOptions& options) {
    TraceSchedule trace = OrAbort(options.params, ParseTraceParams(options));
    schedule_ = std::move(trace.offsets);
    loop_us_ = trace.loop_us;
  }

  std::string name() const override { return "trace"; }

  SimTime NextArrival(SimTime now, Rng& rng) override {
    (void)rng;  // Replay is fully determined by the schedule.
    if (schedule_.empty()) return kSimTimeNever;
    if (loop_us_ == 0) {
      // Play once: binary-search the first offset strictly after now.
      auto it = std::upper_bound(schedule_.begin(), schedule_.end(), now);
      return it == schedule_.end() ? kSimTimeNever : *it;
    }
    // Periodic replay: the schedule repeats with period loop_us_.
    const SimTime cycle = now / loop_us_;
    const SimTime pos = now % loop_us_;
    auto it = std::upper_bound(schedule_.begin(), schedule_.end(), pos);
    if (it != schedule_.end()) return cycle * loop_us_ + *it;
    return (cycle + 1) * loop_us_ + schedule_.front();
  }

 private:
  std::vector<SimTime> schedule_;
  SimTime loop_us_ = 0;  // 0 = play once.
};

}  // namespace

Status CheckArrivalParams(const std::string& name,
                          const ArrivalOptions& options) {
  if (name == "poisson") return CheckNoParams("poisson", options.params);
  if (name == "burst") return ParseBurstParams(options).status();
  if (name == "trace") return ParseTraceParams(options).status();
  return Status::OK();
}

ArrivalRegistry& ArrivalRegistry::Global() {
  static ArrivalRegistry* registry = [] {
    auto* r = new ArrivalRegistry();
    r->Register("poisson", [](const ArrivalOptions& o) {
      return std::make_unique<PoissonArrival>(o);
    });
    r->Register("burst", [](const ArrivalOptions& o) {
      return std::make_unique<BurstArrival>(o);
    });
    r->Register("trace", [](const ArrivalOptions& o) {
      return std::make_unique<TraceArrival>(o);
    });
    return r;
  }();
  return *registry;
}

}  // namespace thunderbolt::svc
