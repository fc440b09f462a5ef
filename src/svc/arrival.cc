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

std::vector<Param> ParamsOrAbort(const std::string& spec) {
  return OrAbort(spec, ParseParams(spec));
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
    for (const Param& p : ParamsOrAbort(options.params)) {
      AbortBadParams(options.params, "poisson: unknown key \"" + p.key + "\"");
    }
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
    double on_ms = 200, off_ms = 800, mult = 8;
    for (const Param& p : ParamsOrAbort(options.params)) {
      if (p.key == "on_ms") {
        on_ms = OrAbort(options.params, ParseDouble(p));
      } else if (p.key == "off_ms") {
        off_ms = OrAbort(options.params, ParseDouble(p));
      } else if (p.key == "mult") {
        mult = OrAbort(options.params, ParseDouble(p));
      } else {
        AbortBadParams(options.params, "burst: unknown key \"" + p.key + "\"");
      }
    }
    if (on_ms <= 0 || off_ms < 0 || mult < 1 || options.rate_tps <= 0) {
      AbortBadParams(options.params,
                     "burst: need on_ms > 0, off_ms >= 0, mult >= 1 and a "
                     "positive rate");
    }
    on_us_ = static_cast<SimTime>(on_ms * 1000);
    period_us_ = on_us_ + static_cast<SimTime>(off_ms * 1000);
    // Pin the long-run average to the configured rate: with duty cycle d,
    // rate = d*mult*base + (1-d)*base.
    const double duty =
        static_cast<double>(on_us_) / static_cast<double>(period_us_);
    const double base = options.rate_tps / (duty * mult + (1.0 - duty));
    off_rate_tps_ = base;
    on_rate_tps_ = base * mult;
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
    std::string times_spec, file;
    for (const Param& p : ParamsOrAbort(options.params)) {
      if (p.key == "times") {
        times_spec = p.value;
      } else if (p.key == "file") {
        file = p.value;
      } else if (p.key == "loop_us") {
        loop_us_ = OrAbort(options.params, ParseUint(p));
      } else {
        AbortBadParams(options.params, "trace: unknown key \"" + p.key + "\"");
      }
    }
    if (times_spec.empty() == file.empty()) {
      AbortBadParams(options.params,
                     "trace: exactly one of times=t1;t2;... or file=<path> "
                     "is required");
    }
    if (!file.empty()) {
      LoadFile(file, options);
    } else {
      // Inline offsets, ';'-separated, round-robin across streams.
      size_t index = 0;
      for (const std::string& offset : Split(times_spec, ';')) {
        const SimTime t =
            OrAbort(options.params, ParseUint(Param{"times", offset}));
        if (index++ % options.num_streams == options.stream) {
          schedule_.push_back(t);
        }
      }
    }
    std::sort(schedule_.begin(), schedule_.end());
    if (loop_us_ > 0 && !schedule_.empty() && schedule_.back() >= loop_us_) {
      AbortBadParams(options.params,
                     "trace: every arrival offset must lie below loop_us");
    }
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
  void LoadFile(const std::string& path, const ArrivalOptions& options) {
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) {
      std::fprintf(stderr, "arrival: trace file \"%s\" not readable\n",
                   path.c_str());
      std::abort();
    }
    char line[256];
    size_t index = 0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      unsigned long long t = 0, stream = 0;
      const int fields = std::sscanf(line, "%llu %llu", &t, &stream);
      if (fields < 1) continue;  // Blank/comment line.
      const uint64_t target = fields >= 2
                                  ? stream % options.num_streams
                                  : index % options.num_streams;
      if (target == options.stream) schedule_.push_back(t);
      ++index;
    }
    std::fclose(f);
  }

  std::vector<SimTime> schedule_;
  SimTime loop_us_ = 0;  // 0 = play once.
};

}  // namespace

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
