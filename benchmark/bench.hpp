// Shared pieces of the repository benchmark (benchmark/README.md): run
// options, per-run metric samples, the span tracer, and the workload entry
// points. Layers are timed only from outside, around calls into their
// public functions.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace sensmart::rw {
struct LinkedSystem;
}

namespace sensmart::bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Linearly interpolated quantile (q in [0, 1]); 0 for no samples.
double quantile(std::vector<double> v, double q);

// Peak resident set of this process (getrusage), and its current resident
// set (/proc/self/statm; 0 where unavailable), in MB.
double peak_rss_mb();
double current_rss_mb();

struct RunOptions {
  uint64_t seed = 0;
  double seconds = 10.0;  // measured phase: reps repeat until this elapses
  bool traced = false;    // record spans; report per-layer metrics
  bool smoke = false;     // tiny inputs, one rep (ctest)
};

// What one workload run measured and checked. Metric units live in the
// metric tables of main.cpp; workloads only name the metric.
struct Outcome {
  uint64_t attempted = 0;  // oracle-checked operations (tasks, seeds, nodes)
  uint64_t failed = 0;
  // Simulated behaviour digest; every rep must reproduce it exactly.
  uint64_t digest = 0;
  bool consistent = true;
  std::vector<std::string> errors;  // first oracle failures, for stderr
  std::map<std::string, std::vector<double>, std::less<>> samples;

  void sample(std::string_view name, double v) {
    samples[std::string(name)].push_back(v);
  }
  void set(std::string_view name, double v) {
    samples[std::string(name)] = {v};
  }
  void fail(std::string msg) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(msg));
  }
  // Record the rep's digest; a rep that differs from the first breaks
  // determinism.
  void check_digest(int rep, uint64_t d);
};

// In-memory spans around calls into each layer (choosing-metrics §4).
// Disabled tracers record nothing; `set_active` pauses an enabled one so a
// traced run can interleave untraced reps and report tracing overhead.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), active_(enabled) {}

  class Span {
   public:
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() {
      if (t_ != nullptr) t_->close(idx_);
    }

   private:
    friend class Tracer;
    Span(Tracer* t, size_t idx) : t_(t), idx_(idx) {}
    Tracer* t_;
    size_t idx_;
  };

  // Open a span named "<layer>.<call>"; closed when the result dies.
  Span span(const char* name);

  bool enabled() const { return enabled_; }
  void set_active(bool on) { active_ = enabled_ && on; }
  void set_rep(int rep) { rep_ = rep; }

  // Durations in seconds of every span named `name`.
  std::vector<double> durations(std::string_view name) const;

  // Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
  bool write_chrome(const std::string& path, const std::string& workload,
                    uint64_t seed) const;
  // Per-span-name calls, total and self time (total minus child spans).
  void print_self_times(std::ostream& os) const;

 private:
  struct Rec {
    const char* name;
    Clock::time_point start, end;
    int parent;
    int rep;
  };
  void close(size_t idx);

  bool enabled_;
  bool active_;
  int rep_ = -1;  // -1: set-up and reference phases
  int open_ = -1;
  Clock::time_point t0_ = Clock::now();
  std::vector<Rec> recs_;
};

// Repeat `rep(i)` (which returns its timed wall seconds) until `seconds`
// have elapsed; once in smoke mode. Each rep runs under a "bench.rep" span.
// In a traced run reps alternate untraced/traced, so both medians exist and
// their difference is the tracing overhead.
//
// `setup()` is timed into setup_s in a batch after every rep, topped up to
// a minimum count at the end: spread over the run, the set-up median sees
// the same machine as the reps. A batch starts with one untimed set-up,
// and none runs before the first rep: cold caches after a rep, and the
// cold process before it, made the first set-ups ~30 % slower.
struct RepWalls {
  std::vector<double> plain, traced;
};
template <class S, class F>
RepWalls run_reps(const RunOptions& o, Tracer& tr, Outcome& out, S&& setup,
                  F&& rep) {
  const size_t batch = o.smoke ? 1 : 25, min_setups = o.smoke ? 1 : 100;
  std::vector<double>& setups = out.samples["setup_s"];
  auto time_setups = [&] {
    setup();
    for (size_t k = 0; k < batch; ++k) {
      const auto sp = tr.span("bench.setup");
      const auto t0 = Clock::now();
      setup();
      setups.push_back(seconds_since(t0));
    }
  };
  RepWalls w;
  const auto t0 = Clock::now();
  for (int i = 0;; ++i) {
    const bool traced = tr.enabled() && i % 2 == 1;
    tr.set_active(traced);
    tr.set_rep(i);
    double s = 0.0;
    {
      const auto sp = tr.span("bench.rep");
      s = rep(i);
    }
    (traced ? w.traced : w.plain).push_back(s);
    time_setups();
    const bool have_both = !tr.enabled() || !w.traced.empty();
    if (have_both && (o.smoke || seconds_since(t0) >= o.seconds)) break;
  }
  tr.set_active(true);
  tr.set_rep(-1);
  while (setups.size() < min_setups) time_setups();
  return w;
}

// Record wall_s plus the traced-minus-untraced overhead of a traced run.
void record_walls(const RepWalls& w, Outcome& out);

// Record the rewriter's inflation and trampoline footprint of `sys`.
void record_link(const rw::LinkedSystem& sys, Outcome& out);

// Workloads (kernel_workloads.cpp, fleet_workloads.cpp).
Outcome run_kernel_fig7(const RunOptions& o, Tracer& tr);
Outcome run_chaos_sweep(const RunOptions& o, Tracer& tr);
Outcome run_fleet_star(const RunOptions& o, Tracer& tr);
Outcome run_fleet_grid(const RunOptions& o, Tracer& tr);

// Offset basis of the FNV-1a digests (net::fnv1a_step mixes values in).
inline constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

}  // namespace sensmart::bench
