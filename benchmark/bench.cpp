#include "bench.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>

namespace sensmart::bench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double current_rss_mb() {
  std::ifstream in("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  if (!(in >> size >> resident)) return 0.0;
  return double(resident) * double(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

void Outcome::check_digest(int rep, uint64_t d) {
  if (rep == 0) {
    digest = d;
  } else if (d != digest) {
    consistent = false;
    std::ostringstream e;
    e << "rep " << rep << " digest 0x" << std::hex << d << " != rep 0 digest 0x"
      << digest;
    errors.push_back(e.str());
  }
}

void record_walls(const RepWalls& w, Outcome& out) {
  for (double s : w.plain) out.sample("wall_s", s);
  if (!w.traced.empty()) {
    const double plain = quantile(w.plain, 0.5);
    out.set("trace.overhead_pct",
            100.0 * (quantile(w.traced, 0.5) - plain) / plain);
  }
}

Tracer::Span Tracer::span(const char* name) {
  if (!active_) return Span(nullptr, 0);
  const auto now = Clock::now();
  recs_.push_back({name, now, now, open_, rep_});
  open_ = static_cast<int>(recs_.size() - 1);
  return Span(this, recs_.size() - 1);
}

void Tracer::close(size_t idx) {
  recs_[idx].end = Clock::now();
  open_ = recs_[idx].parent;
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Rec& r : recs_)
    if (name == r.name)
      out.push_back(std::chrono::duration<double>(r.end - r.start).count());
  return out;
}

namespace {

// The layer of "net.engine.disseminate" is "net.engine".
std::string_view layer_of(std::string_view name) {
  const size_t dot = name.rfind('.');
  return dot == std::string_view::npos ? name : name.substr(0, dot);
}

}  // namespace

bool Tracer::write_chrome(const std::string& path, const std::string& workload,
                          uint64_t seed) const {
  std::ofstream os(path);
  if (!os) return false;
  auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - t0_).count();
  };
  os << std::fixed << std::setprecision(3);
  os << "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"workload\": \""
     << workload << "\", \"seed\": " << seed << "},\n\"traceEvents\": [\n";
  for (size_t i = 0; i < recs_.size(); ++i) {
    const Rec& r = recs_[i];
    os << "{\"name\": \"" << r.name << "\", \"cat\": \"" << layer_of(r.name)
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << us(r.start)
       << ", \"dur\": " << us(r.end) - us(r.start) << ", \"args\": {\"id\": "
       << i << ", \"parent\": " << r.parent << ", \"rep\": " << r.rep
       << ", \"workload\": \"" << workload << "\"}}"
       << (i + 1 < recs_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
  return bool(os);
}

void Tracer::print_self_times(std::ostream& os) const {
  struct Row {
    std::string_view name;
    size_t calls = 0;
    double total = 0.0, self = 0.0;
  };
  std::vector<Row> rows;
  auto row_of = [&rows](std::string_view name) -> Row& {
    for (Row& r : rows)
      if (r.name == name) return r;
    rows.push_back({name});
    return rows.back();
  };
  for (const Rec& r : recs_) {
    const double d = std::chrono::duration<double>(r.end - r.start).count();
    Row& row = row_of(r.name);
    ++row.calls;
    row.total += d;
    row.self += d;
    if (r.parent >= 0) row_of(recs_[size_t(r.parent)].name).self -= d;
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.self > b.self; });
  os << "per-layer self time (traced reps and set-up):\n"
     << std::left << std::setw(34) << "span" << std::right << std::setw(9)
     << "calls" << std::setw(13) << "total_s" << std::setw(13) << "self_s"
     << "\n";
  for (const Row& r : rows)
    os << std::left << std::setw(34) << r.name << std::right << std::setw(9)
       << r.calls << std::fixed << std::setprecision(6) << std::setw(13)
       << r.total << std::setw(13) << r.self << "\n";
  os.unsetf(std::ios::fixed);
}

}  // namespace sensmart::bench
