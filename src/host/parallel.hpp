// Deterministic parallel sweep runner for host-side experiment harnesses —
// the only threads in the repo (the network engine is serial; DESIGN.md §9).
//
// Every sweep in this repo (chaos soak seeds, figure-bench configuration
// rows) is a map over an index range where each item is an independent,
// fully deterministic simulation. Parallelism must therefore never be
// observable in the *results*: sweep_collect() runs items on a small
// thread pool but slots each result by its item index, so callers that
// print or aggregate in index order produce byte-identical output to a
// serial run — only wall-clock time changes. Work distribution is a
// shared atomic cursor (dynamic scheduling), which affects nothing but
// which thread computes which item.
//
// Items must not touch shared mutable state; all simulation state in this
// codebase is owned per-run (Machine/Kernel/ChaosResult are constructed
// inside the item), so any pure run_*() harness call qualifies.
#pragma once

#include <cstddef>
#include <functional>
#include <type_traits>
#include <vector>

namespace sensmart::host {

// Resolve a --jobs request against the sweep size: 0 means auto-detect
// (hardware_concurrency, itself falling back to 1 when unknown); any
// request is clamped to the number of items so no idle threads are
// spawned. Always returns at least 1.
unsigned effective_jobs(unsigned requested, std::size_t n_items);

// Run fn(i) for every i in [0, n) across `jobs` worker threads and block
// until all items finished. jobs <= 1 runs inline on the calling thread,
// in index order, with no thread machinery at all. The first exception
// thrown by any item is rethrown here after all workers have joined.
void sweep_indexed(std::size_t n, unsigned jobs,
                   const std::function<void(std::size_t)>& fn);

// Typed sweep: returns fn(i) for every index, in index order, regardless
// of which thread ran which item or in what order they completed. R must
// be default-constructible (results land in a pre-sized vector) and must
// not be bool: vector<bool> packs results into shared words, so two
// threads storing adjacent slots would race — collect uint8_t instead.
template <typename R, typename Fn>
std::vector<R> sweep_collect(std::size_t n, unsigned jobs, Fn&& fn) {
  static_assert(!std::is_same_v<R, bool>,
                "vector<bool> slots share words across threads");
  std::vector<R> out(n);
  sweep_indexed(n, jobs, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace sensmart::host
