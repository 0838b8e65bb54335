// The stack-versatility workload of §V-D: a sense-and-send style mix of
// one data-feeding task and several processing (binary-tree search) tasks.
//
// The paper's feeder stores incoming data into binary trees which search
// tasks then traverse recursively (12 levels of recursion on average, some
// reaching 15; each level adds 15 bytes of stack). SenSmart isolates task
// memory, so in this reproduction each search task owns its trees in its
// own heap region and builds them from a seeded in-program PRNG before
// searching — preserving exactly the properties the experiment measures:
// heap pressure growing with tree size, highly dynamic recursion-driven
// stacks, and stack demand exceeding the average allocation.
#pragma once

#include <vector>

#include "assembler/assembler.hpp"

namespace sensmart::apps {

struct TreeSearchParams {
  uint16_t nodes_per_tree = 24;  // Fig. 7 x-axis
  uint8_t trees = 2;             // trees owned (6 total in the paper's mix)
  uint16_t searches = 64;        // recursive searches to perform
  uint16_t seed = 0xACE1;        // PRNG seed (vary per task)
};

// A processing task: builds `trees` binary search trees of
// `nodes_per_tree` nodes each in its heap, then runs `searches` recursive
// lookups of random keys. Each recursion level pushes a 13-byte register
// frame plus a 2-byte return address (15 bytes, §V-D). Emits the hit count
// and maximum recursion depth, then exits.
assembler::Image tree_search_program(const TreeSearchParams& p);

// The data-feeding task: periodically generates "sensor" data and appends
// it to small heap buffers (the sense half of sense-and-send); shallow
// stack, periodic blocking sleeps.
assembler::Image data_feed_program(uint16_t rounds = 64,
                                   uint16_t period_ticks = 96);

// The Fig. 7 mix: one data feed (6 rounds, period 64) plus `search_tasks`
// single-tree search tasks of `nodes_per_tree` nodes and `searches`
// lookups each, task i seeded 0x3131 + 0x1D0B * i.
std::vector<assembler::Image> fig7_mix(uint16_t nodes_per_tree,
                                       int search_tasks,
                                       uint16_t searches = 32);

}  // namespace sensmart::apps
