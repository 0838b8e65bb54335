#include "apps/treesearch.hpp"

#include <stdexcept>

#include "emu/io_map.hpp"

namespace sensmart::apps {

using assembler::Assembler;
using assembler::Image;
using namespace emu;

namespace {

// Emit the shared PRNG: rand16 returns r16:r17 and advances the LFSR state
// in r8:r9 (Fibonacci taps 16,14,13,11). Clobbers r18.
void emit_rand16(Assembler& a) {
  a.label("rand16");
  a.mov(18, 8);
  a.mov(16, 8);
  a.lsr(18);
  a.lsr(18);
  a.eor(16, 18);  // s ^ s>>2
  a.lsr(18);
  a.eor(16, 18);  // ^ s>>3
  a.lsr(18);
  a.lsr(18);
  a.eor(16, 18);  // ^ s>>5
  a.andi(16, 1);  // feedback bit
  a.lsr(9);       // s >>= 1
  a.ror(8);
  a.cpi(16, 0);
  a.breq("rand_nobit");
  a.ldi(18, 0x80);
  a.or_(9, 18);
  a.label("rand_nobit");
  a.mov(16, 8);
  a.mov(17, 9);
  a.ret();
}

void emit_seed(Assembler& a, uint16_t seed) {
  a.ldi(16, static_cast<uint8_t>(seed & 0xFF));
  a.mov(8, 16);
  a.ldi(16, static_cast<uint8_t>(seed >> 8));
  a.mov(9, 16);
}

}  // namespace

Image tree_search_program(const TreeSearchParams& p) {
  if (p.trees == 0 || p.nodes_per_tree == 0)
    throw std::invalid_argument("tree_search: empty workload");
  const uint32_t total_nodes = uint32_t(p.trees) * p.nodes_per_tree;
  if (total_nodes > 500)
    throw std::invalid_argument("tree_search: heap would not fit");

  Assembler a("treesearch");
  const uint16_t roots = a.var("roots", static_cast<uint16_t>(p.trees * 2));
  const uint16_t nf = a.var("next_free", 2);
  const uint16_t nodes =
      a.var("nodes", static_cast<uint16_t>(total_nodes * 6));

  a.rjmp("start");
  emit_rand16(a);

  // search: recursive lookup of key r16:r17 starting at node X (r26:r27).
  // Each level pushes a 13-byte register frame plus the 2-byte return
  // address: 15 bytes per recursion level (§V-D). r4 = current depth,
  // r6 = hits, r7 = max depth, r2 = zero.
  a.label("search");
  a.cp(26, 2);
  a.cpc(27, 2);
  a.brne("srch_go");
  a.ret();
  a.label("srch_go");
  for (uint8_t r : {0, 3, 5, 10, 11, 12, 13, 14, 15, 18, 19, 30, 31})
    a.push(r);
  a.inc(4);
  a.cp(7, 4);
  a.brcc("depth_ok");  // r7 >= r4
  a.mov(7, 4);
  a.label("depth_ok");
  a.movw(30, 26);
  a.ldd_z(18, 0);  // node.key (grouped access)
  a.ldd_z(19, 1);
  a.cp(16, 18);
  a.cpc(17, 19);
  a.brne("srch_ne");
  a.inc(6);  // hit
  a.rjmp("srch_out");
  a.label("srch_ne");
  a.brcs("srch_left");  // C set: key < node.key
  a.ldd_z(26, 4);       // right child
  a.ldd_z(27, 5);
  a.rcall("search");
  a.rjmp("srch_out");
  a.label("srch_left");
  a.ldd_z(26, 2);  // left child
  a.ldd_z(27, 3);
  a.rcall("search");
  a.label("srch_out");
  a.dec(4);
  for (uint8_t r : {31, 30, 19, 18, 15, 14, 13, 12, 11, 10, 5, 3, 0})
    a.pop(r);
  a.ret();

  // ---- main ----------------------------------------------------------------
  a.label("start");
  a.ldi(16, 0);
  a.mov(2, 16);  // zero register
  a.mov(4, 16);  // depth
  a.mov(6, 16);  // hits
  a.mov(7, 16);  // max depth
  emit_seed(a, p.seed);

  // next_free = &nodes; roots[] = 0.
  a.ldi16(18, nodes);
  a.sts(nf, 18);
  a.sts(static_cast<uint16_t>(nf + 1), 19);
  a.ldi16(26, roots);
  a.ldi(17, static_cast<uint8_t>(p.trees * 2));
  a.label("clr_roots");
  a.st_x_inc(2);
  a.dec(17);
  a.brne("clr_roots");

  // ---- build: insert total_nodes keys round-robin across the trees -----
  a.ldi16(20, static_cast<uint16_t>(total_nodes));
  a.ldi(22, 0);  // tree index
  a.label("build_loop");
  a.rcall("rand16");  // key in r16:r17

  // Allocate a node: X = next_free; next_free += 6.
  a.lds(26, nf);
  a.lds(27, static_cast<uint16_t>(nf + 1));
  a.mov(18, 26);
  a.mov(19, 27);
  a.subi(18, 0xFA);  // += 6
  a.sbci(19, 0xFF);
  a.sts(nf, 18);
  a.sts(static_cast<uint16_t>(nf + 1), 19);
  // Initialize: key, left = right = null.
  a.movw(30, 26);
  a.std_z(0, 16);
  a.std_z(1, 17);
  a.std_z(2, 2);
  a.std_z(3, 2);
  a.std_z(4, 2);
  a.std_z(5, 2);

  // Insert node X with key r16:r17 into tree r22.
  a.mov(18, 22);
  a.add(18, 18);  // t*2
  a.ldi16(28, roots);
  a.add(28, 18);
  a.adc(29, 2);  // Y = &roots[t]
  a.ldd_y(18, 0);
  a.ldd_y(19, 1);
  a.cp(18, 2);
  a.cpc(19, 2);
  a.brne("ins_walk");
  a.std_y(0, 26);  // empty tree: root = node
  a.std_y(1, 27);
  a.rjmp("ins_done");
  a.label("ins_walk");
  a.movw(10, 18);  // r10:r11 = cur
  a.label("walk_loop");
  a.movw(30, 10);  // Z = cur
  a.ldd_z(18, 0);
  a.ldd_z(19, 1);
  a.cp(16, 18);
  a.cpc(17, 19);
  a.brcs("go_left");
  a.ldd_z(18, 4);  // right child
  a.ldd_z(19, 5);
  a.cp(18, 2);
  a.cpc(19, 2);
  a.breq("set_right");
  a.movw(10, 18);
  a.rjmp("walk_loop");
  a.label("set_right");
  a.std_z(4, 26);
  a.std_z(5, 27);
  a.rjmp("ins_done");
  a.label("go_left");
  a.ldd_z(18, 2);  // left child
  a.ldd_z(19, 3);
  a.cp(18, 2);
  a.cpc(19, 2);
  a.breq("set_left");
  a.movw(10, 18);
  a.rjmp("walk_loop");
  a.label("set_left");
  a.std_z(2, 26);
  a.std_z(3, 27);
  a.label("ins_done");

  a.inc(22);
  a.cpi(22, p.trees);
  a.brne("no_wrap_b");
  a.ldi(22, 0);
  a.label("no_wrap_b");
  a.dec16(20);
  a.breq("build_done");
  a.rjmp("build_loop");  // loop body exceeds the BRNE offset range
  a.label("build_done");

  // ---- search: replay the PRNG so the first total_nodes keys hit ---------
  emit_seed(a, p.seed);
  a.ldi16(20, p.searches);
  a.ldi(22, 0);
  a.label("search_loop");
  a.rcall("rand16");
  a.mov(18, 22);
  a.add(18, 18);
  a.ldi16(28, roots);
  a.add(28, 18);
  a.adc(29, 2);
  a.ldd_y(26, 0);  // X = root of tree r22
  a.ldd_y(27, 1);
  a.rcall("search");
  a.inc(22);
  a.cpi(22, p.trees);
  a.brne("no_wrap_s");
  a.ldi(22, 0);
  a.label("no_wrap_s");
  a.dec16(20);
  a.brne("search_loop");

  a.sts(kHostOut, 6);  // hits
  a.sts(kHostOut, 7);  // max recursion depth
  a.halt(0);
  return a.finish();
}

Image data_feed_program(uint16_t rounds, uint16_t period_ticks) {
  Assembler a("datafeed");
  const uint16_t buf = a.var("buf", 64);
  const uint16_t widx = a.var("widx", 1);

  a.rjmp("start");
  emit_rand16(a);

  a.label("start");
  emit_seed(a, 0x1234);
  a.ldi(16, 0);
  a.sts(widx, 16);
  a.ldi16(20, rounds);

  a.label("round");
  // Sleep until the next feed period.
  a.lds(24, kTcnt3L);
  a.lds(25, kTcnt3H);
  a.ldi16(18, period_ticks);
  a.add(24, 18);
  a.adc(25, 19);
  a.sts(kSleepTargetL, 24);
  a.sts(kSleepTargetH, 25);
  a.sleep();

  // Append 8 "sensor" bytes to the circular buffer.
  a.ldi(19, 8);
  a.label("feed");
  a.rcall("rand16");
  a.lds(18, widx);
  a.ldi16(26, buf);
  a.add(26, 18);
  a.ldi(17, 0);
  a.adc(27, 17);
  a.st_x(16);
  a.inc(18);
  a.andi(18, 0x3F);  // mod 64
  a.sts(widx, 18);
  a.dec(19);
  a.brne("feed");

  a.dec16(20);
  a.brne("round");

  a.lds(16, widx);
  a.sts(kHostOut, 16);
  a.halt(0);
  return a.finish();
}

std::vector<Image> fig7_mix(uint16_t nodes_per_tree, int search_tasks,
                            uint16_t searches) {
  std::vector<Image> images;
  images.push_back(data_feed_program(6, 64));
  for (int i = 0; i < search_tasks; ++i) {
    TreeSearchParams p;
    p.nodes_per_tree = nodes_per_tree;
    p.trees = 1;
    p.searches = searches;
    p.seed = static_cast<uint16_t>(0x3131 + 0x1D0B * i);
    images.push_back(tree_search_program(p));
  }
  return images;
}

}  // namespace sensmart::apps
