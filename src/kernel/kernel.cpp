// Kernel construction, task admission and the trampoline service
// dispatcher with all handlers.
#include "kernel/kernel.hpp"

#include <algorithm>
#include <stdexcept>

namespace sensmart::kern {

using emu::kDataEnd;
using emu::kSramBase;
using isa::Op;

const char* to_string(TaskState s) {
  switch (s) {
    case TaskState::Ready: return "ready";
    case TaskState::Running: return "running";
    case TaskState::Blocked: return "blocked";
    case TaskState::Done: return "done";
    case TaskState::Killed: return "killed";
  }
  return "?";
}

namespace {
// Pre/post pointer adjustment of an indirect memory op.
struct PtrMode {
  int pre = 0;
  int post = 0;
};
PtrMode ptr_mode(Op op) {
  switch (op) {
    case Op::LdXInc:
    case Op::LdYInc:
    case Op::LdZInc:
    case Op::StXInc:
    case Op::StYInc:
    case Op::StZInc:
      return {0, 1};
    case Op::LdXDec:
    case Op::LdYDec:
    case Op::LdZDec:
    case Op::StXDec:
    case Op::StYDec:
    case Op::StZDec:
      return {-1, 0};
    default:
      return {0, 0};
  }
}
uint8_t ptr_reg(isa::Ptr p) {
  switch (p) {
    case isa::Ptr::X: return 26;
    case isa::Ptr::Y: return 28;
    default: return 30;
  }
}
}  // namespace

const char* to_string(KillReason r) {
  switch (r) {
    case KillReason::None: return "none";
    case KillReason::InvalidAccess: return "invalid-access";
    case KillReason::OutOfStackMemory: return "out-of-stack-memory";
    case KillReason::BadJump: return "bad-jump";
    case KillReason::Injected: return "injected";
    case KillReason::Watchdog: return "watchdog";
  }
  return "?";
}

Kernel::Kernel(emu::Machine& machine, const rw::LinkedSystem& sys,
               KernelConfig cfg)
    : m_(machine), sys_(&sys), cfg_(cfg) {
  init();
}

Kernel::Kernel(emu::Machine& machine, rw::LinkedSystem&& sys, KernelConfig cfg,
               InstallInfo install)
    : m_(machine),
      owned_sys_(std::make_unique<rw::LinkedSystem>(std::move(sys))),
      sys_(owned_sys_.get()),
      cfg_(cfg),
      install_(install) {
  init();
}

Kernel::Kernel(emu::Machine& machine,
               std::shared_ptr<const rw::LinkedSystem> sys,
               std::shared_ptr<const emu::Machine::SharedImage> image,
               KernelConfig cfg, InstallInfo install)
    : m_(machine),
      shared_sys_(std::move(sys)),
      shared_image_(std::move(image)),
      sys_(shared_sys_.get()),
      cfg_(cfg),
      install_(install) {
  init();
}

void Kernel::init() {
  const rw::LinkedSystem& sys = *sys_;
  // Trampoline CALLs transiently push 2 bytes on the task stack before the
  // handler pops them, so the red zone can never be thinner than 4 bytes.
  cfg_.stack_margin = std::max<uint16_t>(cfg_.stack_margin, 4);
  if (!cfg_.injected_kills.empty())
    next_kill_at_ = cfg_.injected_kills.front().at_service_call;
  recovery_on_ =
      cfg_.supervise.enabled || cfg_.supervise.watchdog_cycles > 0;
  svc_table_ = sys.services.data();
  n_services_ = static_cast<uint32_t>(sys.services.size());
  csvc_.resize(sys.services.size());
  for (size_t i = 0; i < sys.services.size(); ++i) {
    const rw::Service& svc = sys.services[i];
    const isa::Instruction& ins = svc.original;
    CompiledSvc& c = csvc_[i];
    c.kind = svc.kind;
    c.ptr_reg = ptr_reg(isa::pointer_of(ins));
    const PtrMode pm = ptr_mode(ins.op);
    c.pre = static_cast<int8_t>(pm.pre);
    c.post = static_cast<int8_t>(pm.post);
    c.rd = ins.rd;
    c.q = ins.q;
    c.group_min = svc.group_min;
    c.group_span = svc.group_span;
    c.store = isa::is_store(ins.op);
    c.is_push = ins.op == Op::Push;
    if (ins.op == Op::Brbs || ins.op == Op::Brbc) {
      c.br_always = false;
      c.br_set = ins.op == Op::Brbs;
      c.br_bit = ins.b;
    }
    if (svc.kind == rw::ServiceKind::PushPop) {
      c.run_n = svc.group_span <= 3 ? svc.group_span : 3;
      for (int f = 0; f < c.run_n; ++f)
        c.run_rd[f] = static_cast<uint8_t>((svc.run_regs >> (5 * f)) & 0x1F);
    }
  }
  if (shared_image_)
    m_.adopt_image(shared_image_);
  else
    m_.load_flash(sys.flash);
  m_.set_service_handler(0, &Kernel::service_thunk, this);
}

bool Kernel::service_thunk(void* self, emu::Machine& m, uint32_t svc_arg) {
  return static_cast<Kernel*>(self)->on_service(m, svc_arg);
}

std::optional<uint8_t> Kernel::admit(size_t program_index) {
  if (started_) throw std::logic_error("admit() after start()");
  if (program_index >= sys_->programs.size())
    throw std::out_of_range("program index");

  // Feasibility: every task needs its heap plus the minimum stack.
  const uint32_t app_space =
      uint32_t(kDataEnd - cfg_.kernel_ram) - kSramBase;
  uint32_t needed = sys_->programs[program_index].heap_size + cfg_.min_stack;
  for (const Task& t : tasks_)
    needed += prog_of(t).heap_size + cfg_.min_stack;
  if (needed > app_space) return std::nullopt;

  Task t;
  t.id = static_cast<uint8_t>(tasks_.size());
  t.program = program_index;
  tasks_.push_back(std::move(t));
  rebuild_xlate_cache();
  return tasks_.back().id;
}

size_t Kernel::admit_all() {
  size_t n = 0;
  for (size_t i = 0; i < sys_->programs.size(); ++i)
    if (admit(i)) ++n;
  return n;
}

bool Kernel::start() {
  if (started_) throw std::logic_error("start() called twice");
  if (!layout_regions()) return false;
  started_ = true;

  m_.charge(cfg_.costs.init);
  if (cfg_.warmup_cycles > 0) m_.charge(cfg_.warmup_cycles);

  current_ = 0;
  bind_current();
  Task& t = tasks_[0];
  t.state = TaskState::Running;
  for (uint8_t r = 0; r < 32; ++r) m_.mem().set_reg(r, t.regs[r]);
  m_.mem().set_sreg(t.sreg);
  m_.mem().set_sp(t.sp);
  m_.set_pc(t.pc);
  slice_start_ = m_.cycles();
  account_mark_ = m_.cycles();
  start_cycle_ = m_.cycles();
  alloc_mark_ = m_.cycles();
  emit(EventKind::Start, uint16_t(tasks_.size()));
  return true;
}

emu::StopReason Kernel::run(uint64_t max_cycles) {
  if (!started_) throw std::logic_error("run() before start()");
  return m_.run(max_cycles);
}

bool Kernel::all_stopped() const {
  for (const Task& t : tasks_)
    if (t.live()) return false;
  return true;
}

size_t Kernel::live_count() const {
  size_t n = 0;
  for (const Task& t : tasks_)
    if (t.live()) ++n;
  return n;
}

void Kernel::note_stack_depth(Task& t) {
  const uint16_t depth =
      static_cast<uint16_t>(t.p_u - 1 - m_.mem().sp());
  t.peak_stack_used = std::max(t.peak_stack_used, depth);
}

// ---------------------------------------------------------------------------
// Service dispatch
// ---------------------------------------------------------------------------

bool Kernel::on_service(emu::Machine& m, uint32_t idx) {
  if (idx >= n_services_) return false;
  // The common services (stack ops and pointer loads/stores) run entirely
  // from the flattened CompiledSvc row; the wider Service descriptor is
  // only touched by the rare kinds that need the original instruction.
  const CompiledSvc& cs = csvc_[idx];
  ++stats_.service_calls;

  // The address the trampoline CALL pushed: the naturalized address of
  // the instruction following the patched site.
  const uint16_t ret = m.service_ret();

  // Fault injection (chaos testing): a scheduled kill fires at this service
  // boundary, before the service body runs. If it took the current task, the
  // pending service must not execute. One compare in the common case.
  if (stats_.service_calls >= next_kill_at_ && injected_kill_due(ret))
    return true;

  // Recovery bookkeeping: any service other than a branch relay counts as
  // evidence of useful progress — it refreshes the watchdog mark and
  // credits the healthy streak that clears a supervised failure run.
  // Branch relays are excluded on purpose: a runaway register-only loop
  // traps through them constantly and must not look healthy.
  if (recovery_on_ && cs.kind != rw::ServiceKind::BackwardBranch &&
      cs.kind != rw::ServiceKind::ForwardBranch)
    note_healthy_service();

  switch (cs.kind) {
    case rw::ServiceKind::MemIndirect:
      svc_mem_indirect(cs, ret, IndTier::Full);
      break;
    case rw::ServiceKind::MemIndirectGrouped:
      svc_mem_indirect(cs, ret, IndTier::Grouped);
      break;
    case rw::ServiceKind::MemIndirectCoalesced:
      svc_mem_indirect(cs, ret, IndTier::Coalesced);
      break;
    case rw::ServiceKind::MemDirect:
      svc_mem_direct(svc_table_[idx], ret, /*fast=*/false);
      break;
    case rw::ServiceKind::MemDirectFast:
      svc_mem_direct(svc_table_[idx], ret, /*fast=*/true);
      break;
    case rw::ServiceKind::ReservedDirect:
      svc_reserved_direct(svc_table_[idx], ret);
      break;
    case rw::ServiceKind::PushPop:
      svc_push_pop(cs, ret);
      break;
    case rw::ServiceKind::CallEnter:
      svc_call_enter(idx, svc_table_[idx], ret);
      break;
    case rw::ServiceKind::Return:
      svc_return(svc_table_[idx], ret);
      break;
    case rw::ServiceKind::IndirectJump:
      svc_indirect_jump(svc_table_[idx], ret);
      break;
    case rw::ServiceKind::BackwardBranch:
    case rw::ServiceKind::ForwardBranch:
      svc_branch(idx, cs, ret);
      break;
    case rw::ServiceKind::SpRead:
      svc_sp_read(svc_table_[idx], ret);
      break;
    case rw::ServiceKind::SpWrite:
      svc_sp_write(svc_table_[idx], ret);
      break;
    case rw::ServiceKind::Lpm:
      svc_lpm(svc_table_[idx], ret);
      break;
    case rw::ServiceKind::SleepOp:
      svc_sleep(ret);
      break;
  }
  return true;
}

bool Kernel::injected_kill_due(uint16_t resume_pc) {
  bool killed_current = false;
  while (next_injected_kill_ < cfg_.injected_kills.size() &&
         stats_.service_calls >=
             cfg_.injected_kills[next_injected_kill_].at_service_call) {
    const InjectedKill& ik = cfg_.injected_kills[next_injected_kill_++];
    Task* victim = nullptr;
    for (Task& t : tasks_)
      if (t.id == ik.task && t.live()) victim = &t;
    if (victim == nullptr) continue;  // already exited; drop the injection
    ++stats_.injected_kills;
    const bool was_current = victim->id == current().id;
    kill_task(*victim, KillReason::Injected);
    if (was_current) {
      m_.set_pc(resume_pc);
      context_switch(resume_pc, false);
      killed_current = true;
      break;
    }
  }
  next_kill_at_ = next_injected_kill_ < cfg_.injected_kills.size()
                      ? cfg_.injected_kills[next_injected_kill_].at_service_call
                      : UINT64_MAX;
  return killed_current;
}

void Kernel::svc_mem_indirect(const CompiledSvc& cs, uint16_t ret,
                              IndTier tier) {
  Task& t = current();
  const uint16_t p0 = m_.mem().reg_pair(cs.ptr_reg);
  const uint16_t base = static_cast<uint16_t>(p0 + cs.pre);
  const uint16_t logical = static_cast<uint16_t>(base + cs.q);

  m_.set_pc(ret);
  ++stats_.mem_translations;

  // Group leaders validate the whole group's displacement window once. The
  // window start is computed in 32 bits: `base + group_min` can exceed
  // 0xFFFF, and truncating it would wrap the window into low memory and
  // let a wild pointer group pass validation.
  if (tier == IndTier::Full && cs.group_span > 0) {
    const uint32_t win_lo = uint32_t(base) + uint32_t(cs.group_min);
    if (win_lo > 0xFFFF ||
        !check_window(t, static_cast<uint16_t>(win_lo), cs.group_span)) {
      kill_task(t, KillReason::InvalidAccess);
      context_switch(ret, false);
      return;
    }
  }

  const Xlate x = translate(t, logical);
  if (x.area == Xlate::Area::Invalid) {
    kill_task(t, KillReason::InvalidAccess);
    context_switch(ret, false);
    return;
  }

  const bool store = cs.store;
  if (x.area == Xlate::Area::Io) {
    uint8_t v = store ? m_.mem().reg(cs.rd) : 0;
    if (reserved_port_access(x.phys, v, store, ret)) {
      if (!store) m_.mem().set_reg(cs.rd, v);
    } else if (store) {
      m_.mem().write(x.phys, m_.mem().reg(cs.rd));
    } else {
      m_.mem().set_reg(cs.rd, m_.mem().read(x.phys));
    }
    charge_op(cfg_.costs.ind_io);
  } else {
    if (store)
      m_.mem().set_raw(x.phys, m_.mem().reg(cs.rd));
    else
      m_.mem().set_reg(cs.rd, m_.mem().raw(x.phys));
    switch (tier) {
      case IndTier::Grouped:
        charge_op(cfg_.costs.ind_grouped);
        break;
      case IndTier::Coalesced:
        charge_op(cfg_.costs.ind_coalesced);
        break;
      case IndTier::Full:
        charge_op(x.area == Xlate::Area::Heap ? cfg_.costs.ind_heap
                                              : cfg_.costs.ind_stack);
        break;
    }
  }

  if (cs.pre != 0 || cs.post != 0)
    m_.mem().set_reg_pair(cs.ptr_reg, static_cast<uint16_t>(base + cs.post));
}

void Kernel::svc_mem_direct(const rw::Service& svc, uint16_t ret, bool fast) {
  Task& t = current();
  const isa::Instruction& ins = svc.original;
  m_.set_pc(ret);
  ++stats_.mem_translations;

  // The fast tier's address was statically proven in-heap by the rewriter,
  // so translate() cannot fail for it; it still runs the same path so the
  // two tiers are behaviorally indistinguishable (only the charge differs).
  const Xlate x = translate(t, static_cast<uint16_t>(ins.k));
  if (x.area == Xlate::Area::Invalid) {
    kill_task(t, KillReason::InvalidAccess);
    context_switch(ret, false);
    return;
  }
  if (ins.op == Op::Sts)
    m_.mem().set_raw(x.phys, m_.mem().reg(ins.rd));
  else
    m_.mem().set_reg(ins.rd, m_.mem().raw(x.phys));
  charge_op(fast ? cfg_.costs.direct_fast : cfg_.costs.direct_other);
}

void Kernel::svc_reserved_direct(const rw::Service& svc, uint16_t ret) {
  const isa::Instruction& ins = svc.original;
  const auto addr = static_cast<uint16_t>(ins.k);
  m_.set_pc(ret);
  const bool write = ins.op == Op::Sts;
  uint8_t v = write ? m_.mem().reg(ins.rd) : 0;
  reserved_port_access(addr, v, write, ret);
  if (!write) m_.mem().set_reg(ins.rd, v);
  charge_op(cfg_.costs.reserved_io);
}

bool Kernel::reserved_port_access(uint16_t addr, uint8_t& value, bool write,
                                  uint16_t resume_pc) {
  if (!rw::is_reserved_port(addr)) return false;
  Task& t = current();
  switch (addr) {
    case emu::kTcnt3L:
      if (!write) {
        const uint16_t ticks = m_.dev().timer3_ticks(m_.cycles());
        t.tcnt3_latch = static_cast<uint8_t>(ticks >> 8);
        value = static_cast<uint8_t>(ticks & 0xFF);
      }
      break;
    case emu::kTcnt3H:
      if (!write) value = t.tcnt3_latch;
      break;
    case emu::kTccr3:
      if (!write) value = 0;  // reserved by the kernel; writes are ignored
      break;
    case emu::kHostOut:
      if (write) t.host_out.push_back(value);
      break;
    case emu::kHostHalt:
      if (write) {
        finish_task(t, value);
        context_switch(resume_pc, false);
      }
      break;
    case emu::kSleepTargetL:
      if (write) t.sleep_target_l = value;
      break;
    case emu::kSleepTargetH:
      if (write) {
        // Anchor the wake cycle to the absolute tick count (the 16-bit
        // target is interpreted modulo 2^16), as the device model does.
        const uint16_t target =
            static_cast<uint16_t>(t.sleep_target_l | (value << 8));
        const uint64_t abs_ticks = m_.cycles() / emu::kTimer3Prescale;
        const uint16_t delta =
            static_cast<uint16_t>(target - static_cast<uint16_t>(abs_ticks));
        t.sleep_wake_cycle = (abs_ticks + delta) * emu::kTimer3Prescale +
                             emu::kTimer3Prescale - 1;
        if (t.sleep_wake_cycle < m_.cycles()) t.sleep_wake_cycle = m_.cycles();
        t.sleep_armed = true;
      }
      break;
    default:
      break;
  }
  return true;
}

void Kernel::svc_push_pop(const CompiledSvc& cs, uint16_t ret) {
  Task& t = current();
  m_.set_pc(ret);
  const int members = 1 + cs.run_n;

  // One check for the whole collapsed run: pushes only descend, so when the
  // last member keeps the red-zone margin every earlier one does; pops only
  // ascend, so when the last member does not underflow no earlier one does.
  // The run then copies straight through.
  const uint16_t sp0 = m_.mem().sp();
  if (cs.is_push ? int(sp0) - (members - 1) >=
                       int(run_.xc->p_h) + int(cfg_.stack_margin)
                 : int(sp0) + members < int(t.p_u)) {
    for (int i = 0; i < members; ++i) {
      const uint8_t rd = i == 0 ? cs.rd : cs.run_rd[i - 1];
      if (cs.is_push) {
        const auto sp = static_cast<uint16_t>(sp0 - i);
        m_.mem().set_raw(sp, m_.mem().reg(rd));
        const auto depth = static_cast<uint16_t>(t.p_u - sp);
        if (depth > t.peak_stack_used) t.peak_stack_used = depth;
      } else {
        const auto at = static_cast<uint16_t>(sp0 + 1 + i);
        m_.mem().set_reg(rd, m_.mem().raw(at));
      }
    }
    m_.mem().set_sp(static_cast<uint16_t>(cs.is_push ? sp0 - members
                                                     : sp0 + members));
  } else if (!push_pop_each(cs, t)) {
    context_switch(ret, false);
    return;
  }
  // Each follower's placeholder NOP pays 1 cycle natively; the leader
  // charges the rest of the per-member run cost.
  stats_.stack_run_members += cs.run_n;
  charge_op(cfg_.costs.stack_pushpop +
            uint32_t(cs.run_n) * (cfg_.costs.stack_run_member - 1));
}

bool Kernel::push_pop_each(const CompiledSvc& cs, Task& t) {
  // The per-member headroom check, relocation request and kill condition
  // that separate PUSH/POP services would apply, so machine state and the
  // relocation trajectory match collapsing off exactly.
  for (int i = 0; i <= cs.run_n; ++i) {
    const uint8_t rd = i == 0 ? cs.rd : cs.run_rd[i - 1];
    uint16_t sp = m_.mem().sp();
    if (cs.is_push) {
      // A relocation moves SP, so SP is re-read after it.
      const uint16_t p_h = run_.xc->p_h;
      if (sp < p_h || static_cast<uint16_t>(sp - p_h) < cfg_.stack_margin) {
        if (!ensure_stack_slow(1)) return false;
        sp = m_.mem().sp();
      }
      m_.mem().set_raw(sp, m_.mem().reg(rd));
      m_.mem().set_sp(static_cast<uint16_t>(sp - 1));
      const uint16_t depth = static_cast<uint16_t>(t.p_u - sp);
      if (depth > t.peak_stack_used) t.peak_stack_used = depth;
    } else {  // Pop
      if (sp + 1 >= t.p_u) {
        kill_task(t, KillReason::InvalidAccess);  // stack underflow
        return false;
      }
      m_.mem().set_reg(rd, m_.mem().raw(static_cast<uint16_t>(sp + 1)));
      m_.mem().set_sp(static_cast<uint16_t>(sp + 1));
    }
  }
  return true;
}

void Kernel::svc_call_enter(uint32_t idx, const rw::Service& svc,
                            uint16_t ret) {
  Task& t = current();

  if (!ensure_stack(2)) {
    context_switch(ret, false);
    return;
  }

  // An ICALL's target is the *original* program address the task computed
  // in Z; a CALL's or RCALL's is fixed by the site.
  const bool icall = svc.original.op == Op::Icall;
  uint32_t target_nat = rw::kBadTarget;
  if (!icall) {
    target_nat = relay_target(idx, svc, ret);
  } else if (const uint16_t z = m_.mem().reg_pair(30); z < run_.orig_words) {
    target_nat = run_.prog->map.to_naturalized(z);
  }
  if (target_nat == rw::kBadTarget) {
    m_.set_pc(ret);
    kill_task(t, KillReason::BadJump);
    context_switch(ret, false);
    return;
  }
  if (icall) m_.charge(cfg_.costs.prog_mem);

  m_.push16(ret);  // the naturalized return address
  note_stack_depth(t);
  m_.set_pc(target_nat);
  charge_op(cfg_.costs.stack_callret);
}

void Kernel::svc_return(const rw::Service&, uint16_t ret) {
  Task& t = current();

  if (m_.mem().sp() + 2 >= t.p_u) {
    m_.set_pc(ret);
    kill_task(t, KillReason::InvalidAccess);  // no return address on stack
    context_switch(ret, false);
    return;
  }
  const uint16_t target = m_.pop16();
  if (target < run_.base || target >= run_.base + run_.nat_words) {
    kill_task(t, KillReason::BadJump);  // smashed stack
    context_switch(ret, false);
    return;
  }
  m_.set_pc(target);
  charge_op(cfg_.costs.stack_callret);
}

void Kernel::svc_indirect_jump(const rw::Service&, uint16_t ret) {
  Task& t = current();
  const uint16_t z = m_.mem().reg_pair(30);
  if (z >= run_.orig_words) {
    m_.set_pc(ret);
    kill_task(t, KillReason::BadJump);
    context_switch(ret, false);
    return;
  }
  const uint32_t target = run_.prog->map.to_naturalized(z);
  m_.set_pc(target);
  charge_op(cfg_.costs.prog_mem);
  trap_tick(target);  // an indirect jump may close a loop
}

void Kernel::svc_branch(uint32_t idx, const CompiledSvc& cs, uint16_t ret) {
  const bool backward = cs.kind == rw::ServiceKind::BackwardBranch;
  const bool taken =
      cs.br_always || (((m_.mem().sreg() >> cs.br_bit) & 1) != 0) == cs.br_set;
  const uint32_t pc = taken ? relay_target(idx, svc_table_[idx], ret) : ret;
  m_.set_pc(pc);
  charge_op(backward ? cfg_.costs.trap_fast : cfg_.costs.fwd_branch);
  if (backward) trap_tick(pc);
}

void Kernel::svc_sp_read(const rw::Service& svc, uint16_t ret) {
  Task& t = current();
  const uint16_t logical =
      static_cast<uint16_t>(m_.mem().sp() + logical_sp_offset(t));
  const bool low = emu::kIoBase + svc.original.a == emu::kSpl;
  m_.mem().set_reg(svc.original.rd,
                   low ? static_cast<uint8_t>(logical & 0xFF)
                       : static_cast<uint8_t>(logical >> 8));
  m_.set_pc(ret);
  // The IN pair totals get_sp cycles: 23 for the low read, 22 for the high.
  charge_op(low ? (cfg_.costs.get_sp + 1) / 2 : cfg_.costs.get_sp / 2);
}

void Kernel::svc_sp_write(const rw::Service& svc, uint16_t ret) {
  Task& t = current();
  const uint8_t v = m_.mem().reg(svc.original.rd);
  const bool low = emu::kIoBase + svc.original.a == emu::kSpl;
  const uint16_t cur_logical =
      static_cast<uint16_t>(m_.mem().sp() + logical_sp_offset(t));
  const uint16_t new_logical =
      low ? static_cast<uint16_t>((cur_logical & 0xFF00) | v)
          : static_cast<uint16_t>((cur_logical & 0x00FF) | (v << 8));

  m_.set_pc(ret);
  if (new_logical >= emu::kDataEnd) {
    kill_task(t, KillReason::InvalidAccess);
    context_switch(ret, false);
    return;
  }

  // The requested stack depth is invariant under relocation; grow the
  // region until the new SP fits with the red-zone margin.
  const uint32_t needed_alloc =
      uint32_t(emu::kDataEnd - new_logical) + cfg_.stack_margin;
  if (needed_alloc > uint32_t(kernel_base_ - kSramBase)) {
    kill_task(t, KillReason::InvalidAccess);
    context_switch(ret, false);
    return;
  }
  while (t.stack_alloc() < needed_alloc) {
    if (!grow_step(static_cast<uint16_t>(needed_alloc - t.stack_alloc()))) {
      context_switch(ret, false);
      return;
    }
  }
  const uint16_t new_phys =
      static_cast<uint16_t>(new_logical - logical_sp_offset(t));
  m_.mem().set_sp(new_phys);
  note_stack_depth(t);
  charge_op(cfg_.costs.set_sp / 2);
}

void Kernel::svc_lpm(const rw::Service& svc, uint16_t ret) {
  Task& t = current();
  const isa::Instruction& ins = svc.original;
  const uint16_t z = m_.mem().reg_pair(30);  // original flash *byte* address
  const uint32_t orig_word = z >> 1;

  m_.set_pc(ret);
  if (orig_word >= run_.orig_words) {
    kill_task(t, KillReason::BadJump);
    context_switch(ret, false);
    return;
  }
  const uint32_t nat_word = run_.prog->map.to_naturalized(orig_word);
  const uint8_t byte = m_.flash_byte(nat_word * 2 + (z & 1));
  m_.mem().set_reg(ins.op == Op::LpmR0 ? 0 : ins.rd, byte);
  if (ins.op == Op::LpmInc)
    m_.mem().set_reg_pair(30, static_cast<uint16_t>(z + 1));
  charge_op(cfg_.costs.prog_mem);
}

void Kernel::svc_sleep(uint16_t ret) {
  Task& t = current();
  m_.set_pc(ret);
  charge_op(cfg_.costs.sleep_svc);
  if (t.sleep_armed) {
    t.sleep_armed = false;
    t.wake_cycle = t.sleep_wake_cycle;
    emit(EventKind::Block, t.id);
    context_switch(ret, /*block_current=*/true);
  } else {
    // Terminal idle: the task sleeps with no wake source armed.
    finish_task(t, 0);
    context_switch(ret, false);
  }
}

}  // namespace sensmart::kern
