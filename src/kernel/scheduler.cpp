// Preemptive round-robin scheduling on software traps (§IV-B): one out of
// `trap_interval` backward branches enters the kernel, which compares the
// Timer3-based slice budget and preempts the task if it is used up. Device
// interrupts are never required, so tasks running with interrupts disabled
// are still preempted.
#include <algorithm>
#include <limits>

#include "kernel/kernel.hpp"

namespace sensmart::kern {

void Kernel::account_current() {
  current().cpu_cycles += m_.cycles() - account_mark_;
  account_mark_ = m_.cycles();
}

void Kernel::bind_current() {
  Task& t = tasks_[current_];
  const rw::ProgramInfo& prog = prog_of(t);
  run_.task = &t;
  run_.prog = &prog;
  run_.base = prog.base;
  run_.nat_words = prog.nat_words;
  run_.orig_words = prog.orig_words();
  run_.xc = &xc_[current_];
}

void Kernel::slice_check(uint32_t resume_pc) {
  trap_counter_ = 0;
  ++stats_.trap_checks;
  m_.charge(cfg_.costs.trap_check);
  wake_due_tasks();
  if (recovery_on_ && watchdog_check(resume_pc)) return;
  const uint64_t elapsed = m_.cycles() - slice_start_;
  if (elapsed >= cfg_.slice_cycles) {
    const uint64_t delay = elapsed - cfg_.slice_cycles;
    stats_.preempt_delay_max = std::max(stats_.preempt_delay_max, delay);
    stats_.preempt_delay_sum += delay;
    ++stats_.preemptions;
    emit(EventKind::Preempt, current().id,
         uint16_t(std::min<uint64_t>(delay, 0xFFFF)));
    context_switch(resume_pc, /*block_current=*/false);
  }
}

void Kernel::wake_due_tasks() {
  const uint64_t now = m_.cycles();
  for (Task& t : tasks_) {
    if (t.state == TaskState::Blocked && t.wake_cycle <= now) {
      t.state = TaskState::Ready;
      emit(EventKind::Wake, t.id);
    }
  }
}

std::optional<size_t> Kernel::pick_next(size_t after) {
  for (size_t i = 1; i <= tasks_.size(); ++i) {
    const size_t idx = (after + i) % tasks_.size();
    if (tasks_[idx].state == TaskState::Ready) return idx;
  }
  return std::nullopt;
}

void Kernel::idle_until_wake() {
  // No task is runnable: fast-forward to the earliest wake-up.
  uint64_t wake = std::numeric_limits<uint64_t>::max();
  for (const Task& t : tasks_)
    if (t.state == TaskState::Blocked) wake = std::min(wake, t.wake_cycle);
  if (wake == std::numeric_limits<uint64_t>::max()) return;
  if (wake > m_.cycles()) {
    const uint64_t idle = wake - m_.cycles();
    stats_.idle_cycles += idle;
    m_.charge_idle(idle);
    const uint64_t capped = std::min<uint64_t>(idle, 0xFFFFFFFF);
    emit(EventKind::Idle, uint16_t(capped & 0xFFFF), uint16_t(capped >> 16));
  }
  wake_due_tasks();
}

void Kernel::save_context(Task& t, uint32_t pc) {
  for (uint8_t r = 0; r < 32; ++r) t.regs[r] = m_.mem().reg(r);
  t.sreg = m_.mem().sreg();
  t.sp = m_.mem().sp();
  t.pc = pc;
  m_.charge(cfg_.costs.ctx_save);
}

void Kernel::restore_context(Task& t) {
  for (uint8_t r = 0; r < 32; ++r) m_.mem().set_reg(r, t.regs[r]);
  m_.mem().set_sreg(t.sreg);
  m_.mem().set_sp(t.sp);
  m_.set_pc(t.pc);
  m_.charge(cfg_.costs.ctx_restore);
}

void Kernel::context_switch(uint32_t resume_pc, bool block_current) {
  Task& cur = current();
  account_current();
  m_.charge(cfg_.costs.ctx_sched);
  wake_due_tasks();

  std::optional<size_t> next = pick_next(current_);

  // Slice expired but nobody else is runnable: keep running, restart slice.
  // The conditions test Running, not live(): a task the supervisor just
  // restarted is live but Blocked with a freshly staged entry context, and
  // saving the machine's stale registers over that snapshot would resume it
  // inside its crashed incarnation.
  if (!next && cur.state == TaskState::Running && !block_current) {
    slice_start_ = m_.cycles();
    account_mark_ = m_.cycles();
    return;
  }

  if (cur.state == TaskState::Running) {
    save_context(cur, resume_pc);
    cur.state = block_current ? TaskState::Blocked : TaskState::Ready;
  }

  while (!next) {
    bool any_blocked = false;
    for (const Task& t : tasks_)
      if (t.state == TaskState::Blocked) any_blocked = true;
    if (!any_blocked) {
      bool any_ready = false;
      for (const Task& t : tasks_)
        if (t.state == TaskState::Ready) any_ready = true;
      if (!any_ready) {
        // Every task is Done or Killed: stop the machine.
        m_.stop(emu::StopReason::Halted);
        return;
      }
    }
    idle_until_wake();
    next = pick_next(current_);
  }

  const uint16_t from = cur.id;
  current_ = *next;
  bind_current();
  Task& nt = current();
  nt.state = TaskState::Running;
  restore_context(nt);
  ++stats_.context_switches;
  emit(EventKind::ContextSwitch, from, nt.id);
  slice_start_ = m_.cycles();
  account_mark_ = m_.cycles();
}

}  // namespace sensmart::kern
