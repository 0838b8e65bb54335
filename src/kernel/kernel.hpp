// The SenSmart kernel runtime (§IV): preemptive round-robin scheduling via
// software traps, logical addressing with per-task memory regions, and
// versatile stack management with run-time stack relocation.
//
// The kernel executes natively, entered through the trampoline service hook
// of the emulated machine. Every handler charges the emulated cycle cost of
// the equivalent AVR trampoline/kernel sequence; the cost model defaults
// are calibrated against Table II of the paper and are measured back out by
// bench/table2_overhead.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "emu/machine.hpp"
#include "kernel/trace.hpp"
#include "rewriter/linker.hpp"

namespace sensmart::kern {

// Cycle charges for kernel operations (Table II). Values are totals per
// operation as observed by the running program; handlers subtract the 4
// cycles the trampoline CALL itself consumed.
struct CostModel {
  uint32_t init = 5738;          // system initialization
  uint32_t direct_other = 28;    // direct (LDS/STS) heap access
  uint32_t direct_fast = 16;     // statically-in-heap LDS/STS: displacement
                                 // only, no run-time area classification
  uint32_t ind_io = 54;          // indirect access landing in the I/O area
  uint32_t ind_heap = 60;        // indirect heap access (group leader/full)
  uint32_t ind_stack = 47;       // indirect stack-frame access
  uint32_t ind_grouped = 18;     // grouped-access follower
  uint32_t ind_coalesced = 26;   // provenance-coalesced access: bounds
                                 // re-check against the cached window, no
                                 // full translation
  uint32_t stack_pushpop = 57;   // checked PUSH/POP
  uint32_t stack_run_member = 9; // each collapsed stack-run member beyond
                                 // the leader (1 cycle of which the
                                 // placeholder NOP pays natively)
  uint32_t stack_callret = 77;   // checked CALL/RET
  uint32_t prog_mem = 376;       // program-memory address translation
  uint32_t get_sp = 45;          // IN pair from SPL/SPH (total)
  uint32_t set_sp = 94;          // OUT pair to SPL/SPH (total)
  uint32_t reloc_base = 326;     // stack relocation, fixed part
  uint32_t reloc_per_byte = 8;   // stack relocation, per byte moved
  uint32_t ctx_save = 932;
  uint32_t ctx_restore = 976;
  uint32_t ctx_sched = 390;      // scheduler bookkeeping (full switch 2298)
  uint32_t trap_fast = 8;        // backward-branch trampoline, common path
  uint32_t trap_check = 60;      // 1/256 counter wrap: slice check
  uint32_t reserved_io = 40;     // kernel-virtualized port access
  uint32_t fwd_branch = 6;       // relayed forward branch
  uint32_t sleep_svc = 120;      // blocking sleep service
  uint32_t task_restart = 1840;  // supervisor restart: region re-init,
                                 // entry-context staging, run-queue insert
};

// A deterministic fault injection: when the kernel's cumulative service-call
// count reaches `at_service_call`, task `task` is killed (if still live) at
// that service boundary — before the service executes. Schedules must be
// sorted by `at_service_call`; at most one kill fires per service entry.
struct InjectedKill {
  uint64_t at_service_call = 0;
  uint8_t task = 0;
};

// Task supervision (DESIGN.md §8). When enabled, a kill is no longer
// terminal: the supervisor re-initializes the task's logical regions in
// place (heap and stack bytes zeroed, region boundaries untouched) and
// restarts it from its entry point after a capped exponential backoff.
// A task that fails `max_restarts` consecutive times — without executing
// `healthy_services` non-branch kernel services in between — is
// quarantined: terminally killed and its region reclaimed for relocation.
//
// The watchdog is independent of restart policy: a task that accumulates
// `watchdog_cycles` of CPU time without making a single non-branch kernel
// service is presumed stuck in a register-only loop and is killed with
// KillReason::Watchdog (then restarted, if supervision is enabled). It is
// checked at slice-check granularity (1/trap_interval backward branches),
// so containment lags the budget by up to one check interval.
struct SupervisorConfig {
  bool enabled = false;
  uint16_t max_restarts = 3;         // consecutive failures before quarantine
  uint64_t backoff_cycles = 16'384;  // first restart delay; doubles per failure
  uint32_t backoff_cap_exp = 6;      // delay capped at backoff_cycles << this
  uint64_t healthy_services = 256;   // non-branch services that clear a streak
  uint64_t watchdog_cycles = 0;      // 0 = watchdog off (CPU cycles per task)
};

struct KernelConfig {
  uint16_t kernel_ram = 416;     // ~10% of data memory, reserved at the top
  uint16_t initial_stack = 128;  // predefined initial stack size (§IV-C3)
  uint16_t min_stack = 24;       // admission minimum per task
  uint16_t stack_margin = 8;     // red zone below which relocation triggers
  uint32_t slice_cycles = 7373;  // round-robin time slice (~1 ms)
  uint16_t trap_interval = 256;  // kernel entry on 1-out-of-N backward branches
  uint64_t warmup_cycles = 0;    // one-time start-up charge (t-kernel mode)
  bool protect_app_regions = true;  // false: t-kernel-style asymmetric
                                    // protection, identity addressing
  // Opt-in auditor: after every move_regions/release_region/kill_task the
  // kernel re-checks the region invariants and verifies byte-for-byte that
  // each live task's heap and live stack contents survived the slide.
  // Auditing charges no emulated cycles, so an audited run is cycle- and
  // trace-identical to an unaudited one.
  bool audit = false;
  // Deterministic fault-injection schedule (chaos testing); sorted.
  std::vector<InjectedKill> injected_kills;
  // Crash recovery: task restart/quarantine policy and runaway watchdog.
  SupervisorConfig supervise;
  CostModel costs;
};

// Provenance of an installed image. For a locally linked system the default
// (not over-the-air) applies; for an image received via radio dissemination
// the network layer records where the bytes came from and what receiving
// them cost, so per-node install statistics survive into the kernel.
struct InstallInfo {
  bool over_the_air = false;
  uint16_t node_id = 0;        // network node that received the image
  uint8_t image_version = 0;   // protocol image version
  uint32_t image_bytes = 0;    // serialized image size
  uint32_t image_crc = 0;      // verified whole-image CRC-32
  uint64_t rx_cycles = 0;      // dissemination duration (node-observed)
  uint64_t frames_rx = 0;      // frames received during dissemination
  uint64_t nacks_sent = 0;     // repair requests issued
  uint64_t crc_rejects = 0;    // corrupted frames detected and discarded
  uint64_t bytes_rx = 0;       // radio bytes received
  uint64_t bytes_tx = 0;       // radio bytes sent (Nacks/Acks)
};

enum class TaskState : uint8_t { Ready, Running, Blocked, Done, Killed };
enum class KillReason : uint8_t {
  None,
  InvalidAccess,     // out-of-region memory access / stack underflow
  OutOfStackMemory,  // no donor could provide stack space
  BadJump,           // indirect jump outside the program
  Injected,          // deterministic fault injection (chaos testing)
  Watchdog,          // no kernel service within the watchdog budget
};

const char* to_string(TaskState s);
const char* to_string(KillReason r);

struct Task {
  uint8_t id = 0;
  size_t program = 0;  // index into LinkedSystem::programs
  TaskState state = TaskState::Ready;
  KillReason kill_reason = KillReason::None;
  uint8_t exit_code = 0;

  // Region pointers (physical): heap [p_l, p_h), stack grows down from p_u.
  uint16_t p_l = 0, p_h = 0, p_u = 0;

  // Saved context (valid while not Running).
  std::array<uint8_t, 32> regs{};
  uint8_t sreg = 0;
  uint16_t sp = 0;
  uint32_t pc = 0;

  // Blocking state.
  uint64_t wake_cycle = 0;

  // Virtualized reserved ports.
  uint8_t sleep_target_l = 0;
  bool sleep_armed = false;
  uint64_t sleep_wake_cycle = 0;
  uint8_t tcnt3_latch = 0;
  std::vector<uint8_t> host_out;

  // Recovery state (KernelConfig::supervise).
  uint32_t restarts = 0;        // supervisor restarts consumed so far
  uint16_t restart_streak = 0;  // consecutive failures since last healthy run
  uint32_t watchdog_fires = 0;  // runaway containments for this task
  bool quarantined = false;     // terminally killed by the supervisor
  uint64_t wd_cpu_mark = 0;     // task CPU time at last non-branch service
  uint64_t healthy_streak = 0;  // non-branch services since last restart

  // Statistics.
  uint64_t cpu_cycles = 0;
  uint16_t final_stack_alloc = 0;  // allocation at exit (region is
                                   // released afterwards)
  uint16_t peak_stack_used = 0;    // deepest stack use, in bytes below the
                                   // logical stack bottom (relocation-safe)

  uint16_t region_size() const { return static_cast<uint16_t>(p_u - p_l); }
  uint16_t stack_alloc() const { return static_cast<uint16_t>(p_u - p_h); }
  bool live() const {
    return state != TaskState::Done && state != TaskState::Killed;
  }
};

struct KernelStats {
  uint64_t service_calls = 0;
  uint64_t service_cycles = 0;  // emulated cycles charged by service
                                // handlers (incl. the trampoline CALL)
  uint64_t stack_run_members = 0;  // follower ops executed inside collapsed
                                   // stack-run leader traps (§6d)
  uint64_t traps = 0;          // backward-branch trampoline entries
  uint64_t trap_checks = 0;    // 1/N counter wraps (kernel slice checks)
  uint64_t context_switches = 0;
  uint64_t mem_translations = 0;
  // Translation-window invalidations: cache rebuilds forced by a region-map
  // mutation after start (relocation, release, kill) — the runtime half of
  // the coalescing contract (DESIGN.md §6d).
  uint64_t window_invalidations = 0;
  uint32_t relocations = 0;
  uint64_t reloc_bytes_moved = 0;
  uint64_t reloc_cycles = 0;
  uint32_t kills = 0;
  uint32_t injected_kills = 0;  // of which: deterministic fault injections
  // Recovery counters (only move when KernelConfig::supervise is enabled,
  // except watchdog_fires, which the standalone watchdog also drives).
  uint32_t restarts = 0;
  uint32_t quarantines = 0;
  uint32_t watchdog_fires = 0;
  uint64_t idle_cycles = 0;
  // Auditor counters (only move when KernelConfig::audit is set).
  uint64_t audit_checks = 0;
  uint32_t audit_failures = 0;
  // Preemption delay: cycles by which preemption lagged the slice end
  // (software traps are aperiodic, §IV-B).
  uint64_t preempt_delay_max = 0;
  uint64_t preempt_delay_sum = 0;
  uint64_t preemptions = 0;
};

class Kernel {
 public:
  Kernel(emu::Machine& machine, const rw::LinkedSystem& sys,
         KernelConfig cfg = {});

  // Image-install entry point: the kernel takes ownership of a system that
  // was reconstructed from received bytes (net::deserialize_system), so the
  // installed image outlives the dissemination buffers it came from. Only a
  // fully verified image may reach this constructor — the network layer
  // never surfaces partial or corrupted blobs.
  Kernel(emu::Machine& machine, rw::LinkedSystem&& sys, KernelConfig cfg = {},
         InstallInfo install = {});

  // Fleet-install entry point: many nodes received byte-identical images,
  // so the deserialized system and its pre-decoded flash image are built
  // once and shared read-only across every installing kernel
  // (Machine::adopt_image) instead of re-parsed and re-loaded per node.
  // Behaviorally identical to the owning constructor for the same bytes.
  Kernel(emu::Machine& machine, std::shared_ptr<const rw::LinkedSystem> sys,
         std::shared_ptr<const emu::Machine::SharedImage> image,
         KernelConfig cfg = {}, InstallInfo install = {});

  // Create a task running program `program_index`. Fails (returns nullopt)
  // if admission would leave some task below the minimum stack. Must be
  // called before start().
  std::optional<uint8_t> admit(size_t program_index);
  // Admit one task per linked program; returns the number admitted.
  size_t admit_all();

  // Lay out memory regions, charge system-initialization cost, and make the
  // first task runnable. Returns false if no task was admitted.
  bool start();

  // Run until every task is Done/Killed or `max_cycles` elapse.
  emu::StopReason run(uint64_t max_cycles);

  // --- Introspection ---------------------------------------------------------
  const std::vector<Task>& tasks() const { return tasks_; }
  const KernelStats& stats() const { return stats_; }
  const KernelConfig& config() const { return cfg_; }
  // How this kernel's image was installed (defaults for local linking).
  const InstallInfo& install_info() const { return install_; }
  const rw::LinkedSystem& system() const { return *sys_; }
  bool all_stopped() const;
  size_t live_count() const;
  // Time-averaged stack allocation per live task (bytes), integrated over
  // the whole run — the "average stack allocation" metric of Fig. 7.
  double avg_stack_alloc() const;
  uint16_t app_area_end() const { return kernel_base_; }

  // Verify region invariants (contiguous tiling, pointer ordering); used by
  // tests and property checks. Returns an error description or empty.
  std::string check_invariants() const;

  // Audit failure descriptions recorded so far (bounded; empty unless
  // KernelConfig::audit is set and a violation was detected).
  const std::vector<std::string>& audit_log() const { return audit_log_; }

  // Attach an event trace (not owned); nullptr detaches. Zero emulated
  // cycle cost.
  void set_trace(KernelTrace* trace) { trace_ = trace; }

 private:
  friend struct KernelTestPeer;

  // --- Service dispatch (kernel.cpp) ----------------------------------------
  // Raw handler registered with Machine::set_service_handler — a plain
  // function pointer, so every trap avoids the std::function indirection.
  static bool service_thunk(void* self, emu::Machine& m, uint32_t svc_arg);
  bool on_service(emu::Machine& m, uint32_t idx);

  // Link-time-constant facts about each trampoline, flattened at kernel
  // construction: the hot handlers read one small struct per trap instead
  // of re-deriving pointer register / pre-post mode / store-ness through
  // the out-of-line isa classification switches.
  struct CompiledSvc {
    rw::ServiceKind kind = rw::ServiceKind::MemIndirect;
    uint8_t ptr_reg = 30;  // 26/28/30 for X/Y/Z
    int8_t pre = 0;
    int8_t post = 0;
    uint8_t rd = 0;
    uint8_t q = 0;
    uint8_t group_min = 0;
    uint8_t group_span = 0;
    bool store = false;
    bool is_push = false;
    uint8_t run_n = 0;        // collapsed stack-run followers (0..3)
    uint8_t run_rd[3] = {0, 0, 0};  // their registers, in run order
    // Branch relays: taken when SREG bit `br_bit` equals `br_set`, or
    // always (RJMP) when `br_always`.
    bool br_always = true;
    bool br_set = false;
    uint8_t br_bit = 0;
  };

  // Cost tier of an indirect memory service: the full translate-and-check,
  // the grouped-follower path, or the coalesced check-only reuse path. All
  // three perform the identical translation and kill checks; only the
  // charged cycle cost differs (task-visible behavior is tier-invariant).
  enum class IndTier : uint8_t { Full, Grouped, Coalesced };

  void svc_mem_indirect(const CompiledSvc& cs, uint16_t ret, IndTier tier);
  void svc_mem_direct(const rw::Service& svc, uint16_t ret, bool fast);
  void svc_reserved_direct(const rw::Service& svc, uint16_t ret);
  void svc_push_pop(const CompiledSvc& cs, uint16_t ret);
  // A stack run's members one by one, for a run that relocates or faults
  // part-way. Returns false if the task was killed.
  bool push_pop_each(const CompiledSvc& cs, Task& t);
  void svc_call_enter(uint32_t idx, const rw::Service& svc, uint16_t ret);
  void svc_return(const rw::Service& svc, uint16_t ret);
  void svc_indirect_jump(const rw::Service& svc, uint16_t ret);
  void svc_branch(uint32_t idx, const CompiledSvc& cs, uint16_t ret);
  void svc_sp_read(const rw::Service& svc, uint16_t ret);
  void svc_sp_write(const rw::Service& svc, uint16_t ret);
  void svc_lpm(const rw::Service& svc, uint16_t ret);
  void svc_sleep(uint16_t ret);

  // Taken target of relay service `idx` entered from `ret` in the running
  // task: the site-table entry when it was filled for this very service,
  // else the shift-table formula (a forged `ret` gets the formula's answer).
  uint32_t relay_target(uint32_t idx, const rw::Service& svc,
                        uint16_t ret) const {
    if (const rw::SiteTarget* s = run_.prog->site(ret, idx)) return s->target;
    return rw::relay_target(run_.prog->map, run_.orig_words, svc, ret);
  }

  // Reserved-port virtualization shared by direct and indirect paths.
  // Returns true if `addr` is handled (reserved); `value` is in/out.
  bool reserved_port_access(uint16_t addr, uint8_t& value, bool write,
                            uint16_t resume_pc);

  // --- Memory management (memmgr.cpp) ----------------------------------------
  struct Xlate {
    uint16_t phys = 0;
    enum class Area : uint8_t { Io, Heap, Stack, Invalid } area = Area::Invalid;
  };
  Xlate translate(const Task& t, uint16_t logical) const;
  // Check a whole window [logical, logical+span] (grouped leader).
  bool check_window(const Task& t, uint16_t logical, uint8_t span) const;

  // Per-task translation cache: region bounds and the two displacements
  // translate() needs, flat and indexed by task id (tasks_[i].id == i).
  // Rebuilt only when the region map changes — layout_regions, move_regions,
  // release_region — so the hot service handlers never chase
  // sys_->programs or recompute kDataEnd - p_u per access.
  struct XlateCache {
    uint16_t heap_end_logical = 0;  // kSramBase + program heap size
    uint16_t heap_disp = 0;         // p_l - kSramBase; phys = logical + disp
    uint16_t sp_off = 0;            // kDataEnd - p_u (stack displacement M)
    uint16_t p_h = 0;               // stack-area bounds for validation
    uint16_t p_u = 0;
  };
  void rebuild_xlate_cache();

  bool layout_regions();
  // Ensure the current task can grow its stack by `needed` bytes while
  // keeping the red-zone margin; relocates or kills. Returns false if the
  // task was killed. The inline check is the service-trap common case
  // (enough headroom, no map lookup, no sp_of indirection).
  bool ensure_stack(uint16_t needed) {
    const uint16_t sp = m_.mem().sp();  // current task is Running: live SP
    const XlateCache& c = *run_.xc;
    if (sp >= c.p_h &&
        uint32_t(sp - c.p_h) + 1 >= uint32_t(needed) + cfg_.stack_margin)
      return true;
    return ensure_stack_slow(needed);
  }
  bool ensure_stack_slow(uint16_t needed);
  // One relocation step toward `shortfall` more free bytes for the current
  // task; kills the current task (returning false) if no donor exists.
  bool grow_step(uint16_t shortfall);
  // Transfer `delta` bytes of stack space from `donor` to `to` by sliding
  // the regions between them (Figure 3).
  void move_regions(Task& donor, Task& to, uint16_t delta);
  void release_region(Task& dead);

  uint16_t sp_of(const Task& t) const;
  void set_sp_of(Task& t, uint16_t sp);
  uint16_t free_stack(const Task& t) const;
  uint16_t logical_sp_offset(const Task& t) const {
    return static_cast<uint16_t>(emu::kDataEnd - t.p_u);
  }

  void kill_task(Task& t, KillReason why);

  // --- Supervision (supervisor.cpp) ------------------------------------------
  // Restart `t` in place: re-initialize its logical regions, stage a fresh
  // entry context, and block it for the capped-exponential backoff delay.
  void restart_task(Task& t, KillReason why);
  // Terminal half of a supervised kill: mark the task quarantined (the
  // caller has already made the kill terminal and reclaims the region).
  void quarantine_task(Task& t);
  // Supervision bookkeeping on a non-branch service: refresh the watchdog
  // mark and credit the healthy streak. Called from on_service only when
  // supervision or the watchdog is active.
  void note_healthy_service();
  // Slice-check-granularity watchdog test; kills (and restarts) the current
  // task if it exceeded the budget. Returns true if it fired (the caller
  // must not keep treating the task as Running).
  bool watchdog_check(uint32_t resume_pc);
  // Fire a due injected kill (if any) at a service boundary. Returns true
  // if the *current* task was killed (the pending service must be skipped).
  // The slow path maintains next_kill_at_ so the per-trap test in
  // on_service is a single counter comparison.
  bool injected_kill_due(uint16_t resume_pc);

  // --- Auditing (audit.cpp) ---------------------------------------------------
  // Per-task byte image captured before a region mutation: heap [p_l, p_h)
  // and the live stack [sp+1, p_u).
  struct TaskSnapshot {
    uint8_t id = 0;
    std::vector<uint8_t> heap, stack;
  };
  // Snapshot every live task's contents (audit mode only; empty otherwise).
  std::vector<TaskSnapshot> audit_snapshot() const;
  // Verify invariants, and contents against `before`, after mutation `what`.
  void audit_after(const char* what, const std::vector<TaskSnapshot>& before);
  void audit_record(const std::string& msg);
  // Update the task's peak logical stack depth from the live SP.
  void note_stack_depth(Task& t);
  void finish_task(Task& t, uint8_t code);
  // Integrate the per-live-task stack allocation up to now; call before
  // any region mutation.
  void sample_alloc();

  // --- Scheduling (scheduler.cpp) --------------------------------------------
  // Count one software trap; every trap_interval-th runs the slice check.
  // Inline: a backward-branch relay pays only the counter on its way out.
  void trap_tick(uint32_t resume_pc) {
    ++stats_.traps;
    if (++trap_counter_ >= cfg_.trap_interval) slice_check(resume_pc);
  }
  void slice_check(uint32_t resume_pc);
  void context_switch(uint32_t resume_pc, bool block_current);
  void save_context(Task& t, uint32_t pc);
  void restore_context(Task& t);
  std::optional<size_t> pick_next(size_t after);
  void wake_due_tasks();
  void idle_until_wake();
  void account_current();
  // Bind run_ to tasks_[current_]; called wherever current_ changes.
  void bind_current();

  Task& current() { return *run_.task; }
  void emit(EventKind kind, uint16_t a, uint16_t b = 0) {
    if (trace_ != nullptr) trace_->record(m_.cycles(), kind, a, b);
  }
  const rw::ProgramInfo& prog_of(const Task& t) const {
    return sys_->programs[t.program];
  }
  void charge_op(uint32_t total) {
    // The trampoline CALL itself already cost 4 cycles.
    stats_.service_cycles += total;
    m_.charge(total > 4 ? total - 4 : 0);
  }

  // Shared construction body of the borrowing and owning constructors.
  void init();

  emu::Machine& m_;
  std::unique_ptr<rw::LinkedSystem> owned_sys_;  // set by the install ctor
  // Set by the fleet-install ctor: shared ownership of the system and the
  // pre-decoded image the machine adopts instead of a private load_flash.
  std::shared_ptr<const rw::LinkedSystem> shared_sys_;
  std::shared_ptr<const emu::Machine::SharedImage> shared_image_;
  const rw::LinkedSystem* sys_;
  KernelConfig cfg_;
  InstallInfo install_;
  std::vector<Task> tasks_;
  std::vector<XlateCache> xc_;  // parallel to tasks_ (indexed by task id)
  std::vector<CompiledSvc> csvc_;  // parallel to sys_->services
  // Flat views of the (immutable) service pool, resolved once so dispatch
  // does not chase sys_-> and vector headers per trap.
  const rw::Service* svc_table_ = nullptr;
  uint32_t n_services_ = 0;
  size_t current_ = 0;
  // The running task's hot context, bound by bind_current() so a service
  // trap reads it from `this` instead of chasing tasks_, sys_->programs
  // and xc_ (DESIGN.md §6c). Valid from start() on.
  struct RunCtx {
    Task* task = nullptr;
    const rw::ProgramInfo* prog = nullptr;  // shift and site tables
    uint32_t base = 0;        // first naturalized code word
    uint32_t nat_words = 0;   // naturalized code length
    uint32_t orig_words = 0;  // bound on original control targets
    XlateCache* xc = nullptr;  // the task's xc_ row
  };
  RunCtx run_;
  bool started_ = false;
  uint16_t kernel_base_ = 0;  // first byte of the kernel data area
  uint16_t trap_counter_ = 0;
  uint64_t slice_start_ = 0;
  uint64_t account_mark_ = 0;
  uint64_t start_cycle_ = 0;
  uint64_t alloc_mark_ = 0;
  uint64_t alloc_integral_ = 0;  // summed live stack allocation, byte-cycles
  bool alloc_frozen_ = false;    // stop integrating once a task exits, so
                                 // the average reflects full concurrency
  uint64_t alloc_task_cycles_ = 0;  // task-cycles (exact-average denominator)
  size_t next_injected_kill_ = 0;
  // Service-call count at which the next injected kill fires (UINT64_MAX
  // when the schedule is exhausted or empty).
  uint64_t next_kill_at_ = UINT64_MAX;
  // Supervision or watchdog active: gates the per-service recovery
  // bookkeeping to one boolean test on unsupervised kernels.
  bool recovery_on_ = false;
  std::vector<std::string> audit_log_;
  KernelTrace* trace_ = nullptr;
  KernelStats stats_;
};

}  // namespace sensmart::kern
