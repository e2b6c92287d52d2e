// The core allocation table (§3.1, Table 1): one slot per hardware core
// recording which program's worker is currently *active* on that core
// (0 = free). Co-running programs coordinate core exchange exclusively
// through lock-free CAS operations on this table — there is no centralized
// OS-level allocator, which is the paper's headline structural claim.
//
// Each core also has a static *home* program given by the initial
// equipartition: with k cores and m declared programs, program i (1-based)
// homes the contiguous block {j : j*m/k == i-1}. A program may *claim* any
// free core, but may *reclaim* (take back from a borrower) only its home
// cores — the paper's third coordinator constraint ("a program cannot take
// the cores that are not released by other programs", §3.3).
//
// The same layout is used over private memory (CoreTableLocal, for
// co-running several Scheduler instances inside one process: tests,
// benches, the simulator) and over POSIX shared memory (CoreTableShm in
// core_table_shm.hpp, for genuine multi-process co-running as in the
// paper's mmap() implementation, §3.4).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <system_error>
#include <vector>

#include "core/core_ops.hpp"
#include "core/types.hpp"
#include "util/layout.hpp"

namespace dws {

/// Thrown when adopting an existing table block fails: the creator never
/// published the magic word within the attach timeout (it likely died
/// mid-initialization), or the adopted header disagrees with the
/// (num_cores, num_programs) this program was configured with. Derives
/// from std::system_error so existing catch sites keep working; the code
/// is std::errc::timed_out or std::errc::invalid_argument respectively.
class TableAttachError : public std::system_error {
 public:
  TableAttachError(std::errc errc, const std::string& what)
      : std::system_error(std::make_error_code(errc), what) {}
};

/// Non-owning view over a core-allocation-table memory block. All mutating
/// operations are lock-free and safe for concurrent use from any number of
/// threads or processes mapping the same block.
class CoreTable {
 public:
  /// Programs whose liveness can be tracked (records are statically sized
  /// so required_bytes stays a function of num_cores alone). Programs
  /// registered beyond this bound still work but are never stale-swept —
  /// with no liveness evidence the sweep conservatively leaves them alone.
  static constexpr unsigned kLivenessSlots = 64;

  /// Attach spin bound used when no explicit timeout is given.
  static constexpr std::chrono::milliseconds kDefaultAttachTimeout{5000};

  /// Bytes a table for `num_cores` cores occupies (header + liveness
  /// records + slots).
  [[nodiscard]] static std::size_t required_bytes(unsigned num_cores) noexcept;

  /// Wrap `mem` (which must be at least required_bytes(num_cores) and
  /// suitably aligned for std::atomic<uint32_t>). When `initialize` is
  /// true the block is formatted (all cores free, zero programs
  /// registered); otherwise the existing contents are adopted and
  /// (num_cores, num_programs) must match what the creator wrote.
  ///
  /// Adopting waits (bounded retry + exponential backoff, at most
  /// `attach_timeout`) for the creator to publish the magic word; a
  /// creator that died mid-format surfaces as TableAttachError instead of
  /// the historical unbounded spin. A header mismatch also throws
  /// TableAttachError. Formatting never throws.
  CoreTable(void* mem, unsigned num_cores, unsigned num_programs,
            bool initialize,
            std::chrono::milliseconds attach_timeout = kDefaultAttachTimeout);

  CoreTable(const CoreTable&) = delete;
  CoreTable& operator=(const CoreTable&) = delete;
  CoreTable(CoreTable&&) noexcept;
  CoreTable& operator=(CoreTable&&) noexcept;
  ~CoreTable() = default;

  [[nodiscard]] unsigned num_cores() const noexcept;
  /// Declared co-runner count m used for the home partition.
  [[nodiscard]] unsigned num_programs() const noexcept;

  /// Obtain a fresh 1-based program id. Ids beyond the declared m are
  /// legal but own no home cores (they can only use free cores).
  [[nodiscard]] ProgramId register_program() noexcept;

  /// Release every core currently used by `pid` and retire its liveness
  /// record (clean-exit path; co-runners stop tracking it immediately).
  void unregister_program(ProgramId pid) noexcept;

  /// Program ids handed out so far (sweepers iterate [1, this]).
  [[nodiscard]] unsigned registered_programs() const noexcept;

  // ---- Liveness records (crash tolerance) ----
  //
  // Each program binds its OS pid once after registering and then bumps a
  // monotonically increasing heartbeat epoch every coordinator period. A
  // co-runner whose epoch stalls and whose OS pid no longer exists is
  // declared dead by a surviving sweeper (see StaleSweeper), which then
  // force-releases every core the ghost still owns. os_pid == 0 means
  // "no liveness evidence": unbound, cleanly exited, or already swept —
  // such programs are never swept.

  /// Publish `os_pid` (must be nonzero) as the live process behind `pid`
  /// and start its epoch at 1. Returns false for ids beyond kLivenessSlots
  /// (those programs simply opt out of crash tracking).
  bool bind_liveness(ProgramId pid, std::uint32_t os_pid) noexcept;

  /// Bump `pid`'s heartbeat epoch. Called by the owner's coordinator every
  /// period; no-op for unbound/out-of-range ids.
  void heartbeat(ProgramId pid) noexcept;

  /// Current heartbeat epoch of `pid` (0 = never bound / out of range).
  [[nodiscard]] std::uint64_t liveness_epoch(ProgramId pid) const noexcept;

  /// OS pid bound to `pid`, or 0 when there is no liveness evidence.
  [[nodiscard]] std::uint32_t liveness_os_pid(ProgramId pid) const noexcept;

  /// CAS `pid`'s liveness record from `expected_os_pid` to 0. The winning
  /// caller is the unique agent allowed to recover the program's cores —
  /// this is what keeps concurrent sweepers from double-recovering.
  bool retire_liveness(ProgramId pid, std::uint32_t expected_os_pid) noexcept;

  /// Force-release every core still owned by `pid` (CAS pid -> free per
  /// slot; racing transitions lose or win per-slot, never corrupt).
  /// Returns the cores actually freed by this call. Only call after
  /// winning retire_liveness for a confirmed-dead program.
  std::vector<CoreId> force_release_all(ProgramId pid) noexcept;

  /// Current active program on `core`, or kNoProgram if free.
  [[nodiscard]] ProgramId user_of(CoreId core) const noexcept;

  /// Static home owner of `core` under the equipartition.
  [[nodiscard]] ProgramId home_of(CoreId core) const noexcept;

  /// CAS free -> pid. True iff this call performed the transition.
  bool try_claim(CoreId core, ProgramId pid) noexcept;

  /// Take a *home* core of `pid` back from whichever program borrowed it
  /// (§3.3 cases 2–3). Fails if the core is free, already ours, or not a
  /// home core of `pid`. The evicted borrower's worker observes the change
  /// at its next policy check and goes to sleep (see Worker::should_vacate).
  bool try_reclaim(CoreId core, ProgramId pid) noexcept;

  /// CAS pid -> free. True iff `pid` was the user. A worker whose core was
  /// reclaimed from under it calls this and fails harmlessly.
  bool release(CoreId core, ProgramId pid) noexcept;

  /// Claim all currently-free home cores of `pid`; returns those claimed.
  /// Used at program start to realize the initial equipartition (§3.1).
  std::vector<CoreId> claim_home_cores(ProgramId pid) noexcept;

  // ---- Demand-snapshot counters (coordinator inputs, §3.3) ----

  /// N_f: cores currently free.
  [[nodiscard]] unsigned count_free() const noexcept;
  /// N_r: home cores of `pid` currently used by *other* programs.
  [[nodiscard]] unsigned count_borrowed_from(ProgramId pid) const noexcept;
  /// Cores on which `pid` is the active user.
  [[nodiscard]] unsigned count_active(ProgramId pid) const noexcept;

  [[nodiscard]] std::vector<CoreId> free_cores() const;
  [[nodiscard]] std::vector<CoreId> borrowed_home_cores(ProgramId pid) const;
  [[nodiscard]] std::vector<CoreId> home_cores(ProgramId pid) const;
  [[nodiscard]] std::vector<CoreId> cores_used_by(ProgramId pid) const;

 private:
  friend struct dws::layout::Access;  // layout_audit reads private layouts

  struct Header {
    DWS_SHARED std::atomic<std::uint32_t> magic;
    /// Slot-array layout revision baked into required_bytes/slots(). Kept
    /// as an explicit header word *in addition to* the magic bump so a
    /// future-version attacher can print which revision it found instead
    /// of just timing out on a foreign magic.
    std::uint32_t layout_version;
    std::uint32_t num_cores;
    std::uint32_t num_programs;
    DWS_SHARED std::atomic<std::uint32_t> registered;
  };
  /// One per program id in [1, kLivenessSlots]; lives between the header
  /// and the slot array. Four records pack per cache line across
  /// processes, which is a cross-domain packing by the layout discipline:
  /// epoch is owner-heartbeat-written, os_pid is CAS-retired by foreign
  /// sweepers. Heartbeats tick once per coordinator period (milliseconds),
  /// so the interference traffic is negligible and striding 64 records to
  /// a line each is not worth 3 KiB of shared memory.
  // dws-layout: packed-ok heartbeat-rate writes only, one tick per
  // coordinator period, measured interference is noise
  struct LivenessRecord {
    DWS_SHARED std::atomic<std::uint32_t> os_pid;  ///< 0 = unbound/swept
    DWS_OWNED_BY(program)
    std::atomic<std::uint64_t> epoch;  ///< heartbeat counter, 0 = unbound
  };
  /// Cacheline-strided CAS slot (layout revision 2). Every co-running
  /// process hammers its claim/release CAS at these words, so each lives
  /// alone on its line (revision 1 packed 16 slots per line).
  using Slot = CoreOps<StdAtomicsPolicy>::Slot;

  /// Layout revision 2: strided slot array. Revision 1 (packed
  /// std::atomic<uint32_t> slots) published magic 0xD1575AB1; the magic is
  /// bumped with the layout so revision-1 binaries attaching a revision-2
  /// segment (or vice versa) fail the attach handshake with a typed
  /// TableAttachError instead of silently indexing the wrong offsets.
  static constexpr std::uint32_t kLayoutVersion = 2;
  static constexpr std::uint32_t kMagic = 0xD1575AB2u;
  /// Magics of retired layout revisions, recognized only to fail fast
  /// with a better message than an attach timeout.
  static constexpr std::uint32_t kRetiredMagics[] = {0xD1575AB1u};

  [[nodiscard]] Header* header() const noexcept {
    return static_cast<Header*>(mem_);
  }
  [[nodiscard]] LivenessRecord* liveness() const noexcept;
  [[nodiscard]] Slot* slots() const noexcept;

  void* mem_ = nullptr;
};

/// Owning in-process table: co-run several Scheduler instances (or the
/// simulator's virtual programs) inside one address space.
class CoreTableLocal {
 public:
  CoreTableLocal(unsigned num_cores, unsigned num_programs);

  [[nodiscard]] CoreTable& table() noexcept { return *table_; }
  [[nodiscard]] const CoreTable& table() const noexcept { return *table_; }

 private:
  std::unique_ptr<std::byte[]> storage_;
  std::unique_ptr<CoreTable> table_;
};

}  // namespace dws
