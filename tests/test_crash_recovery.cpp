// Crash-tolerance matrix: real co-running processes over the shared core
// allocation table, SIGKILLed at chosen points, with the survivor proving
// the liveness protocol recovers every core within bounded coordinator
// periods (ctest label: crash).
//
// Choreography rules for every test here:
//  * fork() FIRST, before constructing any threaded object in the parent —
//    a forked copy of a process holding live threads/mutexes deadlocks.
//  * children never touch gtest: they report through _exit status bits and
//    synchronise through SyncFlags in anonymous shared memory.
//  * SIGKILL only after the child raises a flag marking the intended crash
//    point, so the kill window is deterministic, not a sleep-based guess.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include "core/core_table_shm.hpp"
#include "core/coordinator_policy.hpp"
#include "harness/faults.hpp"
#include "runtime/api.hpp"
#include "runtime/scheduler.hpp"

namespace dws::harness {
namespace {

using namespace std::chrono_literals;

std::string unique_name(const char* tag) {
  return std::string("/dws_crash_") + tag + "_" + std::to_string(::getpid());
}

class ShmGuard {
 public:
  explicit ShmGuard(std::string name) : name_(std::move(name)) {
    CoreTableShm::remove(name_);
  }
  ~ShmGuard() { CoreTableShm::remove(name_); }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  std::string name_;
};

CoreTableShm::Options fast_timeout() {
  CoreTableShm::Options opt;
  opt.attach_timeout = 200ms;
  return opt;
}

template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds timeout = 10000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

// ---------------------------------------------------------------------------
// Creator killed mid-init, window (a): after shm_open, before ftruncate.
// The zero-sized segment must fail a later attach with TableAttachError,
// and remove() + retry must succeed as the new creator.
TEST(CrashRecovery, CreatorKilledBeforeFtruncate) {
  ShmGuard guard(unique_name("preftrunc"));
  SyncFlags flags;

  const pid_t creator = spawn_process([&] {
    const int fd =
        ::shm_open(guard.name().c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
    if (fd < 0) return 1;
    flags.raise(0);  // crash point reached: segment exists, size 0
    for (;;) std::this_thread::sleep_for(1h);
  });
  ASSERT_TRUE(flags.wait_for(0));
  kill_process(creator);
  EXPECT_EQ(wait_process(creator), 137);  // died to SIGKILL

  EXPECT_THROW(CoreTableShm(guard.name(), 8, 2, fast_timeout()),
               TableAttachError);
  // Documented recovery: clear the residue, retry as the new creator.
  CoreTableShm::remove(guard.name());
  CoreTableShm fresh(guard.name(), 8, 2, fast_timeout());
  EXPECT_TRUE(fresh.is_creator());
  EXPECT_EQ(fresh.table().count_free(), 8u);
}

// Creator killed mid-init, window (b): after ftruncate, before the table
// format publishes the magic word. Attach must time out on the magic wait.
TEST(CrashRecovery, CreatorKilledBeforeFormat) {
  ShmGuard guard(unique_name("preformat"));
  SyncFlags flags;

  const pid_t creator = spawn_process([&] {
    const int fd =
        ::shm_open(guard.name().c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
    if (fd < 0) return 1;
    if (::ftruncate(fd, static_cast<off_t>(CoreTable::required_bytes(8))) !=
        0) {
      return 2;
    }
    flags.raise(0);  // crash point: full-size segment, no magic word
    for (;;) std::this_thread::sleep_for(1h);
  });
  ASSERT_TRUE(flags.wait_for(0));
  kill_process(creator);
  EXPECT_EQ(wait_process(creator), 137);

  try {
    CoreTableShm t(guard.name(), 8, 2, fast_timeout());
    FAIL() << "attach to an unformatted segment must time out";
  } catch (const TableAttachError& e) {
    EXPECT_EQ(e.code(), std::make_error_code(std::errc::timed_out));
  }
  CoreTableShm::remove(guard.name());
  CoreTableShm fresh(guard.name(), 8, 2, fast_timeout());
  EXPECT_TRUE(fresh.is_creator());
}

// ---------------------------------------------------------------------------
// Borrower killed while holding reclaimable cores. The child claims its
// home equipartition AND borrows free cores from the parent's half; after
// SIGKILL the parent's StaleSweeper must recover every one of them.
TEST(CrashRecovery, KilledBorrowerIsSweptAndAllCoresRecovered) {
  ShmGuard guard(unique_name("borrower"));
  SyncFlags flags;
  constexpr unsigned kCores = 8;

  const pid_t child = spawn_process([&] {
    CoreTableShm shm(guard.name(), kCores, 2);
    CoreTable& t = shm.table();
    const ProgramId me = t.register_program();  // id 1
    if (!t.bind_liveness(me, static_cast<std::uint32_t>(::getpid()))) {
      return 1;
    }
    t.claim_home_cores(me);
    // Borrow everything else: the crash leaves the whole machine stuck on
    // a dead pid unless the sweep works.
    for (CoreId c = 0; c < kCores; ++c) t.try_claim(c, me);
    if (t.count_active(me) != kCores) return 2;
    flags.raise(0);  // crash point: holding all cores, liveness bound
    for (;;) std::this_thread::sleep_for(1h);
  });
  ASSERT_TRUE(flags.wait_for(0));

  CoreTableShm shm(guard.name(), kCores, 2, fast_timeout());
  CoreTable& t = shm.table();
  const ProgramId me = t.register_program();  // id 2
  ASSERT_TRUE(t.bind_liveness(me, static_cast<std::uint32_t>(::getpid())));
  ASSERT_EQ(t.count_active(1), kCores);

  kill_process(child);
  EXPECT_EQ(wait_process(child), 137);

  // Survivor sweeps: baseline pass + stale_periods stalled passes, each
  // one standing in for a coordinator period.
  constexpr unsigned kStalePeriods = 3;
  StaleSweeper sweeper(t, me, kStalePeriods);
  StaleSweepResult result;
  unsigned sweeps = 0;
  while (result.empty()) {
    ASSERT_LE(++sweeps, kStalePeriods + 1)
        << "sweep did not fire within stale_periods + baseline";
    result = sweeper.sweep();
  }
  ASSERT_EQ(result.declared_dead.size(), 1u);
  EXPECT_EQ(result.declared_dead[0], 1u);
  EXPECT_EQ(result.freed.size(), kCores);
  EXPECT_EQ(t.count_active(1), 0u);
  EXPECT_EQ(t.count_free(), kCores);
  // The freed cores are immediately claimable by the survivor.
  EXPECT_EQ(t.claim_home_cores(me).size(), kCores / 2);
}

// Owner killed mid-reclaim: the dead program had issued try_reclaim on a
// home core borrowed by the survivor. Whatever the interleaving, the
// survivor's sweep must converge to every core either free or owned by
// the survivor — never stuck on the dead pid.
TEST(CrashRecovery, OwnerKilledMidReclaimLeavesNoStuckCores) {
  ShmGuard guard(unique_name("midreclaim"));
  SyncFlags flags;
  constexpr unsigned kCores = 8;

  const pid_t child = spawn_process([&] {
    CoreTableShm shm(guard.name(), kCores, 2);
    CoreTable& t = shm.table();
    const ProgramId me = t.register_program();  // id 1, homes 0-3
    if (!t.bind_liveness(me, static_cast<std::uint32_t>(::getpid()))) {
      return 1;
    }
    flags.raise(0);  // parent may now grab our whole home half
    if (!flags.wait_for(1)) return 2;
    // Take back our home cores one by one, signalling after the first
    // successful reclaim so the SIGKILL lands between two reclaim CASes —
    // the program dies owning a freshly reclaimed core.
    unsigned reclaimed = 0;
    for (CoreId c = 0; c < kCores; ++c) {
      if (t.try_reclaim(c, me)) {
        ++reclaimed;
        if (reclaimed == 1) {
          flags.raise(2);  // crash point: mid-reclaim
          std::this_thread::sleep_for(1h);
        }
      }
    }
    return 3;  // should have been killed inside the loop
  });
  ASSERT_TRUE(flags.wait_for(0));

  CoreTableShm shm(guard.name(), kCores, 2, fast_timeout());
  CoreTable& t = shm.table();
  const ProgramId me = t.register_program();  // id 2
  ASSERT_TRUE(t.bind_liveness(me, static_cast<std::uint32_t>(::getpid())));
  // Borrow every core — including the child's whole home half, so its
  // reclaim loop has real work to die in the middle of.
  unsigned borrowed = 0;
  for (CoreId c = 0; c < kCores; ++c) {
    if (t.try_claim(c, me)) ++borrowed;
  }
  ASSERT_EQ(borrowed, kCores);
  flags.raise(1);
  ASSERT_TRUE(flags.wait_for(2));
  kill_process(child);
  EXPECT_EQ(wait_process(child), 137);

  StaleSweeper sweeper(t, me, 2);
  for (int i = 0; i < 4 && t.count_active(1) > 0; ++i) sweeper.sweep();
  // Every core is now free or ours; the dead pid holds nothing.
  EXPECT_EQ(t.count_active(1), 0u);
  EXPECT_EQ(t.count_free() + t.count_active(me), kCores);
}

// ---------------------------------------------------------------------------
// Corpse sweep on the revision-2 (cacheline-strided) slot layout. The
// dead program's cores interleave with the survivor's core-by-core, so
// every force-release CAS in the sweep lands on a line whose neighbour
// slots belong to the survivor: the sweep must free exactly the corpse's
// cores and leave the interleaved survivor slots untouched — the
// per-slot-per-line isolation property the layout bump bought. Also
// pins the shm footprint actually carrying the stride (required_bytes
// covers one full line per core).
TEST(CrashRecovery, StridedLayoutCorpseSweepLeavesInterleavedSurvivorAlone) {
  ShmGuard guard(unique_name("strided"));
  SyncFlags flags;
  constexpr unsigned kCores = 8;

  EXPECT_GE(CoreTable::required_bytes(kCores),
            static_cast<std::size_t>(kCores) * layout::kCacheLineBytes)
      << "slot array no longer strided one cache line per core?";

  const pid_t child = spawn_process([&] {
    CoreTableShm shm(guard.name(), kCores, 2);
    CoreTable& t = shm.table();
    const ProgramId me = t.register_program();  // id 1
    if (!t.bind_liveness(me, static_cast<std::uint32_t>(::getpid()))) {
      return 1;
    }
    // Claim the even cores only, leaving the odd ones for the parent:
    // strictly interleaved ownership across adjacent slot lines.
    for (CoreId c = 0; c < kCores; c += 2) {
      if (!t.try_claim(c, me)) return 2;
    }
    flags.raise(0);  // crash point: evens held, liveness bound
    for (;;) std::this_thread::sleep_for(1h);
  });
  ASSERT_TRUE(flags.wait_for(0));

  CoreTableShm shm(guard.name(), kCores, 2, fast_timeout());
  CoreTable& t = shm.table();
  const ProgramId me = t.register_program();  // id 2
  ASSERT_TRUE(t.bind_liveness(me, static_cast<std::uint32_t>(::getpid())));
  for (CoreId c = 1; c < kCores; c += 2) ASSERT_TRUE(t.try_claim(c, me));

  kill_process(child);
  EXPECT_EQ(wait_process(child), 137);

  constexpr unsigned kStalePeriods = 2;
  StaleSweeper sweeper(t, me, kStalePeriods);
  StaleSweepResult result;
  unsigned sweeps = 0;
  while (result.empty()) {
    ASSERT_LE(++sweeps, kStalePeriods + 1);
    result = sweeper.sweep();
  }
  ASSERT_EQ(result.declared_dead.size(), 1u);
  EXPECT_EQ(result.declared_dead[0], 1u);
  // Exactly the corpse's even cores were freed...
  ASSERT_EQ(result.freed.size(), kCores / 2);
  for (const CoreId c : result.freed) EXPECT_EQ(c % 2, 0u);
  EXPECT_EQ(t.count_free(), kCores / 2);
  // ...and every interleaved survivor slot still reads our pid: the
  // sweep's CASes on the adjacent lines disturbed nothing of ours.
  for (CoreId c = 1; c < kCores; c += 2) EXPECT_EQ(t.user_of(c), me);
  EXPECT_EQ(t.count_active(me), kCores / 2);
}

// ---------------------------------------------------------------------------
// The headline end-to-end scenario: two full Scheduler instances co-run
// as separate OS processes over the shm table; one is SIGKILLed while
// actively working (holding cores); the survivor's coordinator must sweep
// the dead program within K coordinator periods, recover every core, and
// finish its own workload. Repeated to prove no shm segments leak.
TEST(CrashRecovery, SurvivorReclaimsAllCoresAndCompletes) {
  constexpr unsigned kCores = 4;
  constexpr int kRepeats = 2;

  for (int round = 0; round < kRepeats; ++round) {
    const std::string name =
        unique_name("e2e") + "_" + std::to_string(round);
    ShmGuard guard(name);
    SyncFlags flags;

    // Fork the victim BEFORE the parent constructs its threaded objects.
    const pid_t victim = spawn_process([&] {
      Config cfg;
      cfg.mode = SchedMode::kDws;
      cfg.num_cores = kCores;
      cfg.num_programs = 2;
      cfg.pin_threads = false;
      cfg.coordinator_period_ms = 2.0;
      CoreTableShm shm(name, kCores, 2);
      rt::Scheduler sched(cfg, &shm.table());
      // Keep workers busy forever so the victim holds cores at kill time.
      std::thread pump([&] {
        for (;;) {
          rt::parallel_for_each_index(sched, 0, 64, 1, [](std::int64_t) {
            volatile std::int64_t acc = 0;
            for (int i = 0; i < 20000; ++i) acc = acc + i;
          });
        }
      });
      pump.detach();
      while (shm.table().count_active(sched.pid()) == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      flags.raise(0);  // crash point: actively working, cores held
      for (;;) std::this_thread::sleep_for(1h);
      return 0;  // unreachable; fixes the lambda's deduced return type
    });
    ASSERT_TRUE(flags.wait_for(0));

    // Survivor: small coordinator period and tight stale threshold so
    // recovery happens within a few milliseconds of real time.
    Config cfg;
    cfg.mode = SchedMode::kDws;
    cfg.num_cores = kCores;
    cfg.num_programs = 2;
    cfg.pin_threads = false;
    cfg.coordinator_period_ms = 2.0;
    cfg.stale_after_periods = 3;
    CoreTableShm shm(name, kCores, 2, fast_timeout());
    rt::Scheduler sched(cfg, &shm.table());
    CoreTable& t = shm.table();
    const ProgramId victim_pid = 1;  // registered first
    ASSERT_NE(sched.pid(), victim_pid);

    kill_process(victim);
    EXPECT_EQ(wait_process(victim), 137);

    // The corpse's own home cores it still holds: the survivor can neither
    // reclaim nor claim them, so only the stale sweep can free them. (The
    // survivor's reclaims may empty every other corpse slot before the
    // sweep runs, and if the sweep already ran this reads 0 — either way
    // a recovery is owed only for the cores counted here.)
    unsigned corpse_home_held = 0;
    for (CoreId c = 0; c < kCores; ++c) {
      if (t.home_of(c) == victim_pid && t.user_of(c) == victim_pid) {
        ++corpse_home_held;
      }
    }

    // Bounded recovery: stale_after_periods + slack coordinator periods.
    // eventually()'s 10 s ceiling is the hard failure bound; the expected
    // time is stale_after_periods * period ~= 6 ms after the first tick.
    // Wait for the sweep itself, not just for empty slots: the survivor's
    // reclaims can empty those first. The dead program's liveness record
    // is retired, so the sweep is one-shot and its slots are genuinely
    // reusable.
    ASSERT_TRUE(eventually([&] {
      return sched.stats().stale_programs_swept >= 1 &&
             t.liveness_os_pid(victim_pid) == 0 &&
             t.count_active(victim_pid) == 0;
    })) << "survivor never swept the killed co-runner";
    // The counters are bumped one after the other, so poll this one too.
    EXPECT_TRUE(eventually([&] {
      return sched.stats().cores_recovered >= corpse_home_held;
    })) << "sweep freed fewer than the " << corpse_home_held
        << " home cores the corpse held";

    // The survivor can now take the whole machine and finish real work.
    std::atomic<int> done{0};
    rt::parallel_for_each_index(sched, 0, 512, 4, [&](std::int64_t) {
      volatile std::int64_t acc = 0;
      for (int i = 0; i < 2000; ++i) acc = acc + i;
      done.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(done.load(), 512);
    ASSERT_TRUE(eventually([&] {
      return t.count_free() + t.count_active(sched.pid()) == kCores;
    })) << "cores still stuck on the dead pid";

    // No segment leaks across rounds: the name exists now, and remove()
    // (the ShmGuard destructor) fully clears it.
    EXPECT_TRUE(shm_segment_exists(name));
    CoreTableShm::remove(name);
    EXPECT_FALSE(shm_segment_exists(name));
  }
}

}  // namespace
}  // namespace dws::harness
