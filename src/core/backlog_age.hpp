// The backlog-age trigger's predicate: has the oldest queued task of one
// work-stealing deque waited a whole wake latency λ?
//
// The paper's coordinator wakes sleepers once per period T (§3.3), so a
// program's spawns can wait up to T before a sleeper joins. Waking on
// every push edge instead pays a sleep/wake cycle for phases shorter than
// one (the spin-versus-block break-even of Karlin, Li, Manasse & Owicki,
// SOSP 1991). A task that has already waited λ, the wake latency, always
// pays for the wake, so the runtime's coordinator marks each deque's
// (top, bottom), waits λ, and runs its unchanged demand step when a deque
// was non-empty at the mark and still holds the same top.
//
// Why the same top means the same task: a Chase-Lev deque's top only
// grows, by a steal or by the owner popping the last task. So a non-empty
// deque whose top did not move still holds the task it held at the mark.
#pragma once

#include <cstdint>

namespace dws {

/// (top, bottom) of one Chase-Lev deque: the queued tasks are the indices
/// [top, bottom).
struct DequeMark {
  std::int64_t top = 0;
  std::int64_t bottom = 0;

  [[nodiscard]] constexpr bool nonempty() const noexcept {
    return bottom > top;
  }
};

/// True iff the task at `then.top` is still queued at `now`: the deque was
/// non-empty at both marks and its top did not move. A deque that was
/// empty at the first mark and was refilled at the same top is not aged:
/// its task arrived after the mark.
[[nodiscard]] constexpr bool backlog_aged(DequeMark then,
                                          DequeMark now) noexcept {
  return then.nonempty() && now.nonempty() && now.top == then.top;
}

}  // namespace dws
