// layout_audit — concrete cache-line layout auditor for DWS's concurrent
// structs (the runtime half of the dws-false-sharing discipline; see
// src/util/layout.hpp and docs/CHECKING.md §"Layout auditing").
//
// Every struct whose words cross thread or process boundaries is
// registered below through the DWS_AUDIT_* macros, inside a member
// function of dws::layout::Access — the friend hook those structs
// declare — so private layouts are read without widening any real API.
// The tool emits a deterministic JSON report (per-struct size/alignment,
// field offsets, sharing domains, and the cache lines where *different*
// domains overlap) and can byte-diff it against the committed golden,
// docs/layout_golden.json. CI runs the diff on every push: any layout
// change — a dropped alignas, a field reorder, a grown mutex — becomes
// an explicit, reviewed diff instead of a silent perf regression.
//
//   layout_audit [--out <path>] [--golden <path>] [--seed-regression]
//                [--print]
//
// Exit codes: 0 report written (and matches the golden, if given);
// 1 golden mismatch; 2 usage or I/O error.
//
// The report depends on the ABI (pointer width, libstdc++ object sizes),
// so the golden is only enforced where CI runs it: 64-bit Linux. The
// ctest registration gates on exactly that.

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/core_ops.hpp"
#include "core/core_table.hpp"
#include "runtime/coordinator.hpp"
#include "runtime/deque.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/task.hpp"
#include "runtime/task_pool.hpp"
#include "runtime/worker.hpp"
#include "util/layout.hpp"

namespace dws::layout {

// The friend hook: registration must live inside a member function so the
// offsetof/sizeof expressions see private members and private nested
// types (CoreTable::Header, ChaseLevDeque::Buffer, ...).
struct Access {
  static std::vector<StructInfo> collect() {
    std::vector<StructInfo> out;

    {
      DWS_AUDIT_STRUCT(out, dws::rt::ChaseLevDeque<dws::rt::TaskBase*>);
      DWS_AUDIT_FIELD(top_, "shared");
      DWS_AUDIT_FIELD(bottom_, "owned_by:owner");
      DWS_AUDIT_FIELD(top_cache_, "owned_by:owner");
      DWS_AUDIT_FIELD(buffer_, "owned_by:owner");
      DWS_AUDIT_FIELD(retired_, "");
    }
    {
      DWS_AUDIT_STRUCT(out,
                       dws::rt::ChaseLevDeque<dws::rt::TaskBase*>::Buffer);
      DWS_AUDIT_FIELD(capacity, "");
      DWS_AUDIT_FIELD(mask, "");
      DWS_AUDIT_FIELD(data, "");
      DWS_AUDIT_PACKED_OK(
          "ring elements are relaxed handoff cells, never a multi-writer "
          "CAS target");
    }
    {
      DWS_AUDIT_STRUCT(out, dws::rt::TaskSlabPool);
      DWS_AUDIT_FIELD(local_head_, "owned_by:owner");
      DWS_AUDIT_FIELD(owner_tag_, "");
      DWS_AUDIT_FIELD(slabs_, "");
      DWS_AUDIT_FIELD(remote_head_, "shared");
      DWS_AUDIT_FIELD(slab_allocs_, "owned_by:owner");
      DWS_AUDIT_FIELD(slot_allocs_, "owned_by:owner");
      DWS_AUDIT_FIELD(local_frees_, "owned_by:owner");
      DWS_AUDIT_FIELD(remote_frees_, "shared");
      DWS_AUDIT_FIELD(remote_drains_, "shared");
      DWS_AUDIT_PACKED_OK(
          "remote-free monitoring counters ride the same fallback path "
          "that just CASed remote_head_; not worth a line each");
    }
    {
      DWS_AUDIT_STRUCT(out, dws::rt::TaskSlabPool::Slot);
      DWS_AUDIT_FIELD(home, "");
      DWS_AUDIT_FIELD(storage, "");
      DWS_AUDIT_FIELD(next, "shared");
    }
    {
      DWS_AUDIT_STRUCT(out, dws::rt::WorkerStats);
      DWS_AUDIT_FIELD(tasks_executed, "owned_by:worker");
      DWS_AUDIT_FIELD(steal_attempts, "owned_by:worker");
      DWS_AUDIT_FIELD(steals, "owned_by:worker");
      DWS_AUDIT_FIELD(failed_steals, "owned_by:worker");
      DWS_AUDIT_FIELD(yields, "owned_by:worker");
      DWS_AUDIT_FIELD(sleeps, "owned_by:worker");
      DWS_AUDIT_FIELD(wakes, "owned_by:worker");
      DWS_AUDIT_FIELD(evictions, "owned_by:worker");
      DWS_AUDIT_FIELD(heap_spawns, "owned_by:worker");
    }
    {
      // sched_ is a reference member: not offsetof-addressable, skipped.
      DWS_AUDIT_STRUCT(out, dws::rt::Worker);
      DWS_AUDIT_FIELD(id_, "");
      DWS_AUDIT_FIELD(rng_, "owned_by:worker");
      DWS_AUDIT_FIELD(policy_, "");
      DWS_AUDIT_FIELD(deque_, "");
      DWS_AUDIT_FIELD(pool_, "");
      DWS_AUDIT_FIELD(stats_, "");
      DWS_AUDIT_FIELD(thread_, "");
      DWS_AUDIT_FIELD(state_, "shared");
      DWS_AUDIT_FIELD(m_, "shared");
      DWS_AUDIT_FIELD(cv_, "shared");
      DWS_AUDIT_FIELD(wake_pending_, "shared");
    }
    {
      DWS_AUDIT_STRUCT(out, dws::CoreTable::Header);
      DWS_AUDIT_FIELD(magic, "shared");
      DWS_AUDIT_FIELD(layout_version, "");
      DWS_AUDIT_FIELD(num_cores, "");
      DWS_AUDIT_FIELD(num_programs, "");
      DWS_AUDIT_FIELD(registered, "shared");
    }
    {
      DWS_AUDIT_STRUCT(out, dws::CoreTable::LivenessRecord);
      DWS_AUDIT_FIELD(os_pid, "shared");
      DWS_AUDIT_FIELD(epoch, "owned_by:program");
      DWS_AUDIT_PACKED_OK(
          "heartbeat-rate writes only, one tick per coordinator period, "
          "measured interference is noise");
    }
    {
      DWS_AUDIT_STRUCT(out, dws::StridedCoreSlot<dws::StdAtomicsPolicy>);
      DWS_AUDIT_FIELD(user, "shared");
    }
    {
      DWS_AUDIT_STRUCT(out, dws::rt::Scheduler);
      DWS_AUDIT_FIELD(cfg_, "");
      DWS_AUDIT_FIELD(pid_, "");
      DWS_AUDIT_FIELD(table_, "");
      DWS_AUDIT_FIELD(owned_table_, "");
      DWS_AUDIT_FIELD(workers_, "");
      DWS_AUDIT_FIELD(coordinator_, "");
      DWS_AUDIT_FIELD(inbox_m_, "shared");
      DWS_AUDIT_FIELD(inbox_head_, "shared");
      DWS_AUDIT_FIELD(inbox_tail_, "shared");
      DWS_AUDIT_FIELD(inbox_size_, "shared");
      DWS_AUDIT_FIELD(external_spawns_, "shared");
      DWS_AUDIT_FIELD(total_pending_, "shared");
      DWS_AUDIT_FIELD(gate_m_, "shared");
      DWS_AUDIT_FIELD(gate_cv_, "shared");
      DWS_AUDIT_FIELD(shutdown_, "shared");
#ifndef DWS_RACE_DISABLED
      DWS_AUDIT_FIELD(exec_hook_, "shared");
#endif
    }
    {
      // sched_ is a reference member: not offsetof-addressable, skipped.
      DWS_AUDIT_STRUCT(out, dws::rt::Coordinator);
      DWS_AUDIT_FIELD(driver_, "");
      DWS_AUDIT_FIELD(sweeper_, "");
      DWS_AUDIT_FIELD(thread_, "");
      DWS_AUDIT_FIELD(m_, "shared");
      DWS_AUDIT_FIELD(cv_, "shared");
      DWS_AUDIT_FIELD(stop_requested_, "shared");
      DWS_AUDIT_FIELD(nudged_, "shared");
      DWS_AUDIT_FIELD(ticks_, "owned_by:coordinator");
      DWS_AUDIT_FIELD(wakes_, "owned_by:coordinator");
      DWS_AUDIT_FIELD(cores_claimed_, "owned_by:coordinator");
      DWS_AUDIT_FIELD(cores_reclaimed_, "owned_by:coordinator");
      DWS_AUDIT_FIELD(stale_programs_swept_, "owned_by:coordinator");
      DWS_AUDIT_FIELD(cores_recovered_, "owned_by:coordinator");
    }
    {
      DWS_AUDIT_STRUCT(out, dws::rt::TaskGroup);
      DWS_AUDIT_FIELD(pending_, "shared");
      DWS_AUDIT_FIELD(creator_tag_, "");
      DWS_AUDIT_FIELD(creator_lineage_, "");
      DWS_AUDIT_FIELD(waited_, "shared");
      DWS_AUDIT_FIELD(signalers_, "shared");
      DWS_AUDIT_FIELD(has_exception_, "shared");
      DWS_AUDIT_FIELD(exception_, "");
      DWS_AUDIT_FIELD(m_, "shared");
      DWS_AUDIT_FIELD(cv_, "shared");
    }

    return out;
  }
};

}  // namespace dws::layout

namespace {

using dws::layout::StructInfo;

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

// Deterministic serialization: fixed key order, no floats, 2-space
// indent, trailing newline. The golden diff is a byte comparison, so any
// change here is itself a golden update.
std::string serialize(const std::vector<StructInfo>& structs) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"dws-layout-audit-v1\",\n";
  os << "  \"cache_line_bytes\": " << dws::layout::kCacheLineBytes << ",\n";
  os << "  \"pointer_bytes\": " << sizeof(void*) << ",\n";
  os << "  \"structs\": [\n";
  for (std::size_t i = 0; i < structs.size(); ++i) {
    const StructInfo& s = structs[i];
    os << "    {\n";
    os << "      \"name\": \"" << json_escape(s.name) << "\",\n";
    os << "      \"size\": " << s.size << ",\n";
    os << "      \"align\": " << s.align << ",\n";
    os << "      \"cache_lines\": "
       << (s.size + dws::layout::kCacheLineBytes - 1) /
              dws::layout::kCacheLineBytes
       << ",\n";
    os << "      \"packed_ok\": \"" << json_escape(s.packed_ok) << "\",\n";
    os << "      \"fields\": [\n";
    for (std::size_t j = 0; j < s.fields.size(); ++j) {
      const auto& f = s.fields[j];
      const auto [first, last] = dws::layout::lines_of(f.offset, f.size);
      os << "        {\"name\": \"" << json_escape(f.name)
         << "\", \"offset\": " << f.offset << ", \"size\": " << f.size
         << ", \"align\": " << f.align << ", \"lines\": [" << first << ", "
         << last << "], \"domain\": \"" << json_escape(f.domain) << "\"}"
         << (j + 1 < s.fields.size() ? "," : "") << "\n";
    }
    os << "      ],\n";
    const auto conflicts = dws::layout::conflicts_of(s);
    os << "      \"conflicts\": [";
    for (std::size_t j = 0; j < conflicts.size(); ++j) {
      const auto& c = conflicts[j];
      os << (j == 0 ? "\n" : ",\n");
      os << "        {\"line\": " << c.line << ", \"fields\": [";
      for (std::size_t k = 0; k < c.fields.size(); ++k)
        os << (k > 0 ? ", " : "") << "\"" << json_escape(c.fields[k]) << "\"";
      os << "], \"domains\": [";
      for (std::size_t k = 0; k < c.domains.size(); ++k)
        os << (k > 0 ? ", " : "") << "\"" << json_escape(c.domains[k])
           << "\"";
      os << "]}";
    }
    os << (conflicts.empty() ? "]\n" : "\n      ]\n");
    os << "    }" << (i + 1 < structs.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

int diff_against_golden(const std::string& report, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    std::cerr << "layout_audit: cannot open golden '" << path << "'\n";
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string golden = buf.str();
  if (golden == report) {
    std::cout << "layout_audit: report matches golden " << path << "\n";
    return 0;
  }
  // Point at the first diverging line — enough to aim the reviewer.
  std::istringstream a(report);
  std::istringstream b(golden);
  std::string la;
  std::string lb;
  int line = 0;
  while (true) {
    ++line;
    const bool ga = static_cast<bool>(std::getline(a, la));
    const bool gb = static_cast<bool>(std::getline(b, lb));
    if (!ga && !gb) break;
    if (la != lb || ga != gb) {
      std::cerr << "layout_audit: MISMATCH against golden " << path
                << " at line " << line << "\n"
                << "  golden:  " << (gb ? lb : "<eof>") << "\n"
                << "  current: " << (ga ? la : "<eof>") << "\n";
      break;
    }
  }
  std::cerr << "layout_audit: a concurrent struct's layout changed. If the "
               "change is intended,\nregenerate the golden (see "
               "docs/CHECKING.md §Layout auditing):\n"
               "  build/tools/layout_audit/layout_audit --out "
               "docs/layout_golden.json\nand commit the diff.\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "results/layout_audit.json";
  std::string golden_path;
  bool seed_regression = false;
  bool print = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(arg, "--golden") == 0 && i + 1 < argc) {
      golden_path = argv[++i];
    } else if (std::strcmp(arg, "--seed-regression") == 0) {
      seed_regression = true;
    } else if (std::strcmp(arg, "--print") == 0) {
      print = true;
    } else {
      std::cerr << "usage: layout_audit [--out <path>] [--golden <path>] "
                   "[--seed-regression] [--print]\n";
      return 2;
    }
  }

  std::vector<StructInfo> structs = dws::layout::Access::collect();

  if (seed_regression) {
    // Deliberately mis-report WorkerStats as if its alignas(64) had been
    // dropped — the regression the golden gate exists to catch. Used by
    // test_layout_audit to prove the gate fires.
    for (StructInfo& s : structs) {
      if (s.name == "dws::rt::WorkerStats") {
        s.align = alignof(std::uint64_t);
        s.size -= s.size % dws::layout::kCacheLineBytes;
        s.size += sizeof(std::uint64_t) * 9 % dws::layout::kCacheLineBytes;
      }
    }
  }

  const std::string report = serialize(structs);

  if (print) std::cout << report;

  if (!out_path.empty()) {
    const std::filesystem::path p(out_path);
    std::error_code ec;
    if (p.has_parent_path())
      std::filesystem::create_directories(p.parent_path(), ec);
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
      std::cerr << "layout_audit: cannot write '" << out_path << "'\n";
      return 2;
    }
    out << report;
    if (!print)
      std::cout << "layout_audit: wrote " << out_path << " ("
                << structs.size() << " structs)\n";
  }

  if (!golden_path.empty()) return diff_against_golden(report, golden_path);
  return 0;
}
