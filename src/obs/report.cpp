#include "obs/report.h"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <map>
#include <ostream>
#include <set>
#include <sstream>

#include "obs/json.h"

namespace jitfd::obs {

namespace {

double sec(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

}  // namespace

double RunProfile::wall_s() const {
  double w = 0.0;
  for (const RankProfile& r : ranks) {
    w = std::max(w, r.wall_s);
  }
  return w;
}

std::uint64_t RunProfile::steps() const {
  std::uint64_t s = 0;
  for (const RankProfile& r : ranks) {
    s = std::max(s, r.steps);
  }
  return s;
}

std::uint64_t RunProfile::messages() const {
  std::uint64_t m = 0;
  for (const RankProfile& r : ranks) {
    m += r.messages;
  }
  return m;
}

std::uint64_t RunProfile::bytes_sent() const {
  std::uint64_t b = 0;
  for (const RankProfile& r : ranks) {
    b += r.bytes_sent;
  }
  return b;
}

double RunProfile::comm_fraction() const {
  double sum = 0.0;
  int n = 0;
  for (const RankProfile& r : ranks) {
    const double busy = r.comm_s() + r.compute_s;
    if (busy > 0.0) {
      sum += r.comm_s() / busy;
      ++n;
    }
  }
  return n > 0 ? sum / n : 0.0;
}

RunProfile profile_from(const TraceData& data) {
  RunProfile out;
  out.dropped = data.dropped;
  std::map<int, RankProfile> per_rank;
  // Per rank: jit.run umbrella and what nests inside it, for the
  // derived-compute fallback of JIT runs.
  std::map<int, double> jit_run_s;
  std::map<int, double> halo_umbrella_s;
  std::map<int, double> sparse_s;
  std::map<int, std::pair<std::uint64_t, std::uint64_t>> extent;

  for (const TraceData::Rec& e : data.events) {
    RankProfile& r = per_rank[e.rank];
    r.rank = e.rank;
    auto ext = extent.find(e.rank);
    if (ext == extent.end()) {
      extent.emplace(e.rank, std::pair{e.t0_ns, e.t1_ns});
    } else {
      ext->second.first = std::min(ext->second.first, e.t0_ns);
      ext->second.second = std::max(ext->second.second, e.t1_ns);
    }
    const double s = sec(e.t0_ns, e.t1_ns);
    switch (e.cat) {
      case Cat::Compute:
        r.compute_s += s;
        break;
      case Cat::Pack:
        r.pack_s += s;
        break;
      case Cat::Send:
        r.send_s += s;
        break;
      case Cat::Wait:
        r.wait_s += s;
        break;
      case Cat::Unpack:
        r.unpack_s += s;
        break;
      case Cat::Sync:
        r.sync_s += s;
        break;
      case Cat::Sparse:
        r.sparse_s += s;
        sparse_s[e.rank] += s;
        break;
      case Cat::Compile:
        r.compile_s += s;
        break;
      case Cat::Jit:
        if (e.name == "jit.build") {
          r.jit_build_s += s;
        }
        break;
      case Cat::Halo:
        halo_umbrella_s[e.rank] += s;
        break;
      case Cat::Msg:
        break;
      case Cat::Run:
        if (e.name == "step") {
          ++r.steps;
        } else if (e.name == "jit.run") {
          jit_run_s[e.rank] += s;
        }
        break;
    }
    if (e.cat == Cat::Send && e.name == "halo.send") {
      ++r.messages;
      r.bytes_sent += e.a0 > 0 ? static_cast<std::uint64_t>(e.a0) : 0;
    }
  }

  for (auto& [rank, r] : per_rank) {
    const auto ext = extent.at(rank);
    r.wall_s = sec(ext.first, ext.second);
    // Generated loops carry no spans, so for pure-JIT ranks compute is
    // the jit.run umbrella minus the communication and sparse callbacks
    // nested inside it.
    if (r.compute_s == 0.0) {
      auto it = jit_run_s.find(rank);
      if (it != jit_run_s.end()) {
        double derived = it->second;
        auto h = halo_umbrella_s.find(rank);
        if (h != halo_umbrella_s.end()) {
          derived -= h->second;
        }
        auto sp = sparse_s.find(rank);
        if (sp != sparse_s.end()) {
          derived -= sp->second;
        }
        r.compute_s = std::max(derived, 0.0);
      }
    }
    out.ranks.push_back(r);
  }
  return out;
}

std::string summary_table(const TraceData& data) {
  // (rank, name) -> {count, total_ns, cat}.
  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    Cat cat = Cat::Run;
  };
  std::map<int, std::map<std::string, Agg>> table;
  std::map<int, std::pair<std::uint64_t, std::uint64_t>> extent;
  for (const TraceData::Rec& e : data.events) {
    Agg& a = table[e.rank][e.name];
    ++a.count;
    a.total_ns += e.t1_ns - e.t0_ns;
    a.cat = e.cat;
    auto ext = extent.find(e.rank);
    if (ext == extent.end()) {
      extent.emplace(e.rank, std::pair{e.t0_ns, e.t1_ns});
    } else {
      ext->second.first = std::min(ext->second.first, e.t0_ns);
      ext->second.second = std::max(ext->second.second, e.t1_ns);
    }
  }

  std::ostringstream os;
  os << std::fixed;
  if (table.empty()) {
    os << "trace: no events recorded\n";
    return os.str();
  }
  for (const auto& [rank, phases] : table) {
    const auto ext = extent.at(rank);
    const double wall_ms = static_cast<double>(ext.second - ext.first) * 1e-6;
    os << "rank " << rank << "  (wall " << std::setprecision(3) << wall_ms
       << " ms)\n";
    os << "  " << std::left << std::setw(26) << "phase" << std::right
       << std::setw(10) << "count" << std::setw(14) << "total ms"
       << std::setw(9) << "%wall" << '\n';
    // Largest consumers first.
    std::vector<std::pair<std::string, Agg>> rows(phases.begin(),
                                                  phases.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      return a.second.total_ns > b.second.total_ns;
    });
    for (const auto& [name, agg] : rows) {
      const double ms = static_cast<double>(agg.total_ns) * 1e-6;
      const double pct = wall_ms > 0.0 ? 100.0 * ms / wall_ms : 0.0;
      os << "  " << std::left << std::setw(26)
         << (name + " [" + to_string(agg.cat) + "]") << std::right
         << std::setw(10) << agg.count << std::setw(14)
         << std::setprecision(3) << ms << std::setw(8)
         << std::setprecision(1) << pct << "%\n";
    }
  }
  if (data.dropped > 0) {
    os << "(" << data.dropped
       << " events dropped to ring wraparound; raise JITFD_TRACE_RING)\n";
  }
  return os.str();
}

void write_chrome_trace(std::ostream& os, const TraceData& data) {
  JsonWriter w;
  w.begin_object().field("displayTimeUnit", "ms").key("otherData");
  w.begin_object().field("tool", "jitfd-obs").field("dropped", data.dropped);
  w.end().key("traceEvents").begin_array();
  // One named track per rank.
  std::set<int> ranks;
  for (const TraceData::Rec& e : data.events) {
    ranks.insert(e.rank);
  }
  for (const int r : ranks) {
    w.begin_object().field("name", "thread_name").field("ph", "M");
    w.field("pid", 0).field("tid", r).key("args").begin_object();
    w.field("name", "rank " + std::to_string(r)).end().end();
  }
  for (const TraceData::Rec& e : data.events) {
    w.begin_object().field("name", e.name).field("cat", to_string(e.cat));
    // Microseconds as ns / 1e3, so the shortest form keeps <= 3 decimals.
    const double ts_us = static_cast<double>(e.t0_ns) / 1e3;
    if (e.t1_ns > e.t0_ns) {
      w.field("ph", "X").field("ts", ts_us);
      w.field("dur", static_cast<double>(e.t1_ns - e.t0_ns) / 1e3);
    } else {
      w.field("ph", "i").field("s", "t").field("ts", ts_us);
    }
    w.field("pid", 0).field("tid", e.rank).key("args").begin_object();
    w.field("a0", e.a0).field("a1", e.a1).end().end();
  }
  w.end().end();
  os << w.take();
}

bool write_chrome_trace_file(const std::string& path,
                             const TraceData& data) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return false;
  }
  write_chrome_trace(out, data);
  return static_cast<bool>(out);
}

}  // namespace jitfd::obs
