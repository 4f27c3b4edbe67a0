#include "obs/analysis.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>

#include "obs/metrics.h"
#include "obs/report.h"

namespace jitfd::obs {

namespace {

double sec(std::uint64_t t0, std::uint64_t t1) {
  return t1 > t0 ? static_cast<double>(t1 - t0) * 1e-9 : 0.0;
}

struct Interval {
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
};

}  // namespace

AnalysisReport analyze(const TraceData& data) {
  AnalysisReport rep;
  if (data.events.empty()) {
    return rep;
  }

  // Per-rank aggregates (reuses the RunProfile machinery, including the
  // derived-compute fallback for JIT ranks).
  const RunProfile prof = profile_from(data);
  rep.nranks = static_cast<int>(prof.ranks.size());
  rep.steps = prof.steps();
  rep.wall_s = prof.wall_s();

  // -- Bucket the events we need, preserving the per-rank chronological
  // order collect() guarantees. ----------------------------------------
  // (sender, receiver) -> send intervals, (receiver, sender) -> waits.
  std::map<std::pair<int, int>, std::vector<Interval>> sends;
  std::map<std::pair<int, int>, std::vector<Interval>> waits;
  std::map<int, std::uint64_t> exchange_count;
  // (rank, spot) -> chronological halo.start / halo.finish intervals.
  std::map<std::pair<int, int>, std::vector<std::pair<bool, Interval>>>
      async_marks;  // bool: true = start.
  std::map<int, std::vector<std::pair<Interval, std::int64_t>>> computes;

  for (const TraceData::Rec& e : data.events) {
    const Interval iv{e.t0_ns, e.t1_ns};
    switch (e.cat) {
      case Cat::Send:
        if (e.name == "halo.send") {
          sends[{e.rank, e.a1}].push_back(iv);
        }
        break;
      case Cat::Wait:
        if (e.name == "halo.wait") {
          waits[{e.rank, e.a1}].push_back(iv);
        }
        break;
      case Cat::Halo:
        if (e.name == "halo.update") {
          ++exchange_count[e.rank];
        } else if (e.name == "halo.start") {
          ++exchange_count[e.rank];
          async_marks[{e.rank, e.a1}].emplace_back(true, iv);
        } else if (e.name == "halo.finish") {
          async_marks[{e.rank, e.a1}].emplace_back(false, iv);
        }
        break;
      case Cat::Msg:
        if (e.name == "msg.rendezvous") {
          ++rep.rendezvous_msgs;
        } else if (e.name == "msg.queued") {
          ++rep.queued_msgs;
        }
        break;
      case Cat::Compute:
        computes[e.rank].emplace_back(iv, e.a0);
        break;
      default:
        break;
    }
  }
  for (const auto& [rank, n] : exchange_count) {
    rep.exchanges = std::max(rep.exchanges, n);
  }

  // -- Wait-state attribution ------------------------------------------
  std::map<int, RankWaitStats> rank_waits;
  for (const RankProfile& r : prof.ranks) {
    RankWaitStats& w = rank_waits[r.rank];
    w.rank = r.rank;
    w.wait_s = r.wait_s;
  }
  for (const auto& [key, ws] : waits) {
    const auto [receiver, sender] = key;
    const auto sit = sends.find({sender, receiver});
    const std::size_t n_sends =
        sit != sends.end() ? sit->second.size() : std::size_t{0};
    const std::size_t matched = std::min(ws.size(), n_sends);
    rep.matched_waits += matched;
    rep.unmatched_waits += ws.size() - matched;
    for (std::size_t i = 0; i < matched; ++i) {
      const Interval& w = ws[i];
      const Interval& s = sit->second[i];
      // Receiver idle before the sender initiated the transfer.
      const double late_sender =
          sec(w.t0, std::min(std::max(s.t0, w.t0), w.t1));
      // Message delivered (buffered sends complete at s.t1) before the
      // receiver showed up: the message waited, not the receiver.
      const double late_receiver = sec(s.t1, w.t0);
      const double transfer = std::max(sec(w.t0, w.t1) - late_sender, 0.0);
      rep.late_sender_s += late_sender;
      rep.late_receiver_s += late_receiver;
      rep.transfer_s += transfer;
      rank_waits[receiver].late_sender_s += late_sender;
      rank_waits[receiver].late_receiver_s += late_receiver;
      rank_waits[sender].blamed_s += late_sender;
    }
  }
  double best_blame = 0.0;
  for (const auto& [rank, w] : rank_waits) {
    rep.rank_waits.push_back(w);
    if (w.blamed_s > best_blame) {
      best_blame = w.blamed_s;
      rep.late_sender_culprit = rank;
    }
  }

  // -- Overlap efficiency (async halo.start / halo.finish pairs) -------
  for (const auto& [key, marks] : async_marks) {
    const Interval* open_start = nullptr;
    for (const auto& [is_start, iv] : marks) {
      if (is_start) {
        open_start = &iv;
      } else if (open_start != nullptr) {
        const double window = sec(open_start->t0, iv.t1);
        if (window > 0.0) {
          ++rep.async_exchanges;
          rep.overlap_window_s += window;
          rep.overlap_hidden_s += sec(open_start->t1, iv.t0);
        }
        open_start = nullptr;
      }
    }
  }
  if (rep.overlap_window_s > 0.0) {
    rep.overlap_efficiency =
        std::clamp(rep.overlap_hidden_s / rep.overlap_window_s, 0.0, 1.0);
  }

  // -- Load imbalance ---------------------------------------------------
  double total_compute = 0.0;
  for (const RankProfile& r : prof.ranks) {
    total_compute += r.compute_s;
    rep.rank_loads.push_back({r.rank, r.compute_s});
    if (r.compute_s > rep.max_compute_s) {
      rep.max_compute_s = r.compute_s;
      rep.critical_path_rank = r.rank;
    }
  }
  std::sort(rep.rank_loads.begin(), rep.rank_loads.end(),
            [](const RankLoad& a, const RankLoad& b) { return a.rank < b.rank; });
  if (rep.nranks > 0) {
    rep.mean_compute_s = total_compute / rep.nranks;
  }
  if (rep.mean_compute_s > 0.0) {
    rep.imbalance_ratio = rep.max_compute_s / rep.mean_compute_s;
  }
  // Per-step breakdown, available when compute spans carry timesteps
  // (interpreter runs; generated JIT loops record none).
  std::map<std::int64_t, std::map<int, double>> by_step;
  for (const auto& [rank, list] : computes) {
    for (const auto& [iv, t] : list) {
      by_step[t][rank] += sec(iv.t0, iv.t1);
    }
  }
  for (const auto& [step, per_rank] : by_step) {
    StepLoad sl;
    sl.step = step;
    double sum = 0.0;
    for (const auto& [rank, s] : per_rank) {
      sum += s;
      if (s > sl.max_compute_s) {
        sl.max_compute_s = s;
        sl.critical_rank = rank;
      }
    }
    sl.mean_compute_s =
        rep.nranks > 0 ? sum / rep.nranks : 0.0;
    rep.step_loads.push_back(sl);
  }

  return rep;
}

namespace {

void put(std::ostringstream& os, double v) {
  if (!std::isfinite(v)) {
    v = 0.0;
  }
  std::ostringstream tmp;
  tmp.precision(9);
  tmp << v;
  os << tmp.str();
}

}  // namespace

std::string analysis_json(const AnalysisReport& r) {
  std::ostringstream os;
  os << "{\n\"analysis\": {\n";
  os << "  \"nranks\": " << r.nranks << ",\n";
  os << "  \"steps\": " << r.steps << ",\n";
  os << "  \"wall_seconds\": ";
  put(os, r.wall_s);
  os << ",\n  \"wait\": {\n";
  os << "    \"late_sender_seconds\": ";
  put(os, r.late_sender_s);
  os << ",\n    \"late_receiver_seconds\": ";
  put(os, r.late_receiver_s);
  os << ",\n    \"transfer_seconds\": ";
  put(os, r.transfer_s);
  os << ",\n    \"matched\": " << r.matched_waits;
  os << ",\n    \"unmatched\": " << r.unmatched_waits;
  os << ",\n    \"culprit_rank\": " << r.late_sender_culprit;
  os << ",\n    \"rendezvous_messages\": " << r.rendezvous_msgs;
  os << ",\n    \"queued_messages\": " << r.queued_msgs;
  os << ",\n    \"ranks\": [";
  bool first = true;
  for (const RankWaitStats& w : r.rank_waits) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "      {\"rank\": " << w.rank << ", \"wait_seconds\": ";
    put(os, w.wait_s);
    os << ", \"late_sender_seconds\": ";
    put(os, w.late_sender_s);
    os << ", \"late_receiver_seconds\": ";
    put(os, w.late_receiver_s);
    os << ", \"blamed_seconds\": ";
    put(os, w.blamed_s);
    os << "}";
  }
  os << "\n    ]\n  },\n";
  os << "  \"overlap\": {\n";
  os << "    \"async_exchanges\": " << r.async_exchanges;
  os << ",\n    \"window_seconds\": ";
  put(os, r.overlap_window_s);
  os << ",\n    \"hidden_seconds\": ";
  put(os, r.overlap_hidden_s);
  os << ",\n    \"efficiency\": ";
  put(os, r.overlap_efficiency);
  os << "\n  },\n";
  os << "  \"imbalance\": {\n";
  os << "    \"max_compute_seconds\": ";
  put(os, r.max_compute_s);
  os << ",\n    \"mean_compute_seconds\": ";
  put(os, r.mean_compute_s);
  os << ",\n    \"ratio\": ";
  put(os, r.imbalance_ratio);
  os << ",\n    \"critical_rank\": " << r.critical_path_rank;
  os << ",\n    \"ranks\": [";
  first = true;
  for (const RankLoad& rl : r.rank_loads) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "      {\"rank\": " << rl.rank << ", \"compute_seconds\": ";
    put(os, rl.compute_s);
    os << "}";
  }
  os << "\n    ],\n    \"steps\": [";
  first = true;
  for (const StepLoad& sl : r.step_loads) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "      {\"step\": " << sl.step << ", \"max\": ";
    put(os, sl.max_compute_s);
    os << ", \"mean\": ";
    put(os, sl.mean_compute_s);
    os << ", \"critical_rank\": " << sl.critical_rank << "}";
  }
  os << "\n    ]\n  }\n}\n}\n";
  return os.str();
}

bool write_analysis_file(const std::string& path,
                         const AnalysisReport& report) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return false;
  }
  out << analysis_json(report);
  return static_cast<bool>(out);
}

std::string analysis_summary(const AnalysisReport& r) {
  std::ostringstream os;
  os.precision(3);
  os << std::fixed;
  os << "analysis: " << r.nranks << " ranks, " << r.steps << " steps";
  os << ", wall " << r.wall_s * 1e3 << " ms\n";
  os << "  wait: late-sender " << r.late_sender_s * 1e3
     << " ms, late-receiver " << r.late_receiver_s * 1e3 << " ms, transfer "
     << r.transfer_s * 1e3 << " ms (" << r.matched_waits << " matched, "
     << r.unmatched_waits << " unmatched";
  if (r.late_sender_culprit >= 0) {
    os << ", culprit rank " << r.late_sender_culprit;
  }
  os << ")\n";
  os << "  transport: " << r.rendezvous_msgs << " rendezvous, "
     << r.queued_msgs << " queued\n";
  if (r.async_exchanges > 0) {
    os << "  overlap: " << r.overlap_efficiency * 100.0 << "% of "
       << r.overlap_window_s * 1e3 << " ms exchange wall hidden ("
       << r.async_exchanges << " async exchanges)\n";
  }
  os << "  imbalance: max/mean compute " << r.imbalance_ratio;
  if (r.critical_path_rank >= 0) {
    os << " (critical-path rank " << r.critical_path_rank << ")";
  }
  os << "\n";
  return os.str();
}

void export_metrics(const AnalysisReport& r) {
  metrics::gauge("analysis.wall_seconds").set(r.wall_s);
  metrics::gauge("analysis.late_sender_seconds").set(r.late_sender_s);
  metrics::gauge("analysis.late_receiver_seconds").set(r.late_receiver_s);
  metrics::gauge("analysis.transfer_seconds").set(r.transfer_s);
  metrics::gauge("analysis.matched_waits")
      .set(static_cast<double>(r.matched_waits));
  metrics::gauge("analysis.overlap_efficiency").set(r.overlap_efficiency);
  metrics::gauge("analysis.imbalance_ratio").set(r.imbalance_ratio);
  metrics::gauge("analysis.max_compute_seconds").set(r.max_compute_s);
  metrics::gauge("analysis.mean_compute_seconds").set(r.mean_compute_s);
}

AnalysisReport TraceHandle::analysis() const { return analyze(data()); }

}  // namespace jitfd::obs
