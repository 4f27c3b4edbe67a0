#include "obs/analysis.h"

#include <algorithm>
#include <cstdint>
#include <map>

#include "obs/json.h"
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

std::string analysis_json(const AnalysisReport& r) {
  JsonWriter w;
  w.begin_object().key("analysis").begin_object();
  w.field("nranks", r.nranks).field("steps", r.steps);
  w.field("wall_seconds", r.wall_s).key("wait").begin_object();
  w.field("late_sender_seconds", r.late_sender_s)
      .field("late_receiver_seconds", r.late_receiver_s)
      .field("transfer_seconds", r.transfer_s)
      .field("matched", r.matched_waits)
      .field("unmatched", r.unmatched_waits)
      .field("culprit_rank", r.late_sender_culprit)
      .field("rendezvous_messages", r.rendezvous_msgs)
      .field("queued_messages", r.queued_msgs)
      .key("ranks")
      .begin_array();
  for (const RankWaitStats& ws : r.rank_waits) {
    w.begin_object()
        .field("rank", ws.rank)
        .field("wait_seconds", ws.wait_s)
        .field("late_sender_seconds", ws.late_sender_s)
        .field("late_receiver_seconds", ws.late_receiver_s)
        .field("blamed_seconds", ws.blamed_s)
        .end();
  }
  w.end().end().key("overlap").begin_object();
  w.field("async_exchanges", r.async_exchanges)
      .field("window_seconds", r.overlap_window_s)
      .field("hidden_seconds", r.overlap_hidden_s)
      .field("efficiency", r.overlap_efficiency)
      .end();
  w.key("imbalance").begin_object();
  w.field("max_compute_seconds", r.max_compute_s)
      .field("mean_compute_seconds", r.mean_compute_s)
      .field("ratio", r.imbalance_ratio)
      .field("critical_rank", r.critical_path_rank)
      .key("ranks")
      .begin_array();
  for (const RankLoad& rl : r.rank_loads) {
    w.begin_object()
        .field("rank", rl.rank)
        .field("compute_seconds", rl.compute_s)
        .end();
  }
  w.end().key("steps").begin_array();
  for (const StepLoad& sl : r.step_loads) {
    w.begin_object()
        .field("step", sl.step)
        .field("max", sl.max_compute_s)
        .field("mean", sl.mean_compute_s)
        .field("critical_rank", sl.critical_rank)
        .end();
  }
  w.end().end().end().end();
  return w.take();
}

AnalysisReport TraceHandle::analysis() const { return analyze(data()); }

}  // namespace jitfd::obs
