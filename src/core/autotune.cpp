#include "core/autotune.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <set>
#include <sstream>

#include "obs/json.h"
#include "symbolic/manip.h"

namespace jitfd::core {

namespace {

std::vector<grid::Function*> fields_of(const std::vector<ir::Eq>& eqs) {
  std::set<int> ids;
  for (const ir::Eq& eq : eqs) {
    for (const sym::Ex& e : {eq.lhs, eq.rhs}) {
      sym::walk(e, [&](const sym::Ex& sub) {
        if (sub.kind() == sym::Kind::FieldAccess) {
          ids.insert(sub.node().field.id);
        }
      });
    }
  }
  std::vector<grid::Function*> out;
  for (const int id : ids) {
    grid::Function* f = grid::lookup_field(id);
    if (f != nullptr) {
      out.push_back(f);
    }
  }
  return out;
}

}  // namespace

std::vector<std::vector<std::int64_t>> tile_candidates(
    const std::vector<grid::Function*>& fields, const grid::Grid& grid) {
  std::vector<std::vector<std::int64_t>> cands;
  cands.push_back({});  // untiled
  const int nd = grid.ndims();
  if (nd < 2) {
    return cands;  // 1-D: the only dimension stays contiguous for SIMD
  }
  // Bytes one grid row (innermost extent) of every live buffer touches. A
  // subset-dimension Function holds no row per grid row: a profile's few
  // values stay in cache.
  std::int64_t row_bytes = 0;
  for (const grid::Function* f : fields) {
    if (f->dimensions().size() < static_cast<std::size_t>(nd)) {
      continue;
    }
    row_bytes += static_cast<std::int64_t>(sizeof(float)) *
                 f->padded_shape().back() * f->time_buffers();
  }
  // Rows per tile along every non-innermost dim combined; for nd > 2 a
  // dim-0 block of T spans T * mid-extents rows, so divide out.
  std::int64_t rows = 1;
  for (int d = 1; d < nd - 1; ++d) {
    rows *= grid.min_local_size(d);
  }
  constexpr std::int64_t kCacheBytes = 1 << 25;  // nominal 32 MiB LLC share
  const std::int64_t fit =
      row_bytes > 0 && rows > 0 ? kCacheBytes / (row_bytes * rows) : 0;
  const std::int64_t min_ext = grid.min_local_size(0);
  for (std::int64_t t : {fit, fit / 2}) {
    t = std::min(t, min_ext / 2);  // at least two blocks, else untiled wins
    if (t < 2) {
      continue;
    }
    std::vector<std::int64_t> cand(static_cast<std::size_t>(nd), 0);
    cand[0] = t;
    if (std::find(cands.begin(), cands.end(), cand) == cands.end()) {
      cands.push_back(cand);
    }
  }
  return cands;
}

namespace {

std::string tile_text(const std::vector<std::int64_t>& tile) {
  if (tile.empty() ||
      std::all_of(tile.begin(), tile.end(),
                  [](std::int64_t t) { return t == 0; })) {
    return "untiled";
  }
  std::string out = "tile ";
  for (std::size_t i = 0; i < tile.size(); ++i) {
    out += (i > 0 ? "," : "") + std::to_string(tile[i]);
  }
  return out;
}

std::string trial_text(const AutotuneReport::TrialKey& key) {
  std::ostringstream os;
  os << ir::to_string(key.first) << " " << tile_text(key.second);
  return os.str();
}

// The (mode, tile) members shared by autotune "best", "trials" and
// "skipped" rows.
void write_key(obs::JsonWriter& w, const AutotuneReport::TrialKey& key) {
  w.field("mode", ir::to_string(key.first)).key("tile").begin_array();
  for (const std::int64_t t : key.second) {
    w.value(t);
  }
  w.end();
}

}  // namespace

std::string autotune_report_json(const AutotuneReport& r) {
  obs::JsonWriter w;
  w.begin_object().key("autotune").begin_object();
  w.field("why", r.why)
      .field("trial_steps", r.trial_steps)
      .key("best")
      .begin_object();
  write_key(w, {r.best, r.best_tile});
  w.end().key("trials").begin_array();
  for (const auto& [key, secs] : r.seconds_by_trial) {
    w.begin_object();
    write_key(w, key);
    w.field("seconds", secs).end();
  }
  w.end().key("skipped").begin_array();
  for (const auto& [key, reason] : r.skipped) {
    w.begin_object();
    write_key(w, key);
    w.field("reason", reason).end();
  }
  w.end().end().end();
  return w.take();
}

bool write_autotune_file(const std::string& path,
                         const AutotuneReport& report) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return false;
  }
  out << autotune_report_json(report);
  return static_cast<bool>(out);
}

std::unique_ptr<Operator> autotune_operator(
    const std::vector<ir::Eq>& eqs, ir::CompileOptions opts,
    const std::map<std::string, double>& scalars, std::int64_t time_m,
    int trial_steps, AutotuneReport* report,
    std::vector<runtime::SparseOp*> sparse_ops) {
  const std::vector<grid::Function*> fields = fields_of(eqs);
  const grid::Grid& grid = fields.front()->grid();

  AutotuneReport local_report;
  local_report.trial_steps = trial_steps;

  if (!grid.distributed()) {
    opts.mode = ir::MpiMode::None;
    local_report.why = "serial grid: no distributed trials, mode none";
    if (report != nullptr) {
      *report = local_report;
    }
    return std::make_unique<Operator>(eqs, opts, std::move(sparse_ops));
  }

  // Snapshot all field data (trial steps mutate the wavefields).
  std::vector<std::vector<float>> snapshots;
  snapshots.reserve(fields.size());
  for (const grid::Function* f : fields) {
    const auto s = f->raw_storage();
    snapshots.emplace_back(s.begin(), s.end());
  }
  const auto restore = [&] {
    for (std::size_t i = 0; i < fields.size(); ++i) {
      auto dst = fields[i]->raw_storage();
      std::copy(snapshots[i].begin(), snapshots[i].end(), dst.begin());
    }
  };

  const std::vector<std::vector<std::int64_t>> tiles =
      tile_candidates(fields, grid);
  // The untiled candidate (report key []) reaches the Operator as an
  // explicit all-zero tile: an empty one would pick up JITFD_TILE.
  const std::vector<std::int64_t> untiled(
      static_cast<std::size_t>(grid.ndims()), 0);

  const smpi::Communicator& comm = grid.cart()->comm();
  double best_seconds = 0.0;
  bool first = true;
  for (const ir::MpiMode mode :
       {ir::MpiMode::Basic, ir::MpiMode::Diagonal, ir::MpiMode::Full}) {
    for (const std::vector<std::int64_t>& tile : tiles) {
      ir::CompileOptions trial_opts = opts;
      trial_opts.mode = mode;
      trial_opts.tile = tile.empty() ? untiled : tile;
      // Trials run without the sparse operations: their cost is
      // pattern-independent and some (receiver interpolation) accumulate
      // externally visible records that must not be polluted.
      Operator trial(eqs, trial_opts);
      const AutotuneReport::TrialKey key{mode, tile};
      const std::vector<std::int64_t>& eff_tile = trial.info().tile;
      const bool eff_tiled =
          std::any_of(eff_tile.begin(), eff_tile.end(),
                      [](std::int64_t t) { return t > 0; });
      if (!tile.empty() && !eff_tiled) {
        // The whole tile request was clamped away: this trial would
        // duplicate the untiled one (the clamp is rank-uniform by
        // construction, so every rank skips it).
        local_report.skipped[key] = trial.info().tile_clamp_reason.empty()
                                        ? "tile clamped to untiled"
                                        : trial.info().tile_clamp_reason;
        continue;
      }
      // Key measured trials by the *effective* tile so partially clamped
      // requests that land on the same schedule dedupe.
      const AutotuneReport::TrialKey eff_key{
          mode, eff_tiled ? eff_tile : std::vector<std::int64_t>{}};
      if (local_report.seconds_by_trial.count(eff_key) != 0) {
        local_report.skipped[key] = trial.info().tile_clamp_reason.empty()
                                        ? "duplicate of an earlier trial"
                                        : trial.info().tile_clamp_reason;
        continue;
      }
      comm.barrier();
      const auto start = std::chrono::steady_clock::now();
      trial.apply({.time_m = time_m,
                   .time_M = time_m + trial_steps - 1,
                   .scalars = scalars});
      std::vector<double> elapsed{
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count()};
      // The slowest rank gates a synchronous time step.
      comm.allreduce(std::span<double>(elapsed), smpi::ReduceOp::Max);
      local_report.seconds_by_trial[eff_key] = elapsed[0];
      const auto mode_it = local_report.seconds.find(mode);
      if (mode_it == local_report.seconds.end() ||
          elapsed[0] < mode_it->second) {
        local_report.seconds[mode] = elapsed[0];
      }
      if (first || elapsed[0] < best_seconds) {
        first = false;
        best_seconds = elapsed[0];
        local_report.best = mode;
        local_report.best_tile = eff_key.second;
      }
      restore();
    }
  }
  std::ostringstream os;
  os.precision(9);
  os << "wall objective: "
     << trial_text({local_report.best, local_report.best_tile})
     << " fastest at " << best_seconds << " s";
  local_report.why = os.str();

  opts.mode = local_report.best;
  opts.tile =
      local_report.best_tile.empty() ? untiled : local_report.best_tile;
  if (report != nullptr) {
    *report = local_report;
  }
  return std::make_unique<Operator>(eqs, opts, std::move(sparse_ops));
}

}  // namespace jitfd::core
