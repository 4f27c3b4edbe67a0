#include "obs/health.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>

#include "obs/flight.h"

namespace jitfd::obs::health {

const char* to_string(OnNan policy) {
  switch (policy) {
    case OnNan::Ignore:
      return "ignore";
    case OnNan::Record:
      return "record";
    case OnNan::AbortDump:
      return "abort_dump";
  }
  return "?";
}

OnNan on_nan_from_string(const std::string& name) {
  if (name == "ignore") {
    return OnNan::Ignore;
  }
  if (name == "record") {
    return OnNan::Record;
  }
  if (name == "abort_dump" || name == "abort") {
    return OnNan::AbortDump;
  }
  throw std::invalid_argument("unknown on_nan policy '" + name + "'");
}

Monitor::Monitor(Options opts) : opts_(std::move(opts)) {}

void Monitor::on_step(std::int64_t time) {
  flight::note_step(opts_.rank, time);
}

void Monitor::on_check(int field_id, std::int64_t time,
                       const LocalStats& local) {
  Sample s;
  s.step = time;
  s.field_id = field_id;
  s.field = opts_.field_name ? opts_.field_name(field_id)
                             : "f" + std::to_string(field_id);

  // Cross-rank reduction. The guard (time % interval == 0) is baked
  // identically into every rank's kernel, so these collectives match in
  // call order across ranks.
  std::int64_t counts[2] = {local.nan_count, local.inf_count};
  // One Min reduction covers both the finite min and (negated) max.
  double minmax[2] = {local.min, -local.max};
  double l2sq[1] = {local.l2sq};
  std::int64_t bad_rank[1] = {
      local.nan_count + local.inf_count > 0
          ? static_cast<std::int64_t>(opts_.rank)
          : std::numeric_limits<std::int64_t>::max()};
  if (opts_.comm != nullptr) {
    opts_.comm->allreduce(std::span<std::int64_t>(counts), smpi::ReduceOp::Sum);
    opts_.comm->allreduce(std::span<double>(minmax), smpi::ReduceOp::Min);
    opts_.comm->allreduce(std::span<double>(l2sq), smpi::ReduceOp::Sum);
    opts_.comm->allreduce(std::span<std::int64_t>(bad_rank),
                          smpi::ReduceOp::Min);
  }
  s.nan_count = counts[0];
  s.inf_count = counts[1];
  s.min = minmax[0];
  s.max = -minmax[1];
  s.l2 = std::sqrt(l2sq[0]);
  s.first_bad_rank =
      s.bad() && bad_rank[0] != std::numeric_limits<std::int64_t>::max()
          ? static_cast<int>(bad_rank[0])
          : -1;

  const bool newly_bad = s.bad() && summary_.first_bad_step < 0;
  ++summary_.checks;
  summary_.nan_points = s.nan_count;
  summary_.inf_points = s.inf_count;
  if (newly_bad) {
    summary_.first_bad_step = s.step;
    summary_.first_bad_rank = s.first_bad_rank;
    summary_.first_bad_field = s.field;
  }
  summary_.series.push_back(s);

  // The process-wide flight ring sees each global sample once: rank 0
  // reports for everyone.
  if (opts_.rank == 0) {
    flight::HealthRec rec;
    rec.step = s.step;
    rec.field_id = s.field_id;
    std::snprintf(rec.field, sizeof(rec.field), "%s", s.field.c_str());
    rec.nan_count = s.nan_count;
    rec.inf_count = s.inf_count;
    rec.min = s.min;
    rec.max = s.max;
    rec.l2 = s.l2;
    rec.bad_rank = s.first_bad_rank;
    flight::record_health(rec);
  }

  if (s.bad() && opts_.on_nan == OnNan::AbortDump) {
    // Every rank reaches this branch (the reduced counts are
    // identical), so this collective is a barrier: it guarantees rank
    // 0's ring updates above are visible before any rank wins the dump
    // race and snapshots them into the bundle.
    if (opts_.comm != nullptr) {
      std::int64_t sync[1] = {0};
      opts_.comm->allreduce(std::span<std::int64_t>(sync),
                            smpi::ReduceOp::Sum);
    }
    std::ostringstream what;
    what << "numerical divergence: field '" << s.field << "' has "
         << s.nan_count << " NaN and " << s.inf_count
         << " Inf point(s) at step " << s.step << " (first bad rank "
         << s.first_bad_rank << ")";
    std::string path;
    if (opts_.flight_dump) {
      path = flight::dump("nan_detected", s.first_bad_rank, s.step,
                          what.str());
    }
    // The reduced counts are identical on every rank, so every rank
    // throws here and none is left waiting in a collective.
    throw DivergenceError(what.str(), s.step, s.first_bad_rank, s.field,
                          path);
  }
}

}  // namespace jitfd::obs::health
