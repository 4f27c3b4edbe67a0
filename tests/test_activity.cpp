// Active-box stepping: on serial grids every generated sweep covers only
// where the wavefield can be nonzero and records the box of what it
// wrote. Every tracked run here is compared bit for bit (memcmp of every
// buffer of every field, ghosts included) with a full-box run of the same
// problem. The full-box run writes its zero start through init() and
// takes the non-const raw_storage() of every field before each step; by
// the raw-pointer rule both mark every box full, so each of its steps
// sweeps the whole grid without any knob. It also fills the owned points
// of every buffer a step writes with NaN first: a step that skipped any
// of them would leave a NaN the tracked run does not have. After tracked
// runs and mutations, fill(+0) must leave every data byte zero and norm2
// must equal the sum over every owned point bit for bit, although both
// visit only what the boxes and rows say can be nonzero.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <numbers>
#include <utility>

#include "codegen/jit.h"
#include "models/acoustic.h"
#include "models/elastic.h"
#include "models/tti.h"
#include "models/viscoelastic.h"
#include "smpi/runtime.h"
#include "sparse/sparse_function.h"

namespace {

namespace core = jitfd::core;
namespace grid = jitfd::grid;
namespace ir = jitfd::ir;
namespace models = jitfd::models;
namespace sparse = jitfd::sparse;

using grid::Function;
using grid::Grid;
using grid::TimeFunction;

constexpr std::int64_t kEdge = 20;
constexpr int kOrder = 4;
constexpr std::int64_t kSteps = 8;

enum class Model { Acoustic, Elastic, Tti, Viscoelastic };

std::unique_ptr<models::WaveModel> make_model(Model m, const Grid& g,
                                              int order) {
  switch (m) {
    case Model::Acoustic:
      return std::make_unique<models::AcousticModel>(g, order, 1.5, 4);
    case Model::Elastic:
      return std::make_unique<models::ElasticModel>(g, order, 2.0, 1.0, 1.0,
                                                    4);
    case Model::Tti:
      return std::make_unique<models::TtiModel>(g, order);
    case Model::Viscoelastic:
      return std::make_unique<models::ViscoelasticModel>(g, order);
  }
  return nullptr;
}

std::uint32_t bits(float v) {
  std::uint32_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// The grid, space order and sources of a Shot: by default a kEdge^3
/// cube at kOrder whose step 1 reads a unit impulse at the centre, with
/// an injected Ricker wavelet (f0 0.2, delay 5) at `source` when asked
/// for.
struct ShotShape {
  std::vector<std::int64_t> extent = std::vector<std::int64_t>(3, kEdge);
  int order = kOrder;
  bool impulse = true;
  std::vector<double> source{9.5, 10.25, 9.0};
};

/// One problem: a serial 3-D grid, a model and its operator, started from
/// zero (see ShotShape for its sources).
struct Shot {
  Shot(Model m, std::vector<std::int64_t> tile, bool full_box,
       bool with_injection = false, const ShotShape& shape = {})
      : grid(shape.extent, spacing_one(shape.extent)),
        model(make_model(m, grid, shape.order)),
        full(full_box) {
    scalars = model->scalars(model->critical_dt());
    if (with_injection) {
      points = std::make_unique<sparse::SparseFunction>(
          "src", grid, std::vector<std::vector<double>>{shape.source});
      const double dt = model->critical_dt();
      injection = std::make_unique<sparse::Injection>(
          model->wavefield(), *points,
          [dt](std::int64_t t) {
            return sparse::ricker(static_cast<double>(t) * dt, 0.2, 5.0);
          },
          nullptr);
    }
    ir::CompileOptions opts;
    opts.tile = std::move(tile);
    std::vector<jitfd::runtime::SparseOp*> ops;
    if (injection != nullptr) {
      ops.push_back(injection.get());
    }
    op = model->make_operator(opts, ops);
    op->set_default_backend(core::Backend::Jit);
    for (const int id : op->info().field_order) {
      fields.push_back(grid::lookup_field(id));
    }
    for (Function* f : fields) {
      if (!f->field_id().time_varying) {
        continue;
      }
      if (full) {
        f->init([](std::span<const std::int64_t>) { return 0.0F; });
      } else {
        f->fill(0.0F);
      }
    }
    if (shape.impulse) {
      TimeFunction& w = model->wavefield();
      std::vector<std::int64_t> centre;
      for (const std::int64_t e : shape.extent) {
        centre.push_back(e / 2);
      }
      w.set_global(w.buffer_index(0, 1), centre, 1.0F);
    }
  }

  /// Unit spacing: the physical extent is one less than the points.
  static std::vector<double> spacing_one(
      const std::vector<std::int64_t>& extent) {
    std::vector<double> out;
    for (const std::int64_t e : extent) {
      out.push_back(static_cast<double>(e - 1));
    }
    return out;
  }

  /// Steps [first, last]: one apply for a tracked run; step by step for a
  /// full-box run, marking every field full before each step.
  void step(std::int64_t first, std::int64_t last,
            core::Backend backend = core::Backend::Jit) {
    if (!full) {
      op->apply({.time_m = first, .time_M = last, .scalars = scalars,
                 .backend = backend});
      return;
    }
    for (std::int64_t t = first; t <= last; ++t) {
      for (Function* f : fields) {
        (void)f->raw_storage();
        if (f->field_id().time_varying) {
          f->fill_global_box(f->buffer_index(1, t),
                             std::vector<std::int64_t>(
                                 static_cast<std::size_t>(grid.ndims()), 0),
                             grid.shape(),
                             std::numeric_limits<float>::quiet_NaN());
        }
      }
      op->apply({.time_m = t, .time_M = t, .scalars = scalars,
                 .backend = backend});
    }
  }

  /// Every buffer of every bound field, ghosts included.
  std::vector<std::vector<float>> snapshot() const {
    std::vector<std::vector<float>> out;
    for (const Function* f : fields) {
      const auto s = f->raw_storage();
      out.emplace_back(s.begin(), s.end());
    }
    return out;
  }

  Grid grid;
  std::unique_ptr<models::WaveModel> model;
  std::unique_ptr<sparse::SparseFunction> points;
  std::unique_ptr<sparse::Injection> injection;
  std::unique_ptr<core::Operator> op;
  std::map<std::string, double> scalars;
  std::vector<Function*> fields;
  bool full = false;
};

::testing::AssertionResult bitwise_equal(
    const std::vector<std::vector<float>>& a,
    const std::vector<std::vector<float>>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "field counts differ";
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size() ||
        std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(float)) !=
            0) {
      std::size_t at = 0;
      while (at < a[i].size() && bits(a[i][at]) == bits(b[i][at])) {
        ++at;
      }
      return ::testing::AssertionFailure()
             << "field #" << i << " differs first at raw index " << at;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Every value with a nonzero bit pattern lies inside its buffer's box.
::testing::AssertionResult boxes_hold(const Function& f) {
  const auto& ps = f.padded_shape();
  const int nd = static_cast<int>(ps.size());
  const auto raw = f.raw_storage();
  for (int t = 0; t < f.time_buffers(); ++t) {
    const grid::ActivityBox box = f.activity(t);
    for (std::int64_t i = 0; i < f.buffer_points(); ++i) {
      if (bits(raw[static_cast<std::size_t>(t * f.buffer_points() + i)]) ==
          0) {
        continue;
      }
      std::int64_t rest = i;
      for (int d = nd - 1; d >= 0; --d) {
        const auto ud = static_cast<std::size_t>(d);
        const std::int64_t c = rest % ps[ud];
        rest /= ps[ud];
        if (c < box.lo[ud] || c >= box.hi[ud]) {
          return ::testing::AssertionFailure()
                 << f.name() << " buffer " << t << " holds a nonzero at "
                 << "raw index " << i << " outside its box along dim " << d;
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Every value with a nonzero bit pattern lies inside its row's entry
/// (with boxes_hold: inside the entry clipped to the box). Distributed
/// grids keep no rows.
::testing::AssertionResult rows_hold(const Function& f) {
  const std::int64_t row = f.padded_shape().back();
  const auto raw = f.raw_storage();
  for (int t = 0; t < f.time_buffers(); ++t) {
    for (std::int64_t r = 0; r < f.activity_rows(); ++r) {
      const grid::ActivityRow e = f.activity_row(t, r);
      for (std::int64_t z = 0; z < row; ++z) {
        const std::int64_t i = (t * f.activity_rows() + r) * row + z;
        const std::int64_t at = z - f.lpad();
        if (bits(raw[static_cast<std::size_t>(i)]) != 0 &&
            (at < e.lo || at >= e.hi)) {
          return ::testing::AssertionFailure()
                 << f.name() << " buffer " << t << " row " << r
                 << " holds a nonzero at " << at << " outside its entry ["
                 << e.lo << ", " << e.hi << ")";
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Share of the points of buffer `t`'s box (3-D) that its row entries,
/// clipped to the box, cover.
double row_coverage(const Function& f, int t) {
  const grid::ActivityBox box = f.activity(t);
  const std::int64_t ny = f.padded_shape()[1];
  std::int64_t covered = 0;
  for (std::int64_t x = box.lo[0]; x < box.hi[0]; ++x) {
    for (std::int64_t y = box.lo[1]; y < box.hi[1]; ++y) {
      const grid::ActivityRow e = f.activity_row(t, x * ny + y);
      const std::int64_t lo =
          std::max<std::int64_t>(std::int64_t{e.lo} + f.lpad(), box.lo[2]);
      const std::int64_t hi =
          std::min<std::int64_t>(std::int64_t{e.hi} + f.lpad(), box.hi[2]);
      covered += std::max<std::int64_t>(hi - lo, 0);
    }
  }
  const std::int64_t volume = (box.hi[0] - box.lo[0]) *
                              (box.hi[1] - box.lo[1]) *
                              (box.hi[2] - box.lo[2]);
  return static_cast<double>(covered) / static_cast<double>(volume);
}

/// Does buffer `t`'s box reach a face of the owned region?
bool touches_face(const Function& f, int t) {
  const grid::ActivityBox box = f.activity(t);
  for (std::size_t d = 0; d < f.padded_shape().size(); ++d) {
    if (box.lo[d] <= f.lpad() || box.hi[d] >= f.lpad() + kEdge) {
      return true;
    }
  }
  return false;
}

/// Every data byte of every buffer of `f` (ghosts included, the header
/// tables left out) is zero.
::testing::AssertionResult all_plus_zero(const Function& f) {
  const auto raw = f.raw_storage();
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (bits(raw[i]) != 0) {
      return ::testing::AssertionFailure()
             << f.name() << " holds bits " << std::hex << bits(raw[i])
             << std::dec << " at raw index " << i << " (buffer "
             << static_cast<std::int64_t>(i) / f.buffer_points() << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

/// fill(+0) writes only each box row over its entry: afterwards every
/// data byte must be zero anyway, and every box empty.
::testing::AssertionResult fill_zero_clears(Function& f) {
  f.fill(0.0F);
  for (int t = 0; t < f.time_buffers(); ++t) {
    if (!f.activity(t).empty(static_cast<int>(f.padded_shape().size()))) {
      return ::testing::AssertionFailure()
             << f.name() << " buffer " << t << " keeps a box after fill(+0)";
    }
  }
  return all_plus_zero(f);
}

/// Sum of squares over every owned point of buffer `t`, in row-major
/// order, reading every point (what norm2 must equal bit for bit).
double naive_norm2(const Function& f, int t) {
  const auto& ls = f.local_shape();
  const auto& ps = f.padded_shape();
  const float* base = f.buffer(t);
  std::int64_t points = 1;
  for (const std::int64_t e : ls) {
    points *= e;
  }
  double sum = 0.0;
  for (std::int64_t i = 0; i < points; ++i) {
    std::int64_t rest = i;
    std::int64_t linear = 0;
    std::int64_t stride = 1;
    for (std::size_t d = ls.size(); d-- > 0;) {
      linear += (rest % ls[d] + f.lpad()) * stride;
      rest /= ls[d];
      stride *= ps[d];
    }
    const double v = base[linear];
    sum += v * v;
  }
  return sum;
}

/// norm2 of every buffer of `f` (serial grid) is bit-equal to the naive
/// sum over every owned point.
::testing::AssertionResult norm2_is_naive(const Function& f) {
  for (int t = 0; t < f.time_buffers(); ++t) {
    const double got = f.norm2(t);
    const double want = naive_norm2(f, t);
    if (std::bit_cast<std::uint64_t>(got) !=
        std::bit_cast<std::uint64_t>(want)) {
      return ::testing::AssertionFailure()
             << f.name() << " buffer " << t << ": norm2 " << got
             << " but the sum over every owned point is " << want;
    }
  }
  return ::testing::AssertionSuccess();
}

struct ModelCase {
  Model model;
  std::vector<std::int64_t> tile;
};

class ActivityModels : public ::testing::TestWithParam<ModelCase> {};

TEST_P(ActivityModels, TrackedRunMatchesFullBoxRunBitForBit) {
  const ModelCase& mc = GetParam();
  Shot tracked(mc.model, mc.tile, /*full_box=*/false);
  Shot reference(mc.model, mc.tile, /*full_box=*/true);
  const ir::LoweringInfo& info = tracked.op->info();
  if (mc.model == Model::Tti) {
    // The rotated derivative sums three products of direction cosines
    // with +0 derivatives: with all three cosine products negative a full
    // sweep writes -0 from +0 inputs, so the proof must refuse.
    EXPECT_FALSE(info.activity);
    EXPECT_NE(info.activity_reason.find("'zdp'"), std::string::npos)
        << info.activity_reason;
    EXPECT_NE(info.activity_reason.find("-0"), std::string::npos)
        << info.activity_reason;
  } else {
    ASSERT_TRUE(info.activity) << info.activity_reason;
    EXPECT_NE(tracked.op->ccode().find("jitfd_box_store"), std::string::npos);
  }
  if (mc.model == Model::Acoustic) {
    // The proof holds over the paired taps k*(u[x-r] + u[x+r]).
    EXPECT_NE(tracked.op->ccode().find("*(u["), std::string::npos);
  }
  tracked.step(1, kSteps);
  reference.step(1, kSteps);
  EXPECT_TRUE(bitwise_equal(tracked.snapshot(), reference.snapshot()));
  for (const Function* f : tracked.fields) {
    EXPECT_TRUE(boxes_hold(*f));
    EXPECT_TRUE(rows_hold(*f));
  }
  if (info.activity) {
    const TimeFunction& w = tracked.model->wavefield();
    EXPECT_TRUE(touches_face(w, w.buffer_index(1, kSteps)))
        << "the front never reached a face in " << kSteps << " steps";
  }
  for (Function* f : tracked.fields) {
    EXPECT_TRUE(norm2_is_naive(*f));
    EXPECT_TRUE(fill_zero_clears(*f));
  }
}

std::string case_name(const ::testing::TestParamInfo<ModelCase>& p) {
  static const char* const kNames[] = {"Acoustic", "Elastic", "Tti",
                                       "Viscoelastic"};
  return std::string(kNames[static_cast<int>(p.param.model)]) +
         (p.param.tile.empty() ? "Untiled" : "Tiled");
}

INSTANTIATE_TEST_SUITE_P(
    SerialGrids, ActivityModels,
    ::testing::Values(ModelCase{Model::Acoustic, {}},
                      ModelCase{Model::Acoustic, {8, 4}},
                      ModelCase{Model::Elastic, {}},
                      ModelCase{Model::Elastic, {8, 4}},
                      ModelCase{Model::Tti, {}},
                      ModelCase{Model::Tti, {8, 4}},
                      ModelCase{Model::Viscoelastic, {}},
                      ModelCase{Model::Viscoelastic, {8, 4}}),
    case_name);

/// Rows long enough to matter: 96 points along z (six 16-float vectors),
/// SO 8, and an off-centre Ricker source as the only source. On the 20^3
/// grids above every row's span rounds out to the whole box. The front's
/// nonzero bits run about 4 points a step ahead until they underflow, so
/// the box fills x and y within 20 steps; the grid is as wide as it is
/// long so that the rows still cover about half of the box at the end.
const ShotShape kLongRows{.extent = {96, 96, 96},
                          .order = 8,
                          .impulse = false,
                          .source = {44.5, 51.25, 40.0}};
constexpr std::int64_t kLongSteps = 40;

class ActivityLongRows
    : public ::testing::TestWithParam<std::vector<std::int64_t>> {};

TEST_P(ActivityLongRows, TrackedRunMatchesFullBoxRunAndRowsStayNarrow) {
  Shot tracked(Model::Acoustic, GetParam(), /*full_box=*/false,
               /*with_injection=*/true, kLongRows);
  Shot reference(Model::Acoustic, GetParam(), /*full_box=*/true,
                 /*with_injection=*/true, kLongRows);
  ASSERT_TRUE(tracked.op->info().activity);
  tracked.step(1, kLongSteps);
  reference.step(1, kLongSteps);
  EXPECT_TRUE(bitwise_equal(tracked.snapshot(), reference.snapshot()));
  for (const Function* f : tracked.fields) {
    EXPECT_TRUE(boxes_hold(*f));
    EXPECT_TRUE(rows_hold(*f));
  }
  // The rows must stay narrower than the box, or this case tests nothing
  // the box does not.
  const TimeFunction& w = tracked.model->wavefield();
  const double share = row_coverage(w, w.buffer_index(1, kLongSteps));
  EXPECT_GT(share, 0.0);
  EXPECT_LT(share, 0.6);
  for (Function* f : tracked.fields) {
    EXPECT_TRUE(norm2_is_naive(*f));
    EXPECT_TRUE(fill_zero_clears(*f));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SerialGrids, ActivityLongRows,
    ::testing::Values(std::vector<std::int64_t>{},
                      std::vector<std::int64_t>{16, 8}),
    [](const auto& p) {
      return std::string(p.param.empty() ? "Untiled" : "Tiled");
    });

TEST(Activity, TtiWithNegativeDirectionCosinesWritesMinusZero) {
  // Why the TTI proof refuses: with every product of direction cosines
  // negative, a full sweep from an all-+0 wavefield writes -0 into the
  // rotated-derivative scratch field. A tracked sweep would leave +0.
  const Grid g(std::vector<std::int64_t>(3, 12),
               std::vector<double>(3, 11.0));
  models::TtiModel tti(g, kOrder, 1.5, 0.2, 0.1, std::numbers::pi - 0.35,
                       std::numbers::pi + 0.6);
  auto op = tti.make_operator({});
  ASSERT_FALSE(op->info().activity);
  tti.wavefield().fill(0.0F);
  tti.q().fill(0.0F);
  op->apply({.time_m = 1, .time_M = 1,
             .scalars = tti.scalars(tti.critical_dt()),
             .backend = core::Backend::Jit});
  std::int64_t minus_zero = 0;
  for (const int id : op->info().field_order) {
    const Function& f = *grid::lookup_field(id);
    if (f.name() != "zdp") {
      continue;
    }
    for (const float v : f.raw_storage()) {
      minus_zero += bits(v) == 0x80000000U ? 1 : 0;
    }
  }
  EXPECT_GT(minus_zero, 0);
}

TEST(Activity, ZeroPinWritesPlusZeroUnderANegativeReciprocal) {
  // The acoustic update is r*(...) + 0 with r = 1/(m/dt^2 + damp/(2*dt))
  // factored out of the whole sum. With m < 0, r < 0 and r*(+0) is -0:
  // only the zero pin turns it into +0, which the proof relies on.
  const auto negative_m = [](Shot& s) {
    auto& model = dynamic_cast<models::AcousticModel&>(*s.model);
    model.m().fill(-0.45F);
  };
  Shot quiet(Model::Acoustic, {}, /*full_box=*/true);
  ASSERT_TRUE(quiet.op->info().activity) << quiet.op->info().activity_reason;
  negative_m(quiet);
  TimeFunction& w = quiet.model->wavefield();
  w.fill(0.0F);
  quiet.step(1, 1);
  std::int64_t nonzero_bits = 0;
  for (const float v : std::as_const(w).raw_storage()) {
    nonzero_bits += bits(v) != 0 ? 1 : 0;
  }
  EXPECT_EQ(nonzero_bits, 0) << "a full-box step from +0 wrote -0";

  // Compared after one step too: once the front fills the grid every box
  // is full.
  Shot tracked(Model::Acoustic, {}, /*full_box=*/false);
  Shot reference(Model::Acoustic, {}, /*full_box=*/true);
  for (const auto& [first, last] :
       {std::pair<std::int64_t, std::int64_t>{1, 1}, {2, kSteps}}) {
    for (Shot* s : {&tracked, &reference}) {
      if (first == 1) {
        negative_m(*s);
      }
      s->step(first, last);
    }
    EXPECT_TRUE(bitwise_equal(tracked.snapshot(), reference.snapshot()))
        << "after step " << last;
    EXPECT_TRUE(boxes_hold(tracked.model->wavefield()));
    EXPECT_TRUE(rows_hold(tracked.model->wavefield()));
  }
}

using Mutator = std::function<void(Shot&, int buffer)>;

class ActivityMutators
    : public ::testing::TestWithParam<std::pair<const char*, Mutator>> {};

TEST_P(ActivityMutators, MutationBetweenStepsMatchesFullBoxRun) {
  const Mutator& mutate = GetParam().second;
  // Mutate the buffer step 4 reads, then the one it overwrites.
  for (const int offset : {0, 1}) {
    Shot tracked(Model::Acoustic, {}, /*full_box=*/false);
    Shot reference(Model::Acoustic, {}, /*full_box=*/true);
    ASSERT_TRUE(tracked.op->info().activity);
    for (Shot* s : {&tracked, &reference}) {
      s->step(1, 3);
      mutate(*s, s->model->wavefield().buffer_index(offset, 4));
      for (const Function* f : s->fields) {
        EXPECT_TRUE(boxes_hold(*f)) << "right after the mutation";
        EXPECT_TRUE(rows_hold(*f)) << "right after the mutation";
        EXPECT_TRUE(norm2_is_naive(*f)) << "right after the mutation";
      }
      s->step(4, 4);
    }
    // Once the front fills the grid every box is full, so compare before.
    EXPECT_TRUE(bitwise_equal(tracked.snapshot(), reference.snapshot()))
        << "time offset " << offset << ", one step after the mutation";
    for (Shot* s : {&tracked, &reference}) {
      s->step(5, kSteps);
    }
    EXPECT_TRUE(bitwise_equal(tracked.snapshot(), reference.snapshot()))
        << "time offset " << offset;
    for (Function* f : tracked.fields) {
      EXPECT_TRUE(boxes_hold(*f));
      EXPECT_TRUE(rows_hold(*f));
      EXPECT_TRUE(norm2_is_naive(*f));
      EXPECT_TRUE(fill_zero_clears(*f)) << "time offset " << offset;
    }
  }
}

/// Raw storage index of data-region point `idx` of buffer `t`.
std::size_t raw_index(const Function& f, int t,
                      const std::vector<std::int64_t>& idx) {
  std::int64_t linear = 0;
  for (std::size_t d = 0; d < idx.size(); ++d) {
    linear = linear * f.padded_shape()[d] + idx[d] + f.lpad();
  }
  return static_cast<std::size_t>(t * f.buffer_points() + linear);
}

INSTANTIATE_TEST_SUITE_P(
    Mutators, ActivityMutators,
    ::testing::Values(
        std::pair<const char*, Mutator>{
            "FillPlusZero",
            [](Shot& s, int) { s.model->wavefield().fill(0.0F); }},
        std::pair<const char*, Mutator>{
            "FillMinusZero",
            [](Shot& s, int) { s.model->wavefield().fill(-0.0F); }},
        std::pair<const char*, Mutator>{
            "FillValue",
            [](Shot& s, int) { s.model->wavefield().fill(1e-3F); }},
        std::pair<const char*, Mutator>{
            "FillGlobalBox",
            [](Shot& s, int t) {
              const std::vector<std::int64_t> lo{1, 2, 15};
              const std::vector<std::int64_t> hi{4, 6, 19};
              s.model->wavefield().fill_global_box(t, lo, hi, 0.25F);
            }},
        std::pair<const char*, Mutator>{
            "SetGlobal",
            [](Shot& s, int t) {
              const std::vector<std::int64_t> g{17, 2, 16};
              s.model->wavefield().set_global(t, g, 0.5F);
            }},
        std::pair<const char*, Mutator>{
            "AtLocalGhost",
            [](Shot& s, int t) {
              const std::vector<std::int64_t> idx{-1, 5, 14};
              s.model->wavefield().at_local(t, idx) = 0.75F;
            }},
        std::pair<const char*, Mutator>{
            "AtLocalRowGhost",
            [](Shot& s, int t) {
              // A ghost of an owned row: its entry reaches below the
              // row's first owned point.
              const std::vector<std::int64_t> idx{9, 11, -2};
              s.model->wavefield().at_local(t, idx) = 0.75F;
            }},
        std::pair<const char*, Mutator>{
            "Init",
            [](Shot& s, int) {
              s.model->wavefield().init(
                  [](std::span<const std::int64_t> g) {
                    return g[0] == 3 && g[1] == 4 ? 0.125F : 0.0F;
                  });
            }},
        std::pair<const char*, Mutator>{
            "InitRows",
            [](Shot& s, int) {
              s.model->wavefield().init_rows(
                  [](std::span<const std::int64_t> outer,
                     std::span<const std::int64_t> inner,
                     std::span<float> row) {
                    for (std::size_t i = 0; i < row.size(); ++i) {
                      row[i] = outer[0] == 16 && outer[1] == 3 && inner[i] == 2
                                   ? -0.5F
                                   : 0.0F;
                    }
                  });
            }},
        std::pair<const char*, Mutator>{
            "BufferPointer",
            [](Shot& s, int t) {
              TimeFunction& w = s.model->wavefield();
              w.buffer(0)[raw_index(w, t, {2, 17, 3})] = 0.3F;
            }},
        std::pair<const char*, Mutator>{
            "RawStorageGhost",
            [](Shot& s, int t) {
              TimeFunction& w = s.model->wavefield();
              w.raw_storage()[raw_index(w, t, {kEdge, 9, 9})] = 0.2F;
            }}),
    [](const auto& p) { return std::string(p.param.first); });

/// Every row entry of every buffer, as (lo, hi) pairs.
std::vector<std::pair<std::int32_t, std::int32_t>> row_entries(
    const Function& f) {
  std::vector<std::pair<std::int32_t, std::int32_t>> out;
  for (int t = 0; t < f.time_buffers(); ++t) {
    for (std::int64_t r = 0; r < f.activity_rows(); ++r) {
      const grid::ActivityRow e = f.activity_row(t, r);
      out.emplace_back(e.lo, e.hi);
    }
  }
  return out;
}

/// How many row entries differ between two row_entries snapshots.
std::int64_t rows_changed(
    const std::vector<std::pair<std::int32_t, std::int32_t>>& a,
    const std::vector<std::pair<std::int32_t, std::int32_t>>& b) {
  std::int64_t n = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    n += a[i] != b[i] ? 1 : 0;
  }
  return n;
}

/// Do the rows of buffer `t` (every buffer when `t` < 0) all count as
/// whole: the padded row, ghosts included, in loop coordinates?
bool rows_full(const Function& f, int t = -1) {
  const auto lo = static_cast<std::int32_t>(-f.lpad());
  const auto hi =
      static_cast<std::int32_t>(f.padded_shape().back() - f.lpad());
  for (int b = 0; b < f.time_buffers(); ++b) {
    if (t >= 0 && b != t) {
      continue;
    }
    for (std::int64_t r = 0; r < f.activity_rows(); ++r) {
      const grid::ActivityRow e = f.activity_row(b, r);
      if (e.lo != lo || e.hi != hi) {
        return false;
      }
    }
  }
  return true;
}

TEST(Activity, MutatorsKeepBoxesTrue) {
  const Grid g({6, 5}, {5.0, 4.0});
  TimeFunction u("u", g, 2, /*time_order=*/2);
  const int nd = 2;
  ASSERT_EQ(u.activity_rows(), u.padded_shape()[0]);
  for (int t = 0; t < u.time_buffers(); ++t) {
    EXPECT_TRUE(u.activity(t).empty(nd)) << "fresh storage is +0";
  }
  auto rows = row_entries(u);
  const std::vector<std::int64_t> p{4, 1};
  u.set_global(1, p, 2.0F);
  grid::ActivityBox b = u.activity(1);
  EXPECT_EQ(b.lo[0], 4 + u.lpad());
  EXPECT_EQ(b.hi[0], 5 + u.lpad());
  EXPECT_EQ(b.lo[1], 1 + u.lpad());
  EXPECT_EQ(b.hi[1], 2 + u.lpad());
  EXPECT_TRUE(u.activity(0).empty(nd));
  EXPECT_EQ(rows_changed(rows, row_entries(u)), 1) << "set_global";
  grid::ActivityRow e = u.activity_row(1, 4 + u.lpad());
  EXPECT_EQ(e.lo, 1);
  EXPECT_EQ(e.hi, 2);
  rows = row_entries(u);
  const std::vector<std::int64_t> q{-2, 3};
  u.at_local(1, q) = 1.0F;
  b = u.activity(1);
  EXPECT_EQ(b.lo[0], u.lpad() - 2);
  EXPECT_EQ(b.hi[0], 5 + u.lpad());
  EXPECT_EQ(b.hi[1], 4 + u.lpad());
  EXPECT_EQ(rows_changed(rows, row_entries(u)), 1) << "at_local";
  e = u.activity_row(1, u.lpad() - 2);
  EXPECT_EQ(e.lo, 3);
  EXPECT_EQ(e.hi, 4);
  // A second point in a live row widens its entry.
  u.set_global(1, std::vector<std::int64_t>{4, 4}, 3.0F);
  e = u.activity_row(1, 4 + u.lpad());
  EXPECT_EQ(e.lo, 1);
  EXPECT_EQ(e.hi, 5);
  EXPECT_TRUE(rows_hold(u));
  // fill(+0) empties the boxes and leaves the rows stale: the next point,
  // far from the old one in a row whose stale entry misses it, restarts
  // its entry.
  rows = row_entries(u);
  u.fill(0.0F);
  EXPECT_TRUE(u.activity(1).empty(nd));
  EXPECT_EQ(rows_changed(rows, row_entries(u)), 0)
      << "fill(+0) clears data, not entries";
  EXPECT_TRUE(all_plus_zero(u));
  u.set_global(1, std::vector<std::int64_t>{4, 0}, 0.5F);
  e = u.activity_row(1, 4 + u.lpad());
  EXPECT_EQ(e.lo, 0);
  EXPECT_EQ(e.hi, 1);
  EXPECT_TRUE(boxes_hold(u));
  EXPECT_TRUE(rows_hold(u));
  // A row the box did not cover restarts too.
  u.set_global(1, std::vector<std::int64_t>{0, 4}, 0.25F);
  e = u.activity_row(1, u.lpad());
  EXPECT_EQ(e.lo, 4);
  EXPECT_EQ(e.hi, 5);
  EXPECT_TRUE(boxes_hold(u));
  EXPECT_TRUE(rows_hold(u));
  u.fill(-0.0F);
  for (int t = 0; t < u.time_buffers(); ++t) {
    b = u.activity(t);
    EXPECT_EQ(b.lo[0], 0);
    EXPECT_EQ(b.hi[0], u.padded_shape()[0]);
    EXPECT_EQ(b.hi[1], u.padded_shape()[1]);
  }
  EXPECT_TRUE(rows_full(u)) << "fill(-0)";
  u.fill(0.0F);
  u.fill_global_box(2, std::vector<std::int64_t>{1, 1},
                    std::vector<std::int64_t>{2, 2}, 1.0F);
  EXPECT_TRUE(rows_full(u, 2)) << "fill_global_box";
  u.fill(0.0F);
  u.init([](std::span<const std::int64_t>) { return 0.0F; });
  EXPECT_TRUE(rows_full(u)) << "init";
  u.fill(0.0F);
  (void)std::as_const(u).buffer(0);
  (void)std::as_const(u).raw_storage();
  EXPECT_TRUE(u.activity(0).empty(nd)) << "const views leave boxes alone";
  (void)u.kernel_buffer(0);
  EXPECT_TRUE(u.activity(0).empty(nd)) << "kernel binding leaves boxes alone";
  rows = row_entries(u);
  (void)u.buffer(2);
  EXPECT_FALSE(u.activity(0).empty(nd)) << "a raw pointer marks every buffer";
  EXPECT_TRUE(rows_full(u)) << "buffer()";
  u.fill(0.0F);
  u.set_global(2, std::vector<std::int64_t>{1, 3}, 1.0F);
  // The tables live in the 64-byte-aligned header below buffer(0): the
  // box table first, then the row table.
  const auto* table =
      reinterpret_cast<const std::int64_t*>(u.kernel_buffer(0)) -
      u.activity_table_offset();
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(table) %
                grid::AlignedAlloc::kAlignment,
            0U);
  EXPECT_EQ(table[(2 * nd + 1) * 2 + 1], 4 + u.lpad());
  const auto* row_table =
      reinterpret_cast<const std::int32_t*>(u.kernel_buffer(0)) -
      u.row_table_offset();
  EXPECT_EQ(reinterpret_cast<const char*>(row_table),
            reinterpret_cast<const char*>(table + 2 * nd * u.time_buffers()));
  EXPECT_EQ(row_table[(2 * u.activity_rows() + 1 + u.lpad()) * 2], 3);
  EXPECT_EQ(row_table[(2 * u.activity_rows() + 1 + u.lpad()) * 2 + 1], 4);
  (void)u.raw_storage();
  EXPECT_TRUE(rows_full(u)) << "raw_storage()";
  EXPECT_EQ(row_table[(2 * u.activity_rows() + 1 + u.lpad()) * 2 + 1], 4)
      << "marking full leaves the entries: the box makes them whole";
  // A box that reaches an innermost ghost counts every row whole, even
  // rows whose entry is stale.
  u.fill(0.0F);
  u.at_local(0, std::vector<std::int64_t>{2, -1}) = 1.0F;
  EXPECT_TRUE(rows_full(u, 0));
  EXPECT_TRUE(rows_hold(u));
}

// --- fill(+0) and norm2 read and write only what can be nonzero ---------------

/// On 2 ranks of `transport`: an acoustic model on a 16^3 grid, started
/// from +0 plus one point on rank 0, then stepped by a full-pattern JIT
/// apply. `check` runs on every rank before and after the apply and
/// throws on a failure: forked ranks report nothing else.
void on_two_ranks(
    smpi::TransportKind transport,
    const std::function<void(TimeFunction&, smpi::Communicator&,
                             const std::string& stage)>& check) {
  smpi::launch({.nranks = 2, .transport = transport},
               [&](smpi::Communicator& comm) {
                 const Grid g(std::vector<std::int64_t>(3, 16),
                              std::vector<double>(3, 15.0), comm);
                 models::AcousticModel model(g, kOrder, 1.5, 4);
                 ir::CompileOptions opts;
                 opts.mode = ir::MpiMode::Full;
                 const auto op = model.make_operator(opts);
                 op->set_default_backend(core::Backend::Jit);
                 TimeFunction& w = model.wavefield();
                 w.fill(0.0F);
                 w.set_global(w.buffer_index(0, 1),
                              std::vector<std::int64_t>{5, 8, 8}, 1.0F);
                 check(w, comm, "before the apply");
                 op->apply({.time_m = 1, .time_M = 4,
                            .scalars = model.scalars(model.critical_dt())});
                 check(w, comm, "after a full-pattern apply");
               });
}

void throw_unless(const ::testing::AssertionResult& r, int rank,
                  const std::string& stage) {
  if (!r) {
    throw std::runtime_error("rank " + std::to_string(rank) + ", " + stage +
                             ": " + r.message());
  }
}

TEST(Activity, FillZeroClearsEveryBit) {
  const Grid g({7, 6, 40}, {6.0, 5.0, 39.0});
  TimeFunction u("u", g, kOrder, /*time_order=*/2);
  // Exact entries, two points apart in one row of the last buffer, so a
  // span one point short leaves the far one.
  u.set_global(2, std::vector<std::int64_t>{1, 2, 3}, 1.0F);
  u.set_global(2, std::vector<std::int64_t>{1, 2, 30}, 2.0F);
  u.set_global(0, std::vector<std::int64_t>{5, 4, 17}, -3.0F);
  EXPECT_TRUE(fill_zero_clears(u)) << "exact entries";
  // Row (1, 2) keeps its stale [3, 31) outside the new box.
  u.set_global(2, std::vector<std::int64_t>{4, 0, 39}, 0.5F);
  u.set_global(2, std::vector<std::int64_t>{4, 0, 0}, 0.5F);
  EXPECT_TRUE(fill_zero_clears(u)) << "stale entries outside the box";
  // A box reaching an innermost ghost on both ends counts its rows whole.
  u.set_global(1, std::vector<std::int64_t>{3, 3, 10}, 1.0F);
  u.at_local(1, std::vector<std::int64_t>{3, 4, -2}) = 0.25F;
  u.at_local(1, std::vector<std::int64_t>{2, 3, 41}) = 0.75F;
  EXPECT_TRUE(fill_zero_clears(u)) << "box reaching innermost ghosts";
  // Marked full: the entries are stale or empty, and only the whole-rows
  // rule covers what was written.
  u.fill(1e-3F);
  EXPECT_TRUE(fill_zero_clears(u)) << "after fill(1e-3)";
  u.fill(-0.0F);
  EXPECT_TRUE(fill_zero_clears(u)) << "after fill(-0)";
  u.set_global(0, std::vector<std::int64_t>{2, 2, 2}, 1.0F);
  u.fill(0.0F);
  for (int t = 0; t < u.time_buffers(); ++t) {
    u.raw_storage()[raw_index(u, t, {t, 5 - t, 20 + t})] = 4.0F;
  }
  EXPECT_TRUE(fill_zero_clears(u)) << "after writes through raw_storage()";
  u.fill_global_box(2, std::vector<std::int64_t>{0, 0, 5},
                    std::vector<std::int64_t>{7, 6, 9}, 0.5F);
  EXPECT_TRUE(fill_zero_clears(u)) << "after fill_global_box";
  u.init([](std::span<const std::int64_t> p) {
    return static_cast<float>(p[0] + p[1] + p[2]);
  });
  EXPECT_TRUE(fill_zero_clears(u)) << "after init";

  // Distributed grids keep no rows: whole box rows are cleared. The
  // full-pattern apply marks what its kernel writes full, and halo unpack
  // (the non-const buffer()) marks the ghosts it fills.
  for (const smpi::TransportKind transport :
       {smpi::TransportKind::Threads, smpi::TransportKind::ProcessShm}) {
    try {
      on_two_ranks(transport, [](TimeFunction& w, smpi::Communicator& comm,
                                 const std::string& stage) {
        if (stage == "before the apply") {
          return;
        }
        std::int64_t nonzero = 0;
        for (const float v : std::as_const(w).raw_storage()) {
          nonzero += bits(v) != 0 ? 1 : 0;
        }
        if (nonzero == 0) {
          throw std::runtime_error("rank " + std::to_string(comm.rank()) +
                                   ": the apply wrote nothing to clear");
        }
        throw_unless(fill_zero_clears(w), comm.rank(), stage);
      });
    } catch (const std::exception& e) {
      ADD_FAILURE() << smpi::to_string(transport) << ": " << e.what();
    }
  }
}

TEST(Activity, Norm2ReadsOnlyWhatCanBeNonzero) {
  // Serial: points inside, ghosts outside the owned region (which norm2
  // must not count), stale entries and rows counted whole.
  const Grid g({7, 6, 40}, {6.0, 5.0, 39.0});
  TimeFunction u("u", g, kOrder, /*time_order=*/2);
  EXPECT_TRUE(norm2_is_naive(u)) << "fresh storage";
  u.set_global(1, std::vector<std::int64_t>{1, 2, 3}, 1.5F);
  u.set_global(1, std::vector<std::int64_t>{1, 2, 33}, -2.5F);
  u.set_global(1, std::vector<std::int64_t>{6, 5, 39}, 1e-40F);
  EXPECT_TRUE(norm2_is_naive(u)) << "points";
  u.at_local(1, std::vector<std::int64_t>{-1, 2, 3}) = 8.0F;
  u.at_local(1, std::vector<std::int64_t>{1, 2, -3}) = 16.0F;
  EXPECT_TRUE(norm2_is_naive(u)) << "ghost values";
  u.fill(0.0F);
  u.set_global(1, std::vector<std::int64_t>{4, 4, 8}, 3.0F);
  EXPECT_TRUE(norm2_is_naive(u)) << "stale entries";
  u.fill(0.375F);
  u.set_global(2, std::vector<std::int64_t>{4, 4, 8}, 3.0F);
  EXPECT_TRUE(norm2_is_naive(u)) << "full boxes";

  // Two ranks, both transports: rank 0's box is one point before the
  // apply and the kernel writes without tracking after it.
  for (const smpi::TransportKind transport :
       {smpi::TransportKind::Threads, smpi::TransportKind::ProcessShm}) {
    try {
      on_two_ranks(transport, [](TimeFunction& w, smpi::Communicator& comm,
                                 const std::string& stage) {
        for (int t = 0; t < w.time_buffers(); ++t) {
          std::vector<double> want{naive_norm2(w, t)};
          comm.allreduce(std::span<double>(want), smpi::ReduceOp::Sum);
          const double got = w.norm2(t);
          if (std::bit_cast<std::uint64_t>(got) !=
              std::bit_cast<std::uint64_t>(want[0])) {
            throw std::runtime_error(
                "rank " + std::to_string(comm.rank()) + ", " + stage +
                ", buffer " + std::to_string(t) + ": norm2 " +
                std::to_string(got) + " against " + std::to_string(want[0]));
          }
        }
      });
    } catch (const std::exception& e) {
      ADD_FAILURE() << smpi::to_string(transport) << ": " << e.what();
    }
  }
}

/// Resident pages among the pages wholly inside buffer `t` of `f` (every
/// buffer when `t` < 0), and how many such pages there are. A page that
/// shares the header's last line is left out.
std::pair<std::int64_t, std::int64_t> resident_pages(const Function& f,
                                                     int t = -1) {
  const float* begin = f.buffer(t < 0 ? 0 : t);
  const float* end = t < 0 ? begin + f.raw_storage().size()
                           : begin + f.buffer_points();
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const std::uintptr_t lo =
      (reinterpret_cast<std::uintptr_t>(begin) + page - 1) / page * page;
  const std::uintptr_t hi = reinterpret_cast<std::uintptr_t>(end) / page * page;
  std::vector<unsigned char> vec((hi - lo) / page);
  if (::mincore(reinterpret_cast<void*>(lo), hi - lo, vec.data()) != 0) {
    return {-1, 0};
  }
  std::int64_t resident = 0;
  for (const unsigned char v : vec) {
    resident += v & 1;
  }
  return {resident, static_cast<std::int64_t>(vec.size())};
}

/// Keeps `f`'s data on base pages, so a fault brings in one 4 KiB page
/// and not a 2 MiB one on hosts whose transparent huge pages are
/// "always". Advice for this process's own mapping only.
void without_huge_pages(const Function& f) {
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto begin = reinterpret_cast<std::uintptr_t>(f.buffer(0));
  const std::uintptr_t lo = (begin + page - 1) / page * page;
  const std::uintptr_t hi =
      (begin + f.raw_storage().size_bytes()) / page * page;
  (void)::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_NOHUGEPAGE);
}

TEST(Activity, FillZeroLeavesUntouchedPagesAlone) {
  // Nothing here reads a data page before mincore looks: a read maps the
  // zero page, and mincore counts it. Under ASan the asserts hold too: its
  // allocator serves blocks this large from fresh mmap and calloc does not
  // touch them.
  const Grid g(std::vector<std::int64_t>(3, 200),
               std::vector<double>(3, 199.0));
  TimeFunction u("u", g, 8, /*time_order=*/2);
  ASSERT_GE(std::as_const(u).raw_storage().size_bytes(),
            std::size_t{100} << 20);
  without_huge_pages(u);
  u.fill(0.0F);
  const auto [fresh, pages] = resident_pages(u);
  EXPECT_EQ(fresh, 0) << "of " << pages << " pages after construction and "
                      << "fill(+0)";
  u.set_global(1, std::vector<std::int64_t>{150, 20, 100}, 1.0F);
  u.fill(0.0F);
  EXPECT_LE(resident_pages(u).first, 1) << "after set_global and fill(+0)";

  // A short tracked shot from a zero start: each buffer keeps only the
  // pages the front reached resident, and fill(+0) adds none.
  Shot shot(Model::Acoustic, {}, /*full_box=*/false, /*with_injection=*/false,
            ShotShape{.extent = {200, 200, 200}, .order = 8});
  ASSERT_TRUE(shot.op->info().activity);
  TimeFunction& w = shot.model->wavefield();
  without_huge_pages(w);
  shot.step(1, kSteps);
  for (int t = 0; t < w.time_buffers(); ++t) {
    const auto [resident, of] = resident_pages(w, t);
    EXPECT_LT(resident, of / 4)
        << "buffer " << t << ": " << resident << " of " << of << " pages";
  }
  const std::int64_t before = resident_pages(w).first;
  w.fill(0.0F);
  EXPECT_EQ(resident_pages(w).first, before) << "fill(+0) faulted pages in";
}

// --- The ledger's path: JitKernel::run with its own callback table ------------

struct DirectCtx {
  std::vector<jitfd::runtime::SparseOp*>* sparse = nullptr;
};

void direct_sparse(void* c, int id, long time) {
  static_cast<DirectCtx*>(c)->sparse->at(static_cast<std::size_t>(id))
      ->apply(time);
}

TEST(Activity, DirectKernelRunsAlternatingWithApplyMatchOneApply) {
  Shot once(Model::Acoustic, {}, /*full_box=*/false, /*with_injection=*/true);
  Shot reference(Model::Acoustic, {}, /*full_box=*/true,
                 /*with_injection=*/true);
  ASSERT_TRUE(once.op->info().activity);
  once.step(1, kSteps);
  reference.step(1, kSteps);

  // As the propagator benchmark's ledger does: bind buffer(0) once (which
  // marks every box full), restart from zero, then step chunk by chunk.
  Shot mixed(Model::Acoustic, {}, /*full_box=*/false, /*with_injection=*/true);
  const ir::LoweringInfo& info = mixed.op->info();
  std::vector<float*> ptrs;
  for (Function* f : mixed.fields) {
    ptrs.push_back(f->buffer(0));
  }
  TimeFunction& w = mixed.model->wavefield();
  w.fill(0.0F);
  w.set_global(w.buffer_index(0, 1), std::vector<std::int64_t>(3, kEdge / 2),
               1.0F);
  std::map<std::string, double> bound = mixed.scalars;
  for (int d = 0; d < 3; ++d) {
    bound.emplace("h_" + Grid::dim_name(d), mixed.grid.spacing(d));
  }
  bound[ir::kHealthIntervalScalar] = 0.0;
  std::vector<double> scalars;
  for (const std::string& name : info.scalar_order) {
    scalars.push_back(bound.at(name));
  }
  std::vector<jitfd::runtime::SparseOp*> sparse{mixed.injection.get()};
  DirectCtx ctx{&sparse};
  jitfd::codegen::JitHaloOps ops;
  ops.sparse = &direct_sparse;
  const jitfd::codegen::JitKernel kernel(mixed.op->ccode());
  for (std::int64_t t = 1; t <= kSteps; ++t) {
    if (t % 2 == 1) {
      ASSERT_EQ(kernel.run(ptrs.data(), scalars.data(), t, t, &ctx, &ops), 0);
    } else {
      mixed.step(t, t);
    }
  }
  EXPECT_TRUE(bitwise_equal(mixed.snapshot(), once.snapshot()));
  EXPECT_TRUE(bitwise_equal(once.snapshot(), reference.snapshot()));
  EXPECT_TRUE(boxes_hold(w));
  EXPECT_TRUE(rows_hold(w));
}

TEST(Activity, InterpreterThenJitStepsMatchFullBoxRun) {
  Shot tracked(Model::Acoustic, {}, /*full_box=*/false);
  Shot reference(Model::Acoustic, {}, /*full_box=*/true);
  ASSERT_TRUE(tracked.op->info().activity);
  for (Shot* s : {&tracked, &reference}) {
    s->step(1, 2, core::Backend::Interpret);
  }
  // The interpreter marks what it writes full, once per apply.
  const TimeFunction& w = tracked.model->wavefield();
  for (int t = 0; t < w.time_buffers(); ++t) {
    EXPECT_EQ(w.activity(t).hi[0], w.padded_shape()[0]);
  }
  for (Shot* s : {&tracked, &reference}) {
    s->step(3, kSteps);
  }
  EXPECT_TRUE(bitwise_equal(tracked.snapshot(), reference.snapshot()));
  EXPECT_TRUE(boxes_hold(w));
  EXPECT_TRUE(rows_hold(w));
}

TEST(Activity, OneAndTwoDimensionalGridsMatchFullBoxRun) {
  // A 1-D nest is one team-parallel simd loop (its row is the whole
  // line); a 2-D nest folds rows inside the parallel loop. A saved field
  // indexes its box table by absolute time.
  constexpr std::int64_t kDiffusionSteps = 12;
  const std::pair<std::vector<std::int64_t>, int> cases[] = {
      {{40}, 0}, {{24, 18}, 0}, {{24, 18}, kDiffusionSteps + 1}};
  for (const auto& [shape, save] : cases) {
    std::vector<std::vector<float>> runs[2];
    for (const bool full : {false, true}) {
      const Grid g(shape, std::vector<double>(shape.size(), 1.0));
      TimeFunction u("u", g, kOrder, /*time_order=*/1, /*padding=*/0, save);
      const jitfd::sym::Ex nu = jitfd::sym::symbol("nu");
      core::Operator op({ir::Eq(u.forward(), u.now() + nu * u.laplace())});
      op.set_default_backend(core::Backend::Jit);
      ASSERT_TRUE(op.info().activity) << op.info().activity_reason;
      if (full) {
        u.init([](std::span<const std::int64_t>) { return 0.0F; });
      } else {
        u.fill(0.0F);
      }
      u.set_global(0, std::vector<std::int64_t>(shape.size(), 7), 1.0F);
      for (std::int64_t t = 0; t < kDiffusionSteps; ++t) {
        if (full) {
          (void)u.raw_storage();
        }
        op.apply({.time_m = t, .time_M = t, .scalars = {{"nu", 0.1}}});
      }
      const auto raw = std::as_const(u).raw_storage();
      runs[full ? 1 : 0].emplace_back(raw.begin(), raw.end());
      if (!full) {
        EXPECT_TRUE(boxes_hold(u));
        EXPECT_TRUE(rows_hold(u));
        EXPECT_TRUE(norm2_is_naive(u));
        EXPECT_TRUE(fill_zero_clears(u));
      }
    }
    EXPECT_TRUE(bitwise_equal(runs[0], runs[1]))
        << shape.size() << "-D, save " << save;
  }
}

// --- What the proof refuses ---------------------------------------------------

TEST(Activity, EquationsThatAreNotZeroPreservingTurnTrackingOff) {
  const Grid g({12, 10}, {11.0, 9.0});
  TimeFunction u("u", g, 2, /*time_order=*/1);
  const auto lower = [&](const jitfd::sym::Ex& rhs) {
    return core::Operator({ir::Eq(u.forward(), rhs)}).info();
  };
  for (const jitfd::sym::Ex& rhs :
       {u.now() + 1, 1 / (u.now() + 2), jitfd::sym::Ex(1) / u.now()}) {
    const ir::LoweringInfo info = lower(rhs);
    EXPECT_FALSE(info.activity) << rhs.to_string();
    EXPECT_NE(info.activity_reason.find("not zero-preserving"),
              std::string::npos)
        << info.activity_reason;
  }
  // Folds to 0, but sqrt(-1) is NaN and 0 * NaN is NaN.
  const ir::LoweringInfo nan =
      lower(u.now() * jitfd::sym::call("sqrt", u.now() - 1));
  EXPECT_FALSE(nan.activity);
  EXPECT_NE(nan.activity_reason.find("sqrt"), std::string::npos)
      << nan.activity_reason;
  // -(+0) is -0: zero in value, not in bits.
  const ir::LoweringInfo neg = lower(-u.now());
  EXPECT_FALSE(neg.activity);
  EXPECT_NE(neg.activity_reason.find("-0"), std::string::npos)
      << neg.activity_reason;
  // A sum of zeros is +0 as soon as one term is: proven.
  const ir::LoweringInfo ok = lower(u.now() - u.at_shifted(0, {1, 0}));
  EXPECT_TRUE(ok.activity) << ok.activity_reason;
  EXPECT_EQ(ok.activity_clusters.size(), 1U);
  EXPECT_EQ(ok.activity_clusters[0].reads.at(0).widths,
            (std::vector<int>{1, 0}));
  const core::Operator op({ir::Eq(u.forward(), u.now() + 1)});
  EXPECT_NE(op.describe().find("active-box stepping off"), std::string::npos)
      << op.describe();
}

TEST(Activity, DistributedGridsKeepFullSweepKernels) {
  smpi::launch({.nranks = 2, .transport = smpi::TransportKind::Threads},
               [](smpi::Communicator& comm) {
                 const Grid g(std::vector<std::int64_t>(3, 16),
                              std::vector<double>(3, 15.0), comm);
                 models::AcousticModel model(g, kOrder, 1.5, 4);
                 const auto op = model.make_operator({});
                 EXPECT_FALSE(op->info().activity);
                 EXPECT_NE(op->info().activity_reason.find("distributed"),
                           std::string::npos);
                 const std::string& c = op->ccode();
                 EXPECT_EQ(c.find("jitfd_box"), std::string::npos);
                 EXPECT_EQ(c.find("jitfd_ab_"), std::string::npos);
                 EXPECT_EQ(c.find("jitfd_ar_"), std::string::npos);
                 EXPECT_EQ(c.find("jitfd_row"), std::string::npos);
                 EXPECT_EQ(c.find("jitfd_bits"), std::string::npos);
                 EXPECT_EQ(model.wavefield().activity_rows(), 0);
               });
}

}  // namespace
