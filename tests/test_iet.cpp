// Unit tests for the IET data structures: bounds, constructors, body
// rewriting, and the paper-style debug rendering (Listings 4-6).
#include <gtest/gtest.h>

#include "ir/iet.h"
#include "symbolic/expr.h"

namespace {

using namespace jitfd::ir;  // NOLINT: test file.
namespace sym = jitfd::sym;

TEST(Bound, ResolvesAbsoluteAndSizeRelative) {
  EXPECT_EQ(Bound::absolute(0).resolve(100), 0);
  EXPECT_EQ(Bound::absolute(4).resolve(100), 4);
  EXPECT_EQ(Bound::from_size(0).resolve(100), 100);
  EXPECT_EQ(Bound::from_size(-4).resolve(100), 96);
}

TEST(Iet, PlainTimeLoopRendersWithoutStride) {
  const auto time_loop =
      make_time_loop({make_expression(sym::symbol("a"), sym::Ex(1))});
  EXPECT_EQ(to_debug_string(time_loop),
            "<[affine,sequential] Iteration time>\n"
            "  <Expression a = 1>\n");
}

TEST(Iet, ConstructorsSetFields) {
  const sym::Ex t = sym::symbol("r0");
  const auto expr = make_expression(t, sym::Ex(2) * sym::symbol("x"));
  EXPECT_EQ(expr->type, NodeType::Expression);
  EXPECT_TRUE(expr->target == t);

  LoopProps props;
  props.parallel = true;
  const auto loop = make_iteration(0, Bound::absolute(0), Bound::from_size(0),
                                   props, {expr});
  EXPECT_EQ(loop->type, NodeType::Iteration);
  EXPECT_EQ(loop->dim, 0);
  EXPECT_TRUE(loop->props.parallel);
  EXPECT_EQ(loop->body.size(), 1U);

  const auto block =
      make_block_loop(0, Bound::absolute(0), Bound::from_size(0), 8,
                      LoopProps{}, {loop});
  EXPECT_EQ(block->type, NodeType::BlockLoop);
  EXPECT_EQ(block->tile, 8);
  EXPECT_NE(to_debug_string(block).find("BlockLoop"), std::string::npos);

  const auto spot = make_halo_spot({HaloNeed{7, 1, {2, 2}}});
  EXPECT_EQ(spot->needs.size(), 1U);
  EXPECT_EQ(spot->needs[0].field_id, 7);

  const auto comm = make_halo_comm(HaloCommKind::Start, spot->needs, 3);
  EXPECT_EQ(comm->comm_kind, HaloCommKind::Start);
  EXPECT_EQ(comm->spot_id, 3);
}

TEST(Iet, WithBodyRewritesChildrenOnly) {
  LoopProps props;
  props.vector = true;
  const auto inner = make_expression(sym::symbol("a"), sym::Ex(1));
  const auto loop = make_iteration(1, Bound::absolute(2), Bound::from_size(-2),
                                   props, {inner});
  const auto replacement = make_expression(sym::symbol("b"), sym::Ex(2));
  const auto rewritten = with_body(*loop, {replacement, replacement});
  EXPECT_EQ(rewritten->dim, 1);
  EXPECT_EQ(rewritten->lo, Bound::absolute(2));
  EXPECT_EQ(rewritten->props, props);
  EXPECT_EQ(rewritten->body.size(), 2U);
  // The original is untouched (immutability).
  EXPECT_EQ(loop->body.size(), 1U);
}

TEST(Iet, DebugStringRendersPaperStyle) {
  // Build the shape of the paper's Listing 6 and check the rendering.
  sym::FieldId u{0, "u", 2, true};
  const auto stmt = make_expression(
      sym::access(u, 1, {0, 0}),
      sym::symbol("dt") * sym::access(u, 0, {0, 0}));
  LoopProps inner_props;
  inner_props.vector = true;
  const auto y_loop = make_iteration(1, Bound::absolute(0),
                                     Bound::from_size(0), inner_props, {stmt});
  LoopProps outer_props;
  outer_props.parallel = true;
  const auto x_loop = make_iteration(0, Bound::absolute(0),
                                     Bound::from_size(0), outer_props,
                                     {y_loop});
  const auto update =
      make_halo_comm(HaloCommKind::Update, {HaloNeed{0, 0, {1, 1}}}, 0);
  const auto time_loop = make_time_loop({update, x_loop});
  const auto root = make_callable("Kernel", {time_loop});

  const std::string s = to_debug_string(root);
  EXPECT_NE(s.find("<Callable Kernel>"), std::string::npos) << s;
  EXPECT_NE(s.find("[affine,sequential] Iteration time"), std::string::npos);
  EXPECT_NE(s.find("<HaloUpdateCall spot0>"), std::string::npos);
  EXPECT_NE(s.find("[affine,parallel] Iteration x"), std::string::npos);
  EXPECT_NE(s.find("[affine,vector-dim] Iteration y"), std::string::npos);
  EXPECT_NE(s.find("u[t+1, x, y] = dt*u[t, x, y]"), std::string::npos);
  // Nesting order: time before halo before x before y before the store.
  EXPECT_LT(s.find("Iteration time"), s.find("HaloUpdateCall"));
  EXPECT_LT(s.find("HaloUpdateCall"), s.find("Iteration x"));
  EXPECT_LT(s.find("Iteration x"), s.find("Iteration y"));
}

TEST(Iet, HaloSpotRendering) {
  const auto spot = make_halo_spot(
      {HaloNeed{3, 0, {1, 1}}, HaloNeed{5, 1, {2, 2}}});
  const std::string s = to_debug_string(spot);
  EXPECT_NE(s.find("f3@t"), std::string::npos) << s;
  EXPECT_NE(s.find("f5@t+1"), std::string::npos);
}

TEST(Iet, SectionAndSparseRendering) {
  const auto root = make_callable(
      "K", {make_section("core", {make_sparse_op(2)})});
  const std::string s = to_debug_string(root);
  EXPECT_NE(s.find("<Section core>"), std::string::npos);
  EXPECT_NE(s.find("<SparseOp 2>"), std::string::npos);
}

}  // namespace
