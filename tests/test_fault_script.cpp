// Spec-validation edge cases for serve/fault_script.hpp. The basic
// happy-path parses and the refire semantics live in test_serve.cpp;
// this suite pins the *taxonomy* of rejections — every malformed spec
// must surface as coded_error{Precondition}, not a bare raysched::error —
// plus the degenerate empty/whitespace inputs and the duplicate
// (slot, kind) rule.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/fault_script.hpp"
#include "util/error.hpp"

namespace raysched::serve {
namespace {

// EXPECT_THROW cannot inspect the exception; this helper asserts both the
// type and the machine-readable code.
void expect_precondition(const std::string& spec, std::uint64_t period = 0) {
  try {
    (void)FaultScript::parse(spec, period);
    FAIL() << "expected coded_error for spec '" << spec << "'";
  } catch (const coded_error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Precondition)
        << "spec '" << spec << "' threw code " << to_string(e.code());
  }
}

TEST(FaultScriptSpec, MalformedDelaySpecsArePreconditionErrors) {
  expect_precondition("x:delay:5");     // non-numeric slot
  expect_precondition("5:delay");       // missing argument
  expect_precondition("5:delay:abc");   // non-numeric argument
  expect_precondition("10:delay:0");    // out-of-domain: needs >= 1
  expect_precondition("10:delay:0.5");  // out-of-domain: below one slot
}

TEST(FaultScriptSpec, MalformedStructureIsAPreconditionError) {
  expect_precondition(":");             // empty slot field
  expect_precondition("10");            // missing kind
  expect_precondition("10:");           // empty kind
  expect_precondition("10:frobnicate");  // unknown kind
  expect_precondition("10:churn-burst:1.5");  // fraction above 1
  expect_precondition("150:poison-on", /*period=*/100);  // beyond period
  expect_precondition("-5:crash");      // signed slot, not 2^64 - 5
}

TEST(FaultScriptSpec, DuplicateSlotKindPairsAreRejected) {
  expect_precondition("10:delay:5,10:delay:7");
  expect_precondition("40:crash,40:crash");
  // Duplicates are caught even when another kind sits between them in
  // spec order (sorting is by slot only, stable).
  expect_precondition("10:delay:5,10:poison-on,10:delay:7");
  // The same kind in *different* slots, and different kinds in the same
  // slot, both stay legal.
  EXPECT_NO_THROW(FaultScript::parse("10:delay:5,20:delay:7"));
  EXPECT_NO_THROW(FaultScript::parse("10:delay:5,10:poison-on"));
}

TEST(FaultScriptSpec, PeriodicCrashStaysLegalAndFiresOnce) {
  // A crash inside a periodic script is not a spec error — it fires on
  // its literal slot and is suppressed on every re-fire (the restart
  // convention relies on this; see PeriodicScriptsRefireButCrashDoesNot).
  const FaultScript script = FaultScript::parse("40:crash", /*period=*/100);
  std::vector<FaultEvent> fired;
  script.events_in_slot(40, fired);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].kind, FaultKind::Crash);
  fired.clear();
  script.events_in_slot(140, fired);
  EXPECT_TRUE(fired.empty());
  fired.clear();
  script.events_in_slot(240, fired);
  EXPECT_TRUE(fired.empty());
}

TEST(FaultScriptSpec, EmptySpecIsAValidEmptyScript) {
  const FaultScript script = FaultScript::parse("");
  EXPECT_TRUE(script.empty());
  EXPECT_TRUE(script.events().empty());
  std::vector<FaultEvent> fired;
  script.events_in_slot(0, fired);
  EXPECT_TRUE(fired.empty());
}

TEST(FaultScriptSpec, WhitespaceOnlySpecsAreRejected) {
  // Whitespace is not a valid slot number: " " and similar must be
  // refused loudly rather than silently parsed as an empty script.
  expect_precondition(" ");
  expect_precondition("  ,  ");
  expect_precondition("\t");
}

TEST(FaultScriptSpec, TrailingAndDoubledCommasAreRejected) {
  expect_precondition("10:delay:5,");
  expect_precondition("10:delay:5,,20:crash");
}

TEST(FaultScriptSpec, ConstructorValidatesEventsDirectly) {
  // The ctor itself enforces the taxonomy, not just parse(): programmatic
  // event lists face the same wall.
  std::vector<FaultEvent> bad_arg{{10, FaultKind::RecomputeDelay, 0.0}};
  EXPECT_THROW(FaultScript(std::move(bad_arg)), coded_error);
  std::vector<FaultEvent> dup{{10, FaultKind::Crash, 0.0},
                              {10, FaultKind::Crash, 0.0}};
  EXPECT_THROW(FaultScript(std::move(dup)), coded_error);
  try {
    std::vector<FaultEvent> beyond{{150, FaultKind::PoisonOn, 0.0}};
    FaultScript script(std::move(beyond), /*period=*/100);
    FAIL() << "expected coded_error for periodic slot beyond period";
  } catch (const coded_error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Precondition);
  }
}

}  // namespace
}  // namespace raysched::serve
