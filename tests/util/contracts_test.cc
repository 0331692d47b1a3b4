#include "util/contract.h"

#include <gtest/gtest.h>

namespace ccs {
namespace {

TEST(Contracts, PassingCheckIsSilent) {
  EXPECT_NO_THROW(CCS_CHECK(1 + 1 == 2, "arithmetic"));
  EXPECT_NO_THROW(CCS_EXPECTS(true, ""));
  EXPECT_NO_THROW(CCS_ENSURES(true, ""));
}

TEST(Contracts, FailingCheckThrowsContractViolation) {
  EXPECT_THROW(CCS_CHECK(false, "boom"), ContractViolation);
  EXPECT_THROW(CCS_EXPECTS(false, "boom"), ContractViolation);
  EXPECT_THROW(CCS_ENSURES(false, "boom"), ContractViolation);
}

TEST(Contracts, MessageNamesKindConditionAndLocation) {
  try {
    CCS_EXPECTS(2 < 1, "custom context");
    FAIL() << "expected throw";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition"), std::string::npos);
    EXPECT_NE(what.find("2 < 1"), std::string::npos);
    EXPECT_NE(what.find("contracts_test.cc"), std::string::npos);
    EXPECT_NE(what.find("custom context"), std::string::npos);
  }
}

TEST(Contracts, ConditionEvaluatedExactlyOnce) {
  int calls = 0;
  auto bump = [&calls]() {
    ++calls;
    return true;
  };
  CCS_CHECK(bump(), "");
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace ccs
