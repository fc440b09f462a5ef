// The shared "key=value,..." grammar and its number parsers.
// workload_registry_test covers them through ApplyWorkloadParams,
// placement_policy_property_test through CheckPlacementParams and
// arrival_params_test through CheckArrivalParams.
#include "common/params.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace thunderbolt {
namespace {

Param P(const std::string& value) { return Param{"k", value}; }

TEST(ParamsTest, SplitDropsEmptyItems) {
  EXPECT_EQ(Split(",a,,b,", ','), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(Split("1;2;;3", ';'), (std::vector<std::string>{"1", "2", "3"}));
  EXPECT_EQ(Split("a,b", ';'), (std::vector<std::string>{"a,b"}));
  EXPECT_TRUE(Split("", ',').empty());
  EXPECT_TRUE(Split(",,", ',').empty());
}

TEST(ParamsTest, CheckNoParamsNamesTheFirstKey) {
  EXPECT_TRUE(CheckNoParams("hash", "").ok());
  EXPECT_TRUE(CheckNoParams("hash", ",,").ok());
  const Status status = CheckNoParams("hash", "a=1,b=2");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "hash: unknown key \"a\"");
  EXPECT_FALSE(CheckNoParams("hash", "a").ok());
}

TEST(ParamsTest, ParseParamsSkipsEmptyItems) {
  const Result<std::vector<Param>> params = ParseParams(",a=1,,b=x y,");
  ASSERT_TRUE(params.ok()) << params.status().ToString();
  ASSERT_EQ(params->size(), 2u);
  EXPECT_EQ((*params)[0].key, "a");
  EXPECT_EQ((*params)[0].value, "1");
  EXPECT_EQ((*params)[1].key, "b");
  EXPECT_EQ((*params)[1].value, "x y");
  ASSERT_TRUE(ParseParams("").ok());
  EXPECT_TRUE(ParseParams("").value().empty());
}

TEST(ParamsTest, ParseParamsRejectsMissingKeyOrValue) {
  for (const char* spec : {"k", "=v", "k=", "a=1,k", "a=1,=v", "a=1,k="}) {
    const Result<std::vector<Param>> params = ParseParams(spec);
    ASSERT_FALSE(params.ok()) << spec;
    EXPECT_TRUE(params.status().IsInvalidArgument()) << spec;
    EXPECT_NE(params.status().message().find("is not key=value"),
              std::string::npos)
        << params.status().ToString();
  }
}

TEST(ParamsTest, ParseParamsSplitsAtFirstEquals) {
  const Result<std::vector<Param>> params = ParseParams("k=v=w");
  ASSERT_TRUE(params.ok());
  ASSERT_EQ(params->size(), 1u);
  EXPECT_EQ((*params)[0].key, "k");
  EXPECT_EQ((*params)[0].value, "v=w");
}

TEST(ParamsTest, ParseUintAcceptsDecimalsUpToMax) {
  EXPECT_EQ(ParseUint(P("0")).value(), 0u);
  EXPECT_EQ(ParseUint(P("42")).value(), 42u);
  EXPECT_EQ(ParseUint(P("007")).value(), 7u);
  EXPECT_EQ(ParseUint(P("18446744073709551615")).value(), UINT64_MAX);
  EXPECT_EQ(ParseUint(P("4294967295"), UINT32_MAX).value(), UINT32_MAX);
  EXPECT_EQ(ParseUint(P("4"), 4).value(), 4u);
}

TEST(ParamsTest, ParseUintRejectsSignsTrailingOverflowAndMax) {
  for (const char* text :
       {"-1", "+5", "12x", "18446744073709551616", "", " 5", "abc", "1.0"}) {
    const Result<uint64_t> v = ParseUint(P(text));
    EXPECT_FALSE(v.ok()) << "\"" << text << "\" parsed as " << v.value_or(0);
    EXPECT_TRUE(v.status().IsInvalidArgument()) << text;
  }
  EXPECT_FALSE(ParseUint(P("4294967296"), UINT32_MAX).ok());
  EXPECT_FALSE(ParseUint(P("5"), 4).ok());
  // The message names the key and the offending text.
  EXPECT_EQ(ParseUint(Param{"top_k", "-1"}).status().message(),
            "top_k: bad integer \"-1\"");
}

TEST(ParamsTest, ParseDoubleRejectsTrailingAndOutOfRange) {
  EXPECT_EQ(ParseDouble(P("0.25")).value(), 0.25);
  EXPECT_EQ(ParseDouble(P("-1.5")).value(), -1.5);
  EXPECT_EQ(ParseDouble(P("1e3")).value(), 1000.0);
  for (const char* text : {"abc", "1e999", "-1e999", "1.5x", ""}) {
    const Result<double> v = ParseDouble(P(text));
    EXPECT_FALSE(v.ok()) << "\"" << text << "\" parsed as " << v.value_or(0);
    EXPECT_TRUE(v.status().IsInvalidArgument()) << text;
  }
  EXPECT_EQ(ParseDouble(Param{"mult", "abc"}).status().message(),
            "mult: bad number \"abc\"");
}

}  // namespace
}  // namespace thunderbolt
