// svc::CheckArrivalParams: the built-in arrival processes' param rules,
// checked without building a process, and every spec the check accepts
// builds (the factories abort where the check fails).
#include "svc/arrival.h"

#include <gtest/gtest.h>

#include <string>

namespace thunderbolt::svc {
namespace {

struct Case {
  const char* process;
  const char* params;
  bool ok;
};

TEST(ArrivalParamsTest, CheckMatchesFactoryRules) {
  const Case cases[] = {
      {"poisson", "", true},
      {"poisson", "mult=2", false},
      {"burst", "", true},
      {"burst", "on_ms=50,off_ms=0,mult=4", true},
      {"burst", "mult=x", false},
      {"burst", "mult=0.5", false},
      {"burst", "on_ms=0", false},
      {"burst", "period=3", false},
      {"burst", "mult=", false},
      {"trace", "times=5;1;9", true},
      {"trace", "times=1;2,loop_us=10", true},
      {"trace", "", false},
      {"trace", "times=1;-2", false},
      {"trace", "times=1; 2", false},
      {"trace", "times=1;20,loop_us=10", false},
      {"trace", "times=1,file=x", false},
      {"trace", "file=/nonexistent/arrivals.txt", false},
      {"unregistered", "anything=1", true},
  };
  for (const Case& c : cases) {
    ArrivalOptions options;
    options.params = c.params;
    const Status status = CheckArrivalParams(c.process, options);
    EXPECT_EQ(status.ok(), c.ok)
        << c.process << " \"" << c.params << "\": " << status.ToString();
    if (c.ok && ArrivalRegistry::Global().Contains(c.process)) {
      EXPECT_NE(ArrivalRegistry::Global().Create(c.process, options), nullptr)
          << c.process << " \"" << c.params << "\"";
    }
  }
}

TEST(ArrivalParamsTest, BurstNeedsPositiveRate) {
  ArrivalOptions options;
  options.rate_tps = 0;
  EXPECT_FALSE(CheckArrivalParams("burst", options).ok());
}

}  // namespace
}  // namespace thunderbolt::svc
