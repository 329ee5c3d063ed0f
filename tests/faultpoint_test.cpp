// Tests of the deterministic fault-injection layer (common/faultpoint):
// plan parsing (strict, with nearest-match suggestions), hit counting,
// Nth-hit firing, attempt gating, and the disarmed fast path.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "common/error.hpp"
#include "common/faultpoint.hpp"

namespace mst {
namespace {

/// Every test leaves the process disarmed, whatever its assertions did.
class FaultPlanGuard {
public:
    FaultPlanGuard() { fault::clear_plan(); }
    ~FaultPlanGuard()
    {
        fault::clear_plan();
        fault::set_attempt(0);
    }
};

std::string message_of(const std::function<void()>& thrower)
{
    try {
        thrower();
    } catch (const ValidationError& e) {
        return e.what();
    }
    return "";
}

TEST(FaultPlan, ParsesFullGrammar)
{
    const fault::Plan plan =
        fault::parse_plan("net.accept:fail@3=EMFILE; sweep.scenario:crash@2*4 ,"
                          "framing.read:hang@1");
    ASSERT_EQ(plan.rules.size(), 3u);

    EXPECT_EQ(plan.rules[0].point, "net.accept");
    EXPECT_EQ(plan.rules[0].action, fault::Action::fail);
    EXPECT_EQ(plan.rules[0].at, 3u);
    EXPECT_EQ(plan.rules[0].attempts, 1);
    EXPECT_EQ(plan.rules[0].code, std::errc::too_many_files_open);

    EXPECT_EQ(plan.rules[1].point, "sweep.scenario");
    EXPECT_EQ(plan.rules[1].action, fault::Action::crash);
    EXPECT_EQ(plan.rules[1].at, 2u);
    EXPECT_EQ(plan.rules[1].attempts, 4);

    EXPECT_EQ(plan.rules[2].point, "framing.read");
    EXPECT_EQ(plan.rules[2].action, fault::Action::hang);
}

TEST(FaultPlan, DefaultsToFirstHitAndEio)
{
    const fault::Plan plan = fault::parse_plan("sweep.checkpoint_write:fail");
    ASSERT_EQ(plan.rules.size(), 1u);
    EXPECT_EQ(plan.rules[0].at, 1u);
    EXPECT_EQ(plan.rules[0].code, std::errc::io_error);
}

TEST(FaultPlan, RejectsUnknownPointWithSuggestion)
{
    EXPECT_THROW((void)fault::parse_plan("net.acept:fail@1"), ValidationError);
    const std::string what =
        message_of([] { (void)fault::parse_plan("net.acept:fail@1"); });
    EXPECT_NE(what.find("net.accept"), std::string::npos) << what;
}

TEST(FaultPlan, RejectsMalformedRules)
{
    // Empty plans, missing actions, bad ordinals, unknown actions and
    // errno names, and =ERR on non-fail actions are all hard errors —
    // a chaos run with a typo'd plan must not silently test nothing.
    EXPECT_THROW((void)fault::parse_plan(""), ValidationError);
    EXPECT_THROW((void)fault::parse_plan("net.accept"), ValidationError);
    EXPECT_THROW((void)fault::parse_plan("net.accept:explode@1"), ValidationError);
    EXPECT_THROW((void)fault::parse_plan("net.accept:fail@0"), ValidationError);
    EXPECT_THROW((void)fault::parse_plan("net.accept:fail@x"), ValidationError);
    EXPECT_THROW((void)fault::parse_plan("net.accept:fail@1=EWHAT"), ValidationError);
    EXPECT_THROW((void)fault::parse_plan("net.accept:crash@1=EIO"), ValidationError);
    EXPECT_THROW((void)fault::parse_plan("net.accept:fail@1*0"), ValidationError);
}

TEST(FaultPoint, DisarmedProbeIsInert)
{
    const FaultPlanGuard guard;
    EXPECT_FALSE(fault::armed());
    EXPECT_EQ(MST_FAULTPOINT("net.accept"), std::errc{});
    // Disarmed probes do not even count hits (the fast path is one load).
    EXPECT_EQ(fault::hit_count("net.accept"), 0u);
}

TEST(FaultPoint, FiresOnExactlyTheNthHit)
{
    const FaultPlanGuard guard;
    fault::install_plan(fault::parse_plan("net.write:fail@3=EPIPE"));
    EXPECT_TRUE(fault::armed());
    EXPECT_EQ(MST_FAULTPOINT("net.write"), std::errc{});
    EXPECT_EQ(MST_FAULTPOINT("net.write"), std::errc{});
    EXPECT_EQ(MST_FAULTPOINT("net.write"), std::errc::broken_pipe);
    EXPECT_EQ(MST_FAULTPOINT("net.write"), std::errc{}); // once, not "from then on"
    EXPECT_EQ(fault::hit_count("net.write"), 4u);
    // Other points under the same plan count independently and never fire.
    EXPECT_EQ(MST_FAULTPOINT("net.accept"), std::errc{});
    EXPECT_EQ(fault::hit_count("net.accept"), 1u);
}

TEST(FaultPoint, AttemptWindowGatesFiring)
{
    const FaultPlanGuard guard;
    // Fires while attempt < 2 — i.e. on the first run and the first
    // retry, then self-heals (how sweep tests force exactly K restarts).
    fault::install_plan(fault::parse_plan("sweep.checkpoint_write:fail@1*2"));

    fault::set_attempt(0);
    EXPECT_NE(MST_FAULTPOINT("sweep.checkpoint_write"), std::errc{});

    // A supervised restart resets the ordinal clock via install_plan in a
    // fresh process; here we emulate it by reinstalling.
    fault::install_plan(fault::parse_plan("sweep.checkpoint_write:fail@1*2"));
    fault::set_attempt(1);
    EXPECT_NE(MST_FAULTPOINT("sweep.checkpoint_write"), std::errc{});

    fault::install_plan(fault::parse_plan("sweep.checkpoint_write:fail@1*2"));
    fault::set_attempt(2);
    EXPECT_EQ(MST_FAULTPOINT("sweep.checkpoint_write"), std::errc{});
}

TEST(FaultPoint, InstallResetsCountersAndClearDisarms)
{
    const FaultPlanGuard guard;
    fault::install_plan(fault::parse_plan("net.accept:fail@2"));
    EXPECT_EQ(MST_FAULTPOINT("net.accept"), std::errc{});
    EXPECT_EQ(fault::hit_count("net.accept"), 1u);

    fault::install_plan(fault::parse_plan("net.accept:fail@2"));
    EXPECT_EQ(fault::hit_count("net.accept"), 0u); // counters restarted
    EXPECT_EQ(MST_FAULTPOINT("net.accept"), std::errc{});
    EXPECT_NE(MST_FAULTPOINT("net.accept"), std::errc{});

    fault::clear_plan();
    EXPECT_FALSE(fault::armed());
    EXPECT_EQ(MST_FAULTPOINT("net.accept"), std::errc{});
    EXPECT_EQ(fault::hit_count("net.accept"), 0u);
}

TEST(FaultPoint, CatalogCoversTheDocumentedPoints)
{
    const std::vector<const char*>& points = fault::known_points();
    const auto has = [&](const std::string& name) {
        for (const char* point : points) {
            if (name == point) {
                return true;
            }
        }
        return false;
    };
    for (const char* required :
         {"net.accept", "net.write", "framing.read", "cache.tables_build", "cache.soc_resolve",
          "sweep.checkpoint_write", "sweep.trailer_write", "sweep.worker_spawn",
          "sweep.scenario", "sweep.report_write", "shm.map", "shm.publish",
          "shm.truncate_recover", "shm.checksum"}) {
        EXPECT_TRUE(has(required)) << required;
    }
}

} // namespace
} // namespace mst
