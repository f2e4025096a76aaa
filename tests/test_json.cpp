// common/json.hpp: the minimal JSON reader used by bench_compare and the
// telemetry validation paths — plus the repo's one JSON escaper and number
// formatter and the NaN/Inf → null contract of its JSON writers
// (json_number, Registry::write_json and RunReport::to_json must always
// emit parseable documents).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include "common/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"

namespace bis {
namespace {

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(json_parse("null").value.is_null());
  EXPECT_TRUE(json_parse("true").value.as_bool());
  EXPECT_FALSE(json_parse("false").value.as_bool());
  EXPECT_DOUBLE_EQ(json_parse("42").value.as_number(), 42.0);
  EXPECT_DOUBLE_EQ(json_parse("-1.5e3").value.as_number(), -1500.0);
  EXPECT_EQ(json_parse("\"hi\\n\\\"there\\\"\"").value.as_string(),
            "hi\n\"there\"");
}

TEST(JsonTest, ParsesNestedStructures) {
  const auto doc = json_parse(
      R"({"a": [1, 2, {"b": true}], "c": {"d": null}, "e": "x"})");
  ASSERT_TRUE(doc.ok()) << doc.error;
  const JsonValue& v = doc.value;
  ASSERT_TRUE(v.is_object());
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(a->as_array()[0].as_number(), 1.0);
  EXPECT_TRUE(a->as_array()[2].find("b")->as_bool());
  EXPECT_TRUE(v.find("c")->find("d")->is_null());
  EXPECT_EQ(v.string_or("e", ""), "x");
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonTest, MembersKeepInsertionOrder) {
  const auto doc = json_parse(R"({"z": 1, "a": 2, "m": 3})");
  ASSERT_TRUE(doc.ok());
  const auto& m = doc.value.members();
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m[0].first, "z");
  EXPECT_EQ(m[1].first, "a");
  EXPECT_EQ(m[2].first, "m");
}

TEST(JsonTest, HelperAccessors) {
  const auto doc = json_parse(R"({"n": 7, "b": true, "s": "v", "nul": null})");
  ASSERT_TRUE(doc.ok());
  EXPECT_DOUBLE_EQ(doc.value.number_or("n", -1.0), 7.0);
  EXPECT_DOUBLE_EQ(doc.value.number_or("missing", -1.0), -1.0);
  EXPECT_DOUBLE_EQ(doc.value.number_or("nul", -1.0), -1.0);  // null != number
  EXPECT_TRUE(doc.value.bool_or("b", false));
  EXPECT_TRUE(doc.value.bool_or("missing", true));
  EXPECT_EQ(doc.value.string_or("s", ""), "v");
}

TEST(JsonTest, ReportsErrorsWithPosition) {
  EXPECT_FALSE(json_parse("{").ok());
  EXPECT_FALSE(json_parse("[1, 2").ok());
  EXPECT_FALSE(json_parse("{\"a\": }").ok());
  EXPECT_FALSE(json_parse("nul").ok());
  EXPECT_FALSE(json_parse("{} trailing").ok());
  EXPECT_FALSE(json_parse("").ok());
  // NaN/Inf literals are not JSON — the writers must never emit them.
  EXPECT_FALSE(json_parse("nan").ok());
  EXPECT_FALSE(json_parse("{\"x\": inf}").ok());
  const auto err = json_parse("{\n  \"a\": tru\n}");
  EXPECT_FALSE(err.ok());
  EXPECT_NE(err.error.find("2:"), std::string::npos) << err.error;
}

TEST(JsonTest, ParsesUnicodeEscapes) {
  const auto doc = json_parse(R"("Aé")");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value.as_string(), "A\xc3\xa9");
}

// ---------------------------------------------------------------------------
// Escaping and the NaN/Inf writer contract.

TEST(JsonTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
}

TEST(JsonTest, JsonNumberMapsNonFiniteToNull) {
  EXPECT_EQ(json_number(1.5), "1.5");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonTest, RegistryJsonStaysParseableWithNonFiniteGauge) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::Registry::instance().reset();
  obs::Registry::instance().gauge("bis.test.nan_gauge").set(
      std::numeric_limits<double>::quiet_NaN());
  obs::Registry::instance().gauge("bis.test.inf_gauge").set(
      std::numeric_limits<double>::infinity());
  const auto doc = json_parse(obs::Registry::instance().to_json());
  ASSERT_TRUE(doc.ok()) << doc.error;
  const JsonValue* g = doc.value.find("bis.test.nan_gauge");
  ASSERT_NE(g, nullptr);
  EXPECT_TRUE(g->is_null());
  EXPECT_TRUE(doc.value.find("bis.test.inf_gauge")->is_null());
  obs::Registry::instance().reset();
  obs::set_enabled(was_enabled);
}

TEST(JsonTest, RunReportJsonStaysParseableWithNonFiniteFields) {
  // Zero-noise runs can push detector SNR to ±Inf/NaN; the emitted document
  // must still parse, with nulls standing in for the non-finite fields.
  obs::RunReport report;
  report.config = "nan\"test";  // exercises json_escape too
  report.last_detector_snr_db = std::numeric_limits<double>::quiet_NaN();
  report.detector_snr_sum_db = std::numeric_limits<double>::infinity();
  report.uplink_frames = 1;  // mean_detector_snr_db() -> +Inf
  const auto doc = json_parse(report.to_json());
  ASSERT_TRUE(doc.ok()) << doc.error;
  const JsonValue* uplink = doc.value.find("uplink");
  ASSERT_NE(uplink, nullptr);
  const JsonValue* snr = uplink->find("detector_snr_db");
  ASSERT_NE(snr, nullptr);
  EXPECT_TRUE(snr->is_null());
  EXPECT_TRUE(uplink->find("mean_detector_snr_db")->is_null());
  // Guarded rates stay finite (0.0) on a fresh report.
  EXPECT_DOUBLE_EQ(doc.value.find("downlink")->number_or("sync_lock_rate", -1),
                   0.0);
}

}  // namespace
}  // namespace bis
