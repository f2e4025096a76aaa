/// Self-tests of the benchmark's own machinery: self-time arithmetic on a
/// synthetic span tree, the median and quartile helpers (against values
/// Python's statistics module gives), and falsifiability of the output
/// checks — one flipped decoded bit or one altered round record must fail
/// them. Exits 1 on any failure.

#include <cmath>
#include <cstdio>
#include <thread>

#include "checks.hpp"
#include "core/inventory.hpp"
#include "core/link_server.hpp"
#include "perfbench.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

bool near(double a, double b) { return std::abs(a - b) < 1e-12; }

void test_self_time() {
  // root [0,100]; a [10,40] with grandchild [15,25]; b [30,60] overlaps a
  // (parallel children); c [90,120] sticks out of root and is clipped.
  const std::vector<Span> spans = {
      {"root", 0, 100, -1, 1}, {"a", 10, 40, 0, 1}, {"b", 30, 60, 0, 1},
      {"c", 90, 120, 0, 1},    {"g", 15, 25, 1, 1},
  };
  const auto self = self_times_ns(spans);
  expect(self.size() == 5 && self[0] == 40 && self[1] == 20 && self[2] == 30 &&
             self[3] == 30 && self[4] == 10,
         "self time = duration minus the union of clipped child intervals");
  const auto by_name = self_times_by_name(spans);
  expect(by_name.size() == 5 && by_name.at("root") == std::vector<double>{40} &&
             by_name.at("a") == std::vector<double>{20},
         "self times group by span name");

  Tracer tracer;
  {
    ScopedSpan outer(&tracer, "outer", 7);
    { ScopedSpan inner(&tracer, "inner", 7); }
    const std::int64_t parent = outer.id();
    std::thread worker([&] { ScopedSpan fanned(&tracer, "fanned", 8, parent); });
    worker.join();
    { ScopedSpan after(&tracer, "after", 7); }
  }
  { ScopedSpan untraced(nullptr, "untraced"); }
  const auto got = tracer.spans();
  expect(got.size() == 4 && got[0].parent == -1 && got[1].parent == 0 &&
             got[2].parent == 0 && got[2].request == 8 && got[3].parent == 0 &&
             got[0].end_ns >= got[3].end_ns,
         "scoped spans nest per thread and accept an explicit parent");
}

void test_stats() {
  const Summary a = summarize({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  expect(near(a.median, 5.5) && near(a.q1, 2.75) && near(a.q3, 8.25) && a.n == 10,
         "quartiles of 1..10 = [2.75, 5.5, 8.25]");
  const Summary b = summarize({1, 2, 3, 4, 5});
  expect(near(b.median, 3) && near(b.q1, 1.5) && near(b.q3, 4.5),
         "quartiles of 1..5 = [1.5, 3, 4.5]");
  const Summary c = summarize({3, 1});
  expect(near(c.median, 2) && near(c.q1, 0.5) && near(c.q3, 3.5),
         "quartiles of two samples extrapolate as Python does");
  const Summary d = summarize({0.5, 0.25, 4.0, 2.0, 1.0, 8.0});
  expect(near(d.median, 1.5) && near(d.q1, 0.4375) && near(d.q3, 5.0),
         "unsorted input, even count");
  const Summary e = summarize({42});
  expect(near(e.median, 42) && near(e.q1, 42) && near(e.q3, 42) && e.n == 1,
         "one sample is its own quartiles");
  expect(summarize({}).n == 0 && median({}) == 0.0, "empty set");
}

void test_link_check() {
  bis::core::LinkServerConfig cfg;
  cfg.base.tag.node.uplink.scheme = bis::phy::UplinkScheme::kOok;
  cfg.base.tag.node.uplink.mod_frequencies_hz = {2000.0};
  cfg.base.tag.node.uplink.chirps_per_symbol = 16;
  cfg.n_links = 2;
  cfg.bits_per_frame = 2;
  const auto ref = bis::core::run_links_sequential(cfg, 2);
  std::vector<LinkOutcome> want;
  for (const auto& r : ref) want.push_back({r.decoded_bits, r.report.outcome_key()});
  std::vector<LinkOutcome> got = want;
  expect(!want[0].bits.empty() && link_mismatches(got, want) == 0,
         "identical link outcomes pass");
  got[1].bits[0] ^= 1;
  expect(link_mismatches(got, want) == 1, "one flipped decoded bit fails");
  got = want;
  got[0].outcome_key += "x";
  expect(link_mismatches(got, want) == 1, "a changed outcome key fails");
  got = want;
  got.pop_back();
  expect(link_mismatches(got, want) == 1, "a missing link fails");
}

void test_inventory_check() {
  bis::core::SystemConfig base;
  base.dsp_threads = 1;
  bis::core::InventoryConfig inv;
  inv.q_initial = 3;
  bis::core::InventoryEngine engine(bis::core::make_inventory_population(64, base),
                                    inv);
  engine.run_until_drained();
  const auto rounds = engine.rounds();
  expect(!rounds.empty() && rounds_equal(rounds, rounds) &&
             fully_drained(engine.pending(), engine.inventoried_set()),
         "a drained engine passes");
  auto bad = rounds;
  bad[0].reads += 1;
  expect(!rounds_equal(bad, rounds), "one altered round record fails");
  bad = rounds;
  bad.back().q_fp_after = std::nextafter(bad.back().q_fp_after, 1e9);
  expect(!rounds_equal(bad, rounds), "a floating Q one ulp off fails");
  bad = rounds;
  bad.back().seconds += 1.0;
  expect(rounds_equal(bad, rounds), "round wall time is not compared");
  auto set = engine.inventoried_set();
  set[5] = 0;
  expect(!fully_drained(0, set) && !fully_drained(1, engine.inventoried_set()),
         "an uninventoried tag or a pending count fails");
}

}  // namespace

int main() {
  test_self_time();
  test_stats();
  test_link_check();
  test_inventory_check();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
