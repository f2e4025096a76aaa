/// Engineering microbenchmarks (google-benchmark) for the DSP kernels on the
/// real-time path — the FFT with and without the plan cache, the tag's tone
/// GLRT bank and the radar's per-chirp range FFT — plus a self-contained
/// DSP-engine harness that measures the plan cache (cached vs uncached FFT)
/// and frame-level thread scaling (receive chain + detect at 1/2/4
/// threads), verifies the parallel output is bit-identical to the
/// sequential path, and writes the results to a machine-readable
/// BENCH_dsp.json in the working directory.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/constants.hpp"
#include "common/random.hpp"
#include "common/thread_pool.hpp"
#include "dsp/fft.hpp"
#include "dsp/oscillator.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/tone_fit.hpp"
#include "dsp/window.hpp"
#include "obs/telemetry.hpp"
#include "radar/receive_chain.hpp"
#include "radar/tag_detector.hpp"

namespace {

using namespace bis;

dsp::CVec random_complex(std::size_t n) {
  Rng rng(1);
  dsp::CVec x(n);
  for (auto& v : x) v = dsp::cdouble(rng.gaussian(), rng.gaussian());
  return x;
}

dsp::RVec random_real(std::size_t n) {
  Rng rng(2);
  dsp::RVec x(n);
  for (auto& v : x) v = rng.gaussian();
  return x;
}

void BM_FftPlanCached(benchmark::State& state) {
  const auto x = random_complex(static_cast<std::size_t>(state.range(0)));
  (void)dsp::fft(x);  // warm the plan cache
  for (auto _ : state) benchmark::DoNotOptimize(dsp::fft(x));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FftPlanCached)->Arg(128)->Arg(256)->Arg(1024)->Arg(120)->Arg(193);

void BM_FftUncached(benchmark::State& state) {
  const auto x = random_complex(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(dsp::fft_uncached(x));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FftUncached)->Arg(128)->Arg(256)->Arg(1024)->Arg(120)->Arg(193);

void BM_ToneGlrtBank38(benchmark::State& state) {
  // The tag's per-chirp workload: a 38-slot bank over a 46-sample window.
  std::vector<double> freqs;
  for (int i = 0; i < 38; ++i) freqs.push_back(57e3 + i * 2.5e3);
  const auto window = random_real(46);
  auto w = dsp::make_window(dsp::WindowType::kHann, window.size());
  for (double& v : w) v = std::sqrt(v);
  for (auto _ : state)
    benchmark::DoNotOptimize(dsp::tone_glrt_scores(window, freqs, 500e3, w));
}
BENCHMARK(BM_ToneGlrtBank38);

void BM_ToneGlrtPlanned38(benchmark::State& state) {
  // BM_ToneGlrtBank38's bank planned once, as the tag decoder holds it: per
  // call only the data dot products and the 3×3 solves remain.
  std::vector<double> freqs;
  for (int i = 0; i < 38; ++i) freqs.push_back(57e3 + i * 2.5e3);
  const auto window = random_real(46);
  auto w = dsp::make_window(dsp::WindowType::kHann, window.size());
  for (double& v : w) v = std::sqrt(v);
  const dsp::ToneGlrtBank bank(freqs, 500e3, window.size());
  const auto plan = bank.window(w);
  std::vector<double> scores(freqs.size());
  for (auto _ : state) {
    bank.scores(window, plan, scores);
    benchmark::DoNotOptimize(scores.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ToneGlrtPlanned38);

void BM_RangeProcessChirp(benchmark::State& state) {
  rf::ChirpParams chirp;
  chirp.start_frequency_hz = 9e9;
  chirp.bandwidth_hz = 1e9;
  chirp.duration_s = 60e-6;
  chirp.idle_s = 60e-6;
  const auto samples = random_complex(120);  // 60 µs at 2 MS/s
  const radar::ReceiveChain chain(2e6, radar::RangeAlignConfig{},
                                  /*background_subtraction=*/false);
  radar::RangeProfile profile;
  for (auto _ : state) {
    chain.range_fft(samples, chirp, profile);
    benchmark::DoNotOptimize(profile.bins.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RangeProcessChirp);

// ---------------------------------------------------------------------------
// BENCH_dsp.json harness
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median-of-repeats wall time of fn(), in microseconds.
template <typename Fn>
double time_us(Fn&& fn, int iters) {
  // One warmup call keeps first-touch costs (plan build, allocation) out of
  // the measured loop for the cached variants; the uncached reference pays
  // its table building inside fn() on every call by construction.
  fn();
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) fn();
  return seconds_since(t0) * 1e6 / iters;
}

struct FftCompare {
  std::size_t n = 0;
  double uncached_us = 0.0;
  double cached_us = 0.0;
  double speedup = 0.0;
};

FftCompare compare_fft(std::size_t n, int iters) {
  const auto x = random_complex(n);
  FftCompare c;
  c.n = n;
  c.uncached_us = time_us([&] { benchmark::DoNotOptimize(dsp::fft_uncached(x)); }, iters);
  c.cached_us = time_us([&] { benchmark::DoNotOptimize(dsp::fft(x)); }, iters);
  c.speedup = c.uncached_us / c.cached_us;
  return c;
}

// IF-synthesis kernel: the oscillator-bank recurrence vs the libm cos/sin
// reference, on an IfSynthesizer-shaped workload (4 returns superposed into
// one chirp's sample buffer), and the one-pass tone bank (all 4 returns per
// sample, as IfSynthesizer runs them) vs one oscillator pass per tone.
struct SynthCompare {
  std::size_t n = 0;
  double ref_msps = 0.0;   // reference throughput, Msamples/s (n·tones per call)
  double osc_msps = 0.0;   // one accumulate_tone pass per tone
  double bank_msps = 0.0;  // one accumulate_tones pass for all tones
  double speedup = 0.0;    // osc over ref
  double bank_speedup = 0.0;  // bank over osc
  bool parity = false;  // max |osc − ref| < 1e-11 · amplitude
  bool bit_identical = false;  // bank == per-tone passes, bit for bit
};

SynthCompare compare_synthesis(std::size_t n, int iters) {
  constexpr std::size_t kTones = 4;
  const double dt = 1.0 / 2e6;
  const double freqs[kTones] = {87e3, 150e3, 212.5e3, 333e3};
  const double amps[kTones] = {1e-3, 3e-4, 5e-4, 2e-4};
  const double phases[kTones] = {0.1, 1.3, -2.2, 0.7};

  dsp::CVec ref(n, dsp::cdouble(0.0, 0.0)), osc(n, dsp::cdouble(0.0, 0.0));
  for (std::size_t t = 0; t < kTones; ++t) {
    dsp::accumulate_tone_reference(std::span<dsp::cdouble>(ref), amps[t],
                                   freqs[t], dt, phases[t]);
    dsp::accumulate_tone(std::span<dsp::cdouble>(osc), amps[t], freqs[t], dt,
                         phases[t]);
  }
  double max_err = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    max_err = std::max(max_err, std::abs(osc[i] - ref[i]));

  dsp::Tone tones[kTones];
  for (std::size_t t = 0; t < kTones; ++t)
    tones[t] = {amps[t], freqs[t], phases[t]};
  dsp::CVec bank(n, dsp::cdouble(0.0, 0.0));
  dsp::accumulate_tones(std::span<dsp::cdouble>(bank), tones, dt);

  SynthCompare c;
  c.n = n;
  c.parity = max_err < 1e-11;
  c.bit_identical =
      std::memcmp(bank.data(), osc.data(), n * sizeof(dsp::cdouble)) == 0;
  dsp::CVec buf(n);
  const auto run = [&](auto&& kernel) {
    return time_us(
        [&] {
          std::fill(buf.begin(), buf.end(), dsp::cdouble(0.0, 0.0));
          for (std::size_t t = 0; t < kTones; ++t)
            kernel(std::span<dsp::cdouble>(buf), amps[t], freqs[t], dt, phases[t]);
          benchmark::DoNotOptimize(buf.data());
        },
        iters);
  };
  const double ref_us = run([](auto... a) { dsp::accumulate_tone_reference(a...); });
  const double osc_us = run([](auto... a) { dsp::accumulate_tone(a...); });
  const double bank_us = time_us(
      [&] {
        std::fill(buf.begin(), buf.end(), dsp::cdouble(0.0, 0.0));
        dsp::accumulate_tones(std::span<dsp::cdouble>(buf), tones, dt);
        benchmark::DoNotOptimize(buf.data());
      },
      iters);
  const double samples = static_cast<double>(n * kTones);
  c.ref_msps = samples / ref_us;  // samples/µs == Msamples/s
  c.osc_msps = samples / osc_us;
  c.bank_msps = samples / bank_us;
  c.speedup = ref_us / osc_us;
  c.bank_speedup = osc_us / bank_us;
  return c;
}

// Real-input FFT: rfft (half-size complex FFT + untangle) vs the
// complex-promoted full transform, same one-sided bins out.
struct RfftCompare {
  std::size_t n = 0;
  double complex_us = 0.0;
  double rfft_us = 0.0;
  double speedup = 0.0;
  bool parity = false;  // max one-sided bin error < 1e-10
};

RfftCompare compare_rfft(std::size_t n, int iters) {
  const auto x = random_real(n);
  RfftCompare c;
  c.n = n;
  const auto full = dsp::fft_real(x);
  const auto one = dsp::rfft(x);
  double max_err = 0.0;
  for (std::size_t k = 0; k < one.size(); ++k)
    max_err = std::max(max_err, std::abs(one[k] - full[k]));
  c.parity = max_err < 1e-10;
  c.complex_us = time_us([&] { benchmark::DoNotOptimize(dsp::fft_real(x)); }, iters);
  c.rfft_us = time_us([&] { benchmark::DoNotOptimize(dsp::rfft(x)); }, iters);
  c.speedup = c.complex_us / c.rfft_us;
  return c;
}

// Real-input periodogram: the PR-2-era implementation (window copy + full
// complex fft_real_padded) vs dsp::periodogram's rfft + scratch-buffer path.
struct PeriodogramCompare {
  std::size_t n = 0, n_fft = 0;
  double old_us = 0.0;
  double new_us = 0.0;
  double speedup = 0.0;
  bool parity = false;  // max relative bin error < 1e-9
};

dsp::RVec periodogram_reference(std::span<const double> x, std::size_t n_fft) {
  const auto w = dsp::make_window(dsp::WindowType::kHann, x.size());
  const auto xw = dsp::apply_window(x, w);
  const auto spec = dsp::fft_real_padded(xw, n_fft);
  const double norm = dsp::window_sum(w);
  dsp::RVec out(n_fft / 2 + 1);
  for (std::size_t k = 0; k < out.size(); ++k)
    out[k] = std::norm(spec[k]) / (norm * norm);
  return out;
}

PeriodogramCompare compare_periodogram(std::size_t n, std::size_t n_fft, int iters) {
  const auto x = random_real(n);
  PeriodogramCompare c;
  c.n = n;
  c.n_fft = n_fft;
  const auto ref = periodogram_reference(x, n_fft);
  const auto fast = dsp::periodogram(x, n_fft);
  double max_rel = 0.0, floor = 0.0;
  for (double v : ref) floor = std::max(floor, v);
  for (std::size_t k = 0; k < ref.size(); ++k)
    max_rel = std::max(max_rel, std::abs(fast[k] - ref[k]) / floor);
  c.parity = max_rel < 1e-9;
  c.old_us = time_us(
      [&] { benchmark::DoNotOptimize(periodogram_reference(x, n_fft)); }, iters);
  c.new_us =
      time_us([&] { benchmark::DoNotOptimize(dsp::periodogram(x, n_fft)); }, iters);
  c.speedup = c.old_us / c.new_us;
  return c;
}

struct Frame {
  std::vector<rf::ChirpParams> chirps;
  radar::ReceiveFrame rx;  ///< IF samples filled once; the chain reuses the rest.
  double fs = 2e6;
};

/// CSSK-style frame: three distinct chirp durations (Bluestein sample counts)
/// with a modulated tag tone, sized like a real uplink frame.
Frame make_frame(std::size_t n_chirps) {
  Frame f;
  Rng rng(42);
  const double durations[] = {60e-6, 75e-6, 96e-6};
  for (std::size_t c = 0; c < n_chirps; ++c) {
    rf::ChirpParams chirp;
    chirp.start_frequency_hz = 9e9;
    chirp.bandwidth_hz = 1e9;
    chirp.duration_s = durations[c % 3];
    chirp.idle_s = 120e-6 - chirp.duration_s;
    const auto n = static_cast<std::size_t>(chirp.duration_s * f.fs);
    dsp::CVec x(n);
    const bool tag_on = (c / 4) % 2 == 0;  // slow-time square wave
    for (std::size_t i = 0; i < n; ++i) {
      const double t = static_cast<double>(i) / f.fs;
      x[i] = dsp::cdouble(std::cos(kTwoPi * 150e3 * t),
                          std::sin(kTwoPi * 150e3 * t));
      if (tag_on)
        x[i] += 0.3 * dsp::cdouble(std::cos(kTwoPi * 210e3 * t),
                                   std::sin(kTwoPi * 210e3 * t));
      x[i] += dsp::cdouble(0.02 * rng.gaussian(), 0.02 * rng.gaussian());
    }
    f.rx.if_samples.push_back(std::move(x));
    f.chirps.push_back(chirp);
  }
  return f;
}

struct FrameResult {
  radar::AlignedProfiles aligned;
  radar::TagDetection detection;
};

FrameResult run_pipeline(Frame& f, const radar::ReceiveChain& chain,
                         const radar::TagDetector& detector, ThreadPool* pool) {
  chain.range_fft(f.chirps, f.rx, pool);
  chain.if_correct(f.rx, pool);
  return {f.rx.aligned, detector.detect(f.rx.aligned, pool)};
}

bool identical(const FrameResult& a, const FrameResult& b) {
  if (a.aligned.rows != b.aligned.rows) return false;
  if (a.aligned.range_grid != b.aligned.range_grid) return false;
  return a.detection.grid_bin == b.detection.grid_bin &&
         a.detection.range_m == b.detection.range_m &&
         a.detection.snr_db == b.detection.snr_db &&
         a.detection.mod_power == b.detection.mod_power;
}

/// Runs the harness, writes the JSON, and returns true iff every parity
/// check (synthesis, rfft, periodogram, frame-pipeline bit-identity) passed.
bool write_bench_json(const std::string& path) {
  std::printf("\n--- DSP engine harness (writing %s) ---\n", path.c_str());

  // Plan cache: repeated same-size FFTs, cached vs table-rebuilding reference.
  const std::vector<std::size_t> sizes = {120, 193, 256, 1024};
  std::vector<FftCompare> ffts;
  for (std::size_t n : sizes) {
    ffts.push_back(compare_fft(n, 2000));
    std::printf("fft n=%-5zu uncached %8.2f us  cached %8.2f us  speedup %.2fx\n",
                ffts.back().n, ffts.back().uncached_us, ffts.back().cached_us,
                ffts.back().speedup);
  }

  // IF-synthesis throughput: sizes span a short CSSK chirp (120 samples at
  // 2 MS/s), a long chirp, and a full tag-side period buffer.
  std::vector<SynthCompare> synths;
  for (std::size_t n : {120u, 400u, 4096u}) {
    synths.push_back(compare_synthesis(n, 2000));
    const SynthCompare& c = synths.back();
    std::printf(
        "synth n=%-5zu ref %7.1f Ms/s  osc %7.1f Ms/s  speedup %.2fx  parity %s"
        "  bank %7.1f Ms/s (%.2fx osc)  bit-identical %s\n",
        c.n, c.ref_msps, c.osc_msps, c.speedup, c.parity ? "ok" : "FAIL",
        c.bank_msps, c.bank_speedup, c.bit_identical ? "yes" : "NO");
  }

  // Real-input FFT vs complex-promoted transform.
  std::vector<RfftCompare> rffts;
  for (std::size_t n : {256u, 1024u, 4096u}) {
    rffts.push_back(compare_rfft(n, 2000));
    std::printf(
        "rfft n=%-5zu complex %8.2f us  rfft %8.2f us  speedup %.2fx  parity %s\n",
        rffts.back().n, rffts.back().complex_us, rffts.back().rfft_us,
        rffts.back().speedup, rffts.back().parity ? "ok" : "FAIL");
  }

  // Real-input periodogram: detector-sized (slow-time) and estimator-sized.
  std::vector<PeriodogramCompare> pgrams;
  pgrams.push_back(compare_periodogram(256, 1024, 1000));
  pgrams.push_back(compare_periodogram(2000, 4096, 500));
  for (const auto& p : pgrams) {
    std::printf(
        "periodogram n=%-5zu nfft=%-5zu old %8.2f us  new %8.2f us  speedup %.2fx  parity %s\n",
        p.n, p.n_fft, p.old_us, p.new_us, p.speedup, p.parity ? "ok" : "FAIL");
  }

  // Frame pipeline thread scaling (64 chirps, full range/Doppler processing).
  Frame frame = make_frame(64);
  const radar::ReceiveChain chain(frame.fs, radar::RangeAlignConfig{},
                                  /*background_subtraction=*/false);
  radar::TagDetectorConfig det_cfg;
  det_cfg.expected_mod_freq_hz = 1000.0;
  const radar::TagDetector detector(det_cfg);

  const auto reference =
      run_pipeline(frame, chain, detector, nullptr);
  // Thread-scaling rows are only meaningful when the host actually has that
  // many cores: on an undersized machine (e.g. a 1-core CI runner) the extra
  // lanes just time-slice one core and the "speedup" column reads as a
  // slowdown. Record the real core count and flag oversubscribed rows.
  const unsigned hardware_threads = std::thread::hardware_concurrency();
  const std::vector<std::size_t> thread_counts = {1, 2, 4};
  std::vector<double> frame_ms;
  std::vector<bool> row_valid;
  bool parity_ok = true;
  for (std::size_t nt : thread_counts) {
    ThreadPool pool(nt);
    ThreadPool* p = nt == 1 ? nullptr : &pool;
    parity_ok = parity_ok &&
                identical(reference, run_pipeline(frame, chain, detector, p));
    const double us = time_us(
        [&] { benchmark::DoNotOptimize(run_pipeline(frame, chain, detector, p)); },
        5);
    frame_ms.push_back(us / 1e3);
    row_valid.push_back(hardware_threads >= nt);
    std::printf("frame 64 chirps, %zu thread(s): %8.2f ms  (speedup %.2fx)%s\n",
                nt, frame_ms.back(), frame_ms.front() / frame_ms.back(),
                row_valid.back() ? "" : "  [invalid: oversubscribed]");
  }
  std::printf("parallel output bit-identical to sequential: %s\n",
              parity_ok ? "yes" : "NO");
  // Headline scaling number: best speedup over *valid* rows only. Reporting
  // an oversubscribed row as the headline would claim parallel speedup a
  // smaller host never saw.
  double best_valid_speedup = 1.0;
  std::size_t excluded_rows = 0;
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    if (row_valid[i])
      best_valid_speedup = std::max(best_valid_speedup, frame_ms.front() / frame_ms[i]);
    else
      ++excluded_rows;
  }
  if (excluded_rows > 0)
    std::fprintf(stderr,
                 "note: %zu thread-scaling row(s) exceed the %u hardware "
                 "thread(s) and are excluded from the headline speedup\n",
                 excluded_rows, hardware_threads);
  std::printf("frame pipeline headline speedup (valid rows): %.2fx\n",
              best_valid_speedup);

  // Telemetry overhead guardrail: the same sequential frame with the obs
  // subsystem off vs on. Off must be indistinguishable from the seed (<2%).
  const bool telemetry_was_on = obs::enabled();
  obs::set_enabled(false);
  const double frame_ms_off = time_us(
      [&] { benchmark::DoNotOptimize(run_pipeline(frame, chain, detector, nullptr)); },
      5) / 1e3;
  obs::set_enabled(true);
  const double frame_ms_on = time_us(
      [&] { benchmark::DoNotOptimize(run_pipeline(frame, chain, detector, nullptr)); },
      5) / 1e3;
  obs::set_enabled(telemetry_was_on);
  const double overhead_frac = frame_ms_on / frame_ms_off - 1.0;
  std::printf("telemetry overhead: off %.2f ms  on %.2f ms  (%+.1f%%)\n",
              frame_ms_off, frame_ms_on, 100.0 * overhead_frac);

  const auto stats = dsp::fft_plan_cache_stats();

  std::ofstream out(path);
  out << "{\n";
  out << "  \"hardware_threads\": " << std::thread::hardware_concurrency() << ",\n";
  out << "  \"fft_plan_cache\": [\n";
  for (std::size_t i = 0; i < ffts.size(); ++i) {
    out << "    {\"n\": " << ffts[i].n
        << ", \"uncached_us\": " << ffts[i].uncached_us
        << ", \"cached_us\": " << ffts[i].cached_us
        << ", \"speedup\": " << ffts[i].speedup << "}"
        << (i + 1 < ffts.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"synthesis\": [\n";
  for (std::size_t i = 0; i < synths.size(); ++i) {
    out << "    {\"n\": " << synths[i].n
        << ", \"ref_msamples_per_s\": " << synths[i].ref_msps
        << ", \"oscillator_msamples_per_s\": " << synths[i].osc_msps
        << ", \"bank_msamples_per_s\": " << synths[i].bank_msps
        << ", \"speedup\": " << synths[i].speedup
        << ", \"bank_speedup\": " << synths[i].bank_speedup
        << ", \"parity\": " << (synths[i].parity ? "true" : "false")
        << ", \"bit_identical\": "
        << (synths[i].bit_identical ? "true" : "false") << "}"
        << (i + 1 < synths.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"rfft\": [\n";
  for (std::size_t i = 0; i < rffts.size(); ++i) {
    out << "    {\"n\": " << rffts[i].n
        << ", \"complex_us\": " << rffts[i].complex_us
        << ", \"rfft_us\": " << rffts[i].rfft_us
        << ", \"speedup\": " << rffts[i].speedup
        << ", \"parity\": " << (rffts[i].parity ? "true" : "false") << "}"
        << (i + 1 < rffts.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"periodogram\": [\n";
  for (std::size_t i = 0; i < pgrams.size(); ++i) {
    out << "    {\"n\": " << pgrams[i].n << ", \"n_fft\": " << pgrams[i].n_fft
        << ", \"old_us\": " << pgrams[i].old_us
        << ", \"new_us\": " << pgrams[i].new_us
        << ", \"speedup\": " << pgrams[i].speedup
        << ", \"parity\": " << (pgrams[i].parity ? "true" : "false") << "}"
        << (i + 1 < pgrams.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"plan_cache_stats\": {\"hits\": " << stats.hits
      << ", \"misses\": " << stats.misses << ", \"plans\": " << stats.plans
      << "},\n";
  out << "  \"frame_pipeline\": {\n";
  out << "    \"chirps\": 64,\n";
  out << "    \"scaling\": [\n";
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    out << "      {\"threads\": " << thread_counts[i]
        << ", \"frame_ms\": " << frame_ms[i]
        << ", \"speedup\": " << frame_ms.front() / frame_ms[i]
        << ", \"valid\": " << (row_valid[i] ? "true" : "false") << "}"
        << (i + 1 < thread_counts.size() ? "," : "") << "\n";
  }
  out << "    ],\n";
  out << "    \"best_valid_speedup\": " << best_valid_speedup << ",\n";
  out << "    \"parity_bit_identical\": " << (parity_ok ? "true" : "false") << "\n";
  out << "  },\n";
  out << "  \"telemetry_overhead\": {\n";
  out << "    \"frame_ms_off\": " << frame_ms_off << ",\n";
  out << "    \"frame_ms_on\": " << frame_ms_on << ",\n";
  out << "    \"overhead_frac\": " << overhead_frac << "\n";
  out << "  }\n";
  out << "}\n";

  bool all_parity = parity_ok;
  for (const auto& s : synths)
    all_parity = all_parity && s.parity && s.bit_identical;
  for (const auto& r : rffts) all_parity = all_parity && r.parity;
  for (const auto& p : pgrams) all_parity = all_parity && p.parity;
  return all_parity;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --force before benchmark::Initialize — it rejects unknown flags.
  bool force = false;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--force") == 0) {
      force = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  argv[argc] = nullptr;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!bench::guard_bench_host("bench_dsp_kernels", force)) return 2;
  // Exit nonzero on any parity failure so CI can assert correctness of the
  // fast paths without depending on (flaky) timing thresholds.
  const bool ok = write_bench_json("BENCH_dsp.json");
  if (!ok) std::fprintf(stderr, "PARITY FAILURE: see harness output above\n");
  return ok ? 0 : 1;
}
