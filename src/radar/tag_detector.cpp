#include "radar/tag_detector.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <tuple>
#include <vector>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "dsp/fft.hpp"
#include "dsp/kernels/kernels.hpp"
#include "dsp/matched_filter.hpp"
#include "dsp/peak.hpp"
#include "dsp/window.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bis::radar {

TagDetector::TagDetector(const TagDetectorConfig& config) : config_(config) {
  BIS_CHECK(config_.expected_mod_freq_hz > 0.0);
  BIS_CHECK(config_.duty_cycle > 0.0 && config_.duty_cycle < 1.0);
  BIS_CHECK(config_.slow_time_pad_factor >= 1);
  for (double f : config_.candidate_mod_freqs_hz) BIS_CHECK(f > 0.0);
  self_target_ = TagTarget{config_.expected_mod_freq_hz,
                           config_.candidate_mod_freqs_hz};
}

namespace {

/// Per-thread memo for square-wave signatures. A detector evaluates the same
/// handful of (frequency, block length) pairs on every block of every frame,
/// so after warmup the lookup is a map hit with a stable address — the
/// streaming engine's per-frame loop stays allocation-free. Keyed on every
/// input of square_wave_signature; entry count is bounded by the distinct
/// (config, block size) pairs a thread ever sees (a handful per link set).
const dsp::RVec& cached_signature(double f, double duty, std::size_t count,
                                  double period, std::size_t n_fft,
                                  std::size_t harmonics) {
  using Key =
      std::tuple<double, double, double, std::size_t, std::size_t, std::size_t>;
  thread_local std::map<Key, dsp::RVec> cache;
  const Key key{f, duty, period, count, n_fft, harmonics};
  auto it = cache.find(key);
  if (it == cache.end())
    it = cache
             .emplace(key, dsp::square_wave_signature(f, duty, count, period,
                                                      n_fft, harmonics))
             .first;
  return it->second;
}

/// Entry-major sparse signature bank over the flattened (target, candidate)
/// scoring rows of one slow-time window shape — the operand of
/// kernels::ktagscore. Entries within a row are stored in ascending spectrum-
/// bin order so the kernel's per-row accumulation reproduces
/// signature_score's one-pass loop bit-for-bit; rows shorter than the widest
/// row are padded with (idx 0, weight 0), which contributes exactly +0.0 (all
/// operands of the sums are non-negative, so no −0.0 can arise and adding
/// +0.0 preserves the bits).
struct ScoreBank {
  // Cache key: window shape + the per-row frequencies.
  std::size_t count = 0;
  std::size_t n_fft = 0;
  std::size_t harmonics = 0;
  double period = 0.0;
  double duty = 0.0;
  std::vector<double> freqs;
  std::uint64_t epoch = 0;  ///< The last detect call that resolved it.

  std::size_t entries = 0;            ///< Padded entries per row.
  std::vector<std::uint32_t> idx;     ///< [k·rows + r]: spectrum bin.
  dsp::RVec w;                        ///< [k·rows + r]: signature weight.
  dsp::RVec g;                        ///< [k·rows + r]: 1.0 on support.
  dsp::RVec on_w;                     ///< Per row Σ signature (ascending).
  std::vector<std::size_t> off_n;     ///< Per row: non-DC bins off support.
  std::vector<std::size_t> mod_bin;   ///< Per row: fundamental's FFT bin.
};

/// The signature bank of one window, from the calling thread's pool. A bank
/// is rebuilt only when no pooled bank matches the rows and the window
/// shape, so steady-state detection never rebuilds or allocates. Banks the
/// current call (@p epoch) resolved are not recycled within it, so one
/// detect_slots pass can hold distinct banks while equal windows share one.
const ScoreBank& resolve_bank(std::uint64_t epoch,
                              std::span<const double> freqs, double duty,
                              std::size_t count, double period,
                              std::size_t n_fft, std::size_t harmonics) {
  thread_local std::deque<ScoreBank> pool;
  ScoreBank* spare = nullptr;
  for (ScoreBank& bank : pool) {
    if (bank.count == count && bank.n_fft == n_fft &&
        bank.harmonics == harmonics && bank.period == period &&
        bank.duty == duty && std::ranges::equal(bank.freqs, freqs)) {
      bank.epoch = epoch;
      return bank;
    }
    if (spare == nullptr && bank.epoch != epoch) spare = &bank;
  }
  ScoreBank& bank = spare != nullptr ? *spare : pool.emplace_back();
  bank.epoch = epoch;
  bank.count = count;
  bank.n_fft = n_fft;
  bank.harmonics = harmonics;
  bank.period = period;
  bank.duty = duty;
  bank.freqs.assign(freqs.begin(), freqs.end());

  const std::size_t rows = freqs.size();
  const std::size_t spec_size = n_fft / 2 + 1;
  const double bin_hz = (1.0 / period) / static_cast<double>(n_fft);

  std::vector<const dsp::RVec*> sigs(rows);
  std::vector<std::vector<std::uint32_t>> row_idx(rows);
  bank.on_w.assign(rows, 0.0);
  bank.off_n.assign(rows, 0);
  bank.mod_bin.resize(rows);
  bank.entries = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    sigs[r] = &cached_signature(freqs[r], duty, count, period, n_fft, harmonics);
    const dsp::RVec& sig = *sigs[r];
    for (std::size_t i = 1; i < spec_size; ++i) {  // skip DC
      if (sig[i] > 0.0) {
        row_idx[r].push_back(static_cast<std::uint32_t>(i));
        bank.on_w[r] += sig[i];
      }
    }
    bank.off_n[r] = (spec_size - 1) - row_idx[r].size();
    bank.mod_bin[r] =
        static_cast<std::size_t>(std::llround(freqs[r] / bin_hz));
    bank.entries = std::max(bank.entries, row_idx[r].size());
  }

  bank.idx.assign(bank.entries * rows, 0);
  bank.w.assign(bank.entries * rows, 0.0);
  bank.g.assign(bank.entries * rows, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    const dsp::RVec& sig = *sigs[r];
    for (std::size_t k = 0; k < row_idx[r].size(); ++k) {
      const std::size_t e = k * rows + r;
      bank.idx[e] = row_idx[r][k];
      bank.w[e] = sig[row_idx[r][k]];
      bank.g[e] = 1.0;
    }
  }
  return bank;
}

/// What a slow-time spectrum needs besides its column: the window length,
/// the Hann window, and the rfft plans. Resolved once per window and shared
/// read-only by every bin, so the per-bin loop makes no cache lookups (each
/// lookup takes a process-wide mutex that concurrent detect calls contend
/// on).
struct SpectrumPlan {
  std::size_t count = 0;
  std::size_t n_fft = 0;
  dsp::WindowPtr hann;          ///< double_strict tier.
  dsp::RfftPlanHandle rfft;     ///< double_strict tier.
  dsp::WindowPtrF32 hann_f32;   ///< float32_fast tier.
};

SpectrumPlan spectrum_plan(const TagDetectorConfig& config, std::size_t count) {
  BIS_CHECK(count >= 4);
  SpectrumPlan plan;
  plan.count = count;
  plan.n_fft = dsp::next_power_of_two(count) * config.slow_time_pad_factor;
  if (config.precision == dsp::Precision::kFloat32Fast) {
    plan.hann_f32 = dsp::cached_window_f32(dsp::WindowType::kHann, count);
  } else {
    plan.hann = dsp::cached_window(dsp::WindowType::kHann, count);
    plan.rfft = dsp::RfftPlanHandle(plan.n_fft);
  }
  return plan;
}

/// Slow-time power spectrum of one grid bin over chirps [first,
/// first+plan.count), in per-thread scratch. The windowed column read
/// touches only the window's own rows — in a batched multi-slot frame each
/// slot pays for its window, not the whole concatenated column — and |·| is
/// per-element, so the values are bit-identical to slicing a full-column
/// read.
std::span<const double> spectrum_window(const TagDetectorConfig& config,
                                        const SpectrumPlan& plan,
                                        const AlignedProfiles& profiles,
                                        std::size_t bin, std::size_t first) {
  const std::size_t count = plan.count;
  // This runs once per range bin per window — the detector's hottest loop.
  // thread_local scratch keeps each parallel_for lane allocation-free; every
  // call fully overwrites the buffers, so reuse never leaks state across bins.
  thread_local dsp::RVec power;
  if (config.precision == dsp::Precision::kFloat32Fast) {
    // float32_fast tier: the whole per-bin chain (|·| column, mean removal,
    // Hann, rfft, |·|²) runs in float; the power spectrum converts to the
    // double scoring buffer once at the end.
    thread_local dsp::FVec colf, xwf, powerf;
    thread_local dsp::CVecF specf;
    colf.resize(count);
    profiles.column_magnitude_f32(bin, first, count, colf);
    float mean = 0.0f;
    for (float x : colf) mean += x;
    mean /= static_cast<float>(count);
    const dsp::FVec& wf = *plan.hann_f32;
    xwf.resize(count);
    for (std::size_t i = 0; i < count; ++i) xwf[i] = (colf[i] - mean) * wf[i];
    dsp::rfft_padded_into_f32(xwf, plan.n_fft, specf);
    powerf.resize(specf.size());
    dsp::kernels::knorm(specf, powerf);
    power.resize(powerf.size());
    for (std::size_t i = 0; i < powerf.size(); ++i)
      power[i] = static_cast<double>(powerf[i]);
    return power;
  }
  thread_local dsp::RVec col, xw;
  thread_local dsp::CVec spec;
  col.resize(count);
  profiles.column_magnitude(bin, first, count, col);
  // Static clutter residue is DC in slow time; remove the mean before the
  // FFT so the modulation tone dominates. Fused mean-removal + Hann window
  // evaluates exactly what remove_dc + apply_window computed.
  double mean = 0.0;
  for (double x : col) mean += x;
  mean /= static_cast<double>(count);
  const dsp::RVec& w = *plan.hann;
  xw.resize(count);
  for (std::size_t i = 0; i < count; ++i) xw[i] = (col[i] - mean) * w[i];
  // Real-input fast path: the one-sided rfft is all this ever read from the
  // full complex transform.
  plan.rfft(xw, spec);
  power.resize(spec.size());
  dsp::kernels::knorm(spec, power);
  return power;
}

/// One slow-time integration window of the scoring core: chirps [first,
/// first+spectrum.count) scored against the `rows` (target, candidate) rows
/// of targets [target_first, target_first+n_targets). detect_many slides one
/// window across its blocks, detect_slots adds one per MAC slot.
struct Window {
  std::size_t first = 0;
  std::size_t target_first = 0;
  std::size_t n_targets = 0;
  std::size_t rows = 0;
  std::size_t tag_rows_first = 0;  ///< Into Core::tag_rows.
  std::size_t blk_first = 0;       ///< Into Core's blk matrices.
  SpectrumPlan spectrum;
  const ScoreBank* bank = nullptr;
};

/// The calling thread's scoring-core state for one detect call. Every call
/// rebuilds all of it, so reuse never leaks state across calls, and the
/// streaming engine's steady state allocates nothing.
struct Core {
  std::vector<Window> windows;
  std::vector<double> row_freqs;  ///< Every window's rows, in order.
  /// Per window: each target's first row plus the end, window-relative.
  std::vector<std::size_t> tag_rows;
  /// Per window: tag-major [t·n_bins + b] per-window scores.
  dsp::RVec blk_metric, blk_tone, blk_score;
  std::size_t blk_total = 0;
  /// One window's fused per-tag rows (tag-major, window-relative tags).
  dsp::RVec metric, tone, score;
  std::uint64_t epoch = 0;  ///< Detect calls made on this thread.
};

Core& begin_core() {
  thread_local Core core;
  core.windows.clear();
  core.row_freqs.clear();
  core.tag_rows.clear();
  core.blk_total = 0;
  ++core.epoch;
  return core;
}

/// Appends a window over chirps [first, first+count) for @p targets (the
/// call's targets from @p target_first on) and resolves its spectrum plan
/// and signature bank.
void add_window(Core& core, const TagDetectorConfig& config,
                const AlignedProfiles& profiles,
                std::span<const TagTarget> targets, std::size_t target_first,
                std::size_t first, std::size_t count) {
  Window w;
  w.first = first;
  w.target_first = target_first;
  w.n_targets = targets.size();
  w.tag_rows_first = core.tag_rows.size();
  w.blk_first = core.blk_total;
  core.blk_total += w.n_targets * profiles.n_bins();
  const std::size_t row_first = core.row_freqs.size();
  for (const TagTarget& target : targets) {
    core.tag_rows.push_back(core.row_freqs.size() - row_first);
    std::span<const double> cands(target.candidate_mod_freqs_hz);
    if (cands.empty())
      cands = std::span<const double>(&target.expected_mod_freq_hz, 1);
    for (double f : cands) {
      BIS_CHECK(f > 0.0);
      core.row_freqs.push_back(f);
    }
  }
  core.tag_rows.push_back(core.row_freqs.size() - row_first);
  w.rows = core.row_freqs.size() - row_first;
  w.spectrum = spectrum_plan(config, count);
  // The frame's slow-time cadence is the first chirp's duration + idle, and
  // under CSSK the slope draw perturbs that sum's last ULP — a different
  // double per frame for the same physical cadence, which would mint a new
  // signature-cache key (and rebuild the score bank) every call. Quantize to
  // 1 ps: a pure function of the value, so scoring stays bit-identical
  // across threads and call orders, and each physical cadence maps to one
  // cache key.
  const double chirp_period =
      std::round(profiles.chirp_period_s * 1e12) / 1e12;
  w.bank = &resolve_bank(
      core.epoch,
      std::span<const double>(core.row_freqs.data() + row_first, w.rows),
      config.duty_cycle, count, chirp_period, w.spectrum.n_fft,
      config.n_harmonics);
  core.windows.push_back(std::move(w));
}

/// Scores one range bin of one window: the slow-time tone power at each
/// row's frequency, gated by the square-wave signature correlation and by
/// tone *prominence* over the bin's own spectral floor (broadband clutter
/// residue under CSSK slope variation is flat, a tag tone is not). The
/// spectrum and its total non-DC power are shared by every row. Scores land
/// in the window's tag-major [t·n_bins + b] blk matrices, and a call writes
/// only bin @p b's slots.
void score_bin(const TagDetectorConfig& config,
               const AlignedProfiles& profiles, Core& core, const Window& w,
               std::size_t b) {
  if (profiles.range_grid[b] < config.min_range_m) return;
  const std::size_t* const tag_rows = core.tag_rows.data() + w.tag_rows_first;
  const auto spectrum =
      spectrum_window(config, w.spectrum, profiles, b, w.first);
  double total = 0.0;
  for (std::size_t i = 1; i < spectrum.size(); ++i) total += spectrum[i];

  const ScoreBank& bank = *w.bank;
  thread_local dsp::RVec on, son;
  on.resize(w.rows);
  son.resize(w.rows);
  dsp::kernels::ktagscore(spectrum, bank.idx, bank.w, bank.g, w.rows, on,
                          son);

  // The median floor is read only by rows past the signature gate, and most
  // bins have none, so it is computed on first use (0 = not yet computed; a
  // computed floor is ≥ 1e-30, the same value wherever it is computed).
  double floor = 0.0;
  std::size_t t = 0;
  for (std::size_t r = 0; r < w.rows; ++r) {
    while (r >= tag_rows[t + 1]) ++t;
    const std::size_t mod_bin = bank.mod_bin[r];
    double p = 0.0;
    for (long long k = static_cast<long long>(mod_bin) - 1;
         k <= static_cast<long long>(mod_bin) + 1; ++k) {
      if (k >= 0 && k < static_cast<long long>(spectrum.size()))
        p = std::max(p, spectrum[static_cast<std::size_t>(k)]);
    }
    const double s = dsp::signature_score_from(on[r], bank.on_w[r], son[r],
                                               total, bank.off_n[r]);
    const std::size_t slot = w.blk_first + t * profiles.n_bins() + b;
    core.blk_tone[slot] = std::max(core.blk_tone[slot], p);
    core.blk_score[slot] = std::max(core.blk_score[slot], s);
    if (s < config.min_signature_score) continue;
    if (floor == 0.0)
      floor = std::max(bis::median(std::span<const double>(
                           spectrum.data() + 1, spectrum.size() - 1)),
                       1e-30);
    if (p < config.min_tone_prominence * floor) continue;
    core.blk_metric[slot] = std::max(core.blk_metric[slot], p * s);
  }
}

/// Scores every (window, range bin) pair into the windows' blk matrices as
/// one flat map across @p pool. Each item writes only its own bin's slots,
/// so the result is bit-identical for any thread count.
void score_windows(Core& core, const TagDetectorConfig& config,
                   const AlignedProfiles& profiles, ThreadPool* pool) {
  const std::size_t n_bins = profiles.n_bins();
  core.blk_metric.assign(core.blk_total, 0.0);
  core.blk_tone.assign(core.blk_total, 0.0);
  core.blk_score.assign(core.blk_total, 0.0);
  // Workers reach the *calling* thread's core through the captured
  // reference (naming a thread_local inside the lambda would give a pool
  // worker its own, empty, instance); windows, plans and banks are read-only.
  bis::parallel_for(
      pool, 0, core.windows.size() * n_bins, [&](std::size_t item) {
        score_bin(config, profiles, core, core.windows[item / n_bins],
                  item % n_bins);
      });
}

/// Folds window @p w's scores into the fused per-tag rows, first zeroing
/// them when @p fresh: each tag's metric row is normalized by its own peak
/// and summed (a tag bin scores in every block, a clutter fluke rarely
/// repeats), tone and score rows max-merge.
void fuse_window(Core& core, const Window& w, std::size_t n_bins, bool fresh) {
  if (fresh) {
    core.metric.assign(w.n_targets * n_bins, 0.0);
    core.tone.assign(w.n_targets * n_bins, 0.0);
    core.score.assign(w.n_targets * n_bins, 0.0);
  }
  for (std::size_t t = 0; t < w.n_targets; ++t) {
    const std::size_t blk = w.blk_first + t * n_bins, row = t * n_bins;
    const std::span<const double> bm(core.blk_metric.data() + blk, n_bins);
    const double peak = *std::max_element(bm.begin(), bm.end());
    const double norm = peak > 0.0 ? 1.0 / peak : 0.0;
    dsp::kernels::kaxpy(norm, bm,
                        std::span<double>(core.metric.data() + row, n_bins));
    for (std::size_t b = 0; b < n_bins; ++b) {
      core.tone[row + b] = std::max(core.tone[row + b], core.blk_tone[blk + b]);
      core.score[row + b] =
          std::max(core.score[row + b], core.blk_score[blk + b]);
    }
  }
}

/// Per-tag detection epilogue shared by detect_many and detect_slots: peak
/// pick on the fused metric, noise floor from the other bins' tone power,
/// SNR threshold, sub-bin range refinement, and the obs gauges.
void finalize_tag(const TagDetectorConfig& config,
                  const AlignedProfiles& profiles,
                  std::span<const double> metric_row,
                  std::span<const double> tone_row,
                  std::span<const double> score_row, TagDetection& det) {
  const std::size_t n_bins = profiles.n_bins();
  const dsp::Peak peak = dsp::find_peak(metric_row);
  if (metric_row[peak.index] <= 0.0) return;

  static obs::Gauge& snr_gauge =
      obs::Registry::instance().gauge("bis.radar.detector_snr_db");
  static obs::Histogram& snr_hist = obs::Registry::instance().histogram(
      "bis.radar.detector_snr_hist_db",
      {0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 40.0, 60.0});
  static obs::Counter& detections =
      obs::Registry::instance().counter("bis.radar.detections");

  // Noise floor: median modulation-tone power across the *other* range
  // bins (same slow-time frequencies, no tag). Using off-tone bins of the
  // tag's own spectrum would measure the square wave's spectral leakage
  // instead of the noise, saturating the SNR estimate.
  thread_local std::vector<double> noise_bins;
  noise_bins.clear();
  noise_bins.reserve(n_bins);
  const std::size_t exclusion = 4;
  for (std::size_t b = 0; b < n_bins; ++b) {
    if (profiles.range_grid[b] < config.min_range_m) continue;
    const auto dist = b > peak.index ? b - peak.index : peak.index - b;
    if (dist <= exclusion) continue;
    noise_bins.push_back(tone_row[b]);
  }
  const double noise = noise_bins.empty() ? 1e-30 : bis::median(noise_bins);
  const double snr_db = to_db(std::max(tone_row[peak.index], 1e-30) /
                              std::max(noise, 1e-30));

  det.grid_bin = peak.index;
  det.mod_power = tone_row[peak.index];
  det.signature_score = score_row[peak.index];
  det.snr_db = snr_db;
  det.found = snr_db >= config.detection_threshold_db;

  snr_gauge.set(snr_db);
  snr_hist.observe(std::max(snr_db, 0.0));
  if (det.found) detections.add();

  // Sub-bin range refinement on the detection metric.
  const double grid_step =
      profiles.range_grid.size() >= 2
          ? profiles.range_grid[1] - profiles.range_grid[0]
          : 0.0;
  det.range_m =
      profiles.range_grid[peak.index] +
      (peak.refined_index - static_cast<double>(peak.index)) * grid_step;
}

/// Runs the per-tag epilogue on the fused rows of window @p w, in tag order
/// (metrics are recorded in the order a sequential per-tag loop would).
void finalize_window(const Core& core, const TagDetectorConfig& config,
                     const AlignedProfiles& profiles, const Window& w,
                     std::span<TagDetection> out) {
  const std::size_t n_bins = profiles.n_bins();
  for (std::size_t t = 0; t < w.n_targets; ++t) {
    const std::size_t row = t * n_bins;
    finalize_tag(config, profiles, {core.metric.data() + row, n_bins},
                 {core.tone.data() + row, n_bins},
                 {core.score.data() + row, n_bins}, out[w.target_first + t]);
  }
}

}  // namespace

std::span<const double> TagDetector::spectrum_into(
    const AlignedProfiles& profiles, std::size_t bin, std::size_t first,
    std::size_t count) const {
  const std::size_t n_chirps = profiles.n_chirps();
  BIS_CHECK(first < n_chirps);
  if (count == 0) count = n_chirps - first;
  BIS_CHECK(first + count <= n_chirps);
  return spectrum_window(config_, spectrum_plan(config_, count), profiles,
                         bin, first);
}

dsp::RVec TagDetector::slow_time_spectrum(const AlignedProfiles& profiles,
                                          std::size_t bin, std::size_t first,
                                          std::size_t count) const {
  const auto s = spectrum_into(profiles, bin, first, count);
  return dsp::RVec(s.begin(), s.end());
}

TagDetection TagDetector::detect(const AlignedProfiles& profiles,
                                 ThreadPool* pool) const {
  TagDetection det;
  detect_many(profiles, std::span<const TagTarget>(&self_target_, 1),
              std::span<TagDetection>(&det, 1), pool);
  return det;
}

std::vector<TagDetection> TagDetector::detect_many(
    const AlignedProfiles& profiles, std::span<const TagTarget> targets,
    ThreadPool* pool) const {
  std::vector<TagDetection> out(targets.size());
  detect_many(profiles, targets, out, pool);
  return out;
}

void TagDetector::detect_many(const AlignedProfiles& profiles,
                              std::span<const TagTarget> targets,
                              std::span<TagDetection> out,
                              ThreadPool* pool) const {
  BIS_TRACE_SPAN("radar.detect_many");
  BIS_CHECK(out.size() == targets.size());
  for (auto& det : out) det = TagDetection{};
  if (targets.empty()) return;
  if (profiles.n_chirps() < 8 || profiles.n_bins() < 4) return;
  const std::size_t n_bins = profiles.n_bins();

  // Under FSK the tag hops tones per symbol block, so integrate per block
  // and fuse the (normalized) per-block metrics. Every block has the same
  // length and rows, so one window is resolved and slid across the frame:
  // each block is scored into the window's per-block matrices and folded
  // before the next.
  std::size_t block = config_.block_chirps;
  if (block == 0 || block > profiles.n_chirps()) block = profiles.n_chirps();
  const std::size_t n_blocks = profiles.n_chirps() / block;

  Core& core = begin_core();
  add_window(core, config_, profiles, targets, 0, 0, block);
  for (std::size_t blk = 0; blk < n_blocks; ++blk) {
    core.windows[0].first = blk * block;
    score_windows(core, config_, profiles, pool);
    fuse_window(core, core.windows[0], n_bins, blk == 0);
  }
  finalize_window(core, config_, profiles, core.windows[0], out);
}

void TagDetector::detect_slots(const AlignedProfiles& profiles,
                               std::span<const SlotSpan> slots,
                               std::span<const TagTarget> targets,
                               std::span<TagDetection> out,
                               ThreadPool* pool) const {
  BIS_TRACE_SPAN("radar.detect_slots");
  BIS_CHECK(out.size() == targets.size());
  for (auto& det : out) det = TagDetection{};
  if (slots.empty()) return;
  const std::size_t n_bins = profiles.n_bins();
  if (n_bins < 4) return;

  // One window per slot, all scored in one flat pass. A slot's window holds
  // exactly the rows detect_many would build for that slot's standalone
  // frame. Slots shorter than 8 chirps (or with no targets) keep zeroed
  // detections — mirroring detect_many's whole-frame guard.
  Core& core = begin_core();
  for (const SlotSpan& slot : slots) {
    BIS_CHECK(slot.first_chirp + slot.n_chirps <= profiles.n_chirps());
    BIS_CHECK(slot.first_target + slot.n_targets <= targets.size());
    // Each slot is one integration block: block_chirps must not split it.
    BIS_CHECK(config_.block_chirps == 0 ||
              config_.block_chirps >= slot.n_chirps);
    if (slot.n_chirps < 8 || slot.n_targets == 0) continue;
    add_window(core, config_, profiles,
               targets.subspan(slot.first_target, slot.n_targets),
               slot.first_target, slot.first_chirp, slot.n_chirps);
  }
  if (core.windows.empty()) return;
  score_windows(core, config_, profiles, pool);

  // Per-slot fuse + epilogue, sequential in (slot, tag) order: the
  // single-block case of detect_many's fusion, so the results are
  // bit-identical to per-slot detect_many calls.
  for (const Window& w : core.windows) {
    fuse_window(core, w, n_bins, /*fresh=*/true);
    finalize_window(core, config_, profiles, w, out);
  }
}

}  // namespace bis::radar
