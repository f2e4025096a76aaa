#pragma once

/// @file link_simulator.hpp
/// End-to-end BiScatter link simulation: radar ⇄ channel ⇄ tag. This is the
/// main experiment engine behind every evaluation figure:
///   - run_downlink: radar packet → CSSK frame → propagation → tag frontend
///     → tag decoder → bits (Figs. 12, 13, 14, 17);
///   - run_uplink: tag modulation → backscatter → radar IF → range
///     processing → IF correction → detection/localization → uplink bits
///     (Figs. 15, 16);
///   - run_integrated: both in one frame under the ISAC schedule — the
///     radar, which assigned the tag's modulation pattern, places downlink
///     symbols on chirps the tag will absorb, so two-way communication and
///     sensing share every frame (paper §3.3).

#include <memory>
#include <span>

#include "common/thread_pool.hpp"
#include "core/system_config.hpp"
#include "obs/report.hpp"
#include "phy/ber.hpp"
#include "radar/if_synthesizer.hpp"
#include "radar/receive_chain.hpp"
#include "radar/tag_detector.hpp"
#include "radar/uplink_decoder.hpp"
#include "tag/tag_node.hpp"

namespace bis::core {

struct DownlinkRunResult {
  bool locked = false;     ///< Tag found the preamble.
  bool crc_ok = false;     ///< Parsed packet passed CRC.
  bool address_match = false;
  std::size_t bit_errors = 0;     ///< Raw framed-bit errors (lost packet =
                                  ///< every bit counted).
  std::size_t bits_compared = 0;
  tag::DownlinkDecodeResult decode;
  phy::ParsedPacket parsed;
};

struct UplinkRunResult {
  radar::TagDetection detection;
  radar::UplinkDecodeResult decode;
  std::size_t bit_errors = 0;
  std::size_t bits_compared = 0;
  double range_error_m = 0.0;       ///< |estimated − true| when detected.
  double snr_processed_db = 0.0;    ///< Detector SNR (incl. processing gain).
  double snr_per_chirp_db = 0.0;    ///< Processed SNR minus FFT gains — the
                                    ///< quantity comparable to Fig. 15.
  bool downlink_active = false;     ///< CSSK slope variation was on.
};

struct IsacRunResult {
  DownlinkRunResult downlink;
  UplinkRunResult uplink;
};

/// One uplink frame flowing through the stage API. The job owns every buffer
/// the stages touch (inputs, per-stage intermediates, result), so a frame
/// processed with warm capacities allocates nothing — a LinkServer lane
/// reuses one job for every frame it runs.
struct UplinkFrameJob {
  // Inputs, filled by prepare_uplink_frame.
  phy::Bits sent_bits;
  bool downlink_active = false;
  std::vector<rf::ChirpParams> chirps;
  std::vector<int> tag_states;
  // Per-stage intermediates.
  radar::ReceiveFrame frame;
  double mean_samples = 0.0;
  // Output.
  UplinkRunResult result;

  /// Clear the result's vectors (capacity retained) and zero its scalars.
  /// (Assigning a fresh UplinkRunResult would drop the vector capacity and
  /// put an allocation back on the steady-state path.)
  void reset_result();
};

/// The process-wide DSP cache and noise counters at one instant.
/// LinkSimulator::report() states its cache and noise activity as the delta
/// since a baseline taken when the simulator was built, so one simulator's
/// report does not count the warm-up of the engines built before it.
struct CacheBaseline {
  std::uint64_t fft_hits = 0;
  std::uint64_t fft_misses = 0;
  std::uint64_t regrid_hits = 0;
  std::uint64_t regrid_misses = 0;
  std::uint64_t awgn_samples = 0;

  static CacheBaseline capture();

  /// Fill @p report's DSP-cache fields: hit/miss and noise-sample deltas
  /// since this baseline, plus the caches' current sizes.
  void fill(obs::RunReport& report) const;
};

class LinkSimulator {
 public:
  explicit LinkSimulator(const SystemConfig& config);

  /// Shares a precomputed slope alphabet instead of rebuilding it. The
  /// alphabet depends only on the radar/packet/tag parameters (not on seed,
  /// range, or SNR), so sweep runners construct it once per distinct
  /// configuration and hand it to every grid point (see core::SweepRunner).
  /// The tag takes its slot layout and uplink cadence from this alphabet, so
  /// it must equal config.make_alphabet(); behaviour is then identical to
  /// the single-argument constructor.
  LinkSimulator(const SystemConfig& config, const phy::SlopeAlphabet& shared_alphabet);

  /// One-time tag calibration at config.calibration_range_m (paper §5).
  void calibrate_tag();

  /// calibrate_tag() for every simulator in @p sims, as one
  /// tag::TagNode::calibrate_batch on @p pool. The simulators must be
  /// distinct and share one slope alphabet and tag ADC rate.
  static void calibrate_tags(std::span<LinkSimulator* const> sims,
                             ThreadPool* pool);

  /// Send one downlink packet (tag absorptive throughout — the sequential
  /// downlink mode).
  DownlinkRunResult run_downlink(const phy::Bits& payload);

  /// Send uplink bits across one frame while the radar senses. When
  /// @p downlink_active, the radar simultaneously varies chirp slopes
  /// (random payload), exercising the IF-correction path (Fig. 16's
  /// "during communication" condition).
  UplinkRunResult run_uplink(const phy::Bits& bits, bool downlink_active);

  /// The same frame run in the caller's @p job, whose warm buffers it reuses
  /// (a LinkServer lane keeps one job for every frame it runs, so its frames
  /// allocate nothing). Every stage is timed, and the whole frame — prepare
  /// through fold — as obs::Stage::kUplinkFrame. The result lives in
  /// job.result until the job's next frame.
  const UplinkRunResult& run_uplink(const phy::Bits& bits, bool downlink_active,
                                    UplinkFrameJob& job);

  /// Fully integrated frame: downlink packet + uplink bits + localization.
  IsacRunResult run_integrated(const phy::Bits& downlink_payload,
                               const phy::Bits& uplink_bits);

  // ---- Uplink stage API ----
  //
  // An uplink frame advances prepare → synthesize → range_fft → if_correct
  // → detect → decode → fold; run_uplink drives exactly this sequence.
  // prepare/synthesize/fold mutate per-link state (tag modulator, RNG,
  // report) and must run frame-ordered on one thread at a time per link; the
  // const stages are pure per-job maps, safe on any thread. Running the
  // stages in order on one job reproduces run_uplink bit-for-bit.

  /// Queue @p bits on the tag, draw the frame's chirp schedule, and fill the
  /// job's inputs. Consumes per-link RNG exactly like run_uplink.
  void prepare_uplink_frame(const phy::Bits& bits, bool downlink_active,
                            UplinkFrameJob& job);
  /// Synthesize per-chirp IF returns (forks the per-link RNG once — must
  /// follow prepare_uplink_frame for the same frame immediately in RNG
  /// order).
  void stage_synthesize(UplinkFrameJob& job);
  void stage_range_fft(UplinkFrameJob& job, ThreadPool* pool) const;
  void stage_if_correct(UplinkFrameJob& job, ThreadPool* pool) const;
  void stage_detect(UplinkFrameJob& job, ThreadPool* pool) const;
  void stage_decode(UplinkFrameJob& job) const;
  /// Accumulate the finished frame into the link's report (frame-ordered).
  void fold_uplink_frame(const UplinkFrameJob& job);

  /// radar::ReceiveChain::warm over the alphabet: pre-build every shared
  /// plan a frame can ask for and grow the calling thread's DSP scratch to
  /// the worst-case chirp. Touches no RNG or report state. The streaming
  /// engine calls this from each lane so steady-state frames never miss a
  /// plan cache, which would allocate. Safe to call concurrently.
  void warm_caches() const;

  // ---- Analytic link quantities (benchmark axes) ----

  /// One-way received power at the tag decoder input [dBm].
  double downlink_power_at_tag_dbm(double range_m) const;

  /// Per-sample tone SNR at the envelope-detector output [dB] — the
  /// "equivalent SNR" axis of Figs. 13/14/17.
  double downlink_envelope_snr_db(double range_m) const;

  /// Two-way backscatter power at the radar RX [dBm].
  double uplink_power_at_radar_dbm(double range_m) const;

  const phy::SlopeAlphabet& alphabet() const { return alphabet_; }
  tag::TagNode& tag_node() { return tag_; }
  const SystemConfig& config() const { return config_; }

  /// Incident multipath set at the tag for a given range (LoS + channel
  /// taps), in frontend units.
  std::vector<tag::IncidentPath> incident_paths(double range_m) const;

  // ---- Telemetry (see obs/report.hpp) ----

  /// The link's outcomes accumulated across every run_* call on this
  /// simulator — the one record of them — with DSP-cache and noise deltas
  /// captured at call time and the report keyed by config_key(config()).
  /// Always maintained; stage times go to the `bis.stage.<stage>_ns`
  /// histograms while telemetry is enabled (obs::set_enabled or BIS_TRACE).
  obs::RunReport report() const;

 private:
  UplinkRunResult process_uplink_frame(const std::vector<rf::ChirpParams>& chirps,
                                       const std::vector<int>& tag_states,
                                       const phy::Bits& sent_bits,
                                       bool downlink_active);

  /// Drive a job whose inputs are filled through every timed stage and fold
  /// it into job.result and the report. Backs run_uplink and
  /// process_uplink_frame.
  void run_prepared_frame(UplinkFrameJob& job);

  /// The result of the tag's @p reception of @p packet, its framed-bit
  /// errors counted (a lost packet counts every bit), folded into report_
  /// (shared by run_downlink and run_integrated).
  DownlinkRunResult finish_downlink(tag::TagNode::DownlinkReception reception,
                                    const phy::DownlinkPacket& packet);

  SystemConfig config_;
  phy::SlopeAlphabet alphabet_;
  Rng rng_;
  tag::TagNode tag_;
  std::vector<radar::IfReturn> scene_;  ///< Office clutter, then the tag,
                                        ///< whose amplitude each chirp sets.
  double tag_amplitude_v_ = 0.0;        ///< The tag's fully reflective return.
  radar::ReceiveChain chain_;
  radar::AlphabetExtent extent_;  ///< prepare_uplink_frame reserves job
                                  ///< buffers at this worst case.
  radar::TagDetector uplink_detector_;   ///< Shared across frames — the
                                         ///< detector config is fixed by the
                                         ///< tag's uplink config.
  radar::UplinkDecoder uplink_decoder_;
  std::unique_ptr<ThreadPool> owned_pool_;  ///< When config_.dsp_threads > 1.
  ThreadPool* pool_ = nullptr;              ///< nullptr = sequential.
  UplinkFrameJob seq_job_;  ///< Reused by the sequential run_* path.
  obs::RunReport report_;                   ///< Accumulated run telemetry.
  CacheBaseline cache_baseline_;            ///< Taken at construction.
};

/// Resolve a dsp_threads setting (see SystemConfig) to the pool the frame
/// stages should use: nullptr for sequential, the shared hardware-sized
/// pool for 0, or a freshly owned pool for an explicit lane count.
ThreadPool* resolve_dsp_pool(std::size_t dsp_threads,
                             std::unique_ptr<ThreadPool>& owned);

/// Incident multipath set at the tag for a given range (LoS + channel taps),
/// in frontend units — the free-function form of
/// LinkSimulator::incident_paths, bit-identical to it.
std::vector<tag::IncidentPath> incident_paths_for(const SystemConfig& config,
                                                  double range_m);

/// The fixed (non-data-bearing) sensing slot of a CSSK alphabet — the middle
/// data symbol, the slope every pure sensing chirp uses.
std::size_t fixed_sensing_slot(const phy::SlopeAlphabet& alphabet);

/// The chirps of one sensing frame, written into @p out: with
/// @p downlink_active each chirp carries a data slot drawn uniformly from
/// @p rng (a random CSSK payload, one draw per chirp), otherwise every chirp
/// is the fixed sensing slot and @p rng is not touched.
void draw_sensing_chirps(const phy::SlopeAlphabet& alphabet,
                         std::size_t n_chirps, bool downlink_active, Rng& rng,
                         std::vector<rf::ChirpParams>& out);

/// Two-way backscatter amplitude (volts at the radar ADC) of a tag at
/// @p range_m under @p base's link budget, evaluated at the band center.
double tag_backscatter_amplitude(const SystemConfig& base, double range_m);

/// The static office-clutter prefix of a sensing scene, link-budget scaled.
/// Every engine builds its scene on this prefix, so a tag return sits on the
/// same clutter floor in all of them.
std::vector<radar::IfReturn> clutter_returns(const SystemConfig& base);

}  // namespace bis::core
