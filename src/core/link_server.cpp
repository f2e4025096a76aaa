#include "core/link_server.hpp"

#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "obs/trace.hpp"

namespace bis::core {

namespace {

/// splitmix64 finalizer — scrambles the link index into an independent seed
/// so adjacent links don't get adjacent xoshiro states.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t link_seed(const LinkServerConfig& config, std::size_t link) {
  return config.base.seed ^ mix64(static_cast<std::uint64_t>(link) + 1);
}

SystemConfig link_config(const LinkServerConfig& config, std::size_t link) {
  return link_config(config, link, config.base.make_alphabet());
}

SystemConfig link_config(const LinkServerConfig& config, std::size_t link,
                         const phy::SlopeAlphabet& alphabet) {
  SystemConfig c = config.base;
  c.seed = link_seed(config, link);
  // Inside the server, parallelism comes from the lanes; nested per-stage
  // pools would oversubscribe and change nothing numerically.
  c.dsp_threads = 1;
  // Pin the IF-correction grid to the whole alphabet (see the header doc):
  // max_range_m = min over slots of R_max is always covered by every chirp,
  // so the regrid's min(config, frame cover) resolves to the pinned value
  // for every frame. User-set values are respected.
  const radar::AlphabetExtent extent = c.make_receive_chain().extent(alphabet);
  if (c.if_correction.max_range_m <= 0.0 && std::isfinite(extent.covered_range_m))
    c.if_correction.max_range_m = extent.covered_range_m;
  if (c.if_correction.grid_bins == 0)
    c.if_correction.grid_bins = extent.max_fft_bins;
  return c;
}

std::vector<SequentialLinkResult> run_links_sequential(
    const LinkServerConfig& config, std::size_t frames_per_link) {
  const phy::SlopeAlphabet alphabet = config.base.make_alphabet();
  std::vector<SequentialLinkResult> out(config.n_links);
  for (std::size_t i = 0; i < config.n_links; ++i) {
    LinkSimulator sim(link_config(config, i, alphabet), alphabet);
    Rng payload_rng(config.payload_seed ^ link_seed(config, i));
    phy::Bits bits;
    for (std::size_t f = 0; f < frames_per_link; ++f) {
      bits.clear();
      for (std::size_t b = 0; b < config.bits_per_frame; ++b)
        bits.push_back(payload_rng.coin() ? 1 : 0);
      const UplinkRunResult r = sim.run_uplink(bits, config.downlink_active);
      if (config.collect_bits)
        out[i].decoded_bits.insert(out[i].decoded_bits.end(),
                                   r.decode.bits.begin(), r.decode.bits.end());
    }
    out[i].report = sim.report();
  }
  return out;
}

LinkServer::LinkServer(const LinkServerConfig& config)
    : LinkServer(config, config.base.make_alphabet()) {}

LinkServer::LinkServer(const LinkServerConfig& config,
                       const phy::SlopeAlphabet& shared_alphabet)
    : config_(config), alphabet_(shared_alphabet), lanes_(config.workers) {
  BIS_CHECK(config_.n_links >= 1);
  BIS_CHECK(config_.workers >= 1);
  BIS_CHECK(config_.bits_per_frame >= 1);
  links_.resize(config_.n_links);
  for (std::size_t i = 0; i < config_.n_links; ++i) {
    links_[i].sim = std::make_unique<LinkSimulator>(
        link_config(config_, i, alphabet_), alphabet_);
    links_[i].payload_rng = Rng(config_.payload_seed ^ link_seed(config_, i));
  }
  // Build every window/FFT/regrid plan the alphabet can demand before any
  // frame flows (the shared caches fill once; link 0's config stands in for
  // all links — only the seed differs), and warm this thread's DSP scratch:
  // the caller is a lane in run(). Workers warm their own scratch on
  // startup.
  links_.front().sim->warm_caches();
  try {
    for (std::size_t w = 1; w < config_.workers; ++w)
      threads_.emplace_back([this, w] { worker_main(w); });
  } catch (...) {
    shutdown();  // join the workers already started
    throw;
  }
}

LinkServer::~LinkServer() { shutdown(); }

void LinkServer::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& t : threads_) t.join();
  threads_.clear();
}

void LinkServer::record_error(std::exception_ptr error) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (!error_) error_ = std::move(error);
}

void LinkServer::run_link(std::size_t link, Lane& lane,
                          std::size_t frames_per_link) {
  LinkState& st = links_[link];
  for (std::size_t f = 0; f < frames_per_link; ++f) {
    lane.payload.clear();
    for (std::size_t b = 0; b < config_.bits_per_frame; ++b)
      lane.payload.push_back(st.payload_rng.coin() ? 1 : 0);
    const UplinkRunResult& r =
        st.sim->run_uplink(lane.payload, config_.downlink_active, lane.job);
    if (config_.collect_bits)
      st.decoded_bits.insert(st.decoded_bits.end(), r.decode.bits.begin(),
                             r.decode.bits.end());
  }
  if (on_link_done) on_link_done(link, *st.sim);
}

void LinkServer::run_lane(Lane& lane, std::size_t frames_per_link) {
  for (;;) {
    const std::size_t link = next_link_.fetch_add(1, std::memory_order_relaxed);
    if (link >= links_.size()) return;
    try {
      run_link(link, lane, frames_per_link);
    } catch (...) {
      record_error(std::current_exception());
    }
  }
}

void LinkServer::worker_main(std::size_t lane) {
  BIS_TRACE_SPAN("core.link_server_worker");
  // Size this thread's thread_local DSP scratch to the worst-case chirp
  // before processing frames (the shared plan caches are already warm, so
  // this is a handful of small dry FFTs). A failure surfaces from the next
  // run().
  try {
    links_.front().sim->warm_caches();
  } catch (...) {
    record_error(std::current_exception());
  }
  std::uint64_t seen = 0;
  for (;;) {
    std::size_t frames_per_link = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_.wait(lock, [&] { return stop_ || round_ != seen; });
      if (stop_) return;
      seen = round_;
      frames_per_link = frames_per_link_;
    }
    run_lane(lanes_[lane], frames_per_link);
    const std::lock_guard<std::mutex> lock(mu_);
    if (--busy_workers_ == 0) done_.notify_one();
  }
}

void LinkServer::run(std::size_t frames_per_link) {
  BIS_TRACE_SPAN("core.link_server_run");
  BIS_CHECK(frames_per_link >= 1);
  BIS_CHECK_MSG(!running_.exchange(true, std::memory_order_acquire),
                "LinkServer::run is not reentrant");
  // Every worker checked out of the previous round before it returned, so
  // nobody is claiming while the counter resets.
  next_link_.store(0, std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    frames_per_link_ = frames_per_link;
    busy_workers_ = threads_.size();
    ++round_;
  }
  wake_.notify_all();
  run_lane(lanes_.front(), frames_per_link);
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_.wait(lock, [this] { return busy_workers_ == 0; });
    error = std::exchange(error_, nullptr);
  }
  running_.store(false, std::memory_order_release);
  if (error) std::rethrow_exception(error);
}

}  // namespace bis::core
