// aesz-snapshots: the paper's own path. AE-SZ models trained in set-up on a
// fixed training split (CESM-CLDHGH 2-D, 32x32 blocks; NYX-temperature
// 3-D, 8x8x8 blocks) compress and decompress held-out snapshots (six
// CESM timesteps, one NYX cube) in one thread at rel 1e-2 and 1e-3. Four
// consecutive held-out CESM timesteps are also appended to an AETC stream
// and one is encoded as AEPR, both with the trained AE-SZ as inner codec,
// so the time-series and preview metrics have an AE-SZ reading too.

#include "core/model_zoo.hpp"
#include "data/synth.hpp"
#include "predictors/registry.hpp"
#include "progressive/progressive.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using namespace aesz;

constexpr double kBounds[] = {1e-2, 1e-3};
constexpr std::size_t kSnapshots = 6;  // held-out CESM snapshots
constexpr int kSnapshotStride = 20;    // timesteps between them
constexpr std::size_t kSeries = 4;   // consecutive held-out CESM timesteps
constexpr std::size_t kNyx = 1;      // held-out NYX snapshots
constexpr std::size_t kNyxN = 32;    // NYX cube edge
constexpr std::size_t kGop = 4;
constexpr double kSeriesEb = 1e-2;
constexpr double kPreviewEb = 1e-3;

std::unique_ptr<AESZ> train_nyx_model(unsigned nproc) {
  std::vector<Field> train;
  for (int t : {54, 48, 36, 30}) {
    train.push_back(synth::nyx_temperature(kNyxN, t, /*seed=*/5));
    train.back().log_transform();
  }
  std::vector<const Field*> ptrs;
  for (const auto& f : train) ptrs.push_back(&f);
  auto model =
      std::make_unique<AESZ>(model_zoo::options_for("NYX"), /*seed=*/1);
  TrainOptions opt;
  opt.epochs = 4;
  opt.batch = 8;
  opt.lr = 2e-3f;
  opt.max_blocks = 256;
  opt.seed = 7;
  set_omp_threads(nproc);
  model->train(ptrs, opt);
  set_omp_threads(1);
  return model;
}

class AeszSnapshots final : public Workload {
 public:
  explicit AeszSnapshots(const Config& cfg) : cfg_(cfg) {}

  void setup(Ctx& ctx) override {
    cesm_ = train_cesm_model(cfg_.nproc);
    nyx_ = train_nyx_model(cfg_.nproc);
    // The AE-SZ ratio of a CESM snapshot drifts by a quarter over a few
    // dozen timesteps (about 27x to 20x at rel 1e-3 over timesteps 50..85),
    // so consecutive snapshots would make the ratio depend on the seed. The
    // snapshots sample timesteps 40..159 evenly instead; the seed shifts
    // them within one stride.
    const int first = 40 + static_cast<int>(cfg_.seed % kSnapshotStride);
    for (std::size_t k = 0; k < kSnapshots; ++k)
      snapshots_.push_back(synth::cesm_cldhgh(
          192, 384, first + kSnapshotStride * static_cast<int>(k)));
    const int t0 = 50 + static_cast<int>(cfg_.seed % 40);
    for (std::size_t k = 0; k < kSeries; ++k)
      series_.push_back(
          synth::cesm_cldhgh(192, 384, t0 + static_cast<int>(k)));
    // The 3-D snapshot does not depend on the seed: the AE wins a varying
    // share of its blocks from one timestep to the next, and the AE
    // decoder's share of decompress time swings with it by more than the
    // bound. The 2-D snapshots carry the seed.
    for (std::size_t k = 0; k < kNyx; ++k) {
      nyx_test_.push_back(synth::nyx_temperature(
          kNyxN, 42 + static_cast<int>(k), /*seed=*/500));
      nyx_test_.back().log_transform();
    }
    order_.resize(kSeries);
    flat_bytes_ = static_cast<double>(
        cesm_->compress(series_[0], ErrorBound::Rel(kPreviewEb)).size());
    round(ctx);  // warm-up
  }

  void reset() override {
    e2e_ = {};
    layer_.clear();
    rounds_ = 0;
  }

  void round(Ctx& ctx) override {
    const std::uint64_t t0 = now_ns();
    ++rounds_;
    crc_streams_.clear();
    // A fresh random read order every round, so the median read averages
    // over orders instead of depending on one.
    order_ = permutation(order_.size(), cfg_.seed * 1000003 + rounds_);
    for (const auto& f : snapshots_)
      for (double eb : kBounds) snapshot(ctx, *cesm_, f, eb);
    for (const auto& f : nyx_test_)
      for (double eb : kBounds) snapshot(ctx, *nyx_, f, eb);
    series(ctx, series_, kSeriesEb, kGop, "AE-SZ", factory(), order_, e2e_,
           layer_, crc_streams_);
    preview(ctx);
    e2e_.rtt_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }

  void end_to_end(Sums& out, double wall_s) override { e2e_.fill(out, wall_s); }

  void per_layer(Ctx& ctx, Sums& out, std::vector<std::string>&) override {
    layer_["util.crc_s"] = layer_["util.crc_bytes"] / crc_rate(crc_streams_);
    finish_layers(layer_, static_cast<double>(rounds_), out);
    // Table VIII rows: the baselines on the same held-out snapshots, one
    // pass after the traced phase (not counted as workload operations).
    for (const char* name : kTable8Codecs) {
      auto codec = CodecRegistry::instance().create(name, 2).value();
      for (const auto* fields : {&snapshots_, &nyx_test_})
        for (const Field& f : *fields)
          for (double eb : kBounds)
            table8_row(ctx, *codec, name, f, eb, out);
    }
  }

 private:
  void snapshot(Ctx& ctx, AESZ& codec, const Field& f, double eb) {
    const double raw = static_cast<double>(f.size() * sizeof(float));
    Bytes stream;
    Expected<Field> recon = Status::error(ErrCode::kInternal, "not run");
    try {
      ctx.op_begin("aesz.compress");
      ctx.call("core.compress", true,
               [&] { stream = codec.compress(f, ErrorBound::Rel(eb)); });
      const double cs = static_cast<double>(ctx.op_end()) * 1e-9;
      e2e_.c_raw += raw;
      e2e_.c_out += static_cast<double>(stream.size());
      e2e_.c_s += cs;
      e2e_.ops += 1;
      if (ctx.tracing()) {
        const auto& st = codec.last_stats();
        layer_["core.ae_blocks"] += static_cast<double>(st.blocks_ae);
        layer_["core.blocks_total"] += static_cast<double>(st.blocks_total);
        layer_["core.latent_bytes"] +=
            static_cast<double>(st.latent_stream_bytes);
        layer_["core.code_bytes"] += static_cast<double>(st.code_stream_bytes);
        layer_["core.unpredictable"] += static_cast<double>(st.unpredictable);
        layer_["util.crc_bytes"] += static_cast<double>(stream.size());
      }
      ctx.maybe_flip(stream);
      ctx.op_begin("aesz.decompress");
      ctx.call("core.decompress", true,
               [&] { recon = codec.decompress(stream); });
      const double ds = static_cast<double>(ctx.op_end()) * 1e-9;
      e2e_.d_raw += raw;
      e2e_.d_s += ds;
      e2e_.ops += 1;
      if (ctx.tracing()) {
        add_codec(layer_, "AE-SZ", raw, static_cast<double>(stream.size()),
                  cs, ds);
        layer_["util.crc_bytes"] += static_cast<double>(stream.size());
        crc_streams_.push_back(stream);
      }
    } catch (const std::exception& e) {
      ctx.fail(false, std::string("AE-SZ snapshot: ") + e.what());
      return;
    }
    if (!recon.ok()) {
      ctx.fail(false, "AE-SZ decompress: " + recon.status().str());
      return;
    }
    Ctx::Quality q;
    if (ctx.check_bound(f, *recon, eb * Ctx::finite_range(f.values()),
                        "AE-SZ snapshot", &q)) {
      e2e_.psnr_sum += q.psnr;
      ++e2e_.psnr_n;
    }
  }

  CodecFactory factory() {
    return [this](const std::string&, int) -> std::unique_ptr<Compressor> {
      return std::make_unique<Borrowed>(*cesm_);
    };
  }

  void preview(Ctx& ctx) {
    const Field& f = series_[0];
    try {
      progressive::ProgressiveWriter::Options opt;
      opt.inner = "AE-SZ";
      opt.factory = factory();
      progressive::ProgressiveWriter writer(opt);
      Bytes stream;
      ctx.op_begin("progressive.encode");
      ctx.call("progressive.encode", true, [&] {
        stream = writer.encode(f, ErrorBound::Rel(kPreviewEb));
      });
      const double s = static_cast<double>(ctx.op_end()) * 1e-9;
      e2e_.ops += 1;
      if (ctx.tracing()) {
        layer_["progressive.encode_s"] += s;
        layer_["~progressive.full_bytes"] += static_cast<double>(stream.size());
        layer_["~progressive.flat_bytes"] += flat_bytes_;
        layer_["util.crc_bytes"] += static_cast<double>(stream.size());
        crc_streams_.push_back(stream);
      }
      previews(ctx, f, stream, kPreviewEb, factory(), e2e_, layer_);
    } catch (const std::exception& e) {
      ctx.fail(false, std::string("AE-SZ preview: ") + e.what());
    }
  }

  Config cfg_;
  std::unique_ptr<AESZ> cesm_, nyx_;
  std::vector<Field> snapshots_, series_, nyx_test_;
  std::vector<std::size_t> order_;
  double flat_bytes_ = 0;  // single-layer AE-SZ stream of the preview field
  std::vector<Bytes> crc_streams_;  // sealed streams of the last round
  E2E e2e_;
  Sums layer_;
  std::size_t rounds_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_aesz_snapshots(const Config& cfg) {
  return std::make_unique<AeszSnapshots>(cfg);
}

}  // namespace perfbench
