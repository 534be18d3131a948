// service-mixed: an in-process Server behind the EventServer over TCP
// loopback, as aesz_server runs it, serving a trained AE-SZ model. A closed
// loop of connections, each waiting for its replies the way simulation
// ranks wait on a checkpoint write, sends many small requests: SZ2.1 and
// ZFP compress and decompress, pipelined single-block AE-SZ compress (the
// batcher), read-partial on an AEPR stream (decode-free: pure service
// overhead), and stream-session open/append/read/close. Framing, parsing,
// queueing and batch waits dominate here.
//
// Threads plus connections stay within nproc: nproc - 1 connections (each
// driven by one client thread) and one server worker. The requests are
// small, so one worker keeps up; more connections give the run enough
// requests for a p99 with ten samples beyond it.

#include <unistd.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <thread>

#include "core/model_zoo.hpp"
#include "data/synth.hpp"
#include "harness.hpp"
#include "predictors/registry.hpp"
#include "progressive/progressive.hpp"
#include "service/client.hpp"
#include "service/event_loop.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"
#include "temporal/temporal.hpp"

namespace perfbench {
namespace {

using namespace aesz;
namespace svc = aesz::service;

constexpr double kEb = 1e-3;        // SZ2.1 / ZFP fields and sessions
constexpr double kAeEb = 1e-2;      // AE-SZ blocks
constexpr std::size_t kSmall = 6;   // small fields per codec per round
constexpr int kSmallStride = 20;    // CESM timesteps between them
constexpr std::size_t kAeBlocks = 4;  // pipelined AE-SZ requests per round
constexpr std::size_t kFrames = 4;  // session timesteps
constexpr std::size_t kReads = 2;   // session timestep reads per round
constexpr std::size_t kGop = 4;
const char* const kCodecs[] = {"SZ2.1", "ZFP"};

enum Kind : int {
  kCompress, kDecompress, kCompressAesz, kReadPartial,
  kOpen, kAppend, kReadTs, kClose, kKinds
};
const char* const kKindNames[kKinds] = {
    "compress",    "decompress",      "compress_aesz", "read_partial",
    "open_stream", "append_timestep", "read_timestep", "close_stream"};

struct Conn {
  std::unique_ptr<svc::TcpTransport> transport;
  std::unique_ptr<svc::Client> client;
  E2E e2e;
  std::array<std::vector<double>, kKinds> rtt_ms;
  Sums layer;
  std::size_t rounds = 0;
};

Field crop2d(const Field& f, std::size_t r0, std::size_t c0, std::size_t n) {
  Field out(Dims(n, n));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) out.at2(i, j) = f.at2(r0 + i, c0 + j);
  return out;
}

double number_after(const std::string& line, const char* key) {
  const auto pos = line.find(key);
  return pos == std::string::npos
             ? -1.0
             : std::strtod(line.c_str() + pos + std::strlen(key), nullptr);
}

class ServiceMixed final : public Workload {
 public:
  explicit ServiceMixed(const Config& cfg)
      : cfg_(cfg),
        nconn_(std::max(1u, cfg.nproc - 1)),
        workers_(std::max(1u, cfg.nproc - nconn_)),
        tag_(std::to_string(::getpid())) {}

  ~ServiceMixed() override {
    stop_server();
    std::remove(model_path_.c_str());
    if (!trace_path_.empty()) std::remove(trace_path_.c_str());
  }

  void setup(Ctx& ctx) override {
    model_path_ = cfg_.out_dir + "/service-model-" + tag_ + ".bin";
    train_cesm_model(cfg_.nproc)->save_model(model_path_);
    make_inputs(ctx);
    start_server("");
    for (auto& c : conns_) conn_round(ctx, *c);  // warm-up
  }

  void reset() override {
    for (auto& c : conns_) {
      c->e2e = {};
      for (auto& v : c->rtt_ms) v.clear();
      c->layer.clear();
      c->rounds = 0;
    }
  }

  void round(Ctx& ctx) override { conn_round(ctx, *conns_.front()); }

  std::size_t run_for(Ctx& ctx, double seconds) override {
    const std::uint64_t deadline =
        now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (auto& c : conns_)
      threads.emplace_back([this, &ctx, &c, deadline] {
        do {
          conn_round(ctx, *c);
          ++c->rounds;
        } while (now_ns() < deadline);
      });
    for (auto& t : threads) t.join();
    std::size_t rounds = 0;
    for (auto& c : conns_) rounds += c->rounds;
    return rounds;
  }

  void begin_traced(Ctx& ctx) override {
    // The server's per-request trace is a construction option: restart
    // with it on, then warm the new server's model cache.
    stop_server();
    trace_path_ = cfg_.out_dir + "/server-trace-" + tag_ + ".jsonl";
    start_server(trace_path_);
    for (auto& c : conns_) conn_round(ctx, *c);
  }

  void end_to_end(Sums& out, double wall_s) override {
    E2E all;
    for (auto& c : conns_) all.merge(c->e2e);
    all.fill(out, wall_s);
  }

  void per_layer(Ctx&, Sums& out, std::vector<std::string>& events) override {
    Sums layer;
    std::array<std::vector<double>, kKinds> rtt;
    std::vector<double> all_rtt;
    double rounds = 0;
    for (auto& c : conns_) {
      for (const auto& [k, v] : c->layer) layer[k] += v;
      for (int k = 0; k < kKinds; ++k) {
        rtt[k].insert(rtt[k].end(), c->rtt_ms[k].begin(), c->rtt_ms[k].end());
        all_rtt.insert(all_rtt.end(), c->rtt_ms[k].begin(), c->rtt_ms[k].end());
      }
      rounds += static_cast<double>(c->rounds);
    }
    for (int k = 0; k < kKinds; ++k)
      out[std::string("service.rtt_ms.") + kKindNames[k]] = median(rtt[k]);

    const svc::StatsResponse snap = server_->snapshot();
    const auto get = [&](const char* k) {
      return static_cast<double>(snap.get(k));
    };
    out["service.queue_wait_ns_p50"] = get("queue_wait_ns_p50");
    out["service.batch_wait_ns_p50"] = get("batch_wait_ns_p50");
    out["service.bytes_in"] = get("bytes_in") / rounds;
    out["service.bytes_out"] = get("bytes_out") / rounds;
    out["service.requests_per_batch"] =
        get("batch_executions") > 0
            ? get("batched_requests") / get("batch_executions")
            : 0.0;
    out["service.ae_model_loads"] = get("ae_model_loads");
    out["service.codec_cache_misses"] = get("codec_cache_misses");
    out["service.ev_read_pauses"] = get("ev_read_pauses");
    out["service.ev_rejected_requests"] = get("ev_rejected_requests");

    // Server spans: request execution and admission-to-completion time,
    // and the execution time of the session and read-partial ops, which
    // is the temporal and progressive layers' share of those requests.
    std::vector<double> exec_ns, wall_us;
    std::ifstream in(trace_path_);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      events.push_back(line);
      if (line.find("\"cat\":\"request\"") == std::string::npos ||
          line.find("compress-batch") != std::string::npos)
        continue;
      const double dur = number_after(line, "\"dur\":");
      exec_ns.push_back(dur * 1e3);
      wall_us.push_back(number_after(line, "\"wall_us\":"));
      if (line.find("append-timestep") != std::string::npos)
        layer["temporal.append_s"] += dur * 1e-6;
      else if (line.find("read-timestep") != std::string::npos)
        layer["temporal.read_s"] += dur * 1e-6;
      else if (line.find("read-partial") != std::string::npos)
        layer["progressive.truncate_s"] += dur * 1e-6;
    }
    out["service.exec_ns_p50"] = median(exec_ns);
    const double client_p50_us = median(all_rtt) * 1e3;
    out["service.unattributed_pct"] =
        client_p50_us > 0
            ? (client_p50_us - median(wall_us)) / client_p50_us * 100.0
            : 0.0;
    layer["util.crc_s"] = layer["util.crc_bytes"] / crc_rate(crc_sample_);
    finish_layers(layer, rounds, out);
  }

 private:
  void make_inputs(Ctx& ctx) {
    // The ratio of a CESM field drifts by a quarter over a few dozen
    // timesteps, so consecutive timesteps would make it depend on the seed.
    // The small fields sample timesteps 40..159 evenly instead; the seed
    // shifts them within one stride.
    const int first = 40 + static_cast<int>(cfg_.seed % kSmallStride);
    for (std::size_t k = 0; k < kSmall; ++k)
      small_.push_back(synth::cesm_cldhgh(
          64, 64, first + kSmallStride * static_cast<int>(k)));
    const int t0 = 60 + static_cast<int>(cfg_.seed % 40);
    for (const char* name : kCodecs) {
      auto codec = CodecRegistry::instance().create(name, 2).value();
      for (const auto& f : small_)
        expect_small_[name].push_back(codec->compress(f, ErrorBound::Rel(kEb)));
    }
    // Single 32x32 blocks of a held-out snapshot (non-constant ones), and
    // their solo in-process AE-SZ streams: the batcher must reproduce them.
    const Field snap = synth::cesm_cldhgh(192, 384, t0);
    for (std::size_t b = cfg_.seed % 72, n = 0; n < 72 && blocks_.size() < kAeBlocks;
         b = (b + 1) % 72, ++n) {
      Field blk = crop2d(snap, (b / 12) * 32, (b % 12) * 32, 32);
      if (Ctx::finite_range(blk.values()) > 0) blocks_.push_back(std::move(blk));
    }
    AESZ solo(model_zoo::options_for("CESM-CLDHGH"), /*seed=*/1);
    solo.load_model(model_path_);
    for (const auto& b : blocks_)
      expect_ae_.push_back(solo.compress(b, ErrorBound::Rel(kAeEb)));
    // Session frames and the in-process artifact the server must match.
    const double phase0 = 0.05 * static_cast<double>(cfg_.seed % 997);
    for (std::size_t t = 0; t < kFrames; ++t)
      frames_.push_back(synth::value_noise_2d(
          64, 64, 4, 6.0, /*seed=*/17, phase0 + 0.05 * static_cast<double>(t)));
    temporal::TemporalWriter::Options wopt;
    wopt.inner = "SZ2.1";
    wopt.gop = kGop;
    temporal::TemporalWriter writer(frames_[0].dims(), ErrorBound::Rel(kEb),
                                    wopt);
    for (const auto& f : frames_) writer.append(f);
    expect_artifact_ = writer.bytes();
    auto reader = temporal::TemporalReader::open(expect_artifact_).value();
    for (std::size_t t = 0; t < kFrames; ++t)
      expect_frames_.push_back(reader->read(t).value());
    order_ = permutation(kFrames, cfg_.seed);
    // The AEPR stream read-partial serves, and each proper prefix, checked
    // once against its rung.
    const Field big = synth::value_noise_2d(64, 128, 4, 6.0, /*seed=*/23,
                                            phase0);
    aepr_ = progressive::ProgressiveWriter().encode(big, ErrorBound::Rel(kEb));
    auto full = progressive::ProgressiveReader::open(aepr_).value();
    for (std::size_t k = 0; k + 1 < full->layers(); ++k) {
      budgets_.push_back(full->prefix_bytes(k));
      const auto tr = progressive::truncate_to_bytes(aepr_, budgets_.back());
      Bytes prefix(aepr_.begin(),
                   aepr_.begin() + static_cast<std::ptrdiff_t>(tr->bytes));
      Field recon =
          progressive::ProgressiveReader::open(prefix).value()->read(k).value();
      const double rung = kEb * Ctx::finite_range(big.values()) *
                          std::pow(progressive::kDefaultFactor,
                                   static_cast<double>(full->layers() - 1 - k));
      ctx.check_bound(big, recon, rung, "AEPR prefix rung " + std::to_string(k));
      expect_prefix_.push_back(std::move(prefix));
    }
    crc_sample_ = {expect_small_["SZ2.1"][0], expect_ae_[0], expect_artifact_,
                   aepr_};
  }

  void start_server(const std::string& trace_out) {
    svc::Server::Options so;
    so.threads = workers_;
    so.aesz_model = model_path_;
    so.aesz_field = "CESM-CLDHGH";
    so.trace_out = trace_out;
    server_ = std::make_unique<svc::Server>(so);
    listener_ = svc::TcpListener::bind(0).value();
    ev_ = std::make_unique<svc::EventServer>(*server_, *listener_,
                                             svc::EventServer::Options{});
    ev_thread_ = std::thread([this] { ev_->run(); });
    for (unsigned i = 0; i < nconn_; ++i) {
      auto c = std::make_unique<Conn>();
      c->transport =
          svc::TcpTransport::connect("127.0.0.1", listener_->port()).value();
      c->client = std::make_unique<svc::Client>(*c->transport);
      conns_.push_back(std::move(c));
    }
  }

  void stop_server() {
    conns_.clear();  // clients close their sockets first
    if (ev_) {
      ev_->stop();
      ev_thread_.join();
    }
    ev_.reset();
    listener_.reset();
    server_.reset();
  }

  /// Time one request as an operation; returns its round-trip seconds.
  template <class F>
  double request(Ctx& ctx, Conn& c, Kind kind, F&& fn) {
    ctx.op_begin(kKindNames[kind]);
    ctx.call((std::string("service.") + kKindNames[kind]).c_str(), false, fn);
    const double s = static_cast<double>(ctx.op_end()) * 1e-9;
    c.rtt_ms[kind].push_back(s * 1e3);
    c.e2e.rtt_ms.push_back(s * 1e3);
    c.e2e.ops += 1;
    return s;
  }

  void conn_round(Ctx& ctx, Conn& c) {
    try {
      codecs(ctx, c);
      aesz_pipelined(ctx, c);
      read_partial(ctx, c);
      session(ctx, c);
    } catch (const std::exception& e) {
      ctx.fail(false, std::string("service round: ") + e.what());
    }
  }

  void codecs(Ctx& ctx, Conn& c) {
    for (const char* name : kCodecs) {
      for (std::size_t i = 0; i < small_.size(); ++i) {
        const Field& f = small_[i];
        const double raw = static_cast<double>(f.size() * sizeof(float));
        Expected<svc::Client::CompressResult> r =
            Status::error(ErrCode::kInternal, "not run");
        const double cs = request(ctx, c, kCompress, [&] {
          r = c.client->compress(name, f, ErrorBound::Rel(kEb));
        });
        if (!r.ok()) {
          ctx.fail(false, std::string(name) + " service compress: " +
                              r.status().str());
          continue;
        }
        c.e2e.c_raw += raw;
        c.e2e.c_out += static_cast<double>(r->stream.size());
        c.e2e.c_s += cs;
        Bytes stream = std::move(r->stream);
        ctx.maybe_flip(stream);
        if (!ctx.check_same(stream, expect_small_[name][i],
                            std::string(name) + " service stream"))
          continue;
        Expected<Field> d = Status::error(ErrCode::kInternal, "not run");
        const double ds = request(ctx, c, kDecompress, [&] {
          d = c.client->decompress(stream, name);
        });
        if (ctx.tracing())
          c.layer["util.crc_bytes"] += 2.0 * static_cast<double>(stream.size());
        if (!d.ok()) {
          ctx.fail(false, std::string(name) + " service decompress: " +
                              d.status().str());
          continue;
        }
        c.e2e.d_raw += raw;
        c.e2e.d_s += ds;
        Ctx::Quality q;
        if (ctx.check_bound(f, *d, kEb * Ctx::finite_range(f.values()),
                            std::string(name) + " service decompress", &q)) {
          c.e2e.psnr_sum += q.psnr;
          ++c.e2e.psnr_n;
        }
      }
    }
  }

  /// kAeBlocks compress requests sent back to back before any reply is
  /// read, so the server's batcher can coalesce them.
  void aesz_pipelined(Ctx& ctx, Conn& c) {
    std::array<std::uint64_t, kAeBlocks> sent{};
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
      const auto v = blocks_[i].values();
      svc::CompressRequest req;
      req.codec = "AE-SZ";
      req.eb = ErrorBound::Rel(kAeEb);
      req.dims = blocks_[i].dims();
      req.field = {reinterpret_cast<const std::uint8_t*>(v.data()),
                   v.size() * sizeof(float)};
      const Bytes frame = svc::encode_compress_request(req);
      sent[i] = now_ns();
      if (Status s = c.transport->send_frame(frame); !s.ok())
        throw Error(s.code, "send: " + s.message);
    }
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
      auto resp = c.transport->recv_frame();
      const std::uint64_t t1 = now_ns();
      ctx.op_record("compress_aesz", "service.compress_aesz", sent[i], t1);
      const double s = static_cast<double>(t1 - sent[i]) * 1e-9;
      c.rtt_ms[kCompressAesz].push_back(s * 1e3);
      c.e2e.rtt_ms.push_back(s * 1e3);
      c.e2e.ops += 1;
      if (!resp.ok()) throw Error(resp.status().code, resp.status().message);
      auto cr = svc::parse_compress_response(*resp);
      if (!cr.ok()) {
        ctx.fail(false, "AE-SZ service compress: " + cr.status().str());
        continue;
      }
      Bytes stream(cr->stream.begin(), cr->stream.end());
      c.e2e.c_raw += static_cast<double>(blocks_[i].size() * sizeof(float));
      c.e2e.c_out += static_cast<double>(stream.size());
      c.e2e.c_s += s;
      if (ctx.tracing())
        c.layer["util.crc_bytes"] += static_cast<double>(stream.size());
      ctx.maybe_flip(stream);
      ctx.check_same(stream, expect_ae_[i], "batched AE-SZ vs solo compress");
    }
  }

  void read_partial(Ctx& ctx, Conn& c) {
    for (std::size_t k = 0; k < budgets_.size(); ++k) {
      Expected<svc::Client::PartialResult> r =
          Status::error(ErrCode::kInternal, "not run");
      const double s = request(ctx, c, kReadPartial, [&] {
        r = c.client->read_partial(aepr_, budgets_[k]);
      });
      c.e2e.preview_ms.push_back(s * 1e3);
      if (!r.ok()) {
        ctx.fail(false, "read-partial: " + r.status().str());
        continue;
      }
      if (r->layers != k + 1) {
        ctx.fail(false, "read-partial served " + std::to_string(r->layers) +
                            " layers for rung " + std::to_string(k));
        continue;
      }
      if (ctx.tracing()) {
        c.layer["progressive.layers_served"] += static_cast<double>(r->layers);
        c.layer["progressive.bytes_served"] +=
            static_cast<double>(r->stream.size());
      }
      ctx.maybe_flip(r->stream);
      ctx.check_same(r->stream, expect_prefix_[k], "read-partial prefix");
    }
  }

  void session(Ctx& ctx, Conn& c) {
    Expected<svc::Client::Stream> st =
        Status::error(ErrCode::kInternal, "not run");
    request(ctx, c, kOpen, [&] {
      st = c.client->open_stream("SZ2.1", frames_[0].dims(),
                                 ErrorBound::Rel(kEb), kGop);
    });
    if (!st.ok()) {
      ctx.fail(false, "open-stream: " + st.status().str());
      return;
    }
    for (const auto& f : frames_) {
      Expected<svc::Client::Stream::AppendInfo> a =
          Status::error(ErrCode::kInternal, "not run");
      const double s = request(ctx, c, kAppend, [&] { a = st->append(f); });
      if (!a.ok()) {
        ctx.fail(false, "append-timestep: " + a.status().str());
        return;
      }
      c.e2e.a_raw += static_cast<double>(f.size() * sizeof(float));
      c.e2e.a_s += s;
      if (ctx.tracing())
        c.layer[a->residual ? "temporal.residual_records"
                            : "temporal.intra_records"] += 1;
    }
    for (std::size_t j = 0; j < kReads; ++j) {
      const std::size_t t = order_[j];
      Expected<Field> f = Status::error(ErrCode::kInternal, "not run");
      const double s =
          request(ctx, c, kReadTs, [&] { f = st->read_timestep(t); });
      c.e2e.read_ms.push_back(s * 1e3);
      if (!f.ok()) {
        ctx.fail(false, "read-timestep: " + f.status().str());
        continue;
      }
      ctx.check_same(*f, expect_frames_[t], "session timestep read");
    }
    Expected<Bytes> art = Status::error(ErrCode::kInternal, "not run");
    request(ctx, c, kClose, [&] { art = st->close(); });
    if (!art.ok()) {
      ctx.fail(false, "close-stream: " + art.status().str());
      return;
    }
    if (ctx.tracing()) {
      c.layer["temporal.stream_bytes"] += static_cast<double>(art->size());
      c.layer["util.crc_bytes"] += static_cast<double>(art->size());
    }
    ctx.maybe_flip(*art);
    ctx.check_same(*art, expect_artifact_, "session artifact vs in-process");
  }

  Config cfg_;
  unsigned nconn_, workers_;
  std::string tag_, model_path_, trace_path_;
  std::vector<Field> small_, blocks_, frames_, expect_frames_;
  std::map<std::string, std::vector<Bytes>> expect_small_;
  std::vector<Bytes> expect_ae_, expect_prefix_, crc_sample_;
  Bytes expect_artifact_, aepr_;
  std::vector<std::size_t> budgets_, order_;

  std::unique_ptr<svc::Server> server_;
  std::unique_ptr<svc::TcpListener> listener_;
  std::unique_ptr<svc::EventServer> ev_;
  std::thread ev_thread_;
  std::vector<std::unique_ptr<Conn>> conns_;
};

}  // namespace

std::unique_ptr<Workload> make_service_mixed(const Config& cfg) {
  return std::make_unique<ServiceMixed>(cfg);
}

}  // namespace perfbench
