/**
 * @file
 * The benchmark's load generator and entry point.
 *
 *   vbench --workload W --seed N --seconds S --trace 0|1
 *   vbench serve --shards N --cache-mb M --dir D   (started by the above)
 *
 * One generator process (at most four load threads and connections)
 * drives a separate serving process over loopback, so the two share
 * neither the thread pool nor the telemetry registry. The last line
 * of standard output is the JSON result; the line before it, starting
 * with "meta ", carries the run metadata. README.md documents the
 * workloads and metrics.
 */

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "archive/archive_service.h"
#include "bench.h"
#include "cluster/cluster_router.h"
#include "cluster/hash_ring.h"
#include "common/parallel.h"
#include "common/telemetry.h"
#include "quality/psnr.h"
#include "server/vapp_client.h"
#include "simd/dispatch.h"

namespace vbench {

int serveMain(int shards, std::size_t cache_bytes,
              const std::string &dir);

namespace {

constexpr int kThreads = 4;
constexpr int kSetupReps = 3;
constexpr double kBer = 1e-3;
/** A generator that sends later than this behind its schedule (p99)
 * is flagged in the run metadata. */
constexpr double kLateFlagMs = 2.0;

// --- serving process handle --------------------------------------------

std::string gSelfExe;
const Clock::time_point gOrigin = Clock::now();

class ServeHandle
{
  public:
    ServeHandle() = default;
    ~ServeHandle() { kill(); }
    ServeHandle(const ServeHandle &) = delete;
    ServeHandle &operator=(const ServeHandle &) = delete;

    bool
    spawn(int shards, int cache_mb, const std::string &dir)
    {
        int to_child[2], from_child[2];
        if (::pipe2(to_child, O_CLOEXEC) != 0)
            return false;
        if (::pipe2(from_child, O_CLOEXEC) != 0) {
            ::close(to_child[0]);
            ::close(to_child[1]);
            return false;
        }
        const std::string s = std::to_string(shards);
        const std::string c = std::to_string(cache_mb);
        pid_ = ::fork();
        if (pid_ == 0) {
            ::dup2(to_child[0], 0);
            ::dup2(from_child[1], 1);
            ::execl(gSelfExe.c_str(), gSelfExe.c_str(), "serve",
                    "--shards", s.c_str(), "--cache-mb", c.c_str(),
                    "--dir", dir.c_str(), static_cast<char *>(nullptr));
            ::_exit(127);
        }
        ::close(to_child[0]);
        ::close(from_child[1]);
        in_ = to_child[1];
        out_ = from_child[0];
        if (pid_ < 0) {
            kill();
            return false;
        }
        const std::string ready = readLine(120000);
        if (ready.rfind("ready", 0) != 0)
            return false;
        ports.clear();
        std::size_t pos = 5;
        while (pos < ready.size()) {
            std::size_t next = ready.find(' ', pos + 1);
            ports.push_back(static_cast<u16>(
                std::stoul(ready.substr(pos + 1, next - pos - 1))));
            pos = next == std::string::npos ? ready.size() : next;
        }
        return !ports.empty();
    }

    /** Send one control line and wait for its reply line ("" when
     * the process does not answer in time or has gone). */
    std::string
    command(const std::string &line, int timeout_ms = 120000)
    {
        std::lock_guard lock(mutex_);
        const std::string msg = line + "\n";
        if (in_ < 0 ||
            ::write(in_, msg.data(), msg.size()) !=
                static_cast<ssize_t>(msg.size()))
            return "";
        return readLine(timeout_ms);
    }

    /** Parse "word k=v k=v ..." replies into a map. */
    static std::map<std::string, double>
    fields(const std::string &reply)
    {
        std::map<std::string, double> out;
        std::size_t pos = reply.find(' ');
        while (pos != std::string::npos) {
            std::size_t next = reply.find(' ', pos + 1);
            std::string kv = reply.substr(pos + 1, next - pos - 1);
            std::size_t eq = kv.find('=');
            if (eq != std::string::npos)
                out[kv.substr(0, eq)] = std::atof(kv.c_str() + eq + 1);
            pos = next;
        }
        return out;
    }

    /** Ask the process to stop and wait for it; kill it if it does
     * not end within the grace period. */
    void
    stop()
    {
        if (pid_ <= 0)
            return;
        command("stop", 1);
        reap(15000);
    }

    /** Kill the process at once and wait for it. */
    void
    kill()
    {
        if (pid_ <= 0)
            return;
        ::kill(pid_, SIGKILL);
        reap(15000);
    }

    std::vector<u16> ports;

  private:
    std::string
    readLine(int timeout_ms)
    {
        const auto deadline =
            Clock::now() + std::chrono::milliseconds(timeout_ms);
        for (;;) {
            std::size_t nl = buffer_.find('\n');
            if (nl != std::string::npos) {
                std::string line = buffer_.substr(0, nl);
                buffer_.erase(0, nl + 1);
                return line;
            }
            const double left = msBetween(Clock::now(), deadline);
            pollfd pfd{out_, POLLIN, 0};
            if (left <= 0 ||
                ::poll(&pfd, 1, static_cast<int>(left) + 1) <= 0)
                return "";
            char buf[4096];
            ssize_t n = ::read(out_, buf, sizeof buf);
            if (n <= 0)
                return "";
            buffer_.append(buf, static_cast<std::size_t>(n));
        }
    }

    void
    reap(int grace_ms)
    {
        if (in_ >= 0)
            ::close(in_);
        in_ = -1;
        const auto deadline =
            Clock::now() + std::chrono::milliseconds(grace_ms);
        int status = 0;
        while (::waitpid(pid_, &status, WNOHANG) == 0) {
            if (Clock::now() > deadline) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        if (out_ >= 0)
            ::close(out_);
        out_ = -1;
        pid_ = -1;
    }

    pid_t pid_ = -1;
    int in_ = -1;
    int out_ = -1;
    std::string buffer_;
    std::mutex mutex_;
};

// --- run state ---------------------------------------------------------

struct Metric
{
    double value = 0.0;
    std::string unit;
};

struct Run
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
    double scale = 0;
    std::string dir;

    bool correct = true;
    u64 attempted = 0;
    u64 failed = 0;
    std::vector<std::pair<std::string, Metric>> endToEnd;
    std::vector<std::pair<std::string, Metric>> layers;
    std::vector<std::pair<std::string, std::string>> meta;

    std::unique_ptr<SpanLog> spans;
    std::vector<double> setupS;
    std::vector<double> generateMs;
    double lateP99Ms = 0.0;

    void
    expect(bool ok, const std::string &what)
    {
        if (!ok) {
            correct = false;
            std::fprintf(stderr, "check failed: %s\n", what.c_str());
        }
    }

    void
    e2e(const std::string &name, double value, const std::string &unit)
    {
        endToEnd.push_back({name, {value, unit}});
    }

    void
    layer(const std::string &name, double value, const std::string &unit)
    {
        for (auto &[n, m] : layers)
            if (n == name) {
                m = {value, unit};
                return;
            }
        layers.push_back({name, {value, unit}});
    }

    SpanLog *log() { return spans.get(); }
};

/** One operation's outcome as the load threads see it. */
struct OpTally
{
    std::vector<double> latencyMs;
    /** Completion time of each latency sample (ms since the run's
     * origin), for the per-slice medians of reportWindow. */
    std::vector<double> atMs;
    std::vector<double> lateMs;
    u64 attempted = 0;
    u64 failed = 0;
    u64 bytes = 0;
    double psnrSum = 0.0;
    u64 psnrCount = 0;

    void
    sample(double ms, Clock::time_point at)
    {
        latencyMs.push_back(ms);
        atMs.push_back(msBetween(gOrigin, at));
    }

    void
    merge(const OpTally &o)
    {
        latencyMs.insert(latencyMs.end(), o.latencyMs.begin(),
                         o.latencyMs.end());
        atMs.insert(atMs.end(), o.atMs.begin(), o.atMs.end());
        lateMs.insert(lateMs.end(), o.lateMs.begin(), o.lateMs.end());
        attempted += o.attempted;
        failed += o.failed;
        bytes += o.bytes;
        psnrSum += o.psnrSum;
        psnrCount += o.psnrCount;
    }
};

/**
 * Latency percentile @p pct as the median over time slices of the
 * window: each slice keeps at least 20 samples beyond the percentile,
 * and a burst of scheduling noise confined to a few slices (a vCPU
 * descheduled for milliseconds) moves the median slice little.
 */
double
slicedPercentile(const OpTally &t, double pct)
{
    const std::size_t n = t.latencyMs.size();
    if (n == 0)
        return 0.0;
    const std::size_t per_slice = static_cast<std::size_t>(
        std::ceil(20.0 / (1.0 - pct / 100.0)));
    const std::size_t slices =
        std::clamp<std::size_t>(n / per_slice, 1, 9);
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return t.atMs[a] < t.atMs[b];
    });
    std::vector<double> per;
    for (std::size_t k = 0; k < slices; ++k) {
        std::vector<double> slice;
        for (std::size_t i = k * n / slices; i < (k + 1) * n / slices; ++i)
            slice.push_back(t.latencyMs[order[i]]);
        per.push_back(percentile(std::move(slice), pct));
    }
    return percentile(std::move(per), 50);
}

/**
 * The end-to-end figures of one timed window. @p tail_pct is the
 * workload's fixed tail percentile; @p limit_ms its latency limit.
 */
void
reportWindow(Run &run, const OpTally &t, double window_s,
             double tail_pct, double limit_ms, double slo_ops_s)
{
    const u64 done = t.attempted - t.failed;
    run.e2e("ops_s", done / window_s, "op/s");
    run.e2e("mb_s", t.bytes / window_s / 1e6, "MB/s");
    run.e2e("op_p50_ms", slicedPercentile(t, 50), "ms");
    run.e2e("op_tail_ms", slicedPercentile(t, tail_pct), "ms");
    if (slo_ops_s < 0) {
        // Closed loop and fixed-rate open loop: operations per second
        // that completed within the latency limit.
        u64 within = 0;
        for (double ms : t.latencyMs)
            within += ms <= limit_ms;
        slo_ops_s = within / window_s;
    }
    run.e2e("slo_ops_s", slo_ops_s, "op/s");
    run.e2e("psnr_db",
            t.psnrCount ? t.psnrSum / t.psnrCount : 0.0, "dB");
    run.meta.push_back({"samples", std::to_string(t.latencyMs.size())});
    run.meta.push_back({"tail_percentile", std::to_string(tail_pct)});
    const u64 beyond = static_cast<u64>(std::floor(
        t.latencyMs.size() * (100.0 - tail_pct) / 100.0));
    run.meta.push_back({"tail_samples_beyond", std::to_string(beyond)});
}

/**
 * Arrival times of a Poisson process over [@p start, @p start +
 * @p seconds) conditioned on its expected count: that many uniform
 * points, sorted. Every run then offers exactly the same number of
 * requests, and the gaps are still exponential-like.
 */
std::vector<Clock::time_point>
arrivals(Rng &rng, double rate, Clock::time_point start, double seconds)
{
    const std::size_t n = static_cast<std::size_t>(rate * seconds + 0.5);
    std::vector<double> at(n);
    for (double &a : at)
        a = rng.nextDouble() * seconds;
    std::sort(at.begin(), at.end());
    std::vector<Clock::time_point> out;
    out.reserve(n);
    for (double a : at)
        out.push_back(start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(a)));
    return out;
}

/** Generate @p specs on the pool, timing each clip. */
std::vector<Video>
generateClips(Run &run, const std::vector<SyntheticSpec> &specs)
{
    std::vector<Video> clips(specs.size());
    std::vector<double> ms(specs.size());
    parallelFor(specs.size(), [&](std::size_t i) {
        const auto t0 = Clock::now();
        clips[i] = generateSynthetic(specs[i]);
        ms[i] = msBetween(t0, Clock::now());
    });
    run.generateMs.insert(run.generateMs.end(), ms.begin(), ms.end());
    return clips;
}

/**
 * Build the workload's starting state at least kSetupReps times, and
 * more (up to kMaxSetupReps) while the builds took under
 * kSetupBudgetS in all: a cheap setup is dominated by page faults and
 * scheduling, and a median over more builds steadies it. The last
 * build is kept; setup_s is the median. @p build spawns and fills the
 * serving process; it returns false on failure.
 */
bool
timedSetup(Run &run, std::unique_ptr<ServeHandle> &serve,
           const std::function<bool(ServeHandle &)> &build)
{
    constexpr int kMaxSetupReps = 9;
    constexpr double kSetupBudgetS = 2.0;
    double total = 0;
    for (int rep = 0; rep < kSetupReps ||
                      (total < kSetupBudgetS && rep < kMaxSetupReps);
         ++rep) {
        if (serve)
            serve->stop();
        serve = std::make_unique<ServeHandle>();
        const auto t0 = Clock::now();
        if (!build(*serve))
            return false;
        run.setupS.push_back(msBetween(t0, Clock::now()) / 1e3);
        total += run.setupS.back();
    }
    return true;
}

// --- wire helpers ------------------------------------------------------

/**
 * One request/response exchange with a deadline; the raw frame.
 * Responses to earlier requests that arrived late are read past. Any
 * failure (a deadline, a close, a damaged frame, an unexpected id)
 * reconnects @p conn before returning, so it costs this one call and
 * leaves the connection clean for the next.
 */
std::optional<FrameDeframer::Decoded>
wireCall(WireConn &conn, Opcode op, const Bytes &payload,
         double timeout_ms, Clock::time_point *sent = nullptr)
{
    const auto start = Clock::now();
    if (sent)
        *sent = start;
    const auto deadline =
        start + std::chrono::microseconds(
                    static_cast<long long>(timeout_ms * 1e3));
    u32 id = 0;
    if (conn.send(op, payload, id, deadline)) {
        while (auto frame = conn.receive(deadline)) {
            const u32 got = frame->header.requestId;
            if (got == id)
                return frame;
            if (static_cast<i32>(id - got) <= 0)
                break; // an id never sent: the stream is out of step
        }
    }
    conn.reconnect();
    return std::nullopt;
}

std::optional<GetFramesResponse>
wireGet(WireConn &conn, const GetFramesRequest &request,
        double timeout_ms, Clock::time_point *sent = nullptr)
{
    auto frame = wireCall(conn, Opcode::GetFrames,
                          serializeGetFramesRequest(request), timeout_ms,
                          sent);
    if (!frame)
        return std::nullopt;
    GetFramesResponse response;
    if (!parseGetFramesResponse(frame->payload, response))
        return std::nullopt;
    return response;
}

std::optional<PutResponse>
wirePut(WireConn &conn, const PutRequest &request, double timeout_ms)
{
    auto frame = wireCall(conn, Opcode::Put, serializePutRequest(request),
                          timeout_ms);
    PutResponse response;
    if (!frame || !parsePutResponse(frame->payload, response))
        return std::nullopt;
    return response;
}

std::optional<StatResponse>
wireStat(WireConn &conn)
{
    auto frame = wireCall(conn, Opcode::Stat, {}, 30000);
    StatResponse response;
    if (!frame || !parseStatResponse(frame->payload, response))
        return std::nullopt;
    return response;
}

PutRequest
putRequestFor(const std::string &name, const Video &video)
{
    PutRequest request;
    request.name = name;
    request.width = static_cast<u16>(video.width());
    request.height = static_cast<u16>(video.height());
    request.frameCount = static_cast<u32>(video.frames.size());
    request.i420 = packI420(video, 0, video.frames.size());
    return request;
}

/** Connect @p n deadline clients to @p port. */
bool
connectAll(std::vector<std::unique_ptr<WireConn>> &conns, u16 port,
           int n)
{
    conns.clear();
    for (int i = 0; i < n; ++i) {
        conns.push_back(std::make_unique<WireConn>());
        if (!conns.back()->connect(port))
            return false;
    }
    return true;
}

/** PUT every clip over @p conns in parallel; false if any fails. */
bool
fillArchive(std::vector<std::unique_ptr<WireConn>> &conns,
            const std::vector<PutRequest> &requests)
{
    std::atomic<std::size_t> next{0};
    std::atomic<bool> ok{true};
    std::vector<std::thread> threads;
    for (auto &conn : conns)
        threads.emplace_back([&, c = conn.get()] {
            for (std::size_t i; (i = next++) < requests.size();) {
                auto r = wirePut(*c, requests[i], 120000);
                if (!r || r->status != Status::Ok)
                    ok = false;
            }
        });
    for (auto &t : threads)
        t.join();
    return ok;
}

// --- traced replays of single layers -------------------------------------

/** prepareVideo's steps, one span each (spans only when traced). */
PreparedVideo
prepareTraced(const Video &source, SpanLog *log, u64 id, u64 parent)
{
    PreparedVideo prepared;
    {
        SpanScope s(log, "codec.encode", id, parent);
        prepared.enc = encodeVideo(source, EncoderConfig{});
    }
    {
        SpanScope s(log, "graph.importance", id, parent);
        prepared.importance =
            computeImportance(prepared.enc.side, prepared.enc.video);
    }
    prepared.assignment = EccAssignment::paperTable1();
    {
        SpanScope s(log, "core.partition", id, parent);
        assignPivots(prepared.enc.video, prepared.enc.side,
                     prepared.importance, prepared.assignment);
        prepared.streams = extractStreams(prepared.enc.video);
    }
    return prepared;
}

std::optional<EncryptionConfig>
encryptionFor(const PutRequest &request)
{
    if (request.key.empty())
        return std::nullopt;
    EncryptionConfig enc;
    enc.mode = static_cast<CipherMode>(request.cipherMode);
    enc.key = request.key;
    enc.keyId = request.keyId;
    enc.encryptMinT = request.encryptMinT;
    Rng iv(request.ivSeed);
    for (auto &b : enc.masterIv)
        b = static_cast<u8>(iv.next());
    return enc;
}

/** The write path's storage half: per-stream encrypt then BCH cell
 * encode, as a PUT does after preparation. */
void
replayStore(const PreparedVideo &prepared,
            const std::optional<EncryptionConfig> &enc, SpanLog *log,
            u64 id, u64 parent)
{
    const StreamPolicy policy = policyFor(prepared.streams, enc);
    std::unique_ptr<StreamCryptor> cryptor;
    if (enc)
        cryptor = std::make_unique<StreamCryptor>(enc->mode, enc->key,
                                                  enc->masterIv);
    std::map<int, Bytes> stored;
    {
        SpanScope s(log, "crypto.encrypt", id, parent);
        for (const auto &[t, data] : prepared.streams.data)
            stored[t] = cryptor && policy.encrypts(t)
                            ? cryptor->encryptStream(
                                  static_cast<u32>(t), data)
                            : data;
    }
    SpanScope s(log, "storage.cell_encode", id, parent);
    for (const auto &[t, data] : stored)
        (void)exportCellImage(data, EccScheme{t});
}

/**
 * The read path of one GET, layer by layer: cell degrade + BCH read,
 * decrypt, stream merge, codec decode.
 */
void
replayRead(const PreparedVideo &prepared,
           const std::optional<EncryptionConfig> &enc, double ber,
           u64 seed, SpanLog *log, u64 id, u64 parent)
{
    VideoRecord record = recordFromPrepared(prepared, enc);
    std::unique_ptr<StreamCryptor> cryptor;
    if (enc)
        cryptor = std::make_unique<StreamCryptor>(enc->mode, enc->key,
                                                  enc->masterIv);
    Rng rng(seed);
    std::vector<Bytes> read(record.streams.size());
    {
        SpanScope s(log, "storage.cell_read", id, parent);
        for (std::size_t i = 0; i < record.streams.size(); ++i) {
            StreamRecord &sr = record.streams[i];
            if (ber > 0) {
                Rng stream_rng(rng.next());
                degradeCellImage(sr.image, ber, stream_rng);
            }
            read[i] = readCellImage(sr.image);
        }
    }
    StreamSet streams;
    {
        SpanScope s(log, "crypto.decrypt", id, parent);
        for (std::size_t i = 0; i < record.streams.size(); ++i) {
            const StreamRecord &sr = record.streams[i];
            Bytes payload = std::move(read[i]);
            if (cryptor && record.policy->encrypts(sr.schemeT))
                payload = cryptor->decryptStream(
                    static_cast<u32>(sr.schemeT), payload,
                    static_cast<std::size_t>(sr.trueBytes));
            else
                payload.resize(static_cast<std::size_t>(sr.trueBytes));
            streams.data[sr.schemeT] = std::move(payload);
            streams.bitLength[sr.schemeT] = sr.bitLength;
        }
    }
    EncodedVideo merged;
    {
        SpanScope s(log, "core.merge", id, parent);
        merged = mergeStreams(record.layout, streams);
    }
    SpanScope s(log, "codec.decode", id, parent);
    (void)decodeVideo(merged);
}

/** Put @p prepared into a private archive and time one get of it at
 * @p ber; the span is archive.get. Returns the frames the program's
 * get decoded. */
std::size_t
replayArchiveGet(Run &run, const std::string &name,
                 const PreparedVideo &prepared,
                 const std::optional<EncryptionConfig> &enc, double ber,
                 u64 seed, u64 id, u64 parent)
{
    ArchiveService local(run.dir + "/replay.vapp");
    local.open();
    ArchivePutOptions put;
    put.encryption = enc;
    local.put(name, prepared, put);
    ArchiveGetOptions get;
    get.injectRawBer = ber;
    get.seed = seed;
    if (enc)
        get.key = enc->key;
    SpanScope s(run.log(), "archive.get", id, parent);
    return local.get(name, get).decoded.frames.size();
}

/** Checks shared by every workload on one sampled video: exact reads
 * equal the encoder's reconstruction, the reference PSNR equals
 * psnrVideo, and STAT's cell bytes equal the BCH arithmetic. */
void
checkExactVideo(Run &run, const std::string &name, const Video &source,
                const PreparedVideo &prepared,
                const std::function<std::optional<GetFramesResponse>(
                    u32 gop)> &get,
                const std::optional<StatResponse> &listing)
{
    const ArchiveVideoStat *stat = nullptr;
    if (listing)
        for (const ArchiveVideoStat &v : listing->videos)
            if (v.name == name)
                stat = &v;
    Video recon;
    recon.frames = prepared.enc.reconFrames;
    u32 gops = 1;
    for (u32 g = 0; g < gops; ++g) {
        auto r = get(g);
        if (!r || r->status != Status::Ok) {
            run.expect(false, name + ": exact GET failed");
            return;
        }
        gops = r->gopCount;
        const Bytes want = packI420(recon, r->firstFrame, r->frameCount);
        run.expect(r->i420 == want,
                   name + " gop " + std::to_string(g) +
                       ": exact read differs from encoder recon");
        const double ref = referencePsnr(r->i420.data(), r->width,
                                         r->height, r->frameCount,
                                         source, r->firstFrame);
        Video got = unpackI420(r->i420.data(), r->width, r->height,
                               r->frameCount);
        Video src;
        src.frames.assign(source.frames.begin() + r->firstFrame,
                          source.frames.begin() + r->firstFrame +
                              r->frameCount);
        run.expect(std::fabs(ref - psnrVideo(got, src)) < 1e-9,
                   name + ": reference PSNR disagrees with psnrVideo");
    }
    if (stat == nullptr) {
        run.expect(false, name + ": missing from STAT");
        return;
    }
    u64 cells = 0, payload = 0;
    for (const auto &[t, data] : prepared.streams.data) {
        cells += expectedCellBytes(data.size(), t);
        payload += data.size();
    }
    run.expect(stat->cellBytes == cells,
               name + ": STAT cell bytes " +
                   std::to_string(stat->cellBytes) + " != expected " +
                   std::to_string(cells));
    run.expect(stat->payloadBytes == payload,
               name + ": STAT payload bytes differ from the streams");
}

/** cells_per_pixel from the serving process's archive totals:
 * approximate cells as stored plus precise metadata under BCH-16. */
void
reportDensity(Run &run, std::map<std::string, double> &snap)
{
    const double pixels = snap["archive.pixels"];
    const u64 cells = static_cast<u64>(snap["archive.cell_bytes"]) * 8 / 3 +
                      preciseCells(static_cast<u64>(
                          snap["archive.meta_bytes"] * 8));
    run.e2e("cells_per_pixel", pixels > 0 ? cells / pixels : 0.0,
            "cells/px");
}

/** Mean milliseconds per call of the serving process's timer
 * @p name over the window of @p snap; 0 when it never ran. */
double
timerMeanMs(std::map<std::string, double> &snap, const std::string &name)
{
    const double calls = snap[name + ".calls"];
    return calls > 0 ? snap[name + ".total_ms"] / calls : 0.0;
}

/** Per-layer figures read from the serving process's counters over
 * the timed window (@p snap) and the whole run (@p total). Merge and
 * decode are timed inside the program's own read path, so they follow
 * whatever that path decodes for a GET. */
void
reportServerLayers(Run &run, std::map<std::string, double> &snap,
                   std::map<std::string, double> &total, u64 gets)
{
    run.layer("core.merge_ms", timerMeanMs(snap, "pipeline.merge_streams"),
              "ms");
    run.layer("codec.decode_ms", timerMeanMs(snap, "pipeline.decode"),
              "ms");
    run.layer("storage.blocks_decoded",
              snap["storage.bch.blocks_decoded"], "count");
    run.layer("storage.blocks_corrected",
              snap["archive.read.blocks_corrected"], "count");
    run.layer("storage.blocks_uncorrectable",
              snap["archive.read.blocks_uncorrectable"], "count");
    run.layer("server.cache_hit_ratio",
              gets ? snap["server.cache.hits"] / gets : 0.0, "ratio");
    run.layer("server.coalesced_gets", snap["server.coalesced_gets"],
              "count");
    run.layer("server.queue_high_water",
              snap["server.queue_high_water"], "count");
    run.layer("cluster.wrong_epoch", snap["server.wrong_epoch"],
              "count");
    run.layer("cluster.forwards", snap["server.forwards"], "count");
    run.layer("cluster.pull_through", snap["server.get.pull_through"],
              "count");
    const double encrypted = total["archive.bytes_encrypted"];
    run.layer("policy.bytes_encrypted", encrypted, "bytes");
    run.layer("policy.bytes_plaintext",
              total["archive.payload_bytes"] - encrypted, "bytes");
}

/** Unloaded cache-hit round trip through the program's own client;
 * nothing is reported when the answer is not cacheable (a GOP larger
 * than a cache shard). */
void
measureHotRtt(Run &run, u16 port, const GetFramesRequest &request)
{
    VappClient client;
    if (!client.connect("127.0.0.1", port))
        return;
    client.getFrames(request); // fill the cache
    std::vector<double> ms;
    for (int i = 0; i < 200; ++i) {
        const u64 seq = run.log()->open("client.hot_get", 1u << 30, 0);
        const auto t0 = Clock::now();
        auto r = client.getFrames(request);
        const double took = msBetween(t0, Clock::now());
        run.log()->close(seq);
        if (!r || !r->fromCache)
            return;
        ms.push_back(took);
    }
    run.layer("server.hot_rtt_ms", percentile(ms, 50), "ms");
}

// --- workloads ---------------------------------------------------------

/**
 * ingest: four connections PUT distinct clips of all 14 classes in a
 * closed loop, then the archive is flushed.
 */
void
runIngest(Run &run)
{
    run.scale = 0.5;
    std::vector<SyntheticSpec> specs;
    for (int c = 0; c < kClasses; ++c)
        specs.push_back(clipSpec(c, 0, run.scale));

    std::vector<Video> base;
    std::unique_ptr<ServeHandle> serve;
    std::vector<std::unique_ptr<WireConn>> conns;
    const bool ok = timedSetup(run, serve, [&](ServeHandle &s) {
        base = generateClips(run, specs);
        return s.spawn(1, 64, run.dir) &&
               connectAll(conns, s.ports[0], kThreads);
    });
    run.expect(ok, "ingest setup");
    if (!ok)
        return;

    // Op k PUTs class k % 14, its frames rotated by a seed-chosen
    // offset plus seven per round of 14, so every PUT carries a
    // distinct video of that class.
    std::vector<u64> offsets(kClasses);
    Rng offset_rng(Rng::deriveSeed(run.seed, 76));
    for (u64 &o : offsets)
        o = offset_rng.next();
    auto variant = [&](u64 k) {
        const Video &b = base[k % kClasses];
        const std::size_t n = b.frames.size();
        const std::size_t shift =
            (offsets[k % kClasses] + (k / kClasses) * 7) % n;
        Video v;
        v.fps = b.fps;
        for (std::size_t f = 0; f < n; ++f)
            v.frames.push_back(b.frames[(f + shift) % n]);
        return v;
    };
    auto request = [&](u64 k) {
        PutRequest r = putRequestFor("ing-" + std::to_string(k),
                                     variant(k));
        const int cls = static_cast<int>(k % kClasses);
        applyCipher(r, cipherOfClass(cls), run.seed, cls);
        return r;
    };

    // Op numbers continue across windows, so every PUT of a run,
    // traced or not, names a distinct video. A window runs whole
    // rounds of 14: once its time is up, ops are still handed out
    // until the round in progress is complete, so every run PUTs each
    // class equally often.
    std::mutex take_mutex;
    u64 next = 0;
    u64 window_first = 0;
    std::map<u64, double> op_ms;
    auto window = [&](double seconds, SpanLog *log, OpTally &total) {
        window_first = next;
        std::vector<OpTally> tallies(kThreads);
        std::vector<std::vector<std::pair<u64, double>>> done(kThreads);
        const auto t0 = Clock::now();
        const auto end =
            t0 + std::chrono::microseconds(
                     static_cast<long long>(seconds * 1e6));
        std::vector<std::thread> threads;
        bool closing = false;
        auto take = [&](u64 &k) {
            std::lock_guard lock(take_mutex);
            closing = closing || Clock::now() >= end;
            if (closing && next % kClasses == 0)
                return false;
            k = next++;
            return true;
        };
        for (int t = 0; t < kThreads; ++t)
            threads.emplace_back([&, t] {
                OpTally &tally = tallies[t];
                for (u64 k = 0; take(k);) {
                    const PutRequest r = request(k);
                    const auto s = Clock::now();
                    auto resp = wirePut(*conns[t], r, 60000);
                    const auto e = Clock::now();
                    ++tally.attempted;
                    if (!resp || resp->status != Status::Ok) {
                        ++tally.failed;
                        continue;
                    }
                    tally.sample(msBetween(s, e), e);
                    tally.bytes += r.i420.size();
                    done[t].push_back({k, msBetween(s, e)});
                    if (log)
                        log->add("client.put", k + 1, s, e);
                }
            });
        for (auto &t : threads)
            t.join();
        const std::string flushed = serve->command("flush");
        run.expect(flushed.rfind("flushed", 0) == 0, "ingest flush");
        const double flush_ms =
            flushed.size() > 8 ? std::atof(flushed.c_str() + 8) : 0.0;
        run.layer("archive.flush_ms", flush_ms, "ms");
        for (auto &tally : tallies)
            total.merge(tally);
        for (auto &d : done)
            for (auto [k, ms] : d)
                op_ms[k] = ms;
        return msBetween(t0, Clock::now()) / 1e3;
    };

    // archive.payload_bytes is read from the archive and covers every
    // PUT of the run; the telemetry counters restart at each reset. So
    // the encrypted bytes counted before the last reset (the untraced
    // half of a traced run) are added back, and both policy figures
    // cover the same videos.
    OpTally tally;
    double elapsed = 0;
    std::map<std::string, double> before;
    if (run.trace) {
        OpTally plain;
        window(run.seconds / 2, nullptr, plain);
        before = ServeHandle::fields(serve->command("snap"));
        serve->command("reset");
        elapsed = window(run.seconds / 2, run.log(), tally);
        run.layer("trace.overhead_p50_pct",
                  100.0 * (percentile(tally.latencyMs, 50) /
                               percentile(plain.latencyMs, 50) -
                           1.0),
                  "%");
    } else {
        before = ServeHandle::fields(serve->command("snap"));
        serve->command("reset");
        elapsed = window(run.seconds, nullptr, tally);
    }
    auto snap = ServeHandle::fields(serve->command("snap"));
    auto total = snap;
    total["archive.bytes_encrypted"] += before["archive.bytes_encrypted"];

    // Checks on one PUT of each cipher treatment, chosen by seed.
    Rng pick(Rng::deriveSeed(run.seed, 77));
    auto stat = wireStat(*conns[0]);
    run.expect(stat.has_value(), "ingest STAT");
    std::vector<double> put_self;
    u64 payload_bits = 0, parity_bits = 0;
    // The rounds of the last window.
    const u64 first_round = window_first / kClasses;
    const u64 rounds = next / kClasses - first_round;
    for (int cipher = 0; cipher < 3 && rounds > 0; ++cipher) {
        int cls = static_cast<int>(pick.nextBelow(kClasses));
        while (cipherOfClass(cls) != cipher)
            cls = (cls + 1) % kClasses;
        const u64 k =
            (first_round + pick.nextBelow(rounds)) * kClasses + cls;
        const PutRequest r = request(k);
        const Video source = variant(k);
        const u64 root =
            run.log() ? run.log()->open("replay.put", k + 1, 0) : 0;
        const PreparedVideo prepared =
            prepareTraced(source, run.log(), k + 1, root);
        const auto enc = encryptionFor(r);
        replayStore(prepared, enc, run.log(), k + 1, root);
        if (run.log()) {
            ArchiveService local(run.dir + "/replay.vapp");
            local.open();
            ArchivePutOptions options;
            options.encryption = enc;
            const u64 seq = run.log()->open("archive.put", k + 1, root);
            local.put(r.name, prepared, options);
            run.log()->close(seq);
            run.log()->close(root);
            // The server's own share of this PUT: client time minus
            // the replayed preparation and archive put.
            double layers_ms = 0;
            for (const Span &sp : run.log()->spans())
                if (sp.parent == root &&
                    (sp.name == "codec.encode" ||
                     sp.name == "graph.importance" ||
                     sp.name == "core.partition" ||
                     sp.name == "archive.put"))
                    layers_ms += sp.endMs - sp.startMs;
            if (op_ms.count(k))
                put_self.push_back(op_ms[k] - layers_ms);
            for (const auto &[t, data] : prepared.streams.data) {
                const u64 bits = data.size() * 8;
                payload_bits += bits;
                parity_bits += (bits + 511) / 512 * 10 * t;
            }
        }
        checkExactVideo(
            run, r.name, source, prepared,
            [&](u32 gop) {
                GetFramesRequest g;
                g.name = r.name;
                g.gop = gop;
                g.key = r.key;
                return wireGet(*conns[0], g, 30000);
            },
            stat);
        if (cipher > 0) {
            // The wrong key must be refused, over the wire and by the
            // archive itself, never answered with frames.
            GetFramesRequest g;
            g.name = r.name;
            g.key = r.key;
            g.key[0] ^= 0x5a;
            auto resp = wireGet(*conns[0], g, 30000);
            run.expect(resp && resp->status == Status::KeyRequired &&
                           resp->i420.empty(),
                       r.name + ": wrong key not refused on the wire");
            ArchiveService local(run.dir + "/keycheck.vapp");
            local.open();
            ArchivePutOptions options;
            options.encryption = enc;
            local.put(r.name, prepared, options);
            ArchiveGetOptions get;
            get.key = g.key;
            run.expect(local.get(r.name, get).error ==
                           ArchiveError::KeyMismatch,
                       r.name + ": archive get with wrong key is not "
                                "KeyMismatch");
        }
    }
    // psnr_db: one video of each class read back after the flush.
    for (int cls = 0; cls < kClasses && rounds > 0; ++cls) {
        const u64 k = first_round * kClasses + static_cast<u64>(cls);
        const PutRequest r = request(k);
        GetFramesRequest g;
        g.name = r.name;
        g.key = r.key;
        auto resp = wireGet(*conns[0], g, 30000);
        run.expect(resp && resp->status == Status::Ok,
                   r.name + ": read-back failed");
        if (resp && resp->status == Status::Ok) {
            tally.psnrSum += referencePsnr(
                resp->i420.data(), resp->width, resp->height,
                resp->frameCount, variant(k), resp->firstFrame);
            ++tally.psnrCount;
        }
    }
    run.attempted = tally.attempted;
    run.failed = tally.failed;
    reportWindow(run, tally, elapsed, 90, 1000.0, -1);
    reportDensity(run, snap);
    if (run.log()) {
        reportServerLayers(run, snap, total, 0);
        run.layer("server.put_self_ms", mean(put_self), "ms");
        run.layer("storage.parity_bits_per_payload_bit",
                  payload_bits ? static_cast<double>(parity_bits) /
                                     payload_bits
                               : 0.0,
                  "ratio");
        run.layer("archive.put_ms", run.log()->meanMs("archive.put"),
                  "ms");
    }
    serve->stop();
}

/**
 * cold_read: four connections GET uniformly random (video, GOP) pairs
 * at raw BER 1e-3 in a closed loop; such reads bypass the frame cache.
 */
void
runColdRead(Run &run)
{
    // Seven of the classes (every other one) at full suite scale:
    // two GOPs per clip, and a decoded archive of about 62 MB against
    // a 16 MB frame cache.
    run.scale = 1.0;
    constexpr int kVideos = 7;
    std::vector<SyntheticSpec> specs;
    for (int i = 0; i < kVideos; ++i)
        specs.push_back(clipSpec(2 * i, 0, run.scale));
    const int frames = specs[0].frames;
    std::vector<PutRequest> puts(kVideos);
    std::vector<Video> clips;
    std::vector<u32> gops(kVideos, 1);
    std::unique_ptr<ServeHandle> serve;
    std::vector<std::unique_ptr<WireConn>> conns;
    const bool ok = timedSetup(run, serve, [&](ServeHandle &s) {
        clips = generateClips(run, specs);
        for (int i = 0; i < kVideos; ++i) {
            puts[i] = putRequestFor("cold-" + std::to_string(i),
                                    clips[i]);
            applyCipher(puts[i], cipherOfClass(2 * i), run.seed, 2 * i);
        }
        if (!s.spawn(1, 16, run.dir) ||
            !connectAll(conns, s.ports[0], kThreads) ||
            !fillArchive(conns, puts))
            return false;
        // One injected read per video builds its BCH tables.
        for (int c = 0; c < kVideos; ++c) {
            GetFramesRequest g;
            g.name = puts[c].name;
            g.key = puts[c].key;
            g.injectRawBer = kBer;
            auto r = wireGet(*conns[0], g, 30000);
            if (!r || (r->status != Status::Ok &&
                       r->status != Status::Partial))
                return false;
            gops[c] = r->gopCount;
        }
        return true;
    });
    run.expect(ok, "cold_read setup");
    if (!ok)
        return;

    // Per (video, GOP): the injected reads' PSNR, for the 0.3 dB check.
    std::map<std::pair<std::size_t, u32>, std::vector<double>> ber_psnr;
    std::mutex ber_mutex;
    std::vector<std::vector<double>> latency_by_video(kVideos);

    auto window = [&](double seconds, SpanLog *log, OpTally &total) {
        std::vector<OpTally> tallies(kThreads);
        const auto t0 = Clock::now();
        const auto end =
            t0 + std::chrono::microseconds(
                     static_cast<long long>(seconds * 1e6));
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t)
            threads.emplace_back([&, t] {
                Rng rng(Rng::deriveSeed(run.seed, 100 + t));
                OpTally &tally = tallies[t];
                std::vector<std::tuple<std::size_t, u32, double, double>>
                    seen;
                u64 op = 0;
                while (Clock::now() < end) {
                    const std::size_t v = rng.nextBelow(kVideos);
                    GetFramesRequest g;
                    g.name = puts[v].name;
                    g.gop = static_cast<u32>(rng.nextBelow(gops[v]));
                    g.key = puts[v].key;
                    g.injectRawBer = kBer;
                    g.seed = rng.next();
                    Clock::time_point s;
                    auto r = wireGet(*conns[t], g, 30000, &s);
                    const auto e = Clock::now();
                    ++tally.attempted;
                    // Partial is a served approximate read: some BCH
                    // blocks were beyond correction, as the paper's
                    // model allows at this BER.
                    if (!r || (r->status != Status::Ok &&
                               r->status != Status::Partial) ||
                        r->frameCount == 0) {
                        ++tally.failed;
                        continue;
                    }
                    const double ms = msBetween(s, e);
                    tally.sample(ms, e);
                    tally.bytes += r->i420.size();
                    const double db = referencePsnr(
                        r->i420.data(), r->width, r->height,
                        r->frameCount, clips[v], r->firstFrame);
                    tally.psnrSum += db;
                    ++tally.psnrCount;
                    seen.emplace_back(v, g.gop, db, ms);
                    if (log)
                        log->add("client.get",
                                 (static_cast<u64>(t) << 32) | ++op, s,
                                 e);
                }
                std::lock_guard lock(ber_mutex);
                for (auto [v, gop, db, ms] : seen) {
                    ber_psnr[{v, gop}].push_back(db);
                    latency_by_video[v].push_back(ms);
                }
            });
        for (auto &t : threads)
            t.join();
        for (auto &tally : tallies)
            total.merge(tally);
        return msBetween(t0, Clock::now()) / 1e3;
    };

    OpTally tally;
    double elapsed = 0;
    auto before = ServeHandle::fields(serve->command("snap"));
    if (run.trace) {
        OpTally plain;
        window(run.seconds / 2, nullptr, plain);
        serve->command("reset");
        ber_psnr.clear();
        for (auto &l : latency_by_video)
            l.clear();
        elapsed = window(run.seconds / 2, run.log(), tally);
        run.layer("trace.overhead_p50_pct",
                  100.0 * (percentile(tally.latencyMs, 50) /
                               percentile(plain.latencyMs, 50) -
                           1.0),
                  "%");
    } else {
        serve->command("reset");
        elapsed = window(run.seconds, nullptr, tally);
    }
    auto snap = ServeHandle::fields(serve->command("snap"));
    auto total = before;
    total["archive.payload_bytes"] = snap["archive.payload_bytes"];

    // Quality: every injected read against the exact read of its GOP.
    double loss_sum = 0.0;
    u64 loss_n = 0;
    for (const auto &[key, dbs] : ber_psnr) {
        GetFramesRequest g;
        g.name = puts[key.first].name;
        g.gop = key.second;
        g.key = puts[key.first].key;
        auto r = wireGet(*conns[0], g, 30000);
        if (!r || r->status != Status::Ok) {
            run.expect(false, g.name + ": exact GET failed");
            continue;
        }
        const double exact = referencePsnr(
            r->i420.data(), r->width, r->height, r->frameCount,
            clips[key.first], r->firstFrame);
        for (double db : dbs) {
            loss_sum += exact - db;
            ++loss_n;
        }
    }
    const double loss = loss_n ? loss_sum / loss_n : 0.0;
    run.meta.push_back({"ber_psnr_loss_db", std::to_string(loss)});
    run.expect(loss <= 0.3, "mean PSNR loss at raw BER 1e-3 is " +
                                std::to_string(loss) + " dB > 0.3 dB");

    // Exactness, PSNR and cell arithmetic on one seed-chosen video.
    const std::size_t v = Rng(Rng::deriveSeed(run.seed, 78))
                              .nextBelow(kVideos);
    const PreparedVideo prepared =
        prepareTraced(clips[v], nullptr, 0, 0);
    auto stat = wireStat(*conns[0]);
    checkExactVideo(
        run, puts[v].name, clips[v], prepared,
        [&](u32 gop) {
            GetFramesRequest g;
            g.name = puts[v].name;
            g.gop = gop;
            g.key = puts[v].key;
            return wireGet(*conns[0], g, 30000);
        },
        stat);
    // Wrong key on an encrypted video is refused without frames.
    {
        const std::size_t e =
            cipherOfClass(2 * static_cast<int>(v)) ? v : 1;
        GetFramesRequest g;
        g.name = puts[e].name;
        g.key = puts[e].key;
        g.key[0] ^= 0x5a;
        g.injectRawBer = kBer;
        auto r = wireGet(*conns[0], g, 30000);
        run.expect(r && r->status == Status::KeyRequired &&
                       r->i420.empty(),
                   g.name + ": wrong key not refused");
    }

    if (run.log()) {
        const auto enc = encryptionFor(puts[v]);
        std::vector<double> self;
        for (int rep = 0; rep < 2; ++rep) {
            const u64 id = (u64{1} << 40) | static_cast<u64>(rep);
            const u64 root = run.log()->open("replay.get", id, 0);
            replayRead(prepared, enc, kBer, run.seed + rep, run.log(),
                       id, root);
            run.log()->close(root);
            const std::size_t decoded =
                replayArchiveGet(run, puts[v].name, prepared, enc, kBer,
                                 run.seed + rep, id, 0);
            run.layer("codec.frames_decoded_per_frame_served",
                      static_cast<double>(decoded) /
                          (static_cast<double>(frames) / gops[v]),
                      "ratio");
        }
        run.layer("archive.get_ms", run.log()->meanMs("archive.get"),
                  "ms");
        run.layer("server.get_self_ms",
                  mean(latency_by_video[v]) -
                      run.log()->meanMs("archive.get"),
                  "ms");
        reportServerLayers(run, snap, total, tally.attempted);
        GetFramesRequest hot;
        hot.name = puts[v].name;
        hot.key = puts[v].key;
        measureHotRtt(run, serve->ports[0], hot);
    }
    run.attempted = tally.attempted;
    run.failed = tally.failed;
    reportWindow(run, tally, elapsed, 90, 1000.0, -1);
    reportDensity(run, snap);
    serve->stop();
}

/** The hot_read ladder: offered rates (op/s), each with its share of
 * the run. The reference rate, whose latency is reported, gets the
 * largest share so its tail rests on the most samples. */
struct HotRung
{
    double rate;
    double share;
};
const std::vector<HotRung> kHotLadder = {
    {4000, 0.4},  {8000, 0.1},  {12000, 0.1},
    {16000, 0.1}, {20000, 0.1}, {24000, 0.1}, {28000, 0.1}};
constexpr double kHotReferenceRate = 4000;
constexpr double kHotLimitMs = 20.0;
/** In flight per connection: 4 x 32 stays below the server's queue
 * capacity of 256, so overload shows as latency, not Retry. */
constexpr int kHotOutstanding = 32;

/**
 * Open-loop load over @p conns from one thread: Poisson arrivals at
 * @p rate over [start, end), spread over the connections with at most
 * kHotOutstanding in flight on each. Latency is timed from each
 * request's due time. The thread spins between arrivals: timer
 * wake-ups on this class of machine run up to several milliseconds
 * late at p99, which would otherwise be charged to the server.
 */
void
openLoop(std::vector<std::unique_ptr<WireConn>> &conns, Rng &rng,
         double rate, Clock::time_point start, Clock::time_point end,
         const std::function<GetFramesRequest(Rng &)> &make,
         const std::function<u64(const FrameDeframer::Decoded &,
                                 const GetFramesRequest &, OpTally &)>
             &accept,
         double timeout_ms, OpTally &tally, SpanLog *log)
{
    struct Pending
    {
        Clock::time_point due;
        GetFramesRequest request;
    };
    std::vector<std::map<u32, Pending>> pending(conns.size());
    const std::vector<Clock::time_point> schedule = arrivals(
        rng, rate, start, std::chrono::duration<double>(end - start).count());
    std::size_t next = 0;
    const auto timeout = std::chrono::microseconds(
        static_cast<long long>(timeout_ms * 1e3));
    std::size_t turn = 0;
    for (;;) {
        auto now = Clock::now();
        bool idle = true;
        if (next < schedule.size() && now >= schedule[next]) {
            const auto due = schedule[next];
            // The next connection with room; none means backlog, and
            // the request waits (its latency still counts from due).
            for (std::size_t i = 0; i < conns.size(); ++i) {
                const std::size_t c = (turn + i) % conns.size();
                if (static_cast<int>(pending[c].size()) >=
                    kHotOutstanding)
                    continue;
                turn = c + 1;
                GetFramesRequest request = make(rng);
                u32 id = 0;
                ++tally.attempted;
                tally.lateMs.push_back(msBetween(due, now));
                if (!conns[c]->send(Opcode::GetFrames,
                                    serializeGetFramesRequest(request),
                                    id, now + timeout))
                    ++tally.failed;
                else
                    pending[c][id] = {due, std::move(request)};
                ++next;
                idle = false;
                break;
            }
        }
        bool open = next < schedule.size();
        for (std::size_t c = 0; c < conns.size(); ++c) {
            // A past deadline makes receive() take only what has
            // already arrived.
            while (!pending[c].empty()) {
                auto frame = conns[c]->receive(now);
                if (!frame)
                    break;
                idle = false;
                auto it = pending[c].find(frame->header.requestId);
                if (it == pending[c].end())
                    continue; // answered after its deadline
                const auto at = Clock::now();
                if (const u64 bytes =
                        accept(*frame, it->second.request, tally)) {
                    tally.sample(msBetween(it->second.due, at), at);
                    tally.bytes += bytes;
                    if (log)
                        log->add("client.get",
                                 (static_cast<u64>(c) << 32) |
                                     frame->header.requestId,
                                 it->second.due, at);
                } else {
                    ++tally.failed;
                }
                pending[c].erase(it);
            }
            for (auto it = pending[c].begin(); it != pending[c].end();) {
                if (now > it->second.due + timeout) {
                    ++tally.failed;
                    it = pending[c].erase(it);
                } else {
                    ++it;
                }
            }
            open = open || !pending[c].empty();
        }
        if (!open)
            return;
        if (idle)
            std::this_thread::yield();
    }
}

/**
 * hot_read: Zipf-skewed exact GETs over videos whose decoded GOPs all
 * fit in the warmed frame cache, climbing a ladder of Poisson rates.
 */
void
runHotRead(Run &run)
{
    run.scale = 0.25;
    // Twelve frames of 80x48 (a 69 KB GOP): small answers, so the
    // serving layer's per-request work, not copying, sets the pace.
    constexpr int kHotFrames = 12;
    constexpr int kVariants = 4;
    constexpr int kVideos = kClasses * kVariants;
    std::vector<SyntheticSpec> specs;
    for (int i = 0; i < kVideos; ++i)
        specs.push_back(clipSpec(i % kClasses, i / kClasses,
                                 run.scale, kHotFrames));
    std::vector<Video> clips;
    std::vector<PutRequest> puts(kVideos);
    std::vector<Bytes> refs(kVideos);
    std::vector<Bytes> hit_payloads(kVideos);
    std::vector<double> ref_psnr(kVideos);
    std::unique_ptr<ServeHandle> serve;
    std::vector<std::unique_ptr<WireConn>> conns;
    const bool ok = timedSetup(run, serve, [&](ServeHandle &s) {
        clips = generateClips(run, specs);
        for (int i = 0; i < kVideos; ++i)
            puts[i] = putRequestFor("hot-" + std::to_string(i), clips[i]);
        if (!s.spawn(1, 64, run.dir) ||
            !connectAll(conns, s.ports[0], kThreads) ||
            !fillArchive(conns, puts))
            return false;
        for (int i = 0; i < kVideos; ++i) {
            GetFramesRequest g;
            g.name = puts[i].name;
            auto r = wireGet(*conns[0], g, 30000);
            if (!r || r->status != Status::Ok || r->gopCount != 1)
                return false;
            refs[i] = r->i420;
            ref_psnr[i] = referencePsnr(r->i420.data(), r->width,
                                        r->height, r->frameCount,
                                        clips[i], r->firstFrame);
            // Every later read is a cache hit; keep that answer's
            // exact payload so the load loop can compare in place.
            auto hit = wireCall(*conns[0], Opcode::GetFrames,
                                serializeGetFramesRequest(g), 30000);
            GetFramesResponse parsed;
            if (!hit ||
                !parseGetFramesResponse(hit->payload, parsed) ||
                !parsed.fromCache || parsed.i420 != refs[i])
                return false;
            hit_payloads[i] = std::move(hit->payload);
        }
        return true;
    });
    run.expect(ok, "hot_read setup");
    if (!ok)
        return;

    // Zipf(1.0) over a seed-shuffled order of the videos.
    std::vector<double> cdf(kVideos);
    std::vector<std::size_t> order(kVideos);
    {
        double sum = 0;
        for (int i = 0; i < kVideos; ++i)
            cdf[i] = (sum += 1.0 / (i + 1));
        for (double &c : cdf)
            c /= sum;
        Rng shuffle(Rng::deriveSeed(run.seed, 79));
        for (int i = 0; i < kVideos; ++i)
            order[i] = static_cast<std::size_t>(i);
        for (int i = kVideos - 1; i > 0; --i)
            std::swap(order[i], order[shuffle.nextBelow(i + 1)]);
    }
    std::map<std::string, std::size_t> index;
    for (int i = 0; i < kVideos; ++i)
        index[puts[i].name] = static_cast<std::size_t>(i);
    auto make = [&](Rng &rng) {
        const double u = rng.nextDouble();
        const std::size_t rank = static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        GetFramesRequest g;
        g.name = puts[order[std::min<std::size_t>(rank, kVideos - 1)]]
                     .name;
        return g;
    };
    std::atomic<u64> mismatches{0};
    auto accept = [&](const FrameDeframer::Decoded &frame,
                      const GetFramesRequest &g, OpTally &tally) -> u64 {
        const std::size_t i = index[g.name];
        if (frame.header.kind != static_cast<u8>(Status::Ok) ||
            frame.payload != hit_payloads[i]) {
            ++mismatches;
            return 0;
        }
        tally.psnrSum += ref_psnr[i];
        ++tally.psnrCount;
        return refs[i].size();
    };

    struct Rung
    {
        double rate;
        double seconds;
        OpTally tally;
    };
    auto ladder = [&](double seconds, SpanLog *log) {
        std::vector<Rung> rungs;
        auto start = Clock::now() + std::chrono::milliseconds(5);
        u64 rung_index = 0;
        for (auto [rate, share] : kHotLadder) {
            const double rung_s = seconds * share;
            const auto end =
                start + std::chrono::microseconds(
                            static_cast<long long>(rung_s * 1e6));
            Rung rung{rate, rung_s, {}};
            Rng rng(Rng::deriveSeed(run.seed, 1000 + ++rung_index));
            openLoop(conns, rng, rate, start, end, make, accept, 1000.0,
                     rung.tally, log);
            rungs.push_back(std::move(rung));
            start = Clock::now() + std::chrono::milliseconds(5);
        }
        return rungs;
    };

    std::vector<Rung> rungs;
    auto before = ServeHandle::fields(serve->command("snap"));
    if (run.trace) {
        auto plain = ladder(run.seconds / 2, nullptr);
        serve->command("reset");
        rungs = ladder(run.seconds / 2, run.log());
        for (std::size_t i = 0; i < rungs.size(); ++i)
            if (rungs[i].rate == kHotReferenceRate)
                run.layer("trace.overhead_p50_pct",
                          100.0 * (percentile(rungs[i].tally.latencyMs,
                                              50) /
                                       percentile(
                                           plain[i].tally.latencyMs, 50) -
                                   1.0),
                          "%");
    } else {
        serve->command("reset");
        rungs = ladder(run.seconds, nullptr);
    }
    auto snap = ServeHandle::fields(serve->command("snap"));

    // The SLO rate: the highest rung whose p99 holds the limit with
    // every request served and nothing left behind.
    double slo = 0.0;
    OpTally all;
    const Rung *reference = nullptr;
    for (const Rung &r : rungs) {
        std::fprintf(stderr,
                     "hot_read rung %.0f op/s: %llu attempted, %llu "
                     "failed, p50 %.3f ms, p99 %.3f ms, late p99 %.3f ms\n",
                     r.rate,
                     static_cast<unsigned long long>(r.tally.attempted),
                     static_cast<unsigned long long>(r.tally.failed),
                     percentile(r.tally.latencyMs, 50),
                     percentile(r.tally.latencyMs, 99),
                     percentile(r.tally.lateMs, 99));
    }
    bool held = true;
    for (const Rung &r : rungs) {
        all.merge(r.tally);
        if (r.rate == kHotReferenceRate)
            reference = &r;
        held = held && r.tally.failed == 0 &&
               percentile(r.tally.latencyMs, 99) <= kHotLimitMs;
        if (held)
            slo = (r.tally.attempted - r.tally.failed) / r.seconds;
    }
    run.expect(mismatches == 0, "hot_read: a GET differed from its "
                                "warm-up read");
    run.expect(reference != nullptr && slo > 0,
               "hot_read: the reference rate missed the latency limit");
    run.lateP99Ms = percentile(all.lateMs, 99);
    run.attempted = all.attempted;
    run.failed = all.failed;
    if (reference)
        reportWindow(run, reference->tally, reference->seconds, 90,
                     kHotLimitMs, slo);
    reportDensity(run, snap);
    // Fresh connections: the ladder may leave answers to requests
    // that had already timed out in the old ones.
    run.expect(connectAll(conns, serve->ports[0], kThreads),
               "hot_read reconnect");

    // Exact read of one video against the encoder's reconstruction.
    const std::size_t v = Rng(Rng::deriveSeed(run.seed, 78))
                              .nextBelow(kVideos);
    const PreparedVideo prepared =
        prepareTraced(clips[v], nullptr, 0, 0);
    auto stat = wireStat(*conns[0]);
    checkExactVideo(
        run, puts[v].name, clips[v], prepared,
        [&](u32 gop) {
            GetFramesRequest g;
            g.name = puts[v].name;
            g.gop = gop;
            return wireGet(*conns[0], g, 30000);
        },
        stat);
    if (run.log()) {
        replayArchiveGet(run, puts[v].name, prepared, std::nullopt, 0.0,
                         1, 1u << 31, 0);
        run.layer("archive.get_ms", run.log()->meanMs("archive.get"),
                  "ms");
        // Every ladder request was a cache hit, so the server's own
        // share is the whole client time.
        run.layer("server.get_self_ms",
                  reference ? percentile(reference->tally.latencyMs, 50)
                            : 0.0,
                  "ms");
        reportServerLayers(run, snap, before, all.attempted);
        GetFramesRequest hot;
        hot.name = puts[v].name;
        measureHotRtt(run, serve->ports[0], hot);
    }
    serve->stop();
}

/**
 * routed_resize: fixed-rate open-loop GETs through ClusterRouter over
 * three shards while a fourth joins and later leaves.
 */
void
runRoutedResize(Run &run)
{
    run.scale = 0.5;
    constexpr int kShards = 3;
    constexpr int kVariants = 3;
    constexpr int kVideos = kClasses * kVariants;
    constexpr double kRate = 120.0;
    constexpr double kLimitMs = 50.0;
    constexpr double kTimeoutMs = 5000.0;
    std::vector<SyntheticSpec> specs;
    for (int i = 0; i < kVideos; ++i)
        specs.push_back(clipSpec(i % kClasses, i / kClasses,
                                 run.scale));
    std::vector<Video> clips;
    std::vector<std::string> names(kVideos);
    std::vector<Bytes> refs(kVideos);
    std::vector<double> ref_psnr(kVideos);
    std::unique_ptr<ServeHandle> serve;
    std::vector<ClusterShard> seeds;
    const bool ok = timedSetup(run, serve, [&](ServeHandle &s) {
        clips = generateClips(run, specs);
        if (!s.spawn(kShards, 64, run.dir))
            return false;
        seeds.clear();
        for (std::size_t i = 0; i < s.ports.size(); ++i)
            seeds.push_back({static_cast<u32>(i), "127.0.0.1",
                             s.ports[i]});
        std::atomic<int> next{0};
        std::atomic<bool> good{true};
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t)
            threads.emplace_back([&] {
                ClusterRouterConfig config;
                config.seeds = seeds;
                ClusterRouter router(config);
                for (int i; (i = next++) < kVideos;) {
                    names[i] = "routed-" + std::to_string(i);
                    auto r = router.put(putRequestFor(names[i], clips[i]));
                    if (!r || r->status != Status::Ok) {
                        good = false;
                        continue;
                    }
                    GetFramesRequest g;
                    g.name = names[i];
                    auto got = router.getFrames(g);
                    if (!got || got->status != Status::Ok ||
                        got->gopCount != 1) {
                        good = false;
                        continue;
                    }
                    refs[i] = got->i420;
                    ref_psnr[i] = referencePsnr(
                        got->i420.data(), got->width, got->height,
                        got->frameCount, clips[i], got->firstFrame);
                }
            });
        for (auto &t : threads)
            t.join();
        return good.load();
    });
    run.expect(ok, "routed_resize setup");
    if (!ok)
        return;

    // Moves predicted from the rings before and after each change.
    auto predict = [&](std::vector<u32> from, std::vector<u32> to) {
        const HashRing a(from, 64), b(to, 64);
        std::size_t moved = 0;
        for (const std::string &n : names)
            moved += a.ownerOf(n) != b.ownerOf(n);
        return moved;
    };
    const std::size_t predicted_add = predict({0, 1, 2}, {0, 1, 2, 3});
    const std::size_t predicted_remove =
        predict({0, 1, 2, 3}, {0, 1, 2});

    // The window runs in three read phases, on 3, 4 and 3 shards.
    // Reads pause while the membership changes: a transition under
    // concurrent GETs intermittently never completes (a lost
    // migration RPC; see README, known faults), and an operation that
    // fails only now and then cannot be counted steadily. Each phase
    // therefore starts with routers holding the previous epoch's
    // ring, so WrongEpoch answers and router refreshes still happen.
    std::atomic<u64> mismatches{0};
    auto window = [&](double seconds, SpanLog *log, OpTally &total,
                      std::vector<std::string> &reports) {
        telemetry::globalRegistry().resetAll();
        Clock::time_point phase_start =
            Clock::now() + std::chrono::milliseconds(5);
        int phase = 0;
        const char *const changes[] = {"add", "remove"};
        auto change = [&]() noexcept {
            const auto s = Clock::now();
            reports.push_back(serve->command(changes[phase], 30000));
            if (reports.back().empty())
                serve->kill(); // the transition hung: release readers
            if (log)
                log->add(std::string("rebalance.") + changes[phase], 0,
                         s, Clock::now());
            ++phase;
            phase_start = Clock::now() + std::chrono::milliseconds(5);
        };
        std::barrier sync(kThreads, change);
        std::vector<OpTally> tallies(kThreads);
        std::vector<std::atomic<bool>> finished(kThreads);
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t)
            threads.emplace_back([&, t] {
                ClusterRouterConfig config;
                config.seeds = seeds;
                ClusterRouter router(config);
                Rng rng(Rng::deriveSeed(run.seed, 200 + t));
                OpTally &tally = tallies[t];
                const double rate = kRate / kThreads;
                u64 op = 0;
                for (int p = 0; p < 3; ++p) {
                    if (p > 0)
                        sync.arrive_and_wait();
                    for (const Clock::time_point due :
                         arrivals(rng, rate, phase_start, seconds / 3)) {
                        // Generator lateness counts only when this
                        // thread was free before the request fell due;
                        // one due while the previous call was still
                        // out waits on the server, and its latency
                        // (from due) shows that.
                        const bool free = Clock::now() < due;
                        std::this_thread::sleep_until(due);
                        const std::size_t v = rng.nextBelow(kVideos);
                        GetFramesRequest g;
                        g.name = names[v];
                        if (free)
                            tally.lateMs.push_back(
                                msBetween(due, Clock::now()));
                        ++tally.attempted;
                        auto r = router.getFrames(g);
                        const auto e = Clock::now();
                        const double ms = msBetween(due, e);
                        if (!r || r->status != Status::Ok ||
                            ms > kTimeoutMs) {
                            ++tally.failed;
                            continue;
                        }
                        if (r->i420 != refs[v]) {
                            ++mismatches;
                            ++tally.failed;
                            continue;
                        }
                        tally.sample(ms, e);
                        tally.bytes += r->i420.size();
                        tally.psnrSum += ref_psnr[v];
                        ++tally.psnrCount;
                        if (log)
                            log->add("client.routed_get",
                                     (static_cast<u64>(t) << 32) | ++op,
                                     due, e);
                    }
                }
                finished[t] = true;
            });
        // A reader stuck past every deadline means a lost response:
        // stopping the serving process closes its sockets, which
        // releases the blocked call so the thread can be joined.
        const auto give_up =
            Clock::now() + std::chrono::microseconds(static_cast<long long>(
                               (seconds + 2 * 30 + 2 * kTimeoutMs / 1e3) *
                               1e6));
        bool stuck = false;
        for (int t = 0; t < kThreads; ++t) {
            while (!finished[t] && Clock::now() < give_up)
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
            stuck = stuck || !finished[t];
        }
        if (stuck) {
            std::fprintf(stderr, "routed_resize: reader stuck past "
                                 "its deadline, stopping the server\n");
            serve->kill();
        }
        for (auto &t : threads)
            t.join();
        for (auto &tally : tallies)
            total.merge(tally);
        return !stuck && reports.size() == 2 && !reports[0].empty() &&
               !reports[1].empty();
    };

    OpTally tally;
    std::vector<std::string> reports;
    auto before = ServeHandle::fields(serve->command("snap"));
    bool alive = true;
    if (run.trace) {
        OpTally plain;
        std::vector<std::string> plain_reports;
        alive = window(run.seconds / 2, nullptr, plain, plain_reports);
        serve->command("reset");
        if (alive)
            alive = window(run.seconds / 2, run.log(), tally, reports);
        run.layer("trace.overhead_p50_pct",
                  100.0 * (percentile(tally.latencyMs, 50) /
                               percentile(plain.latencyMs, 50) -
                           1.0),
                  "%");
    } else {
        serve->command("reset");
        alive = window(run.seconds, nullptr, tally, reports);
    }
    const double window_s = run.trace ? run.seconds / 2 : run.seconds;
    run.expect(alive, "routed_resize: a request outlived its deadline "
                      "or a membership change did not complete");
    run.expect(mismatches == 0,
               "routed_resize: a GET differed from the pre-resize read");
    std::map<std::string, double> snap;
    if (alive)
        snap = ServeHandle::fields(serve->command("snap"));

    double moved_bytes = 0, moved_ms = 0, moved_records = 0;
    for (std::size_t i = 0; i < reports.size(); ++i) {
        auto f = ServeHandle::fields(reports[i]);
        const std::size_t predicted = i == 0 ? predicted_add
                                             : predicted_remove;
        const double moved = f["moved"] + f["skipped"];
        run.expect(reports[i].rfind(i == 0 ? "added" : "removed", 0) ==
                           0 &&
                       f["failed"] == 0 && moved == predicted &&
                       f["predicted"] == predicted,
                   "routed_resize: transition '" + reports[i] +
                       "' moved a different set than the ring diff (" +
                       std::to_string(predicted) + ")");
        run.layer(i == 0 ? "rebalance.add_ms" : "rebalance.remove_ms",
                  f["ms"], "ms");
        moved_bytes += f["bytes"];
        moved_ms += f["ms"];
        moved_records += moved;
    }
    run.meta.push_back({"predicted_moves",
                        std::to_string(predicted_add) + "+" +
                            std::to_string(predicted_remove)});

    // After the resize every video still reads back byte-exact, and
    // one of them equals the encoder's reconstruction.
    if (alive) {
        ClusterRouterConfig config;
        config.seeds = seeds;
        ClusterRouter router(config);
        for (int i = 0; i < kVideos; ++i) {
            GetFramesRequest g;
            g.name = names[i];
            auto r = router.getFrames(g);
            run.expect(r && r->status == Status::Ok && r->i420 == refs[i],
                       names[i] + ": lost or changed by the resize");
        }
        const std::size_t v = Rng(Rng::deriveSeed(run.seed, 78))
                                  .nextBelow(kVideos);
        const PreparedVideo prepared =
            prepareTraced(clips[v], nullptr, 0, 0);
        auto stat = router.stat();
        checkExactVideo(
            run, names[v], clips[v], prepared,
            [&](u32 gop) {
                GetFramesRequest g;
                g.name = names[v];
                g.gop = gop;
                return router.getFrames(g);
            },
            stat);
        if (run.log())
            replayArchiveGet(run, names[v], prepared, std::nullopt, 0.0,
                             1, 1u << 31, 0);
    }
    run.attempted = tally.attempted;
    run.failed = tally.failed;
    run.lateP99Ms = percentile(tally.lateMs, 99);
    reportWindow(run, tally, window_s, 99, kLimitMs, -1);
    reportDensity(run, snap);
    if (run.log()) {
        reportServerLayers(run, snap, before, tally.attempted);
        auto &registry = telemetry::globalRegistry();
        run.layer("cluster.router_refreshes",
                  registry.counter("router.refreshes").value(), "count");
        run.layer("rebalance.records_moved", moved_records, "count");
        run.layer("rebalance.bytes_moved", moved_bytes, "bytes");
        run.layer("rebalance.migrate_mb_s",
                  moved_ms > 0 ? moved_bytes / 1e6 / (moved_ms / 1e3) : 0,
                  "MB/s");
        run.layer("archive.get_ms", run.log()->meanMs("archive.get"),
                  "ms");
    }
    if (alive)
        serve->stop();
}

// --- output ------------------------------------------------------------

/** Every per-layer metric, in the order BENCHMARK.json lists them. */
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"codec.encode_ms", "ms"},
    {"codec.decode_ms", "ms"},
    {"codec.frames_decoded_per_frame_served", "ratio"},
    {"graph.importance_ms", "ms"},
    {"core.partition_ms", "ms"},
    {"core.merge_ms", "ms"},
    {"policy.bytes_encrypted", "bytes"},
    {"policy.bytes_plaintext", "bytes"},
    {"crypto.encrypt_ms", "ms"},
    {"crypto.decrypt_ms", "ms"},
    {"storage.cell_encode_ms", "ms"},
    {"storage.cell_read_ms", "ms"},
    {"storage.parity_bits_per_payload_bit", "ratio"},
    {"storage.blocks_decoded", "count"},
    {"storage.blocks_corrected", "count"},
    {"storage.blocks_uncorrectable", "count"},
    {"archive.put_ms", "ms"},
    {"archive.flush_ms", "ms"},
    {"archive.get_ms", "ms"},
    {"server.get_self_ms", "ms"},
    {"server.put_self_ms", "ms"},
    {"server.hot_rtt_ms", "ms"},
    {"server.cache_hit_ratio", "ratio"},
    {"server.coalesced_gets", "count"},
    {"server.queue_high_water", "count"},
    {"cluster.wrong_epoch", "count"},
    {"cluster.forwards", "count"},
    {"cluster.pull_through", "count"},
    {"cluster.router_refreshes", "count"},
    {"rebalance.add_ms", "ms"},
    {"rebalance.remove_ms", "ms"},
    {"rebalance.records_moved", "count"},
    {"rebalance.bytes_moved", "bytes"},
    {"rebalance.migrate_mb_s", "MB/s"},
    {"video.generate_ms", "ms"},
    {"trace.overhead_p50_pct", "%"},
    {"trace.spans", "count"},
};

/** Layer figures taken straight from the spans of the traced run. */
void
layersFromSpans(Run &run)
{
    SpanLog &log = *run.log();
    const std::pair<const char *, const char *> span_metrics[] = {
        {"codec.encode", "codec.encode_ms"},
        {"graph.importance", "graph.importance_ms"},
        {"core.partition", "core.partition_ms"},
        {"crypto.encrypt", "crypto.encrypt_ms"},
        {"crypto.decrypt", "crypto.decrypt_ms"},
        {"storage.cell_encode", "storage.cell_encode_ms"},
        {"storage.cell_read", "storage.cell_read_ms"},
    };
    for (auto [span, metric] : span_metrics)
        run.layer(metric, log.meanSelfMs(span), "ms");
    run.layer("video.generate_ms", mean(run.generateMs), "ms");
    run.layer("trace.spans", static_cast<double>(log.spans().size()),
              "count");
}

void
printResult(Run &run)
{
    run.meta.push_back({"seed", std::to_string(run.seed)});
    run.meta.push_back({"scale", std::to_string(run.scale)});
    run.meta.push_back(
        {"nproc", std::to_string(std::thread::hardware_concurrency())});
    run.meta.push_back(
        {"simd", std::string("\"") +
                     simd::simdLevelName(simd::simdActiveLevel()) + "\""});
    run.meta.push_back({"generator_late_p99_ms",
                        std::to_string(run.lateP99Ms)});
    run.meta.push_back({"generator_behind",
                        run.lateP99Ms > kLateFlagMs ? "true" : "false"});
    std::string setups;
    for (double s : run.setupS)
        setups += (setups.empty() ? "" : ",") + std::to_string(s);
    run.meta.push_back({"setup_reps_s", "[" + setups + "]"});

    std::string meta = "meta {";
    for (std::size_t i = 0; i < run.meta.size(); ++i)
        meta += (i ? ", \"" : "\"") + run.meta[i].first +
                "\": " + run.meta[i].second;
    std::printf("%s}\n", meta.c_str());

    std::vector<std::pair<std::string, Metric>> metrics;
    if (run.trace) {
        for (const auto &[name, unit] : kLayerMetrics) {
            Metric m{0.0, unit};
            for (const auto &[n, v] : run.layers)
                if (n == name)
                    m = v;
            metrics.push_back({name, m});
        }
    } else {
        metrics.push_back(
            {"setup_s", {percentile(run.setupS, 50), "s"}});
        for (const auto &m : run.endToEnd)
            metrics.push_back(m);
    }
    std::string out = "{\"correct\": ";
    out += run.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(run.attempted);
    out += ", \"failed\": " + std::to_string(run.failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g",
                      std::isfinite(metrics[i].second.value)
                          ? metrics[i].second.value
                          : 0.0);
        out += (i ? ", \"" : "\"") + metrics[i].first +
               "\": {\"value\": " + value + ", \"unit\": \"" +
               metrics[i].second.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: vbench --workload ingest|cold_read|hot_read|"
                 "routed_resize --seed N --seconds S --trace 0|1\n"
                 "       vbench serve --shards N --cache-mb M --dir D\n");
    return 2;
}

} // namespace
} // namespace vbench

int
main(int argc, char **argv)
{
    using namespace vbench;
    std::signal(SIGPIPE, SIG_IGN);
    std::map<std::string, std::string> args;
    const bool serve = argc > 1 && std::strcmp(argv[1], "serve") == 0;
    for (int i = serve ? 2 : 1; i + 1 < argc; i += 2)
        args[argv[i]] = argv[i + 1];
    if (serve) {
        if (!args.count("--shards") || !args.count("--cache-mb") ||
            !args.count("--dir"))
            return usage();
        return serveMain(std::atoi(args["--shards"].c_str()),
                         static_cast<std::size_t>(
                             std::atoi(args["--cache-mb"].c_str()))
                             << 20,
                         args["--dir"]);
    }
    if (!args.count("--workload") || !args.count("--seed") ||
        !args.count("--seconds"))
        return usage();

    char exe[4096];
    const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof exe - 1);
    if (n <= 0)
        return 1;
    gSelfExe.assign(exe, static_cast<std::size_t>(n));

    Run run;
    run.workload = args["--workload"];
    run.seed = std::strtoull(args["--seed"].c_str(), nullptr, 10);
    run.seconds = std::atof(args["--seconds"].c_str());
    run.trace = args.count("--trace") && args["--trace"] == "1";
    const auto origin = Clock::now();
    if (run.trace)
        run.spans = std::make_unique<SpanLog>(origin);
    const std::string base = args.count("--dir") ? args["--dir"]
                                                 : ".bench_build/runs";
    ::mkdir(base.c_str(), 0755);
    run.dir = base + "/" + run.workload + "-" + std::to_string(::getpid());
    ::mkdir(run.dir.c_str(), 0755);
    setThreadCount(kThreads);

    std::map<std::string, void (*)(Run &)> workloads = {
        {"ingest", runIngest},
        {"cold_read", runColdRead},
        {"hot_read", runHotRead},
        {"routed_resize", runRoutedResize},
    };
    if (!workloads.count(run.workload))
        return usage();
    workloads[run.workload](run);
    if (run.endToEnd.empty()) {
        std::fprintf(stderr, "%s: no result\n", run.workload.c_str());
        return 1;
    }
    if (run.trace) {
        layersFromSpans(run);
        run.spans->writeJson(run.dir + "/../" + run.workload + "-" +
                             std::to_string(run.seed) + ".trace.json");
    }
    std::remove((run.dir + "/replay.vapp").c_str());
    std::remove((run.dir + "/keycheck.vapp").c_str());
    ::rmdir(run.dir.c_str());
    printResult(run);
    return 0;
}
