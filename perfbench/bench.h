/**
 * @file
 * Shared pieces of the end-to-end benchmark: seeded inputs, the
 * benchmark's own reference computations (PSNR, BCH cell arithmetic,
 * I420 packing), latency statistics, a deadline-bounded wire client
 * and the in-memory span log of the traced run.
 *
 * Everything here is written against the program's public headers
 * only; the reference computations deliberately re-derive what the
 * program computes so the output checks do not trust the code under
 * measurement.
 */

#ifndef VIDEOAPP_PERFBENCH_BENCH_H_
#define VIDEOAPP_PERFBENCH_BENCH_H_

#include <chrono>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "server/wire.h"
#include "video/synthetic.h"

namespace vbench {

using namespace videoapp;
using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

// --- inputs ------------------------------------------------------------

inline constexpr int kClasses = 14;

/**
 * Content class @p cls of the standard suite at @p scale. Variant 0
 * is the suite's own clip; variant v > 0 re-seeds its renderer, a
 * different clip with the class's motion and texture statistics.
 * @p frames > 0 overrides the suite's clip length. The clips do not
 * depend on the workload seed, which drives the request stream
 * instead, so seeds compare the system on one fixed data set.
 */
SyntheticSpec clipSpec(int cls, u64 variant, double scale,
                       int frames = 0);

/** Frames [first, first + count) of @p video as packed I420. */
Bytes packI420(const Video &video, std::size_t first,
               std::size_t count);

/** Packed I420 bytes back into frames (inverse of packI420). */
Video unpackI420(const u8 *data, int width, int height,
                 std::size_t count);

/** The cipher treatment a workload gives content class @p cls:
 * 0 = plaintext, 1 = AES-CTR on every stream, 2 = AES-OFB on the
 * streams with BCH t >= 8 only (selective encryption). */
int cipherOfClass(int cls);

/** Fill the key/mode fields of @p request for cipher treatment
 * @p cipher, keyed from (@p seed, @p cls). */
void applyCipher(PutRequest &request, int cipher, u64 seed, int cls);

// --- reference computations ----------------------------------------------

/**
 * Mean luma PSNR (dB, capped at 100) of @p count packed I420 frames
 * against @p source frames starting at @p first.
 */
double referencePsnr(const u8 *i420, int width, int height,
                     std::size_t count, const Video &source,
                     std::size_t first);

/** Stored cell bytes of one stream: payload split into 512-bit
 * blocks, each carrying 10*t parity bits and packed to whole bytes;
 * t = 0 stores the payload verbatim. */
u64 expectedCellBytes(u64 payload_bytes, int t);

/** MLC cells (3 bits each) for @p bits of precise data under the
 * BCH-16 class, parity included. */
u64 preciseCells(u64 bits);

// --- statistics --------------------------------------------------------

/** Nearest-rank percentile @p p (0..100) of @p values. */
double percentile(std::vector<double> values, double p);

double mean(const std::vector<double> &values);

// --- deadline-bounded wire client ----------------------------------------

/**
 * One TCP connection speaking the VAPP wire protocol with a deadline
 * on every wait: a lost response or stalled peer surfaces as a
 * failed receive instead of a blocked thread.
 */
class WireConn
{
  public:
    WireConn() = default;
    ~WireConn();
    WireConn(const WireConn &) = delete;
    WireConn &operator=(const WireConn &) = delete;

    bool connect(u16 port);
    void close();

    /** Drop the connection and open a fresh one to the same port, so
     * a half-sent request or an unread late response cannot reach the
     * next call. */
    bool reconnect();

    /** Send one request frame; its id goes to @p id. */
    bool send(Opcode op, const Bytes &payload, u32 &id,
              Clock::time_point deadline);

    /** The next response frame, or nullopt on deadline, close or a
     * damaged header. A deadline already past takes only what has
     * arrived. */
    std::optional<FrameDeframer::Decoded>
    receive(Clock::time_point deadline);

  private:
    int fd_ = -1;
    u16 port_ = 0;
    u32 nextId_ = 1;
    Bytes buffer_;
    std::size_t pos_ = 0; // first unconsumed byte
    std::size_t end_ = 0; // one past the last received byte
};

// --- traced run ----------------------------------------------------------

struct Span
{
    std::string name;
    u64 id = 0;     // request the span belongs to
    u64 parent = 0; // enclosing span's seq, 0 for a root
    u64 seq = 0;
    double startMs = 0;
    double endMs = 0;
};

/** Spans kept in memory and written out when the run ends. */
class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

    /** Open a span; returns its seq for the matching close(). */
    u64 open(const std::string &name, u64 id, u64 parent);
    void close(u64 seq);
    /** Record an already-timed span (client calls). */
    void add(const std::string &name, u64 id, Clock::time_point start,
             Clock::time_point end);

    std::vector<Span> spans() const;
    /** Mean duration of spans called @p name (0 when none). */
    double meanMs(const std::string &name) const;
    /** Mean self time: duration minus the union of child spans. */
    double meanSelfMs(const std::string &name) const;
    bool writeJson(const std::string &path) const;

  private:
    double now() const { return msBetween(origin_, Clock::now()); }

    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span: opens on construction, closes on destruction; a null
 * log makes it a no-op (the untraced run). */
class SpanScope
{
  public:
    SpanScope(SpanLog *log, const std::string &name, u64 id,
              u64 parent = 0)
        : log_(log), seq_(log ? log->open(name, id, parent) : 0)
    {
    }
    ~SpanScope()
    {
        if (log_)
            log_->close(seq_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanLog *log_;
    u64 seq_;
};

} // namespace vbench

#endif // VIDEOAPP_PERFBENCH_BENCH_H_
