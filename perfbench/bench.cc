#include "bench.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "crypto/modes.h"

namespace vbench {

SyntheticSpec
clipSpec(int cls, u64 variant, double scale, int frames)
{
    SyntheticSpec spec = standardSuite(scale)[static_cast<std::size_t>(
        cls % kClasses)];
    if (variant > 0)
        spec.seed = Rng::deriveSeed(spec.seed, variant);
    if (frames > 0) {
        // Keep a scene cut at the same relative position.
        if (spec.sceneCutAt >= 0)
            spec.sceneCutAt = spec.sceneCutAt * frames / spec.frames;
        spec.frames = frames;
    }
    spec.name += "-" + std::to_string(variant);
    return spec;
}

Bytes
packI420(const Video &video, std::size_t first, std::size_t count)
{
    Bytes out;
    if (count == 0)
        return out;
    const std::size_t luma =
        static_cast<std::size_t>(video.width()) * video.height();
    out.reserve(count * (luma + luma / 2));
    for (std::size_t f = first; f < first + count; ++f) {
        const Frame &frame = video.frames[f];
        for (const Plane *p : {&frame.y(), &frame.u(), &frame.v()})
            out.insert(out.end(), p->data().begin(), p->data().end());
    }
    return out;
}

Video
unpackI420(const u8 *data, int width, int height, std::size_t count)
{
    Video video;
    const std::size_t luma = static_cast<std::size_t>(width) * height;
    for (std::size_t f = 0; f < count; ++f) {
        Frame frame(width, height);
        const u8 *src = data + f * (luma + luma / 2);
        std::memcpy(frame.y().data().data(), src, luma);
        std::memcpy(frame.u().data().data(), src + luma, luma / 4);
        std::memcpy(frame.v().data().data(), src + luma + luma / 4,
                    luma / 4);
        video.frames.push_back(std::move(frame));
    }
    return video;
}

int
cipherOfClass(int cls)
{
    return cls % 3;
}

void
applyCipher(PutRequest &request, int cipher, u64 seed, int cls)
{
    if (cipher == 0)
        return;
    Rng rng(Rng::deriveSeed(seed, 1000 + static_cast<u64>(cls)));
    request.key.resize(16);
    for (u8 &b : request.key)
        b = static_cast<u8>(rng.next());
    request.cipherMode = static_cast<u8>(
        cipher == 1 ? CipherMode::CTR : CipherMode::OFB);
    request.keyId = 1;
    request.ivSeed = seed;
    request.encryptMinT = cipher == 2 ? 8 : 0;
}

double
referencePsnr(const u8 *i420, int width, int height,
              std::size_t count, const Video &source,
              std::size_t first)
{
    if (count == 0)
        return 100.0;
    const std::size_t luma = static_cast<std::size_t>(width) * height;
    double sum = 0.0;
    for (std::size_t f = 0; f < count; ++f) {
        const u8 *a = i420 + f * (luma + luma / 2);
        const u8 *b = source.frames[first + f].y().data().data();
        u64 sse = 0;
        for (std::size_t i = 0; i < luma; ++i) {
            const int d = static_cast<int>(a[i]) - b[i];
            sse += static_cast<u64>(d * d);
        }
        double db = 100.0;
        if (sse > 0) {
            const double mse = static_cast<double>(sse) / luma;
            db = std::min(100.0, 10.0 * std::log10(65025.0 / mse));
        }
        sum += db;
    }
    return sum / count;
}

u64
expectedCellBytes(u64 payload_bytes, int t)
{
    if (t == 0)
        return payload_bytes;
    const u64 data_bytes = 512 / 8;
    const u64 blocks = (payload_bytes + data_bytes - 1) / data_bytes;
    const u64 codeword_bytes = (512 + 10 * static_cast<u64>(t) + 7) / 8;
    return blocks * codeword_bytes;
}

u64
preciseCells(u64 bits)
{
    const u64 parity = (bits + 511) / 512 * 10 * 16;
    return (bits + parity + 2) / 3;
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(p / 100.0 * values.size());
    std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(idx, values.size() - 1)];
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / values.size();
}

// --- WireConn ------------------------------------------------------------

namespace {

/** Wait for @p events on @p fd until @p deadline, at nanosecond
 * resolution (poll's millisecond timeout would make an open-loop
 * sender up to a millisecond late). */
bool
waitFor(int fd, short events, Clock::time_point deadline)
{
    const auto left = deadline - Clock::now();
    if (left <= Clock::duration::zero())
        return false;
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(left).count();
    timespec ts{static_cast<time_t>(ns / 1000000000),
                static_cast<long>(ns % 1000000000)};
    pollfd pfd{fd, events, 0};
    return ::ppoll(&pfd, 1, &ts, nullptr) > 0;
}

} // namespace

WireConn::~WireConn()
{
    close();
}

bool
WireConn::connect(u16 port)
{
    close();
    port_ = port;
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0)
        return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0) {
        close();
        return false;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
    pos_ = end_ = 0;
    return true;
}

bool
WireConn::reconnect()
{
    return connect(port_);
}

void
WireConn::close()
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = -1;
}

bool
WireConn::send(Opcode op, const Bytes &payload, u32 &id,
               Clock::time_point deadline)
{
    if (fd_ < 0)
        return false;
    id = nextId_++;
    const Bytes frame =
        encodeFrame(static_cast<u8>(op), id, payload);
    std::size_t off = 0;
    while (off < frame.size()) {
        ssize_t n = ::send(fd_, frame.data() + off, frame.size() - off,
                           MSG_NOSIGNAL);
        if (n > 0) {
            off += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            if (!waitFor(fd_, POLLOUT, deadline))
                return false;
            continue;
        }
        return false;
    }
    return true;
}

std::optional<FrameDeframer::Decoded>
WireConn::receive(Clock::time_point deadline)
{
    if (fd_ < 0)
        return std::nullopt;
    constexpr std::size_t kChunk = 1 << 16;
    for (;;) {
        const std::size_t avail = end_ - pos_;
        std::size_t need = kWireHeaderBytes;
        if (avail >= kWireHeaderBytes) {
            // The header's own CRC is checked; the payload CRC is
            // not. Every workload compares the bytes themselves with
            // an independent reference, and a byte-at-a-time CRC of
            // each response would make the generator, not the
            // server, the bottleneck.
            FrameDeframer::Decoded out;
            if (parseFrameHeader(buffer_.data() + pos_, kWireHeaderBytes,
                                 out.header) != WireError::None)
                return std::nullopt;
            need = kWireHeaderBytes + out.header.payloadLength + 4;
            if (avail >= need) {
                const u8 *body = buffer_.data() + pos_ + kWireHeaderBytes;
                out.payload.assign(body,
                                   body + out.header.payloadLength);
                pos_ += need;
                return out;
            }
        }
        if (pos_ > 0) {
            std::memmove(buffer_.data(), buffer_.data() + pos_, avail);
            end_ = avail;
            pos_ = 0;
        }
        buffer_.resize(std::max(buffer_.size(),
                                std::max(need, end_ + kChunk)));
        ssize_t n = ::recv(fd_, buffer_.data() + end_,
                           buffer_.size() - end_, 0);
        if (n > 0) {
            end_ += static_cast<std::size_t>(n);
            continue;
        }
        if (n == 0)
            return std::nullopt;
        if (errno == EINTR)
            continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK)
            return std::nullopt;
        if (!waitFor(fd_, POLLIN, deadline))
            return std::nullopt;
    }
}

// --- SpanLog -------------------------------------------------------------

u64
SpanLog::open(const std::string &name, u64 id, u64 parent)
{
    const double t = now();
    std::lock_guard lock(mutex_);
    Span span;
    span.name = name;
    span.id = id;
    span.parent = parent;
    span.seq = spans_.size() + 1;
    span.startMs = t;
    span.endMs = t;
    spans_.push_back(std::move(span));
    return spans_.back().seq;
}

void
SpanLog::close(u64 seq)
{
    const double t = now();
    std::lock_guard lock(mutex_);
    spans_[seq - 1].endMs = t;
}

void
SpanLog::add(const std::string &name, u64 id, Clock::time_point start,
             Clock::time_point end)
{
    std::lock_guard lock(mutex_);
    Span span;
    span.name = name;
    span.id = id;
    span.seq = spans_.size() + 1;
    span.startMs = msBetween(origin_, start);
    span.endMs = msBetween(origin_, end);
    spans_.push_back(std::move(span));
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard lock(mutex_);
    return spans_;
}

double
SpanLog::meanMs(const std::string &name) const
{
    std::vector<double> d;
    for (const Span &s : spans())
        if (s.name == name)
            d.push_back(s.endMs - s.startMs);
    return mean(d);
}

double
SpanLog::meanSelfMs(const std::string &name) const
{
    const std::vector<Span> all = spans();
    std::vector<double> self;
    for (const Span &s : all) {
        if (s.name != name)
            continue;
        std::vector<std::pair<double, double>> kids;
        for (const Span &c : all)
            if (c.parent == s.seq)
                kids.emplace_back(std::max(c.startMs, s.startMs),
                                  std::min(c.endMs, s.endMs));
        std::sort(kids.begin(), kids.end());
        double covered = 0.0, reach = s.startMs;
        for (const auto &[a, b] : kids) {
            const double from = std::max(a, reach);
            if (b > from) {
                covered += b - from;
                reach = b;
            }
        }
        self.push_back(s.endMs - s.startMs - covered);
    }
    return mean(self);
}

bool
SpanLog::writeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "[\n");
    const std::vector<Span> all = spans();
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::fprintf(f,
                     "  {\"name\": \"%s\", \"id\": %llu, \"seq\": %llu, "
                     "\"parent\": %llu, \"start_ms\": %.4f, "
                     "\"end_ms\": %.4f}%s\n",
                     s.name.c_str(), static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.seq),
                     static_cast<unsigned long long>(s.parent), s.startMs,
                     s.endMs, i + 1 < all.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
}

} // namespace vbench
