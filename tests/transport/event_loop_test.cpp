// EventLoop tests: two in-process loops rendezvous over loopback TCP and
// exchange protocol frames; a raw socket exercises partial-frame
// reassembly, the GOODBYE-vs-crash disconnect distinction, corrupt
// stream rejection, frames parked for a peer not yet identified, and the
// direct-write send path under a full socket and a racing teardown.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/messages.hpp"
#include "net/wire_format.hpp"
#include "transport/codec.hpp"
#include "transport/event_loop.hpp"

namespace dmx::transport {
namespace {

using namespace std::chrono_literals;

/// Frames and peer-down events collected from one loop's callbacks, with
/// a condition variable so tests can wait instead of sleeping.
struct Sink {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::pair<FrameHeader, net::MessagePtr>> frames;
  std::vector<NodeId> downs;

  EventLoop::FrameHandler frame_handler() {
    return [this](const FrameHeader& header, net::MessagePtr message) {
      std::lock_guard<std::mutex> lock(mutex);
      frames.emplace_back(header, std::move(message));
      cv.notify_all();
    };
  }
  EventLoop::PeerDownHandler down_handler() {
    return [this](NodeId peer) {
      std::lock_guard<std::mutex> lock(mutex);
      downs.push_back(peer);
      cv.notify_all();
    };
  }
  bool wait_frames(std::size_t count, std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mutex);
    return cv.wait_for(lock, timeout,
                       [&] { return frames.size() >= count; });
  }
  bool wait_down(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mutex);
    return cv.wait_for(lock, timeout, [&] { return !downs.empty(); });
  }
};

/// Raw blocking loopback client for byte-level protocol tests. A
/// non-zero `rcvbuf` shrinks its receive buffer before connecting, so the
/// sending side's socket fills after a few kilobytes the client has not
/// read. Reads time out after 10 s instead of hanging a broken test.
class RawClient {
 public:
  explicit RawClient(std::uint16_t port, int rcvbuf = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    if (rcvbuf > 0) {
      EXPECT_EQ(::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                             sizeof(rcvbuf)),
                0);
    }
    timeval timeout{};
    timeout.tv_sec = 10;
    EXPECT_EQ(::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                           sizeof(timeout)),
              0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  }
  ~RawClient() { close(); }

  void write_all(const std::string& bytes) {
    std::size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + done, bytes.size() - done,
                               MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      done += static_cast<std::size_t>(n);
    }
  }

  /// Writes `bytes` in `chunk`-sized pieces with a small pause between
  /// each, forcing the receiving loop to buffer partial frames.
  void write_chunked(const std::string& bytes, std::size_t chunk) {
    for (std::size_t at = 0; at < bytes.size(); at += chunk) {
      write_all(bytes.substr(at, chunk));
      std::this_thread::sleep_for(2ms);
    }
  }

  /// Reads exactly `count` bytes; returns fewer only on EOF, error, or
  /// the read timeout.
  std::string read_exact(std::size_t count) {
    std::string bytes(count, '\0');
    std::size_t done = 0;
    while (done < count) {
      const ssize_t n = ::recv(fd_, bytes.data() + done, count - done, 0);
      if (n <= 0) break;
      done += static_cast<std::size_t>(n);
    }
    bytes.resize(done);
    return bytes;
  }

  /// Reads one frame and decodes it; false on a short read.
  bool read_frame(FrameHeader& header, net::MessagePtr& message) {
    const std::string prefix = read_exact(4);
    if (prefix.size() != 4) return false;
    net::WireReader length_reader(prefix);
    const std::uint32_t length = length_reader.u32();
    const std::string body = read_exact(length);
    if (body.size() != length) return false;
    net::WireReader r(body);
    header = Codec::decode_header(r);
    message = Codec::decode(header.wire_id, r);
    return true;
  }

  /// Shrinks the send buffer of the OTHER end of this connection — the
  /// loop's socket, found by its peer address — so the loop-side kernel
  /// buffer holds only a few kilobytes and writes beyond it go partial.
  /// Call once the loop has accepted the connection.
  void shrink_loop_side_sndbuf(int bytes) const {
    sockaddr_in self{};
    socklen_t len = sizeof(self);
    ASSERT_EQ(::getsockname(fd_, reinterpret_cast<sockaddr*>(&self), &len),
              0);
    for (int fd = 0; fd < 4096; ++fd) {
      sockaddr_in peer{};
      len = sizeof(peer);
      if (fd == fd_ ||
          ::getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &len) != 0 ||
          peer.sin_family != AF_INET || peer.sin_port != self.sin_port) {
        continue;
      }
      ASSERT_EQ(
          ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes)), 0);
      return;
    }
    FAIL() << "no socket is peered with the raw client";
  }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  /// Hard close: SO_LINGER with zero timeout makes close() send RST, so
  /// the peer sees a connection reset instead of an orderly FIN.
  void reset_close() {
    if (fd_ < 0) return;
    struct linger lin;
    lin.l_onoff = 1;
    lin.l_linger = 0;
    EXPECT_EQ(::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lin, sizeof(lin)),
              0);
    ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
};

TEST(EventLoop, TwoLoopsExchangeFramesBothWays) {
  Sink sink1;
  Sink sink2;
  EventLoop loop1({.self = 1}, sink1.frame_handler(), sink1.down_handler());
  EventLoop loop2({.self = 2}, sink2.frame_handler(), sink2.down_handler());

  const std::uint16_t port1 = loop1.listen();
  loop2.listen();
  loop2.connect(1, port1);  // mesh convention: 2 dials 1
  loop1.start();
  loop2.start();
  ASSERT_TRUE(loop1.wait_for_peers(1, 2000ms));
  ASSERT_TRUE(loop2.wait_for_peers(1, 2000ms));
  EXPECT_EQ(loop1.connected_peers(), 1);
  EXPECT_EQ(loop2.connected_peers(), 1);

  const core::RequestMessage request(2, 2);
  EXPECT_TRUE(loop2.send(1, /*epoch=*/3, /*resource=*/0, request));
  const core::PrivilegeMessage privilege;
  EXPECT_TRUE(loop1.send(2, /*epoch=*/3, /*resource=*/1, privilege));

  ASSERT_TRUE(sink1.wait_frames(1, 2000ms));
  ASSERT_TRUE(sink2.wait_frames(1, 2000ms));
  {
    std::lock_guard<std::mutex> lock(sink1.mutex);
    const auto& [header, message] = sink1.frames[0];
    EXPECT_EQ(header.from, 2);
    EXPECT_EQ(header.to, 1);
    EXPECT_EQ(header.epoch, 3u);
    EXPECT_EQ(header.resource, 0);
    EXPECT_EQ(message->encode(), request.encode());
  }
  {
    std::lock_guard<std::mutex> lock(sink2.mutex);
    const auto& [header, message] = sink2.frames[0];
    EXPECT_EQ(header.from, 1);
    EXPECT_EQ(header.resource, 1);
    EXPECT_EQ(message->encode(), privilege.encode());
  }

  // Protocol frame accounting excludes the HELLO/GOODBYE control frames.
  EXPECT_EQ(loop1.stats().frames_received.load(), 1u);
  EXPECT_EQ(loop2.stats().frames_received.load(), 1u);
  EXPECT_GT(loop1.stats().bytes_sent.load(), 0u);

  loop2.stop();
  loop1.stop();
  // Orderly shutdown on both sides: GOODBYE preceded both EOFs.
  EXPECT_TRUE(sink1.downs.empty());
  EXPECT_TRUE(sink2.downs.empty());
  EXPECT_FALSE(loop1.first_error().has_value());
  EXPECT_FALSE(loop2.first_error().has_value());
}

TEST(EventLoop, SendToUnknownPeerFails) {
  Sink sink;
  EventLoop loop({.self = 1}, sink.frame_handler(), sink.down_handler());
  loop.listen();
  loop.start();
  EXPECT_FALSE(loop.send(7, 0, 0, core::PrivilegeMessage()));
  loop.stop();
}

TEST(EventLoop, ReassemblesFramesSplitAcrossReads) {
  Sink sink;
  EventLoop loop({.self = 1}, sink.frame_handler(), sink.down_handler());
  const std::uint16_t port = loop.listen();
  loop.start();

  RawClient client(port);
  // HELLO as node 9, then two protocol frames, all dribbled 3 bytes at a
  // time so every frame arrives across several reads.
  std::string bytes;
  Codec::encode_control_frame(bytes, kHelloWireId, /*from=*/9);
  Codec::encode_frame(bytes, /*epoch=*/1, /*resource=*/2, /*from=*/9,
                      /*to=*/1, core::RequestMessage(9, 9));
  Codec::encode_frame(bytes, /*epoch=*/1, /*resource=*/2, /*from=*/9,
                      /*to=*/1, core::PrivilegeMessage());
  client.write_chunked(bytes, 3);

  ASSERT_TRUE(sink.wait_frames(2, 5000ms));
  {
    std::lock_guard<std::mutex> lock(sink.mutex);
    EXPECT_EQ(sink.frames[0].first.from, 9);
    EXPECT_EQ(sink.frames[0].second->encode(),
              core::RequestMessage(9, 9).encode());
    EXPECT_EQ(sink.frames[1].second->encode(),
              core::PrivilegeMessage().encode());
  }
  EXPECT_TRUE(loop.wait_for_peers(1, 1000ms));
  EXPECT_GT(loop.stats().partial_frames.load(), 0u);

  // Abrupt close without GOODBYE: the identified peer is reported down.
  client.close();
  ASSERT_TRUE(sink.wait_down(2000ms));
  EXPECT_EQ(sink.downs[0], 9);
  loop.stop();
}

TEST(EventLoop, GoodbyeThenCloseIsNotACrash) {
  Sink sink;
  EventLoop loop({.self = 1}, sink.frame_handler(), sink.down_handler());
  const std::uint16_t port = loop.listen();
  loop.start();

  RawClient client(port);
  std::string bytes;
  Codec::encode_control_frame(bytes, kHelloWireId, /*from=*/4);
  client.write_all(bytes);
  ASSERT_TRUE(loop.wait_for_peers(1, 2000ms));

  std::string goodbye;
  Codec::encode_control_frame(goodbye, kGoodbyeWireId, /*from=*/4);
  client.write_all(goodbye);
  client.close();

  // Give the loop ample time to process EOF; no peer-down may fire.
  EXPECT_FALSE(sink.wait_down(300ms));
  loop.stop();
  EXPECT_TRUE(sink.downs.empty());
  EXPECT_FALSE(loop.first_error().has_value());
}

TEST(EventLoop, GoodbyeBufferedBehindResetIsNotACrash) {
  // Regression for the GOODBYE-vs-EOF race: the peer's GOODBYE is still
  // in the reassembly buffer when the socket errors out. The loop's read
  // path must drain buffered frames BEFORE classifying the close, or an
  // orderly departure is misreported as a crash (and, in the lock space
  // above, needlessly fences the epoch).
  //
  // Deterministic construction: queue exactly one 64 KiB read chunk —
  // HELLO + 2 request frames + 2726 privilege frames + GOODBYE = 65536
  // bytes — then reset-close, all before the loop starts. The loop's
  // first recv() fills its whole chunk buffer (GOODBYE at the tail goes
  // into the reassembly buffer), the second recv() reports ECONNRESET
  // with the GOODBYE not yet processed.
  Sink sink;
  EventLoop loop({.self = 1}, sink.frame_handler(), sink.down_handler());
  const std::uint16_t port = loop.listen();

  std::string bytes;
  Codec::encode_control_frame(bytes, kHelloWireId, /*from=*/3);
  for (int i = 0; i < 2; ++i) {
    Codec::encode_frame(bytes, /*epoch=*/0, /*resource=*/0, /*from=*/3,
                        /*to=*/1, core::RequestMessage(3, 3));
  }
  for (int i = 0; i < 2726; ++i) {
    Codec::encode_frame(bytes, /*epoch=*/0, /*resource=*/0, /*from=*/3,
                        /*to=*/1, core::PrivilegeMessage());
  }
  Codec::encode_control_frame(bytes, kGoodbyeWireId, /*from=*/3);
  ASSERT_EQ(bytes.size(), 64u * 1024u);

  RawClient client(port);
  client.write_all(bytes);
  client.reset_close();
  loop.start();

  // Every protocol frame is delivered, and the buffered GOODBYE
  // classifies the reset as an orderly departure: no peer-down.
  ASSERT_TRUE(sink.wait_frames(2728, 5000ms));
  EXPECT_FALSE(sink.wait_down(300ms));
  loop.stop();
  EXPECT_TRUE(sink.downs.empty());
  EXPECT_FALSE(loop.first_error().has_value());
}

TEST(EventLoop, CorruptStreamTearsThePeerDown) {
  Sink sink;
  EventLoop loop({.self = 1}, sink.frame_handler(), sink.down_handler());
  const std::uint16_t port = loop.listen();
  loop.start();

  RawClient client(port);
  std::string bytes;
  Codec::encode_control_frame(bytes, kHelloWireId, /*from=*/5);
  // A length prefix far beyond kMaxFrameBytes: a desynchronized stream.
  net::WireWriter writer(bytes);
  writer.u32(kMaxFrameBytes + 1);
  client.write_all(bytes);

  ASSERT_TRUE(sink.wait_down(2000ms));
  EXPECT_EQ(sink.downs[0], 5);
  ASSERT_TRUE(loop.first_error().has_value());
  loop.stop();
}

TEST(EventLoop, UnknownWireIdIsRejectedNotDelivered) {
  Sink sink;
  EventLoop loop({.self = 1}, sink.frame_handler(), sink.down_handler());
  const std::uint16_t port = loop.listen();
  loop.start();

  RawClient client(port);
  std::string bytes;
  Codec::encode_control_frame(bytes, kHelloWireId, /*from=*/6);
  // A well-framed body whose wire id is unregistered (below the control
  // range, above every family).
  std::string body;
  net::WireWriter body_writer(body);
  body_writer.u32(0x00ffffffu);  // wire id
  body_writer.u32(0);            // epoch
  body_writer.i32(0);            // resource
  body_writer.i32(6);            // from
  body_writer.i32(1);            // to
  net::WireWriter frame_writer(bytes);
  frame_writer.u32(static_cast<std::uint32_t>(body.size()));
  bytes += body;
  client.write_all(bytes);

  ASSERT_TRUE(sink.wait_down(2000ms));
  EXPECT_EQ(sink.downs[0], 6);
  EXPECT_TRUE(sink.frames.empty());
  loop.stop();
}

TEST(EventLoop, FrameToAnExpectedPeerWaitsForItsHello) {
  // Regression for the mesh start-up race: a peer has connected but its
  // HELLO is not processed yet, and the owner already routes a frame to
  // it (a forwarded REQUEST, say). The frame must be parked and flushed
  // once the peer identifies, ahead of any later frame — not dropped.
  Sink sink;
  EventLoop loop({.self = 1}, sink.frame_handler(), sink.down_handler());
  const std::uint16_t port = loop.listen();
  loop.expect(9);
  loop.start();

  RawClient client(port);  // connected, silent: not identified
  EXPECT_EQ(loop.connected_peers(), 0);
  EXPECT_TRUE(loop.send(9, /*epoch=*/4, /*resource=*/2,
                        core::RequestMessage(1, 1)));
  // A peer neither connected nor expected still fails.
  EXPECT_FALSE(loop.send(8, 0, 0, core::PrivilegeMessage()));

  std::string hello;
  Codec::encode_control_frame(hello, kHelloWireId, /*from=*/9);
  client.write_all(hello);
  ASSERT_TRUE(loop.wait_for_peers(1, 2000ms));
  EXPECT_TRUE(loop.send(9, /*epoch=*/4, /*resource=*/3,
                        core::PrivilegeMessage()));

  FrameHeader header;
  net::MessagePtr message;
  ASSERT_TRUE(client.read_frame(header, message));
  EXPECT_EQ(header.from, 1);
  EXPECT_EQ(header.to, 9);
  EXPECT_EQ(header.epoch, 4u);
  EXPECT_EQ(header.resource, 2);
  EXPECT_EQ(message->encode(), core::RequestMessage(1, 1).encode());
  ASSERT_TRUE(client.read_frame(header, message));
  EXPECT_EQ(header.resource, 3);
  EXPECT_EQ(message->encode(), core::PrivilegeMessage().encode());

  loop.stop();
  EXPECT_FALSE(loop.first_error().has_value());
}

TEST(EventLoop, ConcurrentSendersThroughAFullSocketKeepEachSendersOrder) {
  // Two threads send through a socket with a tiny send buffer to a peer
  // that reads nothing until they are done: the direct writes go partial,
  // then hit EAGAIN, and the rest queues behind them. Every frame must
  // arrive intact and in each sender's order (resource = sender, epoch =
  // sequence number).
  constexpr int kSenders = 2;
  constexpr std::uint32_t kFrames = 20000;
  Sink sink;
  EventLoop loop({.self = 1}, sink.frame_handler(), sink.down_handler());
  const std::uint16_t port = loop.listen();
  loop.start();

  RawClient client(port, /*rcvbuf=*/4096);
  std::string hello;
  Codec::encode_control_frame(hello, kHelloWireId, /*from=*/9);
  client.write_all(hello);
  ASSERT_TRUE(loop.wait_for_peers(1, 2000ms));
  client.shrink_loop_side_sndbuf(4096);

  std::atomic<int> refused{0};
  std::vector<std::thread> senders;
  for (int t = 0; t < kSenders; ++t) {
    senders.emplace_back([&loop, &refused, t] {
      for (std::uint32_t seq = 0; seq < kFrames; ++seq) {
        if (!loop.send(9, seq, t, core::RequestMessage(1, 1))) {
          refused.fetch_add(1);
        }
      }
    });
  }
  for (auto& sender : senders) sender.join();
  EXPECT_EQ(refused.load(), 0);
  // The socket filled: part of the stream went through the outbox.
  EXPECT_GT(loop.stats().outbox_peak_bytes.load(), 0u);

  std::vector<std::uint32_t> next(kSenders, 0);
  for (std::uint32_t i = 0; i < kSenders * kFrames; ++i) {
    FrameHeader header;
    net::MessagePtr message;
    ASSERT_TRUE(client.read_frame(header, message)) << "frame " << i;
    ASSERT_GE(header.resource, 0);
    ASSERT_LT(header.resource, kSenders);
    ASSERT_EQ(header.epoch,
              next[static_cast<std::size_t>(header.resource)]++)
        << "sender " << header.resource;
    ASSERT_EQ(message->encode(), core::RequestMessage(1, 1).encode());
  }
  loop.stop();
  EXPECT_FALSE(loop.first_error().has_value());
}

TEST(EventLoop, HandlerSendingPastTheHighWatermarkDoesNotBlockTheLoop) {
  // A frame handler runs on the loop thread, the only thread that drains
  // outboxes. When it sends far past the high watermark to a peer that
  // reads nothing, send() must queue instead of waiting for a drain only
  // the blocked loop could perform.
  constexpr int kBurst = 20000;  // ~480 KB against a 4 KB watermark
  EventLoopConfig config{.self = 1};
  config.outbox_high_watermark = 4096;
  config.outbox_low_watermark = 1024;
  std::atomic<int> handled{0};
  EventLoop* loop_ptr = nullptr;
  EventLoop loop(
      config,
      [&handled, &loop_ptr](const FrameHeader&, net::MessagePtr) {
        for (int i = 0; i < kBurst; ++i) {
          loop_ptr->send(9, static_cast<Epoch>(i), 0,
                         core::PrivilegeMessage());
        }
        handled.fetch_add(1);
      },
      nullptr);
  loop_ptr = &loop;
  const std::uint16_t port = loop.listen();
  loop.start();

  RawClient client(port, /*rcvbuf=*/4096);
  std::string hello;
  Codec::encode_control_frame(hello, kHelloWireId, /*from=*/9);
  client.write_all(hello);
  ASSERT_TRUE(loop.wait_for_peers(1, 2000ms));
  client.shrink_loop_side_sndbuf(4096);
  std::string first;
  Codec::encode_frame(first, 0, 0, /*from=*/9, /*to=*/1,
                      core::RequestMessage(9, 9));
  client.write_all(first);

  // A second trigger must be handled too: the loop came back from the
  // first burst and still reads.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (handled.load() < 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  std::string second;
  Codec::encode_frame(second, 0, 0, /*from=*/9, /*to=*/1,
                      core::RequestMessage(9, 9));
  client.write_all(second);
  while (handled.load() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  if (handled.load() != 2) {
    // A loop thread parked on its own outbox can never be joined: fail
    // loudly instead of hanging in the destructor.
    std::fprintf(stderr, "the loop thread blocked on backpressure\n");
    std::abort();
  }
  EXPECT_EQ(loop.stats().backpressure_waits.load(), 0u);
  EXPECT_GT(loop.stats().outbox_peak_bytes.load(), config.outbox_high_watermark);

  // Reading everything releases the queued bytes in order.
  for (int i = 0; i < 2 * kBurst; ++i) {
    FrameHeader header;
    net::MessagePtr message;
    ASSERT_TRUE(client.read_frame(header, message)) << "frame " << i;
    ASSERT_EQ(header.epoch, static_cast<Epoch>(i % kBurst));
  }
  loop.stop();
}

TEST(EventLoop, SendRacingTeardownFailsAndNeverWritesARecycledFd) {
  // Senders hammer a peer while it resets its connection. Once the loop
  // tears the peer down, every send() returns false, and none may write
  // to the closed fd number — which the pipes opened right after the
  // teardown are likely to reuse; any byte in them is a stray write.
  Sink sink;
  EventLoop loop({.self = 1}, sink.frame_handler(), sink.down_handler());
  const std::uint16_t port = loop.listen();
  loop.start();

  RawClient client(port);
  std::string hello;
  Codec::encode_control_frame(hello, kHelloWireId, /*from=*/9);
  client.write_all(hello);
  ASSERT_TRUE(loop.wait_for_peers(1, 2000ms));

  std::atomic<int> started{0};
  std::vector<std::thread> senders;
  for (int t = 0; t < 2; ++t) {
    senders.emplace_back([&loop, &started, t] {
      started.fetch_add(1);
      while (loop.send(9, 0, t, core::PrivilegeMessage())) {
      }
    });
  }
  while (started.load() < 2) std::this_thread::yield();
  std::this_thread::sleep_for(5ms);
  client.reset_close();
  ASSERT_TRUE(sink.wait_down(5000ms));
  EXPECT_EQ(sink.downs[0], 9);

  std::vector<int> pipe_fds;
  for (int i = 0; i < 16; ++i) {
    int fds[2];
    ASSERT_EQ(::pipe2(fds, O_NONBLOCK | O_CLOEXEC), 0);
    pipe_fds.push_back(fds[0]);
    pipe_fds.push_back(fds[1]);
  }
  for (auto& sender : senders) sender.join();  // every sender saw false
  EXPECT_FALSE(loop.send(9, 0, 0, core::PrivilegeMessage()));
  for (std::size_t i = 0; i < pipe_fds.size(); i += 2) {
    char byte;
    EXPECT_LT(::read(pipe_fds[i], &byte, 1), 0) << "stray write to a pipe";
  }
  for (const int fd : pipe_fds) ::close(fd);
  loop.stop();
}

}  // namespace
}  // namespace dmx::transport
