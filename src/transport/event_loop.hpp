// Non-blocking epoll event loop shipping codec frames between processes.
//
// One EventLoop per process: a listening loopback TCP socket, one
// non-blocking connection per peer node, and a single loop thread that
// owns every read, the accept path and the epoll registrations. send()
// writes the encoded frame to the socket from the CALLING thread when
// the peer has no queued bytes, so a hand-off costs no loop wake-up on
// the sending side; only what the kernel does not take at once (a
// partial write, EAGAIN, a socket error) is left in the peer's outbox
// for the loop to flush, with an eventfd kick. Every write to a peer's
// socket happens under its outbox mutex and only while the outbox is
// empty or by the loop's flush, so a direct write never overtakes
// queued bytes. The socket is non-blocking, so a sender never waits on
// the kernel: it returns once the kernel or the outbox holds the frame.
//
// wire.frame_send is stamped at the enqueue: once the frame is encoded
// into the peer's outbox (or, for a peer not yet identified, its parked
// buffer), before any write — the same point on the direct and the
// queued path, so the send -> recv stage always includes the write.
//
// Peer identity: the mesh convention is that node i dials every peer
// j < i and accepts connections from every j > i (no duplicate links).
// A dialed peer is identified immediately; an accepted one is anonymous
// until its HELLO control frame arrives. expect() names the peers that
// will dial in: send() to one of them before its HELLO is processed
// parks the frame, and the HELLO flushes parked frames ahead of any
// later one. send() to a peer neither connected nor expected fails.
// wait_for_peers() is a local condition only — a remote node may still
// be identifying its own peers — which is why early frames are parked,
// not dropped.
//
// Backpressure: each peer's outbox is bounded. When it passes the high
// watermark, send() blocks the calling thread until the loop drains it
// below the low watermark. The loop thread itself never blocks: it is
// the only thread that drains outboxes, and it can send (an event
// handler running a protocol step inline), so past the high watermark
// send() on the loop thread queues without waiting. Stats record the
// peak outbox depth and how often senders had to wait.
//
// Disconnects: a peer that closes its socket after sending GOODBYE left
// deliberately (process shutdown); anything else — EOF without GOODBYE,
// a socket error, a malformed frame — is a crash, reported through
// on_peer_down so the space above can fence the dead node exactly like
// the in-process fault path does.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "net/message.hpp"
#include "transport/codec.hpp"

namespace dmx::transport {

/// Loop-lifetime counters (monotonic, relaxed; read after quiesce or as
/// a progress snapshot).
struct EventLoopStats {
  std::atomic<std::uint64_t> frames_sent{0};
  std::atomic<std::uint64_t> frames_received{0};
  std::atomic<std::uint64_t> bytes_sent{0};
  std::atomic<std::uint64_t> bytes_received{0};
  /// Reads that left a partial frame buffered for reassembly.
  std::atomic<std::uint64_t> partial_frames{0};
  /// send() calls that blocked on the outbox high watermark.
  std::atomic<std::uint64_t> backpressure_waits{0};
  /// Deepest outbox observed (bytes), across all peers.
  std::atomic<std::uint64_t> outbox_peak_bytes{0};
  /// epoll_wait returns (each is one loop-thread wakeup, whatever mix of
  /// socket and eventfd readiness it carried).
  std::atomic<std::uint64_t> epoll_wakeups{0};
};

struct EventLoopConfig {
  NodeId self = kNilNode;
  /// Outbox bytes at which send() starts blocking the caller.
  std::size_t outbox_high_watermark = 4u << 20;
  /// Outbox bytes at which blocked senders are released.
  std::size_t outbox_low_watermark = 1u << 20;
};

class EventLoop {
 public:
  /// Delivery of one decoded protocol frame. Runs on the loop thread; it
  /// may run the protocol step inline and send(), but must not block.
  using FrameHandler =
      std::function<void(const FrameHeader&, net::MessagePtr)>;
  /// A peer crashed (disconnected without GOODBYE) or sent garbage.
  /// Runs on the loop thread.
  using PeerDownHandler = std::function<void(NodeId)>;

  EventLoop(EventLoopConfig config, FrameHandler on_frame,
            PeerDownHandler on_peer_down);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Binds the loopback listening socket (ephemeral port) and returns the
  /// port for the rendezvous. Call once, before start().
  std::uint16_t listen();

  /// Dials peer `peer` at loopback `port` and queues the HELLO frame.
  /// Call before start() (the mesh convention: dial every lower id).
  void connect(NodeId peer, std::uint16_t port);

  /// Declares that peer `peer` will dial in and identify with HELLO.
  /// Until that HELLO is processed, send() to it parks the frame instead
  /// of failing. Call before start(), for every higher id of the mesh.
  void expect(NodeId peer);

  /// Starts the loop thread. listen() and all connect() and expect()
  /// calls must be done.
  void start();

  /// Sends GOODBYE to every peer, flushes outboxes, stops the loop
  /// thread, and closes every socket. Idempotent.
  void stop();

  /// Number of identified peers currently connected.
  int connected_peers() const;

  /// Blocks until `count` peers are identified, or the deadline passes
  /// (false). Use after start() to rendezvous the full mesh.
  bool wait_for_peers(int count, std::chrono::milliseconds timeout);

  /// Encodes `message` into a frame for `to` and writes it to the socket
  /// from the calling thread if nothing is queued for that peer; whatever
  /// the kernel does not take stays in the outbox and the loop is woken
  /// to flush it. A frame for an expected peer not yet identified is
  /// parked (see expect()). Returns false if the peer is unknown or down.
  /// Blocks (briefly) on outbox backpressure unless
  /// `block_on_backpressure` is false or the caller is the loop thread
  /// itself, which must never wait for a drain only it can perform. Pass
  /// false while holding a lock the loop thread takes. Thread-safe.
  /// Throws net::WireError for a message class with no registered codec.
  bool send(NodeId to, Epoch epoch, ResourceId resource,
            const net::Message& message, bool block_on_backpressure = true);

  const EventLoopStats& stats() const { return stats_; }

  /// First transport-level error observed (malformed frame, socket
  /// error), if any.
  std::optional<std::string> first_error() const;

 private:
  struct Peer;

  void wake();
  void loop();
  void handle_accept();
  void handle_readable(Peer& peer);
  void handle_writable(Peer& peer);
  /// Parses complete frames out of `peer`'s read buffer; returns false if
  /// the stream is corrupt (caller tears the peer down).
  bool drain_frames(Peer& peer);
  /// Flushes as much outbox as the socket accepts; arms EPOLLOUT on a
  /// partial write. Loop thread only.
  void flush(Peer& peer);
  /// Writes as much of `peer`'s outbox as the socket takes without
  /// blocking. Caller holds `peer.out_mutex`. Returns false on a socket
  /// error (the unsent bytes stay queued; the loop tears the peer down).
  bool write_outbox_locked(Peer& peer);
  void arm(Peer& peer, bool want_write);
  /// Closes and forgets the peer; fires on_peer_down unless the peer said
  /// GOODBYE (or was never identified).
  void teardown(Peer& peer);
  void record_error(const std::string& what);

  EventLoopConfig config_;
  FrameHandler on_frame_;
  PeerDownHandler on_peer_down_;
  EventLoopStats stats_;

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int wake_fd_ = -1;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  /// All live peers, keyed by fd. The map itself is loop-thread-owned
  /// once start() runs (mutations before start() are single-threaded);
  /// peers are reference-counted so a sender holding one across teardown
  /// sees its `closed` flag instead of freed memory.
  std::unordered_map<int, std::shared_ptr<Peer>> peers_by_fd_;

  /// Identified peers by node id, for the send path.
  mutable std::mutex peers_mutex_;
  std::condition_variable peers_cv_;
  std::unordered_map<NodeId, std::shared_ptr<Peer>> peers_by_id_;
  /// Encoded frames for expected peers not yet identified, by node id
  /// (guarded by peers_mutex_). An entry exists from expect() until the
  /// peer's HELLO moves its bytes to the peer's outbox.
  std::unordered_map<NodeId, std::string> parked_;

  /// Peers with freshly queued output, for the loop to flush on wake.
  std::mutex dirty_mutex_;
  std::vector<std::shared_ptr<Peer>> dirty_;

  mutable std::mutex error_mutex_;
  std::optional<std::string> first_error_;
};

}  // namespace dmx::transport
