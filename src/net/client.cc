#include "net/client.h"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace latest::net {

util::Result<std::unique_ptr<ServeClient>> ServeClient::Connect(
    uint16_t port, int io_timeout_ms) {
  auto fd = ConnectLoopback(port);
  if (!fd.ok()) return fd.status();
  if (io_timeout_ms > 0) SetIoTimeouts(fd->get(), io_timeout_ms);
  SetNoDelay(fd->get());
  return std::unique_ptr<ServeClient>(
      new ServeClient(std::move(fd).value()));
}

util::Result<std::unique_ptr<ServeClient>> ServeClient::ConnectNegotiated(
    uint16_t port, int io_timeout_ms) {
  auto client = Connect(port, io_timeout_ms);
  if (!client.ok()) return client;
  HelloRequest hello;
  hello.request_id = 1;
  std::string bytes;
  EncodeHello(hello, &bytes);
  if (client.value()->SendRaw(bytes).ok()) {
    auto resp = client.value()->ReadResponse();
    if (resp.ok() && resp->type == FrameType::kHelloAck &&
        (resp->hello.feature_flags & kFeatureTraceContext) != 0) {
      client.value()->trace_enabled_ = true;
      return client;
    }
  }
  // Anything else — ERROR frame, closed connection, timeout — means a
  // server that does not speak HELLO. It poisoned (or is closing) the
  // connection, so start over untraced.
  return Connect(port, io_timeout_ms);
}

util::Status ServeClient::SendRaw(const std::string& bytes) {
  if (!SendAll(fd_.get(), bytes.data(), bytes.size())) {
    return util::Status::Internal("send failed: " +
                                  std::string(std::strerror(errno)));
  }
  return util::Status::Ok();
}

util::Status ServeClient::SendIngest(const IngestRequest& req) {
  std::string bytes;
  EncodeIngest(req, &bytes);
  return SendRaw(bytes);
}

util::Status ServeClient::SendQuery(const QueryRequest& req) {
  std::string bytes;
  EncodeQuery(req, &bytes);
  return SendRaw(bytes);
}

util::Status ServeClient::SendStatus(const StatusRequest& req) {
  std::string bytes;
  EncodeStatus(req, &bytes);
  return SendRaw(bytes);
}

bool ServeClient::WaitReadable(int64_t timeout_micros) {
  if (reader_.buffered_bytes() > 0) return true;
  pollfd pfd{fd_.get(), POLLIN, 0};
  const timespec timeout{static_cast<time_t>(timeout_micros / 1000000),
                         static_cast<long>(timeout_micros % 1000000 * 1000)};
  return ::ppoll(&pfd, 1, &timeout, nullptr) > 0;
}

util::Result<ServeResponse> ServeClient::ReadResponse() {
  char buffer[16 * 1024];
  for (;;) {
    FrameReader::Frame frame;
    const FrameReader::Outcome outcome = reader_.Next(&frame);
    if (outcome == FrameReader::Outcome::kProtocolError) {
      return util::Status::DataLoss("malformed frame from server");
    }
    if (outcome == FrameReader::Outcome::kFrame) {
      ServeResponse resp;
      resp.type = static_cast<FrameType>(frame.type);
      bool ok = false;
      switch (resp.type) {
        case FrameType::kIngestAck:
          ok = DecodeIngestAck(frame.payload, &resp.ack);
          break;
        case FrameType::kQueryResponse:
          ok = DecodeQueryResponse(frame.payload, &resp.query);
          break;
        case FrameType::kStatusResponse:
          ok = DecodeStatusResponse(frame.payload, &resp.status);
          break;
        case FrameType::kRetryLater:
          ok = DecodeRetryLater(frame.payload, &resp.retry);
          break;
        case FrameType::kError:
          ok = DecodeError(frame.payload, &resp.error);
          break;
        case FrameType::kHelloAck:
          ok = DecodeHelloAck(frame.payload, &resp.hello);
          break;
        default:
          ok = false;  // Request-typed frame from the server.
          break;
      }
      if (!ok) return util::Status::DataLoss("bad response payload");
      return resp;
    }
    // kNeedMore: block for more bytes.
    const ssize_t n = ::recv(fd_.get(), buffer, sizeof(buffer), 0);
    if (n > 0) {
      reader_.Append(buffer, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0) return util::Status::Internal("connection closed");
    return util::Status::Internal("recv failed: " +
                                  std::string(std::strerror(errno)));
  }
}

}  // namespace latest::net
