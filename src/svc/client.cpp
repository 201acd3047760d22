#include "svc/client.hpp"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace ecsim::svc {

bool Client::connect(const std::string& socket_path) {
  close();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.empty() || socket_path.size() >= sizeof addr.sun_path) {
    err_ = "bad socket path";
    return false;
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    err_ = std::strerror(errno);
    return false;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    err_ = std::string("connect ") + socket_path + ": " +
           std::strerror(errno);
    ::close(fd);
    return false;
  }
  fd_ = fd;
  err_.clear();
  return true;
}

void Client::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool Client::request(const Request& req, Fields& reply, ResponseMeta& meta) {
  if (fd_ < 0) {
    err_ = "not connected";
    return false;
  }
  if (!write_frame(fd_, req.to_fields().serialize())) {
    err_ = "daemon went away mid-write";
    close();
    return false;
  }
  std::string in;
  if (!read_frame(fd_, in) || !Fields::parse(in, reply)) {
    err_ = "daemon went away mid-read";
    close();
    return false;
  }
  meta = meta_from_fields(reply);
  if (!meta.ok) {
    err_ = meta.error.empty() ? "daemon error" : meta.error;
    return false;
  }
  err_.clear();
  return true;
}

namespace {

bool decode_cell(const std::string& s, sweep::MonteCarloResult& r) {
  return decode_mc(s, r);
}

}  // namespace

template <class Cell>
bool remote_cells(Client& client, const Request& req,
                  std::vector<Cell>& cells, ResponseMeta& meta) {
  Fields reply;
  if (!client.request(req, reply, meta)) return false;
  std::vector<std::string> blobs;
  const std::string* units = reply.get("units");
  if (units == nullptr || !decode_blob_list(*units, blobs) ||
      blobs.size() != req.units()) {
    client.err_ = "malformed units payload";
    return false;
  }
  std::vector<Cell> out(blobs.size());
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    if (!decode_cell(blobs[i], out[i])) {
      client.err_ = "undecodable payload of unit " + std::to_string(i);
      return false;
    }
  }
  cells = std::move(out);
  return true;
}

template bool remote_cells(Client&, const Request&,
                           std::vector<sweep::SweepCell>&, ResponseMeta&);
template bool remote_cells(Client&, const Request&,
                           std::vector<sweep::FaultCell>&, ResponseMeta&);
template bool remote_cells(Client&, const Request&,
                           std::vector<sweep::NetworkCell>&, ResponseMeta&);

bool remote_fault_mc(Client& client, const Request& req,
                     sweep::FaultMonteCarloResult& result,
                     ResponseMeta& meta) {
  std::vector<sweep::FaultCell> cells;
  if (!remote_cells(client, req, cells, meta)) return false;
  result = sweep::summarize_fault_trials(std::move(cells), req.loss);
  return true;
}

bool remote_vm_mc(Client& client, const Request& req,
                  sweep::MonteCarloResult& result, ResponseMeta& meta) {
  std::vector<sweep::MonteCarloResult> runs;
  if (!remote_cells(client, req, runs, meta)) return false;
  result = std::move(runs[0]);  // a kSpecRun request is one unit
  return true;
}

}  // namespace ecsim::svc
