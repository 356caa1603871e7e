#include "topology/loader.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/error.hpp"
#include "util/json.hpp"
#include "util/string_util.hpp"

namespace beesim::topo {

namespace {

using util::JsonArray;
using util::JsonObject;
using util::JsonValue;

/// json[key] as a whole number T can hold, `fallback` when absent.  A
/// fraction, a negative or an out-of-range value is a ConfigError naming
/// `field`.
template <typename T>
T wholeNumberOr(const JsonValue& json, const std::string& key, T fallback,
                const std::string& field) {
  const double value = json.numberOr(key, static_cast<double>(fallback));
  // 2^digits is the first whole number above T's maximum, exact as a double.
  const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
  if (!(value >= 0.0 && value < limit && value == std::floor(value))) {
    std::ostringstream message;
    message << "cluster file: " << field << " must be a whole number in [0, "
            << std::numeric_limits<T>::max() << "], got " << value;
    throw util::ConfigError(message.str());
  }
  return static_cast<T>(value);
}

VariabilitySpec variabilityFromJson(const JsonValue& json) {
  const auto kind = util::toLower(json.stringOr("kind", "none"));
  if (kind == "none") return VariabilitySpec{};
  if (kind == "lognormal" || kind == "log-normal") {
    return VariabilitySpec{.sigmaLog = json.numberOr("sigma", 0.05)};
  }
  throw util::ConfigError("cluster file: unknown variability kind '" + kind + "'");
}

JsonValue variabilityToJson(const VariabilitySpec& spec) {
  JsonObject out;
  if (spec.sigmaLog == 0.0) {
    out["kind"] = "none";
  } else {
    out["kind"] = "lognormal";
    out["sigma"] = spec.sigmaLog;
  }
  return JsonValue(std::move(out));
}

storage::HddRaidParams deviceFromJson(const JsonValue& json, const std::string& target) {
  storage::HddRaidParams device;
  const auto field = [&](const char* key) { return "target '" + target + "' " + key; };
  device.disks = wholeNumberOr(json, "disks", device.disks, field("disks"));
  device.parityDisks = wholeNumberOr(json, "parityDisks", device.parityDisks, field("parityDisks"));
  device.perDiskStream = json.numberOr("perDiskStream", device.perDiskStream);
  device.writeEfficiency = json.numberOr("writeEfficiency", device.writeEfficiency);
  device.cacheFraction = json.numberOr("cacheFraction", device.cacheFraction);
  device.cacheQHalf = json.numberOr("cacheQHalf", device.cacheQHalf);
  device.streamQHalf = json.numberOr("streamQHalf", device.streamQHalf);
  device.streamExponent = json.numberOr("streamExponent", device.streamExponent);
  return device;
}

JsonValue deviceToJson(const storage::HddRaidParams& device) {
  JsonObject out;
  out["disks"] = device.disks;
  out["parityDisks"] = device.parityDisks;
  out["perDiskStream"] = device.perDiskStream;
  out["writeEfficiency"] = device.writeEfficiency;
  out["cacheFraction"] = device.cacheFraction;
  out["cacheQHalf"] = device.cacheQHalf;
  out["streamQHalf"] = device.streamQHalf;
  out["streamExponent"] = device.streamExponent;
  return JsonValue(std::move(out));
}

TargetCfg targetFromJson(const JsonValue& json, const std::string& fallbackName) {
  TargetCfg target;
  target.name = json.stringOr("name", fallbackName);
  target.device = deviceFromJson(json, target.name);
  if (json.has("variability")) {
    target.variability = variabilityFromJson(json.at("variability"));
  }
  return target;
}

}  // namespace

ClusterConfig clusterFromJson(const std::string& jsonText) {
  const auto doc = util::parseJson(jsonText);
  ClusterConfig cluster;
  cluster.name = doc.stringOr("name", "cluster");
  cluster.network.name = cluster.name + "-switch";

  if (doc.has("network")) {
    const auto& net = doc.at("network");
    cluster.network.backboneBandwidth = net.numberOr("backbone", 0.0);
    cluster.network.serverLinkNoiseSigmaLog =
        net.numberOr("serverLinkNoiseSigmaLog", cluster.network.serverLinkNoiseSigmaLog);
  }

  // -- Compute nodes: either {"count", ...} or an explicit array. ---------
  const auto& nodes = doc.at("nodes");
  if (nodes.isObject()) {
    const auto count = wholeNumberOr<std::size_t>(nodes, "count", 1, "nodes.count");
    if (count == 0) throw util::ConfigError("cluster file: nodes.count must be >= 1");
    for (std::size_t n = 0; n < count; ++n) {
      ComputeNodeCfg node;
      node.name = cluster.name + "-node" + std::to_string(n);
      node.nicBandwidth = nodes.numberOr("nic", node.nicBandwidth);
      node.clientThroughputCap = nodes.numberOr("clientCap", node.clientThroughputCap);
      cluster.nodes.push_back(std::move(node));
    }
  } else {
    std::size_t index = 0;
    for (const auto& entry : nodes.asArray()) {
      ComputeNodeCfg node;
      node.name = entry.stringOr("name", cluster.name + "-node" + std::to_string(index));
      node.nicBandwidth = entry.numberOr("nic", node.nicBandwidth);
      node.clientThroughputCap = entry.numberOr("clientCap", node.clientThroughputCap);
      cluster.nodes.push_back(std::move(node));
      ++index;
    }
  }

  // -- Storage hosts. ------------------------------------------------------
  std::size_t hostIndex = 0;
  for (const auto& hostJson : doc.at("hosts").asArray()) {
    StorageHostCfg host;
    host.name = hostJson.stringOr("name", cluster.name + "-oss" + std::to_string(hostIndex));
    host.nicBandwidth = hostJson.numberOr("nic", host.nicBandwidth);
    host.serviceCap = hostJson.numberOr("serviceCap", host.serviceCap);

    const auto& targets = hostJson.at("targets");
    if (targets.isObject()) {
      // Compact form: N identical targets.
      const auto count = wholeNumberOr<std::size_t>(targets, "count", 1, "targets.count");
      if (count == 0) throw util::ConfigError("cluster file: targets.count must be >= 1");
      for (std::size_t t = 0; t < count; ++t) {
        host.targets.push_back(
            targetFromJson(targets, host.name + "-ost" + std::to_string(t)));
        host.targets.back().name = host.name + "-ost" + std::to_string(t);
      }
    } else {
      std::size_t t = 0;
      for (const auto& targetJson : targets.asArray()) {
        host.targets.push_back(
            targetFromJson(targetJson, host.name + "-ost" + std::to_string(t)));
        ++t;
      }
    }
    cluster.hosts.push_back(std::move(host));
    ++hostIndex;
  }

  cluster.validate();
  return cluster;
}

ClusterConfig loadCluster(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw util::IoError("cannot open cluster file: " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return clusterFromJson(buffer.str());
  } catch (const util::ConfigError& e) {
    throw util::ConfigError(path.string() + ": " + e.what());
  }
}

std::string clusterToJson(const ClusterConfig& cluster) {
  JsonObject doc;
  doc["name"] = cluster.name;
  {
    JsonObject network;
    network["backbone"] = cluster.network.backboneBandwidth;
    network["serverLinkNoiseSigmaLog"] = cluster.network.serverLinkNoiseSigmaLog;
    doc["network"] = JsonValue(std::move(network));
  }
  {
    JsonArray nodes;
    for (const auto& node : cluster.nodes) {
      JsonObject entry;
      entry["name"] = node.name;
      entry["nic"] = node.nicBandwidth;
      entry["clientCap"] = node.clientThroughputCap;
      nodes.push_back(JsonValue(std::move(entry)));
    }
    doc["nodes"] = JsonValue(std::move(nodes));
  }
  {
    JsonArray hosts;
    for (const auto& host : cluster.hosts) {
      JsonObject entry;
      entry["name"] = host.name;
      entry["nic"] = host.nicBandwidth;
      entry["serviceCap"] = host.serviceCap;
      JsonArray targets;
      for (const auto& target : host.targets) {
        auto targetJson = deviceToJson(target.device).asObject();
        targetJson["name"] = target.name;
        targetJson["variability"] = variabilityToJson(target.variability);
        targets.push_back(JsonValue(std::move(targetJson)));
      }
      entry["targets"] = JsonValue(std::move(targets));
      hosts.push_back(JsonValue(std::move(entry)));
    }
    doc["hosts"] = JsonValue(std::move(hosts));
  }
  return JsonValue(std::move(doc)).dump(2) + "\n";
}

void saveCluster(const ClusterConfig& cluster, const std::filesystem::path& path) {
  std::ofstream out(path);
  if (!out) throw util::IoError("cannot write cluster file: " + path.string());
  out << clusterToJson(cluster);
  if (!out) throw util::IoError("failed writing cluster file: " + path.string());
}

}  // namespace beesim::topo
