#include "topology/loader.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <utility>

#include "topology/plafrim.hpp"
#include "util/error.hpp"

namespace beesim::topo {
namespace {

constexpr const char* kCompactDoc = R"({
  "name": "mysite",
  "network": { "backbone": 0, "serverLinkNoiseSigmaLog": 0.03 },
  "nodes": { "count": 4, "nic": 11000, "clientCap": 1680 },
  "hosts": [
    { "nic": 11000, "serviceCap": 4500,
      "targets": { "count": 4, "disks": 12, "parityDisks": 2,
                   "perDiskStream": 200, "writeEfficiency": 0.93,
                   "variability": { "kind": "lognormal", "sigma": 0.05 } } },
    { "nic": 11000, "serviceCap": 4500,
      "targets": { "count": 4, "perDiskStream": 200 } }
  ]
})";

TEST(Loader, ParsesCompactForm) {
  const auto cluster = clusterFromJson(kCompactDoc);
  EXPECT_EQ(cluster.name, "mysite");
  EXPECT_EQ(cluster.nodes.size(), 4u);
  EXPECT_DOUBLE_EQ(cluster.nodes[0].clientThroughputCap, 1680.0);
  EXPECT_EQ(cluster.hosts.size(), 2u);
  EXPECT_EQ(cluster.targetCount(), 8u);
  EXPECT_DOUBLE_EQ(cluster.network.serverLinkNoiseSigmaLog, 0.03);
  EXPECT_DOUBLE_EQ(cluster.hosts[0].targets[0].variability.sigmaLog, 0.05);
  EXPECT_EQ(cluster.hosts[1].targets[0].variability.sigmaLog, 0.0);
  // Defaults fill unspecified device fields.
  EXPECT_DOUBLE_EQ(cluster.hosts[1].targets[0].device.writeEfficiency, 0.93);
  // Auto-generated names are distinct.
  EXPECT_NE(cluster.hosts[0].targets[0].name, cluster.hosts[0].targets[1].name);
}

TEST(Loader, ParsesExplicitArrays) {
  const auto cluster = clusterFromJson(R"({
    "name": "tiny",
    "nodes": [ {"name": "n0", "nic": 1250, "clientCap": 900 },
               {"nic": 1250 } ],
    "hosts": [ { "targets": [ {"disks": 10}, {"disks": 12} ] } ]
  })");
  EXPECT_EQ(cluster.nodes[0].name, "n0");
  EXPECT_EQ(cluster.nodes.size(), 2u);
  EXPECT_EQ(cluster.hosts[0].targets[0].device.disks, 10);
  EXPECT_EQ(cluster.hosts[0].targets[1].device.disks, 12);
}

TEST(Loader, RoundTripsThroughJson) {
  const auto original = makePlafrim(Scenario::kOmniPath100G, 3);
  const auto reloaded = clusterFromJson(clusterToJson(original));
  EXPECT_EQ(reloaded.name, original.name);
  ASSERT_EQ(reloaded.nodes.size(), original.nodes.size());
  ASSERT_EQ(reloaded.hosts.size(), original.hosts.size());
  EXPECT_DOUBLE_EQ(reloaded.nodes[0].clientThroughputCap,
                   original.nodes[0].clientThroughputCap);
  EXPECT_DOUBLE_EQ(reloaded.hosts[1].serviceCap, original.hosts[1].serviceCap);
  EXPECT_DOUBLE_EQ(reloaded.hosts[0].targets[0].device.streamQHalf,
                   original.hosts[0].targets[0].device.streamQHalf);
  EXPECT_EQ(reloaded.hosts[0].targets[0].variability.sigmaLog,
            original.hosts[0].targets[0].variability.sigmaLog);
  // Second round trip is byte-stable (canonical serialization).
  EXPECT_EQ(clusterToJson(reloaded), clusterToJson(original));
}

TEST(Loader, SaveAndLoadFile) {
  const auto path = std::filesystem::temp_directory_path() / "beesim_cluster_test.json";
  const auto original = makePlafrim(Scenario::kEthernet10G, 2);
  saveCluster(original, path);
  const auto reloaded = loadCluster(path);
  EXPECT_EQ(reloaded.targetCount(), original.targetCount());
  std::filesystem::remove(path);
}

TEST(Loader, SchemaViolationsThrow) {
  EXPECT_THROW(clusterFromJson("{}"), util::ConfigError);  // missing nodes
  EXPECT_THROW(clusterFromJson(R"({"nodes": {"count": 0}, "hosts": []})"),
               util::ConfigError);
  EXPECT_THROW(clusterFromJson(R"({"nodes": {"count": 1}, "hosts": []})"),
               util::ConfigError);  // no hosts -> validate() fails
  EXPECT_THROW(clusterFromJson(R"({
    "nodes": {"count": 1},
    "hosts": [ {"targets": {"count": 1},
                "nic": -5} ] })"),
               util::ConfigError);  // negative capacity
  EXPECT_THROW(clusterFromJson(R"({
    "nodes": {"count": 1},
    "hosts": [ {"targets": {"count": 1,
                "variability": {"kind": "banana"}}} ] })"),
               util::ConfigError);
  // Values the device curve and the noise cannot take are rejected as
  // configuration errors naming the target, not as internal contract
  // violations.
  const auto withTarget = [](const std::string& fields) {
    return R"({"nodes": {"count": 1},
               "hosts": [ {"name": "oss0", "targets": [ {"name": "t0", )" +
           fields + "} ] } ] }";
  };
  for (const char* fields :
       {R"("disks": 0)", R"("parityDisks": 12)", R"("parityDisks": -1)",
        R"("perDiskStream": -5)", R"("writeEfficiency": 1.2)", R"("cacheFraction": 1.5)",
        R"("cacheQHalf": -1)", R"("streamQHalf": -1)", R"("streamExponent": 0.5)",
        R"("variability": {"kind": "lognormal", "sigma": -0.5})"}) {
    try {
      clusterFromJson(withTarget(fields));
      ADD_FAILURE() << "accepted " << fields;
    } catch (const util::ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("target 't0'"), std::string::npos) << e.what();
    }
  }
  // Integer fields take whole numbers their type can hold; a fraction, an
  // out-of-range value or a negative is an error naming the field.
  for (const std::string value : {"12.9", "1e20", "-1"}) {
    const std::pair<std::string, std::string> cases[] = {
        {withTarget(R"("disks": )" + value), "target 't0' disks"},
        {withTarget(R"("parityDisks": )" + value), "target 't0' parityDisks"},
        {R"({"nodes": {"count": )" + value + R"(}, "hosts": [ {"targets": {"count": 1}} ] })",
         "nodes.count"},
        {R"({"nodes": {"count": 1}, "hosts": [ {"targets": {"count": )" + value + "} } ] }",
         "targets.count"},
    };
    for (const auto& [doc, field] : cases) {
      try {
        clusterFromJson(doc);
        ADD_FAILURE() << "accepted " << field << " = " << value;
      } catch (const util::ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find(field + " must be a whole number"),
                  std::string::npos)
            << e.what();
      }
    }
  }
  EXPECT_THROW(clusterFromJson(R"({
    "network": {"serverLinkNoiseSigmaLog": -0.1},
    "nodes": {"count": 1},
    "hosts": [ {"targets": {"count": 1}} ] })"),
               util::ConfigError);
}

TEST(Loader, VariabilityKindsAreNoneOrLogNormal) {
  const auto withKind = [](const std::string& variability) {
    return R"({"nodes": {"count": 1},
               "hosts": [ {"targets": {"count": 2, "variability": )" +
           variability + "} } ] }";
  };
  EXPECT_THROW(clusterFromJson(withKind(R"({"kind": "gaussian", "sigma": 0.1})")),
               util::ConfigError);
  EXPECT_THROW(clusterFromJson(withKind(R"({"kind": "slowphase", "sigma": 0.1})")),
               util::ConfigError);
  for (const char* variability : {R"({"kind": "none"})", R"({"kind": "lognormal", "sigma": 0.07})",
                                  R"({"kind": "log-normal", "sigma": 0.07})"}) {
    const auto first = clusterToJson(clusterFromJson(withKind(variability)));
    EXPECT_EQ(clusterToJson(clusterFromJson(first)), first) << variability;
  }
  const auto none = clusterToJson(clusterFromJson(withKind(R"({"kind": "none"})")));
  EXPECT_NE(none.find(R"("kind": "none")"), std::string::npos) << none;
  EXPECT_EQ(none.find("sigma\""), std::string::npos) << none;
  const auto logNormal =
      clusterToJson(clusterFromJson(withKind(R"({"kind": "LogNormal", "sigma": 0.07})")));
  EXPECT_NE(logNormal.find(R"("kind": "lognormal")"), std::string::npos) << logNormal;
  EXPECT_NE(logNormal.find(R"("sigma": 0.07)"), std::string::npos) << logNormal;
}

TEST(Loader, MissingFileThrows) {
  EXPECT_THROW(loadCluster("/nonexistent/cluster.json"), util::IoError);
}

}  // namespace
}  // namespace beesim::topo
