// appgraph — dumps the call graph of a package as Graphviz DOT, with the
// same lazy, hierarchy-driven construction the compatibility analysis
// uses.
//
//   appgraph <apk-file> [--stats]
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "adf/repository.hpp"
#include "clvm/clvm.hpp"
#include "core/callgraph.hpp"
#include "support/errors.hpp"
#include "support/sdmc.hpp"

namespace sd = saintdroid;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: appgraph <apk> [--stats]\n");
    return 2;
  }
  const bool stats_only = argc > 2 && std::strcmp(argv[2], "--stats") == 0;

  try {
    std::optional<std::vector<std::uint8_t>> bytes;
    try {
      bytes = sd::read_file_bytes(argv[1]);
    } catch (const sd::Error&) {
    }
    if (!bytes) throw sd::Error(std::string{"cannot open "} + argv[1]);
    const sd::Apk apk = sd::Apk::parse(*bytes);

    const auto& repo = sd::FrameworkRepository::standard();
    const int level =
        sd::FrameworkRepository::clamp_level(apk.manifest.target_sdk);
    sd::ClassLoaderVm vm{apk, repo.image(level), true,
                         &repo.class_index(level)};
    sd::ClassHierarchy hierarchy{vm};
    const sd::CallGraph graph = sd::CallGraph::build(apk, hierarchy);

    if (stats_only) {
      std::size_t entries = 0;
      std::size_t framework = 0;
      for (const auto& node : graph.nodes()) {
        entries += node.is_entry;
        framework += node.is_framework;
      }
      std::printf("%s: %zu nodes (%zu app, %zu framework boundary, %zu "
                  "entry points), %zu edges, %llu classes loaded\n",
                  apk.name.c_str(), graph.nodes().size(),
                  graph.reachable_app_methods(), framework, entries,
                  graph.edges().size(),
                  static_cast<unsigned long long>(vm.loaded_class_count()));
      return 0;
    }
    std::fputs(graph.to_dot(apk.name).c_str(), stdout);
    return 0;
  } catch (const sd::Error& e) {
    std::fprintf(stderr, "appgraph: %s\n", e.what());
    return 2;
  }
}
