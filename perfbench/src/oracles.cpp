#include "oracles.hpp"

#include <fstream>
#include <sstream>

#include "experiments/interval_report.hpp"
#include "inputs.hpp"
#include "support/json_writer.hpp"
#include "support/error.hpp"
#include "util.hpp"

namespace perfbench {

namespace {

std::ifstream openIn(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw jepo::Error("perfbench: cannot read oracle " + path);
  return in;
}

std::ofstream openOut(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw jepo::Error("perfbench: cannot write oracle " + path);
  return out;
}

std::uint64_t parseHex(const std::string& s, const std::string& path) {
  std::size_t used = 0;
  std::uint64_t v = 0;
  try {
    v = std::stoull(s, &used, 16);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != s.size() || s.size() != 16) {
    throw jepo::Error("perfbench: bad digest '" + s + "' in " + path);
  }
  return v;
}

}  // namespace

std::string renderTable4Row(const jepo::experiments::ClassifierResult& row) {
  jepo::JsonWriter w;
  w.beginObject();
  for (const auto& [key, value] : jepo::experiments::table4JsonRow(row)) {
    w.kv(key, value);
  }
  w.endObject();
  return w.str();
}

Oracles loadOracles(const std::string& dir) {
  Oracles o;
  {
    const std::string path = dir + "/profile_digests.txt";
    std::ifstream in = openIn(path);
    std::string name, payload, view;
    while (in >> name >> payload >> view) {
      o.profilePayload[name] = parseHex(payload, path);
      o.profileCliView[name] = parseHex(view, path);
    }
    if (o.profilePayload.size() != kSynthPrograms + 1) {
      throw jepo::Error("perfbench: " + path + " lacks programs");
    }
  }
  {
    const std::string path = dir + "/suggest_digests.txt";
    std::ifstream in = openIn(path);
    std::string name, payload;
    while (in >> name >> payload) {
      o.suggestPayload[name] = parseHex(payload, path);
    }
    if (o.suggestPayload.empty()) {
      throw jepo::Error("perfbench: " + path + " is empty");
    }
  }
  {
    const std::string path = dir + "/changes.txt";
    std::ifstream in = openIn(path);
    std::string name;
    int count = 0;
    int k = 0;
    while (k < 10 && in >> name >> count) {
      if (name != classifierToken(k)) {
        throw jepo::Error("perfbench: " + path + " row " +
                          std::to_string(k) + " is not " + classifierToken(k));
      }
      o.changes[static_cast<std::size_t>(k++)] = count;
    }
    if (k != 10) throw jepo::Error("perfbench: " + path + " lacks rows");
  }
  {
    const std::string path = dir + "/table4_rows.jsonl";
    std::ifstream in = openIn(path);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) o.table4Rows.push_back(line);
    }
    if (o.table4Rows.size() != 10) {
      throw jepo::Error("perfbench: " + path + " needs 10 rows");
    }
  }
  return o;
}

void writeOracles(const std::string& dir, const Oracles& o) {
  // Files list entries in generation order so diffs stay readable.
  {
    std::ofstream out = openOut(dir + "/profile_digests.txt");
    for (const SourceProgram& p : hotPrograms()) {
      out << p.name << ' ' << hex64(o.profilePayload.at(p.name)) << ' '
          << hex64(o.profileCliView.at(p.name)) << '\n';
    }
  }
  {
    std::ofstream out = openOut(dir + "/suggest_digests.txt");
    for (const CorpusUnit& u :
         corpusUnits(kSuggestCorpusSeed, kSuggestCorpusScale)) {
      out << u.name << ' ' << hex64(o.suggestPayload.at(u.name)) << '\n';
    }
  }
  {
    std::ofstream out = openOut(dir + "/changes.txt");
    for (int k = 0; k < 10; ++k) {
      out << classifierToken(k) << ' ' << o.changes[static_cast<std::size_t>(k)]
          << '\n';
    }
  }
  {
    std::ofstream out = openOut(dir + "/table4_rows.jsonl");
    for (const std::string& row : o.table4Rows) out << row << '\n';
  }
}

}  // namespace perfbench
