#include "src/corpus/serialization.h"

#include <cstdio>
#include <optional>
#include <vector>

#include "src/common/strings.h"

namespace revere::corpus {

namespace {

std::string Escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\t':
        out += "\\t";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string Unescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      switch (s[i + 1]) {
        case 't':
          out.push_back('\t');
          ++i;
          continue;
        case 'n':
          out.push_back('\n');
          ++i;
          continue;
        case '\\':
          out.push_back('\\');
          ++i;
          continue;
        default:
          break;
      }
    }
    out.push_back(s[i]);
  }
  return out;
}

std::vector<std::string> Fields(std::string_view line) {
  std::vector<std::string> raw = Split(line, '\t');
  std::vector<std::string> out;
  out.reserve(raw.size());
  for (const auto& f : raw) out.push_back(Unescape(f));
  return out;
}

}  // namespace

std::string SerializeCorpus(const Corpus& corpus) {
  std::string out = "# REVERE corpus v1\n";
  for (const auto& schema : corpus.schemas()) {
    out += "schema\t" + Escape(schema.id) + "\t" + Escape(schema.domain) +
           "\n";
    for (const auto& rel : schema.relations) {
      out += "relation\t" + Escape(rel.name);
      for (const auto& attr : rel.attributes) {
        out += '\t';
        out += Escape(attr);
      }
      out += "\n";
    }
  }
  for (const auto& data : corpus.data_examples()) {
    out += "data\t" + Escape(data.schema_id) + "\t" +
           Escape(data.relation) + "\n";
    for (const auto& row : data.rows) {
      out += "row";
      for (const auto& v : row) {
        out += '\t';
        out += Escape(v);
      }
      out += "\n";
    }
  }
  for (const auto& mapping : corpus.known_mappings()) {
    out += "mapping\t" + Escape(mapping.schema_a) + "\t" +
           Escape(mapping.schema_b) + "\n";
    for (const auto& [a, b] : mapping.element_pairs) {
      out += "pair\t" + Escape(a) + "\t" + Escape(b) + "\n";
    }
  }
  return out;
}

Result<Corpus> ParseCorpus(std::string_view text) {
  Corpus corpus;
  // Builders in flight.
  std::optional<SchemaEntry> schema;
  std::optional<DataExample> data;
  std::optional<KnownMapping> mapping;

  auto flush_schema = [&]() -> Status {
    if (schema.has_value()) {
      REVERE_RETURN_IF_ERROR(corpus.AddSchema(std::move(*schema)));
      schema.reset();
    }
    return Status::Ok();
  };
  auto flush_data = [&]() -> Status {
    if (data.has_value()) {
      REVERE_RETURN_IF_ERROR(corpus.AddDataExample(std::move(*data)));
      data.reset();
    }
    return Status::Ok();
  };
  auto flush_mapping = [&]() -> Status {
    if (mapping.has_value()) {
      REVERE_RETURN_IF_ERROR(corpus.AddKnownMapping(std::move(*mapping)));
      mapping.reset();
    }
    return Status::Ok();
  };
  auto flush_all = [&]() -> Status {
    REVERE_RETURN_IF_ERROR(flush_schema());
    REVERE_RETURN_IF_ERROR(flush_data());
    return flush_mapping();
  };

  size_t line_number = 0;
  for (const std::string& line : Split(text, '\n')) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> fields = Fields(line);
    const std::string& kind = fields[0];
    auto fail = [&](const std::string& why) {
      return Status::ParseError("line " + std::to_string(line_number) +
                                ": " + why);
    };
    if (kind == "schema") {
      if (fields.size() != 3) return fail("schema needs id and domain");
      REVERE_RETURN_IF_ERROR(flush_all());
      schema = SchemaEntry{fields[1], fields[2], {}};
    } else if (kind == "relation") {
      if (!schema.has_value()) return fail("relation outside schema");
      if (fields.size() < 2) return fail("relation needs a name");
      RelationDecl rel;
      rel.name = fields[1];
      rel.attributes.assign(fields.begin() + 2, fields.end());
      schema->relations.push_back(std::move(rel));
    } else if (kind == "data") {
      if (fields.size() != 3) return fail("data needs schema and relation");
      REVERE_RETURN_IF_ERROR(flush_all());
      data = DataExample{fields[1], fields[2], {}};
    } else if (kind == "row") {
      if (!data.has_value()) return fail("row outside data block");
      data->rows.emplace_back(fields.begin() + 1, fields.end());
    } else if (kind == "mapping") {
      if (fields.size() != 3) return fail("mapping needs two schema ids");
      REVERE_RETURN_IF_ERROR(flush_all());
      mapping = KnownMapping{fields[1], fields[2], {}};
    } else if (kind == "pair") {
      if (!mapping.has_value()) return fail("pair outside mapping block");
      if (fields.size() != 3) return fail("pair needs two elements");
      mapping->element_pairs.emplace_back(fields[1], fields[2]);
    } else {
      return fail("unknown record '" + kind + "'");
    }
  }
  REVERE_RETURN_IF_ERROR(flush_all());
  return corpus;
}

Status SaveCorpusToFile(const Corpus& corpus, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("cannot open '" + path + "' for writing");
  }
  std::string text = SerializeCorpus(corpus);
  size_t written = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  if (written != text.size()) {
    return Status::Internal("short write to '" + path + "'");
  }
  return Status::Ok();
}

Result<Corpus> LoadCorpusFromFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  std::string text;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    text.append(buffer, n);
  }
  std::fclose(f);
  return ParseCorpus(text);
}

}  // namespace revere::corpus
