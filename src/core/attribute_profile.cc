#include "core/attribute_profile.h"

#include <algorithm>
#include <cmath>

#include "text/format.h"
#include "text/qgram.h"
#include "text/token_histogram.h"
#include "text/tokenizer.h"

namespace d3l::core {

size_t AttributeProfile::MemoryUsage() const {
  size_t bytes = sizeof(AttributeProfile);
  bytes += table_name.capacity() + column_name.capacity();
  for (const auto& s : qset) bytes += s.size() + 16;
  for (const auto& s : tset) bytes += s.size() + 16;
  for (const auto& s : rset) bytes += s.size() + 16;
  bytes += embedding.capacity() * sizeof(float);
  bytes += numeric_sample.capacity() * sizeof(double);
  return bytes;
}

namespace {

// Deterministic stride sample of row indices over non-null cells.
std::vector<size_t> SampleRows(const Column& col, size_t cap) {
  std::vector<size_t> rows;
  rows.reserve(col.size());
  for (size_t r = 0; r < col.size(); ++r) {
    if (!IsNullCell(col.cell(r))) rows.push_back(r);
  }
  if (cap == 0 || rows.size() <= cap) return rows;
  std::vector<size_t> sampled;
  sampled.reserve(cap);
  double stride = static_cast<double>(rows.size()) / static_cast<double>(cap);
  for (size_t i = 0; i < cap; ++i) {
    sampled.push_back(rows[static_cast<size_t>(static_cast<double>(i) * stride)]);
  }
  return sampled;
}

}  // namespace

AttributeProfile BuildProfile(const Table& table, size_t col,
                              const WordEmbeddingModel& wem, CachingEmbedder* cache,
                              const ProfileOptions& options) {
  const Column& column = table.column(col);
  AttributeProfile p;
  p.ref = AttributeRef{0, static_cast<uint32_t>(col)};  // table id assigned by caller
  p.table_name = table.name();
  p.column_name = column.name();
  p.is_numeric = column.type() == ColumnType::kNumeric;

  // Evidence N: name q-grams (always available).
  p.qset = QGrams(column.name(), options.qgram_q);

  std::vector<size_t> rows = SampleRows(column, options.max_values);
  p.extent_size = rows.size();

  // Evidence F: format strings — for all attributes, numeric included
  // (Section III-C: numbers are indexed into the name and format indexes).
  for (size_t r : rows) {
    std::string f = FormatOf(column.cell(r));
    if (!f.empty()) p.rset.insert(std::move(f));
  }

  if (p.is_numeric) {
    // Evidence D: the extent as a sample of its originating domain. Cells
    // such as "-nan" parse as NaN, which has no place in a distribution (and
    // would break the sort order KsStatistic relies on).
    p.numeric_sample = column.NumericExtent();
    std::erase_if(p.numeric_sample, [](double x) { return std::isnan(x); });
    if (options.max_numeric_sample > 0 &&
        p.numeric_sample.size() > options.max_numeric_sample) {
      std::vector<double> sampled;
      sampled.reserve(options.max_numeric_sample);
      double stride = static_cast<double>(p.numeric_sample.size()) /
                      static_cast<double>(options.max_numeric_sample);
      for (size_t i = 0; i < options.max_numeric_sample; ++i) {
        sampled.push_back(
            p.numeric_sample[static_cast<size_t>(static_cast<double>(i) * stride)]);
      }
      p.numeric_sample = std::move(sampled);
    }
    std::sort(p.numeric_sample.begin(), p.numeric_sample.end());
    // Tokens and word embeddings are not useful signals for numbers
    // (Section III-C): no tset, no embedding.
    return p;
  }

  // Pass 1 (Algorithm 1, lines 5-8): token histogram over the extent.
  TokenHistogram hist;
  std::vector<std::vector<Part>> parts_per_row;
  parts_per_row.reserve(rows.size());
  for (size_t r : rows) {
    std::vector<Part> parts = SplitParts(column.cell(r));
    for (const Part& part : parts) hist.Insert(part.words);
    parts_per_row.push_back(std::move(parts));
  }

  // Pass 2 (Example 2): per part, least-frequent word -> tset; most-frequent
  // word -> embedding accumulator.
  Vec acc(wem.dim(), 0.0f);
  size_t acc_count = 0;
  for (const auto& parts : parts_per_row) {
    for (const Part& part : parts) {
      if (part.words.empty()) continue;
      const std::string* least = &part.words[0];
      const std::string* most = &part.words[0];
      size_t least_n = hist.CountOf(part.words[0]);
      size_t most_n = least_n;
      for (const std::string& w : part.words) {
        size_t n = hist.CountOf(w);
        if (n < least_n) {
          least_n = n;
          least = &w;
        }
        if (n > most_n) {
          most_n = n;
          most = &w;
        }
      }
      p.tset.insert(*least);
      const Vec& v = cache ? cache->Embed(*most) : wem.Embed(*most);
      AddInPlace(&acc, v);
      ++acc_count;
    }
  }
  if (acc_count > 0) {
    for (float& x : acc) x = static_cast<float>(x / static_cast<double>(acc_count));
    p.embedding = std::move(acc);
    p.has_embedding = true;
  }
  return p;
}

void AttributeProfile::Save(io::Writer& w) const {
  w.WriteU32(ref.table);
  w.WriteU32(ref.column);
  w.WriteString(table_name);
  w.WriteString(column_name);
  w.WriteBool(is_numeric);
  w.WriteU64(extent_size);
  w.WriteStringRange(qset);
  w.WriteStringRange(tset);
  w.WriteStringRange(rset);
  w.WriteFloatVector(embedding);
  w.WriteBool(has_embedding);
  w.WriteDoubleVector(numeric_sample);
}

AttributeProfile AttributeProfile::Load(io::Reader& r) {
  AttributeProfile p;
  p.ref.table = r.ReadU32();
  p.ref.column = r.ReadU32();
  p.table_name = r.ReadString();
  p.column_name = r.ReadString();
  p.is_numeric = r.ReadBool();
  p.extent_size = r.ReadU64();
  for (std::set<std::string>* s : {&p.qset, &p.tset, &p.rset}) {
    size_t n = r.ReadLength(1);
    for (size_t i = 0; i < n && r.status().ok(); ++i) s->insert(r.ReadString());
  }
  p.embedding = r.ReadFloatVector();
  p.has_embedding = r.ReadBool();
  p.numeric_sample = r.ReadDoubleVector();
  // KsStatistic takes samples as stored: sorted and NaN-free, which also
  // holds for profiles decoded from untrusted RPC bytes.
  if (std::any_of(p.numeric_sample.begin(), p.numeric_sample.end(),
                  [](double x) { return std::isnan(x); }) ||
      !std::is_sorted(p.numeric_sample.begin(), p.numeric_sample.end())) {
    r.MarkCorrupt("profile numeric sample is unsorted or holds NaN");
  }
  return p;
}

}  // namespace d3l::core
