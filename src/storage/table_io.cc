#include "storage/table_io.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/strings.h"

namespace fdrepair {
namespace {

/// One CSV record with the 1-based line number it started on (for errors).
struct CsvRecord {
  std::vector<std::string> fields;
  int line = 0;
};

bool IsBlankChar(char c) { return c == ' ' || c == '\t'; }

/// Splits `text` into records of fields per RFC 4180: a field starting with
/// a double quote (after optional blanks) runs until its closing quote, with
/// "" as a literal quote and separators/newlines inside taken verbatim;
/// anything else is the unquoted fast path, trimmed of surrounding
/// whitespace. Records that are entirely blank are dropped.
StatusOr<std::vector<CsvRecord>> ParseCsvRecords(const std::string& text,
                                                 char sep) {
  std::vector<CsvRecord> records;
  size_t i = 0;
  int line = 1;
  const size_t n = text.size();
  while (i < n) {
    CsvRecord record;
    record.line = line;
    bool saw_quoted = false;
    while (true) {
      // One field: detect the quoted form, else take the unquoted fast path.
      size_t start = i;
      while (start < n && IsBlankChar(text[start])) ++start;
      std::string field;
      if (start < n && text[start] == '"') {
        saw_quoted = true;
        i = start + 1;
        bool closed = false;
        while (i < n) {
          char c = text[i];
          if (c == '"') {
            if (i + 1 < n && text[i + 1] == '"') {
              field += '"';
              i += 2;
            } else {
              ++i;
              closed = true;
              break;
            }
          } else {
            if (c == '\n') ++line;
            field += c;
            ++i;
          }
        }
        if (!closed) {
          return Status::InvalidArgument(
              "unterminated quoted field starting on CSV line " +
              std::to_string(record.line));
        }
        while (i < n && IsBlankChar(text[i])) ++i;
        if (i < n && text[i] != sep && text[i] != '\n' && text[i] != '\r') {
          return Status::InvalidArgument(
              "unexpected character after closing quote on CSV line " +
              std::to_string(line));
        }
      } else {
        while (i < n && text[i] != sep && text[i] != '\n' && text[i] != '\r') {
          ++i;
        }
        field = std::string(StripAsciiWhitespace(
            std::string_view(text).substr(start, i - start)));
      }
      record.fields.push_back(std::move(field));
      if (i < n && text[i] == sep) {
        ++i;
        continue;  // next field of the same record
      }
      break;  // newline or end of input: record complete
    }
    // Consume the record terminator (\n, \r or \r\n).
    if (i < n && text[i] == '\r') ++i;
    if (i < n && text[i] == '\n') {
      ++i;
      ++line;
    }
    // Drop blank lines (a single empty unquoted field, e.g. trailing
    // newlines); `,,` still parses as a record of empty fields, and a
    // quoted "" counts as intentional data.
    bool blank = !saw_quoted && record.fields.size() == 1 &&
                 record.fields[0].empty();
    if (!blank) records.push_back(std::move(record));
  }
  return records;
}

/// True when `field` cannot survive the unquoted path: it contains the
/// separator, a quote, a newline, or surrounding whitespace the reader
/// would strip. The whitespace predicate must match StripAsciiWhitespace
/// (isspace — space, \t, \n, \r, \v, \f), not just space/tab, or values
/// framed by \v or \f would silently lose them on the way back in.
bool NeedsQuoting(const std::string& field, char sep) {
  if (field.empty()) return false;
  if (std::isspace(static_cast<unsigned char>(field.front())) ||
      std::isspace(static_cast<unsigned char>(field.back()))) {
    return true;
  }
  for (char c : field) {
    if (c == sep || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

void AppendCsvField(std::ostream& os, const std::string& field, char sep) {
  if (!NeedsQuoting(field, sep)) {
    os << field;
    return;
  }
  os << '"';
  for (char c : field) {
    if (c == '"') os << '"';  // RFC 4180: a literal quote is doubled
    os << c;
  }
  os << '"';
}

}  // namespace

StatusOr<Table> TableFromCsv(const std::string& csv_text,
                             const std::string& relation_name, char sep) {
  FDR_ASSIGN_OR_RETURN(std::vector<CsvRecord> records,
                       ParseCsvRecords(csv_text, sep));
  if (records.empty()) return Status::InvalidArgument("empty CSV input");

  const std::vector<std::string>& header = records[0].fields;
  int id_col = -1;
  int w_col = -1;
  std::vector<std::string> attr_names;
  std::vector<int> attr_cols;
  for (size_t c = 0; c < header.size(); ++c) {
    const std::string& name = header[c];
    if (name == "id" && id_col < 0) {
      id_col = static_cast<int>(c);
    } else if (name == "w" && w_col < 0) {
      w_col = static_cast<int>(c);
    } else {
      attr_names.push_back(name);
      attr_cols.push_back(static_cast<int>(c));
    }
  }
  FDR_ASSIGN_OR_RETURN(Schema schema,
                       Schema::Make(relation_name, attr_names));
  Table table(std::move(schema));

  for (size_t r = 1; r < records.size(); ++r) {
    const std::vector<std::string>& fields = records[r].fields;
    const std::string line_no = std::to_string(records[r].line);
    if (fields.size() != header.size()) {
      return Status::InvalidArgument(
          "CSV line " + line_no + " has " + std::to_string(fields.size()) +
          " fields, expected " + std::to_string(header.size()));
    }
    std::vector<std::string> values;
    values.reserve(attr_cols.size());
    for (int c : attr_cols) values.push_back(fields[c]);
    double weight = 1.0;
    if (w_col >= 0) {
      char* end = nullptr;
      const std::string& w_text = fields[w_col];
      weight = std::strtod(w_text.c_str(), &end);
      if (end == w_text.c_str() || *end != '\0') {
        return Status::InvalidArgument("bad weight on CSV line " + line_no);
      }
      // The w column is documented as a positive float; zero, negative and
      // non-finite weights would silently corrupt every downstream
      // distance/matching computation, so they are rejected here.
      if (!std::isfinite(weight) || weight <= 0) {
        return Status::InvalidArgument(
            "weight on CSV line " + line_no + " must be a positive finite " +
            "number, got \"" + w_text + "\"");
      }
    }
    if (id_col >= 0) {
      char* end = nullptr;
      const std::string& id_text = fields[id_col];
      errno = 0;
      long long id = std::strtoll(id_text.c_str(), &end, 10);
      if (end == id_text.c_str() || *end != '\0' || errno == ERANGE) {
        return Status::InvalidArgument("bad id on CSV line " + line_no);
      }
      FDR_RETURN_IF_ERROR(table.AddTupleWithId(id, values, weight));
    } else {
      table.AddTuple(values, weight);
    }
  }
  return table;
}

StatusOr<Table> TableFromCsvFile(const std::string& path,
                                 const std::string& relation_name, char sep) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return TableFromCsv(buffer.str(), relation_name, sep);
}

std::string TableToCsv(const Table& table, char sep) {
  std::ostringstream os;
  os << "id";
  for (int a = 0; a < table.schema().arity(); ++a) {
    os << sep;
    AppendCsvField(os, table.schema().AttributeName(a), sep);
  }
  os << sep << "w\n";
  for (int row = 0; row < table.num_tuples(); ++row) {
    os << table.id(row);
    for (int a = 0; a < table.schema().arity(); ++a) {
      os << sep;
      AppendCsvField(os, table.ValueText(row, a), sep);
    }
    os << sep << FormatDouble(table.weight(row)) << "\n";
  }
  return os.str();
}

Status TableToCsvFile(const Table& table, const std::string& path, char sep) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << TableToCsv(table, sep);
  if (!out) return Status::IoError("write failed for " + path);
  return Status::OK();
}

}  // namespace fdrepair
