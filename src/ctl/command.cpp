#include "ctl/command.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/hex.hpp"
#include "common/logging.hpp"
#include "common/parse_num.hpp"

namespace ehdl::ctl {

namespace {

std::vector<uint8_t>
parseHex(const std::string &hex, size_t line)
{
    std::optional<std::vector<uint8_t>> bytes = fromHex(hex);
    if (!bytes)
        fatal("ctl schedule line ", line,
              ": expected an even-length hex string, got '", hex, "'");
    return std::move(*bytes);
}

std::string
flagsName(uint64_t flags, size_t line)
{
    switch (flags) {
      case ebpf::kBpfAny: return "any";
      case ebpf::kBpfNoExist: return "noexist";
      case ebpf::kBpfExist: return "exist";
    }
    fatal("ctl schedule line ", line, ": unrepresentable update flags ",
          flags);
}

uint64_t
parseFlags(const std::string &word, size_t line)
{
    if (word.empty() || word == "any")
        return ebpf::kBpfAny;
    if (word == "noexist")
        return ebpf::kBpfNoExist;
    if (word == "exist")
        return ebpf::kBpfExist;
    fatal("ctl schedule line ", line, ": update flags must be "
          "any|noexist|exist, got '", word, "'");
}

uint64_t
parseU64(const std::string &word, size_t line)
{
    const std::optional<uint64_t> v = parseDecimal(word);
    if (!v)
        fatal("ctl schedule line ", line, ": expected integer, got '", word,
              "'");
    return *v;
}

/** Render one map primitive as its schedule-line words. */
void
emitMapOp(std::ostream &os, const CtlMapOp &op, size_t line)
{
    switch (op.kind) {
      case CtlOpKind::MapUpdate:
        os << "update " << op.map << " " << toHex(op.key) << " "
           << toHex(op.value) << " " << flagsName(op.flags, line);
        return;
      case CtlOpKind::MapDelete:
        os << "delete " << op.map << " " << toHex(op.key);
        return;
      case CtlOpKind::MapLookup:
        os << "lookup " << op.map << " " << toHex(op.key);
        return;
      default:
        break;
    }
    fatal("ctl schedule: op kind ", ctlOpKindName(op.kind),
          " is not a map primitive");
}

/**
 * Parse one map primitive from the word stream. @p verb has already been
 * consumed; trailing words (';' separators in batches) stay in @p ls.
 */
CtlMapOp
parseMapOp(const std::string &verb, std::istringstream &ls, size_t line)
{
    CtlMapOp op;
    std::string key_hex;
    if (verb == "update") {
        op.kind = CtlOpKind::MapUpdate;
        std::string value_hex, flags_word;
        ls >> op.map >> key_hex >> value_hex;
        if (value_hex.empty())
            fatal("ctl schedule line ", line,
                  ": update needs <map> <keyhex> <valuehex> [flags]");
        // The flags word is optional and must not swallow a following
        // ';' batch separator.
        const std::streampos mark = ls.tellg();
        ls >> flags_word;
        if (flags_word == ";") {
            ls.clear();
            ls.seekg(mark);
            flags_word.clear();
        }
        op.value = parseHex(value_hex, line);
        op.flags = parseFlags(flags_word, line);
    } else if (verb == "delete") {
        op.kind = CtlOpKind::MapDelete;
        ls >> op.map >> key_hex;
        if (key_hex.empty())
            fatal("ctl schedule line ", line,
                  ": delete needs <map> <keyhex>");
    } else if (verb == "lookup") {
        op.kind = CtlOpKind::MapLookup;
        ls >> op.map >> key_hex;
        if (key_hex.empty())
            fatal("ctl schedule line ", line,
                  ": lookup needs <map> <keyhex>");
    } else {
        fatal("ctl schedule line ", line, ": unknown map op '", verb, "'");
    }
    op.key = parseHex(key_hex, line);
    return op;
}

}  // namespace

std::string
ctlOpKindName(CtlOpKind kind)
{
    switch (kind) {
      case CtlOpKind::MapLookup: return "map_lookup";
      case CtlOpKind::MapUpdate: return "map_update";
      case CtlOpKind::MapDelete: return "map_delete";
      case CtlOpKind::MapBatch: return "map_batch";
      case CtlOpKind::StatsRead: return "stats_read";
      case CtlOpKind::StatsStream: return "stats_stream";
      case CtlOpKind::Drain: return "drain";
      case CtlOpKind::SwapProgram: return "swap_program";
    }
    fatal("unknown ctl op kind");
}

std::string
serializeSchedule(const CtlSchedule &sched)
{
    std::ostringstream os;
    for (const CtlTxn &txn : sched.txns) {
        os << "@" << txn.cycle << " ";
        switch (txn.kind) {
          case CtlOpKind::MapLookup:
          case CtlOpKind::MapUpdate:
          case CtlOpKind::MapDelete:
            if (txn.ops.size() != 1)
                fatal("ctl schedule: ", ctlOpKindName(txn.kind),
                      " transaction must carry exactly one op");
            emitMapOp(os, txn.ops[0], 0);
            break;
          case CtlOpKind::MapBatch:
            if (txn.ops.empty())
                fatal("ctl schedule: empty map_batch transaction");
            os << "batch ";
            for (size_t i = 0; i < txn.ops.size(); ++i) {
                if (i > 0)
                    os << " ; ";
                emitMapOp(os, txn.ops[i], 0);
            }
            break;
          case CtlOpKind::StatsRead:
            os << "stats";
            break;
          case CtlOpKind::StatsStream:
            if (txn.streamPeriod == 0 || txn.streamCount == 0)
                fatal("ctl schedule: stats_stream needs a nonzero "
                      "period and count");
            os << "stream " << txn.streamPeriod << " " << txn.streamCount;
            break;
          case CtlOpKind::Drain:
            os << "drain";
            break;
          case CtlOpKind::SwapProgram:
            os << "swap " << txn.program;
            break;
        }
        os << "\n";
    }
    return os.str();
}

CtlSchedule
parseSchedule(const std::string &text)
{
    CtlSchedule sched;
    std::istringstream is(text);
    std::string raw;
    size_t lineno = 0;
    while (std::getline(is, raw)) {
        ++lineno;
        if (raw.empty() || raw[0] == '#')
            continue;
        std::istringstream ls(raw);
        std::string at;
        ls >> at;
        if (at.size() < 2 || at[0] != '@')
            fatal("ctl schedule line ", lineno,
                  ": expected '@<cycle>', got '", at, "'");
        CtlTxn txn;
        txn.cycle = parseU64(at.substr(1), lineno);
        std::string verb;
        ls >> verb;
        if (verb == "update" || verb == "delete" || verb == "lookup") {
            txn.ops.push_back(parseMapOp(verb, ls, lineno));
            txn.kind = txn.ops[0].kind;
        } else if (verb == "batch") {
            txn.kind = CtlOpKind::MapBatch;
            std::string word;
            while (ls >> word) {
                if (word == ";")
                    continue;
                txn.ops.push_back(parseMapOp(word, ls, lineno));
            }
            if (txn.ops.empty())
                fatal("ctl schedule line ", lineno, ": empty batch");
        } else if (verb == "stats") {
            txn.kind = CtlOpKind::StatsRead;
        } else if (verb == "stream") {
            txn.kind = CtlOpKind::StatsStream;
            std::string period_word, count_word;
            ls >> period_word >> count_word;
            if (period_word.empty() || count_word.empty())
                fatal("ctl schedule line ", lineno,
                      ": stream needs <period> <count>");
            txn.streamPeriod = parseU64(period_word, lineno);
            txn.streamCount = parseU64(count_word, lineno);
            if (txn.streamPeriod == 0 || txn.streamCount == 0)
                fatal("ctl schedule line ", lineno,
                      ": stream period and count must be nonzero");
        } else if (verb == "drain") {
            txn.kind = CtlOpKind::Drain;
        } else if (verb == "swap") {
            txn.kind = CtlOpKind::SwapProgram;
            ls >> txn.program;
            if (txn.program.empty())
                fatal("ctl schedule line ", lineno,
                      ": swap needs a program label");
        } else {
            fatal("ctl schedule line ", lineno, ": unknown command '", verb,
                  "'");
        }
        std::string extra;
        if (ls >> extra)
            fatal("ctl schedule line ", lineno, ": trailing '", extra, "'");
        sched.txns.push_back(std::move(txn));
    }
    std::stable_sort(sched.txns.begin(), sched.txns.end(),
                     [](const CtlTxn &a, const CtlTxn &b) {
                         return a.cycle < b.cycle;
                     });
    return sched;
}

CtlSchedule
loadSchedule(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot open '", path, "'");
    std::ostringstream buf;
    buf << is.rdbuf();
    return parseSchedule(buf.str());
}

}  // namespace ehdl::ctl
