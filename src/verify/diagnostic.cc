#include "verify/diagnostic.h"

#include <sstream>

#include "support/table.h"

namespace ndp::verify {

const char *
toString(Severity severity)
{
    switch (severity) {
    case Severity::Warning:
        return "warning";
    case Severity::Error:
        return "error";
    }
    return "error";
}

void
Report::add(Diagnostic diag)
{
    switch (diag.severity) {
    case Severity::Warning:
        ++counts_.warnings;
        break;
    case Severity::Error:
        ++counts_.errors;
        break;
    }
    if (diags_.size() < kMaxStored)
        diags_.push_back(std::move(diag));
}

std::string
Report::renderTable() const
{
    if (diags_.empty())
        return std::string();
    Table table({"rule", "sev", "stmt", "iter", "task", "node",
                 "message"});
    for (const Diagnostic &d : diags_) {
        table.row()
            .cell(d.rule)
            .cell(toString(d.severity))
            .cell(static_cast<long long>(d.statementIndex))
            .cell(static_cast<long long>(d.iterationNumber))
            .cell(static_cast<long long>(d.task))
            .cell(static_cast<long long>(d.node))
            .cell(d.message);
    }
    std::ostringstream os;
    os << "plan '" << plan << "' (" << toString(level) << " verify): "
       << counts_.errors << " error(s), " << counts_.warnings
       << " warning(s)\n"
       << table.toString();
    if (diags_.size() < static_cast<std::size_t>(counts_.total()))
        os << "... " << (counts_.total() -
                         static_cast<std::int64_t>(diags_.size()))
           << " further diagnostic(s) not stored\n";
    return os.str();
}

namespace {

/** Minimal JSON string escaping (quotes, backslashes, control chars). */
void
appendEscaped(std::ostringstream &os, const std::string &text)
{
    for (char c : text) {
        switch (c) {
        case '"':
            os << "\\\"";
            break;
        case '\\':
            os << "\\\\";
            break;
        case '\n':
            os << "\\n";
            break;
        case '\t':
            os << "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20)
                os << ' ';
            else
                os << c;
        }
    }
}

} // namespace

std::string
Report::renderJson() const
{
    std::ostringstream os;
    os << "{\"plan\": \"";
    appendEscaped(os, plan);
    os << "\", \"level\": \"" << toString(level) << "\""
       << ", \"plans_verified\": " << counts_.plansVerified
       << ", \"errors\": " << counts_.errors
       << ", \"warnings\": " << counts_.warnings << ", \"diagnostics\": [";
    for (std::size_t i = 0; i < diags_.size(); ++i) {
        const Diagnostic &d = diags_[i];
        if (i > 0)
            os << ", ";
        os << "{\"rule\": \"";
        appendEscaped(os, d.rule);
        os << "\", \"severity\": \"" << toString(d.severity) << "\""
           << ", \"statement\": " << d.statementIndex
           << ", \"iteration\": " << d.iterationNumber
           << ", \"task\": " << d.task << ", \"node\": " << d.node
           << ", \"message\": \"";
        appendEscaped(os, d.message);
        os << "\"}";
    }
    os << "]}";
    return os.str();
}

} // namespace ndp::verify
